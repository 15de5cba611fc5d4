"""Span tracing of stabrel's layers from outside the program.

`Tracer.install` wraps the public module-level functions of every
stabrel module (the layers) in every module that binds them, so a call
through `from .linalg import nullspace_mod` is seen as well as one
through `linalg.nullspace_mod`.  Hot helpers are left unwrapped.  Spans
(op, name, start, end, parent, error) are kept in memory; `metrics`
reduces them to the per-layer numbers and `dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "relation", "symplectic", "doubled", "diagram", "qec", "cli")

# Unit of every per-layer metric `Tracer.metrics` and the traced run give.
UNITS = {
    "linalg.calls": "count", "linalg.self_s": "s",
    "linalg.elim_cells": "count", "linalg.max_cols": "count",
    "linalg.nullspace_repeat_ratio": "fraction", "linalg.errors": "count",
    "relation.compose_calls": "count", "relation.tensor_calls": "count",
    "relation.total_s": "s", "relation.self_s": "s", "relation.errors": "count",
    "doubled.generator_calls": "count", "doubled.generator_total_s": "s",
    "doubled.generator_repeat_ratio": "fraction", "doubled.self_s": "s",
    "doubled.errors": "count",
    "diagram.parse_total_s": "s", "diagram.evaluate_calls": "count",
    "diagram.evaluate_self_s": "s", "diagram.global_cols": "count",
    "diagram.self_s": "s", "diagram.errors": "count",
    "symplectic.classify_calls": "count", "symplectic.dilation_calls": "count",
    "symplectic.dilation_total_s": "s", "symplectic.self_s": "s",
    "symplectic.errors": "count",
    "qec.measurement_calls": "count", "qec.measurement_total_s": "s",
    "qec.syndrome_calls": "count", "qec.syndrome_total_s": "s",
    "qec.verify_total_s": "s", "qec.self_s": "s", "qec.errors": "count",
    "cli.main_calls": "count", "cli.render_total_s": "s", "cli.self_s": "s",
    "cli.errors": "count",
    "trace.spans": "count", "trace.overhead_ratio": "fraction",
}
UNITS.update({"setup.%s.self_s" % layer: "s" for layer in LAYERS})

# Called per coordinate, per wire or per vector: wrapping them costs more
# than the work they do and hides nothing a boundary span does not show.
HOT = {"mod_p", "inv_mod", "omega", "wire_width", "boundary_width",
       "quantum_wires", "classical_wires"}

# The doubled-layer constructors a diagram node turns into.
GENERATORS = {"z_spider", "x_spider", "fourier", "fourier_dagger",
              "scaling_gate", "measure_z", "measure_x", "prep_z", "prep_x",
              "discard", "codiscard", "classical_z_spider",
              "classical_x_spider"}


class Tracer:
    def __init__(self):
        self.spans = []          # [op, name, start, end, parent, error]
        self.stack = []
        self.op = -1             # the operation the current spans belong to
        self.phase_start = {}    # phase name -> first span index, in order
        self.extra = defaultdict(lambda: defaultdict(float))
        self.phase = None
        self._seen = defaultdict(set)
        self._patches = []       # (module, attribute, original)

    # -- recording ----------------------------------------------------

    def begin_phase(self, name: str) -> None:
        self.phase = name
        self.phase_start[name] = len(self.spans)
        self._seen.clear()

    def reset_stack(self) -> None:
        """Drop spans left open by an interrupted operation."""
        self.stack.clear()

    def _count(self, key: str, value: float = 1.0) -> None:
        self.extra[self.phase][key] += value

    def _repeat(self, kind: str, key) -> None:
        seen = self._seen[kind]
        self._count(kind + "_calls")
        if key in seen:
            self._count(kind + "_repeats")
        else:
            seen.add(key)

    def _probe(self, name: str, args, kwargs, parent: int) -> None:
        """Exact counts taken from the arguments at a boundary."""
        if name in ("linalg.rref_mod", "linalg.nullspace_mod"):
            mat = np.asarray(args[0])
            rows, cols = mat.shape if mat.ndim == 2 else (1, mat.size)
            if name == "linalg.rref_mod":
                self._count("elim_cells", rows * cols)
                ext = self.extra[self.phase]
                ext["max_cols"] = max(ext["max_cols"], cols)
                return
            p = int(args[1])
            key = hash((p, mat.shape, (mat.astype(np.int64) % p).tobytes()))
            self._repeat("nullspace", key)
            if parent >= 0 and self.spans[parent][1] == "diagram.evaluate":
                ext = self.extra[self.phase]
                ext["global_cols"] = max(ext["global_cols"], cols)
        elif name.startswith("doubled.") and name[8:] in GENERATORS:
            self._repeat("generator", repr((name, args, sorted(kwargs.items()))))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        probed = (name in ("linalg.rref_mod", "linalg.nullspace_mod")
                  or (name.startswith("doubled.") and name[8:] in GENERATORS))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [self.op, name, 0.0, 0.0, parent, 0]
            spans.append(span)
            stack.append(index)
            if probed:
                self._probe(name, args, kwargs, parent)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[3] = clock()
                if stack and stack[-1] == index:
                    stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every public boundary function of the package's layers."""
        layers = [importlib.import_module(package.__name__ + "." + layer)
                  for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, layers):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in HOT):
                    wrapped[id(obj)] = self._wrap(layer + "." + attr, obj)
        for mod in [package] + layers:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- reduction ----------------------------------------------------

    def _phase_spans(self, phase: str):
        names = list(self.phase_start)
        later = names[names.index(phase) + 1:]
        end = self.phase_start[later[0]] if later else len(self.spans)
        return self.phase_start[phase], end

    def metrics(self, phase: str) -> dict:
        """Per-layer numbers over the spans recorded in one phase.

        A span's self time is its duration minus that of its children;
        a `*_total_s` sums the spans that have no ancestor of the same
        kind, so nested calls are not counted twice.
        """
        lo, hi = self._phase_spans(phase)
        spans = self.spans[lo:hi]
        n = len(spans)
        child = [0.0] * n
        for op, name, start, end, parent, error in spans:
            if parent >= lo:
                child[parent - lo] += end - start

        def below(j: int, names) -> bool:
            parent = spans[j][4]
            while parent >= lo:
                if spans[parent - lo][1] in names:
                    return True
                parent = spans[parent - lo][4]
            return False

        def total(names) -> float:
            return sum(s[3] - s[2] for j, s in enumerate(spans)
                       if s[1] in names and not below(j, names))

        calls = defaultdict(int)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        for j, (op, name, start, end, parent, error) in enumerate(spans):
            layer = name.split(".", 1)[0]
            calls[name] += 1
            calls[layer] += 1
            self_s[layer] += end - start - child[j]
            self_s[name] += end - start - child[j]
            if error and not (parent >= lo and
                              spans[parent - lo][1].startswith(layer + ".")):
                errors[layer] += 1
        ext = self.extra[phase]
        generators = {"doubled." + g for g in GENERATORS}

        def ratio(kind: str) -> float:
            return ext[kind + "_repeats"] / max(ext[kind + "_calls"], 1)

        out = {
            "linalg.calls": calls["linalg"],
            "linalg.elim_cells": ext["elim_cells"],
            "linalg.max_cols": ext["max_cols"],
            "linalg.nullspace_repeat_ratio": ratio("nullspace"),
            "relation.compose_calls": calls["relation.compose"],
            "relation.tensor_calls": calls["relation.tensor"],
            "relation.total_s": total({s[1] for s in spans
                                       if s[1].startswith("relation.")}),
            "doubled.generator_calls": sum(calls[g] for g in generators),
            "doubled.generator_total_s": total(generators),
            "doubled.generator_repeat_ratio": ratio("generator"),
            "diagram.parse_total_s": total({"diagram.parse",
                                            "diagram.parse_file"}),
            "diagram.evaluate_calls": calls["diagram.evaluate"],
            "diagram.evaluate_self_s": self_s["diagram.evaluate"],
            "diagram.global_cols": ext["global_cols"],
            "symplectic.classify_calls": calls["symplectic.classify"],
            "symplectic.dilation_calls": calls["symplectic.dilation"],
            "symplectic.dilation_total_s": total({"symplectic.dilation"}),
            "qec.measurement_calls": calls["qec.measurement"],
            "qec.measurement_total_s": total({"qec.measurement"}),
            "qec.syndrome_calls": calls["qec.syndrome"],
            "qec.syndrome_total_s": total({"qec.syndrome"}),
            "qec.verify_total_s": total({"qec.verify_correction"}),
            "cli.main_calls": calls["cli.main"],
            "cli.render_total_s": total({"cli.render_equations",
                                         "cli.render_basis"}),
            "trace.spans": n,
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = self_s[layer]
            out[layer + ".errors"] = errors[layer]
        return out

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"meta": meta, "phases": self.phase_start,
                       "fields": ["op", "name", "start", "end", "parent",
                                  "error"],
                       "spans": self.spans}, handle, separators=(",", ":"))
