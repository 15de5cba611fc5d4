"""Circuit diagrams: a small IR, a text file format, and an evaluator.

A diagram is a list of nodes (spiders, cups, caps, measurements, ...)
joined by wires, together with ordered input and output boundary slots.
Evaluation assigns one variable per wire coordinate, collects every
node's linear constraints into a single system over F_p, and eliminates
the internal variables exactly, interior columns first, leaving the
boundary's constraints, all in one `relation.conjoin`.  Feedback loops
need no special treatment -- they are just more equations.

Two layers share the format:

* ``layer=affine``  -- one coordinate per wire, nodes drawn from the
  plain relational generators of `relation`.  Evaluates to an
  ``AffineRelation``.
* ``layer=doubled`` -- quantum wires carry a (z, x) coordinate pair,
  classical wires one coordinate; the node vocabulary adds scaling,
  discard, measurements, preparations and classical spiders.  Evaluates
  to a ``GradedRelation``.

`NODE_SPECS` lists every node kind of each layer with its arity, phase
rule, port types and builder.

File format, one statement per line, ``#`` starts a comment::

    p=3; layer=doubled
    node 0 z_spider phase=1,2 arity_in=1 arity_out=2
    node 1 measure_z
    wire in0 n0.in0
    wire n0.out0 n1.in0
    wire n0.out1 out0
    wire n1.out0 out1
    wiretype 3 classical

Endpoints are ``in<k>``/``out<k>`` (boundary slots) or ``n<id>.in<k>``/
``n<id>.out<k>`` (node ports).  ``wiretype <k> <quantum|classical>``
declares the type of the k-th ``wire`` statement; wires whose type is
not forced by a node port default to quantum.  Boxes (``box:<name>``)
reference named sub-diagrams supplied to `evaluate` and must declare
their arities in the file.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from . import doubled as db
from . import relation as ar
from .linalg import Prime

LAYER_AFFINE = "affine"
LAYER_DOUBLED = "doubled"

QUANTUM = db.QUANTUM
CLASSICAL = db.CLASSICAL


class DiagramError(ValueError):
    """Problem with a diagram file or structure; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Node:
    __slots__ = ("ident", "kind", "phase", "n_in", "n_out")

    def __init__(self, ident: int, kind: str, phase=(0, 0), n_in=1, n_out=1):
        self.ident = int(ident)
        self.kind = kind
        self.phase = (int(phase[0]), int(phase[1]))
        self.n_in = int(n_in)
        self.n_out = int(n_out)

    def __repr__(self):
        return "Node(%d, %r, phase=%r, %d->%d)" % (
            self.ident, self.kind, self.phase, self.n_in, self.n_out)


# endpoints: ("n", node_id, side, port) or ("b", side, slot), side in {in,out}


class Diagram:
    """Immutable diagram; construct via `parse` or the combinators."""

    __slots__ = ("p", "layer", "nodes", "wires", "wire_types",
                 "n_in", "n_out")

    def __init__(self, p, layer, nodes, wires, wire_types, n_in, n_out):
        self.p = p if isinstance(p, Prime) else Prime(p)
        if layer not in (LAYER_AFFINE, LAYER_DOUBLED):
            raise DiagramError("unknown layer %r" % (layer,))
        self.layer = layer
        self.nodes = tuple(nodes)
        self.wires = tuple(wires)
        self.wire_types = tuple(wire_types)
        self.n_in = int(n_in)
        self.n_out = int(n_out)

    def node(self, ident: int) -> Node:
        for nd in self.nodes:
            if nd.ident == ident:
                return nd
        raise KeyError(ident)

    def dom_types(self) -> Tuple[str, ...]:
        return self._boundary_types("in", self.n_in)

    def cod_types(self) -> Tuple[str, ...]:
        return self._boundary_types("out", self.n_out)

    def _boundary_types(self, side, count):
        slot_type = {}
        for w, (a, b) in enumerate(self.wires):
            for ep in (a, b):
                if ep[0] == "b" and ep[1] == side:
                    slot_type[ep[2]] = self.wire_types[w]
        return tuple(slot_type[k] for k in range(count))

    def __repr__(self):
        return "Diagram(p=%d, %s, %d nodes, %d wires, %d->%d)" % (
            self.p, self.layer, len(self.nodes), len(self.wires),
            self.n_in, self.n_out)


# ---------------------------------------------------------------------------
# node vocabulary

# One spec per (layer, kind).  `arity` is the fixed (n_in, n_out), or None
# when the file declares it.  `phase` is the rule on the node's phase pair
# (a, b): "none" (both zero), "single" (b zero), "invertible" (b zero and
# a nonzero) or "pair" (any).  `ports` is the wire type of every input and
# of every output, None on the untyped affine layer.  `build(p, n_in,
# n_out, a, b)` returns the node's AffineRelation; builders look their
# constructor up when called, so a patched module attribute is seen.
NodeSpec = namedtuple("NodeSpec", ["arity", "phase", "ports", "build"])

NODE_SPECS = {
    (LAYER_AFFINE, "z_spider"): NodeSpec(
        None, "none", None, lambda p, n, m, a, b: ar.z_spider(p, n, m)),
    (LAYER_AFFINE, "x_spider"): NodeSpec(
        None, "single", None, lambda p, n, m, a, b: ar.x_spider(p, n, m, a)),
    (LAYER_AFFINE, "scalar"): NodeSpec(
        (1, 1), "single", None, lambda p, n, m, a, b: ar.scalar(p, a)),
    (LAYER_AFFINE, "co_scalar"): NodeSpec(
        (1, 1), "single", None, lambda p, n, m, a, b: ar.co_scalar(p, a)),
    (LAYER_AFFINE, "affine_unit"): NodeSpec(
        (0, 1), "none", None, lambda p, n, m, a, b: ar.affine_unit(p)),
    (LAYER_AFFINE, "cup_z"): NodeSpec(
        (0, 2), "none", None, lambda p, n, m, a, b: ar.cup_z(p)),
    (LAYER_AFFINE, "cap_z"): NodeSpec(
        (2, 0), "none", None, lambda p, n, m, a, b: ar.cap_z(p)),
    (LAYER_AFFINE, "cup_x"): NodeSpec(
        (0, 2), "none", None, lambda p, n, m, a, b: ar.cup_x(p)),
    (LAYER_AFFINE, "cap_x"): NodeSpec(
        (2, 0), "none", None, lambda p, n, m, a, b: ar.cap_x(p)),
    (LAYER_AFFINE, "swap"): NodeSpec(
        (2, 2), "none", None, lambda p, n, m, a, b: ar.swap(p)),
    (LAYER_DOUBLED, "z_spider"): NodeSpec(
        None, "pair", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.z_spider(p, n, m, (a, b)).rel),
    (LAYER_DOUBLED, "x_spider"): NodeSpec(
        None, "pair", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.x_spider(p, n, m, (a, b)).rel),
    (LAYER_DOUBLED, "scaling"): NodeSpec(
        (1, 1), "invertible", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.scaling_gate(p, a).rel),
    (LAYER_DOUBLED, "discard"): NodeSpec(
        (1, 0), "none", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.discard(p).rel),
    (LAYER_DOUBLED, "codiscard"): NodeSpec(
        (0, 1), "none", (QUANTUM, QUANTUM),
        lambda p, n, m, a, b: db.codiscard(p).rel),
    (LAYER_DOUBLED, "measure_z"): NodeSpec(
        (1, 1), "none", (QUANTUM, CLASSICAL),
        lambda p, n, m, a, b: db.measure_z(p).rel),
    (LAYER_DOUBLED, "measure_x"): NodeSpec(
        (1, 1), "none", (QUANTUM, CLASSICAL),
        lambda p, n, m, a, b: db.measure_x(p).rel),
    (LAYER_DOUBLED, "prep_z"): NodeSpec(
        (1, 1), "none", (CLASSICAL, QUANTUM),
        lambda p, n, m, a, b: db.prep_z(p).rel),
    (LAYER_DOUBLED, "prep_x"): NodeSpec(
        (1, 1), "none", (CLASSICAL, QUANTUM),
        lambda p, n, m, a, b: db.prep_x(p).rel),
    (LAYER_DOUBLED, "classical_z_spider"): NodeSpec(
        None, "none", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: db.classical_z_spider(p, n, m).rel),
    (LAYER_DOUBLED, "classical_x_spider"): NodeSpec(
        None, "single", (CLASSICAL, CLASSICAL),
        lambda p, n, m, a, b: db.classical_x_spider(p, n, m, a).rel),
}


def _check_node(layer, p, nd: Node, line=None):
    kind, a, b = nd.kind, nd.phase[0], nd.phase[1]
    spec = NODE_SPECS.get((layer, kind))
    if spec is None and not (layer == LAYER_DOUBLED and
                             kind.startswith("box:")):
        raise DiagramError("unknown %s-layer node kind %r" % (layer, kind),
                           line)
    if nd.n_in < 0 or nd.n_out < 0:
        raise DiagramError("negative arity on node %d" % nd.ident, line)
    fixed = spec and spec.arity
    if fixed and (nd.n_in, nd.n_out) != fixed:
        raise DiagramError("%s is %d->%d, got %d->%d" %
                           (kind, fixed[0], fixed[1], nd.n_in, nd.n_out),
                           line)
    if not (0 <= a < p and 0 <= b < p):
        raise DiagramError("phase %r out of range for p=%d" %
                           (nd.phase, int(p)), line)
    rule = spec.phase if spec else "none"
    if rule == "none" and (a, b) != (0, 0):
        raise DiagramError("%s takes no phase" % kind, line)
    if rule in ("single", "invertible") and b != 0:
        raise DiagramError("%s takes a single phase value" % kind, line)
    if rule == "invertible" and a == 0:
        raise DiagramError("%s coefficient must be invertible" % kind, line)


def _port_types(layer, nd: Node, boxes=None):
    """Pinned wire types of a node's ports, or None when unconstrained."""
    if layer == LAYER_AFFINE:
        return None
    if nd.kind.startswith("box:"):
        sub = boxes.get(nd.kind[4:]) if boxes else None
        return (sub.dom_types(), sub.cod_types()) if sub else None
    tin, tout = NODE_SPECS[layer, nd.kind].ports
    return ((tin,) * nd.n_in, (tout,) * nd.n_out)


# ---------------------------------------------------------------------------
# parsing

_EP_RE = re.compile(r"^(?:n(\d+)\.)?(in|out)(\d+)$")


def _parse_endpoint(tok, line):
    m = _EP_RE.match(tok)
    if not m:
        raise DiagramError("bad endpoint %r" % tok, line)
    ident, side, k = m.groups()
    if ident is None:
        return ("b", side, int(k))
    return ("n", int(ident), side, int(k))


def _parse_keyvals(parts, line):
    out = {}
    for part in parts:
        if "=" not in part:
            raise DiagramError("expected key=value, got %r" % part, line)
        key, _, val = part.partition("=")
        out[key] = val
    return out


def parse(text: str, p=None) -> Diagram:
    """Parse diagram text; raises DiagramError with a line number.

    `p` overrides the file header's prime (all phases must still be in
    range for the overriding value).
    """
    override = None if p is None else Prime(p)
    p = None
    layer = None
    nodes: List[Node] = []
    node_lines: Dict[int, int] = {}
    wires = []
    wire_lines = []
    declared_types: Dict[int, str] = {}
    seen_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        if not seen_header:
            m = re.match(r"^p\s*=\s*(\d+)\s*;\s*layer\s*=\s*(\w+)$", stmt)
            if not m:
                raise DiagramError(
                    "expected header 'p=<prime>; layer=<affine|doubled>'",
                    lineno)
            try:
                p = Prime(int(m.group(1))) if override is None else override
            except ValueError as exc:
                raise DiagramError(str(exc), lineno) from None
            layer = m.group(2)
            if layer not in (LAYER_AFFINE, LAYER_DOUBLED):
                raise DiagramError("unknown layer %r" % layer, lineno)
            seen_header = True
            continue
        parts = stmt.split()
        if parts[0] == "node":
            if len(parts) < 3:
                raise DiagramError("node needs an id and a kind", lineno)
            try:
                ident = int(parts[1])
            except ValueError:
                raise DiagramError("bad node id %r" % parts[1], lineno) \
                    from None
            if ident in node_lines:
                raise DiagramError("duplicate node id %d" % ident, lineno)
            kind = parts[2]
            kv = _parse_keyvals(parts[3:], lineno)
            unknown = set(kv) - {"phase", "arity_in", "arity_out"}
            if unknown:
                raise DiagramError("unknown node option %r" % unknown.pop(),
                                   lineno)
            phase = (0, 0)
            if "phase" in kv:
                try:
                    vals = [int(v) for v in kv["phase"].split(",")]
                except ValueError:
                    raise DiagramError("bad phase %r" % kv["phase"],
                                       lineno) from None
                if len(vals) == 1:
                    phase = (vals[0], 0)
                elif len(vals) == 2:
                    phase = (vals[0], vals[1])
                else:
                    raise DiagramError("phase takes one or two values",
                                       lineno)
            spec = NODE_SPECS.get((layer, kind))
            n_in, n_out = spec.arity if spec and spec.arity else (1, 1)
            try:
                if "arity_in" in kv:
                    n_in = int(kv["arity_in"])
                if "arity_out" in kv:
                    n_out = int(kv["arity_out"])
            except ValueError:
                raise DiagramError("bad arity value", lineno) from None
            if kind.startswith("box:") and \
                    not ("arity_in" in kv and "arity_out" in kv):
                raise DiagramError("box nodes must declare arities", lineno)
            nd = Node(ident, kind, phase, n_in, n_out)
            _check_node(layer, p, nd, lineno)
            nodes.append(nd)
            node_lines[ident] = lineno
        elif parts[0] == "wire":
            if len(parts) != 3:
                raise DiagramError("wire needs two endpoints", lineno)
            a = _parse_endpoint(parts[1], lineno)
            b = _parse_endpoint(parts[2], lineno)
            wires.append((a, b))
            wire_lines.append(lineno)
        elif parts[0] == "wiretype":
            if layer != LAYER_DOUBLED:
                raise DiagramError("wiretype only applies to layer=doubled",
                                   lineno)
            if len(parts) != 3 or parts[2] not in (QUANTUM, CLASSICAL):
                raise DiagramError(
                    "usage: wiretype <wire-index> <quantum|classical>",
                    lineno)
            try:
                idx = int(parts[1])
            except ValueError:
                raise DiagramError("bad wire index %r" % parts[1],
                                   lineno) from None
            declared_types[idx] = parts[2]
        else:
            raise DiagramError("unknown statement %r" % parts[0], lineno)

    if not seen_header:
        raise DiagramError("missing header 'p=<prime>; layer=<...>'", 1)

    for idx in declared_types:
        if not 0 <= idx < len(wires):
            raise DiagramError("wiretype index %d out of range" % idx)

    n_in, n_out = _check_wiring(nodes, wires, node_lines, wire_lines)
    wire_types = _resolve_types(layer, nodes, wires, declared_types,
                                wire_lines)
    return Diagram(p, layer, nodes, wires, wire_types, n_in, n_out)


def parse_file(path, p=None) -> Diagram:
    with open(path, "r") as fh:
        return parse(fh.read(), p=p)


def _check_wiring(nodes, wires, node_lines=None, wire_lines=None):
    """Every port and boundary slot must have exactly one incident wire."""
    node_lines = node_lines or {}
    wire_lines = wire_lines or {}
    by_id = {nd.ident: nd for nd in nodes}
    seen: Dict[tuple, int] = {}
    bound = {"in": set(), "out": set()}
    for w, (a, b) in enumerate(wires):
        line = wire_lines[w] if w < len(wire_lines) else None
        if a == b:
            raise DiagramError("wire joins an endpoint to itself", line)
        for ep in (a, b):
            if ep in seen:
                raise DiagramError("endpoint %s used twice" % _ep_str(ep),
                                   line)
            seen[ep] = w
            if ep[0] == "n":
                _, ident, side, k = ep
                nd = by_id.get(ident)
                if nd is None:
                    raise DiagramError("wire references missing node %d"
                                       % ident, line)
                arity = nd.n_in if side == "in" else nd.n_out
                if not 0 <= k < arity:
                    raise DiagramError(
                        "node %d has no port %s%d" % (ident, side, k), line)
            else:
                _, side, k = ep
                bound[side].add(k)
    for nd in nodes:
        for side, arity in (("in", nd.n_in), ("out", nd.n_out)):
            for k in range(arity):
                if ("n", nd.ident, side, k) not in seen:
                    raise DiagramError(
                        "dangling port n%d.%s%d" % (nd.ident, side, k),
                        node_lines.get(nd.ident))
    for side in ("in", "out"):
        slots = bound[side]
        if slots and slots != set(range(max(slots) + 1)):
            raise DiagramError("boundary %s-slots not contiguous from 0"
                               % side)
    return (max(bound["in"]) + 1 if bound["in"] else 0,
            max(bound["out"]) + 1 if bound["out"] else 0)


def _resolve_types(layer, nodes, wires, declared, wire_lines, boxes=None):
    """Settle each wire's type from node ports and declarations."""
    if layer == LAYER_AFFINE:
        if declared:
            raise DiagramError("wiretype only applies to layer=doubled")
        return (None,) * len(wires)
    by_id = {nd.ident: nd for nd in nodes}
    types: List[Optional[str]] = [declared.get(w) for w in range(len(wires))]
    for w, (a, b) in enumerate(wires):
        line = wire_lines[w] if w < len(wire_lines) else None
        for ep in (a, b):
            if ep[0] != "n":
                continue
            _, ident, side, k = ep
            pinned = _port_types(layer, by_id[ident], boxes)
            if pinned is None:
                continue
            want = pinned[0][k] if side == "in" else pinned[1][k]
            if types[w] is None:
                types[w] = want
            elif types[w] != want:
                raise DiagramError(
                    "wire %d is %s but port %s needs %s" %
                    (w, types[w], _ep_str(ep), want), line)
    return tuple(t if t is not None else QUANTUM for t in types)


def _ep_str(ep) -> str:
    if ep[0] == "b":
        return "%s%d" % (ep[1], ep[2])
    return "n%d.%s%d" % (ep[1], ep[2], ep[3])


# ---------------------------------------------------------------------------
# evaluation

def _node_relation(d: Diagram, nd: Node, boxes, stack):
    if not nd.kind.startswith("box:"):
        return NODE_SPECS[d.layer, nd.kind].build(d.p, nd.n_in, nd.n_out,
                                                  *nd.phase)
    name = nd.kind[4:]
    if not boxes or name not in boxes:
        raise DiagramError("unknown box %r" % name)
    if name in stack:
        raise DiagramError("box %r is recursively defined" % name)
    sub = boxes[name]
    if sub.p != d.p or sub.layer != d.layer:
        raise DiagramError("box %r does not match p/layer" % name)
    if (sub.n_in, sub.n_out) != (nd.n_in, nd.n_out):
        raise DiagramError("box %r is %d->%d, node declares %d->%d" %
                           (name, sub.n_in, sub.n_out, nd.n_in, nd.n_out))
    return _evaluate(sub, boxes, stack | {name}).rel


def evaluate(d: Diagram, boxes=None):
    """Compile a diagram to its relation by one global elimination.

    One column per wire coordinate; every node is a part of
    `relation.conjoin` on its wires' columns, and the boundary wires'
    columns are kept.  Returns an AffineRelation (layer=affine) or
    GradedRelation (layer=doubled).  `boxes` maps names to sub-diagrams
    for box nodes.
    """
    return _evaluate(d, boxes, frozenset())


def _evaluate(d: Diagram, boxes, stack):
    doubled = d.layer == LAYER_DOUBLED
    wire_cols: List[range] = []
    ncols = 0
    for t in d.wire_types:
        width = db.wire_width(t) if doubled else 1
        wire_cols.append(range(ncols, ncols + width))
        ncols += width
    ep_wire = {ep: w for w, pair in enumerate(d.wires) for ep in pair}

    def cols(eps, types):
        """Columns of the flat coordinates of the wires at `eps`."""
        wires = [ep_wire[ep] for ep in eps]
        if not doubled:
            return [wire_cols[w][0] for w in wires]
        return db._flat_cols(types, [wire_cols[w] for w in wires])

    # generator nodes of one kind, arity and phase share their relation;
    # the memo holds only what those three determine, so a box node is
    # still looked up, checked and evaluated from its sub-diagram
    memo = {}
    parts = []
    for nd in d.nodes:
        key = (nd.kind, nd.n_in, nd.n_out, nd.phase)
        rel = memo.get(key)
        if rel is None:
            rel = _node_relation(d, nd, boxes, stack)
            if not nd.kind.startswith("box:"):
                memo[key] = rel
        ins = [("n", nd.ident, "in", k) for k in range(nd.n_in)]
        outs = [("n", nd.ident, "out", k) for k in range(nd.n_out)]
        tin, tout = _port_types(d.layer, nd, boxes) or (None, None)
        if doubled:
            if rel.dom != db.boundary_width(tin) or \
                    rel.cod != db.boundary_width(tout):
                raise DiagramError(
                    "node %d boundary types do not match its wires"
                    % nd.ident)
            for ep, t in zip(ins + outs, tin + tout):
                if len(wire_cols[ep_wire[ep]]) != db.wire_width(t):
                    raise DiagramError("port n%d.%s%d expects a %s wire"
                                       % (nd.ident, ep[2], ep[3], t))
        parts.append((rel, cols(ins, tin) + cols(outs, tout)))

    ins = [("b", "in", k) for k in range(d.n_in)]
    outs = [("b", "out", k) for k in range(d.n_out)]
    if not doubled:
        return ar.conjoin(d.p, ncols, parts, cols(ins, None) + cols(outs, None),
                          d.n_in, d.n_out)
    dom_t = tuple(d.wire_types[ep_wire[ep]] for ep in ins)
    cod_t = tuple(d.wire_types[ep_wire[ep]] for ep in outs)
    rel = ar.conjoin(d.p, ncols, parts, cols(ins, dom_t) + cols(outs, cod_t),
                     db.boundary_width(dom_t), db.boundary_width(cod_t))
    return db.GradedRelation(d.p, dom_t, cod_t, rel)


# ---------------------------------------------------------------------------
# combinators

def empty_diagram(p, layer=LAYER_AFFINE) -> Diagram:
    return Diagram(p, layer, (), (), (), 0, 0)


def _shift_node_eps(wires, offset):
    out = []
    for a, b in wires:
        pair = []
        for ep in (a, b):
            if ep[0] == "n":
                pair.append(("n", ep[1] + offset, ep[2], ep[3]))
            else:
                pair.append(ep)
        out.append(tuple(pair))
    return out


def _renumber(d: Diagram, offset: int):
    nodes = [Node(nd.ident + offset, nd.kind, nd.phase, nd.n_in, nd.n_out)
             for nd in d.nodes]
    return nodes, _shift_node_eps(d.wires, offset)


def tensor_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 beside d1; d2's boundary slots follow d1's."""
    if d1.p != d2.p or d1.layer != d2.layer:
        raise DiagramError("diagrams must share p and layer")
    offset = max((nd.ident for nd in d1.nodes), default=-1) + 1
    nodes2, wires2 = _renumber(d2, offset)
    shifted = []
    for a, b in wires2:
        pair = []
        for ep in (a, b):
            if ep[0] == "b":
                shift = d1.n_in if ep[1] == "in" else d1.n_out
                pair.append(("b", ep[1], ep[2] + shift))
            else:
                pair.append(ep)
        shifted.append(tuple(pair))
    return Diagram(d1.p, d1.layer, list(d1.nodes) + nodes2,
                   list(d1.wires) + shifted,
                   list(d1.wire_types) + list(d2.wire_types),
                   d1.n_in + d2.n_in, d1.n_out + d2.n_out)


def compose_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Glue d1's outputs to d2's inputs (diagram order: d1 then d2).

    evaluate(compose_diagrams(a, b)) equals compose(evaluate(a),
    evaluate(b)).  Closed loops created by the gluing carry no
    constraint (a bare loop is the scalar 'true') and are dropped.
    """
    if d1.p != d2.p or d1.layer != d2.layer:
        raise DiagramError("diagrams must share p and layer")
    if d1.n_out != d2.n_in:
        raise DiagramError("boundary mismatch: %d outputs vs %d inputs"
                           % (d1.n_out, d2.n_in))
    if d1.layer == LAYER_DOUBLED and d1.cod_types() != d2.dom_types():
        raise DiagramError("boundary wire types do not match")
    offset = max((nd.ident for nd in d1.nodes), default=-1) + 1
    nodes2, wires2 = _renumber(d2, offset)

    # junction k joins d1's out<k> with d2's in<k>; resolve chains by
    # repeatedly splicing the two wires that meet at a junction
    pending = []
    types = []
    for w, (a, b) in enumerate(d1.wires):
        a2 = ("j", a[2]) if a[:2] == ("b", "out") else a
        b2 = ("j", b[2]) if b[:2] == ("b", "out") else b
        pending.append((a2, b2))
        types.append(d1.wire_types[w])
    for w, (a, b) in enumerate(wires2):
        a2 = ("j", a[2]) if a[:2] == ("b", "in") else a
        b2 = ("j", b[2]) if b[:2] == ("b", "in") else b
        pending.append((a2, b2))
        types.append(d2.wire_types[w])

    changed = True
    while changed:
        changed = False
        for i, (a, b) in enumerate(pending):
            j = a if a[0] == "j" else (b if b[0] == "j" else None)
            if j is None:
                continue
            if a[0] == "j" and b[0] == "j" and a == b:
                # closed loop: no surviving endpoints, no constraint
                del pending[i], types[i]
                changed = True
                break
            for i2, (c, e) in enumerate(pending):
                if i2 == i or j not in (c, e):
                    continue
                other1 = b if a == j else a
                other2 = e if c == j else c
                pending[i] = (other1, other2)
                if d1.layer == LAYER_DOUBLED and types[i] != types[i2]:
                    raise DiagramError("glued wires disagree on type")
                del pending[i2], types[i2]
                changed = True
                break
            if changed:
                break
    for a, b in pending:
        if a[0] == "j" or b[0] == "j":
            raise AssertionError("unresolved junction after gluing")

    return Diagram(d1.p, d1.layer, list(d1.nodes) + nodes2, pending, types,
                   d1.n_in, d2.n_out)


def normalize(d: Diagram) -> Diagram:
    """Canonical structural form: breadth-first node ids from the
    boundary, wires sorted.  Lets syntactically glued diagrams be
    compared to hand-written ones."""
    adj: Dict[tuple, tuple] = {}
    for a, b in d.wires:
        adj[a] = b
        adj[b] = a
    order: Dict[int, int] = {}

    def visit(ep):
        if ep[0] == "n" and ep[1] not in order:
            order[ep[1]] = len(order)
            nd = d.node(ep[1])
            for side, arity in (("in", nd.n_in), ("out", nd.n_out)):
                for k in range(arity):
                    visit(adj[("n", ep[1], side, k)])

    for k in range(d.n_in):
        visit(adj[("b", "in", k)])
    for k in range(d.n_out):
        visit(adj[("b", "out", k)])
    for nd in sorted(d.nodes, key=lambda nd: nd.ident):
        visit(("n", nd.ident, "in", 0) if nd.n_in else
              ("n", nd.ident, "out", 0))

    def rename(ep):
        if ep[0] == "n":
            return ("n", order[ep[1]], ep[2], ep[3])
        return ep

    nodes = sorted((Node(order[nd.ident], nd.kind, nd.phase,
                         nd.n_in, nd.n_out) for nd in d.nodes),
                   key=lambda nd: nd.ident)
    wires = []
    for w, (a, b) in enumerate(d.wires):
        a2, b2 = rename(a), rename(b)
        if b2 < a2:
            a2, b2 = b2, a2
        wires.append(((a2, b2), d.wire_types[w]))
    wires.sort(key=lambda item: item[0])
    return Diagram(d.p, d.layer, nodes, [w for w, _ in wires],
                   [t for _, t in wires], d.n_in, d.n_out)


def to_text(d: Diagram) -> str:
    """Serialize a diagram; parse(to_text(d)) reproduces it."""
    lines = ["p=%d; layer=%s" % (d.p, d.layer)]
    for nd in d.nodes:
        parts = ["node %d %s" % (nd.ident, nd.kind)]
        if nd.phase != (0, 0):
            parts.append("phase=%d,%d" % nd.phase)
        spec = NODE_SPECS.get((d.layer, nd.kind))
        if not (spec and spec.arity):
            parts.append("arity_in=%d" % nd.n_in)
            parts.append("arity_out=%d" % nd.n_out)
        lines.append(" ".join(parts))
    for a, b in d.wires:
        lines.append("wire %s %s" % (_ep_str(a), _ep_str(b)))
    if d.layer == LAYER_DOUBLED:
        for w, t in enumerate(d.wire_types):
            if t == CLASSICAL:
                lines.append("wiretype %d classical" % w)
    return "\n".join(lines) + "\n"
