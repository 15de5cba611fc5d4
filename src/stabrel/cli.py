"""Command-line front end: evaluate, compare, classify, dilate, verify.

Exit codes: 0 success (or a true verdict), 1 false/mismatch, 2 usage
error, 3 input error or internal failure.  Boolean queries never
conflate a false answer with a failure to compute one.  At p = 2 the
doubled algebra covers CSS codes only, so the code commands (`syndrome`,
`verify`, `dilate`, `demo repetition3`) refuse any other code with
exit 3.

Output is deterministic for fixed inputs and flags.  Relations print
either as canonical homogenized basis rows (`--print basis`) or as
defining equations (`--print equations`), with input coordinates named
a1, a2, .. and output coordinates b1, b2, ..; for doubled-layer
diagrams the coordinates follow the flat boundary layout (z block,
x block, then classical wires).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from typing import List

import numpy as np

from . import diagram as dg
from . import doubled as db
from . import qec
from . import relation as ar
from . import symplectic as sy
from .diagram import DiagramError


# ---------------------------------------------------------------------------
# rendering


def _var(i: int, dom: int) -> str:
    return "a%d" % (i + 1) if i < dom else "b%d" % (i - dom + 1)


def _term(coeff: int, name: str) -> str:
    return name if coeff == 1 else "%d*%s" % (coeff, name)


def render_equations(rel: ar.AffineRelation) -> List[str]:
    """Defining equations, one per line: equality chains first, then the
    remaining constraints with their RREF pivot on the left-hand side.

    A coefficient c stays on the left when c <= p - c and otherwise
    crosses over as p - c, so each side shows small positive numbers.
    """
    if rel.is_empty:
        return ["EMPTY"]
    raw = rel.constraint_rows()
    if raw.shape[0] == 0:
        return ["TOTAL"]
    p, dom = rel.p, rel.dom
    width = rel.dom + rel.cod

    # scale each constraint so its first variable has coefficient 1 and
    # order the rows by that variable
    rows = []
    for row in raw:
        support = [i for i in range(width) if row[i]]
        lead = support[0]
        scale = pow(int(row[lead]), p - 2, p)
        rows.append(tuple(int(v) * scale % p for v in row))
    rows.sort(key=lambda r: (next(i for i in range(width) if r[i]), r))

    parent = list(range(width))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    chained = set()
    leftover = []
    for row in rows:
        support = [i for i in range(width) if row[i]]
        if len(support) == 2 and row[-1] == 0 and \
                row[support[0]] == 1 and row[support[1]] == p - 1:
            i, j = (find(k) for k in support)
            parent[max(i, j)] = min(i, j)
            chained.update(support)
        else:
            leftover.append(row)

    groups = {}
    for i in sorted(chained):
        groups.setdefault(find(i), []).append(i)
    lines = [" = ".join(_var(i, dom) for i in members)
             for _, members in sorted(groups.items())]

    for row in leftover:
        left, right = [], []
        for i in range(width):
            c = int(row[i])
            if not c:
                continue
            if c <= p - c:
                left.append(_term(c, _var(i, dom)))
            else:
                right.append(_term(p - c, _var(i, dom)))
        const = int(row[-1])
        if const:
            (left if const <= p - const else right).append(
                str(min(const, p - const)))
        lines.append("%s = %s" % (" + ".join(left), " + ".join(right) or "0"))
    return lines


def render_basis(rel: ar.AffineRelation) -> List[str]:
    """Canonical homogenized basis rows; the empty relation has none."""
    return [",".join(str(int(v)) for v in row) for row in rel.rep.basis]


def _print_lines(lines: List[str]) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# commands


def _load_relation(path: str, p):
    value = dg.evaluate(dg.parse_file(path, p=p))
    return value


def cmd_eval(args) -> int:
    value = _load_relation(args.file, args.p)
    rel = value.rel if isinstance(value, db.GradedRelation) else value
    if args.print == "basis":
        _print_lines(render_basis(rel))
    else:
        _print_lines(render_equations(rel))
    return 0


def _compare(args, op_affine, op_graded, label: str) -> int:
    first = _load_relation(args.file1, args.p)
    second = _load_relation(args.file2, args.p)
    if isinstance(first, db.GradedRelation) != isinstance(second,
                                                          db.GradedRelation):
        raise ValueError("cannot compare an affine diagram with a doubled one")
    op = op_graded if isinstance(first, db.GradedRelation) else op_affine
    verdict = op(first, second)
    print("%s: %s" % (label, "yes" if verdict else "no"))
    return 0 if verdict else 1


def cmd_equal(args) -> int:
    return _compare(args, ar.equal, db.equal, "EQUAL")


def cmd_subset(args) -> int:
    return _compare(args, ar.subset, db.subset, "SUBSET")


def cmd_classify(args) -> int:
    sub = qec.parse_subspace_path(args.file, p=args.p)
    print(sy.classify(sub))
    return 0


def _require_css(p, n: int, stabilizers) -> None:
    """At p = 2 the doubled algebra covers CSS codes only: refuse others."""
    if p == 2 and not qec.is_css(stabilizers, n, p):
        raise ValueError("at p = 2 only CSS codes are supported, and this "
                         "code's stabilizers are not spanned by pure-z and "
                         "pure-x rows")


def _load_code(path: str, p):
    code, table = qec.parse_code_path(path, p=p)
    _require_css(code.p, code.n, code.syndrome_basis)
    return code, table


def cmd_dilate(args) -> int:
    sub = qec.parse_subspace_path(args.file, p=args.p)
    dil = sy.dilation(sub)
    _require_css(sub.space.p, sub.space.n, dil.syndrome_basis)
    with open(args.out, "w") as handle:
        handle.write(qec.format_dilation(dil))
    print("dilated: n=%d m=%d d=%d gates=%d"
          % (sub.space.n, dil.m, dil.d, len(dil.gates)))
    return 0


def cmd_syndrome(args) -> int:
    code, _ = _load_code(args.code, args.p)
    error = qec.parse_error(args.error, code.n, code.p)
    d = qec.syndrome(code, error)
    print(",".join(str(int(v)) for v in d))
    return 0


def cmd_verify(args) -> int:
    code, _ = _load_code(args.code, args.p)
    with open(args.table) as handle:
        table = qec.parse_table_file(handle.read(), code.p, code.n, code.d)
    with open(args.errors) as handle:
        errors = qec.parse_errors_file(handle.read(), code.n, code.p)
    reports = qec.verify_correction(code, table, errors)
    for r in reports:
        line = "%s -> %s %s" % (
            qec._format_vector(np.array(r.error), code.n),
            ",".join(str(v) for v in r.syndrome),
            "ok" if r.ok else "FAIL (%s)" % r.reason)
        print(line)
    verdict = all(r.ok for r in reports)
    print("VERIFIED: %s" % ("yes" if verdict else "no"))
    return 0 if verdict else 1


def _demo_teleport(args) -> int:
    path = os.path.join(args.fixtures_dir, "teleport.diagram")
    got = dg.evaluate(dg.parse_file(path, p=args.p))
    ok = (isinstance(got, db.GradedRelation)
          and got.dom == db.quantum_wires(1)
          and got.cod == db.quantum_wires(1)
          and db.equal(got, db.identity_relation(got.p, 1)))
    print("IDENTITY: %s" % ("yes" if ok else "no"))
    return 0 if ok else 1


def _demo_repetition3(args) -> int:
    path = os.path.join(args.fixtures_dir, "repetition3.code")
    code, table = _load_code(path, args.p)
    if table is None:
        raise ValueError("%s carries no correction table" % path)
    p, n = code.p, code.n
    # expected rows are the file's correction entries read backwards:
    # the correction for a syndrome is the error producing it
    expected = {tuple(int(v) for v in err): key
                for key, err in table.entries.items()}
    ok = True
    shifts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    for shift in shifts:
        e = np.concatenate([np.zeros(n, dtype=np.int64),
                            np.asarray(shift, dtype=np.int64)])
        d = tuple(int(v) for v in qec.syndrome(code, e))
        print("(%s)->(%s)" % (",".join(str(v) for v in shift),
                              ",".join(str(v) for v in d)))
        ok = ok and expected.get(tuple(int(v) for v in e)) == d
    # lazily, one error at a time: the verdict stops at the first failing branch
    unit_x = np.eye(2 * n, dtype=np.int64)[n:]
    model = itertools.chain(
        [np.zeros(2 * n, dtype=np.int64)],
        (value * unit_x[wire] for wire in range(n) for value in range(1, p)))
    corrects = all(qec.verify_correction(code, table, [e])[0].ok for e in model)
    print("CORRECTS weight<=1 X: %s" % ("yes" if corrects else "no"))
    ok = ok and corrects
    return 0 if ok else 1


def cmd_demo(args) -> int:
    if args.name == "teleport":
        return _demo_teleport(args)
    return _demo_repetition3(args)


# ---------------------------------------------------------------------------
# wiring


def _prime(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once.  `main` looks each subcommand's handler
    `cmd_<name>` up in this module at call time, so a replaced handler
    is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="stabrel",
        description="exact affine-relation engine for qudit stabilizer "
                    "circuits and codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.add_argument("--p", type=_prime, default=None,
                         help="override the file's prime")
        return cmd

    cmd = add("eval", "evaluate a diagram file")
    cmd.add_argument("file")
    cmd.add_argument("--print", choices=("equations", "basis"),
                     default="equations", dest="print")

    for name in ("equal", "subset"):
        cmd = add(name, "compare two diagram files")
        cmd.add_argument("file1")
        cmd.add_argument("file2")

    cmd = add("classify", "classify a subspace file under the symplectic form")
    cmd.add_argument("file")

    cmd = add("dilate", "dilate a coisotropic subspace file to an isometry")
    cmd.add_argument("file")
    cmd.add_argument("out")

    cmd = add("syndrome", "syndrome of a z|x error under a code file")
    cmd.add_argument("code")
    cmd.add_argument("error")

    cmd = add("verify",
              "verify a correction table against an error file; an empty "
              "error list verifies vacuously (VERIFIED: yes)")
    cmd.add_argument("code")
    cmd.add_argument("table")
    cmd.add_argument("errors")

    cmd = add("demo", "reproduce a built-in worked example")
    cmd.add_argument("name", choices=("teleport", "repetition3"))
    cmd.add_argument("--fixtures-dir", default="fixtures",
                     dest="fixtures_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except DiagramError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 is a "no" verdict; a crash must not read as one
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
