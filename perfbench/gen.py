"""Seeded workload inputs, built in plain Python ints.

Nothing here imports the engine: codes, subspaces, errors, correction
tables and diagram texts come from `random.Random(seed)` and exact
integer arithmetic, so an arithmetic defect in the engine cannot leak
into the inputs it is checked against.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from fp import omega, rref

# The teleportation protocol of the shipped fixture, as (kind, n_in, n_out)
# nodes and (source, target) wires; endpoints are (node, port) pairs, with
# node None for the segment's own input and output.
_TELEPORT_NODES = [
    ("z_spider", 0, 2), ("x_spider", 1, 2), ("z_spider", 2, 1),
    ("measure_x", 1, 1), ("measure_z", 1, 1),
    ("prep_x", 1, 1), ("x_spider", 1, 2), ("z_spider", 2, 1), ("discard", 1, 0),
    ("prep_z", 1, 1), ("z_spider", 2, 1), ("x_spider", 1, 2), ("discard", 1, 0),
]
_TELEPORT_WIRES = [
    (None, (2, 0)), ((0, 0), (1, 0)), ((1, 1), (2, 1)), ((2, 0), (3, 0)),
    ((1, 0), (4, 0)), ((3, 0), (5, 0)), ((4, 0), (9, 0)), ((0, 1), (7, 0)),
    ((5, 0), (6, 0)), ((6, 1), (7, 1)), ((6, 0), (8, 0)), ((7, 0), (11, 0)),
    ((9, 0), (10, 0)), ((11, 1), (10, 1)), ((10, 0), (12, 0)), ((11, 0), None),
]


class DiagramText:
    """Builds a one-wire-in, one-wire-out doubled diagram line by line."""

    def __init__(self, p: int):
        self.lines = ["p=%d; layer=doubled" % p]
        self.nodes = 0
        self.tail = "in0"  # the endpoint the next segment reads from

    def _node(self, kind, n_in, n_out, phase=None) -> int:
        ident = self.nodes
        self.nodes += 1
        extra = "" if phase is None else " phase=%d,%d" % phase
        self.lines.append("node %d %s%s arity_in=%d arity_out=%d"
                          % (ident, kind, extra, n_in, n_out))
        return ident

    def spider(self, kind: str, phase: Tuple[int, int]) -> None:
        ident = self._node(kind, 1, 1, phase)
        self.lines.append("wire %s n%d.in0" % (self.tail, ident))
        self.tail = "n%d.out0" % ident

    def teleport(self) -> None:
        base = self.nodes
        for kind, n_in, n_out in _TELEPORT_NODES:
            self._node(kind, n_in, n_out)
        for src, dst in _TELEPORT_WIRES:
            if src is None:
                self.lines.append("wire %s n%d.in%d"
                                  % (self.tail, base + dst[0], dst[1]))
            elif dst is None:
                self.tail = "n%d.out%d" % (base + src[0], src[1])
            else:
                self.lines.append("wire n%d.out%d n%d.in%d"
                                  % (base + src[0], src[1],
                                     base + dst[0], dst[1]))

    def text(self) -> str:
        return "\n".join(self.lines + ["wire %s out0" % self.tail]) + "\n"


def chain(rng: random.Random, p: int, k: int):
    """k teleports with a one-wire spider of random colour and phases
    after every second one.

    All Z spiders come before all X spiders, so by spider fusion and
    teleportation = identity the chain equals Z(sum of Z phases) followed
    by X(sum of X phases).  Returns (chain text, expected text, a text
    that differs from the expectation in one phase).  The layout is
    fixed by k, so chains of one length differ only in their phases,
    colours and prime.
    """
    kinds = iter(sorted((rng.choice("zx") for _ in range(k // 2)),
                        reverse=True))
    d = DiagramText(p)
    total = {"z": [0, 0], "x": [0, 0]}
    for i in range(k):
        d.teleport()
        if i % 2:
            kind = next(kinds)
            phase = (rng.randrange(p), rng.randrange(p))
            total[kind][0] += phase[0]
            total[kind][1] += phase[1]
            d.spider(kind + "_spider", phase)

    def expected(bump: int) -> str:
        e = DiagramText(p)
        e.spider("z_spider", (total["z"][0] % p, (total["z"][1] + bump) % p))
        e.spider("x_spider", (total["x"][0] % p, total["x"][1] % p))
        return e.text()

    return d.text(), expected(0), expected(1)


# ---------------------------------------------------------------------------
# symplectic codes


def random_symplectic(rng: random.Random, p: int, n: int) -> List[List[int]]:
    """A random symplectic matrix on (z | x), as a product of elementary
    symplectomorphisms: per-wire Fourier, controlled adds and phase shears.

    Columns are images of the standard basis, so omega(M u, M v) =
    omega(u, v) for all u, v.
    """
    m = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]

    def row_op(dst: int, src: int, c: int) -> None:
        m[dst] = [(a + c * b) % p for a, b in zip(m[dst], m[src])]

    for _ in range(4 * n):
        j = rng.randrange(n)
        roll = rng.randrange(3)
        if roll == 0:  # Fourier on wire j: (z, x) -> (x, -z)
            m[j], m[n + j] = m[n + j], [(-v) % p for v in m[j]]
        elif roll == 1 and n > 1:  # z_k += c z_j ; x_j -= c x_k
            k = rng.choice([w for w in range(n) if w != j])
            c = rng.randrange(1, p)
            row_op(k, j, c)
            row_op(n + j, n + k, -c)
        else:  # x_j += c z_j
            row_op(n + j, j, rng.randrange(1, p))
    return m


class Code:
    """A stabilizer code built from a random symplectic matrix M.

    The stabilizers are g_i = M e_zi (i < d); the code space is their
    omega-complement, spanned by M e_zj (all j) and M e_xj (j >= d),
    shifted by a random vector.  The verdict of `classify` is known from
    construction: lagrangian when k = 0, coisotropic otherwise.
    """

    def __init__(self, rng: random.Random, p: int, n: int, d: int):
        self.p, self.n, self.d, self.k = p, n, d, n - d
        m = random_symplectic(rng, p, n)
        cols = [[m[r][c] for r in range(2 * n)] for c in range(2 * n)]
        self.gens = cols[:d]
        self.logical = cols[d:n] + cols[n + d:]
        self.subspace_rows = mix_rows(rng, p, cols[:n] + cols[n + d:])
        self.shift = [rng.randrange(p) for _ in range(2 * n)]
        self.verdict = "lagrangian" if self.k == 0 else "coisotropic"

    def syndrome(self, error) -> List[int]:
        return [omega(g, error, self.p) for g in self.gens]

    def undetectable_error(self, rng: random.Random) -> List[int]:
        """A random combination of the code space's linear part."""
        return combine(rng, self.p, self.gens + self.logical)

    def detectable_error(self, rng: random.Random) -> List[int]:
        """A random error that anticommutes with at least one stabilizer."""
        while True:
            e = [rng.randrange(self.p) for _ in range(2 * self.n)]
            if any(self.syndrome(e)):
                return e

    def code_text(self, table=None) -> str:
        lines = ["p=%d" % self.p, "n=%d" % self.n, "k=%d" % self.k]
        lines += [vec_text(g, self.n) for g in self.gens]
        for syn, err in (table or {}).items():
            lines.append("%s -> %s" % (",".join(map(str, syn)),
                                       vec_text(err, self.n)))
        return "\n".join(lines) + "\n"

    def subspace_text(self) -> str:
        lines = ["p=%d" % self.p, "n=%d" % self.n,
                 "shift " + vec_text(self.shift, self.n)]
        lines += [vec_text(r, self.n) for r in self.subspace_rows]
        return "\n".join(lines) + "\n"


class RepetitionCode(Code):
    """The n-fold repetition code against X shifts: g_i = z_1 - z_(i+1)."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.d, self.k = p, n, n - 1, 1
        self.gens = []
        for i in range(1, n):
            g = [0] * (2 * n)
            g[0], g[i] = 1, p - 1
            self.gens.append(g)
        z_all = [[int(j == i) for j in range(2 * n)] for i in range(n)]
        self.logical = [z_all[0], [0] * n + [1] * n]
        self.verdict = "coisotropic"

    def x_error(self, wire: int, value: int) -> List[int]:
        e = [0] * (2 * self.n)
        e[self.n + wire] = value % self.p
        return e

    def table(self):
        """Syndrome -> correction for every X shift of weight <= 1."""
        out = {tuple([0] * self.d): [0] * (2 * self.n)}
        for wire in range(self.n):
            for value in range(1, self.p):
                e = self.x_error(wire, value)
                out[tuple(self.syndrome(e))] = e
        return out


def mix_rows(rng: random.Random, p: int, rows):
    """The same row space under a random invertible change of basis."""
    while True:
        mixed = [combine(rng, p, rows) for _ in rows]
        if len(rref(mixed, p)[0]) == len(rows):
            return mixed


def combine(rng: random.Random, p: int, rows) -> List[int]:
    out = [0] * len(rows[0])
    for row in rows:
        c = rng.randrange(p)
        out = [(a + c * b) % p for a, b in zip(out, row)]
    return out


def vec_text(v, n: int) -> str:
    return "%s|%s" % (",".join(str(int(a)) for a in v[:n]),
                      ",".join(str(int(a)) for a in v[n:]))
