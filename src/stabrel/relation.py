"""Affine relations over F_p, composed relationally.

A relation n -> m is a possibly-empty affine subspace of F_p^n (+) F_p^m.
It is stored homogenized: as the linear subspace of F_p^(n+m+1) spanned
by (x, y, 1) over the relation's points, with the homogenizing
coordinate h last.  The pairs of the relation are exactly the vectors of
the subspace with h = 1.  The empty relation is stored canonically as
the zero subspace (no vector has h = 1).  Keeping the stored basis in
RREF makes equality of relations a bitwise comparison.

Coordinates are ordered: input wires left-to-right, then output wires
left-to-right, then h.  That layout is known to this module only: other
modules build relations from constraints or rows and move coordinates
with `relabel`.  `conjoin` is the one elimination behind `compose_all`,
`tensor_all` and diagram evaluation: it stacks the parts' constraint
rows over shared coordinates, hidden (interior) coordinates first, and
eliminates them forward only, as in relational composition seen as
variable elimination.  The rows left, zero on every hidden coordinate,
are the composite's constraints, reduced by one RREF of the boundary.
A chain of k relations is one `conjoin`, its k - 1 interior boundaries
all hidden; `compose` and `tensor` are the chains of two.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .linalg import (Prime, Subspace, _widen, forward_eliminate, inv_mod,
                     mod_p, nullspace_mod, rref_kernel)


class ShiftedRelationError(ValueError):
    """Raised when an operation defined for linear relations gets a shifted one."""


class AffineRelation:
    __slots__ = ("p", "dom", "cod", "rep", "_constraints")

    def __init__(self, p, dom: int, cod: int, rep: Subspace):
        self.p = p if isinstance(p, Prime) else Prime(p)
        self.dom = int(dom)
        self.cod = int(cod)
        if rep.ambient_dim != self.dom + self.cod + 1:
            raise ValueError("rep ambient %d != dom+cod+1 = %d"
                             % (rep.ambient_dim, self.dom + self.cod + 1))
        if rep.dim and not rep.basis[:, -1].any():
            # no vector with h != 0: the relation holds of no point
            rep = Subspace.zero(self.p, rep.ambient_dim)
        self.rep = rep
        self._constraints = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, p, dom, cod, rows) -> "AffineRelation":
        """Relation whose homogenized representation is spanned by `rows`."""
        return cls(p, dom, cod, Subspace(p, dom + cod + 1, rows))

    @classmethod
    def from_constraints(cls, p, dom, cod, coeffs, consts) -> "AffineRelation":
        """The relation {v : coeffs . v = consts} on dom+cod coordinates."""
        p = p if isinstance(p, Prime) else Prime(p)
        width = dom + cod
        b = mod_p(consts, p).reshape(-1)
        a = mod_p(coeffs, p)
        if a.size == 0:
            a = np.zeros((b.shape[0], width), dtype=np.int64)
        else:
            a = a.reshape(-1, width)
        if b.shape[0] != a.shape[0]:
            raise ValueError("constraint count mismatch")
        # points (v, 1) satisfy coeffs.v - consts*h = 0
        sys = np.hstack([a, (-b.reshape(-1, 1)) % p])
        return cls(p, dom, cod, Subspace(p, width + 1, nullspace_mod(sys, p)))

    # -- inspection ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.rep.dim == 0

    @property
    def is_linear(self) -> bool:
        """True when the relation holds of the zero point (and is nonempty)."""
        if self.is_empty:
            return False
        z = np.zeros(self.rep.ambient_dim, dtype=np.int64)
        z[-1] = 1
        return self.rep.contains(z)

    def constraint_rows(self) -> np.ndarray:
        """Rows (c | d) such that the relation is {v : c . v + d = 0}.

        Computed once from the stored RREF; every call returns the same
        read-only array."""
        if self._constraints is None:
            rep = self.rep
            rows = (rref_kernel(rep.basis, rep.pivots, rep.ambient_dim, self.p)
                    if rep.dim else np.eye(rep.ambient_dim, dtype=np.int64))
            rows.setflags(write=False)
            self._constraints = rows
        return self._constraints

    def point(self) -> Optional[np.ndarray]:
        """A particular (x, y) point of the relation, or None when empty."""
        if self.is_empty:
            return None
        for row in self.rep.basis:
            if row[-1]:
                pt = _widen(row[:-1], self.p) * inv_mod(row[-1], self.p) % self.p
                return pt.astype(np.int64, copy=False)
        raise AssertionError("non-empty relation without an h != 0 row")

    def linear_part(self) -> Subspace:
        """The directions {v : (v, 0) in rep}: each stored row less its
        h-multiple of a point (the zero subspace when empty)."""
        pt, rows = self.point(), self.rep.basis
        if pt is not None:
            hom_pt = _widen(np.append(pt, 1), self.p)
            rows = (rows - np.outer(rows[:, -1], hom_pt)) % self.p
        return Subspace(self.p, self.dom + self.cod, rows[:, :-1])

    def shift_and_linear(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Decompose into (particular point, linear-part basis rows)."""
        pt = self.point()
        return None if pt is None else (pt, self.linear_part().basis)

    def __eq__(self, other):
        return (
            isinstance(other, AffineRelation)
            and self.p == other.p
            and self.dom == other.dom
            and self.cod == other.cod
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.p, self.dom, self.cod, self.rep))

    def __repr__(self):
        return "AffineRelation(p=%d, %d->%d, rep=%r)" % (
            self.p, self.dom, self.cod, self.rep.basis.tolist())


# ---------------------------------------------------------------------------
# prop structure


def identity(p, n: int) -> AffineRelation:
    """{(x, x)} on n wires."""
    coeffs = np.hstack([np.eye(n, dtype=np.int64), -np.eye(n, dtype=np.int64)])
    return AffineRelation.from_constraints(p, n, n, coeffs, np.zeros(n, dtype=np.int64))


def empty(p, dom: int, cod: int) -> AffineRelation:
    return AffineRelation(p, dom, cod, Subspace.zero(p, dom + cod + 1))


def total(p, dom: int, cod: int) -> AffineRelation:
    return AffineRelation(p, dom, cod, Subspace.full(p, dom + cod + 1))


def conjoin(p, width: int, parts, keep, dom: int, cod: int) -> AffineRelation:
    """The relation dom -> cod on the `keep` coordinates of the points v of
    F_p^width with v[cols] in r for every (r, cols) in `parts`.

    All parts' constraint rows are placed on their columns (a column a
    part lists twice adds its coefficients), with the hidden columns --
    those not kept -- first.  Forward elimination of the hidden columns
    sets aside each row with a hidden pivot, which some value of them
    meets, so the rows left, zero on every hidden column, alone constrain
    the boundary; the kernel of their RREF is the relation.  A column
    `keep` lists twice is read twice from that kernel."""
    index = {c: i for i, c in enumerate(dict.fromkeys(keep))}  # kept column -> place
    hidden = [c for c in range(width) if c not in index]
    nh, nk = len(hidden), len(index)
    at = np.empty(width + 1, dtype=np.intp)  # column c of v sits at at[c]
    at[[*hidden, *index, width]] = np.arange(width + 1)
    parts = [(r.constraint_rows(), at[list(cols)]) for r, cols in parts]
    sys = np.zeros((sum(c.shape[0] for c, _ in parts), width + 1), dtype=np.int64)
    top = 0
    for c, cols in parts:
        block = sys[top:top + c.shape[0]]
        if len(set(cols.tolist())) == len(cols):
            block[:, cols] = c[:, :-1]
        else:
            for j, col in enumerate(cols):
                # a - (p - b): both terms are below p, so no int64 overflow
                block[:, col] = (block[:, col] - (p - c[:, j])) % p
        block[:, -1] = c[:, -1]
        top += c.shape[0]
    joint = nullspace_mod(forward_eliminate(sys, p, nh), p)
    rows = joint[:, [*(index[c] for c in keep), nk]]
    return AffineRelation(p, dom, cod, Subspace(p, dom + cod + 1, rows))


def relabel(r: AffineRelation, dom: int, cod: int, cols, negate) -> AffineRelation:
    """The relation dom -> cod whose coordinate i is r's coordinate
    cols[i], negated for each i in `negate`."""
    rows = r.rep.basis[:, [*cols, -1]]
    neg = list(negate)
    rows[:, neg] = -rows[:, neg] % r.p
    return AffineRelation(r.p, dom, cod, Subspace(r.p, dom + cod + 1, rows))


def compose(r: AffineRelation, s: AffineRelation) -> AffineRelation:
    """Relational composite: r then s."""
    return compose_all(r, s)


def compose_all(*rels: AffineRelation) -> AffineRelation:
    """The chain r_1 ; ... ; r_k: every r_i conjoined on its boundaries
    (x_(i-1), x_i), the interior x_1 .. x_(k-1) projected away."""
    for r, s in zip(rels, rels[1:]):
        if r.p != s.p:
            raise ValueError("field mismatch: p=%d vs p=%d" % (r.p, s.p))
        if r.cod != s.dom:
            raise ValueError("arity mismatch: cod %d vs dom %d" % (r.cod, s.dom))
    starts = [0, rels[0].dom]  # x_i occupies columns starts[i]:starts[i+1]
    for r in rels:
        starts.append(starts[-1] + r.cod)
    parts = [(r, range(starts[i], starts[i + 2])) for i, r in enumerate(rels)]
    return conjoin(rels[0].p, starts[-1], parts,
                   [*range(starts[1]), *range(starts[-2], starts[-1])],
                   rels[0].dom, rels[-1].cod)


def tensor(r: AffineRelation, s: AffineRelation) -> AffineRelation:
    """Direct sum: inputs (x, x'), outputs (y, y')."""
    return tensor_all(r, s)


def tensor_all(*rels: AffineRelation) -> AffineRelation:
    """Direct sum of every factor as one elimination: all inputs side by
    side, then all outputs."""
    for r, s in zip(rels, rels[1:]):
        if r.p != s.p:
            raise ValueError("field mismatch: p=%d vs p=%d" % (r.p, s.p))
    n = sum(r.dom for r in rels)
    i, o, parts = 0, n, []
    for r in rels:
        parts.append((r, [*range(i, i + r.dom), *range(o, o + r.cod)]))
        i, o = i + r.dom, o + r.cod
    return conjoin(rels[0].p, o, parts, range(o), n, o - n)


def converse(r: AffineRelation) -> AffineRelation:
    """Swap the input and output blocks."""
    n, m = r.dom, r.cod
    return relabel(r, m, n, [*range(n, n + m), *range(n)], ())


def ortho_complement(r: AffineRelation) -> AffineRelation:
    """Orthogonal complement of a linear relation under the dot product.

    The empty relation maps to itself; a non-empty relation with a
    nonzero shift has no defined complement here and raises
    ShiftedRelationError.
    """
    if r.is_empty:
        return empty(r.p, r.dom, r.cod)
    if not r.is_linear:
        raise ShiftedRelationError(
            "orthogonal complement is defined for linear relations only")
    _, lin = r.shift_and_linear()
    comp = nullspace_mod(lin, r.p)
    rows = np.zeros((comp.shape[0] + 1, r.dom + r.cod + 1), dtype=np.int64)
    rows[:-1, :-1] = comp
    rows[-1, -1] = 1
    return AffineRelation(r.p, r.dom, r.cod, Subspace(r.p, r.dom + r.cod + 1, rows))


def equal(r: AffineRelation, s: AffineRelation) -> bool:
    if r.p != s.p or r.dom != s.dom or r.cod != s.cod:
        raise ValueError("cannot compare relations of different shape")
    return r == s


def subset(r: AffineRelation, s: AffineRelation) -> bool:
    """Containment of r's point set in s's.

    Equivalent to containment of the homogenized row spaces, which the
    stored form answers directly.
    """
    if r.p != s.p or r.dom != s.dom or r.cod != s.cod:
        raise ValueError("cannot compare relations of different shape")
    return s.rep.contains_space(r.rep)


def image(r: AffineRelation) -> AffineRelation:
    """The 0 -> cod state of all outputs reachable from some input."""
    return compose(total(r.p, 0, r.dom), r)


def coimage(r: AffineRelation) -> AffineRelation:
    return image(converse(r))


# ---------------------------------------------------------------------------
# generators


def z_spider(p, n_in: int, n_out: int) -> AffineRelation:
    """All incident wires carry the same value."""
    k = n_in + n_out
    rows = np.zeros((max(k - 1, 0), k), dtype=np.int64)
    for i in range(k - 1):
        rows[i, i] = 1
        rows[i, i + 1] = -1
    return AffineRelation.from_constraints(p, n_in, n_out, rows,
                                           np.zeros(max(k - 1, 0), dtype=np.int64))


def x_spider(p, n_in: int, n_out: int, a=0) -> AffineRelation:
    """Sum of outputs minus sum of inputs equals the phase a."""
    row = np.array([[-1] * n_in + [1] * n_out], dtype=np.int64)
    return AffineRelation.from_constraints(p, n_in, n_out, row, [a])


def scalar(p, a) -> AffineRelation:
    """{(x, a x)}; a = 0 is the collapse-to-zero relation, still total on inputs."""
    return AffineRelation.from_constraints(p, 1, 1, [[a, -1]], [0])


def co_scalar(p, a) -> AffineRelation:
    """{(a y, y)}: the converse of scalar(a)."""
    return AffineRelation.from_constraints(p, 1, 1, [[1, -a]], [0])


def affine_unit(p) -> AffineRelation:
    """The point {1} as a state on one wire."""
    return AffineRelation.from_constraints(p, 0, 1, [[1]], [1])


def cup_z(p) -> AffineRelation:
    """0 -> 2 bent identity: {(t, t)}."""
    return AffineRelation.from_constraints(p, 0, 2, [[1, -1]], [0])


def cap_z(p) -> AffineRelation:
    return AffineRelation.from_constraints(p, 2, 0, [[1, -1]], [0])


def cup_x(p) -> AffineRelation:
    """0 -> 2 X-coloured cup: {(t, -t)}."""
    return AffineRelation.from_constraints(p, 0, 2, [[1, 1]], [0])


def cap_x(p) -> AffineRelation:
    return AffineRelation.from_constraints(p, 2, 0, [[1, 1]], [0])


def swap(p) -> AffineRelation:
    return permutation_relation(p, [1, 0])


def permutation_relation(p, perm) -> AffineRelation:
    """n -> n wiring with output i reading input perm[i]."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation: %r" % (perm,))
    rows = np.zeros((n, 2 * n), dtype=np.int64)
    for i, j in enumerate(perm):
        rows[i, j] = -1
        rows[i, n + i] = 1
    return AffineRelation.from_constraints(p, n, n, rows, np.zeros(n, dtype=np.int64))
