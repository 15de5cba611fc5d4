"""Symplectic structure on F_p^{2n} and dilation of coisotropic subspaces.

Vectors are rows (z_1 .. z_n, x_1 .. x_n) and the form is
omega(v, w) = sum_i v_zi w_xi - v_xi w_zi, i.e. the block matrix
[[0, I], [-I, 0]], and omega_dual(p, g) = (-x | z) makes it a dot
product: omega(g, v) = omega_dual(g) . v.  An affine subspace L + a is
its state, the 0 -> 2n relation with those points; a full-rank
stabilizer tableau is a basis of it.  The state's constraint rows c
are the stabilizer equations, so L^omega is the span of omega_dual(c)
with no elimination, and classification compares L with it.

Every coisotropic subspace of dimension n + m is the image of a
Lagrangian isometry m -> n.  dilation() constructs that isometry
explicitly: a recorded sequence of elementary symplectomorphisms
(per-wire Fourier, controlled adds, local phase shears, a wire
permutation) maps L^omega onto span{e_z1 .. e_zd}.  Their product
U = [[A, B], [C, D]] is accumulated gate by gate and inverted in closed
form, U^-1 = [[D^T, -B^T], [-C^T, A^T]]; the encoder is the standard
product state followed by U^-1 and the shift, written down as one
system of constraints.  `qec.encoder_diagram` spells the same encoder
out as a diagram of the inverse gates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .linalg import Prime, Subspace, matmul_mod, mod_p, rref_mod
from .relation import AffineRelation


class SymplecticSpace:
    __slots__ = ("p", "n")

    def __init__(self, p, n: int):
        self.p = p if isinstance(p, Prime) else Prime(p)
        self.n = int(n)
        if self.n < 0:
            raise ValueError("negative qudit count")

    def omega_matrix(self) -> np.ndarray:
        n = self.n
        out = np.zeros((2 * n, 2 * n), dtype=np.int64)
        out[:n, n:] = np.eye(n, dtype=np.int64)
        out[n:, :n] = (self.p - 1) * np.eye(n, dtype=np.int64)
        return out

    def __eq__(self, other):
        return (isinstance(other, SymplecticSpace)
                and self.p == other.p and self.n == other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return "SymplecticSpace(p=%d, n=%d)" % (self.p, self.n)


def omega_dual(p, rows) -> np.ndarray:
    """(-x | z) for rows (z | x), so that omega(g, v) = omega_dual(g) . v."""
    rows = mod_p(rows, p)
    n = rows.shape[-1] // 2
    return np.concatenate([-rows[..., n:] % p, rows[..., :n]], axis=-1)


def omega(space: SymplecticSpace, v, w) -> int:
    """The form v omega w^T reduced mod p."""
    p, n = space.p, space.n
    v = mod_p(v, p).reshape(-1)
    w = mod_p(w, p).reshape(-1)
    if v.shape[0] != 2 * n or w.shape[0] != 2 * n:
        raise ValueError("expected vectors of length %d" % (2 * n))
    return int(matmul_mod(omega_dual(p, v), w, p))


class GradedSubspace:
    """An affine subspace L + a of F_p^{2n}, possibly empty, stored as its
    state: the 0 -> 2n relation with the same points, so that equal
    states are equal subspaces.  Every other attribute is read off it.
    """

    __slots__ = ("space", "state", "_linear")

    def __init__(self, space: SymplecticSpace, shift=None, linear=None,
                 empty: bool = False):
        width = 2 * space.n
        if linear is None:
            linear = Subspace.zero(space.p, width)
        if linear.ambient_dim != width:
            raise ValueError("linear part has ambient %d, expected %d"
                             % (linear.ambient_dim, width))
        shift = mod_p([0] * width if shift is None else shift,
                      space.p).reshape(-1)
        if shift.shape[0] != width:
            raise ValueError("shift has length %d, expected %d"
                             % (shift.shape[0], width))
        # the homogenized rows (l, 0) over L's basis and (a, 1)
        rows = np.zeros((linear.dim + 1, width + 1), dtype=np.int64)
        rows[:-1, :-1] = linear.basis
        rows[-1] = np.append(shift, 1)
        self.space, self._linear = space, None if empty else linear
        self.state = AffineRelation.from_rows(space.p, 0, width,
                                              rows[:0] if empty else rows)

    @classmethod
    def from_state(cls, space: SymplecticSpace,
                   rel: AffineRelation) -> "GradedSubspace":
        """The subspace whose state is the 0 -> 2n relation `rel`."""
        if (rel.p, rel.dom, rel.cod) != (space.p, 0, 2 * space.n):
            raise ValueError("expected a 0 -> %d state over F_%d"
                             % (2 * space.n, space.p))
        self = cls.__new__(cls)
        self.space, self.state, self._linear = space, rel, None
        return self

    @classmethod
    def from_rows(cls, space, rows, shift=None) -> "GradedSubspace":
        return cls(space, shift, Subspace(space.p, 2 * space.n, rows))

    @property
    def linear(self) -> Subspace:
        """The linear part L: the constructor's, or read off the state."""
        if self._linear is None:
            self._linear = self.state.linear_part()
        return self._linear

    @property
    def shift(self) -> np.ndarray:
        """The canonical coset representative of the state's point mod L."""
        point = self.state.point()
        return self.linear.reduce([0] * 2 * self.space.n if point is None
                                  else point)

    @property
    def empty(self) -> bool:
        return self.state.is_empty

    @property
    def dim(self) -> int:
        return self.linear.dim

    def contains(self, v) -> bool:
        v = mod_p(v, self.space.p).reshape(-1)
        return self.state.rep.contains(np.append(v, 1))

    def __eq__(self, other):
        return (isinstance(other, GradedSubspace)
                and self.space == other.space and self.state == other.state)

    def __hash__(self):
        return hash((self.space, self.state))

    def __repr__(self):
        if self.empty:
            return "GradedSubspace(%r, empty)" % (self.space,)
        return "GradedSubspace(%r, shift=%r, dim=%d)" % (
            self.space, self.shift.tolist(), self.dim)


def _complement(v: GradedSubspace) -> Subspace:
    """L^omega of a non-empty v, read off its state's constraint rows
    (c_z | c_x | d): L is {w : c . w = 0}, and omega(u, w) = c . w for
    u = (c_x | -c_z) = -omega_dual(c), so these u span L^omega."""
    c = v.state.constraint_rows()[:, :-1]
    return Subspace(v.space.p, 2 * v.space.n, omega_dual(v.space.p, c))


def symp_complement(v: GradedSubspace) -> GradedSubspace:
    """Complement of the linear part under omega; the shift carries over."""
    return v if v.empty else GradedSubspace(v.space, v.shift, _complement(v))


def classify(v: GradedSubspace) -> str:
    """One of isotropic/coisotropic/lagrangian/none by comparing L with L^omega."""
    return _classify(v)[0]


def _classify(v: GradedSubspace) -> Tuple[str, Optional[Subspace]]:
    """classify(v), and the L^omega it compared with (None when empty)."""
    if v.empty:
        return "none", None
    comp = _complement(v)
    iso = comp.contains_space(v.linear)
    coiso = v.linear.contains_space(comp)
    if iso and coiso:
        return "lagrangian", comp
    if iso:
        return "isotropic", comp
    if coiso:
        return "coisotropic", comp
    return "none", comp


# ---------------------------------------------------------------------------
# elementary symplectomorphisms


class Gate:
    """An elementary symplectomorphism on n wires.

    kinds:
      fourier j       -- (z_j, x_j) -> (x_j, -z_j)
      fourier_inv j   -- (z_j, x_j) -> (-x_j, z_j)
      cadd j k c      -- z_k += c z_j ; x_j -= c x_k
      phase j c       -- x_j += c z_j
      permute sigma   -- new wire i holds old wire sigma[i]
    """

    __slots__ = ("kind", "wires", "coeff")

    def __init__(self, kind: str, wires=(), coeff: int = 0):
        self.kind = kind
        self.wires = tuple(int(w) for w in wires)
        self.coeff = int(coeff)

    def matrix(self, space: SymplecticSpace) -> np.ndarray:
        p, n = space.p, space.n
        m = np.eye(2 * n, dtype=np.int64)
        if self.kind == "fourier":
            j, = self.wires
            m[j, j] = 0
            m[n + j, n + j] = 0
            m[j, n + j] = 1
            m[n + j, j] = p - 1
        elif self.kind == "fourier_inv":
            j, = self.wires
            m[j, j] = 0
            m[n + j, n + j] = 0
            m[j, n + j] = p - 1
            m[n + j, j] = 1
        elif self.kind == "cadd":
            j, k = self.wires
            m[k, j] = self.coeff % p
            m[n + j, n + k] = (-self.coeff) % p
        elif self.kind == "phase":
            j, = self.wires
            m[n + j, j] = self.coeff % p
        elif self.kind == "permute":
            sigma = self.wires
            m = np.zeros((2 * n, 2 * n), dtype=np.int64)
            for i, s in enumerate(sigma):
                m[i, s] = 1
                m[n + i, n + s] = 1
        else:
            raise ValueError("unknown gate kind %r" % self.kind)
        return m

    def inverse(self) -> "Gate":
        if self.kind == "fourier":
            return Gate("fourier_inv", self.wires)
        if self.kind == "fourier_inv":
            return Gate("fourier", self.wires)
        if self.kind in ("cadd", "phase"):
            return Gate(self.kind, self.wires, -self.coeff)
        if self.kind == "permute":
            inv = [0] * len(self.wires)
            for i, s in enumerate(self.wires):
                inv[s] = i
            return Gate("permute", inv)
        raise ValueError("unknown gate kind %r" % self.kind)

    def __repr__(self):
        if self.kind in ("fourier", "fourier_inv", "permute"):
            return "Gate(%r, %r)" % (self.kind, self.wires)
        return "Gate(%r, %r, %d)" % (self.kind, self.wires, self.coeff)


# ---------------------------------------------------------------------------
# dilation


class Dilation:
    """A coisotropic subspace expressed as the image of an isometry.

    Fields: subspace (the input S = L + a, dim n + m), m (logical wire
    count), d = n - m (measured wire count), gates (elementary sequence
    whose product `matrix` maps L^omega onto span{e_z1..e_zd}),
    inv_matrix, syndrome_basis (rows b_j = matrix^-1 e_zj, a basis of
    L^omega), and encoder (the Lagrangian isometry m -> n with image S).
    """

    __slots__ = ("subspace", "m", "d", "gates", "matrix", "inv_matrix",
                 "syndrome_basis", "encoder")

    def __init__(self, subspace, m, d, gates, matrix, inv_matrix,
                 syndrome_basis, encoder):
        self.subspace = subspace
        self.m = m
        self.d = d
        self.gates = gates
        self.matrix = matrix
        self.inv_matrix = inv_matrix
        self.syndrome_basis = syndrome_basis
        self.encoder = encoder


def dilation(s: GradedSubspace) -> Dilation:
    """Construct the isometry dilating the coisotropic subspace s; any
    other subspace raises ValueError."""
    kind, comp = _classify(s)
    if kind not in ("coisotropic", "lagrangian"):
        raise ValueError("subspace must be coisotropic, got %s" % kind)
    space = s.space
    p, n = space.p, space.n
    m = s.dim - n
    d = n - m
    gates: List[Gate] = []
    u = np.eye(2 * n, dtype=np.int64)

    def apply(gate: Gate) -> None:
        nonlocal u
        gates.append(gate)
        u = matmul_mod(gate.matrix(space), u, p)

    def moved() -> Tuple[np.ndarray, List[int]]:  # RREF of U L^omega
        return rref_mod(matmul_mod(comp.basis, u.T, p), p)

    if d:
        # Fourier the wires that make the z-projection full rank: the
        # rows with zero z part have x support on wires the z pivots
        # leave free, and pivoting that support picks the wires.
        zblock = comp.basis[:, :n]
        krows = comp.basis[~zblock.any(axis=1)]
        _, zpiv = rref_mod(zblock, p)
        free = [w for w in range(n) if w not in set(zpiv)]
        kx = krows[:, [n + w for w in free]]
        _, kpiv = rref_mod(kx, p)
        if len(kpiv) != krows.shape[0]:
            raise AssertionError("wire selection failed on isotropic input")
        for i in kpiv:
            apply(Gate("fourier", (free[i],)))
        vmat, piv = moved()
        if any(c >= n for c in piv):
            raise AssertionError("pivot escaped the z block")
        order = list(piv) + [w for w in range(n) if w not in set(piv)]
        if order != list(range(n)):
            apply(Gate("permute", order))
            vmat, piv = moved()
        if list(piv) != list(range(d)):
            raise AssertionError("pivot placement failed")
        # clear the z entries right of the identity block; cadd (i, k)
        # changes only entry (i, k) there, so vmat needs no update here
        for i in range(d):
            for k in range(d, n):
                b = int(vmat[i, k])
                if b:
                    apply(Gate("cadd", (i, k), p - b))
        vmat, _ = moved()
        x = vmat[:, n:]
        if not np.array_equal(x[:, :d], x[:, :d].T):
            raise AssertionError("x block not symmetric on isotropic input")
        # shear x -> x - C z with C symmetric kills the remaining x part
        c = np.zeros((n, n), dtype=np.int64)
        c[:d, :] = x
        c[:, :d] = x.T
        for j in range(n):
            cd = (p - c[j, j]) % p
            if cd:
                apply(Gate("phase", (j,), cd))
            for k in range(j + 1, n):
                co = (p - c[j, k]) % p
                if co:
                    apply(Gate("fourier", (k,)))
                    apply(Gate("cadd", (j, k), co))
                    apply(Gate("fourier_inv", (k,)))
        vmat, _ = moved()
        if not np.array_equal(vmat, np.eye(d, 2 * n, dtype=np.int64)):
            raise AssertionError("dilation normal form not reached")
    # U is symplectic, so U^-1 = Omega^-1 U^T Omega in closed form
    inv = np.block([[u[n:, n:].T, -u[:n, n:].T],
                    [-u[n:, :n].T, u[:n, :n].T]]) % p
    syndrome_basis = inv[:, :d].T.copy()
    encoder = _build_encoder(s, u, d, m)
    return Dilation(s, m, d, gates, u, inv, syndrome_basis, encoder)


def _build_encoder(s: GradedSubspace, mat: np.ndarray, d: int, m: int):
    """The isometry u -> v onto s, from U = mat and the shift a: U(v - a)
    has x = 0 on the first d wires and equals u on the last m."""
    from . import doubled

    p, n = s.space.p, s.space.n
    ua = matmul_mod(mat, s.shift, p)
    keep = list(range(n, n + d)) + list(range(d, n)) + list(range(n + d, 2 * n))
    coeffs = np.zeros((len(keep), 2 * (m + n)), dtype=np.int64)
    coeffs[:, 2 * m:] = mat[keep]
    coeffs[d:, :2 * m] = -np.eye(2 * m, dtype=np.int64)
    rel = AffineRelation.from_constraints(p, 2 * m, 2 * n, coeffs, ua[keep])
    return doubled.GradedRelation(p, doubled.quantum_wires(m),
                                  doubled.quantum_wires(n), rel)
