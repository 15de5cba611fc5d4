"""Symplectic structure on F_p^{2n} and dilation of coisotropic subspaces.

Vectors are rows (z_1 .. z_n, x_1 .. x_n) and the form is
omega(v, w) = sum_i v_zi w_xi - v_xi w_zi, i.e. the block matrix
[[0, I], [-I, 0]], and omega_dual(p, g) = (-x | z) makes it a dot
product: omega(g, v) = omega_dual(g) . v.  Affine subspaces L + a are
graded by this structure; classification compares the linear part L
with its omega-complement.

Every coisotropic subspace of dimension n + m is the image of a
Lagrangian isometry m -> n.  dilation() constructs that isometry
explicitly: a recorded sequence of elementary symplectomorphisms
(per-wire Fourier, controlled adds, local phase shears, a wire
permutation) maps L^omega onto span{e_z1 .. e_zd}.  Their product
U = [[A, B], [C, D]] is accumulated gate by gate and inverted in closed
form, U^-1 = [[D^T, -B^T], [-C^T, A^T]]; the encoder is the standard
product state followed by U^-1 and the shift, written down as one
system of constraints.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .linalg import Prime, Subspace, matmul_mod, mod_p, nullspace_mod, rref_mod
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
    """An affine subspace shift + linear of F_p^{2n}, possibly empty.

    The shift is stored as the canonical coset representative modulo the
    linear part, so equality of objects is equality of subspaces.
    """

    __slots__ = ("space", "shift", "linear", "empty")

    def __init__(self, space: SymplecticSpace, shift=None, linear=None,
                 empty: bool = False):
        self.space = space
        self.empty = bool(empty)
        width = 2 * space.n
        if self.empty:
            self.shift = np.zeros(width, dtype=np.int64)
            self.linear = Subspace.zero(space.p, width)
            return
        if linear is None:
            linear = Subspace.zero(space.p, width)
        if linear.ambient_dim != width:
            raise ValueError("linear part has ambient %d, expected %d"
                             % (linear.ambient_dim, width))
        if shift is None:
            shift = np.zeros(width, dtype=np.int64)
        shift = mod_p(shift, space.p).reshape(-1)
        if shift.shape[0] != width:
            raise ValueError("shift has length %d, expected %d"
                             % (shift.shape[0], width))
        self.linear = linear
        self.shift = linear.reduce(shift)

    @classmethod
    def from_rows(cls, space, rows, shift=None) -> "GradedSubspace":
        return cls(space, shift, Subspace(space.p, 2 * space.n, rows))

    @property
    def dim(self) -> int:
        return self.linear.dim

    def contains(self, v) -> bool:
        if self.empty:
            return False
        v = mod_p(v, self.space.p).reshape(-1)
        return self.linear.contains((v - self.shift) % self.space.p)

    def __eq__(self, other):
        if not isinstance(other, GradedSubspace) or self.space != other.space:
            return False
        if self.empty or other.empty:
            return self.empty == other.empty
        return np.array_equal(self.shift, other.shift) and self.linear == other.linear

    def __hash__(self):
        return hash((self.space, self.empty, self.shift.tobytes(), self.linear))

    def __repr__(self):
        if self.empty:
            return "GradedSubspace(%r, empty)" % (self.space,)
        return "GradedSubspace(%r, shift=%r, dim=%d)" % (
            self.space, self.shift.tolist(), self.dim)


def _complement_subspace(space: SymplecticSpace, linear: Subspace) -> Subspace:
    rows = omega_dual(space.p, linear.basis)
    return Subspace(space.p, 2 * space.n, nullspace_mod(rows, space.p))


def symp_complement(v: GradedSubspace) -> GradedSubspace:
    """Complement of the linear part under omega; the shift carries over."""
    if v.empty:
        return GradedSubspace(v.space, empty=True)
    return GradedSubspace(v.space, v.shift,
                          _complement_subspace(v.space, v.linear))


def classify(v: GradedSubspace) -> str:
    """One of isotropic/coisotropic/lagrangian/none by comparing L with L^omega."""
    return _classify(v)[0]


def _classify(v: GradedSubspace) -> Tuple[str, Optional[Subspace]]:
    """classify(v), and the L^omega it compared with (None when empty)."""
    if v.empty:
        return "none", None
    comp = _complement_subspace(v.space, v.linear)
    iso = comp.contains_space(v.linear)
    coiso = v.linear.contains_space(comp)
    if iso and coiso:
        return "lagrangian", comp
    if iso:
        return "isotropic", comp
    if coiso:
        return "coisotropic", comp
    return "none", comp


def symplectomorphism_graph(space: SymplecticSpace, mat) -> GradedSubspace:
    """The graph {(v, M v)} as a subspace of the doubled space on 2n qudits.

    The doubled space carries omega on the first copy minus omega on the
    second; concretely (v, w) embeds as (v_z, w_z, v_x, -w_x).
    """
    p, n = space.p, space.n
    mat = mod_p(mat, p)
    if mat.shape != (2 * n, 2 * n):
        raise ValueError("expected a %dx%d matrix" % (2 * n, 2 * n))
    rows = []
    for i in range(2 * n):
        v = np.zeros(2 * n, dtype=np.int64)
        v[i] = 1
        w = mat[:, i] % p
        rows.append(np.concatenate([v[:n], w[:n], (-v[n:]) % p, w[n:]]))
    # embedding (v_z, w_z, -v_x, w_x) differs from the docstring's by a
    # global sign flip on the first copy's x block, which is itself a
    # symplectomorphism of the doubled space; classification agrees.
    big = SymplecticSpace(p, 2 * n)
    return GradedSubspace.from_rows(big, rows)


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


def gates_to_matrix(space: SymplecticSpace, gates) -> np.ndarray:
    """Product matrix of a gate list, first gate applied first."""
    m = np.eye(2 * space.n, dtype=np.int64)
    for g in gates:
        m = matmul_mod(g.matrix(space), m, space.p)
    return m


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


def stinespring_dilate(s: GradedSubspace):
    """The Lagrangian isometry m -> n whose image is s."""
    return dilation(s).encoder


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
