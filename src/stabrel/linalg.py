"""Exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays whose entries are least non-negative
residues mod p.  Subspaces are row spaces kept in reduced row echelon
form, so two subspaces are equal as sets exactly when their stored
bases are equal entry-for-entry.

`rref_mod` clears each pivot column with one in-place numpy update of
the other rows, right of the pivot.  `rref_kernel` reads a kernel off
an RREF; `nullspace_mod` is the two in turn.  `matmul_mod` is the
matrix product.

Arithmetic is exact at every prime `Prime` accepts.  `_int64_exact`
says when a sum of products of residues fits in int64; where it does
not, `rref_mod`, `matmul_mod` and the scalar-times-row updates of the
relation layer compute in Python ints (numpy object arrays) and return
int64 residues, so the int64 path is taken wherever it is exact.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Prime(int):
    """A positive integer verified prime at construction: trial division by
    the first 12 primes, then Miller-Rabin to them as bases, exact for every
    64-bit input (bases 2 and 3 alone are exact below 1373653)."""

    def __new__(cls, p):
        p = int(p)
        if p < 2:
            raise ValueError("p must be a prime >= 2, got %d" % p)
        for q in _SMALL_PRIMES:
            if q * q > p:
                return super().__new__(cls, p)
            if p % q == 0:
                raise ValueError("p = %d is not prime (divisible by %d)" % (p, q))
        s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s, d odd
        for a in _SMALL_PRIMES[:2] if p < 1373653 else _SMALL_PRIMES:
            x = pow(a, (p - 1) >> s, p)
            if x == 1:
                continue
            for _ in range(s):
                if x == p - 1:
                    break
                x = x * x % p
            else:
                raise ValueError("p = %d is not prime (Miller-Rabin witness %d)" % (p, a))
        return super().__new__(cls, p)


def mod_p(a, p: int) -> np.ndarray:
    """Reduce an array-like to least non-negative residues mod p."""
    return np.asarray(a, dtype=np.int64) % p


def _int64_exact(p: int, terms: int = 1) -> bool:
    """True when a sum of `terms` products of residues mod p, each at most
    (p-1)^2 in size, cannot overflow int64."""
    return (p - 1) ** 2 * terms < 2 ** 63


def _widen(a, p: int) -> np.ndarray:
    """`a` itself where `_int64_exact(p)`, else `a` in Python ints (object
    dtype), so that a product of two residues is exact."""
    return a if _int64_exact(p) else np.asarray(a).astype(object)


def matmul_mod(a, b, p: int) -> np.ndarray:
    """a @ b mod p for entries in (-p, p), exact at every p: in int64 while
    (p-1)^2 * inner < 2^63, in Python ints (object dtype) otherwise."""
    a, b = np.asarray(a), np.asarray(b)
    if _int64_exact(p, a.shape[-1]):
        return a @ b % p
    return np.asarray(a.astype(object) @ b.astype(object) % p, dtype=np.int64)


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p (p prime, a not divisible by p)."""
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod %d" % p)
    return pow(a, p - 2, p)


def rref_mod(mat, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form of `mat` over F_p.

    Returns (R, pivot_columns).  R contains no zero rows; its row space
    equals that of `mat`.  Elimination is deterministic (leftmost pivot,
    topmost candidate row), so R is a canonical form of the row space.
    Where int64 is not exact at p, it runs in Python ints.
    """
    a = _widen(np.atleast_2d(mod_p(mat, p)), p)
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        rows = a[r:, c].nonzero()[0]
        if rows.size == 0:
            continue
        i = r + int(rows[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if a[r, c] != 1:
            a[r, c:] = a[r, c:] * inv_mod(a[r, c], p) % p
        # rows at and below r are zero left of c, so only columns c: change
        other = a[:, c].nonzero()[0]
        if other.size > 1:
            other = other[other != r]
            block = a[other, c:]
            block -= np.outer(block[:, 0], a[r, c:])
            block %= p
            a[other, c:] = block
        pivots.append(c)
        r += 1
    return a[:r].astype(np.int64, copy=False), pivots


def nullspace_mod(mat, p: int) -> np.ndarray:
    """Basis rows of {v : mat @ v = 0} over F_p (the right kernel)."""
    red, pivots = rref_mod(mat, p)
    return rref_kernel(red, pivots, red.shape[1], p)


def rref_kernel(red, pivots, ncols: int, p: int) -> np.ndarray:
    """Right kernel of `red`, an RREF with the given pivot columns: per
    free column f, the row with 1 at f and -red[:, f] at the pivots."""
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, ncols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis


def solve_mod(mat, rhs, p: int) -> Optional[np.ndarray]:
    """A particular solution x of mat @ x = rhs over F_p, or None."""
    a = np.atleast_2d(mod_p(mat, p))
    b = mod_p(rhs, p).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs length %d != row count %d" % (b.shape[0], a.shape[0]))
    ncols = a.shape[1]
    aug = np.hstack([a, b.reshape(-1, 1)])
    red, pivots = rref_mod(aug, p)
    if ncols in pivots:
        return None  # a row reduced to 0 = 1: inconsistent
    x = np.zeros(ncols, dtype=np.int64)
    x[pivots] = red[:, ncols]
    return x


class Subspace:
    """Row space of a matrix over F_p, stored as an RREF basis.

    The stored basis has no zero rows and pivot columns that are 1 in
    their own row and 0 elsewhere; two Subspaces are equal as sets iff
    their bases compare equal.
    """

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p, ambient_dim: int, rows=None):
        self.p = p if isinstance(p, Prime) else Prime(p)
        self.ambient_dim = int(ambient_dim)
        if rows is None:
            rows = np.zeros((0, self.ambient_dim), dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(rows.shape[0] if rows.ndim == 2 else 0,
                                self.ambient_dim)
        else:
            rows = rows.reshape(-1, self.ambient_dim)
        basis, pivots = rref_mod(rows, self.p)
        basis.setflags(write=False)
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def zero(cls, p, ambient_dim: int) -> "Subspace":
        return cls(p, ambient_dim)

    @classmethod
    def full(cls, p, ambient_dim: int) -> "Subspace":
        return cls(p, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v) -> bool:
        """Membership test by reduction against the RREF basis."""
        return not self.reduce(v).any()

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def reduce(self, v) -> np.ndarray:
        """Canonical coset representative of v modulo this subspace."""
        r = mod_p(v, self.p).reshape(-1)
        if r.shape[0] != self.ambient_dim:
            raise ValueError("vector length %d != ambient %d" % (r.shape[0], self.ambient_dim))
        basis = _widen(self.basis, self.p)
        for i, c in enumerate(self.pivots):
            if r[c]:
                r = (r - r[c] * basis[i]) % self.p
        return r.astype(np.int64, copy=False)

    def annihilator(self) -> "Subspace":
        """{w : v . w = 0 for all v here} under the plain dot product."""
        return Subspace(self.p, self.ambient_dim,
                        rref_kernel(self.basis, self.pivots, self.ambient_dim, self.p))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self):
        return "Subspace(p=%d, n=%d, rows=%r)" % (self.p, self.ambient_dim, self.basis.tolist())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.p != b.p or a.ambient_dim != b.ambient_dim:
        raise ValueError("subspace mismatch: F_%d^%d vs F_%d^%d"
                         % (a.p, a.ambient_dim, b.p, b.ambient_dim))
    # v in both spaces  <=>  v is killed by both annihilators.
    constraints = np.vstack([a.annihilator().basis, b.annihilator().basis])
    return Subspace(a.p, a.ambient_dim, nullspace_mod(constraints, a.p))


def sum_spaces(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union of two subspaces."""
    if a.p != b.p or a.ambient_dim != b.ambient_dim:
        raise ValueError("subspace mismatch: F_%d^%d vs F_%d^%d"
                         % (a.p, a.ambient_dim, b.p, b.ambient_dim))
    return Subspace(a.p, a.ambient_dim, np.vstack([a.basis, b.basis]))
