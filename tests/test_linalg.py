import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabrel.linalg import (
    Prime,
    Subspace,
    _int64_exact,
    forward_eliminate,
    intersect,
    inv_mod,
    matmul_mod,
    nullspace_mod,
    rref_kernel,
    rref_mod,
    solve_mod,
    sum_spaces,
)

from oracles import (all_subspaces, complement_points, python_rref, span,
                     vectors)


def test_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 13, 97):
        assert Prime(p) == p


def test_prime_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15, 91):
        with pytest.raises(ValueError):
            Prime(bad)


def test_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    for n in range(5000):
        try:
            accepted = bool(Prime(n))
        except ValueError:
            accepted = False
        assert accepted == trial(n), n


@pytest.mark.parametrize("n, prime", [
    (561, False),                  # Carmichael number 3 * 11 * 17
    (3215031751, False),           # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),  # strong pseudoprime to bases 2 .. 23
    (4294967311, True),
    (2 ** 61 - 1, True),
    (9223372036854775783, True),   # the largest prime below 2^63
    ((2 ** 31 - 1) * (2 ** 31 - 1), False),
])
def test_prime_is_fast_and_exact_on_64_bit_inputs(n, prime):
    start = time.perf_counter()
    if prime:
        assert Prime(n) == n
    else:
        with pytest.raises(ValueError, match="not prime"):
            Prime(n)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [
    2 ** 63,
    9223372036854775837,   # 2^63 + 29, prime
    18446744073709551629,  # 2^64 + 13, prime
])
def test_prime_refuses_2_to_the_63_and_above(n):
    """Residues are int64, so a prime at or past 2^63 is refused by name
    of the bound, while 2^63 - 25 (the largest prime below it) is taken."""
    with pytest.raises(ValueError, match=r"must be below 2\^63"):
        Prime(n)
    assert Prime(9223372036854775783) == 9223372036854775783


def test_matmul_mod_is_exact_past_int64():
    rng = random.Random(3)
    for p in (5, 2 ** 31 - 1, 3037000493, 4294967311, 2 ** 61 - 1):
        a = [[rng.randrange(p) for _ in range(9)] for _ in range(4)]
        b = [[rng.randrange(p) for _ in range(3)] for _ in range(9)]
        want = [[sum(a[i][t] * b[t][j] for t in range(9)) % p
                 for j in range(3)] for i in range(4)]
        got = matmul_mod(np.array(a, dtype=np.int64),
                         np.array(b, dtype=np.int64), p)
        assert got.dtype == np.int64 and got.tolist() == want


def test_inv_mod():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


def test_rref_frozen_example_f5():
    # [[2,4],[1,2]] over F_5: scale first row by 2^-1 = 3 and eliminate.
    red, piv = rref_mod([[2, 4], [1, 2]], 5)
    assert red.tolist() == [[1, 2]]
    assert piv == [0]
    # entries are reduced into [0, p) first, negative ones included
    assert rref_mod([[4, -1]], 3)[0].tolist() == [[1, 2]]


def test_rref_identity_and_zero():
    red, piv = rref_mod(np.eye(3, dtype=np.int64), 7)
    assert red.tolist() == np.eye(3, dtype=np.int64).tolist()
    assert piv == [0, 1, 2]
    red, piv = rref_mod(np.zeros((2, 3), dtype=np.int64), 3)
    assert red.shape == (0, 3)
    assert piv == []


def test_rref_preserves_row_space():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(40):
            rows = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
            red, _ = rref_mod(rows, p)
            assert span(p, rows) == span(p, [tuple(r) for r in red])


def test_rref_canonical_under_row_shuffle():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[rng.randrange(3) for _ in range(5)] for _ in range(4)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        a, pa = rref_mod(rows, 3)
        b, pb = rref_mod(shuffled, 3)
        assert a.tolist() == b.tolist() and pa == pb


def test_kernel_parity():
    assert nullspace_mod([[1, 1]], 2).tolist() == [[1, 1]]


def test_kernel_invertible_is_zero():
    assert nullspace_mod([[1, 2], [3, 4]], 5).shape == (0, 2)


def test_kernel_frozen_example_f3():
    m = np.array([[1, 2, 0]], dtype=np.int64)
    k = nullspace_mod(m, 3)
    assert k.shape == (2, 3)
    # brute force: every kernel vector of F_3^3 must be in the span and vice versa
    brute = {v for v in vectors(3, 3) if (v[0] + 2 * v[1]) % 3 == 0}
    assert span(3, [tuple(r) for r in k]) == brute
    for row in k:
        assert (m @ row % 3 == 0).all()


def test_rank_nullity():
    rng = random.Random(23)
    for p in (2, 3):
        for _ in range(50):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 5)
            m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            red, piv = rref_mod(m, p)
            assert nullspace_mod(m, p).shape[0] + len(piv) == cols


def test_subspace_membership_and_reduce():
    s = Subspace(3, 3, [[1, 0, 2], [0, 1, 1]])
    assert s.contains([1, 1, 0])
    assert not s.contains([0, 0, 1])
    assert s.reduce([1, 1, 0]).tolist() == [0, 0, 0]
    r = s.reduce([0, 0, 1])
    assert not s.contains([0, 0, 1]) and r.any()


def test_subspace_exhaustive_intersect_sum_f2_4():
    spaces = sorted(all_subspaces(2, 4), key=lambda s: (len(s), sorted(s)))
    as_sub = [Subspace(2, 4, sorted(s)) for s in spaces]
    assert len(spaces) == 67  # subspace count of F_2^4
    rng = random.Random(7)
    pairs = [(rng.randrange(len(spaces)), rng.randrange(len(spaces))) for _ in range(200)]
    for i, j in pairs:
        got = intersect(as_sub[i], as_sub[j])
        assert span(2, [tuple(r) for r in got.basis], 4) == spaces[i] & spaces[j]
        got = sum_spaces(as_sub[i], as_sub[j])
        # the sum of two subspaces is their pointwise sum
        want = {tuple((a + b) % 2 for a, b in zip(u, v))
                for u in spaces[i] for v in spaces[j]}
        assert span(2, [tuple(r) for r in got.basis], 4) == want


def test_intersect_trivials():
    v = Subspace(3, 2, [[1, 0]])
    full = Subspace.full(3, 2)
    assert intersect(v, full) == v
    w = Subspace(3, 2, [[0, 1]])
    assert intersect(v, w).dim == 0
    assert sum_spaces(v, Subspace.zero(3, 2)) == v
    assert sum_spaces(v, w) == full


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(Subspace.zero(2, 2), Subspace.zero(2, 3))
    with pytest.raises(ValueError):
        sum_spaces(Subspace.zero(2, 2), Subspace.zero(3, 2))


def test_annihilator_against_brute_force():
    rng = random.Random(31)
    for p in (2, 3):
        for _ in range(30):
            rows = [[rng.randrange(p) for _ in range(4)] for _ in range(2)]
            s = Subspace(p, 4, rows)
            ann = s.annihilator()
            brute = complement_points(span(p, rows), p, 4)
            assert span(p, [tuple(r) for r in ann.basis]) == brute


def test_solve_affine_trivials():
    assert solve_mod([[1]], [2], 5).tolist() == [2]
    assert solve_mod([[0]], [1], 5) is None


def test_solve_affine_random_consistent():
    rng = random.Random(13)
    for _ in range(60):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        a = np.array([[rng.randrange(3) for _ in range(cols)] for _ in range(rows)],
                     dtype=np.int64)
        x = np.array([rng.randrange(3) for _ in range(cols)], dtype=np.int64)
        rhs = a @ x % 3
        got = solve_mod(a, rhs, 3)
        assert got is not None
        assert (a @ got % 3 == rhs).all()


def test_nullspace_zero_columns():
    # 0-column and 0-row matrices are legal corner cases
    assert nullspace_mod(np.zeros((2, 0), dtype=np.int64), 3).shape == (0, 0)
    ns = nullspace_mod(np.zeros((0, 3), dtype=np.int64), 3)
    assert ns.shape == (3, 3)


# -- property tests against Gauss-Jordan elimination in Python ints --------

# small primes, word-sized primes, the largest prime whose (p-1)^2
# still fits in int64, and three primes past it (Python-int elimination),
# the last the largest prime below 2^63
PROPERTY_PRIMES = (2, 3, 5, 65521, 2**31 - 1, 3037000493, 4294967311,
                   2**61 - 1, 2**63 - 25)


@st.composite
def matrices(draw):
    """(p, ncols, rows): random rows mixed with zero rows, copies and
    combinations of earlier rows, so ranks fall short of both sides."""
    p = draw(st.sampled_from(PROPERTY_PRIMES))
    ncols = draw(st.integers(0, 60))
    nrows = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(("random", "zero", "copy", "combo")),
                          min_size=nrows, max_size=nrows))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "zero":
            row = [0] * ncols
        elif kind == "copy" and rows:
            row = list(rng.choice(rows))
        elif kind == "combo" and rows:
            u, v = rng.choice(rows), rng.choice(rows)
            s, t = rng.randrange(p), rng.randrange(p)
            row = [(s * x + t * y) % p for x, y in zip(u, v)]
        else:
            # unreduced entries, negative ones included
            row = [rng.randrange(-p, 2 * p) for _ in range(ncols)]
        rows.append(row)
    return p, ncols, rows


def as_matrix(rows, ncols, p):
    """rows as an int64 array; an entry past int64 enters as its residue."""
    rows = [[x if -2**63 <= x < 2**63 else x % p for x in row] for row in rows]
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_python_int_elimination(case):
    p, ncols, rows = case
    red, piv = rref_mod(as_matrix(rows, ncols, p), p)
    want, want_piv = python_rref(rows, ncols, p)
    assert red.dtype == np.int64
    assert red.shape == (len(want), ncols)
    assert red.tolist() == want
    assert piv == want_piv


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_exact_against_python_ints(case):
    p, ncols, rows = case
    want, want_piv = python_rref(rows, ncols, p)
    k = nullspace_mod(as_matrix(rows, ncols, p), p)
    assert k.shape == (ncols - len(want_piv), ncols)
    assert ((k >= 0) & (k < p)).all()
    # every row of the matrix is orthogonal to every kernel row, in Python ints
    kernel = k.tolist()
    for row in rows:
        for vec in kernel:
            assert sum(x * y for x, y in zip(row, vec)) % p == 0
    # one basis row per free column, the identity there: independent rows
    free = [c for c in range(ncols) if c not in want_piv]
    assert k[:, free].tolist() == np.eye(len(free), dtype=np.int64).tolist()
    # the kernel read off the reference RREF is the same basis
    red = as_matrix(want, ncols, p)
    assert np.array_equal(rref_kernel(red, want_piv, ncols, p), k)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 60))
def test_forward_eliminate_leaves_the_rows_zero_on_the_eliminated(case, hidden):
    """The rows left after eliminating the first `hidden` columns span the
    vectors of the row space that are zero there: their RREF is the rows
    of the Python-int RREF whose pivot lies past those columns."""
    p, ncols, rows = case
    hidden = min(hidden, ncols)
    left = forward_eliminate(as_matrix(rows, ncols, p), p, hidden)
    assert left.dtype == np.int64 and left.shape[1] == ncols - hidden
    assert ((left >= 0) & (left < p)).all()
    want, want_piv = python_rref(rows, ncols, p)
    red, piv = rref_mod(left, p)
    assert red.tolist() == [row[hidden:] for row, c in zip(want, want_piv)
                            if c >= hidden]
    assert piv == [c - hidden for c in want_piv if c >= hidden]


def test_reduce_is_exact_past_int64():
    """Reduction against an RREF basis agrees with Python ints at primes
    whose squares leave int64, and comes back as int64 residues."""
    rng = random.Random(71)
    for p in (2**31 - 1, 4294967311, 2**61 - 1):
        assert _int64_exact(p) == (p == 2**31 - 1)
        for _ in range(20):
            n = rng.randrange(1, 7)
            rows = [[rng.randrange(p) for _ in range(n)]
                    for _ in range(rng.randrange(n + 1))]
            space = Subspace(p, n, as_matrix(rows, n, p))
            v = [rng.randrange(p) for _ in range(n)]
            want = list(v)
            for row, c in zip(space.basis.tolist(), space.pivots):
                want = [(x - want[c] * y) % p for x, y in zip(want, row)]
            got = space.reduce(v)
            assert got.dtype == np.int64 and got.tolist() == want
