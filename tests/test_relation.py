import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabrel import doubled as db
from stabrel.linalg import nullspace_mod
from stabrel.relation import (
    AffineRelation,
    ShiftedRelationError,
    affine_unit,
    cap_x,
    cap_z,
    co_scalar,
    coimage,
    compose,
    compose_all,
    conjoin,
    converse,
    cup_x,
    cup_z,
    empty,
    equal,
    identity,
    image,
    ortho_complement,
    permutation_relation,
    scalar,
    subset,
    swap,
    tensor,
    tensor_all,
    total,
    x_spider,
    z_spider,
)

from oracles import (
    fold,
    all_subspaces,
    complement_points,
    compose_points,
    converse_points,
    kernel_conjoin,
    python_rref,
    rel_points,
    span,
    tensor_points,
    vectors,
)


def random_relation(rng, p, n, m):
    """A random relation n -> m: the span of a few random homogenized rows."""
    k = rng.randrange(0, n + m + 2)
    rows = [[rng.randrange(p) for _ in range(n + m + 1)] for _ in range(k)]
    return AffineRelation.from_rows(p, n, m, rows)


def test_identity_shape_and_points():
    r = identity(3, 1)
    assert rel_points(r) == {(a, a) for a in range(3)}
    r0 = identity(5, 0)
    assert not r0.is_empty and rel_points(r0) == {()}


def test_identity_unit_laws_random():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.choice([2, 3])
        n, m = rng.randrange(3), rng.randrange(3)
        r = random_relation(rng, p, n, m)
        assert compose(identity(p, n), r) == r
        assert compose(r, identity(p, m)) == r


def test_compose_worked_example_all_primes():
    # copy spider on the first two inputs feeding the first output, adder
    # spider on the copied value and third input feeding the last two outputs
    for p in (2, 3, 5):
        rel = compose(tensor(z_spider(p, 2, 2), identity(p, 1)),
                      tensor(identity(p, 1), x_spider(p, 2, 2)))
        want = AffineRelation.from_constraints(
            p, 3, 3,
            [[1, -1, 0, 0, 0, 0],
             [1, 0, 0, -1, 0, 0],
             [1, 0, 1, 0, -1, -1]],
            [0, 0, 0])
        assert rel == want


def test_compose_worked_example_phased():
    for p in (3, 5):
        for c in range(p):
            rel = compose(tensor(z_spider(p, 2, 2), identity(p, 1)),
                          tensor(identity(p, 1), x_spider(p, 2, 2, c)))
            want = AffineRelation.from_constraints(
                p, 3, 3,
                [[1, -1, 0, 0, 0, 0],
                 [1, 0, 0, -1, 0, 0],
                 [1, 0, 1, 0, -1, -1]],
                [0, 0, -c])
            assert rel == want


def test_state_effect_mismatch_is_empty():
    for p in (2, 3, 5):
        loop = compose(x_spider(p, 0, 1, 1), x_spider(p, 1, 0, 0))
        assert loop.is_empty
        assert loop == empty(p, 0, 0)
    assert x_spider(3, 0, 0, 1).is_empty
    assert not x_spider(3, 0, 0, 0).is_empty


def test_compose_oracle_random():
    rng = random.Random(17)
    for _ in range(200):
        p = rng.choice([2, 3])
        n, m, l = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        r = random_relation(rng, p, n, m)
        s = random_relation(rng, p, m, l)
        got = rel_points(compose(r, s))
        want = compose_points(rel_points(r), rel_points(s), n, m)
        assert got == want


def test_tensor_oracle_random():
    rng = random.Random(19)
    for _ in range(120):
        p = rng.choice([2, 3])
        n1, m1, n2, m2 = (rng.randrange(2) for _ in range(4))
        r = random_relation(rng, p, n1, m1)
        s = random_relation(rng, p, n2, m2)
        got = rel_points(tensor(r, s))
        want = tensor_points(rel_points(r), rel_points(s), n1, m1, n2, m2)
        assert got == want


def test_tensor_trivials():
    assert tensor(identity(3, 1), identity(3, 1)) == identity(3, 2)
    r = random_relation(random.Random(1), 3, 1, 1)
    assert tensor(empty(3, 1, 1), r).is_empty
    assert tensor(r, empty(3, 1, 1)).is_empty


def test_converse():
    assert converse(identity(5, 2)) == identity(5, 2)
    shift = AffineRelation.from_constraints(5, 1, 1, [[-1, 1]], [1])  # y = x+1
    back = AffineRelation.from_constraints(5, 1, 1, [[-1, 1]], [-1])  # y = x-1
    assert converse(shift) == back
    rng = random.Random(3)
    for _ in range(100):
        r = random_relation(rng, rng.choice([2, 3]), rng.randrange(3), rng.randrange(3))
        assert converse(converse(r)) == r
        assert converse_points(rel_points(r), r.dom) == rel_points(converse(r))


def test_category_laws_random_triples():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        dims = [rng.randrange(3) for _ in range(4)]
        r = random_relation(rng, p, dims[0], dims[1])
        s = random_relation(rng, p, dims[1], dims[2])
        t = random_relation(rng, p, dims[2], dims[3])
        assert compose(compose(r, s), t) == compose(r, compose(s, t))


def test_monoidal_functoriality():
    rng = random.Random(37)
    for _ in range(60):
        p = rng.choice([2, 3])
        a, b, c, d, e, f = (rng.randrange(2) for _ in range(6))
        r0 = random_relation(rng, p, a, b)
        r1 = random_relation(rng, p, b, c)
        s0 = random_relation(rng, p, d, e)
        s1 = random_relation(rng, p, e, f)
        assert compose(tensor(r0, s0), tensor(r1, s1)) == \
            tensor(compose(r0, r1), compose(s0, s1))


def test_converse_contravariant():
    rng = random.Random(41)
    for _ in range(60):
        p = rng.choice([2, 3])
        a, b, c = (rng.randrange(3) for _ in range(3))
        r = random_relation(rng, p, a, b)
        s = random_relation(rng, p, b, c)
        assert converse(compose(r, s)) == compose(converse(s), converse(r))


def test_spider_fusion_semantics():
    for p in (2, 3, 5):
        fused = compose(z_spider(p, 1, 2), tensor(z_spider(p, 1, 1), identity(p, 1)))
        assert fused == z_spider(p, 1, 2)
        two_wire = compose(z_spider(p, 1, 2), z_spider(p, 2, 1))
        assert two_wire == z_spider(p, 1, 1)
        for a in range(p):
            for b in range(p):
                fx = compose(x_spider(p, 1, 2, a), tensor(x_spider(p, 1, 1, b), identity(p, 1)))
                assert fx == x_spider(p, 1, 2, (a + b) % p)


def test_minus_one_bending():
    # bend with a Z cup, unbend with an X cap: the leftover is scalar(-1)
    for p in (3, 5):
        bent = compose_all(tensor(identity(p, 1), cup_z(p)),
                           tensor(cap_x(p), identity(p, 1)))
        assert bent == scalar(p, p - 1)
        # matching colours give a plain wire back
        snake_z = compose_all(tensor(identity(p, 1), cup_z(p)),
                              tensor(cap_z(p), identity(p, 1)))
        assert snake_z == identity(p, 1)


def test_cup_cap_colour_conventions():
    assert rel_points(cup_z(3)) == {(t, t) for t in range(3)}
    assert rel_points(cup_x(3)) == {(t, (3 - t) % 3) for t in range(3)}
    assert converse(cup_z(5)) == cap_z(5)
    assert converse(cup_x(5)) == cap_x(5)


def test_scalar_relations():
    assert rel_points(scalar(5, 2)) == {(x, 2 * x % 5) for x in range(5)}
    assert rel_points(co_scalar(5, 2)) == {(2 * x % 5, x) for x in range(5)}
    assert converse(scalar(5, 2)) == co_scalar(5, 2)
    assert compose(scalar(5, 2), scalar(5, 3)) == scalar(5, 6 % 5)
    # a = 0 is legal here: everything maps to zero
    assert rel_points(scalar(3, 0)) == {(x, 0) for x in range(3)}


def test_affine_unit():
    assert rel_points(affine_unit(5)) == {(1,)}
    # the affine co-unit is the X effect with phase -1
    assert rel_points(x_spider(5, 1, 0, 4)) == {(1,)}


def test_swap_and_permutations():
    assert rel_points(swap(2)) == {(a, b, b, a) for a in range(2) for b in range(2)}
    perm = permutation_relation(3, [2, 0, 1])
    pts = rel_points(perm)
    for t in pts:
        x, y = t[:3], t[3:]
        assert y == (x[2], x[0], x[1])
    with pytest.raises(ValueError):
        permutation_relation(3, [0, 0, 1])


def test_ortho_complement_exhaustive_f2_4():
    spaces = sorted(all_subspaces(2, 4), key=lambda s: (len(s), sorted(s)))
    for pts in spaces:
        r = AffineRelation.from_rows(
            2, 2, 2,
            [list(v) + [0] for v in sorted(pts)] + [[0, 0, 0, 0, 1]])
        comp = ortho_complement(r)
        assert rel_points(comp) == complement_points(pts, 2, 4)
        assert ortho_complement(comp) == r


def test_ortho_complement_reverses_subset():
    spaces = list(all_subspaces(2, 4))
    rng = random.Random(43)
    rels = []
    for pts in spaces:
        rels.append(AffineRelation.from_rows(
            2, 2, 2, [list(v) + [0] for v in sorted(pts)] + [[0, 0, 0, 0, 1]]))
    for _ in range(100):
        a = rng.choice(rels)
        b = rng.choice(rels)
        assert subset(a, b) == subset(ortho_complement(b), ortho_complement(a))


def test_ortho_complement_trivials_and_errors():
    assert ortho_complement(total(3, 1, 1)) == \
        AffineRelation.from_rows(3, 1, 1, [[0, 0, 1]])
    assert ortho_complement(empty(3, 2, 1)).is_empty
    shifted = AffineRelation.from_constraints(3, 1, 1, [[-1, 1]], [1])
    with pytest.raises(ShiftedRelationError):
        ortho_complement(shifted)


def test_subset_oracle_random():
    rng = random.Random(47)
    hits = 0
    for _ in range(200):
        p = 2
        n, m = rng.randrange(2), rng.randrange(3)
        r = random_relation(rng, p, n, m)
        s = random_relation(rng, p, n, m)
        want = rel_points(r) <= rel_points(s)
        assert subset(r, s) == want
        hits += want
    assert hits  # sanity: the sample exercises both outcomes


def test_equal_requires_matching_shape():
    with pytest.raises(ValueError):
        equal(identity(2, 1), identity(3, 1))
    with pytest.raises(ValueError):
        subset(identity(3, 1), identity(3, 2))
    assert equal(identity(3, 2), identity(3, 2))


def test_image_and_coimage():
    assert image(identity(3, 2)) == total(3, 0, 2)
    assert image(empty(3, 1, 2)).is_empty
    for p in (3, 5):
        for a in range(p):
            assert image(x_spider(p, 1, 1, a)) == total(p, 0, 1)
    sc0 = image(scalar(3, 0))
    assert rel_points(sc0) == {(0,)}
    assert coimage(scalar(3, 0)) == total(3, 0, 1)


def test_empty_absorbing():
    e = empty(3, 1, 1)
    assert compose(e, identity(3, 1)).is_empty
    assert compose(identity(3, 1), e).is_empty
    assert tensor(e, total(3, 2, 0)).is_empty


def test_canonical_form_is_stable():
    # same relation built two ways compares equal bitwise
    a = compose(z_spider(3, 1, 2), z_spider(3, 2, 1))
    b = identity(3, 1)
    assert a == b
    assert np.array_equal(a.rep.basis, b.rep.basis)
    assert hash(a) == hash(b)


def test_constraint_rows_cached_and_read_only():
    rng = random.Random(43)
    rels = [empty(3, 1, 2), total(5, 2, 1), identity(3, 0), x_spider(3, 1, 2, 1)]
    rels += [random_relation(rng, p, rng.randrange(3), rng.randrange(3))
             for p in (2, 3, 5) for _ in range(10)]
    for r in rels:
        rows = r.constraint_rows()
        assert r.constraint_rows() is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[...] = 0
        if r.is_empty:
            # no point satisfies h = 0 and x = 0 together with h = 1
            want = np.eye(r.dom + r.cod + 1, dtype=np.int64)
        else:
            want = nullspace_mod(r.rep.basis, r.p)
        assert np.array_equal(rows, want)


def test_warm_and_cold_constraint_caches_agree():
    def cold(r):
        # a fresh object over the same stored subspace, its cache unfilled
        return AffineRelation(r.p, r.dom, r.cod, r.rep)

    rng = random.Random(47)
    for p in (2, 3):
        for _ in range(30):
            n, m, l = (rng.randrange(3) for _ in range(3))
            r = random_relation(rng, p, n, m)
            s = random_relation(rng, p, m, l) if rng.randrange(4) else empty(p, m, l)
            for x in (r, s):
                x.constraint_rows()
            assert compose(r, s) == compose(cold(r), cold(s))
            assert tensor(r, s) == tensor(cold(r), cold(s))
            assert compose(r, s) == compose(cold(r), s)
            assert tensor(r, cold(s)) == tensor(cold(r), s)


def test_point_and_shift_are_exact_past_int64():
    """point() and shift_and_linear() scale and subtract rows in Python
    ints where int64 is not exact; checked against the RREF in Python ints."""
    rng = random.Random(67)

    def in_span(rel, v):
        basis, pivots = rel.rep.basis.tolist(), rel.rep.pivots
        w = [sum(v[c] * b[j] for c, b in zip(pivots, basis)) % rel.p
             for j in range(len(v))]
        return w == [x % rel.p for x in v]

    checked = 0
    for p in (4294967311, 2**61 - 1):
        for _ in range(20):
            r = random_relation(rng, p, rng.randrange(3), rng.randrange(1, 3))
            if r.is_empty:
                continue
            pt, lin = r.shift_and_linear()
            assert pt.dtype == lin.dtype == np.int64
            assert in_span(r, [*pt.tolist(), 1])
            for row in lin.tolist():
                assert in_span(r, [*row, 0])
            assert lin.shape[0] == r.rep.dim - 1
            checked += 1
    assert checked >= 30


# -- conjoin against the kernel-then-project oracle ------------------------

LAW_PRIMES = (2, 3, 5, 65521, 2**31 - 1, 4294967311, 2**61 - 1, 2**63 - 25)


@st.composite
def conjoin_systems(draw):
    """(p, width, parts, keep, dom, cod) for `conjoin`: parts on random
    columns (repeats allowed, some total or empty), `keep` drawn with
    repeats, and spare columns that no part touches."""
    p = draw(st.sampled_from(LAW_PRIMES))
    used = draw(st.integers(0, 13))
    width = used + draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(("random", "total", "empty")),
                              max_size=8)):
        cols = [rng.randrange(used) for _ in range(rng.randrange(7))] if used else []
        n = rng.randrange(len(cols) + 1)
        if kind == "total":
            r = total(p, n, len(cols) - n)
        elif kind == "empty":
            r = empty(p, n, len(cols) - n)
        else:
            r = random_relation(rng, p, n, len(cols) - n)
        parts.append((r, cols))
    keep = ([rng.randrange(width) for _ in range(rng.randrange(width + 3))]
            if width else [])
    dom = rng.randrange(len(keep) + 1)
    return p, width, parts, keep, dom, len(keep) - dom


@settings(max_examples=300, deadline=None)
@given(conjoin_systems())
def test_conjoin_matches_kernel_then_project(case):
    got, want = conjoin(*case), kernel_conjoin(*case)
    assert (got.dom, got.cod) == (want.dom, want.cod)
    assert got.rep.basis.dtype == want.rep.basis.dtype == np.int64
    assert np.array_equal(got.rep.basis, want.rep.basis)


def test_conjoin_edge_cases_match_kernel_then_project():
    p = 5
    spider = z_spider(p, 1, 2)
    point = AffineRelation.from_constraints(p, 0, 2, [[1, 0], [0, 1]], [2, 3])
    cases = {
        # one part lists column 0 twice: x0 = x0 = x1, i.e. x0 = x1
        "part repeats a column": (3, [(spider, [0, 0, 1])], [0, 1, 2], 1, 2),
        # a wire from an input straight to an output keeps column 0 twice
        "keep repeats a column": (2, [(spider, [0, 1, 1])], [0, 0, 1], 1, 2),
        # columns 2 and 3 are hidden and constrained by no part
        "unconstrained hidden": (4, [(spider, [0, 1, 1])], [0], 0, 1),
        # a total part contributes no constraint rows at all
        "part without rows": (2, [(total(p, 1, 1), [0, 1])], [1, 0], 1, 1),
        # (x0, x1) = (2, 3) and (x1, x0) = (2, 3) at once: no point
        "empty result": (2, [(point, [0, 1]), (point, [1, 0])], [0], 1, 0),
        # two rows, both spent at hidden columns 0 and 1, before column 2
        "rows spent early": (4, [(spider, [0, 1, 2])], [3], 0, 1),
        # hidden column 0 is touched by no row while rows are left
        "untouched hidden": (4, [(point, [1, 3]), (spider, [2, 1, 1])],
                             [3, 2], 1, 1),
        # the first row is zero at hidden column 0: the pivot row is swapped up
        "pivot swap": (3, [(point, [1, 2]), (spider, [0, 2, 2])], [1, 2], 1, 1),
    }
    for name, (width, parts, keep, dom, cod) in cases.items():
        got = conjoin(p, width, parts, keep, dom, cod)
        want = kernel_conjoin(p, width, parts, keep, dom, cod)
        assert np.array_equal(got.rep.basis, want.rep.basis), name
        assert got.is_empty == (name == "empty result"), name
    assert total(p, 1, 1).constraint_rows().shape[0] == 0


@pytest.mark.parametrize("p", [2**61 - 1, 2**63 - 25])
def test_conjoin_adds_repeated_columns_exactly(p):
    """A part that lists a column twice adds its two coefficients there.
    Past 2^62 the sum of two residues leaves int64, so each seeded case,
    a relation on four columns conjoined on columns [0, 0, 1, 2], is
    checked against the same system eliminated in Python ints: its
    kernel over (x0, x1, x2, h), projected on (x1, x2, h)."""
    rng = random.Random(p)
    for _ in range(150):
        rows = [[rng.randrange(p) for _ in range(4)]
                for _ in range(rng.randint(1, 2))]
        r = AffineRelation.from_constraints(
            p, 2, 2, rows, [rng.randrange(p) for _ in rows])
        got = conjoin(p, 3, [(r, [0, 0, 1, 2])], [1, 2], 1, 1)
        system = [[c[0] + c[1], c[2], c[3], c[4]]
                  for c in r.constraint_rows().tolist()]
        red, pivots = python_rref(system, 4, p)
        kernel = []
        for f in (c for c in range(4) if c not in pivots):
            v = [0] * 4
            v[f] = 1
            for row, c in zip(red, pivots):
                v[c] = -row[f] % p
            kernel.append(v[1:])
        want, _ = python_rref(kernel, 3, p)
        if not any(row[-1] for row in want):
            want = []  # no point with h = 1: the empty relation
        assert got.rep.basis.tolist() == want


# -- composition laws at every prime -----------------------------------------


def same_points(r, s):
    """r and s hold the same points: each one's particular point and that
    point moved along each linear direction lies in the other, checked by
    reduction against the other's RREF in Python ints."""
    def contains(rel, v):
        if rel.is_empty:
            return False
        w = list(v)
        for row, c in zip(rel.rep.basis.tolist(), rel.rep.pivots):
            w = [(x - w[c] * y) % rel.p for x, y in zip(w, row)]
        return not any(w)

    def points(rel):
        pt, lin = rel.shift_and_linear()
        pt = pt.tolist()
        return [pt] + [[(a + b) % rel.p for a, b in zip(pt, row)]
                       for row in lin.tolist()]

    if r.is_empty or s.is_empty:
        return r.is_empty and s.is_empty
    return (all(contains(s, [*v, 1]) for v in points(r))
            and all(contains(r, [*v, 1]) for v in points(s)))


@st.composite
def law_cases(draw):
    """(p, rng, dims): a prime, a seeded generator and six wire counts."""
    p = draw(st.sampled_from(LAW_PRIMES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
    return p, rng, dims


@settings(max_examples=120, deadline=None)
@given(law_cases())
def test_compose_is_associative(case):
    p, rng, (a, b, c, d, _, _) = case
    r, s, t = (random_relation(rng, p, *ab) for ab in ((a, b), (b, c), (c, d)))
    lhs, rhs = compose(compose(r, s), t), compose(r, compose(s, t))
    assert lhs == rhs
    assert same_points(lhs, rhs)


@settings(max_examples=120, deadline=None)
@given(law_cases())
def test_tensor_is_functorial(case):
    p, rng, (a, b, c, d, e, f) = case
    r0, r1 = random_relation(rng, p, a, b), random_relation(rng, p, b, c)
    s0, s1 = random_relation(rng, p, d, e), random_relation(rng, p, e, f)
    lhs = compose(tensor(r0, s0), tensor(r1, s1))
    rhs = tensor(compose(r0, r1), compose(s0, s1))
    assert lhs == rhs
    assert same_points(lhs, rhs)


@settings(max_examples=120, deadline=None)
@given(law_cases())
def test_ortho_complement_is_an_involution(case):
    p, rng, (a, b, k, _, _, _) = case
    rows = [[rng.randrange(p) for _ in range(a + b)] + [0] for _ in range(k)]
    r = AffineRelation.from_rows(p, a, b, rows + [[0] * (a + b) + [1]])
    comp = ortho_complement(r)
    assert ortho_complement(comp) == r
    assert same_points(ortho_complement(comp), r)
    # the complement's directions annihilate r's, and the dimensions add up
    _, lin = r.shift_and_linear()
    _, perp = comp.shift_and_linear()
    for u in lin.tolist():
        for v in perp.tolist():
            assert sum(x * y for x, y in zip(u, v)) % p == 0
    assert lin.shape[0] + perp.shape[0] == a + b


# -- n-ary chains against the pairwise fold ------------------------------------


def random_link(rng, p, n, m):
    """A random relation n -> m, half the time the graph of an affine map,
    so that chains of them are often non-empty."""
    if rng.randrange(2):
        return random_relation(rng, p, n, m)
    coeffs = [[rng.randrange(p) for _ in range(n)] + [int(i == j) for j in range(m)]
              for i in range(m)]
    return AffineRelation.from_constraints(p, n, m, coeffs,
                                           [rng.randrange(p) for _ in range(m)])


def random_graded(rng, p, dom, cod):
    rel = random_link(rng, p, db.boundary_width(dom), db.boundary_width(cod))
    return db.GradedRelation(p, dom, cod, rel)


def random_types(rng):
    return tuple(rng.choice((db.QUANTUM, db.CLASSICAL))
                 for _ in range(rng.randrange(3)))


def test_chains_match_the_pairwise_fold():
    """compose_all and tensor_all, one elimination each, equal the fold
    of the binary forms bit for bit on seeded chains of 1 to 6 factors,
    affine and graded; past int64 the two also hold the same points,
    checked in Python ints."""
    rng = random.Random(71)
    for p, k, _ in itertools.product(LAW_PRIMES, range(1, 7), range(3)):
        widths = [rng.randrange(4) for _ in range(k + 1)]
        chain = [random_link(rng, p, a, b) for a, b in zip(widths, widths[1:])]
        factors = [random_link(rng, p, rng.randrange(3), rng.randrange(3))
                   for _ in range(k)]
        types = [random_types(rng) for _ in range(k + 1)]
        graded = [random_graded(rng, p, a, b)
                  for a, b in zip(types, types[1:])]
        beside = [random_graded(rng, p, random_types(rng), random_types(rng))
                  for _ in range(k)]
        pairs = [(compose_all(*chain), fold(compose, *chain)),
                 (tensor_all(*factors), fold(tensor, *factors)),
                 (db.compose_all(*graded), fold(db.compose, *graded)),
                 (db.tensor_all(*beside), fold(db.tensor, *beside))]
        for got, want in pairs:
            assert got == want, (p, k)
            got, want = getattr(got, "rel", got), getattr(want, "rel", want)
            assert got.rep.basis.dtype == np.int64
            if p > 2**31:
                assert same_points(got, want), (p, k)


def test_chains_refuse_a_mismatch_at_any_pair():
    rng = random.Random(73)
    p, q, c = 5, db.QUANTUM, db.CLASSICAL
    for k in range(2, 7):
        for bad in range(k - 1):
            chain = [random_relation(rng, p, 1, 1) for _ in range(k)]
            chain[bad + 1] = random_relation(rng, p, 2, 1)
            with pytest.raises(ValueError, match="arity mismatch: cod 1 vs dom 2"):
                compose_all(*chain)
            chain[bad + 1] = random_relation(rng, 7, 1, 1)
            with pytest.raises(ValueError, match="field mismatch: p=5 vs p=7"):
                compose_all(*chain)
            factors = [random_relation(rng, p, 1, 1) for _ in range(k)]
            factors[bad + 1] = random_relation(rng, 7, 1, 1)
            with pytest.raises(ValueError, match="field mismatch: p=5 vs p=7"):
                tensor_all(*factors)
            graded = [random_graded(rng, p, (q,), (q,)) for _ in range(k)]
            graded[bad + 1] = random_graded(rng, p, (c,), (q,))
            with pytest.raises(ValueError, match="boundary mismatch"):
                db.compose_all(*graded)
            graded[bad + 1] = random_graded(rng, 7, (q,), (q,))
            with pytest.raises(ValueError, match="field mismatch"):
                db.tensor_all(*graded)
