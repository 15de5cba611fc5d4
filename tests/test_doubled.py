import random

import numpy as np
import pytest

from stabrel import doubled as db
from stabrel import relation as ar
from stabrel import symplectic as sy
from stabrel.doubled import CLASSICAL, QUANTUM, GradedRelation
from stabrel.relation import AffineRelation

import oracles
from gen import random_circuit, random_relation


def z_closed_form(p, n, m, a, b):
    """Frozen closed form: all x equal t; sum z_out - sum z_in = a + b t."""
    rows, consts = [], []
    xs = list(range(n, 2 * n)) + list(range(2 * n + m, 2 * n + 2 * m))
    for i in range(len(xs) - 1):
        r = [0] * (2 * n + 2 * m)
        r[xs[i]], r[xs[i + 1]] = 1, -1
        rows.append(r)
        consts.append(0)
    r = [0] * (2 * n + 2 * m)
    for i in range(n):
        r[i] -= 1
    for j in range(m):
        r[2 * n + j] += 1
    r[xs[0]] -= b
    rows.append(r)
    consts.append(a)
    return AffineRelation.from_constraints(p, 2 * n, 2 * m, rows, consts)


def x_closed_form(p, n, m, a, b):
    """Mirror form: all z equal t; sum x_out - sum x_in = a + b t."""
    rows, consts = [], []
    zs = list(range(n)) + list(range(2 * n, 2 * n + m))
    for i in range(len(zs) - 1):
        r = [0] * (2 * n + 2 * m)
        r[zs[i]], r[zs[i + 1]] = 1, -1
        rows.append(r)
        consts.append(0)
    r = [0] * (2 * n + 2 * m)
    for i in range(n):
        r[n + i] -= 1
    for j in range(m):
        r[2 * n + m + j] += 1
    r[zs[0]] -= b
    rows.append(r)
    consts.append(a)
    return AffineRelation.from_constraints(p, 2 * n, 2 * m, rows, consts)


def test_spider_closed_forms():
    for p in (2, 3, 5):
        for n in range(3):
            for m in range(3):
                if n + m == 0:
                    continue
                for a in range(p):
                    for b in range(p):
                        assert db.z_spider(p, n, m, (a, b)).rel == \
                            z_closed_form(p, n, m, a, b)
                        assert db.x_spider(p, n, m, (a, b)).rel == \
                            x_closed_form(p, n, m, a, b)


def test_closed_forms_match_wiring_oracle():
    for p in (2, 3, 5, 7):
        for n in range(4):
            for m in range(4):
                for a in range(p):
                    for b in range(p):
                        assert db.z_spider(p, n, m, (a, b)) == \
                            oracles.wired_z_spider(p, n, m, (a, b))
                        assert db.x_spider(p, n, m, (a, b)) == \
                            oracles.wired_x_spider(p, n, m, (a, b))
        assert db.fourier(p) == oracles.euler_fourier(p)
        assert db.fourier_dagger(p) == oracles.euler_fourier_dagger(p)
        assert db.measure_x(p) == oracles.wired_measure_x(p)
        assert db.prep_x(p) == oracles.wired_prep_x(p)


def test_scalar_spiders():
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                # a + b t = 0 must be solvable for the scalar to be nonzero
                expect_empty = (b == 0 and a != 0)
                assert db.z_spider(p, 0, 0, (a, b)).is_empty == expect_empty
                assert db.x_spider(p, 0, 0, (a, b)).is_empty == expect_empty


def test_spider_identity_and_fusion():
    for p in (2, 3, 5):
        assert db.z_spider(p, 1, 1) == db.identity_relation(p, 1)
        assert db.x_spider(p, 1, 1) == db.identity_relation(p, 1)
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        fused = db.compose(db.z_spider(p, 1, 2, (a, b)),
                           db.z_spider(p, 2, 1, (c, d)))
        assert fused == db.z_spider(p, 1, 1, (a + c, b + d))
        fx = db.compose(db.x_spider(p, 1, 2, (a, b)),
                        db.x_spider(p, 2, 1, (c, d)))
        assert fx == db.x_spider(p, 1, 1, (a + c, b + d))
        # partial fusion along one wire of two
        part = db.compose(db.z_spider(p, 1, 2, (a, b)),
                          db.tensor(db.z_spider(p, 1, 2, (c, d)),
                                    db.identity_relation(p, 1)))
        assert part == db.z_spider(p, 1, 3, (a + c, b + d))


def test_scaling_gate():
    assert db.scaling_gate(5, 1) == db.identity_relation(5, 1)
    two = db.scaling_gate(5, 2)
    assert db.compose(two, db.scaling_gate(5, 3)) == db.identity_relation(5, 1)
    assert db.compose(two, db.dagger(two)) == db.identity_relation(5, 1)
    with pytest.raises(ValueError):
        db.scaling_gate(5, 0)
    with pytest.raises(ValueError):
        db.scaling_gate(3, 3)


def test_fourier():
    for p in (2, 3, 5, 7):
        f = db.fourier(p)
        fd = db.fourier_dagger(p)
        ident = db.identity_relation(p, 1)
        assert db.compose(f, fd) == ident
        assert db.compose_all(f, f, f, f) == ident
        assert db.compose_all(f, f) != ident or p == 2
        assert f == db.symplectomorphism_relation(p, [[0, 1], [p - 1, 0]])
        assert db.dagger(f) == fd


def test_fourier_exchanges_weyl_roles():
    for p in (2, 3, 5):
        conj = db.compose_all(db.fourier(p), db.weyl(p, [1], [0]),
                              db.fourier_dagger(p))
        assert conj == db.weyl(p, [0], [1])


def test_weyl():
    for p in (3, 5):
        n = 2
        assert db.weyl(p, [0, 0], [0, 0]) == db.identity_relation(p, n)
        u = db.weyl(p, [1, 2], [0, 1])
        v = db.weyl(p, [2, 2], [1, 0])
        assert db.compose(u, v) == db.weyl(p, [3, 4], [1, 1])
        assert db.dagger(u) == db.weyl(p, [-1, -2], [0, -1])
    with pytest.raises(ValueError):
        db.weyl(3, [1], [0, 0])


def test_weyl_is_doubled_phase_pair():
    for p in (2, 3, 5):
        for zv in range(p):
            for xv in range(p):
                built = db.compose(db.x_spider(p, 1, 1, (xv, 0)),
                                   db.z_spider(p, 1, 1, (zv, 0)))
                assert built == db.weyl(p, [zv], [xv])


def test_conjugate():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        r = random_circuit(rng, p, steps=3, pure_only=False)
        assert db.conjugate(db.conjugate(r)) == r
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                assert db.conjugate(db.z_spider(p, 1, 2, (a, b))) == \
                    db.z_spider(p, 1, 2, (-a, -b))
                assert db.conjugate(db.x_spider(p, 1, 2, (a, b))) == \
                    db.x_spider(p, 1, 2, (a, -b))


def test_dagger():
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                assert db.dagger(db.z_spider(p, 1, 2, (a, b))) == \
                    db.z_spider(p, 2, 1, (-a, -b))
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([2, 3])
        r = random_circuit(rng, p, steps=3, pure_only=False)
        assert db.dagger(db.dagger(r)) == r


def test_discard():
    for p in (2, 3, 5):
        dis = db.discard(p)
        full_scalar = GradedRelation(p, (), (), ar.total(p, 0, 0))
        assert db.compose(db.codiscard(p), dis) == full_scalar
        # bastardizing either spider colour gives the same discard
        delete = db.lift_classical(ar.total(p, 1, 0))
        assert db.compose(db.measure_z(p), delete) == dis
        assert db.compose(db.measure_x(p), delete) == dis
    for zv in range(3):
        for xv in range(3):
            assert db.compose(db.weyl(3, [zv], [xv]), db.discard(3)) == \
                db.discard(3)


def test_discard_maximality():
    rng = random.Random(13)
    checked = 0
    for _ in range(80):
        p = rng.choice([2, 3])
        f = random_circuit(rng, p, steps=4, pure_only=False)
        if f.is_empty:
            continue
        checked += 1
        dis_m = db.tensor_all(db.identity_graded(p, ()),
                              *[db.discard(p) for _ in f.cod]) \
            if f.cod else db.identity_graded(p, ())
        dis_n = db.tensor_all(db.identity_graded(p, ()),
                              *[db.discard(p) for _ in f.dom]) \
            if f.dom else db.identity_graded(p, ())
        assert db.subset(db.compose(f, dis_m), dis_n)
    assert checked > 40


def test_projectors():
    for p in (2, 3, 5):
        pz, px = db.projector_z(p), db.projector_x(p)
        assert db.compose(pz, pz) == pz
        assert db.compose(px, px) == px
        assert db.compose(db.measure_z(p), db.prep_z(p)) == pz
        assert db.compose(db.measure_x(p), db.prep_x(p)) == px
        assert db.compose_all(db.fourier(p), pz, db.fourier_dagger(p)) == px


def test_measure_prep():
    for p in (2, 3, 5):
        cid = db.identity_graded(p, (CLASSICAL,))
        assert db.compose(db.prep_z(p), db.measure_z(p)) == cid
        assert db.compose(db.prep_x(p), db.measure_x(p)) == cid
        total_classical = GradedRelation(p, (CLASSICAL,), (CLASSICAL,),
                                         ar.total(p, 1, 1))
        assert db.compose(db.prep_z(p), db.measure_x(p)) == total_classical
        for c in range(p):
            prep = db.compose(db.classical_point(p, [c]), db.prep_z(p))
            assert prep == db.x_spider(p, 0, 1, (c, 0))


def test_controlled_weyl():
    rng = random.Random(17)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n, k = rng.randrange(1, 3), rng.randrange(1, 3)
        zm = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(n)])
        xm = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(n)])
        cw = db.controlled_weyl(p, zm, xm)
        c = np.array([rng.randrange(p) for _ in range(k)])
        applied = db.compose(
            db.tensor(db.classical_point(p, c), db.identity_relation(p, n)), cw)
        assert applied == db.weyl(p, (zm @ c) % p, (xm @ c) % p)


def test_doubling_functor_laws():
    rng = random.Random(19)
    done = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n, m, l = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        f = random_relation(rng, p, n, m)
        g = random_relation(rng, p, m, l)
        if f.is_empty or g.is_empty:
            continue
        done += 1
        assert db.compose(db.double(f), db.double(g)) == \
            db.double(ar.compose(f, g))
        h = random_relation(rng, p, rng.randrange(2), rng.randrange(2))
        if not h.is_empty:
            assert db.tensor(db.double(f), db.double(h)) == \
                db.double(ar.tensor(f, h))
    assert done > 60


def test_double_of_generators():
    for p in (2, 3, 5):
        assert db.double(ar.z_spider(p, 2, 1)) == db.z_spider(p, 2, 1)
        assert db.double(ar.identity(p, 2)) == db.identity_relation(p, 2)
        for a in range(p):
            assert db.double(ar.x_spider(p, 1, 2, a)) == \
                db.x_spider(p, 1, 2, (a, 0))
        bell = db.bell_state(p)
        want = AffineRelation.from_constraints(
            p, 0, 4, [[1, 1, 0, 0], [0, 0, 1, -1]], [0, 0])
        assert bell.rel == want
        assert db.bell_effect(p) == db.dagger(bell)


def test_tensor_layout_merging():
    p = 3
    mz = db.measure_z(p)
    both = db.tensor(mz, mz)
    # ((z1,x1),(z2,x2)) -> (c1,c2) with c_i = x_i
    want = AffineRelation.from_constraints(
        p, 4, 2, [[0, 0, 1, 0, -1, 0], [0, 0, 0, 1, 0, -1]], [0, 0])
    assert both.rel == want
    assert both.dom == (QUANTUM, QUANTUM)
    assert both.cod == (CLASSICAL, CLASSICAL)


def test_tensor_matches_the_permuted_flat_tensor():
    """db.tensor places each factor straight into the merged layout; the
    oracle tensors the flat relations and permutes the columns."""
    rng = random.Random(67)
    q, c = QUANTUM, CLASSICAL

    def graded(p, dom, cod):
        rel = random_relation(rng, p, db.boundary_width(dom),
                              db.boundary_width(cod))
        return GradedRelation(p, dom, cod, rel)

    for p in (2, 3, 5, 7):
        shapes = [((q, c), (c, q, q), (c, q, q), (q, c))]
        for _ in range(30):
            shapes.append(tuple(tuple(rng.choice((q, c))
                                      for _ in range(rng.randrange(4)))
                                for _ in range(4)))
        for rd, rc, sd, sc in shapes:
            r, s = graded(p, rd, rc), graded(p, sd, sc)
            got, want = db.tensor(r, s), oracles.permuted_tensor(r, s)
            assert got == want
            assert got.rel.rep.pivots == want.rel.rep.pivots


def test_wire_permutation_and_retype():
    p = 3
    types = (QUANTUM, CLASSICAL, QUANTUM)
    swap = db.wire_permutation(p, types, [2, 1, 0])
    assert swap.cod == (QUANTUM, CLASSICAL, QUANTUM)
    assert db.compose(swap, db.wire_permutation(p, swap.cod, [2, 1, 0])) == \
        db.identity_graded(p, types)
    r = db.tensor(db.measure_z(p), db.identity_relation(p, 1))
    moved = db.retype(r, cod=(QUANTUM, CLASSICAL))
    assert moved.cod == (QUANTUM, CLASSICAL)
    assert moved.rel == r.rel
    with pytest.raises(ValueError):
        db.retype(r, cod=(CLASSICAL, CLASSICAL))


def test_bend_unbend_roundtrip():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        r = random_circuit(rng, p, steps=3, pure_only=False)
        assert db.unbend(db.bend(r), len(r.dom)) == r
    # bent identity is the bell state
    for p in (2, 3, 5):
        assert db.bend(db.identity_relation(p, 1)) == db.bell_state(p)


def test_closure_classification():
    rng = random.Random(29)
    pure_seen = chan_seen = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        r = random_circuit(rng, p, steps=4, pure_only=True)
        if not r.is_empty:
            pure_seen += 1
            assert db.classify_relation(r) == "lagrangian"
        s = random_circuit(rng, p, steps=4, pure_only=False)
        if not s.is_empty:
            chan_seen += 1
            assert db.classify_relation(s) in ("coisotropic", "lagrangian")
    assert pure_seen > 60 and chan_seen > 60


def test_purify():
    rng = random.Random(31)
    for p in (2, 3, 5):
        cases = [db.discard(p), db.projector_z(p), db.projector_x(p),
                 db.total_state(p, 2),
                 db.compose(db.discard(p), db.codiscard(p))]
        for r in cases:
            pure, k = db.purify(r)
            assert db.classify_relation(pure) == "lagrangian"
            tail = db.identity_relation(p, len(r.cod))
            for _ in range(k):
                tail = db.tensor(tail, db.discard(p))
            assert db.compose(pure, tail) == r
        # pure maps purify to themselves
        f = db.fourier(p)
        pf, k = db.purify(f)
        assert k == 0 and pf == f
        dis_pure, k = db.purify(db.discard(p))
        assert k == 1
    for _ in range(40):
        p = rng.choice([2, 3])
        r = random_circuit(rng, p, steps=4, pure_only=False)
        if r.is_empty:
            continue
        pure, k = db.purify(r)
        tail = db.identity_relation(p, len(r.cod))
        for _ in range(k):
            tail = db.tensor(tail, db.discard(p))
        assert db.compose(pure, tail) == r
    with pytest.raises(ValueError):
        db.purify(GradedRelation(3, (), (), ar.empty(3, 0, 0)))


def bastard_z(p, n, m, phase):
    """A Z spider with every leg decohered in z."""
    spider = db.z_spider(p, n, m, phase)
    if n:
        spider = db.compose(db.tensor_all(*[db.projector_z(p)] * n), spider)
    if m:
        spider = db.compose(spider, db.tensor_all(*[db.projector_z(p)] * m))
    return spider


def bastard_x(p, n, m, phase):
    spider = db.x_spider(p, n, m, phase)
    if n:
        spider = db.compose(db.tensor_all(*[db.projector_x(p)] * n), spider)
    if m:
        spider = db.compose(spider, db.tensor_all(*[db.projector_x(p)] * m))
    return spider


def test_bastard_spider_form():
    # a fully decohered Z spider keeps only "all x equal": phases wash out
    for p in (2, 3, 5):
        for a in range(p):
            for b in range(p):
                got = bastard_z(p, 2, 1, (a, b))
                assert got == bastard_z(p, 2, 1, (0, 0))
        want_rows = [[0, 0, 1, -1, 0, 0], [0, 0, 0, 1, 0, -1]]
        want = AffineRelation.from_constraints(p, 4, 2, want_rows, [0, 0])
        assert bastard_z(p, 2, 1, (0, 0)).rel == want


def test_bastard_fusion():
    rng = random.Random(37)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        # pure Z(1->2) feeding one leg of a decohered Z(1->1)
        joined = db.compose(db.z_spider(p, 1, 2, (a, b)),
                            db.tensor(bastard_z(p, 1, 1, (c, d)),
                                      db.identity_relation(p, 1)))
        # the result is the unlabeled bastard of the merged arity
        assert joined == bastard_z(p, 1, 2, (0, 0))
        jx = db.compose(db.x_spider(p, 1, 2, (a, b)),
                        db.tensor(bastard_x(p, 1, 1, (c, d)),
                                  db.identity_relation(p, 1)))
        assert jx == bastard_x(p, 1, 2, (0, 0))


def test_teleportation():
    for p in (2, 3, 5):
        bell = db.bell_state(p)
        start = db.tensor(db.identity_relation(p, 1), bell)
        entangle = db.symplectomorphism_relation(
            p, sy.Gate("cadd", (1, 0), 1).matrix(sy.SymplecticSpace(p, 2)))
        meas = db.compose(entangle,
                          db.tensor(db.measure_x(p), db.measure_z(p)))
        step = db.compose(start, db.tensor(meas, db.identity_relation(p, 1)))
        corr = db.controlled_weyl(p, [[1, 0]], [[0, p - 1]])
        assert db.compose(step, corr) == db.identity_relation(p, 1)


def test_coarse_grains():
    p = 3
    cid = db.identity_graded(p, (CLASSICAL,))
    noisy = db.compose(db.prep_z(p), db.measure_x(p))
    assert db.coarse_grains(cid, noisy)
    assert not db.coarse_grains(noisy, cid)
    assert not db.coarse_grains(cid, cid)
    with pytest.raises(ValueError):
        db.coarse_grains(cid, db.discard(p))
    rng = random.Random(41)
    hits = 0
    for _ in range(60):
        r = random_circuit(rng, 2, steps=3, pure_only=False)
        s = random_circuit(rng, 2, steps=3, pure_only=False)
        if r.dom != s.dom or r.cod != s.cod:
            continue
        from oracles import rel_points
        want = rel_points(r.rel) < rel_points(s.rel)
        assert db.coarse_grains(r, s) == want
        hits += 1
    assert hits


def test_zero_state_and_total_state():
    for p in (2, 3):
        zs = db.zero_state(p)
        assert db.compose(zs, db.measure_z(p)) == db.classical_point(p, [0])
        ts = db.total_state(p, 1)
        assert db.compose(ts, db.discard(p)) == \
            GradedRelation(p, (), (), ar.total(p, 0, 0))
        assert db.compose(db.codiscard(p), db.discard(p)) == \
            GradedRelation(p, (), (), ar.total(p, 0, 0))
        assert ts == db.codiscard(p)
