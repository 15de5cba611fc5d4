"""End-to-end acceptance checks pinning the package's headline behaviours.

One test per criterion; each prints a single [PASS]/[FAIL] line (visible
with -s) and enforces a wall-clock cap on top of exact equality.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager

import numpy as np

from stabrel import diagram as dg
from stabrel import doubled as db
from stabrel import linalg as la
from stabrel import qec
from stabrel import relation as ar
from stabrel import symplectic as sy

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name, p=None):
    return dg.parse_file(os.path.join(FIX, name), p=p)


@contextmanager
def criterion(num, cap, desc):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if elapsed >= cap:
            raise AssertionError("criterion %d took %.2fs, cap %.0fs"
                                 % (num, elapsed, cap))
    except BaseException:
        print("[FAIL] criterion %d: %s" % (num, desc))
        raise
    print("[PASS] criterion %d (%.2fs): %s" % (num, elapsed, desc))


def test_criterion_1_two_spider_subspace():
    with criterion(1, 1.0, "two-spider diagram pins its subspace, p=2,3,5"):
        for p in (2, 3, 5):
            got = dg.evaluate(fixture("two_spiders.diagram", p=p))
            expected = ar.AffineRelation.from_constraints(
                p, 3, 3,
                [[1, -1, 0, 0, 0, 0],
                 [1, 0, 0, -1, 0, 0],
                 [1, 0, 1, 0, -1, -1]],
                [0, 0, 0])
            assert ar.equal(got, expected), p


def test_criterion_2_complement_duality():
    with criterion(2, 5.0, "colour swap is orthogonal complement;"
                           " involution exhaustive over F_2^4"):
        for p in (2, 3, 5):
            primal = dg.evaluate(fixture("two_spiders.diagram", p=p))
            dual = dg.evaluate(fixture("two_spiders_dual.diagram", p=p))
            assert ar.equal(dual, ar.ortho_complement(primal)), p
            _, vs = primal.shift_and_linear()
            _, ws = dual.shift_and_linear()
            for v in vs:
                for w in ws:
                    assert int(v @ w) % p == 0, p
        # every subspace of F_2^4 satisfies the double-complement law
        vectors = [np.array(v, dtype=np.int64)
                   for v in itertools.product(range(2), repeat=4)
                   if any(v)]
        seen = {}
        for size in range(5):
            for rows in itertools.combinations(vectors, size):
                sub = la.Subspace(2, 4, np.array(rows, dtype=np.int64)
                                  if rows else np.zeros((0, 4), dtype=np.int64))
                seen[sub.basis.tobytes()] = sub
        assert len(seen) == 67  # 1 + 15 + 35 + 15 + 1
        for sub in seen.values():
            comp = la.Subspace(2, 4, la.nullspace_mod(sub.basis, 2))
            again = la.Subspace(2, 4, la.nullspace_mod(comp.basis, 2))
            assert sub.dim + comp.dim == 4
            assert again == sub


def test_criterion_3_fourier_euler_identities():
    with criterion(3, 1.0, "Euler spider triple: F^4 = id and F'F = id,"
                           " p=2,3,5,7"):
        for p in (2, 3, 5, 7):
            f = db.compose_all(db.z_spider(p, 1, 1, (0, 1)),
                               db.x_spider(p, 1, 1, (0, p - 1)),
                               db.z_spider(p, 1, 1, (0, 1)))
            assert db.equal(f, db.fourier(p))
            ident = db.identity_relation(p, 1)
            assert db.equal(db.compose_all(f, f, f, f), ident), p
            assert db.equal(db.compose(db.dagger(f), f), ident), p


def test_criterion_4_teleportation_is_identity():
    with criterion(4, 1.0, "teleportation equals the identity channel,"
                           " p=2,3,5"):
        for p in (2, 3, 5):
            rel = dg.evaluate(fixture("teleport.diagram", p=p))
            assert db.equal(rel, db.identity_relation(p, 1)), p


def test_criterion_5_repetition_code_table_and_correction():
    with criterion(5, 2.0, "repetition-code syndromes match the table;"
                           " corrects weight<=1 X, rejects a weight-2 X"):
        code, table = qec.parse_code_path(os.path.join(FIX,
                                                       "repetition3.code"))
        pinned = {(1, 0, 0): (1, 1), (0, 1, 0): (1, 0),
                  (0, 0, 1): (0, 1), (0, 0, 0): (0, 0)}
        for xs, want in pinned.items():
            err = np.array([0, 0, 0, xs[0], xs[1], xs[2]], dtype=np.int64)
            assert tuple(int(v) for v in qec.syndrome(code, err)) == want
        light = [np.array([0, 0, 0] + list(xs), dtype=np.int64)
                 for xs in pinned]
        report = qec.verify_correction(code, table, light)
        assert all(check.ok for check in report)
        heavy = [np.array([0, 0, 0, 1, 1, 0], dtype=np.int64)]
        report = qec.verify_correction(code, table, heavy)
        assert not report[0].ok


# --- criterion 6: brute-force oracle --------------------------------------


def points(rel):
    """The relation's pairs as a frozenset of flat tuples."""
    decomp = rel.shift_and_linear()
    if decomp is None:
        return frozenset()
    shift, lin = decomp
    pts = set()
    for combo in itertools.product(range(rel.p), repeat=lin.shape[0]):
        v = shift.copy()
        for c, row in zip(combo, lin):
            v = (v + c * row) % rel.p
        pts.add(tuple(int(x) for x in v))
    return frozenset(pts)


def random_relation(rng, p, dom, cod, linear=False):
    width = dom + cod
    kind = rng.randrange(3)
    if kind == 0 and not linear:  # possibly empty
        coeffs = [[rng.randrange(p) for _ in range(width)]
                  for _ in range(rng.randint(1, width + 1))]
        consts = [rng.randrange(p) for _ in coeffs]
        return ar.AffineRelation.from_constraints(p, dom, cod, coeffs, consts)
    rows = np.array([[rng.randrange(p) for _ in range(width + 1)]
                     for _ in range(rng.randint(1, width + 1))],
                    dtype=np.int64)
    if linear:
        rows[:, -1] = 0
        rows = np.vstack([rows, np.eye(1, width + 1, width,
                                       dtype=np.int64)[0]])
    return ar.AffineRelation.from_rows(p, dom, cod, rows)


def test_criterion_6_oracle_equivalence():
    with criterion(6, 60.0, "compose/tensor/converse/complement/subset vs"
                            " brute force, 200 instances each, p=2,3"):
        rng = random.Random(60)
        for _ in range(200):
            p = rng.choice((2, 3))
            a, b = rng.randint(0, 3), rng.randint(1, 3)
            c = rng.randint(0, 3)
            r = random_relation(rng, p, a, b)
            s = random_relation(rng, p, b, c)
            left = {}
            for pt in points(r):
                left.setdefault(pt[a:], set()).add(pt[:a])
            got = set()
            for pt in points(s):
                for u in left.get(pt[:b], ()):
                    got.add(u + pt[b:])
            assert points(ar.compose(r, s)) == frozenset(got)
        for _ in range(200):
            p = rng.choice((2, 3))
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            c, d = rng.randint(0, 2), rng.randint(0, 2)
            r = random_relation(rng, p, a, b)
            s = random_relation(rng, p, c, d)
            model = {u[:a] + v[:c] + u[a:] + v[c:]
                     for u in points(r) for v in points(s)}
            assert points(ar.tensor(r, s)) == frozenset(model)
        for _ in range(200):
            p = rng.choice((2, 3))
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            r = random_relation(rng, p, a, b)
            model = {pt[a:] + pt[:a] for pt in points(r)}
            assert points(ar.converse(r)) == frozenset(model)
        for _ in range(200):
            p = rng.choice((2, 3))
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if a + b == 0:
                b = 1
            r = random_relation(rng, p, a, b, linear=True)
            pts = np.array(sorted(points(r)), dtype=np.int64)
            grid = np.array(list(itertools.product(range(p), repeat=a + b)),
                            dtype=np.int64)
            ok = (pts @ grid.T) % p == 0
            model = {tuple(int(x) for x in grid[i])
                     for i in range(grid.shape[0]) if ok[:, i].all()}
            assert points(ar.ortho_complement(r)) == frozenset(model)
        forced = 0
        for _ in range(200):
            p = rng.choice((2, 3))
            a, b = rng.randint(0, 3), rng.randint(1, 3)
            s = random_relation(rng, p, a, b)
            if rng.randrange(2):
                mask = np.array([rng.randrange(2) > 0
                                 for _ in range(s.rep.basis.shape[0])],
                                dtype=bool)
                r = ar.AffineRelation(p, a, b,
                                      la.Subspace(p, a + b + 1,
                                                  s.rep.basis[mask]))
            else:
                r = random_relation(rng, p, a, b)
            want = points(r) <= points(s)
            forced += want
            assert ar.subset(r, s) == want
        assert forced > 60  # both answers exercised


def random_coisotropic(rng, p, n):
    space = sy.SymplecticSpace(p, n)
    target = rng.randint(0, n)
    rows = np.zeros((0, 2 * n), dtype=np.int64)
    for _ in range(30 * n):
        if rows.shape[0] == target:
            break
        v = np.array([rng.randrange(p) for _ in range(2 * n)], dtype=np.int64)
        cand = np.vstack([rows, v])
        if la.Subspace(p, 2 * n, cand).dim != cand.shape[0]:
            continue
        if any(sy.omega(space, v, w) for w in cand):
            continue
        rows = cand
    iso = sy.GradedSubspace(space, None, la.Subspace(p, 2 * n, rows))
    comp = sy.symp_complement(iso)
    shift = None
    if rng.randrange(2):
        shift = [rng.randrange(p) for _ in range(2 * n)]
    return sy.GradedSubspace(space, shift, comp.linear)


def test_criterion_7_stinespring_suite():
    with criterion(7, 90.0, "dilations are Lagrangian isometries with the"
                            " right image, 100 per p=2,3,5"):
        rng = random.Random(70)
        for p in (2, 3, 5):
            for _ in range(100):
                sub = random_coisotropic(rng, p, rng.randint(1, 4))
                assert sy.classify(sub) in ("coisotropic", "lagrangian")
                dil = sy.dilation(sub)
                enc = dil.encoder
                assert db.classify_relation(enc) == "lagrangian"
                assert db.equal(db.compose(enc, db.dagger(enc)),
                                db.identity_relation(p, dil.m))
                assert db.state_subspace(db.image_graded(enc)) == sub


def random_pure_circuit(rng, p):
    width = rng.randint(1, 3)
    circ = db.identity_relation(p, width)
    for _ in range(rng.randint(2, 5)):
        if width == 0:
            circ = db.tensor(circ, db.zero_state(p))
            width = 1
        move = rng.randrange(5)
        if move == 0:
            gates = [sy.Gate("fourier", (rng.randrange(width),)),
                     sy.Gate("phase", (rng.randrange(width),),
                             rng.randrange(1, p))]
            if width >= 2:
                j, k = rng.sample(range(width), 2)
                gates.append(sy.Gate("cadd", (j, k), rng.randrange(1, p)))
            layer = db.symplectomorphism_relation(
                p, rng.choice(gates).matrix(sy.SymplecticSpace(p, width)))
            circ = db.compose(circ, layer)
        elif move == 1:
            circ = db.compose(circ, db.weyl(
                p, [rng.randrange(p) for _ in range(width)],
                [rng.randrange(p) for _ in range(width)]))
        elif move == 2:
            new = rng.randint(1, 3)
            spider = rng.choice((db.z_spider, db.x_spider))
            phase = (rng.randrange(p), rng.randrange(p))
            circ = db.compose(circ, spider(p, width, new, phase))
            width = new
        elif move == 3:
            circ = db.tensor(circ, db.zero_state(p))
            width += 1
        elif width >= 2:
            cap = db.tensor(db.bell_effect(p),
                            db.identity_relation(p, width - 2))
            circ = db.compose(circ, cap)
            width -= 2
    if width == 0:
        circ = db.tensor(circ, db.zero_state(p))
        width = 1
    return circ, width


def test_criterion_8_classification_laws():
    with criterion(8, 60.0, "dim + complement laws; 500 random circuits stay"
                            " Lagrangian, coisotropic after discarding"):
        rng = random.Random(80)
        for _ in range(500):
            p = rng.choice((2, 3, 5))
            n = rng.randint(1, 4)
            rows = np.array([[rng.randrange(p) for _ in range(2 * n)]
                             for _ in range(rng.randint(0, 2 * n))],
                            dtype=np.int64).reshape(-1, 2 * n)
            sub = sy.GradedSubspace(sy.SymplecticSpace(p, n), None,
                                    la.Subspace(p, 2 * n, rows))
            comp = sy.symp_complement(sub)
            assert sub.dim + comp.dim == 2 * n
            assert sy.symp_complement(comp) == sub
        nonempty = 0
        for _ in range(500):
            p = rng.choice((2, 3))
            circ, width = random_pure_circuit(rng, p)
            if circ.is_empty:
                continue  # the empty relation is a morphism of both props
            nonempty += 1
            assert db.classify_relation(circ) == "lagrangian"
            keep = rng.randint(0, width - 1)
            pieces = [db.identity_relation(p, 1)] * keep
            pieces += [db.discard(p)] * (width - keep)
            lossy = db.compose(circ, db.tensor_all(*pieces))
            if not lossy.is_empty:
                assert db.classify_relation(lossy) in ("lagrangian",
                                                       "coisotropic")
        assert nonempty >= 300


def test_criterion_9_presentation_equations():
    pairs = [
        ("eq_fusion_lhs.diagram", "eq_fusion_rhs.diagram"),
        ("eq_copy_unit_lhs.diagram", "eq_copy_unit_rhs.diagram"),
        ("eq_delete_unit_lhs.diagram", "eq_delete_unit_rhs.diagram"),
        ("eq_bend_lhs.diagram", "eq_bend_rhs.diagram"),
        ("eq_snake_lhs.diagram", "identity.diagram"),
        ("eq_pz_idem_lhs.diagram", "decohered_identity.diagram"),
        ("decohered_identity.diagram", "eq_pz_split_rhs.diagram"),
        ("eq_total_classical_lhs.diagram", "eq_total_classical_rhs.diagram"),
        ("eq_bastard_fusion_lhs.diagram", "eq_bastard_fusion_rhs.diagram"),
    ]
    with criterion(9, 30.0, "all presentation-equation fixture pairs agree,"
                            " p=2,3,5"):
        for lhs, rhs in pairs:
            for p in (2, 3, 5):
                a = dg.evaluate(fixture(lhs, p=p))
                b = dg.evaluate(fixture(rhs, p=p))
                assert a == b, (lhs, p)
