import os
import random

import numpy as np
import pytest

from stabrel import diagram as dg
from stabrel import doubled as db
from stabrel import linalg, qec
from stabrel import relation as ar
from stabrel import symplectic as sy
from stabrel.linalg import Subspace
from stabrel.symplectic import (
    Dilation,
    Gate,
    GradedSubspace,
    SymplecticSpace,
    classify,
    dilation,
    omega,
    omega_dual,
    symp_complement,
)

from gen import random_code, random_coisotropic, random_isotropic
from oracles import (_complement_subspace, all_subspaces, gates_to_matrix,
                     omega_product, symp_complement_points, vectors)


def rep_code_space():
    """The three-wire repetition-code subspace {x1 = x2 = x3} over F_2."""
    space = SymplecticSpace(2, 3)
    rows = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    return GradedSubspace.from_rows(space, rows)


def test_omega_basics():
    sp = SymplecticSpace(5, 1)
    assert omega(sp, [1, 0], [0, 1]) == 1
    assert omega(sp, [0, 1], [1, 0]) == 4
    rng = random.Random(5)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        s = SymplecticSpace(p, n)
        v = [rng.randrange(p) for _ in range(2 * n)]
        w = [rng.randrange(p) for _ in range(2 * n)]
        assert omega(s, v, v) == 0
        assert (omega(s, v, w) + omega(s, w, v)) % p == 0
        assert omega(s, v, w) == omega_product(v, w, p, n)


def test_omega_dual_pairs_by_the_dot_product():
    """omega_dual(g) . v = omega(g, v), in Python ints at every prime."""
    rng = random.Random(19)
    for p in (2, 5, 2**31 - 1, 4294967311, 2**61 - 1):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(p) for _ in range(2 * n)] for _ in range(3)]
        v = [rng.randrange(p) for _ in range(2 * n)]
        dual = omega_dual(p, np.array(rows, dtype=np.int64))
        assert dual.dtype == np.int64 and dual.shape == (3, 2 * n)
        for g, w in zip(rows, dual.tolist()):
            assert sum(a * b for a, b in zip(w, v)) % p == \
                omega_product(g, v, p, n)


def test_omega_exact_at_wide_primes():
    """Dense vectors at p = 3037000493: (p-1)^2 fits int64, a sum of two
    such products does not."""
    p = 3037000493
    rng = random.Random(17)
    for n in (1, 2, 5, 16):
        sp = SymplecticSpace(p, n)
        for _ in range(20):
            v = [rng.randrange(p) for _ in range(2 * n)]
            w = [rng.randrange(p) for _ in range(2 * n)]
            assert omega(sp, v, w) == omega_product(v, w, p, n)


def test_omega_matrix_block_form():
    sp = SymplecticSpace(3, 2)
    want = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                     [2, 0, 0, 0], [0, 2, 0, 0]])
    assert np.array_equal(sp.omega_matrix(), want)


def test_complement_trivials():
    for p in (2, 3, 5):
        sp = SymplecticSpace(p, 1)
        zero = GradedSubspace(sp)
        assert symp_complement(zero).linear == Subspace.full(p, 2)
        line = GradedSubspace.from_rows(sp, [[1, 0]])
        assert symp_complement(line).linear == line.linear
        assert classify(line) == "lagrangian"


def test_complement_repetition_code_brute_force():
    s = rep_code_space()
    comp = symp_complement(s)
    pts = set()
    for coeffs in vectors(2, s.linear.dim):
        v = np.zeros(6, dtype=np.int64)
        for c, row in zip(coeffs, s.linear.basis):
            v = (v + c * row) % 2
        pts.add(tuple(int(x) for x in v))
    want = symp_complement_points(pts, 2, 3)
    got = set()
    for coeffs in vectors(2, comp.dim):
        v = np.zeros(6, dtype=np.int64)
        for c, row in zip(coeffs, comp.linear.basis):
            v = (v + c * row) % 2
        got.add(tuple(int(x) for x in v))
    assert got == want
    # the complement sits inside the subspace: coisotropic
    assert s.linear.contains_space(comp.linear)
    assert classify(s) == "coisotropic" and s.dim == 4


def test_double_complement_exhaustive_f2():
    sp = SymplecticSpace(2, 2)
    for pts in all_subspaces(2, 4):
        s = GradedSubspace.from_rows(sp, [list(v) for v in sorted(pts)])
        comp = symp_complement(s)
        assert comp.dim + s.dim == 4
        assert symp_complement(comp).linear == s.linear


def test_double_complement_random_odd_primes():
    rng = random.Random(13)
    for _ in range(120):
        p = rng.choice([3, 5])
        n = rng.randrange(1, 4)
        sp = SymplecticSpace(p, n)
        rows = [[rng.randrange(p) for _ in range(2 * n)]
                for _ in range(rng.randrange(2 * n + 1))]
        s = GradedSubspace.from_rows(sp, rows)
        comp = symp_complement(s)
        assert s.dim + comp.dim == 2 * n
        assert symp_complement(comp).linear == s.linear


def test_complement_reverses_inclusion_and_swaps_classes():
    rng = random.Random(17)
    for _ in range(80):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 4)
        iso = random_isotropic(rng, p, n)
        co = symp_complement(iso)
        assert classify(iso) in ("isotropic", "lagrangian")
        assert classify(co) in ("coisotropic", "lagrangian")
        sub = GradedSubspace.from_rows(
            iso.space, iso.linear.basis[:max(iso.dim - 1, 0)])
        assert symp_complement(sub).linear.contains_space(co.linear)


def test_classify_examples():
    sp = SymplecticSpace(3, 1)
    # at n=1 a line is maximal isotropic, i.e. lagrangian
    assert classify(GradedSubspace.from_rows(sp, [[1, 2]])) == "lagrangian"
    v = GradedSubspace.from_rows(SymplecticSpace(3, 2), [[1, 2, 0, 1]])
    assert classify(v) == "isotropic"
    assert classify(GradedSubspace(sp, empty=True)) == "none"
    full = GradedSubspace(sp, linear=Subspace.full(3, 2))
    assert classify(full) == "coisotropic"
    # the hyperbolic plane on wire 1 has complement the plane on wire 2
    sp2 = SymplecticSpace(3, 2)
    mixed = GradedSubspace.from_rows(sp2, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert classify(mixed) == "none"


def test_graded_subspace_canonical_shift():
    sp = SymplecticSpace(3, 1)
    lin = Subspace(3, 2, [[1, 0]])
    a = GradedSubspace(sp, [2, 1], lin)
    b = GradedSubspace(sp, [0, 1], lin)
    assert a == b and hash(a) == hash(b)
    assert a.contains([2, 1]) and not a.contains([0, 2])


COMPLEMENT_PRIMES = (2, 3, 5, 7, 2**31 - 1, 2**61 - 1, 2**63 - 25)


def _seeded_subspaces(rng, p):
    """Random, shifted, zero, full and empty subspaces at p."""
    out = []
    for n in (1, 2, 3):
        sp = SymplecticSpace(p, n)
        for _ in range(3):
            rows = [[rng.randrange(p) for _ in range(2 * n)]
                    for _ in range(rng.randrange(2 * n + 1))]
            shift = [rng.randrange(p) for _ in range(2 * n)]
            out.append(GradedSubspace.from_rows(sp, rows))
            out.append(GradedSubspace.from_rows(sp, rows, shift))
        out.append(GradedSubspace(sp))
        out.append(GradedSubspace(sp, linear=Subspace.full(p, 2 * n)))
        out.append(GradedSubspace(sp, empty=True))
    return out


@pytest.mark.parametrize("p", COMPLEMENT_PRIMES)
def test_complement_from_constraint_rows_matches_the_kernel(p):
    """L^omega read off the state's constraint rows equals the kernel of
    the omega-duals of a basis of L, for symp_complement and for the
    L^omega that _classify compares with."""
    rng = random.Random(p % 1000)
    for s in _seeded_subspaces(rng, p):
        kind, comp = sy._classify(s)
        if s.empty:
            assert (kind, comp) == ("none", None)
            assert symp_complement(s) == GradedSubspace(s.space, empty=True)
            continue
        want = _complement_subspace(s.space, s.linear)
        assert comp == want, s
        got = symp_complement(s)
        assert got.linear == want and got == GradedSubspace(
            s.space, s.shift, want), s


def test_classify_makes_no_nullspace_call(monkeypatch):
    rng = random.Random(37)
    spaces = [random_coisotropic(rng, p, n) for p in (2, 3, 5)
              for n in (1, 2, 3, 4)]
    spaces += [random_code(rng, p, n, d)[0] for p in (2**61 - 1, 2**63 - 25)
               for n, d in ((1, 1), (3, 2), (4, 0))]
    spaces += [random_isotropic(rng, 3, 3), GradedSubspace(
        SymplecticSpace(5, 2), linear=Subspace.full(5, 4))]
    calls, real = [], linalg.nullspace_mod

    def counted(mat, p):
        calls.append(p)
        return real(mat, p)

    for module in (linalg, ar, sy, db, qec):
        if hasattr(module, "nullspace_mod"):
            monkeypatch.setattr(module, "nullspace_mod", counted)
    kinds = [classify(s) for s in spaces]
    assert calls == []
    assert set(kinds) <= {"coisotropic", "lagrangian", "isotropic"}


@pytest.mark.parametrize("p", (2**61 - 1, 2**63 - 25))
def test_random_coisotropic_is_coisotropic_at_wide_primes(p):
    for seed in range(60):
        for n in (1, 2, 3):
            s = random_coisotropic(random.Random(seed), p, n)
            assert classify(s) in ("coisotropic", "lagrangian"), (seed, n)


def test_from_state_is_the_constructor_on_its_state():
    """GradedSubspace(space, shift, linear) is the subspace whose state
    it stores; an unreduced shift comes back as the canonical coset
    representative."""
    rng = random.Random(41)
    for p in (2, 5, 2**61 - 1):
        for _ in range(20):
            n = rng.randrange(1, 4)
            sp = SymplecticSpace(p, n)
            lin = Subspace(p, 2 * n, [[rng.randrange(p) for _ in range(2 * n)]
                                      for _ in range(rng.randrange(2 * n))])
            a = [rng.randrange(p) for _ in range(2 * n)]
            # a moved within its coset, some entries shifted below 0
            moved = a
            for row in lin.basis:
                k = rng.randrange(p)
                moved = [x + k * int(v) for x, v in zip(moved, row)]
            unreduced = [x % p - p * rng.randrange(2) for x in moved]
            g = GradedSubspace(sp, unreduced, lin)
            h = GradedSubspace.from_state(sp, g.state)
            assert g == h and hash(g) == hash(h)
            assert h.linear == lin and h.dim == lin.dim and not h.empty
            assert h.shift.tolist() == lin.reduce(a).tolist()
            assert g.shift.tolist() == h.shift.tolist()
    with pytest.raises(ValueError, match="0 -> 4 state"):
        GradedSubspace.from_state(SymplecticSpace(3, 2), ar.total(3, 0, 2))


def test_gate_matrices_are_symplectic():
    rng = random.Random(19)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        sp = SymplecticSpace(p, n)
        kind = rng.choice(["fourier", "fourier_inv", "cadd", "phase", "permute"])
        if kind in ("fourier", "fourier_inv"):
            g = Gate(kind, (rng.randrange(n),))
        elif kind == "cadd":
            if n == 1:
                continue
            j, k = rng.sample(range(n), 2)
            g = Gate(kind, (j, k), rng.randrange(p))
        elif kind == "phase":
            g = Gate(kind, (rng.randrange(n),), rng.randrange(p))
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            g = Gate(kind, perm)
        m = g.matrix(sp)
        om = sp.omega_matrix()
        assert np.array_equal((m.T @ om @ m) % p, om % p)
        minv = g.inverse().matrix(sp)
        assert np.array_equal((m @ minv) % p, np.eye(2 * n, dtype=np.int64))


def test_gates_to_matrix_order():
    sp = SymplecticSpace(5, 2)
    a = Gate("cadd", (0, 1), 2)
    b = Gate("fourier", (0,))
    got = gates_to_matrix(sp, [a, b])
    want = (b.matrix(sp) @ a.matrix(sp)) % 5
    assert np.array_equal(got, want)


def test_symplectomorphism_graph_is_lagrangian():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 3)
        sp = SymplecticSpace(p, n)
        gates = []
        for _ in range(rng.randrange(4)):
            kind = rng.choice(["fourier", "cadd", "phase"])
            if kind == "cadd" and n > 1:
                j, k = rng.sample(range(n), 2)
                gates.append(Gate(kind, (j, k), rng.randrange(p)))
            elif kind == "phase":
                gates.append(Gate(kind, (rng.randrange(n),), rng.randrange(p)))
            else:
                gates.append(Gate("fourier", (rng.randrange(n),)))
        m = gates_to_matrix(sp, gates)
        assert db.classify_relation(db.symplectomorphism_relation(p, m)) == "lagrangian"


def test_dilation_repetition_code():
    s = rep_code_space()
    dil = dilation(s)
    assert dil.m == 1 and dil.d == 2
    enc = dil.encoder
    assert enc.dom == db.quantum_wires(1) and enc.cod == db.quantum_wires(3)
    assert db.compose(enc, db.dagger(enc)) == db.identity_relation(2, 1)
    assert db.state_subspace(db.image_graded(enc)) == s
    assert db.classify_relation(enc) == "lagrangian"
    for b in dil.syndrome_basis:
        assert symp_complement(s).linear.contains(b)


def test_dilation_full_space():
    for p in (2, 3, 5):
        sp = SymplecticSpace(p, 2)
        full = GradedSubspace(sp, linear=Subspace.full(p, 4))
        dil = dilation(full)
        assert dil.m == 2 and dil.d == 0
        assert dil.encoder == db.identity_relation(p, 2)
        assert db.compose(dil.encoder, db.dagger(dil.encoder)) == \
            db.identity_relation(p, 2)


def test_dilation_lagrangian_gives_state():
    sp = SymplecticSpace(3, 2)
    lag = GradedSubspace.from_rows(sp, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert classify(lag) == "lagrangian"
    dil = dilation(lag)
    assert dil.m == 0
    assert dil.encoder.dom == ()
    assert db.state_subspace(dil.encoder) == lag


def test_dilation_rejects_non_coisotropic():
    sp = SymplecticSpace(3, 2)
    iso = GradedSubspace.from_rows(sp, [[1, 0, 0, 0]])
    with pytest.raises(ValueError):
        dilation(iso)


def test_dilation_property_suite():
    rng = random.Random(29)
    for p in (2, 3, 5):
        for _ in range(100):
            n = rng.randrange(1, 5)
            s = random_coisotropic(rng, p, n)
            dil = dilation(s)
            enc = dil.encoder
            assert db.classify_relation(enc) == "lagrangian"
            assert db.compose(enc, db.dagger(enc)) == \
                db.identity_relation(p, dil.m)
            assert db.state_subspace(db.image_graded(enc)) == s
            comp = symp_complement(s)
            assert dil.syndrome_basis.shape == (dil.d, 2 * n)
            for b in dil.syndrome_basis:
                assert comp.linear.contains(b)


def test_dilation_gate_route_matches_matrix():
    # composing the recorded gates as relations equals the matrix relation
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        s = random_coisotropic(rng, p, n)
        dil = dilation(s)
        chain = db.identity_relation(p, n)
        for g in dil.gates:
            chain = db.compose(chain, db.symplectomorphism_relation(
                p, g.matrix(SymplecticSpace(p, n))))
        assert chain == db.symplectomorphism_relation(p, dil.matrix)
        om = SymplecticSpace(p, n).omega_matrix()
        assert np.array_equal((dil.matrix.T @ om @ dil.matrix) % p, om % p)


DILATION_PRIMES = (2, 3, 5, 7, 2**31 - 1, 4294967311, 2**61 - 1, 2**63 - 25)


@pytest.mark.parametrize("p", DILATION_PRIMES)
def test_dilation_matrices_are_the_gate_products(p):
    """U is the product of the recorded gates, U^-1 the product of their
    inverses in reverse order, and U U^-1 = I, for every d at n <= 8."""
    rng = random.Random(p % 1009)
    for n in range(1, 9):
        for d in range(n + 1):
            sub, _ = random_code(rng, p, n, d)
            dil = dilation(sub)
            sp = sub.space
            eye = np.eye(2 * n, dtype=np.int64)
            assert np.array_equal(dil.matrix, gates_to_matrix(sp, dil.gates))
            undo = [g.inverse() for g in reversed(dil.gates)]
            assert np.array_equal(dil.inv_matrix, gates_to_matrix(sp, undo))
            u, inv = dil.matrix.tolist(), dil.inv_matrix.tolist()
            prod = [[sum(a * b for a, b in zip(row, col)) % p
                     for col in zip(*inv)] for row in u]
            assert prod == eye.tolist()


def frozen_dilations():
    """Name -> format_dilation text, as frozen in frozen_dilations.txt."""
    path = os.path.join(os.path.dirname(__file__), "frozen_dilations.txt")
    blocks = {}
    with open(path) as handle:
        for line in handle:
            if line.startswith("== "):
                name = line[3:].strip()
                blocks[name] = ""
            else:
                blocks[name] += line
    return blocks


def test_format_dilation_is_frozen():
    """The encoder diagram, with the sizes, matrix, syndrome rows and shift
    in its `#` header lines, as the text format_dilation writes, cannot
    drift."""
    fix = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
    frozen = frozen_dilations()
    assert len(frozen) == 7
    for name, text in frozen.items():
        if name == "repetition3.subspace":
            sub = qec.parse_subspace_path(os.path.join(fix, name))
        else:
            args = dict(kv.split("=") for kv in name.split()[1:])
            seed, p, n, d = (int(args[k]) for k in ("seed", "p", "n", "d"))
            sub, _ = random_code(random.Random(seed), p, n, d)
        dil = dilation(sub)
        assert qec.format_dilation(dil) == text, name
        assert text.startswith("# n=%d m=%d d=%d gates=%d\n"
                               % (sub.space.n, dil.m, dil.d, len(dil.gates)))


@pytest.mark.parametrize("p", DILATION_PRIMES)
def test_written_encoder_evaluates_to_the_encoder(p):
    """The file format_dilation writes parses as a diagram whose relation
    is the encoder, for every d at n <= 6, shifted when n + d is odd;
    the cases use all five gate kinds."""
    rng = random.Random(p % 1013)
    # one stabilizer z on the last wire: the dilation must permute
    space = SymplecticSpace(p, 2)
    subs = [GradedSubspace.from_rows(space, [[1, 0, 0, 0], [0, 1, 0, 0],
                                             [0, 0, 1, 0]])]
    for n in range(1, 7):
        for d in range(n + 1):
            subs.append(random_code(rng, p, n, d, shifted=(n + d) % 2)[0])
    kinds = set()
    for sub in subs:
        dil = dilation(sub)
        kinds.update(g.kind for g in dil.gates)
        text = qec.format_dilation(dil)
        assert "gate " not in text
        assert dg.evaluate(dg.parse(text)) == dil.encoder
    assert kinds == {"fourier", "fourier_inv", "cadd", "phase", "permute"}
