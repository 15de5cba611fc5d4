import glob
import itertools
import os
import random

import numpy as np
import pytest

from stabrel import doubled as db
from stabrel import qec
from stabrel import symplectic as sy
from stabrel.qec import (
    CorrectionTable,
    StabilizerCode,
    affine_correction_protocol,
    code_from_subspace,
    code_state,
    measurement,
    parse_code_file,
    parse_code_path,
    parse_errors_file,
    parse_subspace_file,
    parse_subspace_path,
    syndrome,
    undetectable,
    verify_correction,
    weight,
)

from gen import random_code, random_coisotropic
from oracles import (in_span, omega_product, per_coordinate_fit,
                     stepwise_verify_correction, wired_encoder,
                     wired_measurement, wired_readout)

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def rep_code():
    code, table = parse_code_path(os.path.join(FIX, "repetition3.code"))
    return code, table


def x_error(n, wire, value=1):
    e = np.zeros(2 * n, dtype=np.int64)
    e[n + wire] = value
    return e


def test_repetition_code_fields():
    code, table = rep_code()
    assert (code.p, code.n, code.k, code.d) == (2, 3, 1, 2)
    assert sy.classify(code.subspace) == "coisotropic"
    assert not code.subspace.shift.any()
    # declared generators in file order, spanning the same space as the
    # dilation's own syndrome rows
    assert code.syndrome_basis.tolist() == [[1, 1, 0, 0, 0, 0],
                                            [1, 0, 1, 0, 0, 0]]
    got = (code.basis_change @ code.dilation.syndrome_basis) % 2
    assert np.array_equal(got, code.syndrome_basis)
    assert table is not None and table.d == 2 and len(table.entries) == 4
    assert not table.affine


def test_repetition_syndrome_table():
    """The four pinned syndrome rows for single x-shifts."""
    code, _ = rep_code()
    want = {(1, 0, 0): (1, 1), (0, 1, 0): (1, 0),
            (0, 0, 1): (0, 1), (0, 0, 0): (0, 0)}
    for shift, expect in want.items():
        e = np.concatenate([np.zeros(3, dtype=np.int64),
                            np.asarray(shift, dtype=np.int64)])
        assert tuple(int(v) for v in syndrome(code, e)) == expect
        # pairing route: component i is omega(g_i, e)
        by_form = tuple(sy.omega(code.subspace.space, g, e)
                        for g in code.syndrome_basis)
        assert by_form == expect


def test_repetition_correction_weight_one():
    code, table = rep_code()
    errors = [x_error(3, w) for w in range(3)]
    errors.append(np.zeros(6, dtype=np.int64))
    reports = verify_correction(code, table, errors)
    assert all(r.ok for r in reports)
    # any weight-2 x-shift aliases a weight-1 syndrome and must fail
    double = np.zeros(6, dtype=np.int64)
    double[4] = double[5] = 1
    bad = verify_correction(code, table, [double])
    assert not bad[0].ok and bad[0].reason == "residual error after correction"


def test_repetition_undetectable_exhaustive():
    """undetectable <=> zero syndrome <=> normalizer membership, all 64."""
    code, _ = rep_code()
    normalizer = code.subspace.linear.basis
    quiet_count = 0
    for e in itertools.product(range(2), repeat=6):
        e = np.array(e, dtype=np.int64)
        quiet = undetectable(code, e)
        assert quiet == (not syndrome(code, e).any())
        assert quiet == in_span(2, normalizer, e)
        quiet_count += quiet
    # every pure-z shift commutes with the z-type stabilizers, plus the
    # logical x line: a 4-dimensional normalizer
    assert quiet_count == 16


def test_missing_table_entry_reported():
    code, table = rep_code()
    partial = CorrectionTable(2, 3, 2, {k: v for k, v in table.entries.items()
                                        if k != (1, 0)})
    reports = verify_correction(code, partial, [x_error(3, 1)])
    assert not reports[0].ok and reports[0].reason == "no table entry"
    assert reports[0].syndrome == (1, 0)


def test_encoder_and_syndrome_laws_random():
    rng = random.Random(2026)
    for trial in range(12):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 4)
        sub = random_coisotropic(rng, p, n, shifted=bool(rng.randrange(2)))
        code = code_from_subspace(sub)
        # isometry and image laws
        assert db.equal(db.compose(code.encoder, db.dagger(code.encoder)),
                        db.identity_relation(p, code.k))
        assert db.state_subspace(code_state(code)) == sub
        # uncorrupted syndrome is zero, also for shifted subspaces
        assert not syndrome(code, np.zeros(2 * n, dtype=np.int64)).any()
        # linearity in the error, and agreement with the pairing route
        for _ in range(6):
            e1 = np.array([rng.randrange(p) for _ in range(2 * n)])
            e2 = np.array([rng.randrange(p) for _ in range(2 * n)])
            d1, d2 = syndrome(code, e1), syndrome(code, e2)
            both = syndrome(code, (e1 + e2) % p)
            assert np.array_equal(both, (d1 + d2) % p)
            pair = np.array([sy.omega(sub.space, g, e1)
                             for g in code.syndrome_basis], dtype=np.int64)
            assert np.array_equal(d1, pair)
            undetectable(code, e1)  # raises if the two routes split


def test_non_coisotropic_subspace_is_refused():
    """Only dilation() classifies; its one message names "coisotropic"."""
    sp = sy.SymplecticSpace(3, 2)
    iso = sy.GradedSubspace.from_rows(sp, [[1, 0, 0, 0]])
    with pytest.raises(ValueError, match="coisotropic"):
        code_from_subspace(iso)
    with pytest.raises(ValueError, match="coisotropic"):
        sy.dilation(iso)


def test_declared_generator_order():
    """An explicit generator list permutes/remixes the syndrome wires."""
    code, _ = rep_code()
    sub = code.subspace
    flipped = code_from_subspace(sub, generators=code.syndrome_basis[::-1])
    e = x_error(3, 0)
    assert tuple(syndrome(code, e)) == (1, 1)
    assert tuple(syndrome(flipped, e)) == (1, 1)
    e = x_error(3, 1)
    assert tuple(syndrome(code, e)) == (1, 0)
    assert tuple(syndrome(flipped, e)) == (0, 1)
    with pytest.raises(ValueError):
        code_from_subspace(sub, generators=[[1, 0, 0, 0, 0, 0],
                                            [0, 1, 0, 0, 0, 0]])
    with pytest.raises(ValueError):
        code_from_subspace(sub, generators=code.syndrome_basis[:1])


def test_measurement_idempotent():
    """Measuring twice copies the outcome instead of changing it."""
    rng = random.Random(7)
    cases = [rep_code()[0]]
    cases.append(code_from_subspace(random_coisotropic(rng, 3, 2,
                                                       shifted=False)))
    for code in cases:
        p, n, d = code.p, code.n, code.d
        if d == 0:
            continue
        meas = measurement(code)
        id_cls = db.identity_graded(p, db.classical_wires(d))
        twice = db.compose(meas, db.tensor(meas, id_cls))
        copy = db.tensor_all(*[db.classical_z_spider(p, 1, 2)] * d)
        if d > 1:
            perm = [2 * i for i in range(d)] + [2 * i + 1 for i in range(d)]
            copy = db.compose(copy, db.wire_permutation(
                p, db.classical_wires(2 * d), perm))
        once = db.compose(meas, db.tensor(db.identity_relation(p, n), copy))
        assert db.equal(twice, once)


def test_weyl_conjugation_is_a_weyl():
    """U ; weyl(e) ; U^-1 is the Weyl shift of the transported vector."""
    rng = random.Random(11)
    for _ in range(8):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        sub = random_coisotropic(rng, p, n, shifted=False)
        dil = sy.dilation(sub)
        u = db.symplectomorphism_relation(p, dil.matrix)
        u_inv = db.symplectomorphism_relation(p, dil.inv_matrix)
        e = np.array([rng.randrange(p) for _ in range(2 * n)])
        got = db.compose_all(u, db.weyl(p, e[:n], e[n:]), u_inv)
        moved = (dil.inv_matrix @ e) % p
        assert db.equal(got, db.weyl(p, moved[:n], moved[n:]))


def test_generated_tables_verify():
    """A branch passes exactly when the residual is a stabilizer."""
    rng = random.Random(31)
    checked_ok = checked_bad = 0
    for trial in range(6):
        p = rng.choice([2, 3])
        n = rng.randrange(2, 4)
        sub = random_coisotropic(rng, p, n, shifted=False)
        code = code_from_subspace(sub)
        if code.d == 0:
            continue
        lomega = code.dilation.syndrome_basis
        errors = [np.array([rng.randrange(p) for _ in range(2 * n)])
                  for _ in range(8)]
        errors.append(np.zeros(2 * n, dtype=np.int64))
        reps = {}
        for e in errors:
            key = tuple(int(v) for v in syndrome(code, e))
            reps.setdefault(key, e if any(key) else np.zeros_like(e))
        reps[(0,) * code.d] = np.zeros(2 * n, dtype=np.int64)
        table = CorrectionTable(p, n, code.d, reps)
        for report in verify_correction(code, table, errors):
            residual = (np.array(report.error)
                        - table.lookup(report.syndrome)) % p
            expect = in_span(p, lomega, residual)
            assert report.ok == expect
            if expect:
                checked_ok += 1
            else:
                checked_bad += 1
    assert checked_ok > 10 and checked_bad > 3


def test_affine_table_detection():
    entries = {(0, 0): [0, 0, 0, 0], (1, 0): [0, 0, 1, 0],
               (0, 1): [0, 0, 0, 1], (1, 1): [0, 0, 1, 1]}
    table = CorrectionTable(2, 2, 2, entries)
    assert table.affine and not table.shift.any()
    assert table.matrix.tolist() == [[0, 0], [0, 0], [1, 0], [0, 1]]
    bent = dict(entries)
    bent[(1, 1)] = [0, 0, 0, 0]
    assert not CorrectionTable(2, 2, 2, bent).affine
    with pytest.raises(ValueError):
        CorrectionTable(2, 2, 2, {(0, 0): [0, 0, 1, 0]})
    with pytest.raises(ValueError):
        CorrectionTable(2, 2, 2, {(0,): [0, 0, 0, 0]})
    with pytest.raises(ValueError):
        affine_correction_protocol(rep_code()[0], rep_code()[1])


@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_affine_fit_matches_per_coordinate_solves(p):
    """One elimination of [S | E] fits a table exactly when the 2n
    per-coordinate solves do, to the same matrix and shift."""
    rng = random.Random(p % 997)
    fitted = unfit = 0
    for trial in range(80):
        n, d = rng.randrange(1, 4), rng.randrange(0, 4)
        f = [[rng.randrange(p) for _ in range(d)] for _ in range(2 * n)]
        keys = {tuple(rng.randrange(p) for _ in range(d))
                for _ in range(rng.randrange(1, 3 * d + 3))}
        entries = {}
        for key in keys:
            e = [sum(a * b for a, b in zip(row, key)) % p for row in f]
            if trial % 2:  # bend one coordinate off the affine map
                e[rng.randrange(2 * n)] = rng.randrange(p)
            entries[key] = e if any(key) else [0] * (2 * n)
        table = CorrectionTable(p, n, d, entries)
        want = per_coordinate_fit(table)
        if want[0] is None:
            assert (table.matrix, table.shift) == (None, None)
            unfit += 1
        else:
            assert table.matrix.tolist() == want[0].tolist()
            assert table.shift.tolist() == want[1].tolist()
            fitted += 1
    assert fitted > 20 and unfit > 5


def test_affine_protocol_trivial_code():
    """The whole space as a code: no syndrome wires, protocol = identity."""
    for p in (2, 3):
        space = sy.SymplecticSpace(p, 2)
        sub = sy.GradedSubspace(space, None, sy.Subspace.full(p, 4))
        code = code_from_subspace(sub)
        assert (code.k, code.d) == (2, 0)
        prot = affine_correction_protocol(
            code, np.zeros((4, 0), dtype=np.int64))
        assert db.equal(prot, db.identity_relation(p, 2))


def test_affine_protocol_corrects_z_shifts():
    """p = 3 one-wire code with an x-type stabilizer: a linear table
    recovers every z shift through the classically controlled correction."""
    code, _ = parse_code_file("p=3\nn=1\nk=0\n0|1\n")
    mat = np.array([[2], [0]])
    prot = affine_correction_protocol(code, mat)
    assert db.equal(prot, db.classical_point(3, [0]))
    for c in (0, 1, 2):
        run = affine_correction_protocol(code, mat, error=[c, 0])
        d = syndrome(code, [c, 0])
        assert tuple(d) == ((3 - c) % 3,)
        assert db.equal(run, db.classical_point(3, d))
    # an x shift moves along the stabilizer: zero syndrome, nothing to fix
    run = affine_correction_protocol(code, mat, error=[0, 1])
    assert db.equal(run, db.classical_point(3, [0]))


def test_affine_protocol_matches_branches():
    rng = random.Random(47)
    compared = 0
    for trial in range(5):
        p = rng.choice([2, 3])
        n = rng.randrange(2, 4)
        sub = random_coisotropic(rng, p, n, shifted=False)
        code = code_from_subspace(sub)
        k, d = code.k, code.d
        if d == 0:
            continue
        mat = np.array([[rng.randrange(p) for _ in range(d)]
                        for _ in range(2 * n)])
        for _ in range(4):
            e = np.array([rng.randrange(p) for _ in range(2 * n)])
            dvec = syndrome(code, e)
            run = affine_correction_protocol(code, mat, error=e)
            expected = db.tensor(db.identity_relation(p, k),
                                 db.classical_point(p, dvec))
            residual = (e - mat @ dvec) % p
            fixed = in_span(p, code.dilation.syndrome_basis, residual)
            assert db.equal(run, expected) == fixed
            compared += 1
    assert compared > 10


def test_code_file_round_trip_and_errors():
    code, table = rep_code()
    sub = parse_subspace_path(os.path.join(FIX, "repetition3.subspace"))
    assert sub == code.subspace
    assert sy.classify(sub) == "coisotropic"
    with pytest.raises(ValueError, match="missing p="):
        parse_code_file("n=3\nk=1\n")
    with pytest.raises(ValueError, match="generator rows"):
        parse_code_file("p=2\nn=3\nk=1\n")
    with pytest.raises(ValueError, match="linearly dependent"):
        parse_code_file("p=2\nn=3\nk=1\n1,1,0|0,0,0\n1,1,0|0,0,0\n")
    with pytest.raises(ValueError, match="line 4"):
        parse_code_file("p=2\nn=3\nk=1\n1,1|0,0\n1,0,1|0,0,0\n")
    with pytest.raises(ValueError, match="duplicate syndrome"):
        parse_code_file("p=2\nn=3\nk=1\n1,1,0|0,0,0\n1,0,1|0,0,0\n"
                        "0,0 -> 0,0,0|0,0,0\n0,0 -> 0,0,0|0,0,0\n")
    with pytest.raises(ValueError, match="coisotropic"):
        # x1 and z1 do not commute: the joint stabilizer is not coisotropic
        parse_code_file("p=2\nn=2\nk=0\n1,0|0,0\n0,0|1,0\n")
    with pytest.raises(ValueError, match="duplicate shift"):
        parse_subspace_file("p=2\nn=1\nshift 1|0\nshift 0|0\n")
    with pytest.raises(ValueError, match="integers"):
        parse_subspace_file("p=2\nn=1\n1|q\n")


def repetition_text(p, n):
    """The n-fold repetition code: stabilizers z1 - z_{i+1}."""
    rows = []
    for i in range(1, n):
        z = [0] * n
        z[0], z[i] = 1, p - 1
        rows.append("%s|%s" % (",".join(map(str, z)), ",".join(["0"] * n)))
    return "p=%d\nn=%d\nk=1\n%s\n" % (p, n, "\n".join(rows))


WIDE_PRIMES = (2 ** 31 - 1, 3037000493, 4294967311, 2 ** 61 - 1,
               2 ** 63 - 25)


def oracle_codes(family):
    """The codes each closed form is checked on, one list per family."""
    if family == "fixtures":
        return [parse_code_path(path)[0]
                for path in sorted(glob.glob(os.path.join(FIX, "*.code")))]
    if family == "repetition":
        return [parse_code_file(repetition_text(p, n))[0]
                for p in (2, 3, 5) for n in (2, 3, 5)]
    rng = random.Random(59)
    if family == "small":
        shapes = [(p, n, d, shifted) for p in (2, 3, 5, 7)
                  for n in range(1, 5) for d in range(n + 1)
                  for shifted in (False, True)]
    else:
        shapes = [(p, n, d, shifted) for p in WIDE_PRIMES
                  for n in (1, 2, 3, 5, 8) for d in (rng.randrange(1, n + 1), n)
                  for shifted in (False, True)]
    codes = []
    for p, n, d, shifted in shapes:
        sub, gens = random_code(rng, p, n, d, shifted)
        codes.append(code_from_subspace(sub, generators=gens))
    return codes


FAMILIES = ("fixtures", "repetition", "small", "wide")


def measured_errors(code):
    """The zero error and two random ones, seeded by the code's shape."""
    rng = random.Random(code.p * 100 + code.n * 10 + code.d)
    return [np.zeros(2 * code.n, dtype=np.int64)] + [
        np.array([rng.randrange(code.p) for _ in range(2 * code.n)],
                 dtype=np.int64) for _ in range(2)]


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_forms_match_circuit_oracles(family):
    """Encoder and measurement equal their composed circuits, bit for
    bit, and the syndrome read off a measured state is the point of that
    state with its quantum wires discarded."""
    for code in oracle_codes(family):
        p, n, d = code.p, code.n, code.d
        assert code.encoder == wired_encoder(code.dilation), code
        assert measurement(code) == wired_measurement(code), code
        for e in measured_errors(code):
            state = db.compose_all(code_state(code), db.weyl(p, e[:n], e[n:]),
                                   measurement(code))
            read = db.compose(state, wired_readout(p, n, d)).rel
            assert read.rep.dim == 1, code  # one point: deterministic
            assert read.point().tolist() == \
                qec._classical_readout(state, n).tolist(), code


@pytest.mark.parametrize("family", FAMILIES)
def test_code_state_is_the_encoders_image(family):
    for code in oracle_codes(family):
        assert code_state(code) == db.compose(
            db.total_state(code.p, code.k), code.encoder), code


def test_code_state_is_the_stored_state():
    """code_state wraps the code subspace's own state, built once when
    the code file is read."""
    rng = random.Random(43)
    codes = [rep_code()[0]]
    codes.append(code_from_subspace(random_coisotropic(rng, 3, 3)))
    codes.append(code_from_subspace(*random_code(rng, 2**61 - 1, 3, 2)))
    for code in codes:
        assert code_state(code).rel is code.subspace.state
        assert code_state(code).cod == db.quantum_wires(code.n)


def test_wide_prime_syndromes_match_the_form():
    """At primes where (p-1)^2 times a short sum leaves int64, the
    syndrome of a dense error is still omega(g_i, e) in Python ints, on
    random codes and on the repetition3 fixture read at each prime."""
    rng = random.Random(61)
    rep3 = [parse_code_path(os.path.join(FIX, "repetition3.code"), p=p)[0]
            for p in WIDE_PRIMES]
    for code in oracle_codes("wide") + rep3:
        p, n = code.p, code.n
        gens = [[int(v) for v in g] for g in code.syndrome_basis]
        for _ in range(2):
            e = [rng.randrange(p) for _ in range(2 * n)]
            want = [omega_product(g, e, p, n) for g in gens]
            assert [int(v) for v in syndrome(code, e)] == want


def test_verify_correction_matches_the_stepwise_replay():
    """Reading each syndrome off its own encoder ; weyl(e) ; measurement
    composite gives the reports of the syndrome-first replay, on tables
    that hold right, wrong and missing entries, at small and wide primes."""
    rng = random.Random(79)
    checked = set()
    for p in (2, 3, 5) + WIDE_PRIMES:
        for n, d in ((1, 1), (2, 1), (3, 2), (3, 3)):
            sub, gens = random_code(rng, p, n, d, shifted=bool(rng.randrange(2)))
            code = code_from_subspace(sub, generators=gens)
            errors = [np.zeros(2 * n, dtype=np.int64)] + [
                np.array([rng.randrange(p) for _ in range(2 * n)])
                for _ in range(5)]
            entries = {}
            for e in errors[1:4]:  # the third entry, reversed, is usually wrong
                key = tuple(int(v) for v in syndrome(code, e))
                if any(key):
                    entries.setdefault(key, e if len(entries) < 2 else e[::-1])
            table = CorrectionTable(p, n, d, entries)
            got = verify_correction(code, table, errors)
            assert got == stepwise_verify_correction(code, table, errors)
            checked.update((r.ok, r.reason) for r in got)
    assert checked == {(True, ""), (False, "no table entry"),
                       (False, "residual error after correction")}
    code, table = rep_code()
    with pytest.raises(ValueError, match="error vector has length 4, expected 6"):
        verify_correction(code, table, [x_error(3, 0), [0, 1, 0, 1]])


def test_errors_file_and_weight():
    text = "# weight-one shifts\n0,0,0|1,0,0\n0,0,0|0,1,0\n1,0,1|0,0,1\n"
    errors = parse_errors_file(text, 3, 3)
    assert len(errors) == 3
    assert weight(errors[0], 3) == 1
    assert weight(errors[2], 3) == 2
    assert weight([0, 1, 0, 0, 1, 0], 3) == 1
    assert weight(np.zeros(6, dtype=np.int64), 3) == 0
    with pytest.raises(ValueError, match="line 3"):
        parse_errors_file("0,0|0,0\n\n1,0|0\n", 2, 3)
