import os
import random
import shutil

import pytest

from stabrel import cli, qec
from stabrel import symplectic as sy

from gen import random_code

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_equations_worked_example(capsys):
    for p in ("3", "5"):
        code, out, _ = run(capsys, "eval", fx("two_spiders.diagram"), "--p", p)
        assert code == 0
        assert out == "a1 = a2 = b1\na1 + a3 = b2 + b3\n"
    code, out, _ = run(capsys, "eval", fx("two_spiders.diagram"), "--p", "2")
    assert code == 0
    assert out == "a1 = a2 = b1\na1 + a3 + b2 + b3 = 0\n"


def test_eval_identity_empty_and_phase(capsys):
    code, out, _ = run(capsys, "eval", fx("identity.diagram"))
    assert (code, out) == (0, "a1 = b1\n")
    code, out, _ = run(capsys, "eval", fx("empty.diagram"))
    assert (code, out) == (0, "EMPTY\n")
    code, out, _ = run(capsys, "eval", fx("two_spiders_phased.diagram"),
                       "--p", "5")
    assert (code, out) == (0, "a1 = a2 = b1\na1 + a3 + 1 = b2 + b3\n")
    code, out, _ = run(capsys, "eval", fx("eq_delete_unit_rhs.diagram"))
    assert (code, out) == (0, "TOTAL\n")


def test_eval_doubled_flat_coordinates(capsys):
    code, out, _ = run(capsys, "eval", fx("decohered_identity.diagram"))
    assert (code, out) == (0, "a2 = b2\n")


def test_eval_basis_deterministic(capsys):
    code, first, _ = run(capsys, "eval", fx("two_spiders.diagram"),
                         "--p", "5", "--print", "basis")
    assert code == 0
    assert first == ("1,1,0,1,0,1,0\n"
                     "0,0,1,0,0,1,0\n"
                     "0,0,0,0,1,4,0\n"
                     "0,0,0,0,0,0,1\n")
    code, second, _ = run(capsys, "eval", fx("two_spiders.diagram"),
                          "--p", "5", "--print", "basis")
    assert second == first


def test_eval_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.diagram"
    bad.write_text("p=3; layer=affine\nnode 0 z_spider phase=7\n")
    code, _, err = run(capsys, "eval", str(bad))
    assert code == 3
    assert "line 2" in err
    code, _, err = run(capsys, "eval", str(tmp_path / "missing.diagram"))
    assert code == 3


def test_equal_and_subset(capsys):
    code, out, _ = run(capsys, "equal", fx("fourier_euler.diagram"),
                       fx("fourier_euler_alt.diagram"))
    assert (code, out) == (0, "EQUAL: yes\n")
    code, out, _ = run(capsys, "equal", fx("two_spiders.diagram"),
                       fx("two_spiders.diagram"))
    assert (code, out) == (0, "EQUAL: yes\n")
    code, out, _ = run(capsys, "equal", fx("two_spiders.diagram"),
                       fx("two_spiders_phased.diagram"))
    assert (code, out) == (1, "EQUAL: no\n")
    # coarse-graining holds one way only
    code, out, _ = run(capsys, "subset", fx("identity_channel.diagram"),
                       fx("decohered_identity.diagram"))
    assert (code, out) == (0, "SUBSET: yes\n")
    code, out, _ = run(capsys, "subset", fx("decohered_identity.diagram"),
                       fx("identity_channel.diagram"))
    assert (code, out) == (1, "SUBSET: no\n")


def test_compare_shape_mismatch_is_input_error(capsys):
    code, _, err = run(capsys, "equal", fx("identity.diagram"),
                       fx("two_spiders.diagram"))
    assert code == 3 and "shape" in err
    code, _, err = run(capsys, "equal", fx("identity.diagram"),
                       fx("identity_channel.diagram"))
    assert code == 3 and "affine" in err


def test_classify(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", fx("repetition3.subspace"))
    assert (code, out) == (0, "coisotropic\n")
    zero = tmp_path / "zero.subspace"
    zero.write_text("p=2\nn=2\n")
    code, out, _ = run(capsys, "classify", str(zero))
    assert (code, out) == (0, "isotropic\n")
    point = tmp_path / "lagr.subspace"
    point.write_text("p=3\nn=1\n1|0\n")
    code, out, _ = run(capsys, "classify", str(point))
    assert (code, out) == (0, "lagrangian\n")


def test_dilate_writes_deterministic_artifact(capsys, tmp_path):
    out_a = tmp_path / "a.diagram"
    out_b = tmp_path / "b.diagram"
    code, out, _ = run(capsys, "dilate", fx("repetition3.subspace"),
                       str(out_a))
    assert code == 0 and out == "dilated: n=3 m=1 d=2 gates=2\n"
    run(capsys, "dilate", fx("repetition3.subspace"), str(out_b))
    text = out_a.read_text()
    assert text == out_b.read_text()
    assert text.startswith("# n=3 m=1 d=2 gates=2\n")
    assert "# syndrome 1,0,1|0,0,0\n" in text
    assert text.count("# matrix ") == 6
    assert "p=2; layer=doubled\n" in text and "gate " not in text
    # a non-coisotropic input is an input error
    iso = tmp_path / "iso.subspace"
    iso.write_text("p=2\nn=2\n1,0|0,0\n")
    code, _, err = run(capsys, "dilate", str(iso), str(tmp_path / "x"))
    assert code == 3 and "coisotropic" in err


def _subspace_file(path, sub):
    """Write a GradedSubspace as a subspace file."""
    p, n = sub.space.p, sub.space.n
    rows = [qec._format_vector(v, n) for v in sub.linear.basis]
    path.write_text("p=%d\nn=%d\nshift %s\n" % (p, n, qec._format_vector(
        sub.shift, n)) + "".join(row + "\n" for row in rows))


def test_dilate_output_is_read_by_eval_and_equal(capsys, tmp_path):
    """`eval --print basis` of the written encoder prints the basis of
    the dilation's encoder, and the file equals itself."""
    subs = {"repetition3": qec.parse_subspace_path(fx("repetition3.subspace"))}
    for seed, p, n, d in ((1, 3, 3, 2), (2, 7, 3, 1), (3, 5, 2, 2),
                          (4, 2**31 - 1, 2, 1), (5, 4294967311, 3, 2),
                          (6, 2**61 - 1, 2, 2)):
        subs[seed] = random_code(random.Random(seed), p, n, d)[0]
    for name, sub in subs.items():
        source, out = tmp_path / "s.subspace", str(tmp_path / "enc.diagram")
        _subspace_file(source, sub)
        dil = sy.dilation(sub)
        code, text, _ = run(capsys, "dilate", str(source), out)
        assert (code, text) == (0, "dilated: n=%d m=%d d=%d gates=%d\n" % (
            sub.space.n, dil.m, dil.d, len(dil.gates))), name
        code, text, _ = run(capsys, "eval", out, "--print", "basis")
        want = "".join(line + "\n" for line in cli.render_basis(dil.encoder.rel))
        assert (code, text) == (0, want), name
        assert run(capsys, "equal", out, out)[:2] == (0, "EQUAL: yes\n"), name


def test_syndrome_command(capsys):
    cases = {"0,0,0|1,0,0": "1,1", "0,0,0|0,1,0": "1,0",
             "0,0,0|0,0,1": "0,1", "1,1,1|0,0,0": "0,0"}
    for error, expect in cases.items():
        code, out, _ = run(capsys, "syndrome", fx("repetition3.code"), error)
        assert (code, out) == (0, expect + "\n")
    code, _, err = run(capsys, "syndrome", fx("repetition3.code"), "1|0")
    assert code == 3
    for p in ("4294967311", "2305843009213693951"):
        code, out, _ = run(capsys, "syndrome", fx("repetition3.code"),
                           "0,0,0|1,0,0", "--p", p)
        assert (code, out) == (0, "1,1\n"), p


def test_syndrome_error_may_start_with_a_minus(capsys):
    for argv in (["-1,0,0|0,1,0"], ["-1,0,0|0,1,0", "--p", "5"],
                 ["--", "-1,0,0|0,1,0"]):
        code, out, err = run(capsys, "syndrome", fx("repetition3.code"), *argv)
        assert (code, out, err) == (0, "1,0\n", ""), argv


def test_verify_command(capsys, tmp_path):
    errors = tmp_path / "w1.errors"
    errors.write_text("0,0,0|1,0,0\n0,0,0|0,1,0\n0,0,0|0,0,1\n0,0,0|0,0,0\n")
    code, out, _ = run(capsys, "verify", fx("repetition3.code"),
                       fx("repetition3.code"), str(errors))
    assert code == 0
    assert out == ("0,0,0|1,0,0 -> 1,1 ok\n"
                   "0,0,0|0,1,0 -> 1,0 ok\n"
                   "0,0,0|0,0,1 -> 0,1 ok\n"
                   "0,0,0|0,0,0 -> 0,0 ok\n"
                   "VERIFIED: yes\n")
    double = tmp_path / "w2.errors"
    double.write_text("0,0,0|1,1,0\n")
    code, out, _ = run(capsys, "verify", fx("repetition3.code"),
                       fx("repetition3.code"), str(double))
    assert code == 1
    assert out == ("0,0,0|1,1,0 -> 0,1 FAIL (residual error after "
                   "correction)\nVERIFIED: no\n")
    # no errors to check: the table verifies vacuously
    none = tmp_path / "none.errors"
    none.write_text("# nothing\n")
    code, out, _ = run(capsys, "verify", fx("repetition3.code"),
                       fx("repetition3.code"), str(none))
    assert (code, out) == (0, "VERIFIED: yes\n")


def test_verify_a_code_with_no_stabilizers(capsys, tmp_path):
    """k = n: the table entry `-> z|x` is the empty syndrome's."""
    code_file = tmp_path / "k1.code"
    code_file.write_text("p=3\nn=1\nk=1\n")
    table = tmp_path / "k1.table"
    table.write_text("-> 0|0\n")
    errors = tmp_path / "k1.errors"
    errors.write_text("0|0\n")
    assert run(capsys, "verify", str(code_file), str(table), str(errors)) \
        == (0, "0|0 ->  ok\nVERIFIED: yes\n", "")
    errors.write_text("1|1\n")
    assert run(capsys, "verify", str(code_file), str(table), str(errors)) \
        == (1, "1|1 ->  FAIL (residual error after correction)\n"
               "VERIFIED: no\n", "")
    # on a code with stabilizers the empty syndrome has the wrong length
    table.write_text("-> 0,0,0|0,0,0\n")
    code, _, err = run(capsys, "verify", fx("repetition3.code"), str(table),
                       str(errors))
    assert code == 3 and "has length 0, expected 2" in err


def test_demo_teleport(capsys):
    # the last two primes are past the int64-exact range
    for extra in ((), ("--p", "2"), ("--p", "5"), ("--p", "4294967311"),
                  ("--p", "2305843009213693951")):
        code, out, _ = run(capsys, "demo", "teleport",
                           "--fixtures-dir", FIX, *extra)
        assert (code, out) == (0, "IDENTITY: yes\n")


def test_primes_from_2_to_the_63_exit_three(capsys):
    """Residues are int64: 2^63 - 25, the largest prime below 2^63, is
    answered, and the primes 2^63 + 29 and 2^64 + 13 are refused as input
    errors, not answered "no" or crashed on."""
    p = "9223372036854775783"
    code, out, _ = run(capsys, "demo", "teleport", "--fixtures-dir", FIX,
                       "--p", p)
    assert (code, out) == (0, "IDENTITY: yes\n")
    code, out, _ = run(capsys, "eval", fx("two_spiders.diagram"), "--p", p)
    assert (code, out) == (0, "a1 = a2 = b1\na1 + a3 = b2 + b3\n")
    for p in ("9223372036854775837", "18446744073709551629"):
        want = "error: p = %s is too large: primes must be below 2^63\n" % p
        for argv in (("demo", "teleport", "--fixtures-dir", FIX),
                     ("eval", fx("two_spiders.diagram"))):
            assert run(capsys, *argv, "--p", p) == (3, "", want)


def test_demo_repetition3(capsys):
    code, out, _ = run(capsys, "demo", "repetition3", "--fixtures-dir", FIX)
    assert code == 0
    assert out == ("(1,0,0)->(1,1)\n"
                   "(0,1,0)->(1,0)\n"
                   "(0,0,1)->(0,1)\n"
                   "(0,0,0)->(0,0)\n"
                   "CORRECTS weight<=1 X: yes\n")


@pytest.mark.parametrize("p", ["4294967311", "2305843009213693951"])
def test_demo_repetition3_at_a_wide_prime(capsys, p):
    """The weight-1 X errors are made and verified one at a time, so the
    verdict stops at the first failing branch (X^2 has no table entry)
    instead of building all 3(p - 1) errors first."""
    code, out, err = run(capsys, "demo", "repetition3", "--fixtures-dir", FIX,
                         "--p", p)
    assert (code, err) == (1, "")
    assert out == ("(1,0,0)->(1,1)\n"
                   "(0,1,0)->(1,0)\n"
                   "(0,0,1)->(0,1)\n"
                   "(0,0,0)->(0,0)\n"
                   "CORRECTS weight<=1 X: no\n")


def test_demo_verdicts_are_computed(capsys, tmp_path):
    """Mutating a fixture flips the demo verdict."""
    mutated = tmp_path / "fixtures"
    mutated.mkdir()
    for name in ("teleport.diagram", "repetition3.code"):
        shutil.copy(fx(name), mutated / name)

    text = (mutated / "teleport.diagram").read_text()
    (mutated / "teleport.diagram").write_text(
        text.replace("node 3 measure_x", "node 3 measure_z"))
    code, out, _ = run(capsys, "demo", "teleport",
                       "--fixtures-dir", str(mutated))
    assert (code, out) == (1, "IDENTITY: no\n")

    text = (mutated / "repetition3.code").read_text()
    (mutated / "repetition3.code").write_text(
        text.replace("1,1 -> 0,0,0|1,0,0", "1,1 -> 0,0,0|0,1,0"))
    code, out, _ = run(capsys, "demo", "repetition3",
                       "--fixtures-dir", str(mutated))
    assert code == 1
    assert out.endswith("CORRECTS weight<=1 X: no\n")

    code, _, err = run(capsys, "demo", "teleport",
                       "--fixtures-dir", str(tmp_path / "nope"))
    assert code == 3


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["demo", "unknown-demo"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "x.diagram", "--print", "words"])
    assert info.value.code == 2


def test_internal_failure_is_not_a_no(capsys, monkeypatch):
    def crash(args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "cmd_eval", crash)
    code, out, err = run(capsys, "eval", fx("identity.diagram"))
    assert (code, out) == (3, "")
    assert err == "internal error: AssertionError: invariant broken\n"


def test_parser_is_built_once_and_dispatches_by_name(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def fake(args):
        seen.append((args.code, args.error))
        print("patched")
        return 0

    monkeypatch.setattr(cli, "cmd_syndrome", fake)
    code, out, _ = run(capsys, "syndrome", fx("repetition3.code"), "0,0,0|1,0,0")
    assert (code, out) == (0, "patched\n")
    assert seen == [(fx("repetition3.code"), "0,0,0|1,0,0")]
    monkeypatch.undo()
    code, out, _ = run(capsys, "syndrome", fx("repetition3.code"), "0,0,0|1,0,0")
    assert (code, out) == (0, "1,1\n")


def test_help_text_is_frozen(capsys, monkeypatch):
    """`stabrel --help` and every subcommand's `--help`, as frozen in
    cli_help.txt at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(os.path.dirname(__file__), "cli_help.txt")) as handle:
        blocks = handle.read().split("$ stabrel")[1:]
    assert len(blocks) == 9
    for block in blocks:
        command, want = block.split("\n", 1)
        argv = command.split()
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out == want, command


def test_eval_output_is_frozen(capsys):
    """`eval --print basis` and `--print equations` on every diagram
    fixture at p = 2, 3, 5 and 7: each block of frozen_eval.txt is the
    command, its exit code and its standard output."""
    with open(os.path.join(os.path.dirname(__file__), "frozen_eval.txt")) as handle:
        blocks = handle.read().split("$ stabrel ")[1:]
    assert len(blocks) == 200
    assert {block.split()[1] for block in blocks} == {
        name for name in os.listdir(FIX) if name.endswith(".diagram")}
    for block in blocks:
        command, status, want = block.split("\n", 2)
        argv = command.split()
        argv[1] = fx(argv[1])
        code, out, _ = run(capsys, *argv)
        assert ("exit %d" % code, out) == (status, want), command


def test_p2_refuses_non_css_codes(capsys, tmp_path):
    """At p = 2 the CLI answers only for CSS codes; the same file at
    p = 3 is answered, and the repetition3 fixtures are CSS."""
    y_code = tmp_path / "y.code"
    y_code.write_text("p=2\nn=1\nk=0\n1|1\n0 -> 0|0\n1 -> 0|1\n")
    y_space = tmp_path / "y.subspace"
    y_space.write_text("p=2\nn=1\n1|1\n")
    errors = tmp_path / "e.errors"
    errors.write_text("0|1\n")
    calls = [("syndrome", str(y_code), "0|1"),
             ("verify", str(y_code), str(y_code), str(errors)),
             ("dilate", str(y_space), str(tmp_path / "y.dil"))]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: at p = 2 only CSS codes are supported"), argv
        assert not (tmp_path / "y.dil").exists()
        code, _, err = run(capsys, *argv, "--p", "3")
        assert code in (0, 1) and err == "", argv
    code, out, _ = run(capsys, "syndrome", fx("repetition3.code"), "0,0,0|1,0,0")
    assert (code, out) == (0, "1,1\n")
    code, out, _ = run(capsys, "dilate", fx("repetition3.subspace"),
                       str(tmp_path / "rep.dil"))
    assert (code, out) == (0, "dilated: n=3 m=1 d=2 gates=2\n")


def test_inputs_past_int64_answer_as_their_residues(capsys, tmp_path):
    """Code, table, subspace and error entries are reduced mod p as
    Python ints before any 64-bit array is made: +-(2^63 + 1) in an
    error, a generator row, a phase, a table entry or a subspace shift
    answers as its residue does."""
    code, out, _ = run(capsys, "syndrome", fx("repetition3.code"),
                       "0,0,0|0,9223372036854775809,0")
    assert (code, out) == (0, "1,0\n")

    def answers(error=1, generator=2, phase=3, entry=1, shift=2):
        code_file, table_file = tmp_path / "c.code", tmp_path / "t.code"
        errors_file, sub_file = tmp_path / "e.errors", tmp_path / "s.subspace"
        code_file.write_text("p=5\nn=2\nk=1\n1,%d|0,0|%d\n"
                             % (generator, phase))
        table_file.write_text("1 -> 0,0|%d,0\n4 -> 0,0|0,%d\n"
                              % (entry, entry))
        errors_file.write_text("0,0|%d,0\n0,%d|0,0\n" % (error, error))
        sub_file.write_text("p=5\nn=1\nshift 0|%d\n1|0\n" % shift)
        got = [run(capsys, "syndrome", str(code_file), "0,0|%d,0" % error),
               run(capsys, "verify", str(code_file), str(table_file),
                   str(errors_file)),
               run(capsys, "dilate", str(sub_file), str(tmp_path / "s.dil"))]
        assert all(c != 3 for c, _, _ in got), got
        return got, (tmp_path / "s.dil").read_text()

    for name in ("error", "generator", "phase", "entry", "shift"):
        for big in (2**63 + 1, -(2**63 + 1)):
            assert answers(**{name: big}) == answers(**{name: big % 5}), name


def test_code_file_size_checks(capsys, tmp_path):
    empty = tmp_path / "n0.code"
    empty.write_text("p=3\nn=0\nk=0\n")
    code, _, err = run(capsys, "syndrome", str(empty), "|")
    assert code == 3
    assert "needs n >= 1, got n=0" in err
    wide = tmp_path / "k3.code"
    wide.write_text("p=3\nn=2\nk=3\n")
    code, _, err = run(capsys, "syndrome", str(wide), "0,0|0,0")
    assert code == 3
    assert "needs 0 <= k <= n, got k=3 with n=2" in err
    no_qudits = tmp_path / "n0.subspace"
    no_qudits.write_text("p=3\nn=0\n")
    code, _, err = run(capsys, "classify", str(no_qudits))
    assert code == 3
    assert err == "error: subspace file needs n >= 1, got n=0\n"
