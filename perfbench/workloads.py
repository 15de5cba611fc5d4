"""The benchmark's workloads: fixed objects, rounds of operations, checks.

Each workload builds its fixed objects in `setup` and then hands out
rounds.  A round is a fixed multiset of operation shapes (which command,
which code, which size) in a seeded order, with fresh seeded contents
(primes, phases, errors, subspaces) drawn per operation; so every seed
runs the same mix and no two operations of a run share their inputs
by construction.  An operation is (label, call, check): `call` runs the
engine and is timed, `check` compares the result with a reference that
does not come from the engine.

This module imports the engine; `gen` and `fp` do not.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import numpy as np

import stabrel  # noqa: F401  (the import is part of set-up time)
from stabrel import cli, qec, symplectic as sy

import gen
from fp import nullspace, same_span

# Primes up to 65521 keep every int64 product of the seed's arithmetic exact.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 31, 257, 65521)
WIDE_PRIMES = (2 ** 31 - 1, 4294967311, 2 ** 61 - 1)

PRESENTATION_PAIRS = [
    ("eq_fusion_lhs", "eq_fusion_rhs"),
    ("eq_copy_unit_lhs", "eq_copy_unit_rhs"),
    ("eq_delete_unit_lhs", "eq_delete_unit_rhs"),
    ("eq_bend_lhs", "eq_bend_rhs"),
    ("eq_snake_lhs", "identity"),
    ("eq_pz_idem_lhs", "decohered_identity"),
    ("decohered_identity", "eq_pz_split_rhs"),
    ("eq_total_classical_lhs", "eq_total_classical_rhs"),
    ("eq_bastard_fusion_lhs", "eq_bastard_fusion_rhs"),
]

# two_spiders.diagram states {a1 = a2 = b1, a1 + a3 = b2 + b3}; as rows
# over (a1, a2, a3, b1, b2, b3, h) they are a1 - a2, a2 - b1 and
# a1 + a3 - b2 - b3, all with constant 0.
TWO_SPIDERS = [[1, -1, 0, 0, 0, 0, 0], [0, 1, 0, -1, 0, 0, 0],
               [1, 0, 1, 0, -1, -1, 0]]


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label, self.call, self.check = label, call, check


class Workload:
    name = ""
    # latency_tail_ms is this percentile: the highest whole one that a
    # run of 25 s leaves at least 10 samples above (the loop runs on
    # until it does)
    tail_pct = 90.0
    op_limit_s = 30.0     # an operation slower than this counts as failed

    def __init__(self, root: str, seed: int, work_dir: str):
        self.root = root
        self.fixtures = os.path.join(root, "fixtures")
        self.seed = seed
        self.work_dir = work_dir

    def rng(self, *salt) -> random.Random:
        return random.Random("%s:%d:%s" % (self.name, self.seed, salt))

    def setup(self) -> None:
        """Engine calls that build the fixed objects; timed as set-up."""

    def round(self, index: int):
        raise NotImplementedError

    # -- helpers for operations through the command line ----------------

    def fixture(self, name: str) -> str:
        return os.path.join(self.fixtures, name + ".diagram")

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.work_dir, name)
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def cli_op(self, label, argv, want_rc, want_out) -> Op:
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            return rc, out.getvalue()

        def check(got):
            rc, text = got
            return rc == want_rc and (want_out is None or text == want_out)
        return Op(label, call, check)

    def verdict_op(self, label, cmd, a, b, p, want: bool) -> Op:
        word = {"equal": "EQUAL", "subset": "SUBSET"}[cmd]
        return self.cli_op(label, [cmd, a, b, "--p", str(p)], 0 if want else 1,
                           "%s: %s\n" % (word, "yes" if want else "no"))

    def teleport_op(self, p) -> Op:
        return self.cli_op("teleport", ["demo", "teleport", "--p", str(p),
                                        "--fixtures-dir", self.fixtures],
                           0, "IDENTITY: yes\n")

    def two_spiders_op(self, p) -> Op:
        argv = ["eval", self.fixture("two_spiders"), "--print", "basis",
                "--p", str(p)]
        op = self.cli_op("eval_two_spiders", argv, 0, None)
        want = nullspace(TWO_SPIDERS, 7, p)

        def check(got):
            rc, text = got
            rows = [[int(v) for v in line.split(",")]
                    for line in text.split()]
            return rc == 0 and same_span(rows, want, p)
        op.check = check
        return op

    def fixture_verdicts(self, rng, primes, pairs=PRESENTATION_PAIRS):
        """The presentation pairs (equal at every prime) and the Euler
        pair, whose literal phases spell -1 only at p = 3."""
        ops = [self.verdict_op("pair:" + lhs, "equal", self.fixture(lhs),
                               self.fixture(rhs), rng.choice(primes), True)
               for lhs, rhs in pairs]
        p = rng.choice([q for q in primes if q > 2])  # the file's phases
        ops.append(self.verdict_op("euler", "equal",
                                   self.fixture("fourier_euler"),
                                   self.fixture("fourier_euler_alt"), p, p == 3))
        return ops

    # -- helpers for code operations -------------------------------------

    @staticmethod
    def syndrome_op(label, code, ref: gen.Code, error) -> Op:
        e = np.array(error, dtype=np.int64)
        return Op(label, lambda: qec.syndrome(code, e),
                  lambda got: [int(v) for v in got] == ref.syndrome(error))

    @staticmethod
    def code_pipeline_op(label, ref: gen.Code, rng) -> Op:
        """parse -> classify -> code_from_subspace -> measurement -> two
        syndromes, checked against the construction."""
        text = ref.subspace_text()
        gens = np.array(ref.gens, dtype=np.int64).reshape(-1, 2 * ref.n)
        bad = ref.detectable_error(rng)
        good = ref.undetectable_error(rng)

        def call():
            s = qec.parse_subspace_file(text)
            verdict = sy.classify(s)
            code = qec.code_from_subspace(s, generators=gens)
            qec.measurement(code)
            return (verdict, code,
                    qec.syndrome(code, np.array(bad, dtype=np.int64)),
                    qec.syndrome(code, np.array(good, dtype=np.int64)))

        def check(got):
            verdict, code, s_bad, s_good = got
            return (verdict == ref.verdict
                    and [int(v) for v in s_bad] == ref.syndrome(bad)
                    and not any(int(v) for v in s_good)
                    and encoder_image_ok(code, ref))
        return Op(label, call, check)


def encoder_image_ok(code, ref: gen.Code) -> bool:
    """The encoder's image, read off its relation, is the input subspace.

    The relation is stored homogenized over (inputs, outputs, h);
    projecting onto (outputs, h) gives the homogenized image, which must
    span the same space as (rows, 0) and (shift, 1).
    """
    p, n = ref.p, ref.n
    rel = code.encoder.rel
    cols = list(range(rel.dom, rel.dom + 2 * n)) + [rel.dom + 2 * n]
    image = [[int(row[c]) for c in cols] for row in rel.rep.basis]
    want = [list(r) + [0] for r in ref.subspace_rows] + [list(ref.shift) + [1]]
    return same_span(image, want, p)


class Diagrams(Workload):
    """Verdicts and evaluations through `cli.main`: the shipped fixtures,
    and long chains whose single global elimination is wide.

    A round runs the fixture operations twice -- each time 10 fast ones
    (affine or one-node doubled diagrams), 10 that build several doubled
    generators and the teleport -- and 5 chains, two of them of 12
    teleports; so the median falls among the generator builds and the
    p96 among the 12-teleport chains.
    """

    name = "diagrams"
    tail_pct = 96.0
    CHAIN_LENGTHS = (4, 8, 12, 12, 16)
    GENERATOR_PAIRS = [pair for pair in PRESENTATION_PAIRS if pair[0] in (
        "eq_fusion_lhs", "eq_total_classical_lhs", "eq_bastard_fusion_lhs")]

    def round(self, index: int):
        rng = self.rng(index)
        ops = []
        for _ in range(2):
            ops += self.fixture_ops(rng)
        for k in self.CHAIN_LENGTHS:
            p = rng.choice(SMALL_PRIMES[1:])
            text, same, other = gen.chain(rng, p, k)
            want = rng.randrange(2) == 0
            tag = "%d_%d" % (index, len(ops))
            ops.append(self.verdict_op(
                "chain%d" % k, "equal", self.write("chain%s.diagram" % tag, text),
                self.write("expect%s.diagram" % tag, same if want else other),
                p, want))
        rng.shuffle(ops)
        return ops

    def fixture_ops(self, rng):
        ops = self.fixture_verdicts(rng, SMALL_PRIMES)
        ops += self.fixture_verdicts(rng, SMALL_PRIMES, self.GENERATOR_PAIRS)
        ops.append(self.two_spiders_op(rng.choice(SMALL_PRIMES)))
        ops.append(self.cli_op("eval_empty",
                               ["eval", self.fixture("empty"), "--p",
                                str(rng.choice(SMALL_PRIMES))], 0, "EMPTY\n"))
        p = rng.choice(SMALL_PRIMES)
        ops.append(self.verdict_op("subset_id", "subset",
                                   self.fixture("identity_channel"),
                                   self.fixture("decohered_identity"), p, True))
        ops.append(self.verdict_op("subset_decohered", "subset",
                                   self.fixture("decohered_identity"),
                                   self.fixture("identity_channel"), p, False))
        for _ in range(2):
            ops.append(self.verdict_op("subset_fusion", "subset",
                                       self.fixture("eq_fusion_lhs"),
                                       self.fixture("eq_fusion_rhs"),
                                       rng.choice(SMALL_PRIMES), True))
        ops.append(self.teleport_op(rng.choice(SMALL_PRIMES)))
        return ops


class Syndromes(Workload):
    """Queries on codes built once: syndromes, detectability, corrections.

    Per round each code gets its syndromes, one detectability query and,
    for the repetition codes, correction checks of weight 1 and 2.  The
    two n = 12 codes get most syndromes, so the median falls among them;
    the two weight-1 corrections on n = 33, the costliest operations,
    are 1/18 of the round, so the p97 falls in the middle of them.
    """

    name = "syndromes"
    tail_pct = 97.0
    # (n, syndromes, weights of the correction checks)
    REPETITION = ((5, 2, (1, 2)), (9, 2, (1, 2)), (17, 2, (1, 2)),
                  (33, 1, (1, 1, 2)))
    RANDOM = ((6, 3, 5, 2), (12, 6, 3, 4), (12, 6, 7, 4),
              (16, 8, 5, 2))  # (n, d, p, syndromes)

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        rng = self.rng("codes")
        self.refs = [gen.RepetitionCode(3, n) for n, _, _ in self.REPETITION]
        self.refs += [gen.Code(rng, p, n, d) for n, d, p, _ in self.RANDOM]
        self.per_round = [(s, weights) for _, s, weights in self.REPETITION]
        self.per_round += [(s, ()) for *_, s in self.RANDOM]
        self.texts = [r.code_text(r.table() if isinstance(
            r, gen.RepetitionCode) else None) for r in self.refs]

    def setup(self) -> None:
        self.codes = []
        for text in self.texts:
            code, table = qec.parse_code_file(text)
            qec.measurement(code)
            self.codes.append((code, table))

    def round(self, index: int):
        rng = self.rng(index)
        ops = []
        for ref, (code, table), (count, weights) in zip(
                self.refs, self.codes, self.per_round):
            tag = "n%d_p%d" % (ref.n, ref.p)
            for _ in range(count):
                error = [rng.randrange(ref.p) for _ in range(2 * ref.n)]
                ops.append(self.syndrome_op("syndrome_" + tag, code, ref, error))
            ops.append(self.undetectable_op("undetectable_" + tag, code, ref, rng))
            for weight in weights:
                ops.append(self.verify_op("verify%d_%s" % (weight, tag),
                                          code, table, ref, weight, rng))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def undetectable_op(label, code, ref, rng) -> Op:
        if rng.randrange(2):
            error = ref.undetectable_error(rng)
        else:
            error = [rng.randrange(ref.p) for _ in range(2 * ref.n)]
        want = not any(ref.syndrome(error))
        e = np.array(error, dtype=np.int64)
        return Op(label, lambda: qec.undetectable(code, e),
                  lambda got: got is want)

    @staticmethod
    def verify_op(label, code, table, ref, weight, rng) -> Op:
        """One X shift against the weight <= 1 table: corrected iff its
        weight is one (a weight-2 shift on n >= 5 wires is not)."""
        wires = rng.sample(range(ref.n), weight)
        error = [0] * (2 * ref.n)
        for w in wires:
            error[ref.n + w] = rng.randrange(1, ref.p)
        want = (len(wires) == 1, tuple(ref.syndrome(error)))
        e = np.array(error, dtype=np.int64)

        def check(got):
            return (got[0].ok, tuple(got[0].syndrome)) == want
        return Op(label, lambda: qec.verify_correction(code, table, [e]), check)


class Codes(Workload):
    """Fresh random codes built end to end, one per operation.

    A round builds 20 codes: two of each n up to 8, four of n = 10, six
    of n = 12 and one each of n = 14 and 16.  As many cost more than the
    n = 10 ones as less, so the median falls in the middle of the n = 10
    codes; the two costliest are a tenth of the round, so the p95 falls
    in the middle of them.
    """

    name = "codes"
    tail_pct = 95.0
    # (n, d, p): even n from 2 to 16, d from one to all wires, p = 3, 5, 7
    SHAPES = tuple((n, (1, n // 2, n)[n % 3], (3, 5, 7)[(n // 2) % 3])
                   for n in range(2, 17, 2))
    PER_ROUND = (2, 2, 2, 2, 4, 6, 1, 1)  # codes of each shape

    def round(self, index: int):
        rng = self.rng(index)
        ops = [self.code_pipeline_op("code_n%d_d%d_p%d" % (n, d, p),
                                     gen.Code(rng, p, n, d), rng)
               for (n, d, p), count in zip(self.SHAPES, self.PER_ROUND)
               for _ in range(count)]
        rng.shuffle(ops)
        return ops


class WidePrime(Workload):
    """A fixed list of operations from the other workloads, at primes
    past the int64-exact range: the only place the wide path runs.
    Every round runs the same list on fresh seeded contents."""

    name = "wide_prime"
    op_limit_s = 1.0
    tail_pct = 66.0  # of about 30 correct answers in one round

    def round(self, index: int):
        rng = self.rng(index)
        ops = []
        for p in WIDE_PRIMES:
            tag = "@%d" % p
            for op in self.fixture_verdicts(rng, (p,)) + [self.teleport_op(p)]:
                op.label += tag
                ops.append(op)
            for n in (3, 5):
                ref = gen.RepetitionCode(p, n)
                ops += [self.parsed_syndrome_op("rep%d%s" % (n, tag), ref,
                                                [rng.randrange(p)
                                                 for _ in range(2 * n)])
                        for _ in range(2)]
            for n in (2, 3, 4, 5, 6) * 2:
                d = rng.randrange(1, n + 1)
                ops.append(self.code_pipeline_op("code_n%d%s" % (n, tag),
                                                 gen.Code(rng, p, n, d), rng))
        return ops

    @staticmethod
    def parsed_syndrome_op(label, ref, error) -> Op:
        text = ref.code_text()
        e = np.array(error, dtype=np.int64)

        def call():
            code, _ = qec.parse_code_file(text)
            return qec.syndrome(code, e)
        return Op(label, call,
                  lambda got: [int(v) for v in got] == ref.syndrome(error))


WORKLOADS = {w.name: w for w in (Diagrams, Syndromes, Codes, WidePrime)}
