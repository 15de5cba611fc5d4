"""Stabilizer codes over F_p as coisotropic subspaces, with correction.

A code on n qudits with k logical wires is a coisotropic affine subspace
S = L + a of F_p^{2n} with dim S = n + k.  The encoder is the Lagrangian
isometry k -> n whose image is S, read off dilation().  Errors are Weyl
shifts e = (z | x); the syndrome pairs e against a declared ordered
basis g_1 .. g_{n-k} of L^omega.  The syndrome measurement is the
relation of the circuit U ; (measure the first n-k wires, keep the
rest) ; U^-1 with U the dilation matrix, followed by the change of basis
to the declared generators.  It and the encoder are each built in
closed form from one system of constraints.  The code state is the
subspace S itself, which a code file gives as the constraints
omega(g_i, v) = phase_i; its constraint rows give L^omega.  The syndrome
is the classical marginal of the measured state; tests/oracles.py
composes the circuits (for the syndrome, `wired_readout`) as the
reference.  The measured outcome on wire j is omega(b_j, -) with
b_j = U^-1 e_zj.

Correction tables map syndromes to errors.  verify_correction replays
the protocol relationally, one branch per error: encode, corrupt and
measure as one composite, read the syndrome off it, then subtract the
tabulated correction, decode, and compare with the identity channel
beside the pinned classical outcome.  Linear tables
never need the branching: affine_correction_protocol applies the
correction with a classically controlled Weyl shift, keeping the whole
protocol a single relation.

File formats (all plain text, `#` comments, blank lines ignored):

  code file      p=2 / n=3 / k=1 assignments, one stabilizer generator
                 per line as `z1,..,zn|x1,..,xn` with an optional
                 `|phase` field, and correction entries as
                 `s1,..,sd -> z1,..,zn|x1,..,xn` (`-> z|x` when k = n).
  subspace file  p= / n= assignments, an optional `shift z|x` line and
                 one basis row `z|x` per line.
  dilation file  format_dilation's encoder diagram, behind `#` lines
                 with the sizes, matrix U, syndrome rows and shift.

In every format, entries and phases of any size read as their residues.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diagram as dg
from . import doubled as db
from . import relation as ar
from . import symplectic as sy
from .linalg import Subspace, inv_mod, matmul_mod, mod_p, rref_mod


class StabilizerCode:
    """A coisotropic subspace together with its dilation data.

    syndrome_basis holds the declared generators g_1 .. g_{n-k} as rows;
    basis_change is the matrix C with g_i = sum_j C_ij b_j over the
    dilation's own syndrome rows b_j, so declared syndromes are C times
    the raw measured outcomes.
    """

    __slots__ = ("p", "n", "k", "subspace", "dilation", "syndrome_basis",
                 "basis_change", "_measure")

    def __init__(self, subspace: sy.GradedSubspace, dilation: sy.Dilation,
                 syndrome_basis: np.ndarray, basis_change: np.ndarray):
        self.subspace = subspace
        self.dilation = dilation
        self.p = int(subspace.space.p)
        self.n = subspace.space.n
        self.k = subspace.dim - subspace.space.n
        self.syndrome_basis = syndrome_basis
        self.basis_change = basis_change
        self._measure = None

    @property
    def d(self) -> int:
        """Number of syndrome wires."""
        return self.n - self.k

    @property
    def encoder(self) -> db.GradedRelation:
        return self.dilation.encoder

    def __repr__(self):
        return "StabilizerCode(p=%d, n=%d, k=%d)" % (self.p, self.n, self.k)


def code_from_subspace(s: sy.GradedSubspace,
                       generators=None) -> StabilizerCode:
    """Build a code from a coisotropic subspace.

    When `generators` is given (rows spanning L^omega, e.g. the rows of
    a code file) the syndrome components follow that order; otherwise
    the dilation's own syndrome rows are used.
    """
    dil = sy.dilation(s)
    p, n = int(s.space.p), s.space.n
    d = n - (s.dim - n)
    if generators is None:
        basis = dil.syndrome_basis.copy()
        change = np.eye(d, dtype=np.int64)
    else:
        basis = mod_p(generators, p).reshape(-1, 2 * n)
        if basis.shape[0] != d:
            raise ValueError("expected %d generator rows, got %d"
                             % (d, basis.shape[0]))
        red, _ = rref_mod(basis, p)
        if red.shape[0] != d:
            raise ValueError("generator rows are linearly dependent")
        # U b_j = e_zj, so U g_i is row i of C on the first d z
        # coordinates, and zero elsewhere exactly when g_i is a stabilizer
        moved = matmul_mod(basis, dil.matrix.T, p)
        bad = moved[:, d:].any(axis=1).nonzero()[0]
        if bad.size:
            raise ValueError("generator row %d is not a stabilizer of"
                             " the subspace" % bad[0])
        change = moved[:, :d]
    return StabilizerCode(s, dil, basis, change)


def measurement(code: StabilizerCode) -> db.GradedRelation:
    """The non-destructive syndrome measurement, n quantum wires in,
    n quantum wires and d classical outcomes out: with U the dilation
    matrix, U v' agrees with U v on every x and on the logical z, and
    c = C (U v)_x[:d] - offset with offset_i = omega(g_i, a)."""
    if code._measure is not None:
        return code._measure
    p, n, d = code.p, code.n, code.d
    u, a = code.dilation.matrix, code.subspace.shift
    offset = matmul_mod(sy.omega_dual(p, code.syndrome_basis), a, p)
    coeffs = np.zeros((2 * n, 4 * n + d), dtype=np.int64)
    coeffs[:2 * n - d, :2 * n] = -u[d:]
    coeffs[:2 * n - d, 2 * n:4 * n] = u[d:]
    coeffs[2 * n - d:, :2 * n] = -matmul_mod(code.basis_change, u[n:n + d], p)
    coeffs[2 * n - d:, 4 * n:] = np.eye(d, dtype=np.int64)
    consts = np.concatenate([np.zeros(2 * n - d, dtype=np.int64), -offset])
    rel = ar.AffineRelation.from_constraints(p, 2 * n, 2 * n + d, coeffs, consts)
    code._measure = db.GradedRelation(
        p, db.quantum_wires(n), db.quantum_wires(n) + db.classical_wires(d), rel)
    return code._measure


def code_state(code: StabilizerCode) -> db.GradedRelation:
    """The code space as a state (the image of the maximally mixed
    input): the code subspace's own stored state."""
    return db.GradedRelation(code.p, (), db.quantum_wires(code.n),
                             code.subspace.state)


def _classical_readout(measured: db.GradedRelation, n: int) -> np.ndarray:
    """The classical outcome of a measured relation into (Q^n, C^d), its
    coordinates past the inputs and the 2n quantum ones: deterministic
    exactly when the linear part is zero there.  Oracle:
    tests/oracles.py `wired_readout`."""
    got = measured.rel.shift_and_linear()
    if got is None:
        raise ValueError("measurement produced the empty relation")
    pt, lin = got
    past = measured.rel.dom + 2 * n
    if lin[:, past:].any():
        raise ValueError("syndrome outcome is not deterministic")
    return pt[past:]


def _measured(code: StabilizerCode, source: db.GradedRelation, error):
    """The error mod p, and source ; weyl(error) ; measurement as one
    composite."""
    p, n = code.p, code.n
    e = mod_p(error, p).reshape(-1)
    if e.shape[0] != 2 * n:
        raise ValueError("error vector has length %d, expected %d"
                         % (e.shape[0], 2 * n))
    return e, db.compose_all(source, db.weyl(p, e[:n], e[n:]), measurement(code))


def syndrome(code: StabilizerCode, error) -> np.ndarray:
    """Classical outcome of the measurement circuit after the Weyl error.

    Zero on the uncorrupted code state and linear in the error."""
    _, corrupted = _measured(code, code_state(code), error)
    return _classical_readout(corrupted, code.n)


def undetectable(code: StabilizerCode, error) -> bool:
    """True when the error commutes with every stabilizer.

    Computed from the syndrome circuit and cross-checked against
    membership in the linear part of the code subspace (the joint
    normalizer of the stabilizers, i.e. the omega-complement of their
    span).
    """
    p, n = code.p, code.n
    e = mod_p(error, p).reshape(-1)
    by_circuit = not syndrome(code, e).any()
    by_form = code.subspace.linear.contains(e)
    if by_circuit != by_form:
        raise AssertionError("syndrome circuit disagrees with the form")
    return by_circuit


CorrectionCheck = namedtuple("CorrectionCheck",
                             ["error", "syndrome", "ok", "reason"])


class CorrectionTable:
    """A syndrome -> error lookup with its affine structure, if any.

    entries maps syndrome tuples (length d) to correction vectors
    (length 2n).  When every entry fits a single affine map f the matrix
    and shift of f are recorded; tables used inside the one-shot
    protocol must in addition fix the zero syndrome (f(0) = 0).
    """

    __slots__ = ("p", "n", "d", "entries", "matrix", "shift")

    def __init__(self, p, n: int, d: int, entries: Dict[tuple, Sequence[int]]):
        self.p = int(p)
        self.n = int(n)
        self.d = int(d)
        self.entries = {}
        for key, value in entries.items():
            key = tuple(int(c) % self.p for c in key)
            if len(key) != self.d:
                raise ValueError("syndrome %r has length %d, expected %d"
                                 % (key, len(key), self.d))
            value = mod_p(value, self.p).reshape(-1)
            if value.shape[0] != 2 * self.n:
                raise ValueError("correction for %r has length %d, expected %d"
                                 % (key, value.shape[0], 2 * self.n))
            self.entries[key] = value
        zero = (0,) * self.d
        if zero in self.entries and self.entries[zero].any():
            raise ValueError("the zero syndrome must map to the zero error")
        self.matrix, self.shift = self._fit_affine()

    def _fit_affine(self):
        """Fit entries to e = F s + t; None, None when no fit exists.
        One RREF of the rows (s | 1 | e) solves every coordinate at once;
        it fails exactly when a pivot lands in the e block."""
        if not self.entries:
            return None, None
        keys = sorted(self.entries)
        width = self.d + 1
        aug = np.array([[*k, 1, *self.entries[k]] for k in keys], dtype=np.int64)
        red, pivots = rref_mod(aug, self.p)
        if pivots[-1] >= width:
            return None, None
        sol = np.zeros((width, 2 * self.n), dtype=np.int64)
        sol[pivots] = red[:, width:]
        return sol[:-1].T.copy(), sol[-1].copy()

    @property
    def affine(self) -> bool:
        return self.matrix is not None

    def lookup(self, syndrome_vec) -> Optional[np.ndarray]:
        key = tuple(int(c) % self.p for c in np.asarray(syndrome_vec).reshape(-1))
        return self.entries.get(key)

    def __repr__(self):
        return "CorrectionTable(p=%d, n=%d, d=%d, %d entries%s)" % (
            self.p, self.n, self.d, len(self.entries),
            ", affine" if self.affine else "")


def verify_correction(code: StabilizerCode, table: CorrectionTable,
                      errors) -> List[CorrectionCheck]:
    """Replay the protocol for each error and report pass/fail.

    Per error e: encode, apply weyl(e) and measure the syndrome, as one
    composite whose classical outcome is the syndrome d; then apply the
    tabulated correction weyl(-f(d)) and decode.  The branch passes when
    it equals the identity channel beside the classical outcome pinned
    to d.
    """
    p, n, k, d = code.p, code.n, code.k, code.d
    id_cls = db.identity_graded(p, db.classical_wires(d))
    decode = db.tensor(db.dagger(code.encoder), id_cls)
    reports = []
    for error in errors:
        e, measured = _measured(code, code.encoder, error)
        dvec = _classical_readout(measured, n)
        e_key = tuple(int(v) for v in e)
        d_key = tuple(int(v) for v in dvec)
        corr = table.lookup(dvec)
        if corr is None:
            reports.append(CorrectionCheck(e_key, d_key, False,
                                           "no table entry"))
            continue
        branch = db.compose_all(
            measured,
            db.tensor(db.weyl(p, (-corr[:n]) % p, (-corr[n:]) % p), id_cls),
            decode)
        expected = db.tensor(db.identity_relation(p, k),
                             db.classical_point(p, dvec))
        if db.equal(branch, expected):
            reports.append(CorrectionCheck(e_key, d_key, True, ""))
        else:
            reports.append(CorrectionCheck(e_key, d_key, False,
                                           "residual error after correction"))
    return reports


def affine_correction_protocol(code: StabilizerCode, table,
                               error=None) -> db.GradedRelation:
    """The one-shot protocol for an affine table, as a single relation.

    Encode, measure, copy the classical outcome, feed one copy into a
    classically controlled Weyl correction, decode.  The result maps k
    logical wires to k logical wires beside the d syndrome wires.  An
    optional error is inserted after the encoder to replay a corrupted
    channel.
    """
    if isinstance(table, CorrectionTable):
        if not table.affine:
            raise ValueError("correction table is not affine")
        if table.shift.any():
            raise ValueError("affine protocol needs f(0) = 0")
        matrix = table.matrix
    else:
        matrix = np.asarray(table, dtype=np.int64)
    p, n, k, d = code.p, code.n, code.k, code.d
    matrix = mod_p(matrix, p)
    if matrix.shape != (2 * n, d):
        raise ValueError("correction matrix must be %dx%d" % (2 * n, d))
    stages = [code.encoder]
    if error is not None:
        e = mod_p(error, p).reshape(-1)
        stages.append(db.weyl(p, e[:n], e[n:]))
    stages.append(measurement(code))
    if d == 0:
        return db.compose_all(*stages, db.dagger(code.encoder))
    copy = db.tensor_all(*[db.classical_z_spider(p, 1, 2)] * d)
    if d > 1:
        perm = [2 * i for i in range(d)] + [2 * i + 1 for i in range(d)]
        copy = db.compose(copy,
                          db.wire_permutation(p, db.classical_wires(2 * d), perm))
    spread = db.retype(db.tensor(db.identity_relation(p, n), copy),
                       cod=(db.classical_wires(d) + db.quantum_wires(n)
                            + db.classical_wires(d)))
    id_cls = db.identity_graded(p, db.classical_wires(d))
    control = db.controlled_weyl(p, (-matrix[:n]) % p, (-matrix[n:]) % p)
    return db.compose_all(*stages, spread,
                          db.tensor(control, id_cls),
                          db.tensor(db.dagger(code.encoder), id_cls))


# ---------------------------------------------------------------------------
# file formats


def _strip_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _parse_ints(text: str, no: int) -> List[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError("line %d: expected comma-separated integers, got %r"
                         % (no, text))


def _parse_row(text: str, n: int, no: int, p, allow_phase: bool = False):
    """A `z|x` row of length n each, optionally with a trailing `|phase`,
    reduced mod p as Python ints."""
    parts = [part.strip() for part in text.split("|")]
    if len(parts) == 2:
        phase = 0
    elif len(parts) == 3 and allow_phase:
        phase = _parse_ints(parts[2], no)
        if len(phase) != 1:
            raise ValueError("line %d: phase must be a single value" % no)
        phase = phase[0] % p
    else:
        raise ValueError("line %d: expected z|x%s, got %r"
                         % (no, "[|phase]" if allow_phase else "", text))
    zvec = _parse_ints(parts[0], no)
    xvec = _parse_ints(parts[1], no)
    if len(zvec) != n or len(xvec) != n:
        raise ValueError("line %d: expected %d entries per block" % (no, n))
    return [v % p for v in zvec + xvec], phase


def _parse_header(text: str, names, what: str, p):
    """The file's `name=` assignments and its other lines.

    Every name must be assigned once, a non-None `p` overrides the file's
    prime, and n >= 1 must leave room for a dense 2n-row matrix."""
    values, at = {}, {}
    rest = []
    for no, line in _strip_lines(text):
        key, sep, value = line.partition("=")
        key = key.strip()
        if sep and key in names:
            if key in values:
                raise ValueError("line %d: duplicate %s" % (no, key))
            try:
                values[key], at[key] = int(value.strip()), no
            except ValueError:
                raise ValueError("line %d: %s must be an integer" % (no, key))
        else:
            rest.append((no, line))
    if p is not None:
        values["p"] = int(p)
    for name in names:
        if name not in values:
            raise ValueError("%s file is missing %s=" % (what, name))
    n = values["n"]
    if n < 1:
        raise ValueError("%s file needs n >= 1, got n=%d" % (what, n))
    try:  # asks for address space only: no page is touched
        np.empty((2 * n, 2 * n + 1), dtype=np.int64)
    except (MemoryError, ValueError):
        raise ValueError("line %d: n=%d is too large for memory" % (at["n"], n))
    return values, rest


def parse_code_file(text: str, p=None) -> Tuple[StabilizerCode,
                                                Optional[CorrectionTable]]:
    """Parse a code file into the code and its correction table, if any.

    A non-None `p` overrides the file's declared prime."""
    values, rest = _parse_header(text, ("p", "n", "k"), "code", p)
    p, n, k = values["p"], values["n"], values["k"]
    if not 0 <= k <= n:
        raise ValueError("code file needs 0 <= k <= n, got k=%d with n=%d"
                         % (k, n))
    space = sy.SymplecticSpace(p, n)
    gen_rows: List[List[int]] = []
    phases: List[int] = []
    for no, line in rest:
        if "->" not in line:
            row, phase = _parse_row(line, n, no, p, allow_phase=True)
            gen_rows.append(row)
            phases.append(phase)
    if len(gen_rows) != n - k:
        raise ValueError("expected %d generator rows, got %d"
                         % (n - k, len(gen_rows)))
    gens = mod_p(gen_rows, p).reshape(-1, 2 * n)
    red, _ = rref_mod(gens, p)
    if red.shape[0] != gens.shape[0]:
        raise ValueError("generator rows are linearly dependent")
    # the state stabilized by the rows: omega(g_i, v) = phase_i
    state = ar.AffineRelation.from_constraints(
        p, 0, 2 * n, sy.omega_dual(p, gens), phases)
    if state.is_empty:
        raise ValueError("the generator phases are inconsistent")
    code = code_from_subspace(sy.GradedSubspace.from_state(space, state),
                              generators=gens)
    table = parse_table_file(text, p, n, n - k)
    return code, (table if table.entries else None)


def parse_code_path(path, p=None) -> Tuple[StabilizerCode,
                                           Optional[CorrectionTable]]:
    with open(path) as handle:
        return parse_code_file(handle.read(), p=p)


def parse_subspace_file(text: str, p=None) -> sy.GradedSubspace:
    """Parse a subspace file: p=, n=, optional `shift z|x`, basis rows."""
    values, rest = _parse_header(text, ("p", "n"), "subspace", p)
    p, n = values["p"], values["n"]
    space = sy.SymplecticSpace(p, n)
    shift = None
    rows: List[List[int]] = []
    for no, line in rest:
        if line.startswith("shift"):
            if shift is not None:
                raise ValueError("line %d: duplicate shift" % no)
            row, _ = _parse_row(line[len("shift"):].strip(), n, no, p)
            shift = row
        else:
            row, _ = _parse_row(line, n, no, p)
            rows.append(row)
    linear = Subspace(p, 2 * n, mod_p(rows, p).reshape(-1, 2 * n))
    return sy.GradedSubspace(space, shift, linear)


def parse_subspace_path(path, p=None) -> sy.GradedSubspace:
    with open(path) as handle:
        return parse_subspace_file(handle.read(), p=p)


def parse_table_file(text: str, p, n: int, d: int) -> CorrectionTable:
    """Parse correction entries (`syndrome -> error` lines) into a table.

    Lines without an arrow are ignored, so a code file that embeds its
    table can be passed directly.  An empty left side is the empty
    syndrome of a code with no stabilizers (d = 0).
    """
    entries: Dict[tuple, np.ndarray] = {}
    for no, line in _strip_lines(text):
        if "->" not in line:
            continue
        left, right = (part.strip() for part in line.partition("->")[::2])
        key = tuple(_parse_ints(left, no)) if left else ()
        row, _ = _parse_row(right, n, no, p)
        if key in entries:
            raise ValueError("line %d: duplicate syndrome %r" % (no, key))
        entries[key] = np.asarray(row, dtype=np.int64)
    return CorrectionTable(p, n, d, entries)


def parse_errors_file(text: str, n: int, p) -> List[np.ndarray]:
    """Parse an error list: one `z|x` row per line, reduced mod p."""
    out = []
    for no, line in _strip_lines(text):
        row, _ = _parse_row(line, n, no, p)
        out.append(np.asarray(row, dtype=np.int64))
    return out


def parse_error(text: str, n: int, p) -> np.ndarray:
    """A single `z|x` error vector, reduced mod p."""
    row, _ = _parse_row(text.strip(), n, 0, p)
    return np.asarray(row, dtype=np.int64)


def _format_vector(vec, n: int) -> str:
    vec = np.asarray(vec).reshape(-1)
    return "%s|%s" % (",".join(str(int(v)) for v in vec[:n]),
                      ",".join(str(int(v)) for v in vec[n:]))


def encoder_diagram(dil: sy.Dilation) -> dg.Diagram:
    """dil.encoder as a `layer=doubled` diagram: a |0> ancilla (x_spider
    0 -> 1) on wires 0..d-1 beside the m inputs, then U^-1 as the
    inverse gates in reverse order, each spelled out in spiders and
    scalings, then the shift."""
    p, n = int(dil.subspace.space.p), dil.subspace.space.n
    nodes: List[dg.Node] = []
    wires = []

    def node(kind, phase=(0, 0), ins=(), n_out=1):
        """A node fed by the open wire ends `ins`; its output ends."""
        ident = len(nodes)
        nodes.append(dg.Node(ident, kind, [int(v) % p for v in phase],
                             len(ins), n_out))
        wires.extend((ep, ("n", ident, "in", k)) for k, ep in enumerate(ins))
        return [("n", ident, "out", k) for k in range(n_out)]

    ends = ([node("x_spider")[0] for _ in range(dil.d)]
            + [("b", "in", j) for j in range(dil.m)])
    for gate in reversed(dil.gates):
        gate = gate.inverse()
        w = gate.wires[0]
        if gate.kind == "permute":
            ends = [ends[s] for s in gate.wires]
        elif gate.kind == "phase":
            ends[w], = node("x_spider", (0, gate.coeff), [ends[w]])
        elif gate.kind == "cadd":
            # z_k += c z_j: copy z_j, multiply it by c (`scaling` by 1/c
            # scales z against), add it into wire k
            k = gate.wires[1]
            ends[w], copied = node("x_spider", ins=[ends[w]], n_out=2)
            scaled = node("scaling", (inv_mod(gate.coeff, p), 0), [copied])
            ends[k], = node("z_spider", ins=[ends[k]] + scaled)
        else:
            # fourier is Z(0,1) ; X(0,-1) ; Z(0,1), fourier_inv its negation
            b = 1 if gate.kind == "fourier" else -1
            for kind, phase in (("z_spider", b), ("x_spider", -b),
                                ("z_spider", b)):
                ends[w], = node(kind, (0, phase), [ends[w]])
    shift = dil.subspace.shift
    for w in range(n):
        for kind, a in (("z_spider", shift[w]), ("x_spider", shift[n + w])):
            if a:
                ends[w], = node(kind, (a, 0), [ends[w]])
    wires += [(ends[w], ("b", "out", w)) for w in range(n)]
    return dg.Diagram(p, dg.LAYER_DOUBLED, nodes, wires, [None] * len(wires))


def format_dilation(dil: sy.Dilation) -> str:
    """The encoder diagram's text behind `#` lines with the sizes, matrix
    U, syndrome rows and shift: `diagram.parse` reads the whole file."""
    n = dil.subspace.space.n
    lines = ["n=%d m=%d d=%d gates=%d" % (n, dil.m, dil.d, len(dil.gates))]
    lines += ["matrix %s" % ",".join(str(int(v)) for v in row)
              for row in dil.matrix]
    lines += ["syndrome %s" % _format_vector(row, n)
              for row in dil.syndrome_basis]
    lines.append("shift %s" % _format_vector(dil.subspace.shift, n))
    return ("".join("# %s\n" % line for line in lines)
            + dg.to_text(encoder_diagram(dil)))


def is_css(stabilizers, n: int, p) -> bool:
    """True when the span S of the stabilizer rows (z | x) is spanned by
    pure-z and pure-x rows: dim(S & Z) + dim(S & X) = dim S, which is
    rank(S_z) + rank(S_x) = rank(S)."""
    rows = mod_p(stabilizers, p).reshape(-1, 2 * n)

    def rank(m):
        return rref_mod(m, p)[0].shape[0]

    return rank(rows[:, :n]) + rank(rows[:, n:]) == rank(rows)


def weight(error, n: int) -> int:
    """Number of wires an error touches."""
    e = np.asarray(error, dtype=np.int64).reshape(-1)
    return int(np.count_nonzero(e[:n] | e[n:]))
