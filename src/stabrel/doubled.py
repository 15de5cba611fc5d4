"""The doubled layer: stabilizer states and channels as graded relations.

A quantum wire carries two coordinates (z then x); a classical wire
carries one.  A GradedRelation between wire lists flattens each boundary
as: all z-coordinates of its quantum wires (left to right), then all
x-coordinates, then the classical wires.  Under this layout a channel is
an ordinary affine relation over the flattened coordinates, and circuit
composition is relational composition.

Pure maps double as the pair (companion on the z grading, original on
the x grading).  The phased spiders, the Fourier gate and its inverse,
and the x-basis measurement and preparation are built in closed form,
each from one system of constraints.  `tests/oracles.py` derives each
of them a second way, as the reference the tests compare them with:
the spiders by wiring plain affine spiders together, with a feedback
wire carrying the linear phase through a scalar, and the Fourier gate
by composing its three-spider Euler decomposition.

All computations are uniform in the prime p.  At p = 2 the phase group
used here captures the CSS fragment of qubit stabilizer theory only, so
qubit-soundness claims should be restricted accordingly; odd primes are
the intended regime.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Sequence, Tuple

import numpy as np

from .linalg import Prime, mod_p
from . import relation as ar
from .relation import AffineRelation
from .symplectic import GradedSubspace, SymplecticSpace
from . import symplectic

QUANTUM = "quantum"
CLASSICAL = "classical"

Phase = namedtuple("Phase", ["affine", "linear"])


def _as_phase(p, phase) -> Phase:
    a, b = phase
    return Phase(int(a) % p, int(b) % p)


def wire_width(t) -> int:
    if t == QUANTUM:
        return 2
    if t == CLASSICAL:
        return 1
    raise ValueError("unknown wire type %r" % (t,))


def boundary_width(types) -> int:
    return sum(wire_width(t) for t in types)


def _layout_slots(types) -> List[List[int]]:
    """Flat coordinate indices of each wire under the boundary layout."""
    nq = sum(1 for t in types if t == QUANTUM)
    slots = []
    iq = ic = 0
    for t in types:
        if t == QUANTUM:
            slots.append([iq, nq + iq])
            iq += 1
        else:
            slots.append([2 * nq + ic])
            ic += 1
    return slots


class GradedRelation:
    """An affine relation between mixed quantum/classical boundaries."""

    __slots__ = ("p", "dom", "cod", "rel")

    def __init__(self, p, dom, cod, rel: AffineRelation):
        self.p = p if isinstance(p, Prime) else Prime(p)
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        for t in self.dom + self.cod:
            wire_width(t)
        if rel.p != self.p:
            raise ValueError("field mismatch")
        if rel.dom != boundary_width(self.dom) or rel.cod != boundary_width(self.cod):
            raise ValueError("relation width does not match the boundary types")
        self.rel = rel

    @property
    def is_empty(self) -> bool:
        return self.rel.is_empty

    def all_quantum(self) -> bool:
        return all(t == QUANTUM for t in self.dom + self.cod)

    def __eq__(self, other):
        return (isinstance(other, GradedRelation)
                and self.dom == other.dom and self.cod == other.cod
                and self.rel == other.rel)

    def __hash__(self):
        return hash((self.dom, self.cod, self.rel))

    def __repr__(self):
        return "GradedRelation(p=%d, %r -> %r)" % (self.p, self.dom, self.cod)


def quantum_wires(n: int) -> Tuple[str, ...]:
    return (QUANTUM,) * n


def classical_wires(n: int) -> Tuple[str, ...]:
    return (CLASSICAL,) * n


# ---------------------------------------------------------------------------
# structure


def identity_graded(p, types) -> GradedRelation:
    types = tuple(types)
    return GradedRelation(p, types, types, ar.identity(p, boundary_width(types)))


def identity_relation(p, n: int) -> GradedRelation:
    """Identity on n quantum wires."""
    return identity_graded(p, quantum_wires(n))


def compose(r: GradedRelation, s: GradedRelation) -> GradedRelation:
    return compose_all(r, s)


def compose_all(*rels: GradedRelation) -> GradedRelation:
    """The chain r_1 ; ... ; r_k, as one elimination of its flat relations."""
    for r, s in zip(rels, rels[1:]):
        if r.cod != s.dom:
            raise ValueError("boundary mismatch: %r vs %r" % (r.cod, s.dom))
    return GradedRelation(rels[0].p, rels[0].dom, rels[-1].cod,
                          ar.compose_all(*(r.rel for r in rels)))


def _flat_cols(wire_cols) -> List[int]:
    """Columns of a boundary's flat coordinates, from each wire's columns:
    two (z then x) for a quantum wire, one for a classical wire."""
    pairs = [cols for cols in wire_cols if len(cols) == 2]
    return ([z for z, _ in pairs] + [x for _, x in pairs]
            + [cols[0] for cols in wire_cols if len(cols) == 1])


def tensor(r: GradedRelation, s: GradedRelation) -> GradedRelation:
    return tensor_all(r, s)


def tensor_all(*rels: GradedRelation) -> GradedRelation:
    """Side-by-side placement, each factor conjoined straight into the
    merged boundary layout."""
    for r, s in zip(rels, rels[1:]):
        if r.p != s.p:
            raise ValueError("field mismatch")
    dom = sum((r.dom for r in rels), ())
    cod = sum((r.cod for r in rels), ())
    wd, wc = boundary_width(dom), boundary_width(cod)
    ins = _layout_slots(dom)
    outs = [[wd + c for c in slots] for slots in _layout_slots(cod)]
    parts, i, o = [], 0, 0
    for r in rels:
        nd, nc = len(r.dom), len(r.cod)
        parts.append((r.rel, _flat_cols(ins[i:i + nd])
                      + _flat_cols(outs[o:o + nc])))
        i, o = i + nd, o + nc
    rel = ar.conjoin(rels[0].p, wd + wc, parts, range(wd + wc), wd, wc)
    return GradedRelation(rels[0].p, dom, cod, rel)


def dagger(r: GradedRelation) -> GradedRelation:
    """Relational converse with the boundaries swapped."""
    return GradedRelation(r.p, r.cod, r.dom, ar.converse(r.rel))


def conjugate(r: GradedRelation) -> GradedRelation:
    """Negate every z coordinate on both boundaries."""
    wd = boundary_width(r.dom)
    nq_dom = sum(1 for t in r.dom if t == QUANTUM)
    nq_cod = sum(1 for t in r.cod if t == QUANTUM)
    idx = list(range(nq_dom)) + [wd + i for i in range(nq_cod)]
    rel = ar.relabel(r.rel, r.rel.dom, r.rel.cod, range(wd + r.rel.cod), idx)
    return GradedRelation(r.p, r.dom, r.cod, rel)


def wire_permutation(p, types, perm) -> GradedRelation:
    """Wiring with output wire i connected to input wire perm[i]."""
    types = tuple(types)
    if sorted(perm) != list(range(len(types))):
        raise ValueError("not a permutation: %r" % (perm,))
    out_types = tuple(types[j] for j in perm)
    in_slots = _layout_slots(types)
    flat = _flat_cols([in_slots[j] for j in perm])
    return GradedRelation(p, types, out_types, ar.permutation_relation(p, flat))


def retype(r: GradedRelation, dom=None, cod=None) -> GradedRelation:
    """Reorder wires across kinds without moving coordinates.

    The flat layout depends only on the relative order of quantum wires
    and of classical wires, so any reordering that preserves both is a
    pure relabelling.
    """
    dom = r.dom if dom is None else tuple(dom)
    cod = r.cod if cod is None else tuple(cod)
    for old, new in ((r.dom, dom), (r.cod, cod)):
        if ([t for t in old if t == QUANTUM] != [t for t in new if t == QUANTUM]
                or [t for t in old if t == CLASSICAL] != [t for t in new if t == CLASSICAL]):
            raise ValueError("retype must preserve per-kind wire counts")
    return GradedRelation(r.p, dom, cod, r.rel)


# ---------------------------------------------------------------------------
# doubling


def _companion(f: AffineRelation) -> AffineRelation:
    """The z-grading wiring paired with a pure map f on the x grading.

    The orthogonal complement of f's linear part, with the input
    coordinates negated.
    """
    if f.is_empty:
        return f
    _, lin = f.shift_and_linear()
    coeffs = np.hstack([-lin[:, :f.dom] % f.p, lin[:, f.dom:]])
    return AffineRelation.from_constraints(f.p, f.dom, f.cod, coeffs,
                                           np.zeros(len(coeffs), dtype=np.int64))


def double(f: AffineRelation) -> GradedRelation:
    """Doubling of a pure map: companion on the z grading, f on the x."""
    if f.is_empty:
        return GradedRelation(f.p, quantum_wires(f.dom), quantum_wires(f.cod),
                              ar.empty(f.p, 2 * f.dom, 2 * f.cod))
    return GradedRelation(f.p, quantum_wires(f.dom), quantum_wires(f.cod),
                          ar.tensor(_companion(f), f))


# ---------------------------------------------------------------------------
# phased spiders, in closed form


def _spider(p, n: int, m: int, phase, grade: int) -> GradedRelation:
    """Doubled spider whose `grade` coordinates (0 = z, 1 = x) all equal
    one value t, while the other grade's outputs minus its inputs sum to
    a + b t.  With no legs it is the scalar: total when a + b t = 0 is
    solvable (b != 0 or a = 0), empty otherwise."""
    a, b = _as_phase(p, phase)
    dom, cod = quantum_wires(n), quantum_wires(m)
    if n + m == 0:
        rel = ar.total(p, 0, 0) if b or not a else ar.empty(p, 0, 0)
        return GradedRelation(p, dom, cod, rel)
    ins = (list(range(n)), list(range(n, 2 * n)))
    outs = (list(range(2 * n, 2 * n + m)),
            list(range(2 * n + m, 2 * (n + m))))
    equal = ins[grade] + outs[grade]
    rows = np.zeros((len(equal), 2 * (n + m)), dtype=np.int64)
    for i in range(len(equal) - 1):
        rows[i, equal[i]], rows[i, equal[i + 1]] = 1, -1
    rows[-1, ins[1 - grade]] = -1
    rows[-1, outs[1 - grade]] = 1
    rows[-1, equal[0]] = -b
    consts = np.zeros(len(equal), dtype=np.int64)
    consts[-1] = a
    rel = AffineRelation.from_constraints(p, 2 * n, 2 * m, rows, consts)
    return GradedRelation(p, dom, cod, rel)


def z_spider(p, n_in: int, n_out: int, phase=(0, 0)) -> GradedRelation:
    """Doubled Z spider: every x equals t; sum z_out - sum z_in = a + b t."""
    return _spider(p, n_in, n_out, phase, 1)


def x_spider(p, n_in: int, n_out: int, phase=(0, 0)) -> GradedRelation:
    """Doubled X spider: every z equals t; sum x_out - sum x_in = a + b t."""
    return _spider(p, n_in, n_out, phase, 0)


# ---------------------------------------------------------------------------
# gates


def scaling_gate(p, a) -> GradedRelation:
    """Multiplication by an invertible a: z scaled against, x scaled with."""
    if int(a) % p == 0:
        raise ValueError("scaling gate needs an invertible coefficient")
    rel = ar.tensor(ar.co_scalar(p, a), ar.scalar(p, a))
    return GradedRelation(p, quantum_wires(1), quantum_wires(1), rel)


def fourier(p) -> GradedRelation:
    """The Fourier gate (z, x) -> (x, -z)."""
    rel = AffineRelation.from_constraints(p, 2, 2, [[0, -1, 1, 0],
                                                    [1, 0, 0, 1]], [0, 0])
    return GradedRelation(p, quantum_wires(1), quantum_wires(1), rel)


def fourier_dagger(p) -> GradedRelation:
    """The inverse Fourier gate (z, x) -> (-x, z)."""
    rel = AffineRelation.from_constraints(p, 2, 2, [[0, 1, 1, 0],
                                                    [1, 0, 0, -1]], [0, 0])
    return GradedRelation(p, quantum_wires(1), quantum_wires(1), rel)


def weyl(p, zvec, xvec) -> GradedRelation:
    """The shift (z, x) -> (z + zvec, x + xvec)."""
    zvec = mod_p(zvec, p).reshape(-1)
    xvec = mod_p(xvec, p).reshape(-1)
    if zvec.shape[0] != xvec.shape[0]:
        raise ValueError("z and x shift lengths differ")
    n = zvec.shape[0]
    eye = np.eye(2 * n, dtype=np.int64)
    coeffs = np.hstack([-eye, eye])
    consts = np.concatenate([zvec, xvec])
    rel = AffineRelation.from_constraints(p, 2 * n, 2 * n, coeffs, consts)
    return GradedRelation(p, quantum_wires(n), quantum_wires(n), rel)


def controlled_weyl(p, zmat, xmat) -> GradedRelation:
    """Classically controlled shift: (c, q) -> q + (zmat c, xmat c).

    The k control wires come first, then the n quantum wires; the
    columns of the n-by-k matrices give the shift applied per unit of
    each control value.
    """
    zmat = mod_p(zmat, p)
    xmat = mod_p(xmat, p)
    if zmat.shape != xmat.shape:
        raise ValueError("shift matrices must have matching shape")
    n, k = zmat.shape
    w = 2 * n + k
    rows = np.zeros((2 * n, w + 2 * n), dtype=np.int64)
    for i in range(n):
        rows[i, i] = -1
        rows[i, 2 * n:w] = -zmat[i]
        rows[i, w + i] = 1
        rows[n + i, n + i] = -1
        rows[n + i, 2 * n:w] = -xmat[i]
        rows[n + i, w + n + i] = 1
    rel = AffineRelation.from_constraints(p, w, 2 * n, rows % p,
                                          np.zeros(2 * n, dtype=np.int64))
    return GradedRelation(p, classical_wires(k) + quantum_wires(n),
                          quantum_wires(n), rel)


def symplectomorphism_relation(p, mat) -> GradedRelation:
    """The graph {(v, M v)} of a linear map on (z | x) coordinates."""
    mat = mod_p(mat, p)
    w = mat.shape[0]
    if mat.shape != (w, w) or w % 2:
        raise ValueError("expected a square even-dimensional matrix")
    n = w // 2
    coeffs = np.hstack([(-mat) % p, np.eye(w, dtype=np.int64)])
    rel = AffineRelation.from_constraints(p, w, w, coeffs,
                                          np.zeros(w, dtype=np.int64))
    return GradedRelation(p, quantum_wires(n), quantum_wires(n), rel)


# ---------------------------------------------------------------------------
# states, discarding, projectors, measurement


def zero_state(p) -> GradedRelation:
    """The state with x = 0 and z free (deterministic z-basis outcome 0)."""
    rel = AffineRelation.from_constraints(p, 0, 2, [[0, 1]], [0])
    return GradedRelation(p, (), quantum_wires(1), rel)


def bell_state(p) -> GradedRelation:
    """Doubled cup: z1 + z2 = 0 and x1 = x2."""
    return double(ar.cup_z(p))


def bell_effect(p) -> GradedRelation:
    return double(ar.cap_z(p))


def total_state(p, n: int) -> GradedRelation:
    """The maximally mixed state on n quantum wires."""
    return GradedRelation(p, (), quantum_wires(n), ar.total(p, 0, 2 * n))


def discard(p) -> GradedRelation:
    return GradedRelation(p, quantum_wires(1), (), ar.total(p, 2, 0))


def codiscard(p) -> GradedRelation:
    return GradedRelation(p, (), quantum_wires(1), ar.total(p, 0, 2))


def projector_z(p) -> GradedRelation:
    """{((z, x), (z', x))}: z decohered, x preserved."""
    rel = AffineRelation.from_constraints(p, 2, 2, [[0, 1, 0, -1]], [0])
    return GradedRelation(p, quantum_wires(1), quantum_wires(1), rel)


def projector_x(p) -> GradedRelation:
    """{((z, x), (z, x'))}: x decohered, z preserved."""
    rel = AffineRelation.from_constraints(p, 2, 2, [[1, 0, -1, 0]], [0])
    return GradedRelation(p, quantum_wires(1), quantum_wires(1), rel)


def measure_z(p) -> GradedRelation:
    """Destructive z-basis measurement; the outcome is the x coordinate."""
    rel = AffineRelation.from_constraints(p, 2, 1, [[0, 1, -1]], [0])
    return GradedRelation(p, quantum_wires(1), classical_wires(1), rel)


def prep_z(p) -> GradedRelation:
    """Preparation from a classical value; the converse convention of measure_z."""
    rel = AffineRelation.from_constraints(p, 1, 2, [[1, 0, -1]], [0])
    return GradedRelation(p, classical_wires(1), quantum_wires(1), rel)


def measure_x(p) -> GradedRelation:
    """Destructive x-basis measurement; the outcome is the z coordinate."""
    rel = AffineRelation.from_constraints(p, 2, 1, [[1, 0, -1]], [0])
    return GradedRelation(p, quantum_wires(1), classical_wires(1), rel)


def prep_x(p) -> GradedRelation:
    """Preparation from a classical value; the converse convention of measure_x."""
    rel = AffineRelation.from_constraints(p, 1, 2, [[1, -1, 0]], [0])
    return GradedRelation(p, classical_wires(1), quantum_wires(1), rel)


# ---------------------------------------------------------------------------
# classical wires: plain affine relations, lifted


def lift_classical(rel: AffineRelation) -> GradedRelation:
    """An affine relation regarded as acting on classical wires."""
    return GradedRelation(rel.p, classical_wires(rel.dom),
                          classical_wires(rel.cod), rel)


def classical_z_spider(p, n_in: int, n_out: int) -> GradedRelation:
    return lift_classical(ar.z_spider(p, n_in, n_out))


def classical_x_spider(p, n_in: int, n_out: int, a=0) -> GradedRelation:
    return lift_classical(ar.x_spider(p, n_in, n_out, a))


def classical_point(p, values) -> GradedRelation:
    """The state fixing each classical wire to the given value."""
    values = mod_p(values, p).reshape(-1)
    k = values.shape[0]
    rel = AffineRelation.from_constraints(p, 0, k, np.eye(k, dtype=np.int64),
                                          values)
    return GradedRelation(p, (), classical_wires(k), rel)


# ---------------------------------------------------------------------------
# order and comparison


def coarse_grains(f: GradedRelation, g: GradedRelation) -> bool:
    """True when f is a strict restriction of g on the same boundaries."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("boundary mismatch")
    return f.rel != g.rel and ar.subset(f.rel, g.rel)


def subset(f: GradedRelation, g: GradedRelation) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("boundary mismatch")
    return ar.subset(f.rel, g.rel)


def equal(f: GradedRelation, g: GradedRelation) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("boundary mismatch")
    return f.rel == g.rel


def image_graded(r: GradedRelation) -> GradedRelation:
    return GradedRelation(r.p, (), r.cod, ar.image(r.rel))


# ---------------------------------------------------------------------------
# bending, classification, purification


def _require_all_quantum(r: GradedRelation) -> Tuple[int, int]:
    if not r.all_quantum():
        raise ValueError("operation requires all-quantum boundaries")
    return len(r.dom), len(r.cod)


def bend(r: GradedRelation) -> GradedRelation:
    """Bend every input up into an output using doubled cups.

    The bent wires come first in the resulting state, carrying the
    original inputs with the z coordinates negated.
    """
    n, m = _require_all_quantum(r)
    z_in, x_in = range(n), range(n, 2 * n)
    z_out, x_out = range(2 * n, 2 * n + m), range(2 * n + m, 2 * (n + m))
    rel = ar.relabel(r.rel, 0, 2 * (n + m), [*z_in, *z_out, *x_in, *x_out],
                     range(n))
    return GradedRelation(r.p, (), quantum_wires(n + m), rel)


def unbend(s: GradedRelation, n: int) -> GradedRelation:
    """Inverse of bend: pull the first n wires of a state back down."""
    _, total_wires = _require_all_quantum(s)
    m = total_wires - n
    nm = n + m
    z_in, z_out = range(n), range(n, nm)
    x_in, x_out = range(nm, nm + n), range(nm + n, 2 * nm)
    rel = ar.relabel(s.rel, 2 * n, 2 * m, [*z_in, *x_in, *z_out, *x_out],
                     range(n))
    return GradedRelation(s.p, quantum_wires(n), quantum_wires(m), rel)


def state_subspace(s: GradedRelation) -> GradedSubspace:
    """The graded subspace of a state on quantum wires."""
    if s.dom:
        raise ValueError("expected a state (no inputs)")
    _, n = _require_all_quantum(s)
    return GradedSubspace.from_state(SymplecticSpace(s.p, n), s.rel)


def relation_subspace(r: GradedRelation) -> GradedSubspace:
    return state_subspace(bend(r))


def classify_relation(r: GradedRelation) -> str:
    """Classification of the bent state's subspace under the form."""
    return symplectic.classify(relation_subspace(r))


def purify(r: GradedRelation) -> Tuple[GradedRelation, int]:
    """Express r as a Lagrangian map followed by discards.

    Returns (pure, k) with pure: dom -> cod + k extra wires such that
    discarding the k trailing wires of pure gives back r.
    """
    if r.is_empty:
        raise ValueError("cannot purify the empty relation")
    n, m = _require_all_quantum(r)
    gs = relation_subspace(r)
    dil = symplectic.dilation(gs)
    enc = dil.encoder          # extra -> n + m, bent wires first
    k = dil.m
    # the encoder's coordinates are (z extra, x extra, z bent, z out,
    # x bent, x out); the bent inputs' z and the extra z are negated
    nm, e = n + m, 2 * k
    cols = [*range(e, e + n), *range(e + nm, e + nm + n), *range(e + n, e + nm),
            *range(k), *range(e + nm + n, e + 2 * nm), *range(k, e)]
    rel = ar.relabel(enc.rel, 2 * n, 2 * (m + k), cols,
                     [*range(n), *range(2 * n + m, 2 * n + m + k)])
    pure = GradedRelation(r.p, quantum_wires(n), quantum_wires(m + k), rel)
    return pure, k
