"""Brute-force reference semantics for the test suite.

Everything but the last eight sections enumerates points with plain
Python integer arithmetic.  None of it calls the library's elimination
routines, so these functions can serve as independent oracles for them.

The last eight sections derive what `stabrel.relation`,
`stabrel.symplectic`, `stabrel.doubled` and `stabrel.qec` build in one
elimination or in closed form from a different route.  The
omega-complement L^omega is the kernel of the omega-duals of a basis of
L, where the library reads it off the state's constraint rows.  The
conjunction of relations is one kernel over every column, then the RREF
of the kept columns.  A chain of compositions or
tensors is the pairwise fold of the binary form.  The graded tensor is
the flat `relation.tensor` with its columns permuted into the merged
boundary layout.  The doubled generators
come from wiring the plain affine spiders together with
`relation.compose`/`tensor`, one feedback wire carrying the linear
phase through a scalar, and from composing the Fourier gate out of its
three-spider Euler decomposition.  The code-layer relations (encoder,
syndrome measurement, classical readout) are composed as circuits: the
dilation's symplectomorphism and its inverse around one-wire product
states, measurements and discards; the dilation's matrix is the product
of its gates' matrices.  Correction is verified per error
from the state's syndrome, then the whole five-stage branch.  The affine
fit of a correction table solves for one error coordinate at a time."""

import functools
import itertools

import numpy as np

from stabrel import doubled as db
from stabrel import qec
from stabrel import relation as ar
from stabrel import symplectic as sy
from stabrel.linalg import (Subspace, matmul_mod, mod_p, nullspace_mod,
                            solve_mod)


def vectors(p, n):
    """All vectors of F_p^n as tuples."""
    return list(itertools.product(range(p), repeat=n))


def span(p, rows, n=None):
    """The set of all linear combinations of `rows` (tuples), as a set.

    `n` fixes the ambient dimension when `rows` may be empty.
    """
    rows = [tuple(int(e) % p for e in r) for r in rows]
    if n is None:
        n = len(rows[0]) if rows else 0
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = [0] * n
        for c, r in zip(coeffs, rows):
            for i in range(n):
                v[i] = (v[i] + c * r[i]) % p
        out.add(tuple(v))
    return out


def in_span(p, rows, v):
    return tuple(int(e) % p for e in v) in span(p, rows)


def rel_points(r):
    """Decode an AffineRelation to its set of (input+output) point tuples.

    A pair (x, y) belongs to the relation iff (x, y, 1) lies in the row
    space of the homogenized representation; the row space is enumerated
    outright.
    """
    p = int(r.p)
    n, m = r.dom, r.cod
    hom = span(p, [tuple(row) for row in r.rep.basis], n + m + 1)
    pts = set()
    for v in vectors(p, n + m):
        if v + (1,) in hom:
            pts.add(v)
    return pts


def compose_points(a_pts, b_pts, n, m):
    """Set-theoretic relational composition.

    `a_pts` are (x, y) tuples with |x| = n, |y| = m; `b_pts` are (y, z)
    tuples with |y| = m.
    """
    out = set()
    for a in a_pts:
        x, y = a[:n], a[n:]
        for b in b_pts:
            if b[:m] == y:
                out.add(x + b[m:])
    return out


def tensor_points(a_pts, b_pts, n1, m1, n2, m2):
    """Set-theoretic direct sum: ((x, x'), (y, y')) pairs, flattened."""
    out = set()
    for a in a_pts:
        for b in b_pts:
            out.add(a[:n1] + b[:n2] + a[n1:n1 + m1] + b[n2:n2 + m2])
    return out


def converse_points(pts, n):
    return {t[n:] + t[:n] for t in pts}


def complement_points(pts, p, dim):
    """Orthogonal complement of a set of points under the plain dot product."""
    out = set()
    for v in vectors(p, dim):
        if all(sum(a * b for a, b in zip(v, w)) % p == 0 for w in pts):
            out.add(v)
    return out


def subset_points(a_pts, b_pts):
    return a_pts <= b_pts


@functools.lru_cache(maxsize=None)
def all_subspaces(p, n):
    """Every subspace of F_p^n, each as a frozenset of point tuples, in a
    frozenset computed once per session and shared by every caller.

    Enumerates all n-row generator matrices; fine for p=2, n=4.
    """
    vs = vectors(p, n)
    seen = set()
    for rows in itertools.product(vs, repeat=n):
        s = frozenset(span(p, rows))
        seen.add(s)
    return frozenset(seen)


def omega_product(v, w, p, n):
    """v omega w^T for the block form [[0, I], [-I, 0]] on (z | x) coords."""
    acc = 0
    for i in range(n):
        acc += v[i] * w[n + i] - v[n + i] * w[i]
    return acc % p


def symp_complement_points(pts, p, n):
    """All vectors omega-orthogonal to every point in `pts`."""
    out = set()
    for v in vectors(p, 2 * n):
        if all(omega_product(v, w, p, n) == 0 for w in pts):
            out.add(v)
    return out


def graded_rel_points(g):
    """Decode a GradedRelation to its flattened point set."""
    return rel_points(g.rel)


def python_rref(rows, ncols, p):
    """Reference RREF with Python ints: leftmost pivot, topmost row."""
    a = [[v % p for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for j in range(len(a)):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [(x - f * y) % p for x, y in zip(a[j], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


# ---------------------------------------------------------------------------
# the omega-complement, as a kernel


def _complement_subspace(space: sy.SymplecticSpace, linear: Subspace) -> Subspace:
    rows = sy.omega_dual(space.p, linear.basis)
    return Subspace(space.p, 2 * space.n, nullspace_mod(rows, space.p))


# ---------------------------------------------------------------------------
# the conjunction of relations, kernel first and projection after


def kernel_conjoin(p, width, parts, keep, dom, cod):
    """The relation dom -> cod on the `keep` coordinates of the points v of
    F_p^width with v[cols] in r for every (r, cols) in `parts`.

    One kernel of all parts' constraint rows, placed on their columns
    (a column a part lists twice adds its coefficients), then the RREF
    of the kept columns."""
    parts = [(r.constraint_rows(), list(cols)) for r, cols in parts]
    sys = np.zeros((sum(c.shape[0] for c, _ in parts), width + 1), dtype=np.int64)
    top = 0
    for c, cols in parts:
        block = sys[top:top + c.shape[0]]
        if len(set(cols)) == len(cols):
            block[:, cols] = c[:, :-1]
        else:
            for j, col in enumerate(cols):
                block[:, col] = (block[:, col] + c[:, j]) % p
        block[:, -1] = c[:, -1]
        top += c.shape[0]
    joint = nullspace_mod(sys, p)
    return ar.AffineRelation(p, dom, cod, Subspace(p, dom + cod + 1,
                                                   joint[:, [*keep, width]]))


# ---------------------------------------------------------------------------
# chains as pairwise folds


def fold(step, *rels):
    """rels[0] step rels[1] step ..., one binary `step` at a time: the
    pairwise loop `compose_all` and `tensor_all` ran in both modules."""
    out = rels[0]
    for r in rels[1:]:
        out = step(out, r)
    return out


# ---------------------------------------------------------------------------
# the graded tensor, by permuting the flat one


def _merge_sources(types_a, types_b):
    """Column sources taking concatenated (A then B) coords to the merged layout."""
    nqa = sum(1 for t in types_a if t == db.QUANTUM)
    nca = len(types_a) - nqa
    nqb = sum(1 for t in types_b if t == db.QUANTUM)
    ncb = len(types_b) - nqb
    wa = 2 * nqa + nca
    src = list(range(nqa))
    src += [wa + i for i in range(nqb)]
    src += list(range(nqa, 2 * nqa))
    src += [wa + nqb + i for i in range(nqb)]
    src += list(range(2 * nqa, wa))
    src += [wa + 2 * nqb + i for i in range(ncb)]
    return src


def permuted_tensor(r, s):
    """Side-by-side placement, re-flattened into the merged boundary layout."""
    if r.p != s.p:
        raise ValueError("field mismatch")
    flat = ar.tensor(r.rel, s.rel)
    wd = db.boundary_width(r.dom) + db.boundary_width(s.dom)
    src = _merge_sources(r.dom, s.dom)
    src += [wd + i for i in _merge_sources(r.cod, s.cod)]
    src.append(flat.rep.ambient_dim - 1)
    basis = flat.rep.basis[:, src]
    rel = ar.AffineRelation(r.p, wd, db.boundary_width(r.cod) + db.boundary_width(s.cod),
                            Subspace(r.p, len(src), basis))
    return db.GradedRelation(r.p, r.dom + s.dom, r.cod + s.cod, rel)


# ---------------------------------------------------------------------------
# the doubled generators, derived from wiring


def _trace_with_scalar(f, b):
    """Feed f's last output through scalar(b) back into its last input."""
    p = f.p
    k, l = f.dom - 1, f.cod - 1
    lhs = ar.tensor(ar.identity(p, k), ar.cup_z(p))
    mid = ar.tensor(f, ar.identity(p, 1))
    feed = ar.tensor(ar.identity(p, l),
                     ar.compose(ar.tensor(ar.scalar(p, b), ar.identity(p, 1)),
                                ar.cap_z(p)))
    return ar.compose(ar.compose(lhs, mid), feed)


def wired_z_spider(p, n, m, phase):
    """X-spider with the affine phase on the z grading, plain Z spider on
    the x grading, linear phase fed back via a scalar."""
    a, b = int(phase[0]) % p, int(phase[1]) % p
    core = ar.tensor(ar.x_spider(p, n + 1, m, a), ar.z_spider(p, n, m + 1))
    # dom is (z.., t, x..): move the feedback input last
    perm = list(range(n)) + [2 * n] + list(range(n, 2 * n))
    core = ar.compose(ar.permutation_relation(p, perm), core)
    traced = _trace_with_scalar(core, b)
    return db.GradedRelation(p, db.quantum_wires(n), db.quantum_wires(m),
                             traced)


def wired_x_spider(p, n, m, phase):
    """The colour-swapped mirror of wired_z_spider."""
    a, b = int(phase[0]) % p, int(phase[1]) % p
    core = ar.tensor(ar.z_spider(p, n, m + 1), ar.x_spider(p, n + 1, m, a))
    # cod is (z.., t, x..): move the feedback output last
    perm = list(range(m)) + list(range(m + 1, 2 * m + 1)) + [m]
    core = ar.compose(core, ar.permutation_relation(p, perm))
    traced = _trace_with_scalar(core, b)
    return db.GradedRelation(p, db.quantum_wires(n), db.quantum_wires(m),
                             traced)


def euler_fourier(p):
    """The Fourier gate as Z(0, 1) ; X(0, -1) ; Z(0, 1)."""
    return db.compose_all(wired_z_spider(p, 1, 1, (0, 1)),
                          wired_x_spider(p, 1, 1, (0, p - 1)),
                          wired_z_spider(p, 1, 1, (0, 1)))


def euler_fourier_dagger(p):
    return db.compose_all(wired_z_spider(p, 1, 1, (0, p - 1)),
                          wired_x_spider(p, 1, 1, (0, 1)),
                          wired_z_spider(p, 1, 1, (0, p - 1)))


def wired_measure_x(p):
    return db.compose(euler_fourier_dagger(p), db.measure_z(p))


def wired_prep_x(p):
    return db.compose(db.prep_z(p), euler_fourier(p))


# ---------------------------------------------------------------------------
# the code-layer relations, composed as circuits


def gates_to_matrix(space: sy.SymplecticSpace, gates) -> np.ndarray:
    """Product matrix of a gate list, first gate applied first."""
    m = np.eye(2 * space.n, dtype=np.int64)
    for g in gates:
        m = matmul_mod(g.matrix(space), m, space.p)
    return m


def wired_encoder(dil):
    """|0>^d beside the identity on m wires, then U^-1, then the shift."""
    s, inv, d, m = dil.subspace, dil.inv_matrix, dil.d, dil.m
    p, n = s.space.p, s.space.n
    parts = [db.zero_state(p)] * d + [db.identity_relation(p, m)]
    e0 = parts[0]
    for part in parts[1:]:
        e0 = db.tensor(e0, part)
    enc = db.compose(e0, db.symplectomorphism_relation(p, inv))
    return db.compose(enc, db.weyl(p, s.shift[:n], s.shift[n:]))


def _classical_map(p, mat, shift=None):
    """The graph {(c, mat c + shift)} on classical wires."""
    mat = mod_p(mat, p)
    m, k = mat.shape
    if shift is None:
        shift = np.zeros(m, dtype=np.int64)
    coeffs = np.hstack([mat, (-np.eye(m, dtype=np.int64)) % p])
    rel = ar.AffineRelation.from_constraints(p, k, m, coeffs,
                                             (-mod_p(shift, p)) % p)
    return db.lift_classical(rel)


def _nondestructive_measure(p):
    """One-wire z-basis measurement that keeps the wire: the x grading is
    copied to the classical outcome while z decoheres."""
    rel = ar.AffineRelation.from_constraints(
        p, 2, 3, [[0, 1, 0, -1, 0], [0, 1, 0, 0, -1]], [0, 0])
    return db.GradedRelation(p, db.quantum_wires(1),
                             db.quantum_wires(1) + db.classical_wires(1), rel)


def wired_measurement(code):
    """U ; (measure the first d wires, keep the rest) ; U^-1, then the
    change to the declared generators minus the uncorrupted outcome."""
    p, n, d = code.p, code.n, code.d
    if d == 0:
        return db.identity_relation(p, n)
    u_rel = db.symplectomorphism_relation(p, code.dilation.matrix)
    u_inv = db.symplectomorphism_relation(p, code.dilation.inv_matrix)
    parts = [_nondestructive_measure(p)] * d
    if code.k:
        parts.append(db.identity_relation(p, code.k))
    blocks = db.retype(db.tensor_all(*parts),
                       cod=db.quantum_wires(n) + db.classical_wires(d))
    out = db.compose_all(
        u_rel, blocks,
        db.tensor(u_inv, db.identity_graded(p, db.classical_wires(d))))
    offset = np.array([sy.omega(code.subspace.space, g, code.subspace.shift)
                       for g in code.syndrome_basis], dtype=np.int64)
    post = _classical_map(p, code.basis_change, (-offset) % p)
    return db.compose(out, db.tensor(db.identity_relation(p, n), post))


def wired_readout(p, n, d):
    """n discards beside the identity on d classical wires."""
    parts = [db.discard(p)] * n
    parts.append(db.identity_graded(p, db.classical_wires(d)))
    return db.tensor_all(*parts)


# ---------------------------------------------------------------------------
# correction, verified branch by branch from the state's syndrome


def stepwise_verify_correction(code, table, errors):
    """Per error e: the syndrome d of the corrupted code state, then
    encode, apply weyl(e), measure, apply weyl(-f(d)) and decode as one
    five-stage branch, compared with the identity beside the pinned d."""
    p, n, k, d = code.p, code.n, code.k, code.d
    id_cls = db.identity_graded(p, db.classical_wires(d))
    reports = []
    for error in errors:
        e = mod_p(error, p).reshape(-1)
        dvec = qec.syndrome(code, e)
        e_key = tuple(int(v) for v in e)
        d_key = tuple(int(v) for v in dvec)
        corr = table.lookup(dvec)
        if corr is None:
            reports.append(qec.CorrectionCheck(e_key, d_key, False,
                                               "no table entry"))
            continue
        branch = db.compose_all(
            code.encoder,
            db.weyl(p, e[:n], e[n:]),
            qec.measurement(code),
            db.tensor(db.weyl(p, (-corr[:n]) % p, (-corr[n:]) % p), id_cls),
            db.tensor(db.dagger(code.encoder), id_cls))
        expected = db.tensor(db.identity_relation(p, k),
                             db.classical_point(p, dvec))
        if db.equal(branch, expected):
            reports.append(qec.CorrectionCheck(e_key, d_key, True, ""))
        else:
            reports.append(qec.CorrectionCheck(
                e_key, d_key, False, "residual error after correction"))
    return reports


# ---------------------------------------------------------------------------
# the affine fit of a correction table, one coordinate at a time


def per_coordinate_fit(table):
    """Fit entries to e = F s + t; None, None when no fit exists."""
    if not table.entries:
        return None, None
    keys = sorted(table.entries)
    lhs = np.array([list(k) + [1] for k in keys], dtype=np.int64)
    mat = np.zeros((2 * table.n, table.d), dtype=np.int64)
    shift = np.zeros(2 * table.n, dtype=np.int64)
    for i in range(2 * table.n):
        rhs = np.array([table.entries[k][i] for k in keys], dtype=np.int64)
        sol = solve_mod(lhs, rhs, table.p)
        if sol is None:
            return None, None
        mat[i] = sol[:-1]
        shift[i] = sol[-1]
    return mat, shift
