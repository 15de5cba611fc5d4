"""Random instance builders for property tests.

These assemble test inputs with the library itself; the tests verify
the results against independent oracles or frozen expected values.
"""

import numpy as np

from stabrel import doubled as db
from stabrel import relation as ar
from stabrel import symplectic as sy
from stabrel.relation import AffineRelation


def random_relation(rng, p, n, m):
    """A random affine relation n -> m (possibly empty, possibly shifted)."""
    k = rng.randrange(0, n + m + 2)
    rows = [[rng.randrange(p) for _ in range(n + m + 1)] for _ in range(k)]
    return AffineRelation.from_rows(p, n, m, rows)


def random_isotropic(rng, p, n):
    """Grow an isotropic subspace by sampling inside the running complement."""
    space = sy.SymplecticSpace(p, n)
    target = rng.randrange(0, n + 1)
    rows = []
    cur = sy.GradedSubspace(space)
    while cur.dim < target:
        compl = sy.symp_complement(cur).linear
        for _ in range(40):
            coeffs = np.array([rng.randrange(p) for _ in range(compl.dim)],
                              dtype=np.int64)
            if not compl.dim:
                break
            v = (coeffs @ compl.basis) % p
            if not cur.linear.contains(v):
                rows.append(v)
                cur = sy.GradedSubspace.from_rows(space, rows)
                break
        else:
            break
    return cur


def random_coisotropic(rng, p, n, shifted=True):
    """Complement of a random isotropic subspace, with an optional shift."""
    iso = random_isotropic(rng, p, n)
    co = sy.symp_complement(iso)
    shift = [rng.randrange(p) for _ in range(2 * n)] if shifted else None
    return sy.GradedSubspace(co.space, shift, co.linear)


def _random_source(rng, p, pure_only):
    """A random generator relation with 0-2 wires on each side."""
    roll = rng.randrange(10 if pure_only else 14)
    if roll < 3:
        n, m = rng.randrange(3), rng.randrange(3)
        phase = (rng.randrange(p), rng.randrange(p))
        make = db.z_spider if rng.randrange(2) else db.x_spider
        return make(p, n, m, phase)
    if roll < 4:
        return db.fourier(p)
    if roll < 5:
        return db.fourier_dagger(p)
    if roll < 6:
        return db.scaling_gate(p, rng.randrange(1, p))
    if roll < 7:
        return db.weyl(p, [rng.randrange(p)], [rng.randrange(p)])
    if roll < 8:
        return db.bell_state(p)
    if roll < 9:
        return db.bell_effect(p)
    if roll < 10:
        return db.zero_state(p)
    if roll < 11:
        return db.discard(p)
    if roll < 12:
        return db.codiscard(p)
    if roll < 13:
        return db.projector_z(p)
    return db.projector_x(p)


def random_circuit(rng, p, steps=5, pure_only=True):
    """A random composite of doubled generators on all-quantum wires."""
    r = _random_source(rng, p, pure_only)
    for _ in range(steps):
        k = len(r.cod)
        if rng.randrange(3) == 0 and k + 1 <= 4:
            r = db.tensor(r, _random_source(rng, p, pure_only))
            continue
        phase = (rng.randrange(p), rng.randrange(p))
        make = db.z_spider if rng.randrange(2) else db.x_spider
        nxt = make(p, k, rng.randrange(3), phase)
        if not pure_only and k and rng.randrange(3) == 0:
            lost = db.tensor_all(db.discard(p),
                                 db.identity_relation(p, k - 1))
            r = db.compose(r, lost)
            continue
        r = db.compose(r, nxt)
    return r


def random_code(rng, p, n, d, shifted=True):
    """A random code with d stabilizer generators, dense at any p.

    Random symplectic transvections x -> x + omega(x, v) v, applied in
    Python ints, carry the standard code (stabilizers e_z1 .. e_zd) to
    a random one.  Returns the code subspace and declared generators:
    the moved stabilizers mixed by random row operations.
    """
    def form(v, w):
        return sum(v[i] * w[n + i] - v[n + i] * w[i] for i in range(n)) % p

    def unit(i):
        return [int(i == j) for j in range(2 * n)]

    linear = [unit(i) for i in range(n)] + [unit(n + j) for j in range(d, n)]
    gens = [unit(i) for i in range(d)]
    for _ in range(2 * n):
        v = [rng.randrange(p) for _ in range(2 * n)]
        linear, gens = ([[(x + form(row, v) * y) % p for x, y in zip(row, v)]
                         for row in rows] for rows in (linear, gens))
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.randrange(p)
        gens[i] = [(x + c * y) % p for x, y in zip(gens[i], gens[j])]
    shift = [rng.randrange(p) for _ in range(2 * n)] if shifted else None
    space = sy.SymplecticSpace(p, n)
    return (sy.GradedSubspace(space, shift, sy.Subspace(p, 2 * n, linear)),
            np.array(gens, dtype=np.int64).reshape(d, 2 * n))
