"""Reference arithmetic over F_p in plain Python ints.

The benchmark checks the engine's answers with these functions; they
share no code with the engine and cannot overflow.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def rref(rows: Sequence[Sequence[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form (nonzero rows only) and pivot columns."""
    a = [[int(v) % p for v in row] for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for j in range(len(a)):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [(u - f * v) % p for u, v in zip(a[j], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> List[List[int]]:
    """Basis of {v : rows . v = 0}."""
    red, pivots = rref(rows, p)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [0] * ncols
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][c]) % p
        basis.append(v)
    return basis


def same_span(a, b, p: int) -> bool:
    return rref(a, p)[0] == rref(b, p)[0]


def omega(v, w, p: int) -> int:
    """The symplectic form sum_i v_zi w_xi - v_xi w_zi on (z | x) rows."""
    n = len(v) // 2
    return sum(v[i] * w[n + i] - v[n + i] * w[i] for i in range(n)) % p
