"""Small exact linear algebra: products, inverses, affine solves, feasibility.

Everything here works on tuples of tuples and stays exact.  Products of
integer matrices stay in integers, and so do the solvers: ``integer_inverse``
gives the inverse as integer rows over one determinant, ``solve_affine`` the
solutions as integer vectors over one denominator, and ``feasible`` runs
Fourier-Motzkin on integer constraints.  ``invert`` is the one solver left
over Fraction: it is the Gauss-Jordan reference for ``integer_inverse``.
Sizes are tiny (matrices up to the root-system rank), so plain elimination
is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_mul(a, b) -> Matrix:
    """Exact product; integer inputs give integer entries."""
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def invert(matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(matrix)
    aug = [[Fraction(entry) for entry in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [entry * inv_p for entry in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [entry - factor * lead for entry, lead in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def integer_inverse(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, d) with the inverse of an integer matrix equal to rows / d, by
    fraction-free (Bareiss) Gauss-Jordan elimination: each division is exact,
    so the rows stay integers, and the last pivot d is the determinant up to
    sign.  Raises ValueError if singular."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col]
        p = lead[col]
        for r in range(n):
            if r != col:
                factor = aug[r][col]
                aug[r] = [(p * entry - factor * top) // previous
                          for entry, top in zip(aug[r], lead)]
        previous = p
    return tuple(tuple(row[n:]) for row in aug), previous


def _primitive(row) -> tuple[int, ...]:
    """An integer row divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return tuple(entry // g for entry in row) if g > 1 else tuple(row)


def solve_affine(matrix, rhs) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]] | None:
    """Solve matrix·v = rhs over the rationals for an integer system; return
    (p, d, basis) with integers and d > 0, the solutions being exactly
    v = (p + span(basis)) / d, or None if there are none.

    Gauss-Jordan elimination without fractions: each row update is an integer
    combination of two rows, divided by the gcd of its entries.
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    aug = [_primitive((*row, rhs[i])) for i, row in enumerate(matrix)]
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        lead = aug[r]
        p = lead[col]
        for i in range(n_rows):
            factor = aug[i][col]
            if i != r and factor:
                aug[i] = _primitive([p * entry - factor * top for entry, top in zip(aug[i], lead)])
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    if any(aug[i][n_cols] for i in range(r, n_rows)):
        return None
    # row k reads aug[k][pivots[k]] * v[pivots[k]] + (free terms) = aug[k][n_cols]
    d = lcm(*(abs(aug[k][col]) for k, col in enumerate(pivots)))
    scales = [d // aug[k][col] for k, col in enumerate(pivots)]
    particular = [0] * n_cols
    for k, col in enumerate(pivots):
        particular[col] = aug[k][n_cols] * scales[k]
    basis = []
    for f in range(n_cols):
        if f not in pivots:
            vec = [0] * n_cols
            vec[f] = d
            for k, col in enumerate(pivots):
                vec[col] = -aug[k][f] * scales[k]
            basis.append(_primitive(vec))
    g = gcd(d, *particular)
    return tuple(c // g for c in particular), d // g, tuple(basis)


def fixed_space_dimension(matrix) -> int:
    """dim ker(matrix - I), exact: n minus the rank found by fraction-free
    elimination, so integer matrices stay in integers."""
    n = len(matrix)
    rows = [[entry - (i == j) for j, entry in enumerate(row)] for i, row in enumerate(matrix)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(rank + 1, n):
            factor = rows[r][col]
            if factor:
                rows[r] = [lead[col] * entry - factor * top for entry, top in zip(rows[r], lead)]
        rank += 1
    return n - rank


def feasible(constraints, n_vars: int) -> bool:
    """Fourier-Motzkin feasibility over the rationals of {t : c[0] + c[1:]·t >= 0
    for each constraint c}, constraints being integer tuples of length
    n_vars + 1.  Each pair of a lower and an upper bound on a variable is
    combined with positive integer multipliers, and kept primitive."""
    system = {_primitive(c) for c in constraints}
    for var in range(1, n_vars + 1):
        lower = [c for c in system if c[var] > 0]
        upper = [c for c in system if c[var] < 0]
        system = {c for c in system if not c[var]}
        system.update(_primitive([-u[var] * a + l[var] * b for a, b in zip(l, u)])
                      for l in lower for u in upper)
    return all(c[0] >= 0 for c in system)
