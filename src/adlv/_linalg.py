"""Small exact linear algebra: products, inverses, affine solves, feasibility.

Everything here works on tuples of tuples with int/Fraction entries and stays
exact: products of integer matrices stay in integers, as does the elimination
of ``integer_inverse``, which gives the inverse as integer rows over one
determinant; the other solvers work over Fraction.  Sizes are tiny (matrices
up to the root-system rank), so plain Gaussian elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def _to_rows(matrix) -> list[list[Fraction]]:
    return [[Fraction(entry) for entry in row] for row in matrix]


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
    rows = _to_rows(matrix)
    aug = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
           for i in range(n)]
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


def solve_affine(matrix, rhs) -> tuple[Vector, tuple[Vector, ...]] | None:
    """Solve matrix·v = rhs; return (particular solution, kernel basis) or None.

    The kernel basis spans the full solution set v = particular + span(basis).
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    aug = [list(row) + [Fraction(rhs[i])] for i, row in enumerate(_to_rows(matrix))]
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv_p = 1 / aug[r][col]
        aug[r] = [entry * inv_p for entry in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [entry - factor * lead for entry, lead in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols] != 0:
            return None
    particular = [Fraction(0)] * n_cols
    for row_idx, col in enumerate(pivots):
        particular[col] = aug[row_idx][n_cols]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for row_idx, col in enumerate(pivots):
            vec[col] = -aug[row_idx][f]
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)


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


def feasible(constraints: list[tuple[Vector, Fraction]], n_vars: int) -> bool:
    """Fourier-Motzkin feasibility of {t : coeffs·t + const >= 0 for each constraint}."""
    system = [(tuple(Fraction(c) for c in coeffs), Fraction(const))
              for coeffs, const in constraints]
    for var in range(n_vars):
        lower, upper, rest = [], [], []
        for coeffs, const in system:
            c = coeffs[var]
            if c > 0:
                lower.append((coeffs, const))
            elif c < 0:
                upper.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new_system = rest
        for lc, lk in lower:
            for uc, uk in upper:
                # eliminate var between lc·t + lk >= 0  (t_var >= ...) and uc·t + uk >= 0
                scale_l, scale_u = -uc[var], lc[var]
                coeffs = tuple(scale_l * a + scale_u * b for a, b in zip(lc, uc))
                new_system.append((coeffs, scale_l * lk + scale_u * uk))
        system = new_system
    return all(const >= 0 for _, const in system)
