"""The integer solvers of ``_linalg`` against Gauss-Jordan elimination and
Fourier-Motzkin over Fraction, and the fixed-point test built on them."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adlv import _linalg
from adlv.cartan import RootSystem
from adlv.iwahori import enumerate_affine, fixes_point_of_closed_base_alcove
from adlv.notation import parse_sigma
from adlv.weyl import weyl_matrix


# -- the Fraction references -----------------------------------------------------


def _solve_by_fractions(matrix, rhs):
    """(particular, kernel basis, rank) of matrix·v = rhs by Gauss-Jordan
    elimination over Fraction, or None if there is no solution."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    aug = [[Fraction(e) for e in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivots = []
    for col in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [e / aug[r][col] for e in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [e - factor * lead for e, lead in zip(aug[i], aug[r])]
        pivots.append(col)
    rank = len(pivots)
    if any(aug[i][n_cols] != 0 for i in range(rank, n_rows)):
        return None
    particular = [Fraction(0)] * n_cols
    for k, col in enumerate(pivots):
        particular[col] = aug[k][n_cols]
    basis = []
    for f in range(n_cols):
        if f not in pivots:
            vec = [Fraction(int(f == c)) for c in range(n_cols)]
            for k, col in enumerate(pivots):
                vec[col] = -aug[k][f]
            basis.append(tuple(vec))
    return tuple(particular), tuple(basis), rank


def _feasible_by_fractions(constraints, n_vars):
    """Fourier-Motzkin over Fraction on (coeffs, const) meaning coeffs·t + const >= 0."""
    system = [(tuple(map(Fraction, coeffs)), Fraction(const)) for coeffs, const in constraints]
    for var in range(n_vars):
        lower = [c for c in system if c[0][var] > 0]
        upper = [c for c in system if c[0][var] < 0]
        system = [c for c in system if c[0][var] == 0]
        for lc, lk in lower:
            for uc, uk in upper:
                scale_l, scale_u = -uc[var], lc[var]
                system.append((tuple(scale_l * a + scale_u * b for a, b in zip(lc, uc)),
                               scale_l * lk + scale_u * uk))
    return all(const >= 0 for _, const in system)


def _fixes_point_by_fractions(x, sigma):
    """The fixed-point test over Fraction: solve x(sigma(p)) = p, then test
    <alpha_i, p> >= 0 and <theta, p> <= 1 on the solution space."""
    system, n = x.system, x.system.rank
    m = _linalg.mat_mul(weyl_matrix(x.finite), sigma.matrix())
    shifted = tuple(tuple(m[i][j] - (i == j) for j in range(n)) for i in range(n))
    solved = _solve_by_fractions(shifted, tuple(-c for c in x.translation))
    if solved is None:
        return False
    particular, basis, _ = solved
    constraints = [(tuple(b[i] for b in basis), particular[i]) for i in range(n)]
    for theta in system.highest_roots:
        constraints.append((tuple(-system.pair(theta, b) for b in basis),
                            1 - system.pair(theta, particular)))
    return _feasible_by_fractions(constraints, len(basis))


# -- the fixed-point test against the reference ------------------------------------


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("A2", "id", 6), ("G2", "id", 8), ("A3", "(1 3)", 4), ("A1+A1", "(1 2)", 6),
    ("D4", "(1 3 4)", 2), ("D4", "id", 1), ("A2+A1", "id", 3), ("E6", "id", 1),
])
def test_fixed_point_test_matches_the_fraction_route(descriptor, sigma_text, bound):
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for x in enumerate_affine(system, bound):
        expected = _fixes_point_by_fractions(x, sigma)
        assert fixes_point_of_closed_base_alcove(x, sigma) == expected, x


# -- solve_affine ------------------------------------------------------------------


def _solves(matrix, rhs, point) -> bool:
    return all(sum(a * v for a, v in zip(row, point)) == b for row, b in zip(matrix, rhs))


def test_inconsistent_system_has_no_solution():
    assert _linalg.solve_affine(((1, 1), (2, 2)), (1, 3)) is None
    assert _linalg.solve_affine(((0, 0),), (1,)) is None


def test_full_rank_system_has_one_integer_solution_over_d():
    matrix, rhs = ((2, 1, 0), (1, 3, 1), (0, 1, 4)), (1, -2, 5)
    p, d, basis = _linalg.solve_affine(matrix, rhs)
    assert d > 0 and basis == ()
    assert all(type(c) is int for c in (*p, d))
    assert all(sum(a * c for a, c in zip(row, p)) == d * b for row, b in zip(matrix, rhs))
    assert _solves(matrix, rhs, [Fraction(c, d) for c in p])


def test_kernel_basis_lies_in_the_kernel():
    matrix, rhs = ((1, 2, 3, 0), (2, 4, 6, 0), (0, 1, -1, 2)), (3, 6, 1)
    p, d, basis = _linalg.solve_affine(matrix, rhs)
    assert len(basis) == 2
    for b in basis:
        assert all(type(c) is int for c in b)
        assert _solves(matrix, (0, 0, 0), b)
    assert _solves(matrix, rhs, [Fraction(c, d) for c in p])


_ENTRY = st.integers(-3, 3)


@st.composite
def _systems(draw):
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = tuple(tuple(draw(_ENTRY) for _ in range(n_cols)) for _ in range(n_rows))
    return matrix, tuple(draw(_ENTRY) for _ in range(n_rows))


@given(_systems(), st.lists(_ENTRY, min_size=4, max_size=4))
def test_solve_affine_matches_fraction_elimination(system, weights):
    matrix, rhs = system
    solved, reference = _linalg.solve_affine(matrix, rhs), _solve_by_fractions(matrix, rhs)
    assert (solved is None) == (reference is None)
    if solved is None:
        return
    p, d, basis = solved
    n_cols = len(matrix[0])
    assert d > 0 and len(basis) == n_cols - reference[2]
    for scales in [(0,) * len(basis), weights[:len(basis)]]:
        point = [Fraction(c + sum(s * b[i] for s, b in zip(scales, basis)), d)
                 for i, c in enumerate(p)]
        assert _solves(matrix, rhs, point), scales


# -- feasible ----------------------------------------------------------------------


def test_feasible_without_variables_reads_the_constants():
    assert _linalg.feasible([(0,), (3,)], 0)
    assert not _linalg.feasible([(2,), (-1,)], 0)


def test_feasible_refuses_contradictory_bounds():
    assert not _linalg.feasible([(0, 1), (-1, -1)], 1)  # x >= 0 and x <= -1
    assert _linalg.feasible([(0, 1), (0, -1)], 1)       # x = 0


def test_feasible_finds_a_point_of_a_strip():
    # 0 <= x - y <= 1 and y >= 5: an unbounded strip
    assert _linalg.feasible([(0, 1, -1), (1, -1, 1), (-5, 0, 1)], 2)
    # 0 <= x - y <= 1 and x - y >= 2: empty
    assert not _linalg.feasible([(0, 1, -1), (1, -1, 1), (-2, 1, -1)], 2)


@given(st.integers(0, 3), st.lists(st.lists(_ENTRY, min_size=4, max_size=4), max_size=6))
def test_feasible_matches_fraction_fourier_motzkin(n_vars, rows):
    constraints = [tuple(row[:n_vars + 1]) for row in rows]
    assert _linalg.feasible(constraints, n_vars) == _feasible_by_fractions(
        [(c[1:], c[0]) for c in constraints], n_vars)

