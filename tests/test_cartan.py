"""Root-system core: generation, pairings, lattices, subsets, the sandwich."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adlv import _linalg
from adlv.audit import sandwich_positivizer
from adlv.cartan import (
    RootSystem,
    classical_positive_count,
    subset_predicates,
)
from adlv.errors import NotationError
from adlv.weyl import FiniteWeylElement, enumerate_w0, longest_element, reduced_word, support


def reflection_closure_oracle(system):
    """Independent generation of the roots: close the simple roots under all
    simple reflections (a different algorithm than the root-string closure)."""
    simples = [tuple(1 if j == i else 0 for j in range(system.rank))
               for i in range(system.rank)]
    roots = set(simples)
    changed = True
    while changed:
        changed = False
        for beta in list(roots):
            for i in range(system.rank):
                pairing = sum(system.cartan_matrix[i][j] * beta[j]
                              for j in range(system.rank))
                image = tuple(
                    beta[j] - (pairing if j == i else 0) for j in range(system.rank))
                if image not in roots:
                    roots.add(image)
                    changed = True
    return {r for r in roots if sum(r) > 0}


def test_a2_positive_roots_explicit(a2):
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_a1_single_root(a1):
    assert a1.positive_roots == ((1,),)


@pytest.mark.parametrize("descriptor", ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_generation_matches_reflection_oracle(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    assert set(system.positive_roots) == reflection_closure_oracle(system)


def test_g2_has_six_positive_roots(g2):
    assert len(g2.positive_roots) == 6
    assert set(g2.positive_roots) == reflection_closure_oracle(g2)


@pytest.mark.parametrize("descriptor,count", [
    ("A5", 15), ("B4", 16), ("C4", 16), ("D5", 20), ("F4", 24), ("E6", 36),
])
def test_classical_cardinalities(descriptor, count):
    system = RootSystem.from_descriptor(descriptor)
    assert len(system.positive_roots) == count
    comp = system.components[0]
    assert classical_positive_count(comp.type_label, comp.rank) == count


@pytest.mark.parametrize("bad", ["D2", "H3", "E9", "E5", "F3", "G3", "A0", "B1"])
def test_invalid_types_rejected(bad):
    with pytest.raises(NotationError):
        RootSystem.from_descriptor(bad)


def test_direct_sum_layout():
    system = RootSystem.from_descriptor("A2+A2")
    assert system.rank == 4
    assert len(system.positive_roots) == 6
    assert len(system.highest_roots) == 2
    assert system.cartan_matrix[0][2] == 0


def test_cartan_matrix_shape_invariants():
    for descriptor in ["A2", "B3", "C3", "D4", "E6", "F4", "G2", "A2+B2"]:
        system = RootSystem.from_descriptor(descriptor)
        for i in range(system.rank):
            assert system.cartan_matrix[i][i] == 2
            for j in range(system.rank):
                if i != j:
                    assert system.cartan_matrix[i][j] <= 0


def test_pair_dual_basis(a2):
    alpha1, alpha2 = (1, 0), (0, 1)
    pi1 = (1, 0)  # fundamental coweight coordinates
    assert a2.pair(alpha1, pi1) == 1
    assert a2.pair(alpha2, pi1) == 0
    assert a2.pair((1, 1), pi1) == 1  # linearity on alpha1+alpha2
    theta = a2.highest_roots[0]
    assert a2.pair(theta, (1, 1)) == 2


def test_pair_dimension_mismatch(a2):
    with pytest.raises(ValueError):
        a2.pair((1, 0, 0), (1, 0))


def test_coroot_coordinates_frozen_values(a2):
    assert a2.coroot_coordinates((1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    # alpha_1^v: its coweight coordinates are the first Cartan row
    assert a2.coroot_coordinates(a2.cartan_matrix[0]) == (1, 0)
    assert a2.coroot_coordinates((0, 0)) == (0, 0)


@pytest.mark.parametrize("descriptor", ["A2", "B2", "G2", "A3"])
def test_coroot_coordinates_reconstruct(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    mu = tuple(range(1, system.rank + 1))
    coords = system.coroot_coordinates(mu)
    rebuilt = [Fraction(0)] * system.rank
    for i, c in enumerate(coords):
        for j in range(system.rank):
            rebuilt[j] += c * system.cartan_matrix[i][j]
    assert tuple(rebuilt) == tuple(Fraction(c) for c in mu)


def test_lattice_membership(a2):
    assert a2.in_coweight_lattice((1, 0))
    assert a2.coroot_coordinates((1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    assert a2.coroot_coordinates((2, -1)) == (1, 0)  # alpha_1^v
    assert a2.coroot_coordinates((1, 1)) == (1, 1)   # alpha_1^v + alpha_2^v


def test_coroot_of_matches_cartan_rows(b2):
    for i in range(b2.rank):
        alpha = tuple(1 if j == i else 0 for j in range(b2.rank))
        assert b2.coroot_of(alpha) == tuple(Fraction(c) for c in b2.cartan_matrix[i])


_INTEGER_TABLE_SYSTEMS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A2+A1", "A2+A2"]
)


def coroot_by_descent(system, root):
    """Reference coroot: reflect root down to a simple root alpha_i by simple
    reflections that lower its height, so root = w(alpha_i) and root^v =
    w(alpha_i^v), whose fundamental-coweight coordinates are cartan row i."""
    w = FiniteWeylElement.identity(system)
    while sum(root) > 1:
        i = next(i for i in range(system.rank)
                 if sum(system.cartan_matrix[i][j] * root[j] for j in range(system.rank)) > 0)
        s_i = FiniteWeylElement.simple(system, i)
        root, w = s_i.act_on_root(root), w * s_i
    return w.act_on_coweight(system.cartan_matrix[root.index(1)])


@pytest.mark.parametrize("descriptor", _INTEGER_TABLE_SYSTEMS)
def test_integer_inverse_and_coroots_match_references(descriptor):
    """The fraction-free inverse Cartan matrix equals Gauss-Jordan over
    Fraction; every positive coroot, theta^v included, comes out in ints and
    equals w(alpha_i^v) for root = w(alpha_i)."""
    system = RootSystem.from_descriptor(descriptor)
    assert system.inverse_cartan == _linalg.invert(system.cartan_matrix)
    assert all(type(c) is Fraction for row in system.inverse_cartan for c in row)
    for root in system.positive_roots:
        coroot = system.coroot_of(root)
        assert all(type(c) is int for c in coroot)
        assert coroot == coroot_by_descent(system, root), root


@pytest.mark.parametrize("descriptor", _INTEGER_TABLE_SYSTEMS)
def test_coroot_coordinates_match_the_inverse_cartan_product(descriptor):
    """Coroot coordinates from the integer inverse rows equal the product with
    the Fraction inverse Cartan matrix, as Fractions, for int and Fraction
    coweights alike."""
    system = RootSystem.from_descriptor(descriptor)
    n, inverse = system.rank, system.inverse_cartan
    integral = ([tuple(int(j == i) for j in range(n)) for i in range(n)]
                + list(system.cartan_matrix) + [tuple(j % 5 - 2 for j in range(n))])
    rational = [tuple(Fraction(c, 3) for c in mu) for mu in integral]
    for mu in integral + [tuple(map(Fraction, mu)) for mu in integral] + rational:
        expected = tuple(sum((inverse[j][i] * mu[j] for j in range(n)), Fraction(0))
                         for i in range(n))
        coords = system.coroot_coordinates(mu)
        assert coords == expected, mu
        assert all(type(c) is Fraction for c in coords)


@pytest.mark.parametrize("descriptor", _INTEGER_TABLE_SYSTEMS)
def test_coroot_numerators_over_the_determinant_are_the_coordinates(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    n, det = system.rank, system.determinant
    for mu in [tuple(int(j == i) for j in range(n)) for i in range(n)] + [
            tuple(j % 5 - 2 for j in range(n)), tuple(3 - j for j in range(n))]:
        numerators = system.coroot_numerators(mu)
        assert all(type(c) is int for c in numerators)
        assert tuple(Fraction(c, det) for c in numerators) == system.coroot_coordinates(mu)


def test_integer_inverse_refuses_singular():
    with pytest.raises(ValueError):
        _linalg.integer_inverse(((2, -1), (-4, 2)))


def test_subset_predicates_examples(a2):
    positives = set(a2.positive_roots)
    props = subset_predicates(a2, positives)
    assert props.closed and props.radical and props.parabolic
    props = subset_predicates(a2, {(1, 0)})
    assert props.closed and props.radical and not props.parabolic
    props = subset_predicates(a2, {(1, 0), (0, 1)})
    assert not props.closed


def test_subset_predicates_rejects_nonroot(a2):
    with pytest.raises(ValueError):
        subset_predicates(a2, {(2, 0)})


def test_sandwich_trivial_cases(a2):
    identity = FiniteWeylElement.identity(a2)
    assert sandwich_positivizer(a2, frozenset(), set(a2.positive_roots)) == identity
    theta = a2.highest_roots[0]
    negatives = {a2.negate(r) for r in a2.positive_roots}
    w = sandwich_positivizer(a2, {a2.negate(theta)}, negatives)
    assert w == longest_element(a2)


def test_sandwich_random_pair_a3(a3):
    # a radical closed set inside a parabolic closed one, checked post-hoc
    w0 = longest_element(a3)
    psi_p = {w0.act_on_root(a) for a in a3.all_roots if sum(a) > 0 or
             all(a[i] == 0 for i in (1, 2))}
    props = subset_predicates(a3, psi_p)
    assert props.parabolic and props.closed
    psi_r = {w0.act_on_root(a) for a in a3.positive_roots if a[0] == 0}
    psi_r &= psi_p
    w = sandwich_positivizer(a3, psi_r, psi_p)
    positive = set(a3.positive_roots)
    assert {w.act_on_root(a) for a in psi_r} <= positive
    assert positive <= {w.act_on_root(a) for a in psi_p}


def test_sandwich_precondition_errors(a2):
    positives = set(a2.positive_roots)
    with pytest.raises(ValueError):
        sandwich_positivizer(a2, {(1, 0), (-1, 0)}, positives)  # not radical
    with pytest.raises(ValueError):
        sandwich_positivizer(a2, {(1, 0)}, positives - {(1, 1)})  # not parabolic
    with pytest.raises(ValueError):
        sandwich_positivizer(a2, {(-1, 0)}, positives)  # not contained


@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 23))
def test_radical_closed_positivizable_a3(a3, mask, w_index):
    """Any Weyl image of a sum-closed set of positives sits inside some wPhi+."""
    base = [a for i, a in enumerate(a3.positive_roots) if mask >> i & 1]
    closed = set(base)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                s = tuple(x + y for x, y in zip(a, b))
                if s in a3._root_set and s not in closed:
                    closed.add(s)
                    changed = True
    w = list(enumerate_w0(a3))[w_index]
    psi = {w.act_on_root(a) for a in closed}
    props = subset_predicates(a3, psi)
    assert props.radical and props.closed
    positive = set(a3.positive_roots)
    assert any(
        all(u.act_on_root(a) in positive for a in psi) for u in enumerate_w0(a3)
    )


def test_base_alcove_barycenter(a2, b2):
    assert a2.base_alcove_barycenter() == (Fraction(1, 3), Fraction(1, 3))
    bary = b2.base_alcove_barycenter()
    theta = b2.highest_roots[0]
    assert 0 < b2.pair(theta, bary) < 1
    for i in range(2):
        assert bary[i] > 0


@pytest.mark.parametrize("descriptor", ["A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6",
                                        "A2+B2"])
def test_base_alcove_barycenter_averages_the_vertices(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    expected = [Fraction(0)] * system.rank
    for comp, vertices in zip(system.components, system.base_alcove_vertices()):
        for i in comp.indices:
            expected[i] = sum((v[i] for v in vertices), Fraction(0)) / len(vertices)
    assert system.base_alcove_barycenter() == tuple(expected)


# -- the integer coweight kernel against the Fraction formulas ---------------------

_KERNEL_SYSTEMS = {d: RootSystem.from_descriptor(d) for d in ("A2", "B2", "G2", "A3", "D4")}
_integral = st.integers(-9, 9)
_rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _fraction_pair(root, mu):
    return sum((Fraction(a) * Fraction(m) for a, m in zip(root, mu)), Fraction(0))


def _fraction_action(system, w, mu):
    """w·mu letter by letter, s_i·mu = mu - mu_i alpha_i^v, in Fractions."""
    coords = [Fraction(c) for c in mu]
    for i in reversed(reduced_word(w)):
        ci = coords[i]
        coords = [c - ci * a for c, a in zip(coords, system.cartan_matrix[i])]
    return tuple(coords)


@given(st.sampled_from(sorted(_KERNEL_SYSTEMS)), st.data(), st.booleans())
def test_kernel_matches_fraction_formulas(descriptor, data, integral):
    """pair and act_on_coweight give the Fraction formulas' values;
    on integer input they stay integers."""
    system = _KERNEL_SYSTEMS[descriptor]
    coords = _integral if integral else st.one_of(_integral, _rational)
    mu = tuple(data.draw(st.lists(coords, min_size=system.rank, max_size=system.rank)))
    root = data.draw(st.sampled_from(system.all_roots))
    w = data.draw(st.sampled_from(list(enumerate_w0(system))))
    results = [
        (system.pair(root, mu), _fraction_pair(root, mu)),
        *zip(w.act_on_coweight(mu), _fraction_action(system, w, mu)),
    ]
    for got, expected in results:
        assert got == expected
        if integral:
            assert type(got) is int
