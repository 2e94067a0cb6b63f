"""Extended affine group: group law, length, class map, Newton map, supports."""

import math
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest

from adlv import _linalg, audit
from adlv.cartan import RootSystem
from adlv.iwahori import (
    AffineElement,
    _class_map,
    _coinvariant_classes,
    _im_length,
    KottwitzClass,
    affine_sigma_support,
    affine_simples,
    apply_sigma_affine,
    enumerate_affine,
    fixes_point_of_closed_base_alcove,
    kottwitz,
    kottwitz_group,
    make_dominant,
    minuscule_omegas,
    newton,
    omega_component,
    omega_elements,
    omega_of_kottwitz,
    twisted_affine_action,
)
from adlv.errors import CapExceeded
from adlv.notation import parse_affine, parse_sigma
from adlv.weyl import DiagramAutomorphism, FiniteWeylElement, enumerate_w0


def sid(system):
    return DiagramAutomorphism.identity(system)


def test_translation_multiplication(a2):
    t1 = AffineElement.from_translation(a2, (1, 0))
    t2 = AffineElement.from_translation(a2, (0, 2))
    assert t1 * t2 == AffineElement.from_translation(a2, (1, 2))
    assert t1 * t2 == t2 * t1


def test_semidirect_inverse(a2):
    for x in enumerate_affine(a2, 4):
        assert (x * x.inverse()).is_identity()
        assert (x.inverse() * x).is_identity()
        w_inv = x.finite.inverse()
        expected = tuple(-c for c in w_inv.act_on_coweight(x.translation))
        assert x.inverse().translation == expected


@pytest.mark.parametrize("descriptor,bound", [("A2", 3), ("G2", 3), ("B3", 2), ("A2+A1", 2)])
def test_flat_group_law_matches_the_coweight_action(descriptor, bound):
    """(t^a u)(t^b v) = t^{a + u.b} uv and (t^a u)^{-1} = t^{-u^{-1}.a} u^{-1},
    with u.b from ``act_on_coweight``."""
    system = RootSystem.from_descriptor(descriptor)
    sample = list(enumerate_affine(system, bound))
    for x in sample:
        u = x.finite
        inverse = x.inverse()
        assert inverse.translation == tuple(-c for c in u.inverse().act_on_coweight(x.translation))
        assert inverse.finite == u.inverse()
        for y in sample:
            product = x * y
            assert product.translation == tuple(
                a + b for a, b in zip(x.translation, u.act_on_coweight(y.translation)))
            assert product.finite == u * y.finite


def test_apply_sigma_identity(a2):
    sigma = sid(a2)
    for x in enumerate_affine(a2, 3):
        assert apply_sigma_affine(sigma, x) == x


def test_apply_sigma_is_automorphism(a3, a3_flip):
    sample = list(enumerate_affine(a3, 3))
    for x in sample[:12]:
        for y in sample[:12]:
            assert apply_sigma_affine(a3_flip, x * y) == \
                apply_sigma_affine(a3_flip, x) * apply_sigma_affine(a3_flip, y)


def test_length_examples(a1):
    assert AffineElement.identity(a1).length == 0
    assert AffineElement.from_translation(a1, (2,)).length == 2  # t^{alpha^v}
    omega = parse_affine(a1, "t[1] s1")
    assert omega.length == 0  # the nontrivial base-alcove stabilizer
    assert audit.separating_hyperplane_count(omega) == 0
    assert audit.separating_hyperplane_count(
        AffineElement.from_translation(a1, (2,))) == 2


@pytest.mark.parametrize("descriptor,bound", [("A1", 10), ("A2", 10), ("B2", 10)])
def test_length_equals_hyperplane_count(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    result = audit.check_length_hyperplane_oracle(system, bound)
    assert result.passed, result.counterexample


def test_kottwitz_examples(a2):
    alpha1_coroot = a2.cartan_matrix[0]
    assert kottwitz(AffineElement.from_translation(a2, alpha1_coroot)).is_zero()
    for w in enumerate_w0(a2):
        assert kottwitz(AffineElement.from_finite(w)).is_zero()
    generator = kottwitz(AffineElement.from_translation(a2, (1, 0)))
    assert not generator.is_zero()
    assert not (generator + generator).is_zero()
    assert (generator + generator + generator).is_zero()  # order three
    assert len(kottwitz_group(a2)) == 3


def test_kottwitz_homomorphism_battery(a2):
    # exhaustive over all pairs up to length six
    result = audit.check_kottwitz_homomorphism(a2, 6, pair_cap=150 ** 2)
    assert result.passed, result.counterexample


def test_newton_examples(a2, a1):
    sigma = sid(a2)
    point = newton(AffineElement.from_translation(a2, (2, 1)), sigma)
    assert point.vector == (2, 1)
    for w in enumerate_w0(a2):
        assert newton(AffineElement.from_finite(w), sigma).is_central()
    omega = parse_affine(a1, "t[1] s1")
    assert newton(omega, sid(a1)).is_central()


def test_newton_dominant_representative(a2):
    sigma = sid(a2)
    point = newton(AffineElement.from_translation(a2, (-1, -1)), sigma)
    assert point.vector == (-1, -1)
    assert point.dominant == (1, 1)


@pytest.mark.parametrize("descriptor,sigma_perm", [("A2", None), ("A3", (2, 1, 0))])
def test_newton_stability_battery(descriptor, sigma_perm):
    system = RootSystem.from_descriptor(descriptor)
    sigma = sid(system) if sigma_perm is None else DiagramAutomorphism(system, sigma_perm)
    result = audit.check_newton_stability(system, sigma, 3)
    assert result.passed, result.counterexample


def test_omega_group_matches_class_group(a2, b2, g2):
    for system in (a2, b2, g2):
        omegas = omega_elements(system)
        assert len(omegas) == len(kottwitz_group(system))
        assert all(o.length == 0 for o in omegas)
        assert len({kottwitz(o).rep for o in omegas}) == len(omegas)


def test_omega_component_decomposition(a2):
    for x in enumerate_affine(a2, 5):
        x_a, omega = omega_component(x)
        assert x_a * omega == x
        assert kottwitz(x_a).is_zero()
        assert omega.length == 0


def test_affine_simples(a2, a1):
    simples = affine_simples(a2)
    assert [s.label for s in simples] == ["s1", "s2", "S0"]
    assert all(s.element.length == 1 for s in simples)
    theta = a2.highest_roots[0]
    s0 = simples[-1].element
    assert s0.translation == tuple(int(c) for c in a2.coroot_of(theta))


def test_affine_support_examples(a1, a2):
    sigma1 = sid(a1)
    supp = affine_sigma_support(AffineElement.identity(a1), sigma1)
    assert supp.letters == frozenset() and not supp.full
    for omega in omega_elements(a2):
        supp = affine_sigma_support(omega, sid(a2))
        assert supp.letters == frozenset() and not supp.full
    x = parse_affine(a1, "S0 s1")  # both letters of the unique reduced word
    supp = affine_sigma_support(x, sigma1)
    assert supp.full and supp.letters == {0, 1}


def test_affine_support_omega_twist(a1):
    # conjugating by the nontrivial stabilizer element swaps the two affine nodes
    sigma1 = sid(a1)
    x = parse_affine(a1, "t[1] s1 S0")  # omega * S0: support {S0} closed under Ad(omega)
    supp = affine_sigma_support(x, sigma1)
    assert supp.full


@pytest.mark.parametrize("descriptor,sigma_perm,bound", [
    ("A2", None, 8), ("A3", (2, 1, 0), 5),
])
def test_shortcut_precondition_central(descriptor, sigma_perm, bound):
    system = RootSystem.from_descriptor(descriptor)
    sigma = sid(system) if sigma_perm is None else DiagramAutomorphism(system, sigma_perm)
    result = audit.check_shortcut_precondition_central(system, sigma, bound)
    assert result.passed, result.counterexample


@pytest.mark.parametrize("descriptor,sigma_perm,bound", [
    ("A1", None, 6), ("A2", None, 5), ("A3", (2, 1, 0), 4),
])
def test_affine_support_equals_fixed_point_test(descriptor, sigma_perm, bound):
    system = RootSystem.from_descriptor(descriptor)
    sigma = sid(system) if sigma_perm is None else DiagramAutomorphism(system, sigma_perm)
    result = audit.check_affine_support_fixed_point(system, sigma, bound)
    assert result.passed, result.counterexample


def test_fixed_point_identity_and_translation(a2):
    sigma = sid(a2)
    assert fixes_point_of_closed_base_alcove(AffineElement.identity(a2), sigma)
    assert not fixes_point_of_closed_base_alcove(
        AffineElement.from_translation(a2, (1, 1)), sigma)


@pytest.mark.parametrize("descriptor,sigma_perm", [("A2", None), ("A3", (2, 1, 0))])
def test_parabolic_newton_difference_battery(descriptor, sigma_perm):
    system = RootSystem.from_descriptor(descriptor)
    sigma = sid(system) if sigma_perm is None else DiagramAutomorphism(system, sigma_perm)
    result = audit.check_parabolic_newton_difference(system, sigma, 4)
    assert result.passed, result.counterexample


def test_coinvariants_twisted(a3, a3_flip):
    # the class group is Z/4; the flip negates it, so coinvariants have order 2
    generator = KottwitzClass.from_translation(a3, (1, 0, 0))
    reps = {generator.coinvariant(a3_flip)}
    current = generator
    for _ in range(3):
        current = current + generator
        reps.add(current.coinvariant(a3_flip))
    assert len(kottwitz_group(a3)) == 4
    assert len(reps) == 2


def test_enumerate_affine_order_and_count(a2):
    elements = list(enumerate_affine(a2, 4))
    lengths = [x.length for x in elements]
    assert lengths == sorted(lengths)
    assert len(set(elements)) == len(elements)
    assert sum(1 for x in elements if x.length == 0) == 3  # the stabilizer


# -- closed forms against the searches they replaced ----------------------------------

SUPPORT_RANGES = [
    ("A2", "id", 10), ("B2", "id", 10), ("G2", "id", 10),
    ("A3", "id", 7), ("A3", "(1 3)", 7), ("A1+A2", "id", 6),
    ("A2+A2", "(1 3)(2 4)", 5), ("B3", "id", 6), ("C3", "id", 6),
    ("D4", "id", 5), ("D4", "(1 3 4)", 5),
]


@pytest.mark.parametrize("descriptor,sigma_text,bound", SUPPORT_RANGES)
def test_closed_form_support_matches_descent(descriptor, sigma_text, bound):
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for x in enumerate_affine(system, bound):
        assert affine_sigma_support(x, sigma) == \
            audit._affine_sigma_support_by_descent(x, sigma), x


@pytest.mark.parametrize("descriptor", [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "D5", "G2", "F4",
    "A1+A2", "A2+A2", "B2+G2",
])
def test_minuscule_omega_matches_w0_sweep(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    assert omega_elements(system) == audit._omega_elements_by_sweep(system)


@pytest.mark.parametrize("descriptor,count", [("E6", 3), ("E7", 2), ("E8", 1)])
def test_minuscule_omega_exceptional(descriptor, count):
    system = RootSystem.from_descriptor(descriptor)
    omegas = minuscule_omegas(system)
    assert len(omegas) == count == len(kottwitz_group(system))
    assert all(el.length == 0 for el in omegas)
    assert len({kottwitz(el) for el in omegas}) == count


@pytest.mark.parametrize("descriptor", ["E7", "E8"])
def test_omega_elements_refused_over_w0_cap(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    with pytest.raises(CapExceeded) as info:
        omega_elements(system)
    assert str(info.value) == \
        f"|W0| = {system.weyl_order()} exceeds the cap 1000000"


@pytest.mark.parametrize("descriptor,coord_range", [
    ("A3", 3), ("B3", 2), ("C3", 2), ("D4", 2), ("D5", 1), ("A1+A2", 2), ("E6", 1),
    ("E7", 1),
])
def test_integer_class_matches_coroot_coordinates(descriptor, coord_range):
    system = RootSystem.from_descriptor(descriptor)
    for mu in product(range(-coord_range, coord_range + 1), repeat=system.rank):
        x = AffineElement.from_translation(system, mu)
        assert kottwitz(x) == audit._class_by_coroot_coordinates(x), mu


@pytest.mark.parametrize("descriptor", [
    "A1", "A4", "A7", "B2", "B5", "C3", "C6", "D4", "D5", "D8", "E6", "E7", "E8", "F4", "G2",
    "A2+A2", "A1+B3+G2", "D4+A3",
])
def test_class_map_from_integer_rows_matches_the_fraction_inverse(descriptor):
    """The class map read off the integer Bareiss rows equals d * C^{-1} built
    from the Fraction inverse, with d each block's least common denominator,
    as dense columns, zero outside their component."""
    system = RootSystem.from_descriptor(descriptor)
    expected = []
    for comp in system.components:
        block = [[system.inverse_cartan[j][i] for j in comp.indices] for i in comp.indices]
        d = math.lcm(*(c.denominator for column in block for c in column))
        for column in block:
            dense = [0] * system.rank
            for j, c in zip(comp.indices, column):
                dense[j] = int(c * d)
            expected.append((tuple(dense), d, tuple(Fraction(r, d) for r in range(d))))
    assert _class_map(system) == tuple(expected)


def test_omega_of_kottwitz_lookup(a2, b2):
    for system in (a2, b2):
        for omega in omega_elements(system):
            assert omega_of_kottwitz(system, kottwitz(omega)) is omega


@pytest.mark.parametrize("descriptor, sigma_text", [
    ("A2", "id"), ("A2", "(1 2)"), ("A3", "id"), ("A3", "(1 3)"), ("A4", "id"),
    ("A4", "(1 4)(2 3)"), ("A5", "id"), ("A5", "(1 5)(2 4)"), ("D4", "id"), ("D4", "(3 4)"),
    ("D4", "(1 3 4)"), ("D5", "(4 5)"), ("E6", "(1 6)(3 5)"), ("A2+A2", "(1 3)(2 4)"),
])
def test_twisted_action_matches_affine_products(descriptor, sigma_text):
    """omega sigma(s) omega^{-1}, read off the affine roots, equals the
    conjugate made with group products, for every omega."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for omega in omega_elements(system):
        assert (twisted_affine_action(system, sigma, omega)
                == audit._twisted_affine_action_by_products(system, sigma, omega))


@pytest.mark.parametrize("descriptor, sigma_text", [
    ("A2", "id"), ("A3", "(1 3)"), ("B3", "id"), ("C3", "id"), ("D4", "(1 3 4)"),
    ("G2", "id"), ("F4", "id"), ("A2+A1", "id"), ("E6", "(1 6)(3 5)"),
])
def test_fresh_tables_make_no_fraction_inverse_and_no_products(descriptor, sigma_text,
                                                               monkeypatch):
    """A fresh system's tables come from integer elimination, with no
    Gauss-Jordan over Fraction, and its twisted action from the affine roots,
    with no group product."""
    def refuse(*args):
        raise AssertionError("a reference route ran")

    monkeypatch.setattr(_linalg, "invert", refuse)
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    affine_simples(system)
    kottwitz_group(system)
    omegas = omega_elements(system)
    monkeypatch.setattr(AffineElement, "__mul__", refuse)
    for omega in omegas:
        twisted_affine_action(system, sigma, omega)


def test_affine_simples_are_interned(a2, g2):
    for system in (a2, g2):
        for s in affine_simples(system):
            assert s.element.finite is FiniteWeylElement.identity(system) * s.element.finite


def test_affine_support_cost_flat_in_length(a2):
    sigma = sid(a2)
    affine_sigma_support(parse_affine(a2, "t[1,0] s1"), sigma)  # fill per-system caches
    x = parse_affine(a2, "t[1001,1000] s1 s2")
    assert x.length == 4000
    start = perf_counter()
    support = affine_sigma_support(x, sigma)
    assert perf_counter() - start < 0.05
    assert support == audit._affine_sigma_support_by_descent(x, sigma)


def test_constructor_rejects_a_rational_translation(a2):
    """The group law skips the integrality check; the constructor keeps it."""
    identity = FiniteWeylElement.identity(a2)
    with pytest.raises(ValueError, match="not integral"):
        AffineElement((Fraction(1, 2), 0), identity)
    x = AffineElement((Fraction(4, 2), -1), identity)
    assert x.translation == (2, -1) and all(type(c) is int for c in x.translation)
    assert all(type(c) is int for c in (x * x).translation + x.inverse().translation)


@pytest.mark.parametrize("descriptor, sigma_text, bound", [
    ("A2", "id", 8), ("B2", "id", 8), ("G2", "id", 8), ("A3", "(1 3)", 5), ("D4", "id", 4),
])
def test_integer_newton_and_class_sums_match_rational_routes(descriptor, sigma_text, bound):
    """The dominant Newton point found in integers equals make_dominant on the
    rational vector; the integer class sums equal the Fraction sums mod 1,
    with Fraction representatives."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    group = kottwitz_group(system)
    for x in enumerate_affine(system, bound):
        point = newton(x, sigma)
        assert point.dominant == audit._newton_dominant_by_fractions(system, point.vector)
        assert all(type(c) is Fraction for c in point.vector + point.dominant)
        kx = kottwitz(x)
        for g in group:
            total = kx + g
            assert total == audit._class_sum_by_mod1(kx, g)
            assert all(type(c) is Fraction for c in total.rep)


COINVARIANT_CASES = [
    ("A3", "(1 3)"), ("A5", "(1 5)(2 4)"), ("D4", "(1 3 4)"), ("D4", "(3 4)"),
    ("D5", "(4 5)"), ("E6", "(1 6)(3 5)"), ("A2+A2", "(1 3)(2 4)"),
    ("A3", "id"), ("A5", "id"), ("D4", "id"), ("D5", "id"), ("E6", "id"), ("A2+A2", "id"),
]


def image_of_one_minus_sigma(system, sigma) -> set[tuple[Fraction, ...]]:
    """{g - sigma(g)}, with g - sigma(g) taken on the rational coroot
    coordinates mod 1 (sigma permutes the coroot coordinates as it permutes
    the simple indices)."""
    image = set()
    for g in kottwitz_group(system):
        moved = [Fraction(0)] * system.rank
        for i, c in enumerate(g.rep):
            moved[sigma.index(i)] = c
        image.add(tuple((a - b) % 1 for a, b in zip(g.rep, moved)))
    return image


@pytest.mark.parametrize("descriptor, sigma_text", COINVARIANT_CASES)
def test_coinvariant_subgroup_is_the_image_of_one_minus_sigma(descriptor, sigma_text):
    """The coset of zero in the table, the closure of the classes of
    omega_i^v - sigma(omega_i^v), is {g - sigma(g)}."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    table, zero = _coinvariant_classes(system, sigma), KottwitzClass.zero(system)
    coset = sorted(g.rep for g in kottwitz_group(system) if table[g.residues] == zero)
    assert coset == sorted(image_of_one_minus_sigma(system, sigma))


@pytest.mark.parametrize("descriptor, sigma_text", COINVARIANT_CASES)
def test_coinvariant_table_matches_the_fraction_coset_minimum(descriptor, sigma_text):
    """``coinvariant`` is the least coset representative in Fractions, and
    ``same_coinvariant`` compares those minima, for every class and pair."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    image = image_of_one_minus_sigma(system, sigma)
    group = kottwitz_group(system)
    minimum = {g: min(tuple((a + d) % 1 for a, d in zip(g.rep, delta)) for delta in image)
               for g in group}
    for g in group:
        assert g.coinvariant(sigma) == minimum[g]
        for h in group:
            assert g.same_coinvariant(h, sigma) == (minimum[g] == minimum[h])


def enumerate_by_full_count(system, bound):
    """Reference enumeration: every x s for every affine simple s, kept when
    the full Iwahori-Matsumoto count of the product is one more."""
    level = sorted(omega_elements(system), key=lambda el: el.sort_key())
    out = list(level)
    for target in range(1, bound + 1):
        nxt = {}
        for x in level:
            for s in affine_simples(system):
                y = x * s.element
                if _im_length(y) == target:
                    nxt[y.key()] = y
        level = sorted(nxt.values(), key=lambda el: el.sort_key())
        out += level
    return [(y.key(), _im_length(y)) for y in out]


def _length_by_root_dot_products(x) -> int:
    """The Iwahori-Matsumoto count with one rank-length dot product
    <alpha, mu> per positive root alpha."""
    total = 0
    for alpha, positive in zip(x.system.positive_roots, x.finite.inverse_positive()):
        pairing = sum(a * m for a, m in zip(alpha, x.translation))
        total += abs(pairing) if positive else abs(pairing - 1)
    return total


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("A2", "id", 6), ("G2", "id", 6), ("B3", "id", 3), ("A2+A1", "id", 3), ("A3", "(1 3)", 3),
])
def test_fresh_length_matches_dot_products_and_separation_count(descriptor, sigma_text, bound):
    """``walk_affine`` presets the lengths it lists; an element built anew, or
    its sigma-image, counts its own with ``_im_length``."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for x in enumerate_affine(system, bound):
        for y in (AffineElement(x.translation, x.finite), apply_sigma_affine(sigma, x)):
            assert y._length is None
            assert y.length == x.length, y
            assert _length_by_root_dot_products(y) == x.length, y
            assert audit.separating_hyperplane_count(y) == x.length, y


@pytest.mark.parametrize("descriptor,bound", [
    ("A2", 8), ("G2", 8), ("B3", 4), ("D4", 3), ("A3", 5),
])
def test_enumerate_affine_one_root_step_matches_full_count(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    listed = [(x.key(), x.length) for x in enumerate_affine(system, bound)]
    assert listed == enumerate_by_full_count(system, bound)


def test_dominance_and_lattice_tests_take_ints_and_rationals(a2):
    assert a2.is_dominant((0, 3)) and not a2.is_dominant((1, -1))
    assert a2.is_dominant((Fraction(1, 2), Fraction(0))) and not a2.is_dominant((Fraction(-1, 3), 1))
    assert a2.in_coweight_lattice((2, -5)) and a2.in_coweight_lattice((Fraction(4, 2), -1))
    assert not a2.in_coweight_lattice((Fraction(1, 2), 0))


def newton_by_fractions(x, sigma, force_multiple=1):
    """The Newton point as Fraction tuples: the translation of the first
    valid twisted power x^n and its dominant representative, each over n."""
    twists = [x]
    for _ in range(sigma.order - 1):
        twists.append(apply_sigma_affine(sigma, twists[-1]))
    step = sigma.order * force_multiple
    z, n = x, 1
    while not (n % step == 0 and z.finite.is_identity()):
        assert n <= 2 * x.system.weyl_order() * step + 2
        z = z * twists[n % sigma.order]
        n += 1
    dominant, _ = make_dominant(x.system, z.translation)
    return tuple(Fraction(c, n) for c in z.translation), tuple(Fraction(c, n) for c in dominant)


@pytest.mark.parametrize("descriptor, sigma_text, bound", [
    ("A2", "id", 6), ("G2", "id", 6), ("B3", "id", 4), ("A3", "(1 3)", 4),
    ("D4", "(1 3 4)", 3), ("A2+A2", "(1 3)(2 4)", 3),
])
def test_newton_point_in_lowest_terms(descriptor, sigma_text, bound):
    """A Newton point holds its numerators over a positive denominator prime
    to them; it reads as the Fraction route, whatever power is used, and is
    central exactly when that route's dominant point is zero."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for x in enumerate_affine(system, bound):
        point = newton(x, sigma)
        n = point.denominator
        assert n > 0 and math.gcd(n, *point.numerators) == 1
        assert math.gcd(n, *point.dominant_numerators) == 1
        vector, dominant = newton_by_fractions(x, sigma)
        assert (point.vector, point.dominant) == (vector, dominant), x
        assert all(type(c) is Fraction for c in point.vector + point.dominant)
        assert newton(x, sigma, force_multiple=2) == point == newton(x, sigma, force_multiple=3)
        assert point.is_central() == all(c == 0 for c in dominant)


@pytest.mark.parametrize("descriptor", [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "B3", "C3", "D4", "D5", "E6",
    "A2+A2", "A1+B3",
])
def test_flat_class_map_and_sum_match_references(descriptor):
    """The class map and class sum, read off dense integer columns, give
    classes equal and hash-equal to KottwitzClass(system, residues) built
    from the rational coroot coordinates mod 1; sums over the whole group
    match the rational sum mod 1."""
    system = RootSystem.from_descriptor(descriptor)
    moduli = [d for _, d, _ in _class_map(system)]
    for mu in product(range(-1, 2), repeat=system.rank):
        coords = system.coroot_coordinates(mu)
        expected = KottwitzClass(system, tuple(
            int((c - math.floor(c)) * d) for c, d in zip(coords, moduli)))
        for kappa in (KottwitzClass.from_translation(system, mu),
                      KottwitzClass.from_translation(system, tuple(map(Fraction, mu))),
                      kottwitz(AffineElement.from_translation(system, mu))):
            assert kappa == expected and hash(kappa) == hash(expected), mu
            assert all(type(r) is int for r in kappa.residues)
    with pytest.raises(ValueError, match="not integral"):
        KottwitzClass.from_translation(system, (Fraction(1, 2),) + (0,) * (system.rank - 1))
    group = kottwitz_group(system)
    for a in group:
        for b in group:
            total, expected = a + b, audit._class_sum_by_mod1(a, b)
            assert total == expected and hash(total) == hash(expected), (a, b)
            assert all(type(r) is int for r in total.residues)


@pytest.mark.parametrize("descriptor,bound", [("A2", 3), ("G2", 3), ("A3", 2), ("A2+A1", 2)])
def test_kottwitz_classes_from_every_route_are_one_value(descriptor, bound):
    """Classes made by ``from_translation``, ``zero``, ``+``, ``kottwitz`` and
    the constructor are equal, hash equal and the same dict key."""
    system = RootSystem.from_descriptor(descriptor)
    zero = KottwitzClass.zero(system)
    for x in enumerate_affine(system, bound):
        kappa = kottwitz(x)
        routes = [KottwitzClass.from_translation(system, x.translation), zero + kappa,
                  kappa + zero, KottwitzClass(system, kappa.residues)]
        table = {kappa: x}
        for other in routes:
            assert other == kappa and kappa == other and not other != kappa, x
            assert hash(other) == hash(kappa) == hash(kappa.residues), x
            assert table[other] is x
        assert len({kappa, *routes}) == 1
    assert {k: k for k in kottwitz_group(system)}[zero] == zero


def test_kottwitz_classes_of_separate_systems_differ():
    first, second = RootSystem.from_descriptor("A2"), RootSystem.from_descriptor("A2")
    assert first is not second
    for a, b in zip(kottwitz_group(first), kottwitz_group(second)):
        assert a.residues == b.residues and hash(a) == hash(b)
        assert a != b and not a == b
        assert b not in {a: None}


def test_kottwitz_class_is_never_its_residues_tuple(a2):
    for kappa in kottwitz_group(a2):
        residues = kappa.residues
        assert kappa != residues and residues != kappa
        assert not kappa == residues and not residues == kappa
        assert hash(kappa) == hash(residues)
        assert residues not in {kappa: None} and kappa not in {residues: None}


@pytest.mark.parametrize("descriptor", ["A2", "G2", "A3", "D4", "A2+A1", "A1+B3"])
def test_kottwitz_class_rep_text_and_repr_keep_their_values(descriptor):
    """``rep`` holds the coordinates r_i / d as Fractions, ``text`` joins them
    with ``;`` and ``repr`` names both fields, as before the class had
    slots; each derived value is made once and then read from its slot."""
    system = RootSystem.from_descriptor(descriptor)
    moduli = [d for _, d, _ in _class_map(system)]
    for kappa in kottwitz_group(system):
        rep = kappa.rep
        assert type(rep) is tuple and all(type(c) is Fraction for c in rep)
        assert rep == tuple(Fraction(r, d) for r, d in zip(kappa.residues, moduli))
        assert kappa.rep is rep
        assert type(kappa.text) is str and kappa.text == ";".join(str(c) for c in rep)
        assert kappa.text is kappa.text
        assert repr(kappa) == f"KottwitzClass(system={system!r}, residues={kappa.residues!r})"
        assert not hasattr(kappa, "__dict__")
        with pytest.raises(AttributeError, match="no attribute 'reps'"):
            kappa.reps
