"""The nonemptiness deciders, the class-set machinery, and the dimension formulas."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlv import audit, criterion
from adlv.alcove import AlcoveProfile, base_k, dominant_decompose
from adlv.cartan import RootSystem
from adlv.criterion import (
    RULE_CRITERION,
    RULE_KOTTWITZ,
    RULE_ORACLE,
    RULE_SHORTCUT,
    Verdict,
    _is_jw_alcove_given,
    _oracle_scan,
    _scan_plan,
    _twisted_conjugate,
    bgx_cordial,
    class_point,
    decide_nonempty,
    defect,
    dim_one_strip_rank2,
    dim_shrunken,
    enumerate_b_g_mu,
    is_jw_alcove,
    j_rx,
    oracle_nonempty,
    sigma_stable_subsets,
    translation_length,
)
from adlv.errors import InternalCheckError
from adlv.iwahori import (
    AffineElement,
    KottwitzClass,
    affine_sigma_support,
    enumerate_affine,
    kottwitz,
    newton,
)
from adlv.notation import format_affine, parse_affine, parse_finite, parse_sigma
from adlv.weyl import (
    DiagramAutomorphism,
    FiniteWeylElement,
    _intern,
    act_on_numbers,
    embedding_order,
    enumerate_w0,
    longest_element,
)


def sid(system):
    return DiagramAutomorphism.identity(system)


# -- decide_nonempty -----------------------------------------------------------


def test_identity_nonempty_by_shortcut(a2):
    x = AffineElement.identity(a2)
    verdict = decide_nonempty(x, KottwitzClass.zero(a2), sid(a2))
    assert verdict.nonempty and verdict.rule == RULE_SHORTCUT


def test_dominant_noncentral_translation_empty(a2, a1):
    for system, mu in ((a2, (1, 1)), (a1, (2,))):
        x = AffineElement.from_translation(system, mu)
        assert affine_sigma_support(x, sid(system)).full
        verdict = decide_nonempty(x, kottwitz(x), sid(system))
        assert not verdict.nonempty and verdict.rule == RULE_CRITERION
        assert verdict.witnesses["r"].is_identity()


def test_kottwitz_mismatch(a2):
    x = AffineElement.from_translation(a2, (1, 0))
    verdict = decide_nonempty(x, KottwitzClass.zero(a2), sid(a2))
    assert not verdict.nonempty and verdict.rule == RULE_KOTTWITZ


def test_longest_element_as_affine(a2):
    """w0 is shrunken with full eta-support, yet its affine support is not
    full, so the shortcut (not the support test) decides it; both routes say
    nonempty."""
    from adlv.weyl import sigma_support

    w0 = longest_element(a2)
    x = AffineElement.from_finite(w0)
    profile = AlcoveProfile.build(x, sid(a2))
    assert profile.shrunken
    assert profile.eta == w0
    assert sigma_support(profile.eta, sid(a2)) == frozenset(range(a2.rank))
    assert not affine_sigma_support(x, sid(a2)).full
    verdict = decide_nonempty(x, kottwitz(x), sid(a2), profile)
    assert verdict.nonempty and verdict.rule == RULE_SHORTCUT


def test_deep_shrunken_full_eta_nonempty(a2):
    x = parse_affine(a2, "t[-3,3] s2 s1")  # shrunken, eta has full support
    profile = AlcoveProfile.build(x, sid(a2))
    assert profile.shrunken
    verdict = decide_nonempty(x, kottwitz(x), sid(a2), profile)
    assert verdict.nonempty and verdict.rule == RULE_CRITERION
    oracle = oracle_nonempty(x, kottwitz(x), sid(a2), profile)
    assert oracle.nonempty


def test_nonempty_witness_is_the_profile_w_x(a2):
    """A nonempty criterion verdict lists every r it checked: W_x itself, not a copy."""
    x = parse_affine(a2, "t[0,1] s1 s2")
    profile = AlcoveProfile.build(x, sid(a2))
    verdict = decide_nonempty(x, kottwitz(x), sid(a2), profile)
    assert verdict.nonempty and verdict.rule == RULE_CRITERION
    assert len(profile.w_x) == 2
    assert verdict.witnesses["checked_r"] is profile.w_x


@settings(max_examples=25)
@given(st.sampled_from([("A2", "id"), ("G2", "id"), ("B3", "id"), ("A3", "(1 3)")]),
       st.data())
def test_long_elements_agree_with_the_references(case, data):
    """t^mu w with every coordinate of mu in [-150, 150]: lengths of about
    10^2 to 1.8 * 10^3, which random words, collapsing to short elements,
    do not reach.  Each decision stays fast at that length."""
    system = RootSystem.from_descriptor(case[0])
    sigma = parse_sigma(system, case[1])
    mu = data.draw(st.lists(st.integers(-150, 150), min_size=system.rank,
                            max_size=system.rank))
    x = AffineElement(mu, data.draw(st.sampled_from(enumerate_w0(system))))
    kappa = kottwitz(x)
    assert kappa == audit._class_by_coroot_coordinates(x)
    assert dominant_decompose(x) == audit._dominant_decompose_by_barycenter(x)
    support = affine_sigma_support(x, sigma, kappa)
    assert support == audit._affine_sigma_support_by_descent(x, sigma)
    start = perf_counter()
    verdict = decide_nonempty(x, kappa, sigma)
    assert perf_counter() - start < 0.5, (format_affine(x), x.length)
    if support.full:
        assert oracle_nonempty(x, kappa, sigma).nonempty == verdict.nonempty


# -- the (J, w)-alcove oracle ----------------------------------------------------


def test_jw_alcove_full_j_always(a2):
    full = frozenset(range(a2.rank))
    for x in list(enumerate_affine(a2, 3))[:10]:
        for w in enumerate_w0(a2):
            assert is_jw_alcove(AlcoveProfile.build(x, sid(a2)), full, w)


def test_jw_alcove_identity_empty_j(a2):
    profile = AlcoveProfile.build(AffineElement.identity(a2), sid(a2))
    for w in enumerate_w0(a2):
        assert is_jw_alcove(profile, frozenset(), w)


def test_jw_alcove_rejects_unstable_j(a3, a3_flip):
    profile = AlcoveProfile.build(AffineElement.identity(a3), a3_flip)
    w = FiniteWeylElement.identity(a3)
    with pytest.raises(ValueError):
        is_jw_alcove(profile, frozenset({0}), w)  # {1} is not flip-stable


@pytest.mark.parametrize("descriptor, sigma_text, bound", [
    ("A2", "id", 3), ("G2", "id", 3), ("A3", "(1 3)", 2), ("D4", "(1 3 4)", 1),
])
def test_literal_row_with_one_conjugate_matches_is_jw_alcove(descriptor, sigma_text, bound):
    """The audit's literal test, with one twisted conjugate per (x, w) shared
    by every J, equals is_jw_alcove on every (x, w, J)."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    subsets = sigma_stable_subsets(system, sigma, False)
    for x in enumerate_affine(system, bound):
        profile = AlcoveProfile.build(x, sigma)
        for w in enumerate_w0(system):
            assert audit._literal_jw_row(profile, w, subsets) == [
                is_jw_alcove(profile, j_set, w) for j_set in subsets], (x, w)


def _is_jw_alcove_given_by_marker(profile, j_set, w, twisted):
    """The literal (J, w) test with J's marker and Phi_J+ rebuilt per call."""
    system = profile.system
    marker = tuple(0 if i in j_set else 1 for i in range(system.rank))
    if twisted.finite.act_on_coweight(marker) != marker:
        return False
    for alpha in system.positive_roots:
        if all(alpha[i] == 0 for i in range(system.rank) if i not in j_set):
            continue
        a = w.act_on_root(alpha)
        if profile.k_values[a] < base_k(system, a):
            return False
    return True


@pytest.mark.parametrize("descriptor, sigma_text, bound", [
    ("A2", "id", 3), ("G2", "id", 3), ("A3", "(1 3)", 2), ("D4", "(1 3 4)", 1),
])
def test_literal_test_with_per_system_parabolic_data(descriptor, sigma_text, bound):
    """The literal test, reading J's marker and the positive roots outside
    Phi_J+ from the per-system table, equals the test that rebuilds them, on
    every (x, w, J)."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    subsets = sigma_stable_subsets(system, sigma, False)
    for x in enumerate_affine(system, bound):
        profile = AlcoveProfile.build(x, sigma)
        for w in enumerate_w0(system):
            twisted = _twisted_conjugate(x, sigma, w)
            for j_set in subsets:
                assert _is_jw_alcove_given(profile, j_set, w, twisted) == \
                    _is_jw_alcove_given_by_marker(profile, j_set, w, twisted), (x, w, j_set)


def test_deep_shrunken_is_no_proper_alcove(a2):
    profile = AlcoveProfile.build(parse_affine(a2, "t[-3,3] s2 s1"), sid(a2))
    for j_set in sigma_stable_subsets(a2, sid(a2), True):
        for w in enumerate_w0(a2):
            assert not is_jw_alcove(profile, j_set, w)


def test_oracle_witness_for_regular_translation(a2):
    x = AffineElement.from_translation(a2, (1, 1))
    verdict = oracle_nonempty(x, kottwitz(x), sid(a2))
    assert not verdict.nonempty
    assert verdict.witnesses["j"] == frozenset()
    assert verdict.witnesses["w"].is_identity()  # lexicographically first pair


def test_oracle_preconditions(a2):
    x = AffineElement.from_translation(a2, (1, 0))
    with pytest.raises(ValueError):
        oracle_nonempty(x, KottwitzClass.zero(a2), sid(a2))  # class mismatch
    with pytest.raises(ValueError):
        oracle_nonempty(AffineElement.identity(a2), KottwitzClass.zero(a2), sid(a2))


def test_sigma_stable_subsets(a3, a3_flip):
    proper = sigma_stable_subsets(a3, a3_flip, True)
    assert set(proper) == {frozenset(), frozenset({1}), frozenset({0, 2})}
    assert proper[0] == frozenset()  # lexicographic scan order
    assert len(sigma_stable_subsets(a3, sid(a3), True)) == 7


@pytest.mark.parametrize("descriptor,bound", [("A2", 7), ("B2", 6)])
def test_equivalence_battery_small(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    result = audit.check_criterion_oracle_equivalence(system, sid(system), bound)
    assert result.passed, result.counterexample


def test_equivalence_a3_split(a3):
    # the twisted A3 range is an acceptance criterion; the split one lives here
    result = audit.check_criterion_oracle_equivalence(a3, sid(a3), 8)
    assert result.passed, result.counterexample


def test_oracle_reduction_battery(a2):
    result = audit.check_oracle_reduction_vs_literal(a2, sid(a2), 3)
    assert result.passed, result.counterexample


@pytest.mark.parametrize("descriptor,sigma_perm", [("B3", None), ("A3", (2, 1, 0))])
def test_oracle_reduction_finite_part_scan(descriptor, sigma_perm):
    """The scan's finite-part conjugate and cached violation set against the
    literal (J, w) conditions."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = sid(system) if sigma_perm is None else DiagramAutomorphism(system, sigma_perm)
    result = audit.check_oracle_reduction_vs_literal(system, sigma, 3)
    assert result.passed, result.counterexample


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("A2", "id", 4), ("G2", "id", 6), ("B3", "id", 3), ("A3", "(1 3)", 3), ("D4", "(1 3 4)", 2),
])
def test_condition_two_translate_matches_the_violated_supports(descriptor, sigma_text, bound):
    """The scan's condition-two test, one translate of the numbers outside
    Phi_J+ through w and the profile's ``below_table``, against the reference
    bitmask of violated supports: every J of the scan plan, every w in its
    W^J, every element (no hypothesis filter)."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    plan = _scan_plan(system, sigma)
    outcomes = Counter()
    for x in enumerate_affine(system, bound):
        profile = AlcoveProfile.build(x, sigma)
        for _, outside, _, roots, numbers in plan:
            for w in embedding_order(system, roots):
                fails = 1 in act_on_numbers(w, numbers).translate(profile.below_table)
                assert fails == (audit._violated_supports(profile, w) & outside != 0), \
                    (format_affine(x), outside, w)
                outcomes[fails] += 1
    assert outcomes[True] and outcomes[False]


def assert_coset_scan_matches_w0_scan(profile):
    coset, full = _oracle_scan(profile), audit._oracle_scan_over_w0(profile)
    assert (coset.nonempty, coset.witnesses) == (full.nonempty, full.witnesses), \
        format_affine(profile.x)


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("A3", "id", 6), ("A3", "(1 3)", 6), ("B3", "id", 5), ("D4", "(1 3 4)", 4), ("G2", "id", 8),
])
def test_coset_oracle_matches_w0_scan(descriptor, sigma_text, bound):
    """Verdict and witness of the scan over minimal coset representatives
    against the scan over all of W0, on every element, full affine
    sigma-support or not."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    supports = Counter()
    for x in enumerate_affine(system, bound):
        profile = AlcoveProfile.build(x, sigma)
        supports[profile.affine_support.full] += 1
        assert_coset_scan_matches_w0_scan(profile)
    assert supports[True] and supports[False]


@pytest.mark.parametrize("sigma_text", ["id", "(1 3 5)(2 4 6)(7 8 9)"])
def test_coset_oracle_matches_w0_scan_rank_nine(sigma_text):
    """A seeded sample of A2+A2+A2+A1+A1+A1 (|W0| = 1728), some elements
    without full affine sigma-support."""
    system = RootSystem.from_descriptor("A2+A2+A2+A1+A1+A1")
    sigma = parse_sigma(system, sigma_text)
    rng = random.Random(9)
    supports = Counter()
    for _ in range(10):
        mu = tuple(rng.randint(-2, 2) for _ in range(system.rank))
        finite = FiniteWeylElement.identity(system)
        for _ in range(rng.randint(0, 12)):
            finite = finite * FiniteWeylElement.simple(system, rng.randrange(system.rank))
        profile = AlcoveProfile.build(AffineElement(mu, finite), sigma)
        supports[profile.affine_support.full] += 1
        assert_coset_scan_matches_w0_scan(profile)
    assert supports[True] and supports[False]


# -- J_{r,x} ---------------------------------------------------------------------


def test_jrx_shrunken_is_eta_support(a2):
    x = parse_affine(a2, "t[-3,3] s2 s1")
    profile = AlcoveProfile.build(x, sid(a2))
    r = FiniteWeylElement.identity(a2)
    from adlv.weyl import sigma_support

    assert j_rx(profile, r) == sigma_support(profile.eta, sid(a2))


def test_jrx_one_strip(a2):
    x = parse_affine(a2, "t[-2,1] s2")  # phi_x = {alpha_1}
    profile = AlcoveProfile.build(x, sid(a2))
    s1 = FiniteWeylElement.simple(a2, 0)
    assert s1 in profile.w_x
    j_set = j_rx(profile, s1)
    from adlv.weyl import sigma_support

    assert j_set == sigma_support(s1 * profile.eta * s1, sid(a2))


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("A3", "(1 3)", 4), ("B3", "id", 4), ("D4", "id", 2), ("G2", "id", 8),
])
def test_jrx_refuses_exactly_the_r_outside_the_w0_filter(descriptor, sigma_text, bound):
    """The closed-form membership test N(r) ⊆ Phi_x against the W0 filter,
    over every r in W0, for every Phi_x met up to the bound."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    profiles = {}
    for x in enumerate_affine(system, bound):
        profile = AlcoveProfile.build(x, sigma)
        profiles.setdefault(profile.phi_x, profile)
    w0 = enumerate_w0(system)
    for phi_x, profile in profiles.items():
        refused = set()
        for r in w0:
            try:
                j_rx(profile, r)
            except ValueError:
                refused.add(r)
        assert refused == set(w0) - audit.w_x_set_bruteforce(system, phi_x)


def test_jrx_rejects_nonmember(a2):
    x = parse_affine(a2, "t[-3,3] s2 s1")  # shrunken: W_x = {e}
    with pytest.raises(ValueError):
        j_rx(AlcoveProfile.build(x, sid(a2)), FiniteWeylElement.simple(a2, 0))


def test_jrx_postcondition_battery(a2, a3, a3_flip):
    assert audit.check_jrx_postcondition(a2, sid(a2), 6).passed
    assert audit.check_jrx_postcondition(a3, a3_flip, 4).passed


# -- specialized shapes ----------------------------------------------------------


@pytest.mark.parametrize("descriptor,bound", [("A2", 8), ("B2", 7), ("G2", 7)])
def test_one_strip_battery(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    result = audit.check_one_strip_two_support(system, sid(system), bound)
    assert result.passed, result.counterexample


@pytest.mark.parametrize("descriptor,bound", [("A2", 8), ("B2", 7)])
def test_translations_battery(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    result = audit.check_translation_elements(system, sid(system), bound)
    assert result.passed, result.counterexample


def test_vtmu_battery(a2):
    result = audit.check_vtmu_elements(a2, sid(a2), 6)
    assert result.passed, result.counterexample


def test_shrunken_specialization_battery(a2):
    result = audit.check_shrunken_specialization(a2, sid(a2), 8)
    assert result.passed, result.counterexample


def test_nonempty_vtmu_with_noncentral_mu(a2):
    # v = w0, mu = first fundamental coweight: W_x = {e}, eta = w0, full support
    w0 = longest_element(a2)
    x = AffineElement.from_finite(w0) * AffineElement.from_translation(a2, (1, 0))
    profile = AlcoveProfile.build(x, sid(a2))
    assert profile.w_x == (FiniteWeylElement.identity(a2),)
    assert profile.eta == w0
    verdict = decide_nonempty(x, kottwitz(x), sid(a2), profile)
    assert verdict.nonempty and verdict.rule == RULE_CRITERION
    assert oracle_nonempty(x, kottwitz(x), sid(a2), profile).nonempty


# -- B(G)_x and B(G, mu) ----------------------------------------------------------


def test_bgx_central_mu(a2):
    report = bgx_cordial(longest_element(a2), (0, 0), sid(a2))
    assert report.mu_central
    assert report.conclusion == "single-central-class"
    assert len(report.points) == 1
    assert report.points[0].newton_dominant == (0, 0)


def test_bgx_regular_mu_trivial_stabilizer(a2):
    report = bgx_cordial(FiniteWeylElement.identity(a2), (1, 1), sid(a2),
                         with_points=False)
    assert report.w_x_sorted == (FiniteWeylElement.identity(a2),)


def test_bgx_w0_fundamental(a2):
    report = bgx_cordial(longest_element(a2), (1, 0), sid(a2))
    assert report.w_x_sorted == (FiniteWeylElement.identity(a2),)
    assert report.all_full
    assert report.conclusion == "equals-b-g-mu"
    assert report.cap_stable
    kappas = {p.kappa_coinv for p in report.points}
    assert len(kappas) == 1  # all points share the class invariant of t^mu


def test_bgx_rejects_nondominant(a2):
    with pytest.raises(ValueError):
        bgx_cordial(longest_element(a2), (-1, 0), sid(a2))


def test_bgx_formula_battery(a2):
    result = audit.check_bgx_formula(a2, sid(a2), 6)
    assert result.passed, result.counterexample


def test_bgx_formula_twisted(a3, a3_flip):
    result = audit.check_bgx_formula(a3, a3_flip, 4)
    assert result.passed, result.counterexample


def test_bgx_on_e6_lists_no_w0():
    """bgx reads W_x through the inversion-set walk over its closed-form root
    set, so it interns fewer than |W0| elements and never walks all of Phi+."""
    e6 = RootSystem.from_descriptor("E6")
    bgx_cordial(FiniteWeylElement.simple(e6, 0), (1, 0, 0, 0, 0, 0), sid(e6),
                with_points=False)
    assert len(e6.memo[_intern]) < e6.weyl_order() == 51840
    assert (embedding_order.__wrapped__, frozenset(e6.positive_roots)) not in e6.memo


@pytest.mark.parametrize("descriptor,sigma_text", [
    ("A2", "id"), ("G2", "id"), ("B3", "id"), ("C3", "id"), ("D4", "id"),
    ("A2+A1", "id"), ("A3", "(1 3)"),
])
def test_bgx_root_set_is_the_strip_set(descriptor, sigma_text):
    """Over every v and every dominant mu of translation length <= 4, the
    root set S = {alpha > 0 : <alpha, mu> = 0, v(alpha) > 0} is Phi_x of
    x = v t^mu; bgx's W_x is the W0 filter of the formula up to length 6."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for mu in audit._dominant_coweights(system, 4):
        for v in enumerate_w0(system):
            roots = frozenset(alpha for alpha in system.positive_roots
                              if system.pair(alpha, mu) == 0 and sum(v.act_on_root(alpha)) > 0)
            x = AffineElement.from_finite(v) * AffineElement.from_translation(system, mu)
            assert roots == AlcoveProfile.build(x, sigma).phi_x, format_affine(x)
    result = audit.check_bgx_formula(system, sigma, 6)
    assert result.passed, result.counterexample


def test_bgx_formula_check_reports_a_mismatch(a2, monkeypatch):
    """A literal filter that loses a member of one W_x fails the check at that
    (v, mu)."""
    literal = audit._w_x_by_stabilizer
    s1 = FiniteWeylElement.simple(a2, 0)

    def losing(v, mu):
        members = literal(v, mu)
        if v == s1 and mu == (0, 1):
            members -= {FiniteWeylElement.identity(a2)}
        return members

    monkeypatch.setattr(audit, "_w_x_by_stabilizer", losing)
    result = audit.check_bgx_formula(a2, sid(a2), 6)
    assert result.passed is False
    assert result.detail == "formula set differs from the alcove set"
    assert result.counterexample == {"v": "s1", "mu": [0, 1]}


def test_enumerate_b_g_mu_zero(a2):
    points = enumerate_b_g_mu(a2, (0, 0), sid(a2))
    assert len(points) == 1
    assert points[0].newton_dominant == (0, 0)
    assert points[0].kappa_coinv == (0, 0)


def test_enumerate_b_g_mu_a1_coroot(a1):
    # the basic point and the ordinary point below alpha^v
    points = enumerate_b_g_mu(a1, (2,), sid(a1))
    assert [p.newton_dominant for p in points] == [(0,), (2,)]
    assert all(p.kappa_coinv == (0,) for p in points)
    assert points[0].leq(points[1])
    assert not points[1].leq(points[0])


def test_enumerate_b_g_mu_newton_polygons(a2):
    """Classical oracle: classes below the highest-root coweight correspond to
    the slope sequences (0,0,0), (1/2,1/2,-1), (1,-1/2,-1/2), (1,0,-1) — the
    decreasing rational triples summing to zero with integral breakpoints."""
    points = enumerate_b_g_mu(a2, (1, 1), sid(a2))
    assert [p.newton_dominant for p in points] == [
        (0, 0),
        (0, Fraction(3, 2)),
        (Fraction(3, 2), 0),
        (1, 1),
    ]
    assert all(p.kappa_coinv == (0, 0) for p in points)
    report = bgx_cordial(parse_finite(a2, "s1 s2"), (1, 1), sid(a2))
    assert report.points == points
    assert report.cap_stable


def test_enumerate_b_g_mu_dominance_filter():
    """The Newton point of t^mu is the sigma-average of mu, and every point
    lies below it."""
    for descriptor, sigma_text, mu in [
        ("A2", "id", (1, 1)), ("A3", "(1 3)", (1, 0, 0)), ("A1+A1", "(1 2)", (1, 0)),
        ("D4", "(1 3 4)", (1, 0, 0, 0)),
    ]:
        system = RootSystem.from_descriptor(descriptor)
        sigma = parse_sigma(system, sigma_text)
        average = newton(AffineElement.from_translation(system, mu), sigma).vector
        orbit = [mu]
        for _ in range(sigma.order - 1):
            orbit.append(sigma.coweight(orbit[-1]))
        assert average == tuple(Fraction(sum(c), sigma.order) for c in zip(*orbit))
        points = enumerate_b_g_mu(system, mu, sigma)
        assert points
        for p in points:
            diff = tuple(a - b for a, b in zip(average, p.newton_dominant))
            assert all(c >= 0 for c in system.coroot_coordinates(diff))


def test_translation_length(a2):
    assert translation_length(a2, (1, 0)) == 2
    assert translation_length(a2, (1, 1)) == 4


def test_bgx_lists_to_the_translation_length_and_twice_it(a2, monkeypatch):
    """B(G, mu) is listed up to length(t^mu), then audited up to twice that."""
    original = criterion.enumerate_affine
    bounds = []

    def recording(system, bound, *args):
        bounds.append(bound)
        return original(system, bound, *args)

    monkeypatch.setattr(criterion, "enumerate_affine", recording)
    report = bgx_cordial(parse_finite(a2, "s1 s2"), (1, 1), sid(a2))
    assert report.cap_stable
    assert bounds == [4, 8]


@pytest.mark.parametrize("descriptor,sigma_text", [
    ("A2", "id"), ("A2", "(1 2)"), ("C2", "id"), ("G2", "id"), ("A3", "(1 3)"),
    ("A1+A1", "(1 2)"),
])
def test_b_g_mu_at_the_translation_length_equals_the_old_cap(descriptor, sigma_text):
    """The points up to length(t^mu) are those up to length(t^mu) + |Phi+|,
    the heuristic cap it replaced, for each dominant mu with coordinate sum
    at most 2."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for mu in product(range(3), repeat=system.rank):
        if sum(mu) <= 2:
            old_cap = translation_length(system, mu) + len(system.positive_roots)
            assert (enumerate_b_g_mu(system, mu, sigma)
                    == enumerate_b_g_mu(system, mu, sigma, old_cap)), mu


# -- defect and dimensions ---------------------------------------------------------


def test_defect_trivial_class(a2, b2, g2):
    for system in (a2, b2, g2):
        assert defect(KottwitzClass.zero(system), sid(system)) == 0


def test_defect_gcd_battery():
    result = audit.check_defect_gcd_type_a(6)
    assert result.passed, result.counterexample


def test_dim_shrunken_example(a2):
    # length 5, eta = w0 of length 3, defect 0: dimension (5 + 3)/2 = 4
    x = parse_affine(a2, "t[-2,1] s1")
    profile = AlcoveProfile.build(x, sid(a2))
    assert x.length == 5 and profile.shrunken and profile.eta.length == 3
    assert dim_shrunken(profile, KottwitzClass.zero(a2)) == 4


def test_dim_shrunken_undefined_cases(a2):
    zero = KottwitzClass.zero(a2)
    not_shrunken = AffineElement.identity(a2)
    assert dim_shrunken(AlcoveProfile.build(not_shrunken, sid(a2)), zero) is None
    empty = AffineElement.from_translation(a2, (1, 1))  # shrunken but empty
    assert dim_shrunken(AlcoveProfile.build(empty, sid(a2)), zero) is None


def test_dim_parity_guard(a2, monkeypatch):
    import adlv.criterion as criterion

    x = parse_affine(a2, "t[-2,1] s1")
    monkeypatch.setattr(criterion, "defect", lambda k, s: 1)
    with pytest.raises(InternalCheckError):
        criterion.dim_shrunken(AlcoveProfile.build(x, sid(a2)), KottwitzClass.zero(a2))


def test_dim_one_strip_example(a2):
    zero = KottwitzClass.zero(a2)
    found = 0
    for x in enumerate_affine(a2, 9):
        profile = AlcoveProfile.build(x, sid(a2))
        value = dim_one_strip_rank2(profile, zero)
        if value is None:
            continue
        found += 1
        (alpha_x,) = profile.phi_x
        s_x = FiniteWeylElement.simple(a2, alpha_x.index(1))
        eta = profile.eta
        epsilon = 1 if eta == longest_element(a2) else 0
        expected = (x.length + min(eta.length, (s_x * eta * s_x).length)) // 2 - epsilon
        assert value == expected
    assert found > 0


def test_dim_one_strip_epsilon_one(b2):
    # the longest-element case first occurs in B2: correction term applies
    zero = KottwitzClass.zero(b2)
    w0 = longest_element(b2)
    x = parse_affine(b2, "t[2,-1] s2 s1 s2 s1")
    profile = AlcoveProfile.build(x, sid(b2))
    assert profile.eta == w0 and len(profile.phi_x) == 1
    value = dim_one_strip_rank2(profile, zero)
    base = (x.length + min(w0.length, _conj_length(b2, profile))) // 2
    assert value == base - 1 == 3


def test_dim_one_strip_epsilon_zero(a2):
    zero = KottwitzClass.zero(a2)
    w0 = longest_element(a2)
    saw_other = False
    for x in enumerate_affine(a2, 10):
        profile = AlcoveProfile.build(x, sid(a2))
        value = dim_one_strip_rank2(profile, zero)
        if value is None:
            continue
        assert profile.eta != w0  # the correction never triggers here
        base = (x.length + min(profile.eta.length, _conj_length(a2, profile))) // 2
        assert value == base
        saw_other = True
    assert saw_other


def _conj_length(system, profile):
    (alpha_x,) = profile.phi_x
    s_x = FiniteWeylElement.simple(system, alpha_x.index(1))
    return (s_x * profile.eta * s_x).length


def _c2_dim_recursion():
    system = RootSystem.from_descriptor("C2")
    target = parse_affine(system, "t[2,-2] s2 s1 s2 s1")
    return target, lambda: audit.check_dim_recursion_consistency(
        system, sid(system), KottwitzClass.zero(system), 8)


def test_dim_recursion_detects_a_wrong_seed(monkeypatch):
    """Shrunken values at length 4 raised by one contradict the dimension the
    recursion gives a length-6 element."""
    target, check = _c2_dim_recursion()
    original = audit.dim_shrunken

    def raised(profile, b_kappa):
        value = original(profile, b_kappa)
        return value + 1 if value is not None and profile.x.length == 4 else value

    monkeypatch.setattr(audit, "dim_shrunken", raised)
    result = check()
    assert not result.passed
    assert result.detail == "propagation conflict"
    assert result.counterexample == {"error": f"{target!r}: 5 vs 6"}


def test_dim_recursion_detects_a_dimension_for_an_empty_element(monkeypatch):
    target, check = _c2_dim_recursion()
    original = audit.decide_nonempty

    def lying(x, *args):
        verdict = original(x, *args)
        return Verdict(False, verdict.rule, verdict.witnesses) if x == target else verdict

    monkeypatch.setattr(audit, "decide_nonempty", lying)
    result = check()
    assert not result.passed
    assert result.detail == "propagation conflict"
    assert result.counterexample == {
        "error": f"{target!r} is marked empty but got dimension 5"}


def test_dim_recursion_battery(a2):
    result = audit.check_dim_recursion_consistency(
        a2, sid(a2), KottwitzClass.zero(a2), 8)
    assert result.passed, result.counterexample


# -- type A generic elements and diagnostics ------------------------------------------


def _type_a_generic(x) -> bool:
    """Dominant part in the coroot lattice, with both end coroot coordinates
    above one."""
    coords = x.system.coroot_coordinates(dominant_decompose(x).mu)
    return all(c.denominator == 1 for c in coords) and coords[0] > 1 and coords[-1] > 1


def test_anresult_elements_satisfy_equivalence(a2):
    sigma = sid(a2)
    checked = 0
    for x in enumerate_affine(a2, 12):
        if not kottwitz(x).is_zero() or not _type_a_generic(x):
            continue
        if not affine_sigma_support(x, sigma).full:
            continue
        kappa = kottwitz(x)
        assert decide_nonempty(x, kappa, sigma).nonempty == \
            oracle_nonempty(x, kappa, sigma).nonempty
        checked += 1
    assert checked > 0


def test_wronglem_battery():
    systems = []
    for descriptor in ["A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]:
        system = RootSystem.from_descriptor(descriptor)
        systems.append((system, DiagramAutomorphism.identity(system)))
    a3 = RootSystem.from_descriptor("A3")
    systems.append((a3, DiagramAutomorphism(a3, (2, 1, 0))))
    pair_sum = RootSystem.from_descriptor("A1+A1")
    systems.append((pair_sum, DiagramAutomorphism(pair_sum, (1, 0))))
    result = audit.check_wronglem_search(systems)
    assert result.passed, result.counterexample


def test_reflection_identity_battery(a2, b2, a3):
    # exhaustive at the stated ranges: length <= 4, coordinates <= 3, rank <= 3
    assert audit.check_reflection_coweight_identity(a2, 4, 3).passed
    assert audit.check_reflection_coweight_identity(b2, 4, 3).passed
    assert audit.check_reflection_coweight_identity(a3, 4, 3).passed


def test_coweight_difference_battery(a2, b2, a3):
    assert audit.check_coweight_difference_span(a2).passed
    assert audit.check_coweight_difference_span(b2).passed
    assert audit.check_coweight_difference_span(a3).passed


def test_conjecture_audit_informational(a2):
    result = audit.check_conjecture_audit(a2, sid(a2), 4)
    assert result.passed and result.informational
    # the identity element is a known disagreement outside the hypothesis
    assert result.counterexample and "e" in result.counterexample["candidates"]


def test_direct_sum_with_component_swap():
    system = RootSystem.from_descriptor("A2+A2")
    from adlv.notation import parse_sigma

    swap = parse_sigma(system, "(1 3)(2 4)")
    result = audit.check_criterion_oracle_equivalence(system, swap, 3)
    assert result.passed, result.counterexample
    result = audit.check_shortcut_precondition_central(system, swap, 3)
    assert result.passed, result.counterexample


def test_product_factor_semantics():
    """Non-sigma-connected sums decide factor by factor."""
    from adlv.criterion import shortcut_applies

    system = RootSystem.from_descriptor("A1+A1")
    sigma = sid(system)
    # (identity, noncentral translation): the second factor is empty
    x = parse_affine(system, "t[0,2]")
    assert not shortcut_applies(x, sigma)
    assert not decide_nonempty(x, kottwitz(x), sigma).nonempty
    # (identity, nonempty shrunken element): both factors nonempty
    y = parse_affine(system, "t[0,-1] s2")
    assert decide_nonempty(y, kottwitz(y), sigma).nonempty
    # (identity, identity): finite support in both factors, shortcut applies
    e = AffineElement.identity(system)
    assert shortcut_applies(e, sigma)
    assert decide_nonempty(e, kottwitz(e), sigma).rule == RULE_SHORTCUT
    # the two deciders agree wherever the oracle applies
    result = audit.check_criterion_oracle_equivalence(system, sigma, 5)
    assert result.passed, result.counterexample


def test_one_strip_check_skips_rank_one(a1):
    result = audit.check_one_strip_two_support(a1, sid(a1), 6)
    assert result.passed and "skipped" in result.detail


def test_class_point_order(a2):
    sigma = sid(a2)
    basic = class_point(AffineElement.identity(a2), sigma)
    higher = class_point(AffineElement.from_translation(a2, (1, 1)), sigma)
    assert basic.leq(higher) and not higher.leq(basic)
    assert basic.leq(basic)
