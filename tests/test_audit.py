"""The battery's run memo, its checks shown able to fail, and the audit's
integer barycenter floors."""

import dataclasses
import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import adlv
from adlv import _linalg, audit
from adlv.alcove import AlcoveProfile, barycenter, scaled_barycenter
from adlv.cartan import RootSystem
from adlv.criterion import Verdict, sigma_stable_subsets, translation_length
from adlv.errors import InternalCheckError
from adlv.iwahori import KottwitzClass, NewtonPoint, enumerate_affine
from adlv.notation import parse_sigma
from adlv.weyl import DiagramAutomorphism, FiniteWeylElement, longest_element


def sid(system):
    return DiagramAutomorphism.identity(system)


def _floor(value) -> int:
    f = Fraction(value)
    return f.numerator // f.denominator


def _separating_count_by_fractions(x) -> int:
    """The separation count through the Fraction barycenters and their floors."""
    system = x.system
    origin = system.base_alcove_barycenter()
    moved = x.act_on_point(origin)
    return sum(abs(_floor(system.pair(a, moved)) - _floor(system.pair(a, origin)))
               for a in system.positive_roots)


@pytest.mark.parametrize("descriptor,bound", [("A2", 6), ("G2", 6), ("B3", 3), ("A2+A1", 3)])
def test_integer_barycenter_floor_matches_the_fraction_floor(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    for x in enumerate_affine(system, bound):
        scale, point = scaled_barycenter(x)
        rational = barycenter(x)
        assert point == tuple(scale * c for c in rational), x
        for a in system.all_roots:
            assert system.pair(a, point) // scale == _floor(system.pair(a, rational)), (x, a)
        assert audit.separating_hyperplane_count(x) == _separating_count_by_fractions(x), x


def _count_audit_builds(monkeypatch) -> Counter:
    """Count ``AlcoveProfile.build`` calls made from ``adlv.audit`` itself,
    per (x, sigma); ``bgx_cordial`` builds its own and is not counted."""
    original = AlcoveProfile.build.__func__
    builds = Counter()

    def counting(cls, x, sigma):
        if sys._getframe(1).f_globals["__name__"] == "adlv.audit":
            builds[x.key(), sigma.perm] += 1
        return original(cls, x, sigma)

    monkeypatch.setattr(AlcoveProfile, "build", classmethod(counting))
    return builds


def _count_walks(monkeypatch) -> Counter:
    """Count the audit's ``enumerate_affine`` walks per length bound."""
    original = audit.enumerate_affine
    walks = Counter()

    def counting(system, bound, *args):
        walks[bound] += 1
        return original(system, bound, *args)

    monkeypatch.setattr(audit, "enumerate_affine", counting)
    return walks


def test_run_battery_builds_each_profile_once_and_walks_each_range_once(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    builds = _count_audit_builds(monkeypatch)
    walks = _count_walks(monkeypatch)
    results = audit.run_battery(system, sid(system), 3, 1)
    assert all(r.passed for r in results)
    assert len(builds) == sum(1 for _ in enumerate_affine(system, 3))
    assert max(builds.values()) == 1
    assert walks == {3: 1}


def test_twisted_run_holds_one_profile_per_element_and_sigma(monkeypatch):
    """On a twisted run k-value-oracle and wx-structure read identity-sigma
    profiles, the other checks sigma's: each pair is built once."""
    system = RootSystem.from_descriptor("A3")
    builds = _count_audit_builds(monkeypatch)
    walks = _count_walks(monkeypatch)
    results = audit.run_battery(system, parse_sigma(system, "(1 3)"), 3, 1)
    assert all(r.passed for r in results)
    assert max(builds.values()) == 1
    assert {perm for _, perm in builds} == {(0, 1, 2), (2, 1, 0)}
    assert walks == {3: 1}


def test_second_run_builds_its_profiles_again(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    builds = _count_audit_builds(monkeypatch)
    audit.run_battery(system, sid(system), 3, 1)
    first = Counter(builds)
    builds.clear()
    audit.run_battery(system, sid(system), 3, 1)
    assert builds == first


def _track_profiles(monkeypatch) -> list:
    """Weak references to every profile the audit builds."""
    refs = []
    original_build = AlcoveProfile.build.__func__

    def tracking(cls, x, sigma):
        profile = original_build(cls, x, sigma)
        if sys._getframe(1).f_globals["__name__"] == "adlv.audit":
            refs.append(weakref.ref(profile))
        return profile

    monkeypatch.setattr(AlcoveProfile, "build", classmethod(tracking))
    return refs


def _assert_nothing_left(system, refs):
    """No run memo is set, and every tracked value is freed: the memo held
    the only references, and ``RootSystem.memo`` holds no profile."""
    assert audit._RUN.get() is None
    gc.collect()
    assert refs
    assert not [ref for ref in refs if ref() is not None]
    assert not any(isinstance(value, AlcoveProfile) for value in system.memo.values())


def test_run_memo_is_gone_after_the_run_returns(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    refs = _track_profiles(monkeypatch)
    results = audit.run_battery(system, sid(system), 3, 1)
    assert all(r.passed for r in results)
    _assert_nothing_left(system, refs)


def test_run_memo_is_gone_after_the_run_raises(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    refs = _track_profiles(monkeypatch)

    def failing(*args):
        raise RuntimeError("stop the battery")

    monkeypatch.setattr(audit, "check_wx_structure", failing)
    try:
        audit.run_battery(system, sid(system), 3, 1)
    except RuntimeError as exc:
        assert str(exc) == "stop the battery"
    else:
        pytest.fail("the battery did not raise")
    _assert_nothing_left(system, refs)


def test_direct_check_builds_its_own_profiles(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    builds = _count_audit_builds(monkeypatch)
    assert audit.check_strip_complement_radical_closed(system, 3).passed
    first = Counter(builds)
    assert audit.check_strip_complement_radical_closed(system, 3).passed
    assert builds == first + first


def _flipped_k_numbers(d):
    """``alcove.k_numbers`` with the direction convention flipped."""
    pairings = adlv.weyl.positive_pairings(d.v.system, d.v.act_on_coweight(d.mu))
    positive = (d.v * d.w).inverse_positive()
    return tuple(p - 1 if up else p for p, up in zip(pairings, positive))


def test_patched_profiles_do_not_outlive_the_patch(monkeypatch):
    """Profiles built under a broken k-value closed form, by a direct check
    and by a battery run, reach no later check on the same system."""
    system = RootSystem.from_descriptor("A2")

    with monkeypatch.context() as patch:
        patch.setattr(adlv.alcove, "k_numbers", _flipped_k_numbers)
        assert not audit.check_strip_complement_radical_closed(system, 4).passed
        with pytest.raises(adlv.errors.InternalCheckError):  # from jrx-postcondition
            audit.run_battery(system, sid(system), 3, 1)
    result = audit.check_dim_recursion_consistency(system, sid(system),
                                                   KottwitzClass.zero(system), 8)
    assert result.passed, result.counterexample
    assert all(r.passed for r in audit.run_battery(system, sid(system), 3, 1))


def test_run_battery_calls_each_check_through_the_module(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    sentinel = audit.CheckResult("k-value-oracle", True, "replaced")
    monkeypatch.setattr(audit, "check_k_value_oracle", lambda *args: sentinel)
    results = audit.run_battery(system, sid(system), 1, 1)
    assert sum(r is sentinel for r in results) == 1


def _count_newtons(monkeypatch) -> Counter:
    """Count the audit's ``newton`` calls per (x, sigma, multiple)."""
    original = audit.newton
    calls = Counter()

    def counting(x, sigma, force_multiple=1):
        calls[x.key(), sigma.perm, force_multiple] += 1
        return original(x, sigma, force_multiple)

    monkeypatch.setattr(audit, "newton", counting)
    return calls


@pytest.mark.parametrize("descriptor,sigma_text,bound,distinct", [
    ("A2", "id", 3, 215), ("G2", "id", 4, 101), ("A3", "(1 3)", 3, 595)])
def test_run_battery_computes_each_newton_point_once(monkeypatch, descriptor, sigma_text,
                                                     bound, distinct):
    """One call per distinct (x, sigma, multiple); the checks ask 1,654 times
    on A2, 515 on G2 and 4,005 on the twisted A3."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    calls = _count_newtons(monkeypatch)
    results = audit.run_battery(system, sigma, bound, 1)
    assert all(r.passed for r in results)
    assert max(calls.values()) == 1
    assert sum(calls.values()) == distinct
    assert {multiple for _, _, multiple in calls} == {1, 2}
    assert {perm for _, perm, _ in calls} == {sigma.perm}


def _newton_depending_on_the_power(monkeypatch):
    """Patch ``audit.newton`` so that the doubled power gives another point."""
    original = audit.newton

    def doubled_differs(x, sigma, force_multiple=1):
        point = original(x, sigma, force_multiple)
        if force_multiple == 1:
            return point
        return NewtonPoint(point.numerators, point.dominant_numerators,
                           point.denominator * force_multiple)

    monkeypatch.setattr(audit, "newton", doubled_differs)


def _newton_stability(results):
    (result,) = [r for r in results if r.check_id == "newton-stability"]
    return result


def test_run_memo_keeps_the_power_multiple(monkeypatch):
    """Within a run, the doubled power is its own entry: the check sees the
    patched point rather than the multiple-one point it already holds."""
    system = RootSystem.from_descriptor("A2")
    _newton_depending_on_the_power(monkeypatch)
    result = _newton_stability(audit.run_battery(system, sid(system), 3, 1))
    assert not result.passed
    assert result.detail == "vector depends on the power used"


def test_patched_newton_does_not_reach_a_later_run(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    with monkeypatch.context() as patch:
        _newton_depending_on_the_power(patch)
        assert not _newton_stability(audit.run_battery(system, sid(system), 3, 1)).passed
    assert all(r.passed for r in audit.run_battery(system, sid(system), 3, 1))
    assert audit.check_newton_stability(system, sid(system), 3).passed


def _track_newtons(monkeypatch) -> list:
    """Weak references to every Newton point the audit computes."""
    original = audit.newton
    refs = []

    def tracking(x, sigma, force_multiple=1):
        point = original(x, sigma, force_multiple)
        refs.append(weakref.ref(point))
        return point

    monkeypatch.setattr(audit, "newton", tracking)
    return refs


def test_newton_points_are_gone_after_the_run_returns(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    refs = _track_profiles(monkeypatch)
    points = _track_newtons(monkeypatch)
    assert all(r.passed for r in audit.run_battery(system, sid(system), 3, 1))
    assert len(points) == 215
    _assert_nothing_left(system, refs + points)


def test_newton_points_are_gone_after_the_run_raises(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    refs = _track_profiles(monkeypatch)
    points = _track_newtons(monkeypatch)

    def failing(*args):
        raise RuntimeError("stop the battery")

    monkeypatch.setattr(audit, "check_translation_elements", failing)
    with pytest.raises(RuntimeError, match="stop the battery"):
        audit.run_battery(system, sid(system), 3, 1)
    assert points
    _assert_nothing_left(system, refs + points)


def test_direct_check_computes_its_own_newton_points(monkeypatch):
    system = RootSystem.from_descriptor("A2")
    calls = _count_newtons(monkeypatch)
    assert audit.check_newton_stability(system, sid(system), 3).passed
    first = Counter(calls)
    assert max(first.values()) > 1  # no memo outside a run
    assert audit.check_newton_stability(system, sid(system), 3).passed
    assert calls == first + first


def test_vtmu_checks_share_one_element_list_and_bgx_reads_the_run_profiles(monkeypatch):
    """``vtmu-elements`` and ``bgx-formula-vs-alcove`` list the v t^mu
    elements once per run, and ``bgx_cordial`` builds no profile of its own."""
    system = RootSystem.from_descriptor("A2")
    original_coweights = audit._dominant_coweights
    listings = Counter()

    def counting(system, length_bound):
        listings[length_bound] += 1
        return original_coweights(system, length_bound)

    monkeypatch.setattr(audit, "_dominant_coweights", counting)
    original_build = AlcoveProfile.build.__func__
    outside = Counter()

    def building(cls, x, sigma):
        if sys._getframe(1).f_globals["__name__"] != "adlv.audit":
            outside[x.key()] += 1
        return original_build(cls, x, sigma)

    monkeypatch.setattr(AlcoveProfile, "build", classmethod(building))
    results = {r.check_id: r for r in audit.run_battery(system, sid(system), 3, 1)}
    assert listings == {3 + 3: 1}  # the bound plus A2's three positive roots
    assert results["vtmu-elements"].detail == "12 v t^mu elements verified"
    assert results["bgx-formula-vs-alcove"].detail == (
        "12 (v, mu) pairs: formula == alcove computation")
    assert not outside


def test_run_memo_keeps_makers_with_equal_arguments_apart():
    """``_elements`` and ``_vtmu_elements`` take the same (system, bound):
    within a run each keeps its own entry, made once."""
    system = RootSystem.from_descriptor("A2")
    memo = {}
    token = audit._RUN.set(memo)
    try:
        elements = audit._elements(system, 3)
        vtmu = audit._vtmu_elements(system, 3)
        assert audit._elements(system, 3) is elements
        assert audit._vtmu_elements(system, 3) is vtmu
    finally:
        audit._RUN.reset(token)
    assert len(memo) == 2
    assert elements == tuple(enumerate_affine(system, 3))
    assert len(vtmu) == 12 and all(x.length <= 3 for _, _, x in vtmu)


def _dominant_coweights_by_recursion(system, length_bound):
    """The nested recursion the product search replaced: extend a prefix one
    coordinate at a time, stopping a coordinate once the prefix, padded
    with zeros, is too long."""
    out = []

    def rec(prefix):
        if len(prefix) == system.rank:
            if translation_length(system, prefix) <= length_bound:
                out.append(tuple(prefix))
            return
        for c in range(length_bound + 1):
            cand = prefix + [c]
            partial = tuple(cand + [0] * (system.rank - len(cand)))
            if translation_length(system, partial) > length_bound:
                break
            rec(cand)

    rec([])
    return out


@pytest.mark.parametrize("descriptor", [
    "A1", "A2", "G2", "B2", "C2", "A1+A1", "A3", "B3", "C3", "D4", "A2+A1", "A4", "F4",
    "D5", "E6", "B4"])
def test_dominant_coweights_match_the_nested_recursion(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    for length_bound in range(25):
        assert audit._dominant_coweights(system, length_bound) == (
            _dominant_coweights_by_recursion(system, length_bound)), length_bound


# -- each check shown able to fail ---------------------------------------------------


def _changed(owner, name: str, change):
    """A break that passes each result of ``owner.name`` through
    ``change(result, *args)``."""
    def install(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: change(original(*args), *args))
    return install


def _always_full(letters, w, sigma):
    return frozenset(range(w.system.rank))


# check id -> (break, run on A2, the failing detail)
_BREAKS = {
    "inverse-cartan-positive": (
        _changed(_linalg, "invert",
                 lambda inverse, m: ((inverse[0][0] + 1,) + inverse[0][1:],) + inverse[1:]),
        lambda a2: audit.check_inverse_cartan_positive([a2]),
        "integer inverse differs from the Fraction inverse in A2"),
    "root-closure-counts": (
        _changed(audit, "classical_positive_count", lambda count, *args: count + 1),
        lambda a2: audit.check_root_closure_counts([a2]),
        "positive-root count mismatch"),
    "weyl-group-laws": (
        _changed(audit, "_product_by_matrix", lambda product, u, v: v * u),
        lambda a2: audit.check_weyl_group_laws(a2, sid(a2)),
        "product differs from the matrix product"),
    "length-hyperplane-oracle": (
        _changed(audit, "separating_hyperplane_count", lambda count, x: count + 1),
        lambda a2: audit.check_length_hyperplane_oracle(a2, 3),
        "formula disagrees with the separation count"),
    "kottwitz-homomorphism": (
        _changed(audit, "_omega_elements_by_sweep", lambda omegas, system: omegas[::-1]),
        lambda a2: audit.check_kottwitz_homomorphism(a2, 3),
        "minuscule Omega differs from the W0 sweep"),
    "newton-stability": (
        _newton_depending_on_the_power,
        lambda a2: audit.check_newton_stability(a2, sid(a2), 3),
        "vector depends on the power used"),
    "affine-support-fixed-point": (
        _changed(audit, "fixes_point_of_closed_base_alcove", lambda fixes, *args: not fixes),
        lambda a2: audit.check_affine_support_fixed_point(a2, sid(a2), 3),
        "finite-support test vs fixed-point test mismatch"),
    "k-value-oracle": (
        lambda monkeypatch: monkeypatch.setattr(adlv.alcove, "k_numbers", _flipped_k_numbers),
        lambda a2: audit.check_k_value_oracle(a2, 3),
        "walked decomposition or k-values differ from the closed form"),
    "strip-complement-radical-closed": (
        lambda monkeypatch: monkeypatch.setattr(adlv.alcove, "k_numbers", _flipped_k_numbers),
        lambda a2: audit.check_strip_complement_radical_closed(a2, 3),
        "complement of the strip set is not radical closed"),
    "wx-structure": (
        _changed(audit, "w_x_set_bruteforce",
                 lambda members, system, phi_x: members - {FiniteWeylElement.identity(system)}),
        lambda a2: audit.check_wx_structure(a2, 3),
        "breadth-first set differs from the brute-force filter"),
    "criterion-oracle-equivalence": (
        _changed(audit, "oracle_nonempty",
                 lambda verdict, *args: Verdict(not verdict.nonempty, verdict.rule, {})),
        lambda a2: audit.check_criterion_oracle_equivalence(a2, sid(a2), 3),
        "criterion and oracle disagree"),
    "bgx-formula-vs-alcove": (
        _changed(audit, "_w_x_by_stabilizer",
                 lambda members, v, mu: members - {FiniteWeylElement.identity(v.system)}),
        lambda a2: audit.check_bgx_formula(a2, sid(a2), 3),
        "formula set differs from the alcove set"),
    "defect-gcd-type-a": (
        _changed(audit, "defect", lambda value, *args: value + 1),
        lambda a2: audit.check_defect_gcd_type_a(3),
        "fixed-space defect differs from the gcd formula"),
    "dim-recursion-consistency": (
        _changed(audit, "dim_shrunken",
                 lambda value, *args: value if value is None else value + 1),
        lambda a2: audit.check_dim_recursion_consistency(a2, sid(a2), KottwitzClass.zero(a2), 6),
        "single-strip formula disagrees with propagation"),
    "reflection-coweight-identity": (
        _changed(audit, "reduced_word", lambda word, w: word[::-1]),
        audit.check_reflection_coweight_identity,
        "identity fails"),
    "coweight-difference-support-span": (
        _changed(audit, "support", lambda letters, w: frozenset()),
        audit.check_coweight_difference_span,
        "difference leaves the support span"),
    "radical-closed-positivizable": (
        _changed(audit, "subset_predicates",
                 lambda props, *args: dataclasses.replace(props, radical=False)),
        lambda a2: audit.check_radical_closed_positivizable(a2, 1),
        "generator produced a non-radical-closed set"),
    "sandwich-positivizer-postcheck": (
        _changed(audit, "sandwich_positivizer", lambda w, system, *args: longest_element(system)),
        lambda a2: audit.check_sandwich_postcondition(a2, 1),
        "witness fails an inclusion"),
    "wronglem-search": (
        lambda monkeypatch: monkeypatch.setattr(
            audit, "sigma_stable_subsets",
            lambda system, sigma, proper_only: sigma_stable_subsets(system, sigma, False)),
        lambda a2: audit.check_wronglem_search([(a2, sid(a2))]),
        "nonzero dominant coweight in a proper span"),
    "parabolic-newton-difference": (
        _changed(audit, "_newton_difference_span",
                 lambda span, x, sigma: frozenset(range(x.system.rank))),
        lambda a2: audit.check_parabolic_newton_difference(a2, sid(a2), 3),
        "difference leaves the J-span"),
    "vtmu-elements": (
        _changed(audit, "sigma_support", _always_full),
        lambda a2: audit.check_vtmu_elements(a2, sid(a2), 3),
        "criterion differs from the all-supports test"),
    "shrunken-specialization": (
        _changed(audit, "sigma_support", _always_full),
        lambda a2: audit.check_shrunken_specialization(a2, sid(a2), 3),
        "criterion differs from the single support test"),
    "one-strip-two-support": (
        _changed(audit, "sigma_support", lambda letters, w, sigma: frozenset()),
        lambda a2: audit.check_one_strip_two_support(a2, sid(a2), 3),
        "two-support test disagrees with the criterion"),
    "shortcut-precondition-central": (
        _changed(audit, "shortcut_applies", lambda applies, *args: True),
        lambda a2: audit.check_shortcut_precondition_central(a2, sid(a2), 3),
        "finite-support element with noncentral Newton point"),
    "oracle-reduction-vs-literal": (
        _changed(audit, "_violated_supports", lambda mask, profile, w: 0),
        lambda a2: audit.check_oracle_reduction_vs_literal(a2, sid(a2), 3),
        "reduction disagrees with the literal conditions"),
    "translation-elements": (
        _changed(audit, "newton", lambda point, *args: point if not point.is_central() else
                 NewtonPoint(point.numerators, (1,) * len(point.numerators), point.denominator)),
        lambda a2: audit.check_translation_elements(a2, sid(a2), 3),
        "translation verdict differs from centrality"),
}

# check id -> (break, run on A2, the message of the InternalCheckError raised):
# a check that reports its failure by raising
_RAISES = {
    "jrx-postcondition": (
        _changed(adlv.criterion, "is_jw_alcove", lambda is_alcove, *args: False),
        lambda a2: audit.check_jrx_postcondition(a2, sid(a2), 3),
        "x is not a (J_{r,x}, v_x r^{-1})-alcove"),
}

# conjecture-audit is informational and always passes
_NOT_YET_BROKEN = {"conjecture-audit"}


@pytest.mark.parametrize("check_id", sorted(_BREAKS))
def test_check_fails_when_its_reference_is_broken(monkeypatch, check_id):
    install, run, detail = _BREAKS[check_id]
    system = RootSystem.from_descriptor("A2")
    install(monkeypatch)
    result = run(system)
    assert result.check_id == check_id
    assert result.passed is False
    assert result.detail == detail


@pytest.mark.parametrize("check_id", sorted(_RAISES))
def test_check_raises_when_its_postcondition_is_broken(monkeypatch, check_id):
    install, run, message = _RAISES[check_id]
    system = RootSystem.from_descriptor("A2")
    install(monkeypatch)
    with pytest.raises(InternalCheckError) as raised:
        run(system)
    assert str(raised.value) == message


def test_every_battery_check_is_shown_failing_or_listed():
    system = RootSystem.from_descriptor("A2")
    battery = {r.check_id for r in audit.run_battery(system, sid(system), 1, 1)}
    shown = [set(_BREAKS), set(_RAISES), _NOT_YET_BROKEN]
    assert sum(map(len, shown)) == len(set().union(*shown))
    assert set().union(*shown) == battery
