"""Alcove geometry: k-values, decomposition, eta, strip sets, embedding sets."""

import math
import pickle

import pytest

from adlv import audit
from adlv.alcove import (
    AlcoveProfile,
    barycenter,
    base_k,
    dominant_decompose,
    walk_profiles,
)
from adlv.audit import w_x_set_bruteforce
from adlv.cartan import RootSystem
from adlv.criterion import decide_nonempty
from adlv.iwahori import AffineElement, enumerate_affine, kottwitz, walk_affine
from adlv.notation import format_affine, parse_affine, parse_sigma
from adlv.weyl import DiagramAutomorphism, FiniteWeylElement, _intern, enumerate_w0


def sid(system):
    return DiagramAutomorphism.identity(system)


def profile_of(x, sigma=None):
    return AlcoveProfile.build(x, sigma or sid(x.system))


def test_k_value_base_alcove(a2):
    k_values = profile_of(AffineElement.identity(a2)).k_values
    for a in a2.positive_roots:
        assert k_values[a] == 0
        assert k_values[a2.negate(a)] == -1


def test_k_value_translation_example(a2):
    # x = t^{alpha_1^v}; the barycenter oracle gives floor <alpha_1, x(p)> = 2
    x = AffineElement.from_translation(a2, a2.cartan_matrix[0])
    point = barycenter(x)
    pairing = a2.pair((1, 0), point)
    assert pairing.numerator // pairing.denominator == 2
    assert profile_of(x).k_values[(1, 0)] == 2


@pytest.mark.parametrize("descriptor,bound", [("A2", 6), ("B2", 6), ("G2", 5), ("A3", 8)])
def test_k_value_oracle_battery(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    result = audit.check_k_value_oracle(system, bound)
    assert result.passed, result.counterexample


def test_dominant_decompose_examples(a2, a1):
    x = AffineElement.from_translation(a2, (2, 1))  # dominant regular
    d = dominant_decompose(x)
    assert d.v.is_identity() and d.mu == (2, 1) and d.w.is_identity()

    s1 = FiniteWeylElement.simple(a2, 0)
    d = dominant_decompose(AffineElement.from_finite(s1))
    assert d.v == s1 and d.mu == (0, 0) and d.w.is_identity()

    omega = parse_affine(a1, "t[1] s1")
    d = dominant_decompose(omega)
    assert d.v.is_identity() and d.mu == (1,) and d.w == FiniteWeylElement.simple(a1, 0)


def test_dominant_decompose_unique_and_reassembles(b2):
    system = b2
    for x in enumerate_affine(system, 5):
        d = dominant_decompose(x)
        assert system.is_dominant(d.mu)
        rebuilt = (AffineElement.from_finite(d.v)
                   * AffineElement.from_translation(system, d.mu)
                   * AffineElement.from_finite(d.w))
        assert rebuilt == x
        point = barycenter(x)
        candidates = [
            v for v in enumerate_w0(system)
            if all(c > 0 for c in v.inverse().act_on_coweight(point))
        ]
        assert candidates == [d.v]


def test_eta_examples(a2, a1):
    sigma2 = sid(a2)
    x = AffineElement.from_translation(a2, (1, 2))
    assert profile_of(x, sigma2).eta.is_identity()
    s1 = FiniteWeylElement.simple(a2, 0)
    assert profile_of(AffineElement.from_finite(s1), sigma2).eta == s1
    omega = parse_affine(a1, "t[1] s1")
    assert profile_of(omega).eta == FiniteWeylElement.simple(a1, 0)


def test_eta_twisted(a3, a3_flip):
    # x = s1 as an alcove: v = s1, w = e, so eta is independent of sigma here
    s1 = FiniteWeylElement.simple(a3, 0)
    assert profile_of(AffineElement.from_finite(s1), a3_flip).eta == s1
    # x = t^mu s1 with mu dominant regular: v = e, w = s1, eta = sigma^{-1}(s1) = s3
    x = AffineElement.from_translation(a3, (1, 1, 1)) * AffineElement.from_finite(s1)
    assert profile_of(x, a3_flip).eta == FiniteWeylElement.simple(a3, 2)


def test_phi_x_examples(a2):
    identity = AffineElement.identity(a2)
    assert profile_of(identity).phi_x == frozenset(a2.positive_roots)
    deep = profile_of(AffineElement.from_translation(a2, (2, 2)))
    assert deep.phi_x == frozenset()
    assert deep.shrunken
    one_strip = parse_affine(a2, "t[-2,1] s2")
    assert profile_of(one_strip).phi_x == {(1, 0)}
    assert sum((1, 0)) == 1  # the strip root is simple


def test_w_x_examples(a2):
    identity_w = FiniteWeylElement.identity(a2)
    deep = AffineElement.from_translation(a2, (2, 2))
    assert profile_of(deep).w_x == (identity_w,)
    one_strip = parse_affine(a2, "t[-2,1] s2")
    assert profile_of(one_strip).w_x == (identity_w, FiniteWeylElement.simple(a2, 0))
    assert profile_of(AffineElement.identity(a2)).w_x == enumerate_w0(a2)


@pytest.mark.parametrize("descriptor,bound", [("A2", 6), ("B2", 5), ("A3", 4)])
def test_w_x_bfs_equals_bruteforce(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    for x in enumerate_affine(system, bound):
        profile = profile_of(x)
        assert profile.w_x == tuple(sorted(w_x_set_bruteforce(system, profile.phi_x),
                                           key=FiniteWeylElement.sort_key))


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("G2", "id", 8), ("B3", "id", 4), ("D4", "id", 3), ("A3", "(1 3)", 4),
])
def test_w_x_and_decomposition_match_references(descriptor, sigma_text, bound):
    """Inversion-set growth (memoized per phi_x) against the W0 filter, and the
    integer dominant decomposition against the rational barycenter route."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    by_phi_x = {}
    count = 0
    for x in enumerate_affine(system, bound):
        profile = AlcoveProfile.build(x, sigma)
        assert profile.w_x == tuple(sorted(w_x_set_bruteforce(system, profile.phi_x),
                                           key=FiniteWeylElement.sort_key))
        assert by_phi_x.setdefault(profile.phi_x, profile.w_x) is profile.w_x
        assert profile.decomposition == audit._dominant_decompose_by_barycenter(x)
        count += 1
    assert len(by_phi_x) < count  # some phi_x repeats, so sharing was exercised


@pytest.mark.parametrize("descriptor,element", [
    ("B3", "e"), ("B3", "t[1,0,0] s1"), ("B3", "t[0,1,-1] s2 s3"),
    ("D4", "e"), ("D4", "t[1,0,0,0] s2"), ("G2", "t[-1,1] s2"),
])
def test_w_x_interns_only_members(descriptor, element):
    system = RootSystem.from_descriptor(descriptor)
    profile = AlcoveProfile.build(parse_affine(system, element), sid(system))
    profile.phi_x  # everything W_x reads is computed before counting
    before = len(system.memo[_intern])
    members = profile.w_x
    assert len(system.memo[_intern]) - before <= len(members) + system.rank


def test_strips_examples(a2):
    identity = profile_of(AffineElement.identity(a2))
    assert set(identity.strips) == set(a2.positive_roots)
    assert len(identity.strips) == 3  # one band per positive root
    assert not identity.shrunken
    deep = AffineElement.from_translation(a2, (2, 2))
    assert profile_of(deep).strips == ()


def test_strips_match_phi_x_via_v(a2):
    sigma = sid(a2)
    for x in enumerate_affine(a2, 6):
        profile = AlcoveProfile.build(x, sigma)
        expected = set()
        for alpha in profile.phi_x:
            image = profile.v.act_on_root(alpha)
            expected.add(image if sum(image) > 0 else a2.negate(image))
        assert set(profile.strips) == expected


@pytest.mark.parametrize("descriptor,bound", [("A2", 8), ("B2", 8), ("G2", 8), ("A3", 5)])
def test_strip_complement_radical_closed(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    result = audit.check_strip_complement_radical_closed(system, bound)
    assert result.passed, result.counterexample


@pytest.mark.parametrize("descriptor,bound", [("A2", 8), ("B2", 6), ("A3", 4)])
def test_wx_structure_battery(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    result = audit.check_wx_structure(system, bound)
    assert result.passed, result.counterexample


def test_left_closedness_direct(g2):
    for x in enumerate_affine(g2, 6):
        members = profile_of(x).w_x
        for w in members:
            for i in range(g2.rank):
                s = FiniteWeylElement.simple(g2, i)
                if (s * w).length < w.length:
                    assert s * w in members


def test_profile_k_values_match_function(b2):
    """The closed form against the floor of <a, barycenter of x(base)>."""
    sigma = sid(b2)
    for x in enumerate_affine(b2, 4):
        profile = AlcoveProfile.build(x, sigma)
        point = barycenter(x)
        for a in b2.all_roots:
            assert profile.k_values[a] == math.floor(b2.pair(a, point))


def k_values_by_roots(profile):
    """Reference k-values: the closed form on root tuples, every root keyed."""
    system = profile.system
    v_inv_images = profile.v.inverse().positive_images()
    vw_inv_positive = (profile.v * profile.w).inverse_positive()
    out = {}
    for idx, alpha in enumerate(system.positive_roots):
        pairing = sum(a * m for a, m in zip(v_inv_images[idx], profile.mu))
        out[alpha] = pairing + (0 if vw_inv_positive[idx] else -1)
        out[system.negate(alpha)] = -pairing + (-1 if vw_inv_positive[idx] else 0)
    return out


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("G2", "id", 8), ("B3", "id", 4), ("D4", "id", 3), ("A3", "(1 3)", 4),
])
def test_root_number_k_values_match_root_dict(descriptor, sigma_text, bound):
    """Phi_x, the strips and the roots below the base alcove, read off the
    k-values by root number, against their definitions on a dict of roots."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    for x in enumerate_affine(system, bound):
        profile = AlcoveProfile.build(x, sigma)
        k = k_values_by_roots(profile)
        assert profile.k_values == k
        assert profile.phi_x == frozenset(
            alpha for alpha, image in zip(system.positive_roots, profile.v.positive_images())
            if k[image] == base_k(system, image))
        assert profile.strips == tuple(beta for beta in system.positive_roots if k[beta] == 0)
        table = profile.below_table
        assert set(table) <= {0, 1} and not any(table[len(system.all_roots):])
        assert {a for a, flag in zip(system.all_roots, table) if flag} == {
            a for a, value in k.items() if value < base_k(system, a)}


WALKED_FIELDS = ("v", "mu", "w", "k_numbers", "kappa", "affine_support", "phi_x", "below_table")


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("A2", "id", 9), ("G2", "id", 11), ("B3", "id", 5), ("C3", "id", 4), ("F4", "id", 2),
    ("D4", "id", 3), ("A2+A1", "id", 4), ("A3", "id", 2), ("A3", "(1 3)", 4),
    ("A4", "(1 4)(2 3)", 3), ("D4", "(1 3 4)", 3), ("A2+A2", "(1 3)(2 4)", 3),
])
def test_walked_profiles_equal_closed_forms(descriptor, sigma_text, bound):
    """Each profile carried from its parent across one wall against
    ``AlcoveProfile.build`` of the same element, on simply- and
    non-simply-laced, reducible and twisted systems."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    walked = list(walk_profiles(system, sigma, bound))
    assert [p.x for p in walked] == list(enumerate_affine(system, bound))
    for profile in walked:
        closed = AlcoveProfile.build(profile.x, sigma)
        for field in WALKED_FIELDS:
            assert getattr(profile, field) == getattr(closed, field), (profile.x, field)


def test_walk_edges_cross_one_wall(g2):
    """Each edge's wall H_{beta, c} separates the two alcoves: the parent's
    and the child's k-values at beta are c - 1 and c, in some order, and the
    child is one longer."""
    levels = {}
    sigma = sid(g2)
    for edge in walk_affine(g2, 8):
        levels.setdefault(edge.x.length, []).append(edge.x)
        if edge.parent is None:
            continue
        parent = levels[edge.x.length - 1][edge.parent]
        beta = g2.positive_roots[edge.root]
        pair = {profile_of(parent, sigma).k_values[beta], profile_of(edge.x, sigma).k_values[beta]}
        assert pair == {edge.level - 1, edge.level}
        assert edge.x.length == parent.length + 1


@pytest.mark.parametrize("element", ["t[-1,1,0] s2 s3 s1", "t[1,0,1] s1 s2", "s1"])
def test_pickle_round_trip_rebuilds_one_system(element):
    """A class, an element, sigma, a profile (with its derived fields filled)
    and a verdict, pickled together, come back in one new system and decide
    there as the originals do."""
    system = RootSystem.from_descriptor("A3")
    sigma = parse_sigma(system, "(1 3)")
    x = parse_affine(system, element)
    profile = AlcoveProfile.build(x, sigma)
    profile.w_x, profile.below_table, profile.eta  # fill derived fields before the copy
    kappa = kottwitz(x)
    verdict = decide_nonempty(x, kappa, sigma, profile)
    copied = pickle.loads(pickle.dumps((kappa, x, sigma, profile, verdict)))
    kappa2, x2, sigma2, profile2, verdict2 = copied
    new = x2.system
    assert new is not system
    assert {id(kappa2.system), id(sigma2.system), id(profile2.system), id(profile2.x.system),
            id(profile2.v.system), id(profile2.kappa.system)} == {id(new)}
    assert all(r.system is new for r in profile2.w_x)
    assert x2 != x and kappa2 != kappa  # equal only to values of the same load
    assert kottwitz(x2) == profile2.kappa == kappa2
    assert format_affine(x2 * x2) == format_affine(x * x)
    assert format_affine(x2.inverse() * x2) == "e"
    assert profile2.k_numbers == profile.k_numbers and profile2.w_x_size == profile.w_x_size
    again = decide_nonempty(x2, kappa2, sigma2)
    assert again == verdict2
    assert (again.nonempty, again.rule) == (verdict.nonempty, verdict.rule)
    assert pickle.loads(pickle.dumps(x)).system is not new  # each load its own system
