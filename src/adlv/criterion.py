"""Nonemptiness of single affine Deligne-Lusztig varieties, basic case.

Two independent deciders are provided and cross-checked:

- ``decide_nonempty``: the sigma-support test over the embedding set W_x
  (the profile's, in ``sort_key`` order), with the class-mismatch
  obstruction and the finite-affine-support shortcut applied first (on a
  sigma-connected diagram the shortcut fires exactly when the affine
  sigma-support is not full; reducible sums are decided factor by factor);
- ``oracle_nonempty``: the Levi-avoidance scan — x is nonempty iff it is
  not a (J, w)-alcove for any proper sigma-stable J (Görtz-He-Nie,
  "P-alcoves and nonemptiness of affine Deligne-Lusztig varieties", Ann.
  Sci. ENS 48, 2015) — asserted only when the affine sigma-support of x is
  full.  It scans the minimal coset representatives W^J of the maximal
  proper sigma-stable J, which the inversion-set walk
  ``weyl.embedding_order`` lists from the positive roots outside Phi_J+,
  skipping each J that the dimension of the space fixed by x_fin sigma
  rules out, so a nonempty verdict never lists W0; its ``pairs_scanned``
  is the formula |W0| x (number of proper sigma-stable J).  The scan over
  all of W0 is kept as a reference in ``adlv.audit``.

Alongside: the (J, w)-alcove test itself and J_{r,x}; the class points
(Newton point, class invariant) and their bounded enumeration below a
dominant coweight; the generic-class report for cordial v*t^mu elements;
the fixed-space defect of a basic class; two closed dimension formulas,
for shrunken elements and for rank-2 single-strip elements (He's two-branch
recursion, which audits them, lives in
``adlv.audit.check_dim_recursion_consistency``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .alcove import AlcoveProfile, base_k
from .cartan import Root, RootSystem, per_system
from .errors import InternalCheckError
from .iwahori import (
    AffineElement,
    AffineSupport,
    KottwitzClass,
    affine_sigma_support,
    enumerate_affine,
    kottwitz,
    newton,
    omega_of_kottwitz,
)
from .weyl import (
    DiagramAutomorphism,
    FiniteWeylElement,
    act_on_numbers,
    embedding_order,
    longest_element,
    positive_pairings,
    positive_root_supports,
    product_support,
    require_w0_within_cap,
    weyl_matrix,
)

RULE_KOTTWITZ = "kottwitz-mismatch"
RULE_SHORTCUT = "shortcut-firstlemma"
RULE_CRITERION = "sigma-support-criterion"
RULE_ORACLE = "alcove-oracle"


@dataclass(frozen=True)
class Verdict:
    nonempty: bool
    rule: str
    witnesses: dict


@per_system
def sigma_component_groups(
    system: RootSystem, sigma: DiagramAutomorphism
) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """Sigma-orbits of the irreducible summands, as (finite indices, all
    affine-diagram node indices) pairs.  These are the factors over which the
    decision problem splits."""
    seen: set[int] = set()
    groups = []
    for start in range(len(system.components)):
        if start in seen:
            continue
        orbit, c = {start}, sigma.component_image(start)
        while c != start:  # sigma permutes the summands
            orbit.add(c)
            c = sigma.component_image(c)
        seen |= orbit
        finite = frozenset(i for c in orbit for i in system.components[c].indices)
        nodes = finite | frozenset(system.rank + c for c in orbit)
        groups.append((finite, nodes))
    return tuple(groups)


def shortcut_applies(x: AffineElement, sigma: DiagramAutomorphism,
                     support: AffineSupport | None = None) -> bool:
    """Whether the affine sigma-support generates a finite reflection group
    (misses a node in every factor), which forces a central Newton point and
    membership in the basic class.  ``support`` is the affine sigma-support
    of x, when the caller already has it."""
    letters = (affine_sigma_support(x, sigma) if support is None else support).letters
    return not any(
        nodes <= letters for _, nodes in sigma_component_groups(x.system, sigma)
    )


def decide_nonempty(
    x: AffineElement,
    b_kappa: KottwitzClass,
    sigma: DiagramAutomorphism,
    profile: AlcoveProfile | None = None,
) -> Verdict:
    """Decide nonemptiness against the basic class with invariant b_kappa.

    Order of rules: the class obstruction; then the shortcut when the affine
    sigma-support generates a finite group (such x are sigma-conjugate into
    the basic class); then the support test over every r in W_x.  The problem
    splits over the sigma-orbits of components: factors whose affine diagram
    is not fully supported are nonempty by the shortcut, the remaining ones
    each need their full support test.  For a sigma-connected diagram this is
    exactly the all-or-nothing rule.
    """
    if profile is None:
        profile = AlcoveProfile.build(x, sigma)
    kappa_x = profile.kappa
    if not kappa_x.same_coinvariant(b_kappa, sigma):
        return Verdict(False, RULE_KOTTWITZ, {
            "kappa_x": kappa_x, "kappa_b": b_kappa,
        })
    letters = profile.affine_support.letters
    active = [
        finite for finite, nodes in sigma_component_groups(x.system, sigma)
        if nodes <= letters
    ]
    if not active:
        return Verdict(True, RULE_SHORTCUT, {"affine_support": tuple(sorted(letters))})
    for r in profile.w_x:
        j_set = profile.j_rx(r)
        for finite in active:
            if not finite <= j_set:
                return Verdict(False, RULE_CRITERION, {"r": r, "j_rx": j_set})
    return Verdict(True, RULE_CRITERION, {"checked_r": profile.w_x})


# -- the (J, w)-alcove oracle -----------------------------------------------------


@per_system
def sigma_stable_subsets(
    system: RootSystem, sigma: DiagramAutomorphism, proper_only: bool = True
) -> tuple[frozenset[int], ...]:
    """All sigma-stable subsets of the simple indices (unions of orbits), sorted."""
    orbits = sorted({sigma.orbit(i) for i in range(system.rank)}, key=sorted)
    subsets = [frozenset()]
    for orbit in orbits:
        subsets += [s | orbit for s in subsets]
    if proper_only:
        subsets = [s for s in subsets if len(s) < system.rank]
    return tuple(sorted(subsets, key=lambda s: tuple(sorted(s))))


def is_jw_alcove(profile: AlcoveProfile, j_set: frozenset[int], w: FiniteWeylElement) -> bool:
    """Both defining conditions, literally: the twisted conjugate lands in the
    standard J-parabolic, and the k-values on w(positives outside J) dominate
    the base alcove's."""
    sigma = profile.sigma
    j_set = frozenset(j_set)
    if frozenset(sigma.index(i) for i in j_set) != j_set:
        raise ValueError(f"J = {sorted(j_set)} is not sigma-stable")
    return _is_jw_alcove_given(profile, j_set, w, _twisted_conjugate(profile.x, sigma, w))


def _twisted_conjugate(x: AffineElement, sigma: DiagramAutomorphism,
                      w: FiniteWeylElement) -> AffineElement:
    """w^{-1} x sigma(w), as group products."""
    return AffineElement.from_finite(w).inverse() * x * AffineElement.from_finite(sigma.weyl(w))


def _is_jw_alcove_given(profile: AlcoveProfile, j_set: frozenset[int], w: FiniteWeylElement,
                        twisted: AffineElement) -> bool:
    """``is_jw_alcove`` for a sigma-stable J, with ``twisted`` the twisted
    conjugate of x by w, which does not depend on J."""
    system = profile.system
    marker, outside = _parabolic_data(system, j_set)
    if twisted.finite.act_on_coweight(marker) != marker:
        return False
    k_values = profile.k_values
    for alpha in outside:
        a = w.act_on_root(alpha)
        if k_values[a] < base_k(system, a):
            return False
    return True


@per_system
def _parabolic_data(system: RootSystem, j_set: frozenset[int]
                    ) -> tuple[tuple[int, ...], tuple[Root, ...]]:
    """J's marker, the coweight with 0 at J and 1 elsewhere, which W_J fixes,
    and the positive roots outside Phi_J+, in ``positive_roots`` order."""
    marker = tuple(0 if i in j_set else 1 for i in range(system.rank))
    outside = tuple(alpha for alpha in system.positive_roots
                    if any(c for c, m in zip(alpha, marker) if m))
    return marker, outside


def _twisted_support(profile: AlcoveProfile, w: FiniteWeylElement) -> int:
    """Condition one as a bitmask (bit i for alpha_i): x meets it for J iff
    J holds the support of the twisted conjugate's finite part w^{-1} x_fin
    sigma(w) (the translation part plays no role), composed as root maps
    with sigma(w) = sigma w sigma^{-1}."""
    sigma = profile.sigma
    return product_support(w.inverse(), profile.x.finite, sigma, w, sigma.inverse())


@per_system
def _scan_plan(system: RootSystem, sigma: DiagramAutomorphism
               ) -> tuple[tuple[frozenset[int], int, int, frozenset, bytes], ...]:
    """Per proper sigma-stable J, in ``sigma_stable_subsets`` order: J, the
    bitmask of the indices outside J, the number of sigma-orbits there (one
    exactly for the maximal J), the positive roots outside Phi_J+, whose
    ``embedding_order`` is W^J, the minimal representatives of the cosets
    w W_J in ``sort_key`` order, and the numbers of those roots."""
    full = (1 << system.rank) - 1
    supports = positive_root_supports(system)
    plan = []
    for j_set in sigma_stable_subsets(system, sigma, True):
        outside = full & ~sum(1 << i for i in j_set)
        orbits = {sigma.orbit(i) for i in range(system.rank) if outside >> i & 1}
        numbers = bytes(n for n, mask in enumerate(supports) if mask & outside)
        roots = frozenset(map(system.all_roots.__getitem__, numbers))
        plan.append((j_set, outside, len(orbits), roots, numbers))
    return tuple(plan)


@per_system
def _fixed_dimension(system: RootSystem, sigma: DiagramAutomorphism,
                     x_fin: FiniteWeylElement) -> int:
    """dim of the coweights fixed by x_fin sigma, a sigma-conjugacy invariant
    of x_fin."""
    return _linalg.fixed_space_dimension(_linalg.mat_mul(weyl_matrix(x_fin), sigma.matrix()))


def oracle_nonempty(
    x: AffineElement,
    b_kappa: KottwitzClass,
    sigma: DiagramAutomorphism,
    profile: AlcoveProfile | None = None,
) -> Verdict:
    """Nonempty iff x is not a (J, w)-alcove for any proper sigma-stable J.

    Only asserted under its hypotheses: matching class invariant and full
    affine sigma-support.  A nonempty verdict scans the minimal coset
    representatives of the maximal proper sigma-stable J only; an empty one
    reports the first witness pair in (J, w) order.  See ``_oracle_scan``.
    """
    if profile is None:
        profile = AlcoveProfile.build(x, sigma)
    if not profile.kappa.same_coinvariant(b_kappa, sigma):
        raise ValueError("oracle precondition: class invariants must match")
    if not profile.affine_support.full:
        raise ValueError("oracle precondition: affine sigma-support must be full")
    return _oracle_scan(profile)


def _oracle_scan(profile: AlcoveProfile) -> Verdict:
    """The raw (J, w) scan, without the oracle's hypotheses, over minimal
    coset representatives.

    x is a (J, w)-alcove iff both conditions hold: no positive root outside
    Phi_J+ has its w-image below the base alcove (condition two: one
    ``bytes.translate`` of those roots' numbers through w and then through
    the profile's ``below_table``), and J holds ``_twisted_support``
    (condition one).  That test is monotone in J, and for sigma-stable J it
    depends only on the coset w W_J.  So some proper J admits some w iff a
    maximal proper J admits a w in W^J, and a nonempty verdict scans W^J for
    the maximal J alone, never listing W0.  An empty verdict walks J in
    ``sigma_stable_subsets`` order (only the J inside a maximal J that
    admits a w) over W^J, with the twisted part memoized per w, and reports
    the first hit: ``sort_key`` begins with length, so the first element of
    a union of cosets w W_J lies in W^J, and the pair is the one a scan of
    all of W0 would report.  The twisted part is computed only for the w
    that meet condition two.

    A J is skipped, maximal or not, when condition one cannot hold for it:
    u = w^{-1} x_fin sigma(w) in W_J fixes the fundamental coweights outside
    J, so u sigma, a conjugate of x_fin sigma, fixes one dimension per
    sigma-orbit outside J.  For sigma = 1, J = ∅ thus needs x_fin = 1; an
    elliptic x_fin sigma is decided without a scan.

    ``pairs_scanned`` of a nonempty verdict is the count of (J, w) pairs
    over all of W0, |W0| times the number of proper sigma-stable J, a
    formula.  Systems over ``W0_CAP`` are refused.
    """
    system, sigma = profile.system, profile.sigma
    require_w0_within_cap(system)
    fixed = _fixed_dimension(system, sigma, profile.x.finite)
    below = profile.below_table
    twisted: dict[bytes, int] = {}  # per w, condition one's bitmask

    def first_admitted(outside: int, roots: frozenset,
                       numbers: bytes) -> FiniteWeylElement | None:
        for w in embedding_order(system, roots):
            if 1 in act_on_numbers(w, numbers).translate(below):
                continue  # condition two fails
            letters = twisted.get(w.key)
            if letters is None:
                letters = twisted[w.key] = _twisted_support(profile, w)
            if not letters & outside:
                return w
        return None

    plan = [(j_set, outside, orbits, roots, numbers)
            for j_set, outside, orbits, roots, numbers in _scan_plan(system, sigma)
            if orbits <= fixed]
    admitting = [j_set for j_set, outside, orbits, roots, numbers in plan
                 if orbits == 1 and first_admitted(outside, roots, numbers)]
    if not admitting:
        pairs = system.weyl_order() * len(sigma_stable_subsets(system, sigma, True))
        return Verdict(True, RULE_ORACLE, {"pairs_scanned": pairs})
    for j_set, outside, _, roots, numbers in plan:
        if any(j_set <= m for m in admitting):
            w = first_admitted(outside, roots, numbers)
            if w is not None:
                return Verdict(False, RULE_ORACLE, {"j": j_set, "w": w})
    raise InternalCheckError("a maximal J admits a w but no J in the scan does")


def j_rx(profile: AlcoveProfile, r: FiniteWeylElement) -> frozenset[int]:
    """J_{r,x} for r in W_x; x is then a (J, v_x r^{-1})-alcove for this J
    (enforced as a postcondition).  Membership is the closed form
    N(r) ⊆ Phi_x: r keeps every positive root outside Phi_x positive."""
    if any(sum(image) < 0 and alpha not in profile.phi_x
           for alpha, image in zip(profile.system.positive_roots, r.positive_images())):
        raise ValueError("r is not in the embedding set W_x")
    j_set = profile.j_rx(r)
    if not is_jw_alcove(profile, j_set, profile.v * r.inverse()):
        raise InternalCheckError("x is not a (J_{r,x}, v_x r^{-1})-alcove")
    return j_set


# -- class points below a dominant coweight ---------------------------------------


@dataclass(frozen=True)
class SigmaConjClassPoint:
    """A class of the group, identified by (dominant Newton point, class invariant)."""

    system: RootSystem
    newton_dominant: tuple[Fraction, ...]
    kappa_coinv: tuple[Fraction, ...]

    def sort_key(self):
        # coroot height strictly increases along the partial order, so sorting
        # by it first makes the listing a linear extension
        height = sum(self.system.coroot_coordinates(self.newton_dominant), Fraction(0))
        return (height, self.newton_dominant, self.kappa_coinv)

    def leq(self, other: "SigmaConjClassPoint") -> bool:
        """Partial order: same invariant, Newton difference in the nonneg coroot cone."""
        if self.kappa_coinv != other.kappa_coinv:
            return False
        diff = tuple(b - a for a, b in zip(self.newton_dominant, other.newton_dominant))
        return all(c >= 0 for c in self.system.coroot_coordinates(diff))


def class_point(x: AffineElement, sigma: DiagramAutomorphism) -> SigmaConjClassPoint:
    return SigmaConjClassPoint(
        x.system,
        newton(x, sigma).dominant,
        kottwitz(x).coinvariant(sigma),
    )


def translation_length(system: RootSystem, mu) -> int:
    """length(t^mu) for dominant mu: the sum of all positive pairings."""
    return int(sum(system.pair(alpha, mu) for alpha in system.positive_roots))


def enumerate_b_g_mu(
    system: RootSystem,
    mu,
    sigma: DiagramAutomorphism,
    length_cap: int | None = None,
) -> tuple[SigmaConjClassPoint, ...]:
    """Distinct class points at most the class point of t^mu (same invariant,
    Newton point below the sigma-average of mu), collected from a
    length-capped scan of the group.

    The default length cap, length(t^mu), meets every class of B(G, mu): a
    class [b] contains a sigma-straight element, of length <nu_b, 2 rho>
    (He, "Geometric and homological properties of affine Deligne-Lusztig
    varieties", Ann. of Math. 179, 2014, section 3; He-Nie, "Minimal length
    elements of extended affine Weyl groups", Compos. Math. 150, 2014), and
    nu_b below the sigma-average of mu bounds that by <mu, 2 rho> =
    length(t^mu).  ``bgx_cordial`` audits the cap by doubling it.
    """
    if not system.is_dominant(mu) or not system.in_coweight_lattice(mu):
        raise ValueError("mu must be a dominant integral coweight")
    if length_cap is None:
        length_cap = translation_length(system, mu)
    target = KottwitzClass.from_translation(system, mu)
    top = class_point(AffineElement.from_translation(system, mu), sigma)
    points: set[SigmaConjClassPoint] = set()
    for y in enumerate_affine(system, length_cap):
        if not kottwitz(y).same_coinvariant(target, sigma):
            continue
        point = class_point(y, sigma)
        if point.leq(top):
            points.add(point)
    return tuple(sorted(points, key=lambda p: p.sort_key()))


# -- the generic-class report for v t^mu -------------------------------------------


@dataclass(frozen=True)
class BgxReport:
    x: AffineElement
    w_x_sorted: tuple[FiniteWeylElement, ...]  # W_x in sort_key order
    support_tests: tuple[tuple[FiniteWeylElement, frozenset[int], bool], ...]
    all_full: bool
    mu_central: bool
    conclusion: str  # "single-central-class" | "equals-b-g-mu" | "undetermined"
    points: tuple[SigmaConjClassPoint, ...] | None
    cap_stable: bool | None


def bgx_cordial(
    v: FiniteWeylElement, mu, sigma: DiagramAutomorphism,
    with_points: bool = True, profile: AlcoveProfile | None = None,
) -> BgxReport:
    """The embedding set of x = v t^mu, whose root set by the stabilizer/length-additivity
    formula must equal the alcove Phi_x, and the resulting class-set report.
    ``profile``, when given, is x's ``AlcoveProfile`` under sigma, built by the caller."""
    system = v.system
    if not system.is_dominant(mu) or not system.in_coweight_lattice(mu):
        raise ValueError("mu must be a dominant integral coweight")
    x = AffineElement.from_finite(v) * AffineElement.from_translation(system, mu)
    require_w0_within_cap(system)  # W_x can be all of W0 and has no budget of its own yet
    # r fixes mu iff N(r) is orthogonal to mu; the lengths add iff v keeps N(r) positive
    roots = frozenset(
        alpha for alpha, pairing, image in zip(
            system.positive_roots, positive_pairings(system, mu), v.positive_images())
        if not pairing and sum(image) > 0)
    if profile is None:
        profile = AlcoveProfile.build(x, sigma)
    if roots != profile.phi_x:
        raise InternalCheckError("stabilizer formula disagrees with the alcove computation")
    full = frozenset(range(system.rank))
    tests = []
    for r in profile.w_x:
        j_set = profile.j_rx(r)
        tests.append((r, j_set, j_set == full))
    all_full = all(ok for _, _, ok in tests)
    central = all(Fraction(c) == 0 for c in mu)
    points: tuple[SigmaConjClassPoint, ...] | None = None
    cap_stable = None
    if central:
        conclusion = "single-central-class"
        points = (class_point(AffineElement.from_translation(system, mu), sigma),)
    elif all_full:
        conclusion = "equals-b-g-mu"
        if with_points:
            # doubling audit for the scan's length cap: stable if nothing new shows
            length_cap = translation_length(system, mu)
            points = enumerate_b_g_mu(system, mu, sigma, length_cap)
            cap_stable = points == enumerate_b_g_mu(system, mu, sigma, 2 * length_cap)
    else:
        conclusion = "undetermined"
    return BgxReport(x, profile.w_x, tuple(tests), all_full, central, conclusion,
                     points, cap_stable)


# -- defect and dimension formulas --------------------------------------------------


def defect(b_kappa: KottwitzClass, sigma: DiagramAutomorphism) -> int:
    """Fixed-space defect of the basic class: dim V^sigma - dim V^(p(omega) sigma)."""
    system = b_kappa.system
    omega = omega_of_kottwitz(system, b_kappa)
    sigma_matrix = sigma.matrix()
    twisted = _linalg.mat_mul(weyl_matrix(omega.finite), sigma_matrix)
    return (_linalg.fixed_space_dimension(sigma_matrix)
            - _linalg.fixed_space_dimension(twisted))


def dim_shrunken(profile: AlcoveProfile, b_kappa: KottwitzClass) -> int | None:
    """(length(x) + length(eta) - defect)/2 for nonempty shrunken x; None otherwise."""
    x, sigma = profile.x, profile.sigma
    if not profile.shrunken:
        return None
    if not decide_nonempty(x, b_kappa, sigma, profile).nonempty:
        return None
    doubled = x.length + profile.eta.length - defect(b_kappa, sigma)
    if doubled % 2 != 0:
        raise InternalCheckError(f"odd dimension numerator {doubled} for {x!r}")
    return doubled // 2


def dim_one_strip_rank2(profile: AlcoveProfile, b_kappa: KottwitzClass) -> int | None:
    """The rank-2 single-strip formula with its longest-element correction."""
    x, sigma, system = profile.x, profile.sigma, profile.system
    if system.rank != 2 or not sigma.is_identity():
        return None
    if len(profile.phi_x) != 1:
        return None
    if not decide_nonempty(x, b_kappa, sigma, profile).nonempty:
        return None
    (alpha_x,) = profile.phi_x
    if sum(alpha_x) != 1:
        raise InternalCheckError("single-strip root is not simple")
    s_x = FiniteWeylElement.simple(system, alpha_x.index(1))
    eta = profile.eta
    conjugated = profile.sigma.inverse().weyl(s_x) * eta * s_x
    doubled = x.length + min(eta.length, conjugated.length) - defect(b_kappa, sigma)
    if doubled % 2 != 0:
        raise InternalCheckError(f"odd dimension numerator {doubled} for {x!r}")
    epsilon = 1 if eta == longest_element(system) else 0
    return doubled // 2 - epsilon
