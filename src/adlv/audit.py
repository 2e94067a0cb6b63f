"""Named property checks packaging every module's invariants as one battery.

Each check returns a CheckResult with a machine-readable counterexample on
failure.  The CLI crosscheck command runs the battery for one configuration;
the acceptance tests call the same functions with their own pinned ranges.

Within one ``run_battery`` call the checks share one run memo, keyed as
``cartan.per_system`` keys ``RootSystem.memo``: by maker and arguments, so
each length range is listed once, as a tuple in ``enumerate_affine`` order;
each (x, sigma) gets one closed-form ``AlcoveProfile``, whose derived
fields are then computed once per run, and each (x, sigma, power multiple)
one Newton point; the v t^mu elements of a length bound are listed once.
The memo lives in a context variable that the call sets and resets, never
in ``RootSystem.memo``, so a check called on its own, or a run after a
patched one, computes its elements, profiles and Newton points afresh.
"""

from __future__ import annotations

import math
import random
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce, wraps
from itertools import islice, product
from operator import or_, sub

from . import _linalg
from .alcove import (AlcoveProfile, DominantDecomposition, barycenter, base_k,
                     dominant_decompose, scaled_barycenter, walk_profiles)
from .cartan import Root, RootSystem, classical_positive_count, subset_predicates
from .errors import InternalCheckError
from .criterion import (
    RULE_ORACLE,
    Verdict,
    _is_jw_alcove_given,
    _oracle_scan,
    _twisted_conjugate,
    _twisted_support,
    bgx_cordial,
    decide_nonempty,
    defect,
    dim_one_strip_rank2,
    dim_shrunken,
    j_rx,
    oracle_nonempty,
    shortcut_applies,
    sigma_component_groups,
    sigma_stable_subsets,
    translation_length,
)
from .iwahori import (
    AffineElement,
    AffineSupport,
    KottwitzClass,
    NewtonPoint,
    _class_map,
    affine_sigma_support,
    affine_simples,
    apply_sigma_affine,
    enumerate_affine,
    fixes_point_of_closed_base_alcove,
    kottwitz,
    kottwitz_group,
    make_dominant,
    newton,
    omega_component,
    omega_elements,
    twisted_affine_action,
)
from .notation import format_affine, format_finite
from .weyl import (
    DiagramAutomorphism,
    FiniteWeylElement,
    act_on_numbers,
    enumerate_w0,
    longest_element,
    positive_root_supports,
    reduced_word,
    sigma_support,
    support,
)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    counterexample: dict | None = None
    informational: bool = False


def _ok(check_id: str, detail: str, informational: bool = False) -> CheckResult:
    return CheckResult(check_id, True, detail, None, informational)


def _fail(check_id: str, detail: str, counterexample: dict) -> CheckResult:
    return CheckResult(check_id, False, detail, counterexample)


_RUN: ContextVar[dict | None] = ContextVar("adlv_audit_run", default=None)


def _per_run(make):
    """Memoize ``make(*args)`` in the memo of the running ``run_battery``
    call, so the value lives exactly as long as the run; outside a run,
    call ``make``.  Positional arguments only."""

    @wraps(make)
    def cached(*args):
        memo = _RUN.get()
        if memo is None:
            return make(*args)
        key = (make, *args)
        try:
            return memo[key]
        except KeyError:
            pass
        value = memo[key] = make(*args)
        return value

    return cached


@_per_run
def _elements(system: RootSystem, bound: int) -> tuple[AffineElement, ...]:
    """``enumerate_affine(system, bound)`` as a tuple."""
    return tuple(enumerate_affine(system, bound))


@_per_run
def _profile(x: AffineElement, sigma: DiagramAutomorphism) -> AlcoveProfile:
    """``AlcoveProfile.build(x, sigma)``."""
    return AlcoveProfile.build(x, sigma)


@_per_run
def _newton(x: AffineElement, sigma: DiagramAutomorphism, multiple: int = 1) -> NewtonPoint:
    """``newton(x, sigma, multiple)``, looked up as a module global.  Only
    the power-doubling check passes a multiple, so each point has one key."""
    return newton(x, sigma, multiple)


# -- cartan ----------------------------------------------------------------------


def check_inverse_cartan_positive(systems: list[RootSystem]) -> CheckResult:
    """Positivity of the inverse Cartan blocks; also the fraction-free
    inverse against Gauss-Jordan elimination over Fraction."""
    cid = "inverse-cartan-positive"
    count = 0
    for system in systems:
        if system.inverse_cartan != _linalg.invert(system.cartan_matrix):
            return _fail(cid, f"integer inverse differs from the Fraction inverse in "
                              f"{system.type_label}", {"system": system.type_label})
        for comp in system.components:
            for i in comp.indices:
                for j in comp.indices:
                    count += 1
                    if system.inverse_cartan[i][j] <= 0:
                        return _fail(cid, f"nonpositive entry in {system.type_label}",
                                     {"system": system.type_label, "i": i, "j": j,
                                      "entry": str(system.inverse_cartan[i][j])})
    return _ok(cid, f"{count} inverse-Cartan entries strictly positive")


def check_root_closure_counts(systems: list[RootSystem]) -> CheckResult:
    cid = "root-closure-counts"
    for system in systems:
        expected = sum(
            classical_positive_count(c.type_label, c.rank) for c in system.components
        )
        if len(system.positive_roots) != expected:
            return _fail(cid, "positive-root count mismatch",
                         {"system": system.type_label,
                          "got": len(system.positive_roots), "expected": expected})
        pos = set(system.positive_roots)
        for a in pos:
            signs = {1 if c > 0 else -1 for c in a if c}
            if len(signs) != 1:
                return _fail(cid, "mixed-sign root", {"root": list(a)})
            for b in pos:
                s = tuple(x + y for x, y in zip(a, b))
                if s in system._root_set and s not in pos and sum(s) > 0:
                    return _fail(cid, "positive roots not closed", {"a": a, "b": b})
    return _ok(cid, f"{len(systems)} systems: closure and classical cardinalities hold")


def check_weyl_group_laws(system: RootSystem, sigma: DiagramAutomorphism) -> CheckResult:
    cid = "weyl-group-laws"
    elements = enumerate_w0(system)
    w0 = longest_element(system)
    if any(sum(w0.act_on_root(a)) >= 0 for a in system.positive_roots):
        return _fail(cid, "w0 does not flip the positive roots", {})
    for u in elements:
        if u.length != u.inverse().length:
            return _fail(cid, "length(w) != length(w inverse)",
                         {"w": format_finite(u)})
        if support(u) != frozenset(_largest_descent_word(u)):
            return _fail(cid, "support depends on the reduced word",
                         {"w": format_finite(u)})
        if u.inverse() != _inverse_by_linalg(u):
            return _fail(cid, "inverse differs from the matrix inverse", {"w": format_finite(u)})
        su = sigma.weyl(u)
        if su.length != u.length:
            return _fail(cid, "sigma does not preserve length", {"w": format_finite(u)})
        for v in elements:
            if u * v != _product_by_matrix(u, v):
                return _fail(cid, "product differs from the matrix product",
                             {"u": format_finite(u), "v": format_finite(v)})
            if (u * v).length > u.length + v.length:
                return _fail(cid, "length is not subadditive",
                             {"u": format_finite(u), "v": format_finite(v)})
            if sigma.weyl(u * v) != su * sigma.weyl(v):
                return _fail(cid, "sigma is not a homomorphism",
                             {"u": format_finite(u), "v": format_finite(v)})
    if len({sigma.weyl(u) for u in elements}) != len(elements):
        return _fail(cid, "sigma is not a bijection", {})
    return _ok(cid, f"group laws on {len(elements)} elements")


def check_reflection_coweight_identity(system: RootSystem) -> CheckResult:
    """r.mu = mu - sum_j <s_{i_1}..s_{i_{j-1}} alpha_{i_j}, mu> alpha_{i_j}^v,
    for r of length at most 4 and mu with coordinates 0..3."""
    cid = "reflection-coweight-identity"
    grid = list(product(range(4), repeat=system.rank))
    for r in enumerate_w0(system):
        if r.length > 4:
            continue
        # (beta_j, row j of the Cartan matrix) along r's reduced word, read
        # rightmost letter first as the identity consumes them; r alone fixes them
        terms = []
        prefix = FiniteWeylElement.identity(system)
        for j in reversed(reduced_word(r)):  # r = s_{word[0]} ... s_{word[-1]}
            alpha_j = tuple(1 if k == j else 0 for k in range(system.rank))
            terms.append((prefix.act_on_root(alpha_j), system.cartan_matrix[j]))
            prefix = prefix * FiniteWeylElement.simple(system, j)
        for mu in grid:
            acc = list(mu)
            for beta, row in terms:
                coeff = system.pair(beta, mu)
                for k in range(system.rank):
                    acc[k] -= coeff * row[k]
            if tuple(acc) != r.act_on_coweight(mu):
                return _fail(cid, "identity fails",
                             {"r": format_finite(r), "mu": list(mu)})
    return _ok(cid, "identity holds up to length 4")


def check_coweight_difference_span(system: RootSystem) -> CheckResult:
    """mu - w.mu lies in the integer span of the support coroots of w, for
    mu with coordinates -2..2."""
    cid = "coweight-difference-support-span"
    grid = list(product(range(-2, 3), repeat=system.rank))
    for w in enumerate_w0(system):
        supp = support(w)
        for mu in grid:
            diff = tuple(map(sub, mu, w.act_on_coweight(mu)))
            coords = system.coroot_coordinates(diff)
            for i, c in enumerate(coords):
                if c.denominator != 1 or (c != 0 and i not in supp):
                    return _fail(cid, "difference leaves the support span",
                                 {"w": format_finite(w), "mu": list(mu), "i": i})
    return _ok(cid, f"verified over {len(grid)} coweights x |W0| elements")


def _random_radical_closed(system: RootSystem, rng: random.Random) -> frozenset:
    base = [a for a in system.positive_roots if rng.random() < 0.5]
    closed = set(base)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                s = tuple(x + y for x, y in zip(a, b))
                if s in system._root_set and s not in closed:
                    closed.add(s)
                    changed = True
    w = rng.choice(enumerate_w0(system))
    return frozenset(w.act_on_root(a) for a in closed)


def check_radical_closed_positivizable(system: RootSystem, seed: int = 0) -> CheckResult:
    cid = "radical-closed-positivizable"
    rng = random.Random(seed)
    positive = frozenset(system.positive_roots)
    for trial in range(40):
        psi = _random_radical_closed(system, rng)
        props = subset_predicates(system, psi)
        if not (props.radical and props.closed):
            return _fail(cid, "generator produced a non-radical-closed set",
                         {"trial": trial})
        if not any(
            all(w.act_on_root(a) in positive for a in psi) for w in enumerate_w0(system)
        ):
            return _fail(cid, "no positivizing element found",
                         {"trial": trial, "psi": sorted(psi)})
    return _ok(cid, "40 random radical closed subsets positivized")


def sandwich_positivizer(system: RootSystem, psi_r, psi_p):
    """Find w with w(psi_r) inside the positive roots inside w(psi_p).

    psi_r must be radical closed, psi_p parabolic closed, psi_r a subset of
    psi_p.  Brute-force over the finite Weyl group (correctness first); the
    statement guarantees a witness exists, so exhausting the group without
    one is an internal error.
    """
    psi_r = frozenset(tuple(m) for m in psi_r)
    psi_p = frozenset(tuple(m) for m in psi_p)
    if not psi_r <= psi_p:
        raise ValueError("psi_r must be contained in psi_p")
    props_r = subset_predicates(system, psi_r)
    if not (props_r.radical and props_r.closed):
        raise ValueError("psi_r must be radical and closed")
    props_p = subset_predicates(system, psi_p)
    if not (props_p.parabolic and props_p.closed):
        raise ValueError("psi_p must be parabolic and closed")
    positive = frozenset(system.positive_roots)
    for w in enumerate_w0(system):
        image_r = {w.act_on_root(m) for m in psi_r}
        if not image_r <= positive:
            continue
        image_p = {w.act_on_root(m) for m in psi_p}
        if positive <= image_p:
            return w
    raise InternalCheckError("no sandwich positivizer found; contradicts the classification")


def check_sandwich_postcondition(system: RootSystem, seed: int = 0) -> CheckResult:
    cid = "sandwich-positivizer-postcheck"
    rng = random.Random(seed)
    positive = frozenset(system.positive_roots)
    all_roots = frozenset(system.all_roots)
    done = 0
    for _ in range(20):
        psi_r = _random_radical_closed(system, rng)
        u = rng.choice(enumerate_w0(system))
        j_size = rng.randrange(system.rank + 1)
        j_set = frozenset(rng.sample(range(system.rank), j_size))
        phi_j = {a for a in all_roots
                 if all(a[i] == 0 for i in range(system.rank) if i not in j_set)}
        psi_p = frozenset(u.act_on_root(a)
                          for a in (positive | {system.negate(b) for b in phi_j & positive}))
        if not psi_r <= psi_p:
            psi_r = psi_r & psi_p
            if not subset_predicates(system, psi_r).radical:
                continue
        w = sandwich_positivizer(system, psi_r, psi_p)
        image_r = {w.act_on_root(a) for a in psi_r}
        image_p = {w.act_on_root(a) for a in psi_p}
        if not (image_r <= positive and positive <= image_p):
            return _fail(cid, "witness fails an inclusion", {"psi_r": sorted(psi_r)})
        done += 1
    return _ok(cid, f"{done} sandwich pairs produced verified witnesses")


# -- iwahori ---------------------------------------------------------------------


def separating_hyperplane_count(x: AffineElement) -> int:
    """Number of root hyperplanes strictly between the two alcove barycenters:
    with both scaled by D to integers, floor(<a, p>) = <a, D p> // D."""
    system = x.system
    scale, origin = system.scaled_base_alcove_barycenter
    _, moved = scaled_barycenter(x)
    return sum(
        abs(system.pair(a, moved) // scale - system.pair(a, origin) // scale)
        for a in system.positive_roots
    )


def check_length_hyperplane_oracle(system: RootSystem, bound: int) -> CheckResult:
    cid = "length-hyperplane-oracle"
    count = 0
    for x in _elements(system, bound):
        count += 1
        if x.length != separating_hyperplane_count(x):
            return _fail(cid, "formula disagrees with the separation count",
                         {"x": format_affine(x), "formula": x.length,
                          "count": separating_hyperplane_count(x)})
    return _ok(cid, f"{count} elements, formula == separation count")


def _inverse_by_linalg(w: FiniteWeylElement) -> FiniteWeylElement:
    """Reference for the root-permutation inverse: invert the root-action matrix."""
    n = w.system.rank
    inv = _linalg.invert(tuple(tuple(w.images[j][i] for j in range(n)) for i in range(n)))
    return FiniteWeylElement.from_images(
        w.system, tuple(tuple(int(inv[i][j]) for i in range(n)) for j in range(n)))


def _largest_descent_word(w: FiniteWeylElement) -> tuple[int, ...]:
    """Reference for the word-independence of the support: a reduced word of w
    made by stripping the largest-index right descent at each step."""
    letters: list[int] = []
    while descents := w.right_descents():
        letters.append(descents[-1])
        w = w * FiniteWeylElement.simple(w.system, descents[-1])
    return tuple(reversed(letters))


def _product_by_matrix(u: FiniteWeylElement, v: FiniteWeylElement) -> FiniteWeylElement:
    """Reference for the root-permutation product: the rank x rank integer
    product of the simple-root image matrices."""
    n = u.system.rank
    return FiniteWeylElement.from_images(u.system, tuple(
        tuple(sum(c * u.images[j][k] for j, c in enumerate(img)) for k in range(n))
        for img in v.images))


def _class_of_coordinates(system: RootSystem, coords) -> KottwitzClass:
    """The class with these rational coroot coordinates mod 1: residue i is
    coordinate i mod 1 times its component's denominator, exactly."""
    residues = [c % 1 * d for c, (_, d, _) in zip(coords, _class_map(system))]
    if any(r.denominator != 1 for r in residues):
        raise InternalCheckError("a coroot coordinate is finer than its class denominator")
    return KottwitzClass(system, tuple(map(int, residues)))


def _class_by_coroot_coordinates(x: AffineElement) -> KottwitzClass:
    """Reference for the integer class map: rational coroot coordinates mod 1."""
    return _class_of_coordinates(x.system, x.system.coroot_coordinates(x.translation))


def _class_sum_by_mod1(a: KottwitzClass, b: KottwitzClass) -> KottwitzClass:
    """Reference for the integer class sum: add the rational representatives mod 1."""
    return _class_of_coordinates(a.system, tuple(p + q for p, q in zip(a.rep, b.rep)))


def _newton_dominant_by_fractions(system: RootSystem, vector) -> tuple[Fraction, ...]:
    """Reference for the integer Newton point: make the rational Newton vector
    dominant directly."""
    return make_dominant(system, vector)[0]


def _dominant_decompose_by_barycenter(x: AffineElement) -> DominantDecomposition:
    """Reference for the integer decomposition: move the rational barycenter
    x(p) into the dominant chamber."""
    dominant_point, u = make_dominant(x.system, barycenter(x))
    if any(c <= 0 for c in dominant_point):
        raise InternalCheckError("alcove barycenter landed on a chamber wall")
    rest = AffineElement.from_finite(u) * x
    return DominantDecomposition(u.inverse(), rest.translation, rest.finite)


def _omega_elements_by_sweep(system: RootSystem) -> tuple[AffineElement, ...]:
    """Reference for the minuscule construction: sweep W0 for the elements
    t^mu w that move the base-alcove barycenter by an integral mu and have
    length zero."""
    center = system.base_alcove_barycenter()
    out = []
    for w in enumerate_w0(system):
        moved = w.act_on_coweight(center)
        mu = tuple(Fraction(b) - m for b, m in zip(center, moved))
        if all(c.denominator == 1 for c in mu):
            candidate = AffineElement(mu, w)
            if candidate.length == 0:
                out.append(candidate)
    out.sort(key=lambda el: kottwitz(el).rep)
    return tuple(out)


def _twisted_affine_action_by_products(system: RootSystem, sigma: DiagramAutomorphism,
                                       omega: AffineElement) -> tuple[int, ...]:
    """Reference for the twisted action read off the affine roots: conjugate
    sigma(s) by omega with group products and look the result up among the
    affine simples (None for a conjugate that is not simple)."""
    simples = affine_simples(system)
    lookup = {s.element.key(): s.index for s in simples}
    omega_inv = omega.inverse()
    return tuple(lookup.get((omega * apply_sigma_affine(sigma, s.element) * omega_inv).key())
                 for s in simples)


def _affine_sigma_support_by_descent(x: AffineElement,
                                     sigma: DiagramAutomorphism) -> AffineSupport:
    """Reference for the closed-form support: strip one left descent of x_a at
    a time, then close under the omega-twisted sigma-action."""
    system = x.system
    x_a, omega = omega_component(x)
    simples = affine_simples(system)
    letters: set[int] = set()
    y = x_a
    while y.length > 0:
        for s in simples:
            if (s.element * y).length < y.length:
                letters.add(s.index)
                y = s.element * y
                break
        else:
            raise InternalCheckError("no descent found for a positive-length element")
    if not y.is_identity():
        raise InternalCheckError("affine part did not reduce to the identity")
    xi = twisted_affine_action(system, sigma, omega)
    while True:
        extra = {xi[i] for i in letters} - letters
        if not extra:
            break
        letters |= extra
    return AffineSupport(frozenset(letters), len(letters) == len(simples))


def check_kottwitz_homomorphism(system: RootSystem, bound: int,
                                pair_cap: int = 40000) -> CheckResult:
    """The class map is a homomorphism killing the affine Weyl group; also its
    integer form, the integer class sum and the minuscule Omega against their
    rational and W0-sweep references."""
    cid = "kottwitz-homomorphism"
    if omega_elements(system) != _omega_elements_by_sweep(system):
        return _fail(cid, "minuscule Omega differs from the W0 sweep",
                     {"omega": [format_affine(el) for el in omega_elements(system)]})
    sample = [(x, kottwitz(x)) for x in _elements(system, bound)]
    for x, kx in sample:
        if kx != _class_by_coroot_coordinates(x):
            return _fail(cid, "integer class differs from the coroot coordinates",
                         {"x": format_affine(x)})
    group = kottwitz_group(system)
    sums = {}  # (a, b) -> a + b, each compared with the rational sum
    for a in group:
        for b in group:
            total = sums[a, b] = a + b
            if total != _class_sum_by_mod1(a, b):
                return _fail(cid, "integer class sum differs from the rational sum",
                             {"a": [str(c) for c in a.rep], "b": [str(c) for c in b.rep]})
    for s in affine_simples(system):
        if not kottwitz(s.element).is_zero():
            return _fail(cid, "class map does not kill an affine generator",
                         {"s": s.label})
    inner = sample[:max(1, pair_cap // max(1, len(sample)))]
    # per class a, the expected classes a + ky of the inner column, from the table
    columns = {a: [sums[a, ky] for _, ky in inner] for a in group}
    for x, kx in sample:
        for (y, _), expected in zip(inner, columns[kx]):
            if kottwitz(x * y) != expected:
                return _fail(cid, "not a homomorphism",
                             {"x": format_affine(x), "y": format_affine(y)})
    return _ok(cid, f"homomorphism on {len(sample)}x{len(inner)} products; "
                    "affine Weyl group in kernel")


def check_newton_stability(system: RootSystem, sigma: DiagramAutomorphism,
                           bound: int) -> CheckResult:
    """Newton points are compared in lowest terms, as integer numerators over
    one denominator; the dominant one also against the rational route."""
    cid = "newton-stability"
    # the first 24 elements of length <= 3: a run lists that range anyway
    # when bound >= 3, and otherwise only those 24 are walked
    walk = _elements(system, 3) if bound >= 3 else enumerate_affine(system, 3)
    conjugators = [(y, y.inverse(), apply_sigma_affine(sigma, y)) for y in islice(walk, 24)]
    for x in _elements(system, bound):
        base_point = _newton(x, sigma)
        if base_point.dominant != _newton_dominant_by_fractions(system, base_point.vector):
            return _fail(cid, "integer dominant Newton point differs from the rational route",
                         {"x": format_affine(x)})
        if _newton(x, sigma, 2) != base_point:
            return _fail(cid, "vector depends on the power used",
                         {"x": format_affine(x)})
        dominant = base_point.dominant_numerators
        if sigma.coweight(dominant) != dominant:
            return _fail(cid, "dominant point is not sigma-invariant",
                         {"x": format_affine(x)})
        for y, y_inverse, sigma_y in conjugators:
            point = _newton(y_inverse * x * sigma_y, sigma)
            if (point.dominant_numerators, point.denominator) != (dominant,
                                                                  base_point.denominator):
                return _fail(cid, "dominant point not twisted-conjugation invariant",
                             {"x": format_affine(x), "y": format_affine(y)})
    return _ok(cid, "power-doubling and twisted-conjugation invariance hold")


def check_shortcut_precondition_central(system: RootSystem, sigma: DiagramAutomorphism,
                                        bound: int) -> CheckResult:
    cid = "shortcut-precondition-central"
    checked = 0
    for x in _elements(system, bound):
        if shortcut_applies(x, sigma):
            checked += 1
            if not _newton(x, sigma).is_central():
                return _fail(cid, "finite-support element with noncentral Newton point",
                             {"x": format_affine(x)})
    return _ok(cid, f"{checked} finite-support elements all have central Newton point")


def check_affine_support_fixed_point(system: RootSystem, sigma: DiagramAutomorphism,
                                     bound: int) -> CheckResult:
    """The twisted action on the affine simples against group products, the
    closed-form support against the descent loop and the walked profile's
    class and support against the closed forms; then finite support against
    the fixed-point test."""
    cid = "affine-support-fixed-point"
    for omega in omega_elements(system):
        if twisted_affine_action(system, sigma, omega) != _twisted_affine_action_by_products(
                system, sigma, omega):
            return _fail(cid, "twisted action on the affine roots differs from the products",
                         {"omega": format_affine(omega)})
    for walked in walk_profiles(system, sigma, bound):
        x = walked.x
        kappa = kottwitz(x)
        closed = affine_sigma_support(x, sigma, kappa)
        if walked.kappa != kappa or walked.affine_support != closed:
            return _fail(cid, "walked class or support differs from the closed form",
                         {"x": format_affine(x), "letters": sorted(walked.affine_support.letters)})
        if closed != _affine_sigma_support_by_descent(x, sigma):
            return _fail(cid, "closed-form affine support differs from the descent loop",
                         {"x": format_affine(x), "letters": sorted(closed.letters)})
        finite_support = shortcut_applies(x, sigma, closed)
        fixes = fixes_point_of_closed_base_alcove(x, sigma)
        if finite_support != fixes:
            return _fail(cid, "finite-support test vs fixed-point test mismatch",
                         {"x": format_affine(x), "finite": finite_support,
                          "fixes": fixes})
    return _ok(cid, "finite support == fixes a point of the closed base alcove")


def _newton_difference_span(x: AffineElement, sigma: DiagramAutomorphism) -> frozenset[int]:
    """The indices of the nonzero coroot coordinates of nu(t^{v mu}) - nu(x),
    for x = v t^mu y dominantly decomposed.  The difference is taken in
    integers, scaled by the two Newton denominators, which keeps that set."""
    d = dominant_decompose(x)
    lhs = _newton(AffineElement.from_translation(x.system, d.v.act_on_coweight(d.mu)), sigma)
    rhs = _newton(x, sigma)
    diff = tuple(a * rhs.denominator - b * lhs.denominator
                 for a, b in zip(lhs.numerators, rhs.numerators))
    return frozenset(i for i, c in enumerate(x.system.coroot_coordinates(diff)) if c)


def check_parabolic_newton_difference(system: RootSystem, sigma: DiagramAutomorphism,
                                      bound: int) -> CheckResult:
    cid = "parabolic-newton-difference"
    checked = 0
    elements = _elements(system, bound)
    spans: dict[AffineElement, frozenset[int]] = {}  # made once per x, on first use
    for j_set in sigma_stable_subsets(system, sigma, False):
        marker = tuple(0 if i in j_set else 1 for i in range(system.rank))
        for x in elements:
            if x.finite.act_on_coweight(marker) != marker:
                continue  # finite part not in W_J
            if x not in spans:
                spans[x] = _newton_difference_span(x, sigma)
            if not spans[x] <= j_set:
                return _fail(cid, "difference leaves the J-span",
                             {"x": format_affine(x), "J": sorted(j_set)})
            checked += 1
    return _ok(cid, f"{checked} (x, J) pairs verified")


# -- alcove ----------------------------------------------------------------------


def check_k_value_oracle(system: RootSystem, bound: int) -> CheckResult:
    """Closed form vs the barycenter floor, plus the two k-value identities;
    the walked profile's decomposition and k-values vs the closed forms."""
    cid = "k-value-oracle"
    triples = [
        (a, b, s)
        for a in system.all_roots
        for b in system.all_roots
        for s in [tuple(p + q for p, q in zip(a, b))]
        if s in system._root_set
    ]
    count = 0
    for walked in walk_profiles(system, DiagramAutomorphism.identity(system), bound):
        x = walked.x
        scale, point = scaled_barycenter(x)
        profile = _profile(x, walked.sigma)
        if profile.decomposition != _dominant_decompose_by_barycenter(x):
            return _fail(cid, "integer decomposition differs from the barycenter route",
                         {"x": format_affine(x)})
        if (walked.decomposition != profile.decomposition
                or walked.k_numbers != profile.k_numbers):
            return _fail(cid, "walked decomposition or k-values differ from the closed form",
                         {"x": format_affine(x)})
        k_values = profile.k_values
        for a in system.all_roots:
            count += 1
            expected = system.pair(a, point) // scale
            if k_values[a] != expected:
                return _fail(cid, "closed form disagrees with the barycenter floor",
                             {"x": format_affine(x), "a": list(a),
                              "formula": k_values[a], "floor": expected})
            if k_values[a] + k_values[system.negate(a)] != -1:
                return _fail(cid, "opposite-root identity fails",
                             {"x": format_affine(x), "a": list(a)})
        for a, b, s in triples:
            total = k_values[a] + k_values[b]
            if k_values[s] not in (total, total + 1):
                return _fail(cid, "additivity identity fails",
                             {"x": format_affine(x), "a": list(a), "b": list(b)})
    return _ok(cid, f"{count} k-values match the oracle; identities hold")


def check_strip_complement_radical_closed(system: RootSystem, bound: int,
                                          sigma: DiagramAutomorphism | None = None
                                          ) -> CheckResult:
    cid = "strip-complement-radical-closed"
    sigma = sigma or DiagramAutomorphism.identity(system)
    count = 0
    for x in _elements(system, bound):
        profile = _profile(x, sigma)
        complement = frozenset(system.positive_roots) - profile.phi_x
        props = subset_predicates(system, complement)
        if not (props.radical and props.closed):
            return _fail(cid, "complement of the strip set is not radical closed",
                         {"x": format_affine(x), "phi_x": sorted(profile.phi_x)})
        for a in system.positive_roots:
            for b in system.positive_roots:
                s = tuple(p + q for p, q in zip(a, b))
                if s in profile.phi_x and a not in profile.phi_x and b not in profile.phi_x:
                    return _fail(cid, "anti-closedness fails",
                                 {"x": format_affine(x), "a": list(a), "b": list(b)})
        count += 1
    return _ok(cid, f"{count} elements: strip complements radical and closed")


def w_x_set_bruteforce(system: RootSystem, phi_x: frozenset[Root]) -> frozenset[FiniteWeylElement]:
    """Reference implementation of W_x for the strip set ``phi_x``: filter the
    whole finite Weyl group."""
    complement = [a for a in system.positive_roots if a not in phi_x]
    return frozenset(
        r for r in enumerate_w0(system)
        if all(sum(r.act_on_root(g)) > 0 for g in complement)
    )


def check_wx_structure(system: RootSystem, bound: int) -> CheckResult:
    """W_x against the W0 filter in ``sort_key`` order, and its structure;
    |W_x| as reported against the listed set, which for x in Omega compares
    |W0| with the walk over all of Phi+."""
    cid = "wx-structure"
    sid = DiagramAutomorphism.identity(system)
    identity = FiniteWeylElement.identity(system)
    count = 0
    for x in _elements(system, bound):
        profile = _profile(x, sid)
        reference = w_x_set_bruteforce(system, profile.phi_x)
        if profile.w_x != tuple(sorted(reference, key=FiniteWeylElement.sort_key)):
            return _fail(cid, "breadth-first set differs from the brute-force filter",
                         {"x": format_affine(x)})
        if profile.w_x_size != len(profile.w_x):
            return _fail(cid, "|W_x| differs from the size of the listed set",
                         {"x": format_affine(x), "size": profile.w_x_size})
        for w in profile.w_x:
            for i in range(system.rank):
                s = FiniteWeylElement.simple(system, i)
                if (s * w).length < w.length and s * w not in reference:
                    return _fail(cid, "set is not left-closed",
                                 {"x": format_affine(x), "w": format_finite(w)})
        if profile.shrunken and profile.w_x != (identity,):
            return _fail(cid, "shrunken element with a nontrivial embedding set",
                         {"x": format_affine(x)})
        if len(profile.phi_x) == 1:
            (alpha_x,) = profile.phi_x
            if sum(alpha_x) != 1:
                return _fail(cid, "single-strip root is not simple",
                             {"x": format_affine(x), "alpha": list(alpha_x)})
            s_x = FiniteWeylElement.simple(system, alpha_x.index(1))
            if profile.w_x != (identity, s_x):
                return _fail(cid, "single-strip embedding set is not {id, s}",
                             {"x": format_affine(x)})
        count += 1
    return _ok(cid, f"{count} elements: embedding-set structure verified")


# -- criterion -------------------------------------------------------------------


def check_jrx_postcondition(system: RootSystem, sigma: DiagramAutomorphism,
                            bound: int) -> CheckResult:
    cid = "jrx-postcondition"
    pairs = 0
    for x in _elements(system, bound):
        profile = _profile(x, sigma)
        for r in profile.w_x:
            j_rx(profile, r)  # raises InternalCheckError on failure
            pairs += 1
    return _ok(cid, f"{pairs} (x, r) pairs satisfy the alcove postcondition")


def _violated_supports(profile: AlcoveProfile, w: FiniteWeylElement) -> int:
    """Reference for the scan's condition two: with ``_twisted_support``, the
    minimal alcove support T(w), the smallest index set with x a
    (J, w)-alcove iff T(w) ⊆ J, as a bitmask (bit i for alpha_i).  This part
    collects the supports of the positive roots whose w-image violates the
    k-value inequality: the positive numbers among w^{-1}(below), with below
    the numbers of the roots a with k(a, x) below the base alcove's, alpha
    for k(alpha) < 0 and -alpha for k(alpha) > 0."""
    k = profile.k_numbers
    below = bytes([n if c < 0 else n + len(k) for n, c in enumerate(k) if c])
    return reduce(or_, map(positive_root_supports(profile.system).__getitem__,
                           act_on_numbers(w.inverse(), below)), 0)


def _minimal_alcove_support_by_roots(profile: AlcoveProfile, below: frozenset,
                                     w: FiniteWeylElement) -> frozenset[int]:
    """Reference for the scan's T(w), computed from root tuples, with ``below``
    the roots whose k-value lies below the base alcove's."""
    system = profile.system
    letters: set[int] = set()
    for alpha, a in zip(system.positive_roots, w.positive_images()):
        if a in below:
            letters.update(i for i, c in enumerate(alpha) if c)
    if len(letters) < system.rank:
        letters |= support(w.inverse() * profile.x.finite * profile.sigma.weyl(w))
    return frozenset(letters)


def _oracle_scan_over_w0(profile: AlcoveProfile) -> Verdict:
    """Reference for the coset scan: T(w) for every w in W0, then the first
    (J, w) pair in order with T(w) ⊆ J."""
    system = profile.system
    below = frozenset(a for a, k in profile.k_values.items() if k < base_k(system, a))
    scan = enumerate_w0(system)
    supports = [_minimal_alcove_support_by_roots(profile, below, w) for w in scan]
    subsets = sigma_stable_subsets(system, profile.sigma, True)
    for j_set in subsets:
        for w, t_set in zip(scan, supports):
            if t_set <= j_set:
                return Verdict(False, RULE_ORACLE, {"j": j_set, "w": w})
    return Verdict(True, RULE_ORACLE, {"pairs_scanned": len(scan) * len(subsets)})


def _literal_jw_row(profile: AlcoveProfile, w: FiniteWeylElement, subsets) -> list[bool]:
    """``is_jw_alcove(profile, J, w)`` for each sigma-stable J in ``subsets``,
    with the twisted conjugate w^{-1} x sigma(w), which does not depend on J,
    made once."""
    twisted = _twisted_conjugate(profile.x, profile.sigma, w)
    return [_is_jw_alcove_given(profile, j_set, w, twisted) for j_set in subsets]


def check_oracle_reduction_vs_literal(system: RootSystem, sigma: DiagramAutomorphism,
                                      bound: int) -> CheckResult:
    """The minimal-support shortcut used by the scan equals the literal test,
    and the coset scan gives the verdict and witness of the scan over W0."""
    cid = "oracle-reduction-vs-literal"
    pairs = 0
    scan = enumerate_w0(system)
    subsets = sigma_stable_subsets(system, sigma, False)
    masks = [sum(1 << i for i in j_set) for j_set in subsets]
    for x in _elements(system, bound):
        profile = _profile(x, sigma)
        for w in scan:
            t_mask = _violated_supports(profile, w) | _twisted_support(profile, w)
            literal = _literal_jw_row(profile, w, subsets)
            for j_set, mask, is_alcove in zip(subsets, masks, literal):
                pairs += 1
                if is_alcove != (not t_mask & ~mask):
                    return _fail(cid, "reduction disagrees with the literal conditions",
                                 {"x": format_affine(x), "w": format_finite(w),
                                  "J": sorted(j_set)})
        coset, full = _oracle_scan(profile), _oracle_scan_over_w0(profile)
        if (coset.nonempty, coset.witnesses) != (full.nonempty, full.witnesses):
            return _fail(cid, "coset scan differs from the scan over W0",
                         {"x": format_affine(x), "coset": coset.nonempty,
                          "full": full.nonempty})
    return _ok(cid, f"{pairs} (x, J, w) triples agree with the literal test")


def check_criterion_oracle_equivalence(system: RootSystem,
                                       sigma: DiagramAutomorphism,
                                       bound: int) -> CheckResult:
    cid = "criterion-oracle-equivalence"
    total = compared = 0
    for x in _elements(system, bound):
        total += 1
        profile = _profile(x, sigma)
        if not profile.affine_support.full:
            continue
        left = decide_nonempty(x, profile.kappa, sigma, profile)
        right = oracle_nonempty(x, profile.kappa, sigma, profile)
        if left.nonempty != right.nonempty:
            return _fail(cid, "criterion and oracle disagree",
                         {"x": format_affine(x), "criterion": left.nonempty,
                          "oracle": right.nonempty})
        compared += 1
    return _ok(cid, f"{compared}/{total} full-support elements: 100% agreement")


def check_shrunken_specialization(system: RootSystem, sigma: DiagramAutomorphism,
                                  bound: int) -> CheckResult:
    """On shrunken elements the criterion reduces to one support test."""
    cid = "shrunken-specialization"
    identity = FiniteWeylElement.identity(system)
    full = frozenset(range(system.rank))
    count = 0
    for x in _elements(system, bound):
        profile = _profile(x, sigma)
        if not profile.shrunken:
            continue
        if profile.w_x != (identity,):
            return _fail(cid, "shrunken element with extra embeddings",
                         {"x": format_affine(x)})
        if not profile.affine_support.full:
            continue
        verdict = decide_nonempty(x, profile.kappa, sigma, profile)
        expected = sigma_support(profile.eta, sigma) == full
        if verdict.nonempty != expected:
            return _fail(cid, "criterion differs from the single support test",
                         {"x": format_affine(x)})
        count += 1
    return _ok(cid, f"{count} shrunken elements match the single-support rule")


def check_one_strip_two_support(system: RootSystem, sigma: DiagramAutomorphism,
                                bound: int) -> CheckResult:
    """Single-strip elements: the two-conjugate support test decides, and a
    central Newton point forces both supports full.

    The counting argument behind this needs at least two simple reflections
    per factor: a rank-one factor's base-alcove stabilizer lies in exactly one
    strip, is trivially nonempty, yet has empty supports.  Such factors are
    out of the statement's scope and skipped.
    """
    cid = "one-strip-two-support"
    if any(len(finite) < 2 for finite, _ in sigma_component_groups(system, sigma)):
        return _ok(cid, "skipped: a factor has a single simple reflection, "
                        "where the two-support rule provably degenerates")
    full = frozenset(range(system.rank))
    sigma_inv = sigma.inverse()
    count = 0
    for x in _elements(system, bound):
        profile = _profile(x, sigma)
        if len(profile.phi_x) != 1:
            continue
        (alpha_x,) = profile.phi_x
        if sum(alpha_x) != 1:
            return _fail(cid, "single-strip root is not simple", {"x": format_affine(x)})
        s_x = FiniteWeylElement.simple(system, alpha_x.index(1))
        eta = profile.eta
        supports_full = (
            sigma_support(eta, sigma) == full
            and sigma_support(sigma_inv.weyl(s_x) * eta * s_x, sigma) == full
        )
        verdict = decide_nonempty(x, profile.kappa, sigma, profile)
        if verdict.nonempty != supports_full:
            return _fail(cid, "two-support test disagrees with the criterion",
                         {"x": format_affine(x)})
        if _newton(x, sigma).is_central() and not supports_full:
            return _fail(cid, "central Newton point but supports not full",
                         {"x": format_affine(x)})
        count += 1
    return _ok(cid, f"{count} single-strip elements verified")


def check_translation_elements(system: RootSystem, sigma: DiagramAutomorphism,
                               bound: int) -> CheckResult:
    """Translations at their own basic class: nonempty iff central (that
    equivalence is a split/residually-split fact, so the full test needs the
    action trivial on the diagram; otherwise only the central direction and
    the decider agreement are claimed)."""
    cid = "translation-elements"
    split = sigma.is_identity()
    count = 0
    for x in _elements(system, bound):
        if not x.finite.is_identity():
            continue
        central = _newton(x, sigma).is_central()
        profile = _profile(x, sigma)
        kappa = profile.kappa
        verdict = decide_nonempty(x, kappa, sigma, profile)
        if split and verdict.nonempty != central:
            return _fail(cid, "translation verdict differs from centrality",
                         {"x": format_affine(x)})
        if central and not verdict.nonempty:
            return _fail(cid, "central translation decided empty",
                         {"x": format_affine(x)})
        if profile.affine_support.full:
            if oracle_nonempty(x, kappa, sigma, profile).nonempty != verdict.nonempty:
                return _fail(cid, "oracle disagrees on a translation",
                             {"x": format_affine(x)})
        count += 1
    scope = "nonempty iff central" if split else "central => nonempty (twisted action)"
    return _ok(cid, f"{count} translations: {scope}, both deciders agree")


def check_vtmu_elements(system: RootSystem, sigma: DiagramAutomorphism,
                        bound: int) -> CheckResult:
    """v t^mu elements: the criterion equals the all-supports-full test, and the
    oracle concurs whenever it applies (no length restriction needed)."""
    cid = "vtmu-elements"
    full = frozenset(range(system.rank))
    sigma_inv = sigma.inverse()
    count = 0
    for _, _, x in _vtmu_elements(system, bound):
        profile = _profile(x, sigma)
        kappa = profile.kappa
        verdict = decide_nonempty(x, kappa, sigma, profile)
        supports_full = all(
            sigma_support(sigma_inv.weyl(r) * profile.eta * r.inverse(), sigma) == full
            for r in profile.w_x
        )
        if profile.affine_support.full:
            if verdict.nonempty != supports_full:
                return _fail(cid, "criterion differs from the all-supports test",
                             {"x": format_affine(x)})
            if oracle_nonempty(x, kappa, sigma, profile).nonempty != verdict.nonempty:
                return _fail(cid, "oracle disagrees on a v t^mu element",
                             {"x": format_affine(x)})
        elif shortcut_applies(x, sigma, profile.affine_support) and not verdict.nonempty:
            return _fail(cid, "shortcut case must be nonempty",
                         {"x": format_affine(x)})
        count += 1
    return _ok(cid, f"{count} v t^mu elements verified")


@_per_run
def _vtmu_elements(system: RootSystem, bound: int) -> tuple:
    """The (v, mu, x = v t^mu) with v in W0, mu dominant and length(x) at most
    the bound, v outermost."""
    mu_bound = bound + len(system.positive_roots)  # length(x) >= length(t^mu) - length(w0)
    coweights = [(mu, AffineElement.from_translation(system, mu))
                 for mu in _dominant_coweights(system, mu_bound)]
    out = []
    for v in enumerate_w0(system):
        left = AffineElement.from_finite(v)
        for mu, t_mu in coweights:
            x = left * t_mu
            if x.length <= bound:
                out.append((v, mu, x))
    return tuple(out)


def _dominant_coweights(system: RootSystem, length_bound: int) -> list[tuple[int, ...]]:
    """Dominant integral coweights with translation length at most the bound,
    in lexicographic order.  Length is additive on the dominant chamber, so
    coordinate i is at most the bound // length(t^{omega_i^v})."""
    units = [tuple(int(i == j) for j in range(system.rank)) for i in range(system.rank)]
    ranges = [range(length_bound // translation_length(system, unit) + 1) for unit in units]
    return [mu for mu in product(*ranges) if translation_length(system, mu) <= length_bound]


def _w_x_by_stabilizer(v: FiniteWeylElement, mu) -> frozenset[FiniteWeylElement]:
    """Reference for bgx's W_x of v t^mu: filter W0 by the stabilizer and
    length-additivity formula."""
    return frozenset(r for r in enumerate_w0(v.system) if r.act_on_coweight(mu) == tuple(mu)
                     and (v * r.inverse()).length == v.length + r.length)


def check_bgx_formula(system: RootSystem, sigma: DiagramAutomorphism,
                      bound: int) -> CheckResult:
    """The W0 filter of the stabilizer/length-additivity formula against bgx's reported W_x."""
    cid = "bgx-formula-vs-alcove"
    count = 0
    for v, mu, x in _vtmu_elements(system, bound):
        report = bgx_cordial(v, mu, sigma, with_points=False, profile=_profile(x, sigma))
        if _w_x_by_stabilizer(v, mu) != frozenset(report.w_x_sorted):
            return _fail(cid, "formula set differs from the alcove set",
                         {"v": format_finite(v), "mu": list(mu)})
        if report.mu_central and (
            report.conclusion != "single-central-class" or len(report.points) != 1
        ):
            return _fail(cid, "central case must collapse to one class",
                         {"v": format_finite(v), "mu": list(mu)})
        count += 1
    return _ok(cid, f"{count} (v, mu) pairs: formula == alcove computation")


def check_defect_gcd_type_a(max_n: int = 6) -> CheckResult:
    cid = "defect-gcd-type-a"
    for n in range(2, max_n + 1):
        system = RootSystem.from_descriptor(f"A{n - 1}")
        sigma = DiagramAutomorphism.identity(system)
        generator = KottwitzClass.from_translation(
            system, tuple(1 if j == 0 else 0 for j in range(system.rank)))
        kappa = KottwitzClass.zero(system)
        for i in range(n):
            expected = n - math.gcd(n, i)
            got = defect(kappa, sigma)
            if got != expected:
                return _fail(cid, "fixed-space defect differs from the gcd formula",
                             {"n": n, "kappa": i, "got": got, "expected": expected})
            kappa = kappa + generator
    return _ok(cid, f"defect == n - gcd(n, kappa) for n <= {max_n}")


def check_wronglem_search(systems_with_sigma) -> CheckResult:
    """No nonzero dominant coweight in a proper sigma-stable coroot span
    (sigma-connected diagrams only), over coefficients -3..3."""
    cid = "wronglem-search"
    searched = 0
    for system, sigma in systems_with_sigma:
        if len(sigma_component_groups(system, sigma)) != 1:
            continue  # not sigma-connected
        for j_set in sigma_stable_subsets(system, sigma, True):
            j_list = sorted(j_set)
            for coeffs in product(range(-3, 4), repeat=len(j_list)):
                searched += 1
                mu = [Fraction(0)] * system.rank
                for c, j in zip(coeffs, j_list):
                    for k in range(system.rank):
                        mu[k] += c * system.cartan_matrix[j][k]
                if any(mu) and all(c >= 0 for c in mu):
                    return _fail(cid, "nonzero dominant coweight in a proper span",
                                 {"system": system.type_label, "J": j_list,
                                  "coeffs": list(coeffs)})
    return _ok(cid, f"{searched} candidate combinations, no counterexample")


def check_dim_recursion_consistency(system: RootSystem, sigma: DiagramAutomorphism,
                                    b_kappa: KottwitzClass, bound: int) -> CheckResult:
    """He's two-branch recursion (Annals 2014): for an affine simple s with
    length(s x sigma(s)) = length(x) - 2, dim X_x(b) is one more than the
    larger dimension of the nonempty branches s x and s x sigma(s).  Seed it
    with the shrunken formula and the criterion's empty verdicts, propagate
    to a fixed point (bottom-up when both branches are known, top-down into
    a branch when the other is empty), and compare the single-strip formula
    where both are defined."""
    cid = "dim-recursion-consistency"
    elements = _elements(system, bound)
    dims: dict[AffineElement, int] = {}
    empty: set[AffineElement] = set()
    for x in elements:
        profile = _profile(x, sigma)
        if not decide_nonempty(x, b_kappa, sigma, profile).nonempty:
            empty.add(x)
        else:
            seeded = dim_shrunken(profile, b_kappa)
            if seeded is not None:
                dims[x] = seeded
    twists = [(s.element, apply_sigma_affine(sigma, s.element)) for s in affine_simples(system)]
    descents = []  # (x, s x, s x sigma(s)), listed once
    for x in elements:
        for s, sigma_s in twists:
            sx = s * x
            sxs = sx * sigma_s
            if sxs.length != x.length - 2:
                continue
            if sx.length != x.length - 1:
                raise InternalCheckError("branch length must drop by exactly one")
            descents.append((x, sx, sxs))
    conflict = _propagate_dimensions(descents, dims, empty)
    if conflict is not None:
        return _fail(cid, "propagation conflict", {"error": conflict})
    compared = 0
    for x in elements:
        strip_value = dim_one_strip_rank2(_profile(x, sigma), b_kappa)
        table_value = dims.get(x)
        if strip_value is not None and table_value is not None:
            if strip_value != table_value:
                return _fail(cid, "single-strip formula disagrees with propagation",
                             {"x": format_affine(x), "strip": strip_value,
                              "table": table_value})
            compared += 1
    return _ok(cid, f"no conflicts; {len(dims)} dimensions known, "
                    f"{compared} single-strip values agree")


def _propagate_dimensions(descents, dims: dict, empty: set) -> str | None:
    """Apply both rules at each descent in turn until a pass adds no
    dimension; the first conflict, or None.  A conflict is a value that
    contradicts a known one, a dimension for an element decided empty, or
    two empty branches below an element with a dimension."""

    def record(y, value):
        if y in empty:
            return f"{y!r} is marked empty but got dimension {value}"
        known = dims.setdefault(y, value)
        return None if known == value else f"{y!r}: {known} vs {value}"

    size = -1
    while size != len(dims):
        size = len(dims)
        for x, sx, sxs in descents:
            if (sx in dims or sx in empty) and (sxs in dims or sxs in empty):
                branches = [dims[y] for y in (sx, sxs) if y in dims]
                if branches:
                    conflict = record(x, max(branches) + 1)
                    if conflict:
                        return conflict
                elif x in dims:
                    return f"both branches of {x!r} empty but x has a dimension"
            if x in dims:
                for empty_branch, other in ((sxs, sx), (sx, sxs)):
                    if empty_branch in empty and other not in empty:
                        conflict = record(other, dims[x] - 1)
                        if conflict:
                            return conflict
    return None


def check_conjecture_audit(system: RootSystem, sigma: DiagramAutomorphism,
                           bound: int) -> CheckResult:
    """Outside the full-support hypothesis the raw scan may disagree with the
    criterion; those elements are the open cases.  Informational."""
    cid = "conjecture-audit"
    candidates = []
    for x in _elements(system, bound):
        profile = _profile(x, sigma)
        if profile.affine_support.full:
            continue
        verdict = decide_nonempty(x, profile.kappa, sigma, profile)
        raw = _oracle_scan(profile)
        if verdict.nonempty != raw.nonempty:
            candidates.append(format_affine(x))
    result = _ok(cid, f"{len(candidates)} elements outside the hypothesis where the "
                      "raw scan differs from the criterion (expected; not asserted)",
                 informational=True)
    result.counterexample = {"candidates": candidates[:20]} if candidates else None
    return result


# -- the battery -----------------------------------------------------------------


def run_battery(system: RootSystem, sigma: DiagramAutomorphism, bound: int,
                seed: int = 0) -> list[CheckResult]:
    """Run every applicable check against one configuration, sharing one run
    memo for the call.  Each check is looked up as a module global when it
    runs, so a check replaced on the module is the one the battery calls."""
    token = _RUN.set({})
    try:
        small = min(bound, 6)
        results = [
            check_inverse_cartan_positive([system]),
            check_root_closure_counts([system]),
            check_weyl_group_laws(system, sigma),
            check_reflection_coweight_identity(system),
            check_coweight_difference_span(system),
            check_radical_closed_positivizable(system, seed),
            check_sandwich_postcondition(system, seed),
            check_length_hyperplane_oracle(system, small),
            check_kottwitz_homomorphism(system, min(bound, 4)),
            check_newton_stability(system, sigma, min(bound, 4)),
            check_shortcut_precondition_central(system, sigma, small),
            check_affine_support_fixed_point(system, sigma, min(bound, 5)),
            check_k_value_oracle(system, small),
            check_strip_complement_radical_closed(system, bound, sigma),
            check_wx_structure(system, small),
            check_jrx_postcondition(system, sigma, small),
            check_oracle_reduction_vs_literal(system, sigma, min(bound, 3)),
            check_criterion_oracle_equivalence(system, sigma, bound),
            check_shrunken_specialization(system, sigma, bound),
            check_one_strip_two_support(system, sigma, bound),
            check_translation_elements(system, sigma, bound),
            check_vtmu_elements(system, sigma, small),
            check_bgx_formula(system, sigma, small),
            check_defect_gcd_type_a(),
            check_wronglem_search([(system, sigma)]),
            check_parabolic_newton_difference(system, sigma, min(bound, 4)),
            check_conjecture_audit(system, sigma, small),
        ]
        if system.rank == 2 and sigma.is_identity():
            results.append(check_dim_recursion_consistency(
                system, sigma, KottwitzClass.zero(system), bound))
        return results
    finally:
        _RUN.reset(token)
