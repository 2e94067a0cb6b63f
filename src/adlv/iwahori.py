"""The extended affine (Iwahori-Weyl) group: coweight lattice semidirect W0.

An element x = t^mu * w is a pair (integral coweight, finite Weyl element).
This module provides the group law, the Iwahori-Matsumoto length, the class
map to the coweight-modulo-coroot quotient with its sigma-coinvariants, the
Newton point, the base-alcove stabilizer, the affine sigma-support and the
length walk.  ``walk_affine`` lists the elements by length from Omega, each
as an ``Edge``: x = x' s with its parent x' one shorter, the affine simple s
and the wall H_{beta, c} between the alcoves x'(base) and x(base), with beta
positive; ``enumerate_affine`` is its view on the elements alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import mul
from typing import NamedTuple

from . import _linalg
from .cartan import RootSystem, per_system
from .errors import CapExceeded, InternalCheckError
from .weyl import (
    DiagramAutomorphism,
    FiniteWeylElement,
    act_on_numbers,
    longest_element,
    positive_pairings,
    require_w0_within_cap,
    weyl_matrix,
)

ENUM_CAP_DEFAULT = 500_000


def _as_int_tuple(mu) -> tuple[int, ...]:
    if all(type(c) is int for c in mu):
        return tuple(mu)
    out = []
    for c in mu:
        f = Fraction(c)
        if f.denominator != 1:
            raise ValueError(f"translation coordinate {c} is not integral")
        out.append(int(f))
    return tuple(out)


class AffineElement:
    """x = t^translation * finite, with integral fundamental-coweight coordinates."""

    __slots__ = ("translation", "finite", "_length")

    def __init__(self, translation, finite: FiniteWeylElement):
        self.translation = _as_int_tuple(translation)
        self.finite = finite
        self._length: int | None = None

    @property
    def system(self) -> RootSystem:
        return self.finite.system

    @classmethod
    def identity(cls, system: RootSystem) -> "AffineElement":
        return cls((0,) * system.rank, FiniteWeylElement.identity(system))

    @classmethod
    def from_translation(cls, system: RootSystem, mu) -> "AffineElement":
        return cls(mu, FiniteWeylElement.identity(system))

    @classmethod
    def from_finite(cls, w: FiniteWeylElement) -> "AffineElement":
        return cls((0,) * w.system.rank, w)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        # (t^a u)(t^b v) = t^{a + u.b} uv, and u.0 = 0; (u.b)_i = <u^{-1}(alpha_i), b>
        translation, b = self.translation, other.translation
        if any(b):
            translation = tuple([c + sum(map(mul, row, b)) for c, row
                                 in zip(translation, self.finite.inverse().images)])
        return _unchecked(translation, self.finite * other.finite)

    def inverse(self) -> "AffineElement":
        # (t^a u)^{-1} = t^{-u^{-1}.a} u^{-1}, and (u^{-1}.a)_i = <u(alpha_i), a>
        a = self.translation
        return _unchecked(tuple([-sum(map(mul, row, a)) for row in self.finite.images]),
                          self.finite.inverse())

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineElement)
                and self.translation == other.translation
                and self.finite == other.finite)

    def __hash__(self) -> int:
        return hash((self.translation, self.finite.images))

    def __repr__(self) -> str:
        return f"Wt<t{list(self.translation)} {self.finite!r}>"

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.translation) and self.finite.is_identity()

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = _im_length(self)
        return self._length

    def key(self):
        return (self.translation, self.finite.images)

    def sort_key(self):
        return (self.length, self.translation, self.finite.images)

    def act_on_point(self, point) -> tuple[Fraction, ...]:
        """The affine action on the apartment: x(p) = finite(p) + translation."""
        moved = self.finite.act_on_coweight(point)
        return tuple(Fraction(a) + b for a, b in zip(moved, self.translation))


def _unchecked(translation: tuple[int, ...], finite: FiniteWeylElement) -> AffineElement:
    """An element whose integer translation the group law computed from
    elements already checked, so the constructor's integrality check is skipped."""
    x = object.__new__(AffineElement)
    x.translation = translation
    x.finite = finite
    x._length = None
    return x


def apply_sigma_affine(sigma: DiagramAutomorphism, x: AffineElement) -> AffineElement:
    return _unchecked(sigma.coweight(x.translation), sigma.weyl(x.finite))


def _im_length(x: AffineElement) -> int:
    """Iwahori-Matsumoto count of hyperplanes separating x(base alcove) from it:
    over the positive roots alpha, |<alpha, mu>| where x_fin^{-1}(alpha) is
    positive and |<alpha, mu> - 1| where it is negative."""
    return sum(abs(p) if positive else abs(p - 1) for p, positive in zip(
        positive_pairings(x.system, x.translation), x.finite.inverse_positive()))


# -- Kottwitz map ---------------------------------------------------------------


class KottwitzClass:
    """An element of the coweight-mod-coroot quotient, by its coroot
    coordinates mod 1: coordinate i is r_i / d, with r_i = ``residues[i]`` and
    d its component's denominator.  Two classes are equal when they have the
    same ``system`` object and equal residues, and hash as the residues;
    ``kottwitz_group`` sorts them on the residues, which orders them as their
    coordinates in [0, 1).  A value: nothing sets an attribute after
    construction except the derived ``rep`` and ``text``, each filled in once,
    on first access, by ``__getattr__``."""

    __slots__ = ("system", "residues", "rep", "text")

    def __init__(self, system: RootSystem, residues: tuple[int, ...]):
        self.system = system
        self.residues = residues

    def __getattr__(self, name: str):
        # called only while the slot ``name`` is unset
        if name == "rep":
            # the coordinates in [0, 1), as Fractions r_i / d
            value = tuple(fractions[r] for (_, _, fractions), r
                          in zip(_class_map(self.system), self.residues))
        elif name == "text":
            # ``rep`` as text, ``;``-separated (the coordinates lie in [0, 1),
            # where ``str`` is the notation's fraction format)
            value = ";".join(map(str, self.rep))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, value)
        return value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.system is other.system and self.residues == other.residues

    def __hash__(self) -> int:
        return hash(self.residues)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(system={self.system!r}, residues={self.residues!r})"

    def __reduce__(self):
        # copy and pickle the two fields only, never the derived slots
        return type(self), (self.system, self.residues)

    @classmethod
    def from_translation(cls, system: RootSystem, mu) -> "KottwitzClass":
        """Coroot coordinates of mu mod 1, in integers: per component, d * C^{-1}
        is an integer matrix, so residue i is column i . mu mod d."""
        if type(sum(mu)) is not int:  # some entry is not an int: check integrality
            mu = _as_int_tuple(mu)
        return cls(system, tuple([sum(map(mul, column, mu)) % d
                                  for column, d, _ in _class_map(system)]))

    @classmethod
    def zero(cls, system: RootSystem) -> "KottwitzClass":
        return cls(system, (0,) * system.rank)

    def __add__(self, other: "KottwitzClass") -> "KottwitzClass":
        return KottwitzClass(self.system, tuple([
            (a + b) % d
            for (_, d, _), a, b in zip(_class_map(self.system), self.residues, other.residues)
        ]))

    def is_zero(self) -> bool:
        return not any(self.residues)

    def same_coinvariant(self, other: "KottwitzClass", sigma: DiagramAutomorphism) -> bool:
        """Whether the two classes agree modulo the (1 - sigma) subgroup."""
        if self == other:
            return True
        table = _coinvariant_classes(self.system, sigma)
        return table[self.residues] is table[other.residues]

    def coinvariant(self, sigma: DiagramAutomorphism) -> tuple[Fraction, ...]:
        """Canonical representative modulo the (1 - sigma) subgroup: the
        ``rep`` of the least class in the coset (``_coinvariant_classes``)."""
        return _coinvariant_classes(self.system, sigma)[self.residues].rep


@per_system
def _class_map(system: RootSystem):
    """Per coordinate i, in index order: column i of d * C^{-1} over every
    index, zero outside i's component (so a residue is one dot product), the
    component block's least common denominator d, and the Fractions r/d for
    r < d, which ``KottwitzClass.rep`` reads.  In integers: the block's
    inverse is rows / det, so d = |det| / gcd(det, rows) and
    d * C^{-1} = rows / (det / d)."""
    out = []
    for comp in system.components:
        rows, det = _linalg.integer_inverse(
            [[system.cartan_matrix[i][j] for j in comp.indices] for i in comp.indices])
        d = abs(det) // gcd(det, *(c for row in rows for c in row))
        fractions = tuple(Fraction(r, d) for r in range(d))
        for i in range(comp.rank):
            column = [0] * system.rank
            for j, row in zip(comp.indices, rows):
                column[j] = row[i] // (det // d)
            out.append((tuple(column), d, fractions))
    return tuple(out)


def _generated_subgroup(system: RootSystem, generators) -> set[KottwitzClass]:
    """The subgroup of the (finite) quotient generated by ``generators``, by
    breadth-first closure of sums from zero."""
    seen = {KottwitzClass.zero(system)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                cand = g + h
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


@per_system
def kottwitz_group(system: RootSystem) -> tuple[KottwitzClass, ...]:
    """All elements of the finite quotient group, by closure from the generators."""
    generators = [
        KottwitzClass.from_translation(
            system, tuple(1 if j == i else 0 for j in range(system.rank))
        )
        for i in range(system.rank)
    ]
    return tuple(sorted(_generated_subgroup(system, generators), key=lambda k: k.residues))


@per_system
def _coinvariant_classes(
    system: RootSystem, sigma: DiagramAutomorphism
) -> dict[tuple[int, ...], KottwitzClass]:
    """Residues of each class -> the least class of its coset of {g - sigma(g)},
    one shared instance per coset; the omega_i^v generate the quotient, so the
    omega_i^v - sigma(omega_i^v) generate that subgroup.  Residues order as
    the coordinates in [0, 1), so sorted ``kottwitz_group`` meets each coset
    first at its least class."""
    generators = [KottwitzClass.from_translation(system, tuple(
        int(j == i) - int(j == sigma.index(i)) for j in range(system.rank)))
        for i in range(system.rank)]
    subgroup = _generated_subgroup(system, generators)
    table = {}
    for least in kottwitz_group(system):
        if least.residues not in table:
            for h in subgroup:
                table[(least + h).residues] = least
    return table


def kottwitz(x: AffineElement) -> KottwitzClass:
    """The class of the translation part; a homomorphism killing the affine Weyl group."""
    return KottwitzClass.from_translation(x.system, x.translation)


# -- Newton map -----------------------------------------------------------------


def make_dominant(system: RootSystem, mu) -> tuple[tuple, FiniteWeylElement]:
    """(dominant representative, u) with u . mu dominant; the coordinates keep
    the number type of ``mu`` (integers stay integers)."""
    coords = list(mu)
    u = FiniteWeylElement.identity(system)
    while True:
        i = next((k for k in range(system.rank) if coords[k] < 0), None)
        if i is None:
            return tuple(coords), u
        # s_i . mu = mu - <alpha_i, mu> alpha_i^v
        ci = coords[i]
        for j in range(system.rank):
            coords[j] -= ci * system.cartan_matrix[i][j]
        u = FiniteWeylElement.simple(system, i) * u


@dataclass(frozen=True)
class NewtonPoint:
    """The Newton point lambda / n in lowest terms: the integer ``numerators``
    of lambda and ``dominant_numerators`` of its dominant representative, over
    one ``denominator`` n > 0 with gcd(n, lambda) = 1.  W0 acts on the
    coweight lattice by unimodular integer matrices, so n is the lowest
    denominator of the dominant representative as well."""

    numerators: tuple[int, ...]
    dominant_numerators: tuple[int, ...]
    denominator: int

    @property
    def vector(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def dominant(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.dominant_numerators)

    def is_central(self) -> bool:
        return not any(self.dominant_numerators)


def newton(x: AffineElement, sigma: DiagramAutomorphism,
           force_multiple: int = 1) -> NewtonPoint:
    """Average translation part of the first sigma-twisted power that is a pure
    translation; independent of which valid power is used (``force_multiple``
    demands a larger power, for the independence audit).

    The raw vector is only fixed by the twisted action; its dominant
    representative is genuinely sigma-invariant.  Both are found in
    integers: the power n gives the translation lambda, both are divided by
    their gcd, and as W0 acts linearly the dominant representative of
    lambda/n is that of the integer numerators over the same denominator.
    """
    system = x.system
    twists = [x]
    for _ in range(sigma.order - 1):
        twists.append(apply_sigma_affine(sigma, twists[-1]))
    step = sigma.order * force_multiple
    cap = 2 * system.weyl_order() * step + 2
    z = x
    n = 1
    while n <= cap:
        if n % step == 0 and z.finite.is_identity():
            g = gcd(n, *z.translation)
            numerators = tuple([c // g for c in z.translation])
            return NewtonPoint(numerators, make_dominant(system, numerators)[0], n // g)
        z = z * twists[n % sigma.order]
        n += 1
    raise InternalCheckError("Newton iteration did not terminate within the cap")


# -- base-alcove stabilizer and the affine simple reflections --------------------


def minuscule_omegas(system: RootSystem) -> tuple[AffineElement, ...]:
    """The length-zero elements, unsorted and uncapped (Iwahori-Matsumoto 1965;
    Bourbaki VI §2.3).

    Per component: the identity and t^{omega_i^v} w_0^{J_i} w_0 for each node i
    of mark 1, with J_i the component's other nodes; Omega is the product of
    these sets over the components.
    """
    factors = []
    for comp, theta in zip(system.components, system.highest_roots):
        w0 = longest_element(system, comp.indices)
        options = [AffineElement.identity(system)]
        for i in comp.indices:
            if theta[i] == 1:
                w0_j = longest_element(system, [k for k in comp.indices if k != i])
                coweight = tuple(1 if k == i else 0 for k in range(system.rank))
                options.append(AffineElement(coweight, w0_j * w0))
        factors.append(options)
    return tuple(reduce(mul, combo) for combo in product(*factors))


@per_system
def omega_elements(system: RootSystem) -> tuple[AffineElement, ...]:
    """All length-zero elements, one per Kottwitz class, sorted by class representative.

    Systems over the W0 cap are refused: W_x and the oracle scan are bounded
    only by |W0|.
    """
    require_w0_within_cap(system)
    out = sorted(minuscule_omegas(system), key=lambda el: kottwitz(el).residues)
    if any(el.length for el in out) or len(out) != len(kottwitz_group(system)):
        raise InternalCheckError("base-alcove stabilizer does not match the class group")
    return tuple(out)


@per_system
def _omega_by_class(system: RootSystem) -> dict:
    return {kottwitz(el): el for el in omega_elements(system)}


def omega_of_kottwitz(system: RootSystem, kappa: KottwitzClass) -> AffineElement:
    omega = _omega_by_class(system).get(kappa)
    if omega is None:
        raise InternalCheckError(f"no length-zero element for class {kappa.rep}")
    return omega


def omega_component(x: AffineElement, kappa: KottwitzClass | None = None
                    ) -> tuple[AffineElement, AffineElement]:
    """Decompose x = x_a * omega with omega the length-zero element of the same
    class (``kappa``, the class of x, when the caller already has it)."""
    omega = omega_of_kottwitz(x.system, kottwitz(x) if kappa is None else kappa)
    return x * omega.inverse(), omega


@dataclass(frozen=True)
class AffineSimple:
    """One affine simple reflection: finite s_i or the extra node of a component."""

    index: int  # 0..rank-1 finite; rank + c for component c's affine node
    label: str
    element: AffineElement


@per_system
def affine_simples(system: RootSystem) -> tuple[AffineSimple, ...]:
    out = [
        AffineSimple(i, f"s{i + 1}", AffineElement.from_finite(
            FiniteWeylElement.simple(system, i)))
        for i in range(system.rank)
    ]
    single = len(system.components) == 1
    for ci, theta in enumerate(system.highest_roots):
        theta_coroot = system.coroot_of(theta)
        # s_theta(alpha_j) = alpha_j - <alpha_j, theta^v> theta
        s_theta = FiniteWeylElement.from_images(system, tuple(
            tuple(int(k == j) - c * t for k, t in enumerate(theta))
            for j, c in enumerate(theta_coroot)))
        element = AffineElement(theta_coroot, s_theta)
        if element.length != 1:
            raise InternalCheckError("affine node reflection must have length 1")
        label = "S0" if single else f"S0@{ci + 1}"
        out.append(AffineSimple(system.rank + ci, label, element))
    return tuple(out)


@per_system
def omega_conjugation(system: RootSystem, omega: AffineElement) -> tuple[int, ...]:
    """Permutation s -> omega s omega^{-1} of the affine simple indices, for
    omega of length zero, read off the affine roots: s_i has (alpha_i, 0),
    the function p -> <alpha_i, p>, and the affine node of a component
    (-theta, 1).  omega = t^lam u sends (alpha, k) to (u alpha, k - <u alpha,
    lam>) and permutes these roots, as it stabilizes the base alcove."""
    roots, npos, rank = system.all_roots, len(system.positive_roots), system.rank
    gradients = FiniteWeylElement.identity(system).key + bytes(
        roots.index(theta) + npos for theta in system.highest_roots)
    out = []
    for node, number in enumerate(act_on_numbers(omega.finite, gradients)):
        target = gradients.find(number)
        level = (node >= rank) - sum(map(mul, roots[number], omega.translation))
        if target < 0 or level != (target >= rank):
            raise InternalCheckError("conjugate of an affine simple is not simple")
        out.append(target)
    return tuple(out)


@per_system
def twisted_affine_action(
    system: RootSystem, sigma: DiagramAutomorphism, omega: AffineElement
) -> tuple[int, ...]:
    """Permutation s -> omega sigma(s) omega^{-1} of the affine simple
    indices: sigma sends s_i to s_sigma(i) and the affine node of a component
    to that of its image."""
    conjugation, rank = omega_conjugation(system, omega), system.rank
    return tuple(conjugation[sigma.index(node) if node < rank
                             else rank + sigma.component_image(node - rank)]
                 for node in range(len(conjugation)))


@dataclass(frozen=True)
class AffineSupport:
    letters: frozenset[int]
    full: bool

    @classmethod
    def closed(cls, letters, xi: tuple[int, ...]) -> "AffineSupport":
        """The support on the smallest xi-stable set containing ``letters``,
        the union of their orbits under the permutation xi."""
        out: set[int] = set()
        for letter in letters:
            while letter not in out:
                out.add(letter)
                letter = xi[letter]
        return cls(frozenset(out), len(out) == len(xi))


def affine_sigma_support(x: AffineElement, sigma: DiagramAutomorphism,
                         kappa: KottwitzClass | None = None) -> AffineSupport:
    """Support of the affine-Weyl part, closed under the omega-twisted sigma-action.
    ``kappa`` is the class of x, when the caller already has it.

    Closed form: letter i is missing from the support of x_a exactly when x_a
    fixes the vertex of the closed base alcove opposite wall i (the stabilizer
    of a point is generated by the reflections fixing it; Bourbaki V §3.3).
    Component by component, the vertex opposite the affine wall is 0 and the
    one opposite wall i is omega_i^v / m_i, with m_i the mark of node i.
    """
    system = x.system
    x_a, omega = omega_component(x, kappa)
    mu = x_a.translation
    inv_images = x_a.finite.inverse().images  # (w . omega_i^v)_k = inv_images[k][i]
    letters: set[int] = set()
    for ci, (comp, theta) in enumerate(zip(system.components, system.highest_roots)):
        if any(mu[k] for k in comp.indices):
            letters.add(system.rank + ci)
        for i in comp.indices:
            mark = theta[i]
            if any(inv_images[k][i] + mark * mu[k] != (1 if k == i else 0)
                   for k in comp.indices):
                letters.add(i)
    return AffineSupport.closed(letters, twisted_affine_action(system, sigma, omega))


def fixes_point_of_closed_base_alcove(x: AffineElement, sigma: DiagramAutomorphism) -> bool:
    """Whether the affine map p -> x(sigma(p)) fixes a point of the closed base alcove.

    Exact: solve the fixed-point equation over the rationals, then test the
    alcove inequalities on the solution subspace by Fourier-Motzkin.
    """
    system = x.system
    n = system.rank
    m = _linalg.mat_mul(weyl_matrix(x.finite), sigma.matrix())
    shifted = tuple(
        tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    solved = _linalg.solve_affine(shifted, tuple(-Fraction(c) for c in x.translation))
    if solved is None:
        return False
    particular, basis = solved
    constraints = []
    for i in range(n):
        alpha = tuple(1 if k == i else 0 for k in range(n))
        coeffs = tuple(system.pair(alpha, b) for b in basis)
        constraints.append((coeffs, system.pair(alpha, particular)))
    for theta in system.highest_roots:
        coeffs = tuple(-system.pair(theta, b) for b in basis)
        constraints.append((coeffs, 1 - system.pair(theta, particular)))
    return _linalg.feasible(constraints, len(basis))


# -- bounded enumeration of the whole group --------------------------------------


class Edge(NamedTuple):
    """An element of the length walk and the step that reached it: x = x' s
    for the parent x' (at position ``parent`` of the previous level) and the
    affine simple s numbered ``node``, whose alcove x(base) lies across the
    wall H_{beta, c} = {p : <beta, p> = c} from x'(base), with beta the
    positive root numbered ``root`` and c = ``level``.  A length-zero element
    is a root of the walk, with the four step fields None."""

    x: AffineElement
    parent: int | None = None
    node: int | None = None
    root: int | None = None
    level: int | None = None


def walk_affine(system: RootSystem, length_bound: int, cap: int = ENUM_CAP_DEFAULT):
    """Every x with length(x) <= length_bound as an ``Edge``, in (length,
    translation, finite) order.

    Level by level from Omega, x' s for each affine simple s.  With
    x' = t^mu w, the step crosses the image under x' of the base alcove's
    wall for s: H_{w(alpha_i), p} with p = <w(alpha_i), mu> for a finite s_i,
    H_{w(theta), c} with c = 1 + <w(theta), mu> for the affine node of a
    component with highest root theta.  Only the Iwahori-Matsumoto term of
    that one root changes, so x' s_i is longer exactly when p <= 0 for
    w(alpha_i) positive and p < 0 for it negative, and x' s_0 exactly when
    c > 0, or c = 0 with w(theta) negative: no product is made for a
    rejected candidate.  The edge records the wall with its root made
    positive (beta = -w(alpha_i) and level -p when w(alpha_i) is negative).
    An element reached from several parents keeps its first edge.  The cap
    is checked before each level, Omega included, is yielded.
    """
    npos, roots = len(system.positive_roots), system.all_roots
    simples = affine_simples(system)
    finite = [s.element for s in simples[:system.rank]]
    affine = [(s.index, s.element) for s in simples[system.rank:]]
    thetas = bytes(map(roots.index, system.highest_roots))
    level = [Edge(x) for x in sorted(omega_elements(system), key=AffineElement.sort_key)]
    target = count = 0
    while True:
        count += len(level)
        if count > cap:
            raise CapExceeded(
                f"enumeration at length {target} exceeds cap {cap}", estimate=count)
        yield from level
        if target >= length_bound:
            return
        target += 1
        nxt = {}

        def step(y, position, node, number, c):
            """Keep y = x' s, whose wall is H_{root number, c} (c signed for
            the root as numbered, which may be negative), if new."""
            key = y.key()
            if key not in nxt:
                y._length = target
                nxt[key] = (Edge(y, position, node, number, c) if number < npos
                            else Edge(y, position, node, number - npos, -c))

        for position, edge in enumerate(level):
            x = edge.x
            mu, w = x.translation, x.finite
            for i, number in enumerate(w.key):
                p = sum(map(mul, roots[number], mu))
                if p <= 0 if number < npos else p < 0:
                    step(x * finite[i], position, i, number, p)
            for (node, s), number in zip(affine, act_on_numbers(w, thetas)):
                c = 1 + sum(map(mul, roots[number], mu))
                if c > 0 if number < npos else c >= 0:
                    step(x * s, position, node, number, c)
        level = sorted(nxt.values(), key=lambda e: e.x.sort_key())


def enumerate_affine(system: RootSystem, length_bound: int,
                     cap: int = ENUM_CAP_DEFAULT):
    """All x with length(x) <= length_bound, in (length, translation, finite)
    order: the elements of ``walk_affine``."""
    for edge in walk_affine(system, length_bound, cap):
        yield edge.x
