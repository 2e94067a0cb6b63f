"""Alcove geometry: k-values, critical strips, the dominant decomposition,
the essential finite part eta, the strip set Phi_x and the embedding set W_x.

The k-value of an alcove against a root a is the integer k with the alcove
strictly between the level-k and level-(k+1) hyperplanes of a.  The base
alcove has k-value 0 against positive roots and -1 against negative ones;
"x lies in the critical strip of a" is uniformly k(a, x) == k(a, base).
The profile holds the k-values by root number (the index into
``system.all_roots``: the positive roots, then their negatives in the same
order), for the positive roots only, as k(-a, x) = -1 - k(a, x); the strips,
Phi_x and the roots below the base alcove are read off those numbers.
W_x is the set of r with inversion set N(r) inside Phi_x, so it depends on
Phi_x alone: ``weyl.embedding_order`` lists it in ``sort_key`` order, once
per (system, Phi_x), kept in the system's memo; where Phi_x is all of
Phi+, W_x is W0, whose size is known without listing it.

``AlcoveProfile`` has one constructor, which takes the carried fields:
x, sigma, the decomposition v t^mu w, the class, the affine sigma-support
and the k-values.  The fields derived from them are each a
``functools.cached_property`` (W_x stays one so that a profiler can wrap
it).  ``AlcoveProfile.build`` computes the carried fields in closed form
from x alone (``k_numbers`` for the k-values); ``walk_profiles`` instead
carries them along the length walk (``iwahori.walk_affine``) from the
parent's: the step x = x' s crosses one wall H_{beta, c}, which changes
k(beta) to 2c - 1 - k(beta) and no other k-value (length counts
separating hyperplanes).  A chamber wall (c = 0) turns v into s_beta v;
any other wall keeps v and right-multiplies t^mu w by s.  The class is
the class of the walk's root omega, and the affine sigma-support gains
the index of omega s omega^{-1}, closed under the twisted action.  A
length-zero root needs no closed form: omega(base) is the base alcove,
so its profile is known outright.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cartan import Root, RootSystem
from .errors import InternalCheckError
from .iwahori import (
    ENUM_CAP_DEFAULT,
    AffineElement,
    AffineSupport,
    Edge,
    KottwitzClass,
    affine_sigma_support,
    affine_simples,
    kottwitz,
    make_dominant,
    omega_conjugation,
    twisted_affine_action,
    walk_affine,
)
from .weyl import (ROOT_CAP, DiagramAutomorphism, FiniteWeylElement, act_on_numbers,
                   embedding_order, positive_pairings, product_support)


def base_k(system: RootSystem, root: Root) -> int:
    """k-value of the base alcove: 0 on positive roots, -1 on negative ones."""
    return 0 if system.is_positive(root) else -1


def barycenter(x: AffineElement) -> tuple[Fraction, ...]:
    """Barycenter of the alcove x(base); an interior point, never on a wall."""
    return x.act_on_point(x.system.base_alcove_barycenter())


def scaled_barycenter(x: AffineElement) -> tuple[int, tuple[int, ...]]:
    """``barycenter`` in integers: (D, D x(p)) with D the base barycenter
    p's common denominator, as D x(p) = w(D p) + D lambda."""
    scale, center = x.system.scaled_base_alcove_barycenter
    moved = x.finite.act_on_coweight(center)
    return scale, tuple(m + scale * t for m, t in zip(moved, x.translation))


@dataclass(frozen=True)
class DominantDecomposition:
    """x = v * t^mu * w with t^mu w in the dominant chamber and mu dominant."""

    v: FiniteWeylElement
    mu: tuple[int, ...]
    w: FiniteWeylElement


def dominant_decompose(x: AffineElement) -> DominantDecomposition:
    """Move the alcove's barycenter into the dominant chamber, in integers
    (``scaled_barycenter``)."""
    system = x.system
    dominant_point, u = make_dominant(system, scaled_barycenter(x)[1])
    if any(c <= 0 for c in dominant_point):
        raise InternalCheckError("alcove barycenter landed on a chamber wall")
    v = u.inverse()
    rest = AffineElement.from_finite(u) * x  # v^{-1} x = t^mu w
    mu = rest.translation
    if not system.is_dominant(mu):
        raise InternalCheckError("dominant decomposition produced a nondominant part")
    return DominantDecomposition(v, mu, rest.finite)


def k_numbers(decomposition: DominantDecomposition) -> tuple[int, ...]:
    """k(alpha, x) per positive root number, by the closed form on x's
    decomposition v t^mu w: <v^{-1}(alpha), mu> = <alpha, v.mu>, less one
    when (vw)^{-1}(alpha) is negative.  Negative roots follow from
    k(-alpha) = -1 - k(alpha)."""
    v, mu, w = decomposition.v, decomposition.mu, decomposition.w
    pairings = positive_pairings(v.system, v.act_on_coweight(mu))
    positive = (v * w).inverse_positive()
    return tuple([p if up else p - 1 for p, up in zip(pairings, positive)])


class AlcoveProfile:
    """All per-element alcove data the nonemptiness criterion consumes:
    the carried fields, as ``build`` or the length walk knows them, and the
    fields derived from them on first use."""

    def __init__(self, x: AffineElement, sigma: DiagramAutomorphism,
                 decomposition: DominantDecomposition, kappa: KottwitzClass,
                 affine_support: AffineSupport, k_numbers: tuple[int, ...]):
        self.x = x
        self.sigma = sigma
        self.decomposition = decomposition
        self.kappa = kappa  # the class of x
        self.affine_support = affine_support  # the affine sigma-support of x
        self.k_numbers = k_numbers  # k(alpha, x) per positive root number
        self.system: RootSystem = x.system
        self.v, self.mu, self.w = decomposition.v, decomposition.mu, decomposition.w

    @classmethod
    def build(cls, x: AffineElement, sigma: DiagramAutomorphism) -> "AlcoveProfile":
        """The profile of x in closed form."""
        decomposition = dominant_decompose(x)
        kappa = kottwitz(x)
        return cls(x, sigma, decomposition, kappa, affine_sigma_support(x, sigma, kappa),
                   k_numbers(decomposition))

    @cached_property
    def eta(self) -> FiniteWeylElement:
        """sigma^{-1}(w) * v, the finite part seen from the dominant chamber."""
        return self.sigma.inverse().weyl(self.w) * self.v

    def j_rx(self, r: FiniteWeylElement) -> frozenset[int]:
        """J_{r,x}: the sigma-support of sigma^{-1}(r) * eta * r^{-1}, with
        sigma^{-1}(r) = sigma^{-1} r sigma composed as root maps."""
        sigma = self.sigma
        return sigma.closed_set(product_support(sigma.inverse(), r, sigma, self.eta, r.inverse()))

    @cached_property
    def k_values(self) -> dict[Root, int]:
        """k(a, x) for every root a, read from ``k_numbers``."""
        k = self.k_numbers
        return dict(zip(self.system.all_roots, k + tuple([-1 - c for c in k])))

    @cached_property
    def _strip_numbers(self) -> bytes:
        """The numbers of the positive roots beta with k(beta, x) = 0."""
        return bytes([n for n, k in enumerate(self.k_numbers) if not k])

    @cached_property
    def phi_x(self) -> frozenset[Root]:
        """Positive roots alpha with x inside the strip of v(alpha): the
        preimages v^{-1}(beta) of the strip roots beta, all positive, since
        beta is positive on x(base), which lies in the chamber of v."""
        preimages = act_on_numbers(self.v.inverse(), self._strip_numbers)
        return frozenset(map(self.system.all_roots.__getitem__, preimages))

    @cached_property
    def below_table(self) -> bytes:
        """A ``bytes.translate`` table of the roots a with k(a, x) below the
        base alcove's k-value: 1 at their numbers, 0 elsewhere.  For positive
        alpha that is k(alpha) < 0, and for -alpha it is k(alpha) > 0, so
        each non-strip pair contributes one number."""
        k = self.k_numbers
        return (bytes(map((0).__gt__, k)) + bytes(map((0).__lt__, k))).ljust(ROOT_CAP, b"\0")

    @cached_property
    def strips(self) -> tuple[Root, ...]:
        """Critical strips containing x, one positive representative each."""
        return tuple(map(self.system.all_roots.__getitem__, self._strip_numbers))

    @property
    def shrunken(self) -> bool:
        return not self._strip_numbers

    @property
    def w_x_size(self) -> int:
        """|W_x|; where Phi_x is all of Phi+, W_x is W0 and is not listed."""
        if len(self._strip_numbers) == len(self.k_numbers):
            return self.system.weyl_order()
        return len(self.w_x)

    @cached_property
    def w_x(self) -> tuple[FiniteWeylElement, ...]:
        """Elements r whose inversion set N(r) lies in phi_x, in ``sort_key``
        order: the embedding set, shared by every element of the system with
        this phi_x."""
        return embedding_order(self.system, self.phi_x)


def walk_profiles(system: RootSystem, sigma: DiagramAutomorphism, length_bound: int,
                  cap: int = ENUM_CAP_DEFAULT):
    """The profile of every element of ``iwahori.walk_affine``, in its order.

    A length-zero root gets ``_root``, its profile known outright; every
    longer element gets ``_crossed``, its parent's profile changed by the
    edge's wall.  The state is the profiles of the current and the previous
    level, each with its root omega's conjugation s -> omega s omega^{-1}
    and twisted action xi, s -> omega sigma(s) omega^{-1}, on the affine
    simple indices.  The walk's edges are listed in full first, so a cap is
    refused before any profile exists; each edge is dropped once read.
    """
    simples = affine_simples(system)
    previous: list = []
    current: list = []
    length = 0
    edges = deque(walk_affine(system, length_bound, cap))
    while edges:
        edge = edges.popleft()
        if edge.x.length != length:
            previous, current, length = current, [], edge.x.length
        if edge.parent is None:
            xi = twisted_affine_action(system, sigma, edge.x)
            entry = (_root(edge.x, sigma, xi), omega_conjugation(system, edge.x), xi)
        else:
            parent, conjugation, xi = previous[edge.parent]
            entry = (_crossed(parent, edge, simples[edge.node].element,
                              conjugation[edge.node], xi), conjugation, xi)
        current.append(entry)
        yield entry[0]


def _root(omega: AffineElement, sigma: DiagramAutomorphism,
          xi: tuple[int, ...]) -> AlcoveProfile:
    """The profile of a length-zero element omega: omega(base) is the base
    alcove, so v = e, mu and w are omega's own parts, every k-value is 0
    (Phi_x is all of Phi+) and the affine sigma-support is empty."""
    system = omega.system
    return AlcoveProfile(omega, sigma, DominantDecomposition(
        FiniteWeylElement.identity(system), omega.translation, omega.finite),
        kottwitz(omega), AffineSupport.closed((), xi), (0,) * len(system.positive_roots))


def _crossed(parent: AlcoveProfile, edge: Edge, s: AffineElement, letter: int,
             xi: tuple[int, ...]) -> AlcoveProfile:
    """The profile of edge.x = x' s from that of its parent x', where the
    step crosses the wall H_{beta, c}:

    - k(beta) becomes 2c - 1 - k(beta), and no other k-value changes;
    - on a chamber wall (c = 0), v becomes s_beta v = w' s w'^{-1} v, with
      w' the finite part of x'; otherwise v stays and t^mu w becomes
      t^mu w s;
    - the class stays; with x' = x'_a omega, edge.x = x'_a (omega s
      omega^{-1}) omega, so the support gains ``letter``, the index of
      omega s omega^{-1}, closed under the twisted action ``xi``.
    """
    d, beta, c = parent.decomposition, edge.root, edge.level
    if c:
        rest = AffineElement(d.mu, d.w) * s
        decomposition = DominantDecomposition(d.v, rest.translation, rest.finite)
    else:
        w = parent.x.finite
        decomposition = DominantDecomposition(w * s.finite * w.inverse() * d.v, d.mu, d.w)
    k = list(parent.k_numbers)
    k[beta] = 2 * c - 1 - k[beta]
    support = parent.affine_support
    if letter not in support.letters:
        support = AffineSupport.closed((letter, *support.letters), xi)
    return AlcoveProfile(edge.x, parent.sigma, decomposition, parent.kappa, support, tuple(k))
