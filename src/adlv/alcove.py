"""Alcove geometry: k-values, critical strips, the dominant decomposition,
the essential finite part eta, the strip set Phi_x and the embedding set W_x.

The k-value of an alcove against a root a is the integer k with the alcove
strictly between the level-k and level-(k+1) hyperplanes of a.  The base
alcove has k-value 0 against positive roots and -1 against negative ones;
"x lies in the critical strip of a" is uniformly k(a, x) == k(a, base).
W_x is the set of r with inversion set N(r) inside Phi_x, so it depends on
Phi_x alone: ``weyl.embedding_set`` grows it, and ``weyl.embedding_order``
sorts it, once per (system, Phi_x), kept in the system's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cartan import Root, RootSystem
from .errors import InternalCheckError
from .iwahori import (
    AffineElement,
    AffineSupport,
    KottwitzClass,
    affine_sigma_support,
    kottwitz,
    make_dominant,
)
from .weyl import (DiagramAutomorphism, FiniteWeylElement, embedding_order, embedding_set,
                   enumerate_w0, sigma_support)


def base_k(system: RootSystem, root: Root) -> int:
    """k-value of the base alcove: 0 on positive roots, -1 on negative ones."""
    return 0 if system.is_positive(root) else -1


def barycenter(x: AffineElement) -> tuple[Fraction, ...]:
    """Barycenter of the alcove x(base); an interior point, never on a wall."""
    return x.act_on_point(x.system.base_alcove_barycenter())


@dataclass(frozen=True)
class DominantDecomposition:
    """x = v * t^mu * w with t^mu w in the dominant chamber and mu dominant."""

    v: FiniteWeylElement
    mu: tuple[int, ...]
    w: FiniteWeylElement


def dominant_decompose(x: AffineElement) -> DominantDecomposition:
    """Move the alcove's barycenter into the dominant chamber, in integers: with
    D the barycenter's common denominator, D x(p) = w(D p) + D lambda."""
    system = x.system
    scale, center = system.scaled_base_alcove_barycenter
    moved = x.finite.act_on_coweight(center)
    point = tuple(m + scale * t for m, t in zip(moved, x.translation))
    dominant_point, u = make_dominant(system, point)
    if any(c <= 0 for c in dominant_point):
        raise InternalCheckError("alcove barycenter landed on a chamber wall")
    v = u.inverse()
    rest = AffineElement.from_finite(u) * x  # v^{-1} x = t^mu w
    mu = rest.translation
    if not system.is_dominant(mu):
        raise InternalCheckError("dominant decomposition produced a nondominant part")
    return DominantDecomposition(v, mu, rest.finite)


@dataclass(frozen=True)
class AlcoveProfile:
    """All per-element alcove data the nonemptiness criterion consumes."""

    x: AffineElement
    sigma: DiagramAutomorphism
    decomposition: DominantDecomposition

    @classmethod
    def build(cls, x: AffineElement, sigma: DiagramAutomorphism) -> "AlcoveProfile":
        return cls(x, sigma, dominant_decompose(x))

    @property
    def system(self) -> RootSystem:
        return self.x.system

    @property
    def v(self) -> FiniteWeylElement:
        return self.decomposition.v

    @property
    def mu(self) -> tuple[int, ...]:
        return self.decomposition.mu

    @property
    def w(self) -> FiniteWeylElement:
        return self.decomposition.w

    @cached_property
    def eta(self) -> FiniteWeylElement:
        """sigma^{-1}(w) * v, the finite part seen from the dominant chamber."""
        return self.sigma.inverse().weyl(self.w) * self.v

    def j_rx(self, r: FiniteWeylElement) -> frozenset[int]:
        """J_{r,x}: the sigma-support of sigma^{-1}(r) * eta * r^{-1}."""
        return sigma_support(self.sigma.inverse().weyl(r) * self.eta * r.inverse(), self.sigma)

    @cached_property
    def kappa(self) -> KottwitzClass:
        """The class of x."""
        return kottwitz(self.x)

    @cached_property
    def affine_support(self) -> AffineSupport:
        """The affine sigma-support of x."""
        return affine_sigma_support(self.x, self.sigma, self.kappa)

    @cached_property
    def k_values(self) -> dict[Root, int]:
        """k(a, x) for every root a, by the closed form on one decomposition."""
        system = self.system
        mu = self.decomposition.mu
        v_inv_images = self.v.inverse().positive_images()
        vw_inv_positive = (self.v * self.w).inverse_positive()
        out: dict[Root, int] = {}
        for idx, alpha in enumerate(system.positive_roots):
            inner = v_inv_images[idx]
            pairing = sum(a * m for a, m in zip(inner, mu))
            out[alpha] = pairing + (0 if vw_inv_positive[idx] else -1)
            out[system.negate(alpha)] = -pairing + (-1 if vw_inv_positive[idx] else 0)
        return out

    @cached_property
    def phi_x(self) -> frozenset[Root]:
        """Positive roots alpha with x inside the strip of v(alpha)."""
        system = self.system
        k_values = self.k_values
        return frozenset(
            alpha for alpha, image in zip(system.positive_roots, self.v.positive_images())
            if k_values[image] == base_k(system, image)
        )

    @cached_property
    def below_base(self) -> frozenset[Root]:
        """Roots a with k(a, x) below the base alcove's k-value."""
        system = self.system
        return frozenset(
            a for a, k in self.k_values.items() if k < base_k(system, a)
        )

    @cached_property
    def strips(self) -> tuple[Root, ...]:
        """Critical strips containing x, one positive representative each."""
        return tuple(
            beta for beta in self.system.positive_roots if self.k_values[beta] == 0
        )

    @property
    def shrunken(self) -> bool:
        return not self.strips

    @cached_property
    def w_x(self) -> frozenset[FiniteWeylElement]:
        """Elements r whose inversion set N(r) lies in phi_x: the embedding
        set, shared by every element of the system with this phi_x."""
        return embedding_set(self.system, self.phi_x)

    @property
    def w_x_sorted(self) -> tuple[FiniteWeylElement, ...]:
        """W_x in ``sort_key`` order, sorted once per phi_x.  Reads ``w_x``
        first, so the set is always grown (and timed) under that name."""
        self.w_x
        return embedding_order(self.system, self.phi_x)


def w_x_set_bruteforce(system: RootSystem, phi_x: frozenset[Root]) -> frozenset[FiniteWeylElement]:
    """Reference implementation of W_x for the strip set ``phi_x``: filter the
    whole finite Weyl group."""
    complement = [a for a in system.positive_roots if a not in phi_x]
    return frozenset(
        r for r in enumerate_w0(system)
        if all(sum(r.act_on_root(g)) > 0 for g in complement)
    )
