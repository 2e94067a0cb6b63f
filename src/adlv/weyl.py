"""The finite Weyl group: elements, lengths, reduced words, supports, sigma-action.

Elements are stored by their canonical form: the tuple of images of all
simple roots (an integer matrix determining the permutation of the roots).
Instances are interned per root system, so there are at most |W0| of them
alive and every derived quantity (length, inverse, reduced word, support,
root images) is computed once.  The intern table is ``system.memo[_intern]``,
next to the system's other tables: it dies with the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .cartan import Coweight, Root, RootSystem, per_system
from .errors import CapExceeded

W0_CAP_DEFAULT = 10 ** 6


def _intern(system: RootSystem, images: tuple[Root, ...],
            length: int | None = None) -> "FiniteWeylElement":
    """The element with these simple-root images; ``length``, when the caller
    knows it, is recorded instead of being recounted from the root images."""
    table = system.memo.get(_intern)
    if table is None:
        table = system.memo[_intern] = {}
    element = table.get(images)
    if element is None:
        element = FiniteWeylElement(system, images)
        table[images] = element
    if length is not None and element._length is None:
        element._length = length
    return element


class FiniteWeylElement:
    """An element of W0, canonically the tuple of images of the simple roots."""

    __slots__ = ("system", "images", "_length", "_inverse", "_support",
                 "_word", "_pos_images", "_inv_positive")

    def __init__(self, system: RootSystem, images: tuple[Root, ...]):
        self.system = system
        self.images = images
        self._length: int | None = None
        self._inverse: "FiniteWeylElement | None" = None
        self._support: frozenset[int] | None = None
        self._word: tuple[int, ...] | None = None
        self._pos_images: tuple[Root, ...] | None = None
        self._inv_positive: tuple[bool, ...] | None = None

    @classmethod
    def identity(cls, system: RootSystem) -> "FiniteWeylElement":
        return _intern(system, tuple(
            tuple(1 if j == i else 0 for j in range(system.rank))
            for i in range(system.rank)
        ))

    @classmethod
    def simple(cls, system: RootSystem, i: int) -> "FiniteWeylElement":
        return simple_reflections(system)[i]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteWeylElement)
            and self.images == other.images and self.system is other.system
        )

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        word = reduced_word(self)
        return "W0<e>" if not word else "W0<" + " ".join(f"s{i+1}" for i in word) + ">"

    def act_on_root(self, root) -> Root:
        cols = self.images
        n = self.system.rank
        out = [0] * n
        for j, coeff in enumerate(root):
            if coeff:
                col = cols[j]
                for k in range(n):
                    out[k] += coeff * col[k]
        return tuple(out)

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        return _intern(
            self.system, tuple(self.act_on_root(img) for img in other.images)
        )

    def inverse(self) -> "FiniteWeylElement":
        """w^{-1}(alpha_j) is the root beta with w(beta) = alpha_j: read it off the
        positive roots whose image has height +-1."""
        if self._inverse is None:
            preimages: list[Root] = [()] * self.system.rank
            for alpha, image in zip(self.system.positive_roots, self.positive_images()):
                height = sum(image)
                if height == 1:
                    preimages[image.index(1)] = alpha
                elif height == -1:
                    preimages[image.index(-1)] = tuple(-c for c in alpha)
            self._inverse = _intern(self.system, tuple(preimages))
            self._inverse._inverse = self
        return self._inverse

    def act_on_coweight(self, mu) -> Coweight:
        """w·mu, defined so that <w(a), w·mu> = <a, mu>: coordinate i is
        <w^{-1}(alpha_i), mu>, an integer row-dot.  Integer coordinates give
        ints, Fraction coordinates give Fractions."""
        if len(mu) != self.system.rank:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * m for a, m in zip(row, mu)) for row in self.inverse().images)

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = sum(1 for img in self.positive_images() if sum(img) < 0)
        return self._length

    def positive_images(self) -> tuple[Root, ...]:
        """Images of the positive roots, aligned with system.positive_roots."""
        if self._pos_images is None:
            self._pos_images = tuple(
                self.act_on_root(alpha) for alpha in self.system.positive_roots
            )
        return self._pos_images

    def inverse_positive(self) -> tuple[bool, ...]:
        """Whether w^{-1}(alpha) is positive, per positive root alpha."""
        if self._inv_positive is None:
            inv = self.inverse()
            self._inv_positive = tuple(sum(img) > 0 for img in inv.positive_images())
        return self._inv_positive

    def is_identity(self) -> bool:
        """No right descent: every simple root stays positive."""
        return all(sum(img) > 0 for img in self.images)

    def right_descents(self) -> list[int]:
        """Indices i with w(alpha_i) negative, i.e. length(w s_i) < length(w)."""
        return [i for i, img in enumerate(self.images) if sum(img) < 0]

    def sort_key(self):
        return (self.length, self.images)


@per_system
def simple_reflections(system: RootSystem) -> tuple[FiniteWeylElement, ...]:
    """s_1, ..., s_n, built and interned once per system."""
    cartan = system.cartan_matrix
    out = []
    for i in range(system.rank):
        images = []
        for j in range(system.rank):
            coords = [1 if k == j else 0 for k in range(system.rank)]
            coords[i] -= cartan[i][j]  # s_i(alpha_j) = alpha_j - <alpha_j, alpha_i^v> alpha_i
            images.append(tuple(coords))
        out.append(_intern(system, tuple(images), 1))
    return tuple(out)


def reduced_word(w: FiniteWeylElement, pick: str = "smallest") -> tuple[int, ...]:
    """A reduced word for w as a tuple of 0-based simple indices.

    Deterministic: strip the smallest-index right descent at each step (or the
    largest, used by tests to confirm support is word-independent).  The
    returned letters multiply left-to-right to w.  The smallest-index word of
    w is the word of w s_i followed by i, so stripping stops at the first
    element whose word is already cached and splices that word in.
    """
    smallest = pick == "smallest"
    select = min if smallest else max
    letters: list[int] = []
    current = w
    prefix: tuple[int, ...] = ()
    while True:
        if smallest and current._word is not None:
            prefix = current._word
            break
        descents = current.right_descents()
        if not descents:
            break
        i = select(descents)
        letters.append(i)
        current = current * FiniteWeylElement.simple(w.system, i)
    word = prefix + tuple(reversed(letters))
    if smallest:
        w._word = word
    return word


def support(w: FiniteWeylElement) -> frozenset[int]:
    """Simple indices appearing in any (equivalently each) reduced word.

    Closed form: i is missing from the support exactly when w lies in the
    parabolic subgroup fixing the fundamental coweight omega_i^v, i.e. when
    the i-th coordinate of w(alpha_k) is delta_ki for every k.
    """
    if w._support is None:
        w._support = frozenset(
            i for i in range(w.system.rank)
            if any(img[i] != (1 if k == i else 0) for k, img in enumerate(w.images))
        )
    return w._support


def longest_element(system: RootSystem, indices=None) -> FiniteWeylElement:
    """The longest element of the parabolic subgroup on ``indices`` (default:
    all of W0): right-multiply by simple reflections while one lengthens."""
    span = range(system.rank) if indices is None else sorted(indices)
    simples = {i: FiniteWeylElement.simple(system, i) for i in span}
    w = FiniteWeylElement.identity(system)
    while True:
        i = next((k for k in span if sum(w.images[k]) > 0), None)
        if i is None:
            return w
        w = w * simples[i]


def require_w0_within_cap(system: RootSystem, cap: int = W0_CAP_DEFAULT) -> None:
    """Refuse systems whose finite Weyl group is larger than ``cap``."""
    order = system.weyl_order()
    if order > cap:
        raise CapExceeded(f"|W0| = {order} exceeds the cap {cap}", estimate=order)


@per_system
def _all_elements(system: RootSystem, cap: int) -> tuple[FiniteWeylElement, ...]:
    require_w0_within_cap(system, cap)
    identity = FiniteWeylElement.identity(system)
    seen = {identity.images}
    result = [identity]
    frontier = [identity]
    simples = [FiniteWeylElement.simple(system, i) for i in range(system.rank)]
    while frontier:
        nxt = {}
        for w in frontier:
            for s in simples:
                cand = w * s
                if cand.images not in seen:
                    nxt[cand.images] = cand
        frontier = [nxt[k] for k in sorted(nxt)]
        seen.update(nxt)
        result.extend(frontier)
    assert len(result) == system.weyl_order()
    return tuple(result)


def enumerate_w0(system: RootSystem, cap: int = W0_CAP_DEFAULT):
    """All elements of W0, once each, by breadth-first closure (deterministic order)."""
    return iter(_all_elements(system, cap))


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A Cartan-matrix-preserving permutation of the simple indices (the sigma-action)."""

    system: RootSystem
    perm: tuple[int, ...]
    order: int = field(init=False)

    def __post_init__(self):
        n = self.system.rank
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"{self.perm} is not a permutation of 0..{n - 1}")
        cartan = self.system.cartan_matrix
        for i in range(n):
            for j in range(n):
                if cartan[self.perm[i]][self.perm[j]] != cartan[i][j]:
                    raise ValueError("permutation does not preserve the Cartan matrix")
        object.__setattr__(self, "order", self._order())

    def _order(self) -> int:
        result = 1
        seen = set()
        for start in range(len(self.perm)):
            if start in seen:
                continue
            size = 0
            i = start
            while i not in seen:
                seen.add(i)
                i = self.perm[i]
                size += 1
            result = lcm(result, size)
        return result

    @classmethod
    def identity(cls, system: RootSystem) -> "DiagramAutomorphism":
        return cls(system, tuple(range(system.rank)))

    def is_identity(self) -> bool:
        return all(self.perm[i] == i for i in range(len(self.perm)))

    def inverse(self) -> "DiagramAutomorphism":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return DiagramAutomorphism(self.system, tuple(inv))

    def index(self, i: int) -> int:
        return self.perm[i]

    def orbit(self, i: int) -> frozenset[int]:
        out = {i}
        j = self.perm[i]
        while j not in out:
            out.add(j)
            j = self.perm[j]
        return frozenset(out)

    def root(self, root) -> Root:
        out = [0] * len(self.perm)
        for i, coeff in enumerate(root):
            out[self.perm[i]] = coeff
        return tuple(out)

    def coweight(self, mu) -> Coweight:
        out = [0] * len(self.perm)
        for i, coeff in enumerate(mu):
            out[self.perm[i]] = coeff
        return tuple(out)

    def weyl(self, w: FiniteWeylElement) -> FiniteWeylElement:
        """The automorphism of W0 sending s_i to s_{perm(i)}; preserves length."""
        images: list[Root] = [()] * len(self.perm)
        for i in range(len(self.perm)):
            images[self.perm[i]] = self.root(w.images[i])
        return _intern(self.system, tuple(images))

    def component_image(self, component_index: int) -> int:
        start = self.system.components[component_index].start
        return self.system.component_of_index(self.perm[start])

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix of the coweight action in the fundamental-coweight basis."""
        n = len(self.perm)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[self.perm[i]][i] = 1
        return tuple(tuple(row) for row in m)


def sigma_support(w: FiniteWeylElement, sigma: DiagramAutomorphism) -> frozenset[int]:
    """Minimal sigma-stable set of simple indices containing the support."""
    out: set[int] = set()
    for i in support(w):
        out |= sigma.orbit(i)
    return frozenset(out)


def weyl_matrix(w: FiniteWeylElement) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of the coweight action of w in the fundamental-coweight
    basis: row i is w^{-1}(alpha_i), since (w·mu)_i = <w^{-1}(alpha_i), mu>."""
    return w.inverse().images
