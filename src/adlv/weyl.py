"""The finite Weyl group: elements, lengths, reduced words, supports, sigma-action.

W0 acts faithfully on the roots, so an element is the permutation it makes
of the system's ``all_roots``: ``root_perm[k]`` is the number of
w(all_roots[k]), a ``bytes`` entry, so at most 256 roots (more raise
``CapExceeded``).  A product is one ``bytes.translate`` of two permutations
and an inverse one ``bytes.maketrans``; only generators (the identity, the
simple reflections and elements given by their simple-root images) are
built by root arithmetic.  ``images``, the simple-root images as shared
``all_roots`` tuples, is the canonical form for sorting and output.
Instances are interned per system on the numbers of their simple-root
images, so at most |W0| are alive and every derived quantity is computed
once.  The intern table is ``system.memo[_intern]``, next to the system's
other tables: it dies with the system.

Every subset of W0 that is listed is {r : N(r) ⊆ S} for a set S of positive
roots, and one walk over inversion sets lists it in ``sort_key`` order
(``embedding_order``, one tuple per (system, S)): W0 itself is S = Phi+,
the embedding set W_x is S = Phi_x, and the minimal coset representatives
W^J are S = Phi+ minus Phi_J+.  Only this module knows the root-permutation
format; other modules work on root numbers (indices into ``all_roots``)
through ``act_on_numbers`` and read supports as bitmasks of simple indices
(bit i for alpha_i) through ``product_support``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import lcm
from operator import add, getitem, mul, or_

from .cartan import Coweight, Root, RootSystem, per_system
from .errors import CapExceeded

W0_CAP = 10 ** 6  # systems with a larger W0 are not listed
ROOT_CAP = 256  # a bytes entry numbers at most this many roots


class _RootIndex(dict):
    """The intern table of one system, numbers of the simple-root images ->
    element, with the numbering it is keyed on: ``roots`` is ``all_roots``
    (the ``npos`` positive roots first), ``number`` maps a root to its index
    and ``simple`` holds the numbers of the simple roots.  The positive roots
    come by height: the first ``rank`` are alpha_i for i in ``lowest``, and
    ``steps`` builds each later one as (number of a lower root, j), adding
    alpha_j.  ``deviations[k][a]`` is the bitmask of the indices i at which
    the coordinates of root a differ from delta_ki, and ``supports[a]`` that
    of the simple roots a positive root a involves (0 for a negative a).
    ``lex`` is a ``bytes.translate`` table sending a root's number to its
    rank among the roots as tuples, so translated keys compare as ``images``."""

    __slots__ = ("roots", "number", "simple", "npos", "lowest", "steps", "deviations",
                 "supports", "lex")

    def __init__(self, system: RootSystem):
        super().__init__()
        roots = system.all_roots
        require_roots_within_cap(len(roots))
        self.roots = roots
        self.number = number = {root: k for k, root in enumerate(roots)}
        self.simple = bytes(number[tuple(int(j == i) for j in range(system.rank))]
                            for i in range(system.rank))
        self.npos = len(system.positive_roots)
        self.lowest = tuple(root.index(1) for root in roots[:system.rank])
        self.steps: list[tuple[int, int]] = []
        for root in system.positive_roots[system.rank:]:
            for j in range(system.rank):
                lower = root[:j] + (root[j] - 1,) + root[j + 1:]
                if lower in number:
                    self.steps.append((number[lower], j))
                    break
        masks = [sum(1 << i for i, c in enumerate(root) if c) for root in roots]
        self.deviations = tuple(
            tuple(mask & ~(1 << k) | (root[k] != 1) << k for root, mask in zip(roots, masks))
            for k in range(system.rank)
        )
        self.supports = tuple(masks[:self.npos]) + (0,) * self.npos
        lex = bytearray(ROOT_CAP)
        for rank, k in enumerate(sorted(range(len(roots)), key=roots.__getitem__)):
            lex[k] = rank
        self.lex = bytes(lex)


def _index(system: RootSystem) -> _RootIndex:
    if _intern not in system.memo:
        system.memo[_intern] = _RootIndex(system)
    return system.memo[_intern]


def _table(perm: bytes) -> bytes:
    """``perm`` padded to a ``bytes.translate`` table: ``v.translate(_table(u))``
    is the composition k -> u[v[k]], done in C."""
    return perm.ljust(ROOT_CAP, b"\0")


def _inverted(perm: bytes) -> bytes:
    """The inverse permutation: ``maketrans`` sends perm[k] to k."""
    return bytes.maketrans(perm, bytes(range(len(perm))))[:len(perm)]


def _intern(system: RootSystem, root_perm: bytes,
            length: int | None = None) -> "FiniteWeylElement":
    """The element permuting the roots by ``root_perm``; ``length``, when the
    caller knows it, is recorded instead of being recounted.  Every caller
    has built the system's root index first."""
    table = system.memo[_intern]
    key = table.simple.translate(_table(root_perm))
    element = table.get(key)
    if element is None:
        element = table[key] = FiniteWeylElement(system, root_perm, key)
    if length is not None and element._length is None:
        element._length = length
    return element


class FiniteWeylElement:
    """An element of W0: its permutation of the roots, canonically the tuple
    of images of the simple roots."""

    __slots__ = ("system", "root_perm", "key", "images", "_length", "_inverse",
                 "_support", "_word", "_text", "_pos_images", "_inv_positive")

    def __init__(self, system: RootSystem, root_perm: bytes, key: bytes):
        self.system = system
        self.root_perm = root_perm
        self.key = key  # the numbers of the simple-root images
        self.images: tuple[Root, ...] = tuple(map(system.memo[_intern].roots.__getitem__, key))
        self._length: int | None = None
        self._inverse: "FiniteWeylElement | None" = None
        self._support: frozenset[int] | None = None
        self._word: tuple[int, ...] | None = None
        self._text: str | None = None  # the notation's text, set by notation.format_finite
        self._pos_images: tuple[Root, ...] | None = None
        self._inv_positive: tuple[bool, ...] | None = None

    @classmethod
    def from_images(cls, system: RootSystem, images, length: int | None = None
                    ) -> "FiniteWeylElement":
        """The element with these simple-root images.  A new element's root
        permutation comes from root arithmetic, so only generators are built
        this way."""
        table = _index(system)
        element = table.get(bytes(map(table.number.__getitem__, images)))
        if element is not None:
            return element
        # w is additive and the positive roots come by height; w(-a) = -w(a)
        moved = [images[i] for i in table.lowest]
        for lower, j in table.steps:
            moved.append(tuple(map(add, moved[lower], images[j])))
        half, npos = bytes(map(table.number.__getitem__, moved)), table.npos
        return _intern(system, half + bytes((k + npos) % (2 * npos) for k in half), length)

    @classmethod
    def identity(cls, system: RootSystem) -> "FiniteWeylElement":
        table = _index(system)
        return table.get(table.simple) or _intern(system, bytes(range(len(table.roots))), 0)

    @classmethod
    def simple(cls, system: RootSystem, i: int) -> "FiniteWeylElement":
        return simple_reflections(system)[i]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteWeylElement)
            and self.images == other.images and self.system is other.system
        )

    def __hash__(self) -> int:
        return hash(self.images)  # bytes hashes are salted per process

    def __reduce__(self):
        # re-interned in the copy's system, never copied slot by slot
        return type(self).from_images, (self.system, self.images)

    def __repr__(self) -> str:
        word = reduced_word(self)
        return "W0<e>" if not word else "W0<" + " ".join(f"s{i+1}" for i in word) + ">"

    def act_on_root(self, root) -> Root:
        table = self.system.memo[_intern]
        try:
            return table.roots[self.root_perm[table.number[root]]]
        except KeyError:
            raise ValueError(f"{root} is not a root") from None

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        """u v(alpha_j) = u(v(alpha_j)): the key is u's permutation read at v's
        key, and the whole composition is made only for a new element."""
        through = _table(self.root_perm)
        element = self.system.memo[_intern].get(other.key.translate(through))
        return element or _intern(self.system, other.root_perm.translate(through))

    def inverse(self) -> "FiniteWeylElement":
        if self._inverse is None:
            self._inverse = _intern(self.system, _inverted(self.root_perm), self._length)
            self._inverse._inverse = self
        return self._inverse

    def act_on_coweight(self, mu) -> Coweight:
        """w·mu, defined so that <w(a), w·mu> = <a, mu>: coordinate i is
        <w^{-1}(alpha_i), mu>, an integer row-dot.  Integer coordinates give
        ints, Fraction coordinates give Fractions."""
        if len(mu) != self.system.rank:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, row, mu)) for row in self.inverse().images)

    @property
    def length(self) -> int:
        if self._length is None:
            npos = self.system.memo[_intern].npos
            self._length = sum(1 for k in self.root_perm[:npos] if k >= npos)
        return self._length

    def positive_images(self) -> tuple[Root, ...]:
        """Images of the positive roots, aligned with system.positive_roots."""
        if self._pos_images is None:
            table = self.system.memo[_intern]
            self._pos_images = tuple(map(table.roots.__getitem__, self.root_perm[:table.npos]))
        return self._pos_images

    def inverse_positive(self) -> tuple[bool, ...]:
        """Whether w^{-1}(alpha) is positive, per positive root alpha."""
        if self._inv_positive is None:
            npos = self.system.memo[_intern].npos
            self._inv_positive = tuple(k < npos for k in self.inverse().root_perm[:npos])
        return self._inv_positive

    def is_identity(self) -> bool:
        return self.key == self.system.memo[_intern].simple

    def right_descents(self) -> list[int]:
        """Indices i with w(alpha_i) negative, i.e. length(w s_i) < length(w)."""
        npos = self.system.memo[_intern].npos
        return [i for i, k in enumerate(self.key) if k >= npos]

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
        out.append(FiniteWeylElement.from_images(system, tuple(images), 1))
    return tuple(out)


def reduced_word(w: FiniteWeylElement) -> tuple[int, ...]:
    """A reduced word for w as a tuple of 0-based simple indices.

    Deterministic: strip the smallest-index right descent at each step.  The
    returned letters multiply left-to-right to w.  The word of w is the word
    of w s_i followed by i, so stripping stops at the first element whose
    word is already cached and splices that word in.
    """
    letters: list[int] = []
    current = w
    prefix: tuple[int, ...] = ()
    while True:
        if current._word is not None:
            prefix = current._word
            break
        descents = current.right_descents()
        if not descents:
            break
        letters.append(descents[0])
        current = current * FiniteWeylElement.simple(w.system, descents[0])
    w._word = prefix + tuple(reversed(letters))
    return w._word


def support(w: FiniteWeylElement) -> frozenset[int]:
    """Simple indices appearing in any (equivalently each) reduced word."""
    if w._support is None:
        mask = product_support(w)
        w._support = frozenset(i for i in range(w.system.rank) if mask >> i & 1)
    return w._support


def positive_pairings(system: RootSystem, mu) -> list:
    """<alpha, mu> for every positive root alpha, in root-number order: one
    addition per root above the simple ones."""
    table = _index(system)
    out = [mu[i] for i in table.lowest]
    for lower, j in table.steps:
        out.append(out[lower] + mu[j])
    return out


def act_on_numbers(w: FiniteWeylElement, numbers: bytes) -> bytes:
    """The numbers of w(a) for the roots a numbered by ``numbers``: one
    ``bytes.translate``."""
    return numbers.translate(_table(w.root_perm))


def positive_root_supports(system: RootSystem) -> tuple[int, ...]:
    """Per root number, the bitmask of the simple roots a positive root
    involves, and 0 for a negative root: OR-ing it over numbers collects the
    supports of the positive roots among them."""
    return _index(system).supports


def product_support(*factors) -> int:
    """The support of the composite root map factors[0] o factors[1] o ...,
    an element of W0, as a bitmask.  A factor is a FiniteWeylElement or a
    DiagramAutomorphism (the root map of its index permutation).

    Only the numbers of the simple-root images are composed, one
    ``bytes.translate`` per factor, so no product is interned.  Closed form:
    i is missing from the support exactly when the product lies in the
    parabolic subgroup fixing the fundamental coweight omega_i^v, i.e. when
    the i-th coordinate of its image of alpha_k is delta_ki for every k.
    """
    table = _index(factors[0].system)
    key = table.simple
    for factor in reversed(factors):
        key = key.translate(factor._root_perms[0] if isinstance(factor, DiagramAutomorphism)
                            else _table(factor.root_perm))
    return reduce(or_, map(getitem, table.deviations, key), 0)


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


def require_roots_within_cap(count: int) -> None:
    """Refuse a system of ``count`` roots, more than a root permutation numbers."""
    if count > ROOT_CAP:
        raise CapExceeded(f"{count} roots exceed the root-permutation limit of {ROOT_CAP}",
                          estimate=count)


def require_w0_within_cap(system: RootSystem) -> None:
    """Refuse systems whose finite Weyl group is larger than ``W0_CAP``."""
    order = system.weyl_order()
    if order > W0_CAP:
        raise CapExceeded(f"|W0| = {order} exceeds the cap {W0_CAP}", estimate=order)


def enumerate_w0(system: RootSystem) -> tuple[FiniteWeylElement, ...]:
    """All elements of W0 in ``sort_key`` order: the elements whose inversion
    set lies in all of Phi+.  Refused past ``W0_CAP``."""
    require_w0_within_cap(system)
    return embedding_order(system, frozenset(system.positive_roots))


@per_system
def embedding_order(system: RootSystem, roots: frozenset[Root]) -> tuple[FiniteWeylElement, ...]:
    """The elements whose inversion set lies in the given positive roots, in
    ``sort_key`` order: r with N(r) ⊆ ``roots``, i.e. r(positives minus
    ``roots``) still positive.

    Grown upward from the identity: for r a member with beta = r^{-1}(alpha_i)
    positive, N(s_i r) = N(r) + {beta}, so s_i r is a member exactly when
    beta lies in ``roots``.  The set is left-closed, so each member r' is
    reached from s_i r' with i its smallest left descent, and only from
    there.  A member r is carried as the root permutation of r and the
    ``bytes.translate`` table of r^{-1} (j is a left descent of r iff
    r^{-1}(alpha_j) is negative), so each test is a translate: of the
    simple-root numbers through r^{-1} and a membership table of ``roots``,
    and of the smaller simple-root numbers through (s_i r)^{-1}.  The search
    depth is the length |N(r)|, so each level is interned with its length
    and sorted by ``images`` (its key through the ``lex`` table), and the
    levels in turn are in ``sort_key`` order.
    """
    identity = FiniteWeylElement.identity(system)
    table = _index(system)
    simple, npos, lex = table.simple, table.npos, table.lex  # numbers of alpha_j, positives
    inside = bytearray(ROOT_CAP)
    for root in roots:
        inside[table.number[root]] = 1
    s_tables = [_table(s.root_perm) for s in simple_reflections(system)]
    earlier = [simple[:i] for i in range(system.rank)]  # numbers of alpha_j, j < i
    members = [identity]
    frontier = [(identity.root_perm, _table(identity.root_perm))]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for perm, through_inv in frontier:
            # per i, whether beta = r^{-1}(alpha_i) lies in roots
            grows = simple.translate(through_inv).translate(inside)
            for i, s_i in enumerate(s_tables):
                if not grows[i]:
                    continue
                # (s_i r)^{-1} = r^{-1} s_i, a table: only the padding past the
                # root numbers differs from _table's, and no root number reads it
                new_inv = s_i.translate(through_inv)
                if i and max(earlier[i].translate(new_inv)) >= npos:
                    continue  # s_i r has a smaller left descent
                nxt.append((perm.translate(s_i), new_inv))
        level = [_intern(system, perm, depth) for perm, _ in nxt]
        level.sort(key=lambda r: r.key.translate(lex))
        members += level
        frontier = nxt
    return tuple(members)


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
        object.__setattr__(self, "order", lcm(*(len(self.orbit(i)) for i in range(n))))

    @classmethod
    def identity(cls, system: RootSystem) -> "DiagramAutomorphism":
        return cls(system, tuple(range(system.rank)))

    def is_identity(self) -> bool:
        return all(self.perm[i] == i for i in range(len(self.perm)))

    def inverse(self) -> "DiagramAutomorphism":
        return self._inverse

    @cached_property
    def _inverse(self) -> "DiagramAutomorphism":
        """sigma^{-1}, built once per automorphism."""
        return DiagramAutomorphism(self.system, tuple(map(self.perm.index, range(len(self.perm)))))

    def index(self, i: int) -> int:
        return self.perm[i]

    @cached_property
    def _closed_sets(self) -> dict[int, frozenset[int]]:
        return {}

    def closed_set(self, mask: int) -> frozenset[int]:
        """The smallest sigma-stable set of simple indices containing those
        whose bits are set in ``mask``, built once per mask."""
        out = self._closed_sets.get(mask)
        if out is None:
            out = self._closed_sets[mask] = frozenset(
                j for i in range(len(self.perm)) if mask >> i & 1 for j in self.orbit(i))
        return out

    def orbit(self, i: int) -> frozenset[int]:
        out = {i}
        j = self.perm[i]
        while j not in out:
            out.add(j)
            j = self.perm[j]
        return frozenset(out)

    def coweight(self, mu) -> Coweight:
        """Coordinate i moves to perm(i); roots move the same way."""
        out = [0] * len(self.perm)
        for i, coeff in enumerate(mu):
            out[self.perm[i]] = coeff
        return tuple(out)

    @cached_property
    def _root_perms(self) -> tuple[bytes, bytes]:
        """sigma's permutation of the root numbers, as a translation table,
        and its inverse."""
        table = _index(self.system)
        perm = bytes(table.number[self.coweight(root)] for root in table.roots)
        return _table(perm), _inverted(perm)

    def weyl(self, w: FiniteWeylElement) -> FiniteWeylElement:
        """The automorphism of W0 sending s_i to s_{perm(i)}, i.e. conjugation
        w -> sigma w sigma^{-1} of root permutations; preserves length."""
        perm, inverse = self._root_perms
        return _intern(self.system, inverse.translate(_table(w.root_perm)).translate(perm),
                       w._length)

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
    return sigma.closed_set(product_support(w))


def weyl_matrix(w: FiniteWeylElement) -> tuple[tuple[int, ...], ...]:
    """Integer matrix of the coweight action of w in the fundamental-coweight
    basis: row i is w^{-1}(alpha_i), since (w·mu)_i = <w^{-1}(alpha_i), mu>."""
    return w.inverse().images
