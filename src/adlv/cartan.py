"""Exact root-system core: Cartan data, roots, coweight lattices, root subsets.

Conventions used throughout the package:

- Roots are integer tuples in the simple-root basis, so ``alpha_i`` is the
  i-th unit vector and a root is positive iff its coordinates are >= 0.
- Coweights are tuples of ints/Fractions in the fundamental-coweight basis,
  so ``pair(alpha_i, mu) == mu[i]`` and dominance is a sign check.
- ``cartan[i][j]`` is the pairing of ``alpha_j`` against the coroot
  ``alpha_i^v``; consequently ``alpha_i^v`` has fundamental-coweight
  coordinates ``cartan[i]``.

Reducible systems are ordered direct sums, e.g. descriptor ``"A2+A2"``.

>>> system = RootSystem.from_descriptor("A2")
>>> sorted(system.positive_roots)
[(0, 1), (1, 0), (1, 1)]
>>> system.inverse_cartan[0]
(Fraction(2, 3), Fraction(1, 3))
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import factorial, lcm
from operator import mul

from . import _linalg
from .errors import NotationError

Root = tuple[int, ...]
Coweight = tuple  # int/Fraction entries, fundamental-coweight basis

# valid ranks (lowest, highest or None) per irreducible type, keyed by letter
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _chain(rank: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    return m


def _require_type(type_label: str, rank: int) -> None:
    lo, hi = _RANK_RANGE.get(type_label, (None, None))
    if lo is None or rank < lo or (hi is not None and rank > hi):
        raise NotationError(f"invalid Dynkin type {type_label}{rank}")


def cartan_matrix(type_label: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of an irreducible type in Bourbaki numbering."""
    _require_type(type_label, rank)
    m = _chain(rank)
    if type_label == "B":
        m[rank - 1][rank - 2] = -2  # alpha_rank is short
    elif type_label == "C":
        m[rank - 2][rank - 1] = -2  # alpha_rank is long
    elif type_label == "D":
        m[rank - 1][rank - 2] = m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 3] = m[rank - 3][rank - 1] = -1
    elif type_label == "E":
        # node 2 hangs off node 4 (1-based); the chain is 1-3-4-...-rank
        m[0][1] = m[1][0] = 0
        m[1][2] = m[2][1] = 0
        m[0][2] = m[2][0] = -1
        m[1][3] = m[3][1] = -1
    elif type_label == "F":
        m[2][1] = -2  # alpha_3, alpha_4 short
    elif type_label == "G":
        m[0][1] = -3  # alpha_1 short
    return tuple(tuple(row) for row in m)


def _generate_positive_roots(cartan) -> tuple[Root, ...]:
    """Closure of the simple roots under root-string addition."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots: set[Root] = set(simple)
    level = list(simple)
    while level:
        nxt = []
        for beta in level:
            for i in range(rank):
                # alpha_i-string through beta: q = p - <beta, alpha_i^v> > 0 iff beta+alpha_i is a root
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) in roots:
                        p += 1
                    else:
                        break
                pairing = sum(cartan[i][j] * beta[j] for j in range(rank))
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        level = nxt
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def descriptor_components(descriptor: str) -> list[tuple[str, int]]:
    """The (type, rank) summands of a descriptor like ``"A2+B3"``, each
    checked to name an irreducible type."""
    parts = []
    for chunk in descriptor.strip().split("+"):
        m = re.fullmatch(r"([A-G])(\d+)", chunk.strip())
        if not m:
            raise NotationError(f"bad root-system descriptor {chunk!r}")
        try:
            parts.append((m.group(1), int(m.group(2))))
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise NotationError(f"a rank of {len(m.group(2))} digits is too long") from None
        _require_type(*parts[-1])
    return parts


def per_system(fn):
    """Memoize ``fn(system, *args)`` in ``system.memo``, so the value lives
    exactly as long as its system.  Positional arguments only."""

    @wraps(fn)
    def cached(system, *args):
        key = (fn, *args)
        try:
            return system.memo[key]
        except KeyError:
            pass
        value = system.memo[key] = fn(system, *args)
        return value

    return cached


@dataclass(frozen=True)
class Component:
    """One irreducible summand and its slice of the global index range."""

    type_label: str
    rank: int
    start: int  # global index of its first simple root

    @property
    def indices(self) -> range:
        return range(self.start, self.start + self.rank)


class RootSystem:
    """A reduced root system, possibly a direct sum of irreducible ones.

    Instances are immutable after construction and compared by identity;
    build one per run and share it freely.  ``memo`` holds every table
    derived from the system (see ``per_system``) and the interned finite
    Weyl elements, so they are freed with it.
    """

    def __init__(self, components: list[tuple[str, int]]):
        if not components:
            raise NotationError("empty root-system descriptor")
        comps = []
        start = 0
        for type_label, rank in components:
            comps.append(Component(type_label, rank, start))
            start += rank
        self.components: tuple[Component, ...] = tuple(comps)
        self.rank: int = start
        self.type_label: str = "+".join(f"{c.type_label}{c.rank}" for c in self.components)
        self.memo: dict = {}

        blocks = [cartan_matrix(c.type_label, c.rank) for c in self.components]
        cartan = [[0] * self.rank for _ in range(self.rank)]
        for comp, block in zip(self.components, blocks):
            for i in range(comp.rank):
                for j in range(comp.rank):
                    cartan[comp.start + i][comp.start + j] = block[i][j]
        self.cartan_matrix: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in cartan)
        rows, self.determinant = _linalg.integer_inverse(self.cartan_matrix)
        self.inverse_cartan: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(entry, self.determinant) for entry in row) for row in rows)
        self._adjugate_columns = tuple(zip(*rows))

        pos: list[Root] = []
        for comp, block in zip(self.components, blocks):
            for root in _generate_positive_roots(block):
                embedded = [0] * self.rank
                for i, coeff in enumerate(root):
                    embedded[comp.start + i] = coeff
                pos.append(tuple(embedded))
        pos.sort(key=lambda r: (sum(r), r))
        self.positive_roots: tuple[Root, ...] = tuple(pos)
        self.all_roots: tuple[Root, ...] = tuple(pos) + tuple(
            tuple(-c for c in r) for r in pos
        )
        self._root_set = frozenset(self.all_roots)
        self.highest_roots: tuple[Root, ...] = tuple(
            max((r for r in pos if any(r[i] for i in comp.indices)),
                key=lambda r: (sum(r), r))
            for comp in self.components
        )

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label!r})"

    def __reduce__(self):
        # a copy is a new system with an empty memo, equal to nothing else
        return type(self), ([(c.type_label, c.rank) for c in self.components],)

    @classmethod
    def from_descriptor(cls, descriptor: str) -> "RootSystem":
        """Parse descriptors like ``"A2"``, ``"B3"``, ``"A2+A2"``."""
        return cls(descriptor_components(descriptor))

    # -- membership and signs ------------------------------------------------

    def is_positive(self, root: Root) -> bool:
        if root not in self._root_set:
            raise ValueError(f"{root} is not a root")
        return sum(root) > 0

    def negate(self, root: Root) -> Root:
        return tuple(-c for c in root)

    def component_of_index(self, i: int) -> int:
        for ci, comp in enumerate(self.components):
            if i in comp.indices:
                return ci
        raise ValueError(f"index {i} out of range")

    # -- pairings and lattices -----------------------------------------------

    def pair(self, root, mu):
        """Pairing <root, mu> of a root with a coweight; bilinear, exact.

        An int for an integral mu given in ints, a Fraction as soon as mu has
        a Fraction coordinate.
        """
        if len(root) != self.rank or len(mu) != self.rank:
            raise ValueError("dimension mismatch")
        return sum(a * m for a, m in zip(root, mu))

    def coroot_numerators(self, mu) -> tuple:
        """The coroot coordinates of mu times ``determinant``, the Cartan
        matrix's (positive) determinant: the dot products of mu with the
        columns of the integer rows of ``integer_inverse``, so integers for
        an integral mu."""
        if len(mu) != self.rank:
            raise ValueError("dimension mismatch")
        return tuple([sum(map(mul, column, mu)) for column in self._adjugate_columns])

    def coroot_coordinates(self, mu) -> tuple[Fraction, ...]:
        """Coordinates c with mu = sum_i c_i * alpha_i^v (inverse-Cartan
        transform), as Fractions: each numerator over the determinant."""
        det = self.determinant
        return tuple([Fraction(c, det) for c in self.coroot_numerators(mu)])

    def in_coweight_lattice(self, mu) -> bool:
        return all(type(c) is int or Fraction(c).denominator == 1 for c in mu)

    def is_dominant(self, mu) -> bool:
        return all(c >= 0 if type(c) is int else Fraction(c) >= 0 for c in mu)

    def coroot_of(self, root: Root) -> tuple[int, ...]:
        """The coroot root^v = 2*root/(root,root) in fundamental-coweight
        coordinates <alpha_j, root^v>, integers, by the invariant form (x, y) =
        sum_ij x_i d_i cartan[i][j] y_j.  The symmetrizer d is found by graph
        propagation, d_j = d_i cartan[i][j] / cartan[j][i]; squared root
        lengths within a component differ by a factor 1, 2 or 3, so starting
        each component at 6 keeps it integral."""
        if tuple(root) not in self._root_set:
            raise ValueError(f"{root} is not a root")
        d = [0] * self.rank
        for comp in self.components:
            d[comp.start] = 6
            pending = [comp.start]
            while pending:
                i = pending.pop()
                for j in comp.indices:
                    if d[j] == 0 and self.cartan_matrix[i][j] != 0:
                        d[j] = d[i] * self.cartan_matrix[i][j] // self.cartan_matrix[j][i]
                        pending.append(j)
        gram_row = [sum(root[i] * d[i] * self.cartan_matrix[i][j] for i in range(self.rank))
                    for j in range(self.rank)]
        norm = sum(g * c for g, c in zip(gram_row, root))
        return tuple(2 * g // norm for g in gram_row)

    # -- base alcove geometry --------------------------------------------------

    def base_alcove_vertices(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Per component: the vertices 0 and fundamental-coweight/mark of its base simplex."""
        out = []
        for comp, theta in zip(self.components, self.highest_roots):
            vertices = [tuple(Fraction(0) for _ in range(self.rank))]
            for i in comp.indices:
                mark = theta[i]
                vertices.append(tuple(
                    Fraction(1, mark) if j == i else Fraction(0) for j in range(self.rank)
                ))
            out.append(tuple(vertices))
        return tuple(out)

    @per_system
    def base_alcove_barycenter(self) -> tuple[Fraction, ...]:
        """Barycenter of the base alcove: per component, the average of its
        rank + 1 vertices, so coordinate i is 1 / (mark_i * (rank + 1))."""
        coords = [Fraction(0)] * self.rank
        for comp, theta in zip(self.components, self.highest_roots):
            for i in comp.indices:
                coords[i] = Fraction(1, theta[i] * (comp.rank + 1))
        return tuple(coords)

    @cached_property
    def scaled_base_alcove_barycenter(self) -> tuple[int, tuple[int, ...]]:
        """(D, D * barycenter) with D the least common denominator, so the
        scaled barycenter has integer coordinates."""
        center = self.base_alcove_barycenter()
        scale = lcm(*(c.denominator for c in center))
        return scale, tuple(int(c * scale) for c in center)

    # -- classical invariants ------------------------------------------------

    def weyl_order(self) -> int:
        order = 1
        for comp in self.components:
            order *= _irreducible_weyl_order(comp.type_label, comp.rank)
        return order


def _irreducible_weyl_order(type_label: str, rank: int) -> int:
    if type_label == "A":
        return factorial(rank + 1)
    if type_label in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if type_label == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(type_label, rank)]


def classical_positive_count(type_label: str, rank: int) -> int:
    """Number of positive roots of an irreducible type (textbook values)."""
    if type_label == "A":
        return rank * (rank + 1) // 2
    if type_label in ("B", "C"):
        return rank * rank
    if type_label == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[
        (type_label, rank)
    ]


# -- root subsets (closed / radical / parabolic) -------------------------------


@dataclass(frozen=True)
class SubsetProperties:
    closed: bool
    radical: bool
    parabolic: bool


def subset_predicates(system: RootSystem, members) -> SubsetProperties:
    """Classify a subset of the roots.

    closed: alpha, beta in the set and alpha+beta a root implies alpha+beta in it;
    radical: disjoint from its negation; parabolic: union with its negation is all roots.
    """
    psi = frozenset(tuple(m) for m in members)
    for m in psi:
        if m not in system._root_set:
            raise ValueError(f"{m} is not a root")
    closed = True
    for a in psi:
        for b in psi:
            s = tuple(x + y for x, y in zip(a, b))
            if s in system._root_set and s not in psi:
                closed = False
                break
        if not closed:
            break
    neg = frozenset(system.negate(m) for m in psi)
    radical = not (psi & neg)
    parabolic = (psi | neg) == system._root_set
    return SubsetProperties(closed, radical, parabolic)
