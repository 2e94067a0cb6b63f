"""Textual notations for systems, diagram actions, and group elements.

Element grammar (whitespace-separated tokens, multiplied left to right):

- ``e``               the identity (only useful alone)
- ``t[1,0]``          translation by integer fundamental-coweight coordinates
- ``s1`` .. ``sN``    finite simple reflections (1-based)
- ``S0`` / ``S0@c``   the affine simple reflection of component c (1-based)
- ``o[1,0]``          the length-zero element with the class of ``t[1,0]``

Examples: ``t[1,0] s1 s2``, ``S0 s1 S0``, ``o[1,0] s2``.

Diagram actions are ``id`` or products of cycles on 1-based simple indices,
e.g. ``(1 3)`` or ``(1 3)(2 4)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cartan import RootSystem, classical_positive_count, descriptor_components
from .errors import NotationError
from .iwahori import (
    AffineElement,
    KottwitzClass,
    affine_simples,
    omega_of_kottwitz,
)
from .weyl import (ROOT_CAP, DiagramAutomorphism, FiniteWeylElement, reduced_word,
                   require_roots_within_cap)

_VECTOR = r"\[(-?\d+(?:,-?\d+)*)?\]"


def parse_system(descriptor: str) -> RootSystem:
    """The named system, refused before any root is generated when its roots
    would exceed the root-permutation limit."""
    components = descriptor_components(descriptor)
    require_roots_within_cap(2 * sum(classical_positive_count(*c) for c in components))
    return RootSystem.from_descriptor(descriptor)  # the traced set-up entry point


def _integer(digits: str, position: int | None = None) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise NotationError(f"an integer of {len(digits)} digits is too long", position) from None


def parse_int_vector(text: str, rank: int, position: int = 0) -> tuple[int, ...]:
    m = re.fullmatch(_VECTOR, text.strip())
    if not m:
        raise NotationError(f"expected an integer vector like [1,0], got {text!r}", position)
    entries = tuple(_integer(c, position) for c in m.group(1).split(",")) if m.group(1) else ()
    if len(entries) != rank:
        raise NotationError(
            f"vector {text!r} has {len(entries)} entries; the system has rank {rank}",
            position)
    return entries


def parse_sigma(system: RootSystem, text: str) -> DiagramAutomorphism:
    text = text.strip()
    if text in ("id", "", "identity"):
        return DiagramAutomorphism.identity(system)
    if not re.fullmatch(r"(\(\s*\d+(?:[ ,]\s*\d+)*\s*\))+", text):
        raise NotationError(f"bad permutation {text!r}; use id or cycles like (1 3)")
    perm = list(range(system.rank))
    seen: set[int] = set()
    for cycle_text in re.findall(r"\(([^()]*)\)", text):
        entries = [_integer(tok) - 1 for tok in re.split(r"[ ,]+", cycle_text.strip()) if tok]
        if any(i < 0 or i >= system.rank for i in entries):
            raise NotationError(f"cycle {cycle_text!r} is out of range for rank {system.rank}")
        for i in entries:
            if i in seen:  # the cycles are disjoint and repeat no index
                raise NotationError(
                    f"index {i + 1} appears twice, the second time in cycle {cycle_text!r}")
            seen.add(i)
        for pos, i in enumerate(entries):
            perm[i] = entries[(pos + 1) % len(entries)]
    try:
        return DiagramAutomorphism(system, tuple(perm))
    except ValueError as exc:
        raise NotationError(str(exc)) from exc


def parse_finite(system: RootSystem, text: str) -> FiniteWeylElement:
    element = FiniteWeylElement.identity(system)
    tokens = list(re.finditer(r"\S+", text))
    if not tokens:
        raise NotationError("empty element", 0)
    for m in tokens:
        token, pos = m.group(0), m.start()
        if token == "e":
            continue
        sm = re.fullmatch(r"s(\d+)", token)
        if not sm:
            raise NotationError(f"unknown finite-word token {token!r}", pos)
        idx = _integer(sm.group(1), pos) - 1
        if not 0 <= idx < system.rank:
            raise NotationError(f"reflection index {token!r} out of range", pos)
        element = element * FiniteWeylElement.simple(system, idx)
    return element


# the label of each simple index; a system has at most ROOT_CAP // 2 simple roots
_LETTERS = tuple(f"s{i + 1}" for i in range(ROOT_CAP // 2))


def format_finite(w: FiniteWeylElement) -> str:
    """The reduced word as text, kept on the interned element."""
    if w._text is None:
        word = reduced_word(w)
        w._text = " ".join(map(_LETTERS.__getitem__, word)) if word else "e"
    return w._text


def parse_affine(system: RootSystem, text: str) -> AffineElement:
    element = AffineElement.identity(system)
    tokens = list(re.finditer(r"\S+", text))
    if not tokens:
        raise NotationError("empty element", 0)
    simples = {s.label: s.element for s in affine_simples(system)}
    for m in tokens:
        token, pos = m.group(0), m.start()
        if token == "e":
            continue
        if token.startswith("t["):
            coords = parse_int_vector(token[1:], system.rank, pos)
            element = element * AffineElement.from_translation(system, coords)
            continue
        if token.startswith("o["):
            coords = parse_int_vector(token[1:], system.rank, pos)
            kappa = KottwitzClass.from_translation(system, coords)
            element = element * omega_of_kottwitz(system, kappa)
            continue
        if token in simples:
            element = element * simples[token]
            continue
        sm = re.fullmatch(r"s(\d+)", token)
        if sm:
            idx = _integer(sm.group(1), pos) - 1
            if not 0 <= idx < system.rank:
                raise NotationError(f"reflection index {token!r} out of range", pos)
            element = element * AffineElement.from_finite(
                FiniteWeylElement.simple(system, idx))
            continue
        raise NotationError(f"unknown token {token!r}", pos)
    return element


def format_affine(x: AffineElement) -> str:
    parts = []
    if any(c != 0 for c in x.translation):
        parts.append("t[" + ",".join(map(str, x.translation)) + "]")
    if not x.finite.is_identity():
        parts.append(format_finite(x.finite))
    return " ".join(parts) if parts else "e"


def parse_kappa(system: RootSystem, text: str) -> KottwitzClass | None:
    """A class designator: an integer vector (class of that translation), zero,
    or match-x (None: each element's own class)."""
    text = text.strip()
    if text == "match-x":
        return None
    if text == "zero":
        return KottwitzClass.zero(system)
    coords = parse_int_vector(text, system.rank)
    return KottwitzClass.from_translation(system, coords)


def format_fraction(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
