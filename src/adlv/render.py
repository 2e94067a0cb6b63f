"""Rank-2 apartment pictures: hyperplanes, critical strips, verdict-colored alcoves.

All geometry is computed in exact rational arithmetic in the fundamental-
coweight plane and mapped to screen coordinates through a fixed per-type
embedding (simple coroots at the classical angles; the irrational parts use
a frozen rational approximation, so output is byte-deterministic).
"""

from __future__ import annotations

from fractions import Fraction

from .alcove import AlcoveProfile
from .cartan import RootSystem
from .criterion import decide_nonempty
from .errors import UnsupportedGeometry
from .iwahori import ENUM_CAP_DEFAULT, KottwitzClass, enumerate_affine, kottwitz, omega_of_kottwitz
from .weyl import DiagramAutomorphism

SQRT3 = Fraction(1_732_050_807_568_877, 10 ** 15)

_SCALE = 60  # pixels per world unit
_COLORS = {
    "empty": "#d73027",
    "shortcut": "#74add1",
    "nonempty": "#66bd63",
}

Point = tuple[Fraction, Fraction]


def _coroot_plane(system: RootSystem) -> list[Point]:
    """Screen coordinates of the simple coroots, per classical Cartan type."""
    labels = [c.type_label + str(c.rank) for c in system.components]
    if labels == ["A2"]:
        return [(Fraction(1), Fraction(0)), (Fraction(-1, 2), SQRT3 / 2)]
    if labels == ["B2"]:
        return [(Fraction(1), Fraction(-1)), (Fraction(0), Fraction(2))]
    if labels == ["C2"]:
        return [(Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1))]
    if labels == ["G2"]:
        return [(Fraction(1), Fraction(0)), (Fraction(-1, 2), SQRT3 / 6)]
    if labels == ["A1", "A1"]:
        return [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))]
    raise UnsupportedGeometry(
        f"rendering needs a rank-2 system (A2, B2, C2, G2 or A1+A1), got {system.type_label}")


def _embedding(system: RootSystem) -> list[Point]:
    """Columns: screen coordinates of the fundamental coweights."""
    coroots = _coroot_plane(system)
    cols = []
    for i in range(2):
        sx = sum((system.inverse_cartan[i][k] * coroots[k][0] for k in range(2)),
                 Fraction(0))
        sy = sum((system.inverse_cartan[i][k] * coroots[k][1] for k in range(2)),
                 Fraction(0))
        cols.append((sx, sy))
    return cols


def _to_plane(columns: list[Point], coords) -> Point:
    x = sum((Fraction(c) * columns[i][0] for i, c in enumerate(coords)), Fraction(0))
    y = sum((Fraction(c) * columns[i][1] for i, c in enumerate(coords)), Fraction(0))
    return (x, y)


def _root_functional(system: RootSystem, columns: list[Point], alpha) -> tuple[Fraction, Fraction]:
    """(fx, fy) with <alpha, v> = fx*X + fy*Y for screen points (X, Y)."""
    e1, e2 = columns
    det = e1[0] * e2[1] - e1[1] * e2[0]
    # inverse of the embedding, applied to the pairing row of alpha
    a1 = Fraction(alpha[0])
    a2 = Fraction(alpha[1])
    fx = (a1 * e2[1] - a2 * e1[1]) / det
    fy = (-a1 * e2[0] + a2 * e1[0]) / det
    return (fx, fy)


def _clip_halfplane(polygon: list[Point], fx, fy, bound, keep_ge: bool) -> list[Point]:
    """Sutherland-Hodgman clip of a polygon by fx*X + fy*Y >= bound (or <=)."""

    def inside(p: Point) -> bool:
        value = fx * p[0] + fy * p[1]
        return value >= bound if keep_ge else value <= bound

    def intersect(p: Point, q: Point) -> Point:
        vp = fx * p[0] + fy * p[1]
        vq = fx * q[0] + fy * q[1]
        t = (bound - vp) / (vq - vp)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    out: list[Point] = []
    for i, p in enumerate(polygon):
        q = polygon[(i + 1) % len(polygon)]
        if inside(p):
            out.append(p)
            if not inside(q):
                out.append(intersect(p, q))
        elif inside(q):
            out.append(intersect(p, q))
    return out


def _line_in_box(fx, fy, level, radius) -> tuple[Point, Point] | None:
    """The segment of {fx*X + fy*Y = level} inside the centered square box."""
    hits: list[Point] = []
    corners = [Fraction(-radius), Fraction(radius)]
    if fy != 0:
        for x in corners:
            y = (level - fx * x) / fy
            if -radius <= y <= radius:
                hits.append((x, y))
    if fx != 0:
        for y in corners:
            x = (level - fy * y) / fx
            if -radius <= x <= radius:
                hits.append((x, y))
    hits = sorted(set(hits))
    if len(hits) < 2:
        return None
    return hits[0], hits[-1]


def _fmt(value: Fraction, radius: Fraction) -> str:
    """Fixed-point pixel coordinate with deterministic rounding."""
    px = (Fraction(value) + radius) * _SCALE
    scaled = px * 1000
    rounded = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    return f"{rounded // 1000}.{rounded % 1000:03d}"


def _fmt_y(value: Fraction, radius: Fraction) -> str:
    return _fmt(-value, radius)


def _polygon_svg(points: list[Point], radius, fill: str, extra: str = "") -> str:
    coords = " ".join(f"{_fmt(p[0], radius)},{_fmt_y(p[1], radius)}" for p in points)
    return f'<polygon points="{coords}" fill="{fill}"{extra} />'


def _alcove_vertex_cycle(system: RootSystem) -> list[tuple[Fraction, ...]]:
    """Base-alcove vertices in drawing order (triangle, or rectangle for A1+A1)."""
    per_component = system.base_alcove_vertices()
    if len(system.components) == 1:
        return list(per_component[0])
    (va, vb) = per_component  # two A1 factors: 0 and the midpoint-scaled vertex each
    corners = [(va[0], vb[0]), (va[1], vb[0]), (va[1], vb[1]), (va[0], vb[1])]
    return [tuple(p + q for p, q in zip(u, v)) for u, v in corners]


def render_svg(
    system: RootSystem,
    sigma: DiagramAutomorphism,
    kappa_b: KottwitzClass,
    length_bound: int,
    cap: int = ENUM_CAP_DEFAULT,
) -> str:
    """The apartment picture: strip bands, alcoves colored by verdict, grid lines."""
    if system.rank != 2:
        raise UnsupportedGeometry(f"rank-2 geometry required, got rank {system.rank}")
    columns = _embedding(system)
    base_cycle = _alcove_vertex_cycle(system)
    omega_b = omega_of_kottwitz(system, kappa_b)

    alcove_reps = [
        x for x in enumerate_affine(system, length_bound, cap)
        if kottwitz(x).is_zero()
    ]
    polygons = []
    radius = Fraction(3, 2)
    for x_a in alcove_reps:
        verts_world = [_to_plane(columns, x_a.act_on_point(v)) for v in base_cycle]
        for vx, vy in verts_world:
            radius = max(radius, abs(vx), abs(vy))
        x = x_a * omega_b
        profile = AlcoveProfile.build(x, sigma)
        verdict = decide_nonempty(x, kappa_b, sigma, profile)
        if not verdict.nonempty:
            color = _COLORS["empty"]
        elif verdict.rule == "shortcut-firstlemma":
            color = _COLORS["shortcut"]
        else:
            color = _COLORS["nonempty"]
        polygons.append((verts_world, color, x_a.length == 0))
    radius = radius + Fraction(1, 2)

    box = [(-radius, -radius), (radius, -radius), (radius, radius), (-radius, radius)]
    box = [(Fraction(a), Fraction(b)) for a, b in box]
    size = _fmt(radius, radius)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff" />',
    ]

    level_bound = length_bound
    functionals = [_root_functional(system, columns, a) for a in system.positive_roots]

    # critical strips: 0 <= <alpha, v> <= 1, clipped to the box (needs both walls drawn)
    if length_bound >= 1:
        for fx, fy in functionals:
            band = _clip_halfplane(box, fx, fy, Fraction(0), True)
            band = _clip_halfplane(band, fx, fy, Fraction(1), False)
            if band:
                lines.append(_polygon_svg(band, radius, _COLORS["empty"],
                                          ' fill-opacity="0.14" class="strip"'))

    for verts, color, _ in polygons:
        lines.append(_polygon_svg(verts, radius, color,
                                  ' fill-opacity="0.55" class="alcove"'))

    for fx, fy in functionals:
        for level in range(-level_bound, level_bound + 1):
            seg = _line_in_box(fx, fy, Fraction(level), radius)
            if seg is None:
                continue
            (x1, y1), (x2, y2) = seg
            width = "1.2" if level in (0, 1) else "0.5"
            lines.append(
                f'<line x1="{_fmt(x1, radius)}" y1="{_fmt_y(y1, radius)}" '
                f'x2="{_fmt(x2, radius)}" y2="{_fmt_y(y2, radius)}" '
                f'stroke="#444444" stroke-width="{width}" />')

    for verts, _, is_base in polygons:
        if is_base:
            coords = " ".join(
                f"{_fmt(p[0], radius)},{_fmt_y(p[1], radius)}" for p in verts)
            lines.append(f'<polygon points="{coords}" fill="none" '
                         f'stroke="#000000" stroke-width="2.0" class="base-alcove" />')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
