"""Deterministic SVG rendering of palettes, forecast maps and
reliability diagrams.

Identical inputs produce byte-identical documents: floats are always
written with four decimal places, elements are emitted in a fixed
order, and all styling is inline.  Colours are 7-character #RRGGBB
strings with channels rounded half-up.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .colors import PaletteParams, assign_color, hex_colors, hsv_to_rgb
from .datasets import Dataset, resolve_observation, resolve_records, resolve_ternary
from .errors import DomainError, MissingVerificationHistory
from .scoring import ScoringRule, brier_rule
from .simplex import TernaryProb, make_ternary
from .verification import (
    BinnedStats,
    Decomposition,
    decompose_by_group,
    decomposition_diagram_geometry,
    skill_radius,
)

_SQRT3_2 = math.sqrt(3.0) / 2.0
_MAX_LATTICE = 500  # the finest lattice drawn; the legend's cells are sub-pixel at 500

_CROSS_COLOR = "#0000cc"
_DIPOLE_COLOR = "#cc0000"
_EMPTY_BIN_COLOR = "#cccccc"


@dataclass(frozen=True)
class RenderConfig:
    """Knobs shared by the rendering operations."""

    width_px: int = 720
    height_px: int = 560
    cell_size_px: float = 10.0
    dipole_threshold: int = 10
    show_skill_circles: bool = False
    palette: PaletteParams = field(default_factory=PaletteParams)
    nbins: int = 11
    min_pairs_for_circle: int = 10
    circle_scale: float = 1.0

    def __post_init__(self):
        sizes = (self.width_px, self.height_px, self.cell_size_px, self.circle_scale)
        if not all(math.isfinite(x) and x > 0 for x in sizes):
            raise DomainError("render sizes and circle scale must be finite and positive")
        if self.dipole_threshold < 0:
            raise DomainError("dipole threshold must be >= 0")


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _ternary_xy(p: TernaryProb) -> tuple[float, float]:
    """Unit equilateral triangle coordinates (y up, corner B at origin)."""
    return (0.5 * p.pN + p.pA, _SQRT3_2 * p.pN)


class _Box:
    """Maps unit-triangle coordinates into a pixel rectangle (y down)."""

    def __init__(self, x0: float, y0: float, edge: float):
        self.x0 = x0
        self.y0 = y0  # pixel y of the triangle base
        self.edge = edge

    def to_px(self, xy: tuple[float, float]) -> tuple[float, float]:
        return (self.x0 + xy[0] * self.edge, self.y0 - xy[1] * self.edge)


def _fill_color(p: TernaryProb, q: TernaryProb, params: PaletteParams) -> str:
    return hsv_to_rgb(assign_color(p, q, params)).to_hex()


def _cross(out: list[str], x: float, y: float, arm: float, color: str) -> None:
    for dx0, dy0, dx1, dy1 in ((-arm, -arm, arm, arm), (-arm, arm, arm, -arm)):
        out.append(
            f'<line x1="{_fmt(x + dx0)}" y1="{_fmt(y + dy0)}" '
            f'x2="{_fmt(x + dx1)}" y2="{_fmt(y + dy1)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )


def _triangle_outline(out: list[str], box: _Box) -> None:
    (x0, y0), (x1, y1), (x2, y2) = [
        box.to_px(c) for c in ((0.0, 0.0), (1.0, 0.0), (0.5, _SQRT3_2))
    ]
    out.append(
        f'<path d="M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)} '
        f'L {_fmt(x2)} {_fmt(y2)} Z" fill="none" stroke="#000000" stroke-width="1"/>'
    )


def _legend_cells(
    out: list[str], q: TernaryProb, params: PaletteParams, size: int, box: _Box
) -> None:
    """Fill the triangle with size^2 coloured sub-triangles."""

    def vertex(a: int, b: int, c: int) -> tuple[float, float]:
        return box.to_px(_ternary_xy(make_ternary(a / size, b / size, c / size)))

    def emit(tri: list[tuple[int, int, int]]) -> None:
        centroid = make_ternary(
            sum(v[0] for v in tri) / (3.0 * size),
            sum(v[1] for v in tri) / (3.0 * size),
            sum(v[2] for v in tri) / (3.0 * size),
        )
        color = _fill_color(centroid, q, params)
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (vertex(*v) for v in tri))
        out.append(f'<polygon points="{pts}" fill="{color}" stroke="{color}" stroke-width="0.5"/>')

    for a in range(size):
        for b in range(size - a):
            c = size - 1 - a - b
            emit([(a + 1, b, c), (a, b + 1, c), (a, b, c + 1)])
    for a in range(size - 1):
        for b in range(size - 1 - a):
            c = size - 2 - a - b
            emit([(a, b + 1, c + 1), (a + 1, b, c + 1), (a + 1, b + 1, c)])


def _legend(
    out: list[str], q: TernaryProb, params: PaletteParams, size: int, box: _Box
) -> None:
    _legend_cells(out, q, params, size, box)
    _triangle_outline(out, box)
    qx, qy = box.to_px(_ternary_xy(q))
    _cross(out, qx, qy, max(3.0, box.edge * 0.02), _CROSS_COLOR)


def _document(width: int, height: int, elements: list[str]) -> bytes:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return ("\n".join([head, *elements, "</svg>"]) + "\n").encode("utf-8")


def render_palette_legend(
    q: TernaryProb, params: PaletteParams | None = None, size: int = 24
) -> bytes:
    """Colour palette over the forecast triangle, climatology crossed.

    ``size`` is the lattice resolution: the triangle is tiled with
    size^2 coloured cells (a single polygon when size is 1).
    """
    if params is None:
        params = PaletteParams()
    if not 1 <= size <= _MAX_LATTICE:
        raise DomainError(f"legend resolution must be between 1 and {_MAX_LATTICE}")
    width, height = 480, 460
    margin = 30.0
    edge = width - 2 * margin
    box = _Box(margin, margin + edge * _SQRT3_2, edge)
    out: list[str] = []
    _legend(out, q, params, size, box)
    return _document(width, height, out)


def _geo_projection(records, width, height, margin):
    lons = [r.lon for r in records]
    lats = [r.lat for r in records]
    lon_span = max(max(lons) - min(lons), 1e-9)
    lat_span = max(max(lats) - min(lats), 1e-9)
    sx = (width - 2 * margin) / lon_span
    sy = (height - 2 * margin) / lat_span
    lon0, lat1 = min(lons), max(lats)

    def project(lat: float, lon: float) -> tuple[float, float]:
        return (margin + (lon - lon0) * sx, margin + (lat1 - lat) * sy)

    return project


def _skill_by_location(records, observations, F, config, rule) -> dict:
    """skill_radius of each observed location's own decomposition; None
    where it has fewer than ``min_pairs_for_circle`` pairs."""
    loc_ids: dict[tuple[float, float], int] = {}
    rows, obs_index, group = [], [], []
    for i, (rec, obs) in enumerate(zip(records, observations)):
        if obs is not None:
            rows.append(i)
            obs_index.append(obs.index)
            group.append(loc_ids.setdefault((rec.lat, rec.lon), len(loc_ids)))
    if not rows:
        raise MissingVerificationHistory(
            "skill circles requested but no record carries an observation"
        )
    group = np.array(group)
    decomps = decompose_by_group(rule, F[rows], np.array(obs_index), group, config.nbins)
    return {
        loc: skill_radius(d) if n >= config.min_pairs_for_circle else None
        for loc, d, n in zip(loc_ids, decomps, np.bincount(group).tolist())
    }


def render_forecast_map(
    dataset: Dataset,
    config: RenderConfig | None = None,
    rule: ScoringRule | None = None,
    overlay: list[list[tuple[float, float]]] | None = None,
) -> bytes:
    """Colour-coded forecast map on an equirectangular point grid.

    One square per record, filled with the record's forecast colour;
    with ``show_skill_circles`` squares become circles whose radii
    encode each location's historical skill (no circle at locations
    with negative skill or too few verification pairs).  A small
    palette legend is embedded bottom-right.  ``overlay`` takes
    user-supplied polylines as lists of (lat, lon) pairs, drawn over
    the cells (e.g. coastlines; none are bundled).
    """
    if config is None:
        config = RenderConfig()
    if 8 * config.cell_size_px >= min(config.width_px, config.height_px):
        raise DomainError(f"cell size {config.cell_size_px} leaves no room for the map "
                          "inside its margin of 4 cells a side")
    if rule is None:
        rule = brier_rule()
    records = list(dataset.records)
    if not records:
        raise MissingVerificationHistory("dataset has no records to draw")
    project = _geo_projection(records, config.width_px, config.height_px, 4 * config.cell_size_px)

    if config.show_skill_circles:
        resolved = resolve_records(
            dataset, lambda rec, q: (resolve_observation(rec, q), resolve_ternary(rec, q))
        )
        F = np.array([p.as_tuple() for _, p in resolved])
        skill_by_loc = _skill_by_location(records, [obs for obs, _ in resolved], F, config, rule)
    else:
        F = np.array([p.as_tuple() for p in resolve_records(dataset, resolve_ternary)])

    out: list[str] = []
    half = config.cell_size_px / 2.0
    for rec, color in zip(records, hex_colors(F, dataset.q, config.palette)):
        x, y = project(rec.lat, rec.lon)
        if config.show_skill_circles:
            skill = skill_by_loc.get((rec.lat, rec.lon))
            if skill is None or skill <= 0.0:
                continue
            radius = config.cell_size_px * config.circle_scale * skill
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{color}"/>'
            )
        else:
            out.append(
                f'<rect x="{_fmt(x - half)}" y="{_fmt(y - half)}" '
                f'width="{_fmt(config.cell_size_px)}" height="{_fmt(config.cell_size_px)}" '
                f'fill="{color}"/>'
            )

    for line in overlay or []:
        pts = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (project(lat, lon) for lat, lon in line)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="#555555" stroke-width="1"/>'
        )

    legend_edge = min(config.width_px, config.height_px) * 0.28
    box = _Box(
        config.width_px - legend_edge - 10.0,
        config.height_px - 10.0,
        legend_edge,
    )
    out.append('<g id="legend">')
    _legend(out, dataset.q, config.palette, 12, box)
    out.append("</g>")
    return _document(config.width_px, config.height_px, out)


def _shade_for_count(count: int, max_count: int) -> str:
    """Sharpness shading: grey for empty bins, light-to-dark blue otherwise."""
    if count <= 0:
        return _EMPTY_BIN_COLOR
    t = count / max_count
    r = int(math.floor((210.0 - 180.0 * t) + 0.5))
    g = int(math.floor((225.0 - 170.0 * t) + 0.5))
    b = int(math.floor((245.0 - 110.0 * t) + 0.5))
    return f"#{r:02x}{g:02x}{b:02x}"


def _all_lattice_points(nbins: int):
    for iB in range(nbins, -1, -1):
        for iN in range(nbins - iB, -1, -1):
            yield (iB, iN, nbins - iB - iN)


def _sharpness_inset(out: list[str], binned: BinnedStats, box: _Box) -> None:
    counts = dict(zip(map(tuple, binned.keys.tolist()), binned.obs_counts.sum(axis=1).tolist()))
    max_count = max(counts.values()) if counts else 1
    radius = box.edge / (2.0 * binned.nbins)
    for key in _all_lattice_points(binned.nbins):
        p = make_ternary(key[0] / binned.nbins, key[1] / binned.nbins, key[2] / binned.nbins)
        x, y = box.to_px(_ternary_xy(p))
        color = _shade_for_count(counts.get(key, 0), max_count)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{color}"/>')
    _triangle_outline(out, box)


def _decomposition_inset(
    out: list[str], decomp: Decomposition, x0: float, y0: float, width: float
) -> None:
    """Semicircle-and-triangles summary of the score decomposition.

    ``(x0, y0)`` is the pixel position of the diagram origin (left end
    of the diameter); the diameter sqrt(U) is scaled to ``width``.
    """
    geom = decomposition_diagram_geometry(decomp)
    su = geom.sqrt_U
    scale = width / su if su > 0 else 1.0

    def pt(xy: tuple[float, float]) -> tuple[float, float]:
        return (x0 + xy[0] * scale, y0 - xy[1] * scale)

    ox, oy = pt((0.0, 0.0))
    dx, dy = pt(geom.chord_zero_resolution[1])
    r_px = geom.semicircle_radius * scale
    out.append(
        f'<path d="M {_fmt(ox)} {_fmt(oy)} A {_fmt(r_px)} {_fmt(r_px)} 0 0 1 '
        f'{_fmt(dx)} {_fmt(dy)}" fill="none" stroke="#999999" stroke-width="1"/>'
    )

    origin, vertex, diam_end = geom.large_triangle
    w = geom.small_triangle[2]
    segments = [
        (origin, diam_end, "#0000cc", None),    # sqrt(U), the diameter
        (vertex, diam_end, "#008800", None),    # sqrt(Z)
        (origin, vertex, "#880088", None),      # sqrt(U-Z)
        (vertex, w, _DIPOLE_COLOR, None),       # sqrt(R)
        (origin, w, "#000000", None),           # sqrt(S)
        (origin, diam_end, "#0000cc", "6,4"),   # limit: zero resolution
        (origin, vertex, "#880088", "6,4"),     # limit: perfect reliability
    ]
    for a, b, color, dash in segments:
        (xa, ya), (xb, yb) = pt(a), pt(b)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
            f'stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
    label = (
        f"√S={decomp.sqrt_S:.3f} √U={decomp.sqrt_U:.3f} "
        f"√Z={decomp.sqrt_Z:.3f} √R={decomp.sqrt_R:.3f}"
    )
    out.append(
        f'<text x="{_fmt(x0)}" y="{_fmt(y0 + 16.0)}" font-family="sans-serif" '
        f'font-size="11" fill="#000000">{label}</text>'
    )


def render_reliability_diagram(
    binned: BinnedStats, decomposition: Decomposition, config: RenderConfig | None = None
) -> bytes:
    """Ternary reliability diagram with decomposition and sharpness insets.

    The main triangle shows, for each bin holding at least
    ``dipole_threshold`` forecasts, the bin centre (black), the mean
    observation given that bin (red) and the joining dipole segment.
    The sharpness inset (top right) shades every lattice bin by its
    occupancy; the decomposition inset (top left) draws the square-root
    decomposition geometry with its two dashed limiting chords.
    """
    if binned.nbins > _MAX_LATTICE:
        raise DomainError(f"nbins = {binned.nbins} is above {_MAX_LATTICE}, the finest drawn")
    if config is None:
        config = RenderConfig()
    width = max(config.width_px, 600)
    height = max(config.height_px, 600)
    out: list[str] = []

    inset_w = width * 0.30
    _decomposition_inset(out, decomposition, 20.0, inset_w * 0.62, inset_w)

    sharp_edge = width * 0.24
    sharp_box = _Box(width - sharp_edge - 20.0, 24.0 + sharp_edge * _SQRT3_2, sharp_edge)
    _sharpness_inset(out, binned, sharp_box)

    main_edge = width * 0.62
    main_box = _Box(
        (width - main_edge) / 2.0,
        height - 30.0,
        main_edge,
    )
    _triangle_outline(out, main_box)

    qx, qy = main_box.to_px(_ternary_xy(decomposition.q_bar))
    _cross(out, qx, qy, main_edge * 0.015, _CROSS_COLOR)

    shown = [b for b in binned.bins if b.count >= config.dipole_threshold]
    out.append('<g id="dipoles">')
    for b in shown:
        fx, fy = main_box.to_px(_ternary_xy(b.center))
        ox, oy = main_box.to_px(_ternary_xy(b.mean_obs))
        out.append("<g>")
        out.append(
            f'<line x1="{_fmt(fx)}" y1="{_fmt(fy)}" x2="{_fmt(ox)}" y2="{_fmt(oy)}" '
            f'stroke="{_DIPOLE_COLOR}" stroke-width="1.5"/>'
        )
        out.append(f'<circle cx="{_fmt(fx)}" cy="{_fmt(fy)}" r="3.5" fill="#000000"/>')
        out.append(
            f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="3.5" fill="none" '
            f'stroke="{_DIPOLE_COLOR}" stroke-width="1.5"/>'
        )
        out.append("</g>")
    out.append("</g>")
    out.append(
        f'<text x="{_fmt(width - sharp_edge - 20.0)}" y="{_fmt(40.0 + sharp_edge * _SQRT3_2)}" '
        f'font-family="sans-serif" font-size="11" fill="#000000">'
        f"threshold ={config.dipole_threshold}</text>"
    )
    return _document(width, height, out)
