"""Deterministic SVG rendering of palettes, forecast maps and
reliability diagrams.

Identical inputs produce byte-identical documents: every coordinate,
length and radius is written ``%.4f``, with a negative zero written
``0.0000``, elements are emitted in a fixed order, and all styling is
inline.  Colours are 7-character #RRGGBB strings with channels rounded
half-up.
"""

import math
import sys
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .colors import _EQUILATERAL_MHAT, PaletteParams, assign_color, hex_colors, hsv_to_rgb
from .datasets import Dataset, resolve_dataset
from .errors import DomainError
from .scoring import ScoringRule, brier_rule, unit_map
from .simplex import TernaryProb
from .verification import (
    BinnedStats,
    Decomposition,
    decompose_by_group,
    decomposition_diagram_geometry,
    skill_radius,
)

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
        # a comparison, not math.isfinite: an int beyond the float range cannot convert
        if not all(0 < x <= sys.float_info.max for x in sizes):
            raise DomainError("render sizes and circle scale must be finite and positive")
        if self.dipole_threshold < 0:
            raise DomainError("dipole threshold must be >= 0")
        if self.min_pairs_for_circle < 0:
            raise DomainError("minimum pairs for a skill circle must be >= 0")


# one template per element kind written in more than one place
_LINE = '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" stroke="%s" stroke-width="%s"%s/>'
_CIRCLE = '<circle cx="%.4f" cy="%.4f" r="%.4f" fill="%s"/>'
_TEXT = '<text x="%.4f" y="%.4f" font-family="sans-serif" font-size="11" fill="#000000">%s</text>'


class _Box:
    """Maps simplex points through a unit map (``scoring.unit_map``), scaled
    by edge, into pixels (y down): bounding box left at x0, base BA at y0."""

    def __init__(self, M: np.ndarray, x0: float, y0: float, edge: float):
        self.M = M
        self.edge = edge
        self.origin = np.array([x0 - M[0].min() * edge, y0])  # corner B

    def to_px(self, p: np.ndarray) -> np.ndarray:
        """Pixel (x, y) of each (pB, pN, pA) row of p, (3,) or (N, 3)."""
        return self.origin + (p @ self.M.T) * np.array([self.edge, -self.edge])


# corners B, A and N, in the order the outline visits them
_CORNERS = np.array([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)])


def _cross(out: list[str], x: float, y: float, arm: float, color: str) -> None:
    for dx0, dy0, dx1, dy1 in ((-arm, -arm, arm, arm), (-arm, arm, arm, -arm)):
        out.append(_LINE % (x + dx0, y + dy0, x + dx1, y + dy1, color, "2", ""))


def _triangle_outline(out: list[str], box: _Box) -> None:
    out.append('<path d="M %.4f %.4f L %.4f %.4f L %.4f %.4f Z" fill="none" '
               'stroke="#000000" stroke-width="1"/>' % tuple(box.to_px(_CORNERS).ravel().tolist()))


def _lattice_px(size: int, box: _Box) -> dict[tuple[int, int], tuple[float, float]]:
    """Pixel position of each lattice point (a, b, size - a - b) / size,
    keyed (a, b), a descending and then b descending."""
    keys = [(a, b) for a in range(size, -1, -1) for b in range(size - a, -1, -1)]
    points = np.array([(a, b, size - a - b) for a, b in keys]) / size
    return dict(zip(keys, map(tuple, box.to_px(points).tolist())))


def _legend(
    out: list[str], q: TernaryProb, params: PaletteParams, size: int, box: _Box
) -> None:
    """Fill the triangle with size^2 coloured sub-triangles, outline it and
    cross the climatology."""
    vertex = {key: "%.4f,%.4f" % xy for key, xy in _lattice_px(size, box).items()}
    n = 3.0 * size

    def emit(a: int, b: int, c: int, k: int, corners: tuple[tuple[int, int], ...]) -> None:
        # corner indices sum to (3a+k, 3b+k, 3c+k); the quotients sum to 1 within 3 * 2**-53
        p = TernaryProb((3 * a + k) / n, (3 * b + k) / n, (3 * c + k) / n)
        color = hsv_to_rgb(assign_color(p, q, params)).to_hex()
        pts = " ".join(vertex[v] for v in corners)
        out.append(f'<polygon points="{pts}" fill="{color}" stroke="{color}" stroke-width="0.5"/>')

    for a in range(size):
        for b in range(size - a):
            emit(a, b, size - 1 - a - b, 1, ((a + 1, b), (a, b + 1), (a, b)))
    for a in range(size - 1):
        for b in range(size - 1 - a):
            emit(a, b, size - 2 - a - b, 2, ((a, b + 1), (a + 1, b), (a + 1, b + 1)))
    _triangle_outline(out, box)
    _cross(out, *box.to_px(q.as_array()).tolist(), max(3.0, box.edge * 0.02), _CROSS_COLOR)


class Figure(bytes):
    """An SVG document's bytes; ``n_drawn`` counts the marks it is made to
    show: the map's cells or circles, the dipoles or the legend's cells."""


def _document(width: int, height: int, elements: list[str], n_drawn: int) -> Figure:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    text = "\n".join([head, *elements, "</svg>"]) + "\n"
    # A "%.4f" number contains "-0.0000" only when it is a negative zero, and
    # nothing else in a figure can: labels have 3 decimals, colours are hex
    # and the dipole threshold is a non-negative int.
    figure = Figure(text.replace("-0.0000", "0.0000").encode("utf-8"))
    figure.n_drawn = n_drawn
    return figure


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
    box = _Box(_EQUILATERAL_MHAT, margin, margin + edge * _EQUILATERAL_MHAT[1].max(), edge)
    out: list[str] = []
    _legend(out, q, params, size, box)
    return _document(width, height, out, size * size)


def _geo_projection(
    points: np.ndarray, frame: np.ndarray, config: RenderConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel x and y of the (lat, lon) rows of ``points`` on the
    equirectangular map whose box, 4 cells inside each edge, spans the
    rows of ``frame``."""
    margin = 4 * config.cell_size_px
    (lat0, lon0), (lat1, lon1) = frame.min(axis=0), frame.max(axis=0)
    sx = (config.width_px - 2 * margin) / max(lon1 - lon0, 1e-9)
    sy = (config.height_px - 2 * margin) / max(lat1 - lat0, 1e-9)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        xs, ys = margin + (points[:, 1] - lon0) * sx, margin + (lat1 - points[:, 0]) * sy
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DomainError(f"a map of {config.width_px:g} x {config.height_px:g} px puts a "
                          "point beyond the float range")
    return xs, ys


def _skill_by_record(locs: np.ndarray, obs: np.ndarray, F, config, rule) -> np.ndarray:
    """skill_radius of each record's location, from the location's own
    decomposition; NaN where it is undefined or the location has fewer
    than ``min_pairs_for_circle`` pairs.  ``obs`` holds each record's
    category index, -1 where it is unobserved."""
    rows = np.flatnonzero(obs >= 0)
    if not len(rows):
        raise DomainError(
            "skill circles requested but no record carries an observation"
        )
    # each (lat, lon) row read as one complex number, which np.unique sorts
    # fast; -0.0 == 0.0, so both are one location
    places, loc = np.unique(locs.view(complex)[:, 0], return_inverse=True)
    observed, group = np.unique(loc[rows], return_inverse=True)
    decomps = decompose_by_group(rule, F[rows], obs[rows], group, config.nbins)
    skill = np.full(len(places), np.nan)
    skill[observed] = np.array([  # None becomes NaN
        skill_radius(d) if n >= config.min_pairs_for_circle else None
        for d, n in zip(decomps, np.bincount(group).tolist())
    ], dtype=float)
    return skill[loc]


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
    # skill is at most 1, so this product bounds every circle's radius
    circle_max = config.cell_size_px * config.circle_scale
    if config.show_skill_circles and not math.isfinite(circle_max):
        raise DomainError(f"circle scale {config.circle_scale} times cell size "
                          f"{config.cell_size_px} is not a finite radius")
    if rule is None:
        rule = brier_rule()
    if not dataset.records:
        raise DomainError("dataset has no records to draw")
    locs = np.array([(r.lat, r.lon) for r in dataset.records], dtype=float)
    xs, ys = _geo_projection(locs, locs, config)

    forecasts, observations = resolve_dataset(dataset, observations=config.show_skill_circles)
    F = np.array([p.as_tuple() for p in forecasts])

    if config.show_skill_circles:  # before the colours, so a missing history is named first
        obs = np.array([-1 if o is None else o.index for o in observations])
        skill = _skill_by_record(locs, obs, F, config, rule)
    colors = hex_colors(F, dataset.q, config.palette)
    out: list[str] = []
    if config.show_skill_circles:
        for x, y, s, color in zip(xs.tolist(), ys.tolist(), skill.tolist(), colors):
            if s > 0.0:  # no circle for NaN skill
                out.append(_CIRCLE % (x, y, circle_max * s, color))
    else:
        half = config.cell_size_px / 2.0
        side = "%.4f" % config.cell_size_px
        rect = f'<rect x="%.4f" y="%.4f" width="{side}" height="{side}" fill="%s"/>'
        for x, y, color in zip(xs.tolist(), ys.tolist(), colors):
            out.append(rect % (x - half, y - half, color))
    n_drawn = len(out)  # the cells or circles, before the overlay and the legend

    lines = overlay or []
    points = np.array([pt for line in lines for pt in line], dtype=float).reshape(-1, 2)
    ox, oy = _geo_projection(points, locs, config)
    vertices = iter(["%.4f,%.4f" % xy for xy in zip(ox.tolist(), oy.tolist())])
    for line in lines:
        pts = " ".join(islice(vertices, len(line)))
        out.append(f'<polyline points="{pts}" fill="none" stroke="#555555" stroke-width="1"/>')

    legend_edge = min(config.width_px, config.height_px) * 0.28
    box = _Box(_EQUILATERAL_MHAT, config.width_px - legend_edge - 10.0,
               config.height_px - 10.0, legend_edge)
    out.append('<g id="legend">')
    _legend(out, dataset.q, config.palette, 12, box)
    out.append("</g>")
    return _document(config.width_px, config.height_px, out, n_drawn)


def _shade_for_count(count: int, max_count: int) -> str:
    """Sharpness shading: grey for empty bins, light-to-dark blue otherwise."""
    if count <= 0:
        return _EMPTY_BIN_COLOR
    t = count / max_count
    r = int(math.floor((210.0 - 180.0 * t) + 0.5))
    g = int(math.floor((225.0 - 170.0 * t) + 0.5))
    b = int(math.floor((245.0 - 110.0 * t) + 0.5))
    return f"#{r:02x}{g:02x}{b:02x}"


def _sharpness_inset(out: list[str], binned: BinnedStats, box: _Box) -> None:
    counts = dict(zip(map(tuple, binned.keys.tolist()), binned.counts.tolist()))
    max_count = max(counts.values()) if counts else 1
    radius = box.edge / (2.0 * binned.nbins)
    for (a, b), (x, y) in _lattice_px(binned.nbins, box).items():
        color = _shade_for_count(counts.get((a, b, binned.nbins - a - b), 0), max_count)
        out.append(_CIRCLE % (x, y, radius, color))
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
    out.append('<path d="M %.4f %.4f A %.4f %.4f 0 0 1 %.4f %.4f" fill="none" '
               'stroke="#999999" stroke-width="1"/>' % (ox, oy, r_px, r_px, dx, dy))

    origin, vertex, diam_end = geom.large_triangle
    w = geom.small_triangle[2]
    dashed = ' stroke-dasharray="6,4"'
    segments = [
        (origin, diam_end, "#0000cc", ""),      # sqrt(U), the diameter
        (vertex, diam_end, "#008800", ""),      # sqrt(Z)
        (origin, vertex, "#880088", ""),        # sqrt(U-Z)
        (vertex, w, _DIPOLE_COLOR, ""),         # sqrt(R)
        (origin, w, "#000000", ""),             # sqrt(S)
        (origin, diam_end, "#0000cc", dashed),  # limit: zero resolution
        (origin, vertex, "#880088", dashed),    # limit: perfect reliability
    ]
    for a, b, color, dash in segments:
        out.append(_LINE % (*pt(a), *pt(b), color, "1.5", dash))
    label = (
        f"√S={decomp.sqrt_S:.3f} √U={decomp.sqrt_U:.3f} "
        f"√Z={decomp.sqrt_Z:.3f} √R={decomp.sqrt_R:.3f}"
    )
    out.append(_TEXT % (x0, y0 + 16.0, label))


def render_reliability_diagram(
    binned: BinnedStats, decomposition: Decomposition, config: RenderConfig | None = None,
    rule: ScoringRule | None = None,
) -> bytes:
    """Ternary reliability diagram with decomposition and sharpness insets.

    The main triangle is ``rule``'s (Brier if None).  For each bin holding
    at least ``dipole_threshold`` forecasts it shows the bin centre
    (black), the mean observation given that bin (red) and the joining
    dipole; their count-weighted RMS length is sqrt(R).  The sharpness
    inset (top right) shades every lattice bin by its occupancy; the
    decomposition inset (top left) draws the square-root decomposition
    geometry with its two dashed limiting chords.
    """
    if binned.nbins > _MAX_LATTICE:
        raise DomainError(f"nbins = {binned.nbins} is above {_MAX_LATTICE}, the finest drawn")
    if config is None:
        config = RenderConfig()
    M = _EQUILATERAL_MHAT if rule is None else unit_map(rule)
    width = max(config.width_px, 600)
    height = max(config.height_px, 600)
    out: list[str] = []

    # every part scales with size: the width, or less where the height is too short for it
    eq_height = _EQUILATERAL_MHAT[1].max()
    size = min(width, (height - 60.0) / (0.62 * eq_height))
    inset_w = size * 0.30
    _decomposition_inset(out, decomposition, 20.0, inset_w * 0.62, inset_w)

    sharp_edge = size * 0.24
    sharp_box = _Box(_EQUILATERAL_MHAT, width - sharp_edge - 20.0,
                     24.0 + sharp_edge * eq_height, sharp_edge)
    _sharpness_inset(out, binned, sharp_box)

    main_edge = min(size * 0.62, (height - 60.0) / M[1].max())
    main_box = _Box(M, (width - main_edge) / 2.0, height - 30.0, main_edge)
    _triangle_outline(out, main_box)

    _cross(out, *main_box.to_px(decomposition.q_bar.as_array()).tolist(), main_edge * 0.015,
           _CROSS_COLOR)

    shown = binned.counts >= config.dipole_threshold
    forecast_px = main_box.to_px(binned.centers[shown]).tolist()
    obs_px = main_box.to_px(binned.mean_obs[shown]).tolist()
    out.append('<g id="dipoles">')
    for (fx, fy), (ox, oy) in zip(forecast_px, obs_px):
        out.append("<g>")
        out.append(_LINE % (fx, fy, ox, oy, _DIPOLE_COLOR, "1.5", ""))
        out.append('<circle cx="%.4f" cy="%.4f" r="3.5" fill="#000000"/>' % (fx, fy))
        out.append('<circle cx="%.4f" cy="%.4f" r="3.5" fill="none" stroke="%s" '
                   'stroke-width="1.5"/>' % (ox, oy, _DIPOLE_COLOR))
        out.append("</g>")
    out.append("</g>")
    out.append(_TEXT % (width - sharp_edge - 20.0, 40.0 + sharp_edge * eq_height,
                        f"threshold ={config.dipole_threshold}"))
    return _document(width, height, out, len(forecast_px))
