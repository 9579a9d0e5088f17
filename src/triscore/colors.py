"""Continuous colour assignment for ternary forecasts.

Each forecast is coloured relative to the climatology: the angular
position of the forecast around the climatology in the equilateral
triangle drives the hue, and the information gain (a scaled
Kullback-Leibler divergence, 0 at the climatology, 1 at the farthest
corner) drives the saturation.  The climatology itself is always white,
and every distinct forecast receives a distinct (hue, saturation) pair.

The legacy five-region classifier used by older forecast maps is also
provided, including the unclassified "gap" at the base of the triangle.
"""

import colorsys
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import DomainError
from .scoring import brier_rule, unit_map
from .simplex import TernaryProb

# Equilateral (unit-side) triangle map: colour geometry is fixed to this
# triangle regardless of which scoring rule verification uses.
_EQUILATERAL_MHAT = unit_map(brier_rule())

_ZERO_RADIUS = 1e-12

# Piecewise-linear hue profile: red at the B corner, yellow at N, blue at
# A, purple along the B-A base, with the green/cyan band (hues 0.26-0.55)
# compressed into 4% of the angular range for green-weak readers.
DEFAULT_HUE_ANCHORS: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (1.0 / 3.0, 1.0 / 6.0),
    (0.48, 0.26),
    (0.52, 0.55),
    (2.0 / 3.0, 2.0 / 3.0),
    (5.0 / 6.0, 0.82),
    (1.0, 1.0),
)


@dataclass(frozen=True)
class PaletteParams:
    """Tunable parameters of the colour assignment.

    m is the saturation exponent (saturation = gain**m), theta0 rotates
    the palette about the climatology, and hue_anchors is the piecewise
    linear hue profile over the normalised angle t in [0, 1].
    """

    m: float = 0.7
    theta0: float = 0.0
    hue_anchors: tuple[tuple[float, float], ...] = field(default=DEFAULT_HUE_ANCHORS)

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"saturation exponent m = {self.m} must be finite and > 0")
        if not math.isfinite(self.theta0):
            raise DomainError(f"palette rotation theta0 = {self.theta0} must be finite")
        anchors = tuple((float(t), float(h)) for t, h in self.hue_anchors)
        if not all(math.isfinite(x) for anchor in anchors for x in anchor):
            raise DomainError("hue anchors must be finite")
        if len(anchors) < 2 or anchors[0][0] != 0.0 or anchors[-1][0] != 1.0:
            raise DomainError("hue anchors must start at t=0 and end at t=1")
        ts = [t for t, _ in anchors]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise DomainError("hue anchor positions must be strictly increasing")
        turns = anchors[-1][1] - anchors[0][1]
        if not (math.isfinite(turns) and abs(turns - round(turns)) <= 1e-9):
            raise DomainError("hue at t=1 must equal hue at t=0 modulo 1")
        if not all(math.isfinite(h2 - h1) for (_, h1), (_, h2) in zip(anchors, anchors[1:])):
            raise DomainError("neighbouring hue anchors must be a finite distance apart")
        object.__setattr__(self, "hue_anchors", anchors)

    def hue_at(self, t: float) -> float:
        """Interpolate the anchor table at t in [0, 1], modulo 1."""
        t = min(1.0, max(0.0, t))
        anchors = self.hue_anchors
        for (t1, h1), (t2, h2) in zip(anchors, anchors[1:]):
            if t <= t2:
                frac = (t - t1) / (t2 - t1)
                return (h1 + frac * (h2 - h1)) % 1.0


@dataclass(frozen=True)
class ColorHSV:
    hue: float
    saturation: float
    value: float


@dataclass(frozen=True)
class ColorRGB:
    r: float
    g: float
    b: float

    def to_hex(self) -> str:
        """7-character #RRGGBB with channels rounded half-up."""
        def chan(c: float) -> int:
            return min(255, int(math.floor(c * 255.0 + 0.5)))

        return f"#{chan(self.r):02x}{chan(self.g):02x}{chan(self.b):02x}"


def _positive_climatology(q: TernaryProb) -> tuple[float, float, float]:
    qs = q.as_tuple()
    if min(qs) <= 0.0:
        raise DomainError(f"climatology {qs} has a non-positive component")
    # the gain's scale is 1 / log(1 / min(q)), and 1 / min(q) overflows below 5.6e-309
    if not math.isfinite(1.0 / min(qs)):
        raise DomainError(f"climatology {qs} has a component too small to invert")
    return qs


def information_gain(p: TernaryProb, q: TernaryProb) -> float:
    """Kullback-Leibler divergence of p from q, scaled into [0, 1].

    The scale factor is 1/log(1/min_i q_i), so the gain is 0 exactly at
    p = q and 1 exactly at the corner(s) of least climatological
    probability.  The convention 0*log(0) = 0 applies.
    """
    qs = _positive_climatology(q)
    acc = 0.0
    for pi, qi in zip(p.as_tuple(), qs):
        if pi > 0.0:
            acc += pi * math.log(pi / qi)
    gain = acc / math.log(1.0 / min(qs))
    return min(1.0, max(0.0, gain))


def _reference_ray(q: TernaryProb) -> tuple[np.ndarray, float]:
    """The climatology's point in the equilateral triangle and the angle
    of the ray from it towards corner B."""
    Q = _EQUILATERAL_MHAT @ q.as_array()
    ref = -Q  # corner B sits at the plane origin
    if math.hypot(ref[0], ref[1]) <= _ZERO_RADIUS:
        # climatology at corner B itself: fall back to the centroid's ray
        ref = -(_EQUILATERAL_MHAT @ np.full(3, 1.0 / 3.0))
    return Q, math.atan2(ref[1], ref[0])


def dominant_category(p: TernaryProb, q: TernaryProb) -> float:
    """Angle of the forecast around the climatology, in [0, 2*pi).

    Measured clockwise in the equilateral triangle from the ray that
    points from the climatology towards corner B.  Returns 0 when the
    forecast coincides with the climatology.
    """
    Q, ref_angle = _reference_ray(q)
    v = _EQUILATERAL_MHAT @ p.as_array() - Q
    if math.hypot(v[0], v[1]) <= _ZERO_RADIUS:
        return 0.0
    return (ref_angle - math.atan2(v[1], v[0])) % (2.0 * math.pi)


def assign_color(p: TernaryProb, q: TernaryProb, params: PaletteParams | None = None) -> ColorHSV:
    """Hue from the dominant category, saturation from the information gain."""
    if params is None:
        params = PaletteParams()
    theta = dominant_category(p, q)
    t = ((theta - params.theta0) % (2.0 * math.pi)) / (2.0 * math.pi)
    hue = params.hue_at(t)
    sat = information_gain(p, q) ** params.m
    return ColorHSV(hue, min(1.0, sat), 1.0)


def hsv_to_rgb(c: ColorHSV) -> ColorRGB:
    """Standard hexcone HSV to RGB conversion, channels in [0, 1]."""
    for name, v in (("hue", c.hue), ("saturation", c.saturation), ("value", c.value)):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} = {v} outside [0, 1]")
    r, g, b = colorsys.hsv_to_rgb(c.hue, c.saturation, c.value)
    return ColorRGB(r, g, b)


# colorsys's channel order per hexcone sector, as columns of (v, p, q, t)
_SECTOR_CHANNELS = np.array([[0, 3, 1], [2, 0, 1], [1, 0, 3], [1, 2, 0], [3, 1, 0], [0, 1, 2]])


def _hue_saturation(
    F: np.ndarray, q: TernaryProb, params: PaletteParams
) -> tuple[np.ndarray, np.ndarray]:
    """assign_color's hue and saturation for every row of F.

    The same operations in the same order as numpy element-wise
    arithmetic, with atan2, hypot, log and pow taken from ``math``,
    because numpy's versions differ from libm in the last ulp for some
    inputs.
    """
    qs = _positive_climatology(q)
    tau = 2.0 * math.pi

    # dominant_category
    Q, ref_angle = _reference_ray(q)
    V = F @ _EQUILATERAL_MHAT.T - Q
    vx, vy = V[:, 0].tolist(), V[:, 1].tolist()
    at_q = np.array(list(map(math.hypot, vx, vy))) <= _ZERO_RADIUS
    angle = np.array(list(map(math.atan2, vy, vx)))
    theta = np.where(at_q, 0.0, (ref_angle - angle) % tau)

    # PaletteParams.hue_at
    t = np.minimum(1.0, np.maximum(0.0, ((theta - params.theta0) % tau) / tau))
    ts, hs = np.array(params.hue_anchors).T
    k = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, len(ts) - 2)
    hue = (hs[k] + (t - ts[k]) / (ts[k + 1] - ts[k]) * (hs[k + 1] - hs[k])) % 1.0

    # information_gain, with 0*log(0) = 0 as log(1) = 0
    ratio = np.where(F > 0.0, F / np.array(qs), 1.0)
    terms = F * np.array(list(map(math.log, ratio.ravel().tolist()))).reshape(F.shape)
    gain = (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2]) / math.log(1.0 / min(qs))
    gain = np.minimum(1.0, np.maximum(0.0, gain))
    sat = np.minimum(1.0, np.array(list(map(pow, gain.tolist(), repeat(params.m, len(gain))))))
    return hue, sat


def hex_colors(
    F: np.ndarray, q: TernaryProb, params: PaletteParams | None = None
) -> list[str]:
    """The #RRGGBB fill of every row of an (N, 3) forecast array.

    Row for row equal to ``hsv_to_rgb(assign_color(p, q, params)).to_hex()``.
    """
    hue, sat = _hue_saturation(F, q, PaletteParams() if params is None else params)

    # colorsys.hsv_to_rgb at value 1.0
    h6 = hue * 6.0
    sector = h6.astype(np.int64)
    f = h6 - sector
    channels = np.stack([np.ones_like(sat), 1.0 - sat, 1.0 - sat * f, 1.0 - sat * (1.0 - f)],
                        axis=1)
    rgb = np.take_along_axis(channels, _SECTOR_CHANNELS[sector % 6], axis=1)

    # ColorRGB.to_hex
    c = np.minimum(255, np.floor(rgb * 255.0 + 0.5).astype(np.int64))
    return list(map("#{:06x}".format, ((c[:, 0] << 16) | (c[:, 1] << 8) | c[:, 2]).tolist()))


class LegacyRegion(Enum):
    """The five-region scheme of older operational maps, plus its gap."""

    DRY = "Dry"
    DRY_OR_NORMAL = "DryOrNormal"
    NORMAL = "Normal"
    WET_OR_NORMAL = "WetOrNormal"
    WET = "Wet"
    GAP = "Gap"


def legacy_region(p: TernaryProb) -> LegacyRegion:
    """Classify a forecast under the legacy five-region predicates.

    Forecasts matched by none of the five predicates (notably those
    splitting their mass between B and A along the triangle base) fall
    in the grey gap.
    """
    pB, pN, pA = p.pB, p.pN, p.pA
    third, two_fifths = 1.0 / 3.0, 2.0 / 5.0
    if pB > two_fifths and pN < third and pA < third:
        return LegacyRegion.DRY
    if (pB > third and pN > two_fifths) or (pB > two_fifths and pN > third):
        return LegacyRegion.DRY_OR_NORMAL
    if pB < third and pN > two_fifths and pA < third:
        return LegacyRegion.NORMAL
    if (pN > third and pA > two_fifths) or (pN > two_fifths and pA > third):
        return LegacyRegion.WET_OR_NORMAL
    if pB < third and pN < third and pA > two_fifths:
        return LegacyRegion.WET
    return LegacyRegion.GAP
