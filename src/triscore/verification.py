"""Binned verification of ternary forecasts against observed categories.

Forecasts are snapped to a triangular lattice of simplex points with a
chosen denominator, and the mean score over all pairs splits exactly as

    score = uncertainty - resolution + reliability
    S     = U           - Z          + R

where the climatology is the mean of all observations.  Every term is a
mean squared plane distance under the scoring rule's triangle map, so
their square roots are root-mean-square distances and the identity is
Pythagoras' theorem in a decomposition diagram.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InvalidDecomposition
from .scoring import ScoringRule, uncertainty
from .simplex import ObsCategory, TernaryProb, make_ternary


@dataclass(frozen=True)
class ForecastObsPair:
    """One verification case: an issued forecast and what happened."""

    forecast: TernaryProb
    obs: ObsCategory


@dataclass(frozen=True)
class Bin:
    """All pairs whose forecasts snapped to one lattice point: ``key``
    in the integer counts of :func:`snap_to_lattice`, ``center`` as a
    probability."""

    center: TernaryProb
    count: int
    mean_obs: TernaryProb
    key: tuple[int, int, int]


@dataclass(frozen=True)
class BinnedStats:
    """Forecast-observation pairs grouped on the simplex lattice."""

    bins: tuple[Bin, ...]
    nbins: int

    @property
    def n_pairs(self) -> int:
        return sum(b.count for b in self.bins)


def _pair_arrays(pairs: list[ForecastObsPair]) -> tuple[np.ndarray, np.ndarray]:
    """The forecasts as an (N, 3) array and the observed category indices."""
    F = np.array([pair.forecast.as_tuple() for pair in pairs])
    obs = np.array([pair.obs.index for pair in pairs])
    return F, obs


def _snap(F: np.ndarray, nbins: int) -> np.ndarray:
    """Lattice counts of each row of F, as an (N, 3) integer array.

    A stable argsort of floor - scaled ranks the coordinates by
    descending remainder with ties in the order B, N, A; the coordinates
    ranked below the number of missing units get one more.
    """
    scaled = F * nbins
    floors = np.floor(scaled)
    missing = nbins - floors.sum(axis=1, keepdims=True)
    rank = np.argsort(np.argsort(floors - scaled, axis=1, kind="stable"), axis=1)
    return (floors + (rank < missing)).astype(np.int64)


def snap_to_lattice(p: TernaryProb, nbins: int) -> tuple[int, int, int]:
    """Nearest lattice point with denominator nbins, as integer counts.

    Uses largest-remainder rounding: floor each scaled coordinate, then
    hand the remaining units to the coordinates with the largest
    fractional parts (ties broken in the order B, N, A).  The result
    sums to nbins exactly and moves no coordinate by more than 1/nbins.
    """
    return tuple(_snap(p.as_array()[None, :], nbins)[0].tolist())


def bin_forecasts(pairs: list[ForecastObsPair], nbins: int = 11) -> BinnedStats:
    """Group pairs by the lattice point nearest to each forecast."""
    if not pairs:
        raise EmptyDataset("no forecast-observation pairs to bin")
    if not 1 <= nbins <= 2**31:  # so the lattice code below fits in int64
        raise EmptyDataset(f"nbins = {nbins} must be between 1 and {2**31}")
    F, obs = _pair_arrays(pairs)
    keys = _snap(F, nbins)
    # one code per lattice point, ordered as the (kB, kN, kA) tuples
    _, first, inverse = np.unique(
        keys[:, 0] * (nbins + 1) + keys[:, 1], return_index=True, return_inverse=True
    )
    obs_counts = np.bincount(3 * inverse + obs, minlength=3 * len(first)).reshape(-1, 3)
    bins = []
    for key, counts in zip(keys[first].tolist(), obs_counts):
        total = int(counts.sum())
        center = make_ternary(key[0] / nbins, key[1] / nbins, key[2] / nbins)
        mean_obs = make_ternary(*(counts / total))
        bins.append(Bin(center, total, mean_obs, tuple(key)))
    return BinnedStats(tuple(bins), nbins)


@dataclass(frozen=True)
class Decomposition:
    """Mean score split into uncertainty, resolution and reliability.

    All four terms are mean squared distances in the scoring rule's
    triangle; q_bar is the mean observation used as the reference
    climatology.
    """

    S: float
    U: float
    Z: float
    R: float
    q_bar: TernaryProb

    @property
    def sqrt_S(self) -> float:
        return math.sqrt(max(0.0, self.S))

    @property
    def sqrt_U(self) -> float:
        return math.sqrt(max(0.0, self.U))

    @property
    def sqrt_Z(self) -> float:
        return math.sqrt(max(0.0, self.Z))

    @property
    def sqrt_R(self) -> float:
        return math.sqrt(max(0.0, self.R))

    def identity_gap(self) -> float:
        """|S - (U - Z + R)|, which is ~0 for any valid decomposition."""
        return abs(self.S - (self.U - self.Z + self.R))


def decompose(rule: ScoringRule, binned: BinnedStats) -> Decomposition:
    """Murphy decomposition of the binned mean score.

    Within each bin the observation distribution over the three corners
    is exactly the bin's mean observation, so S, Z and R reduce to
    count-weighted sums of squared plane distances between lattice
    centers, corner observations, conditional means and the overall
    mean observation; U is the uncertainty of that overall mean.
    """
    if not binned.bins:
        raise EmptyDataset("no bins to decompose")
    counts = np.array([b.count for b in binned.bins], dtype=float)
    centers = np.array([b.center.as_tuple() for b in binned.bins])
    freqs = np.array([b.mean_obs.as_tuple() for b in binned.bins])
    n_total = counts.sum()
    q_bar_vec = counts @ freqs / n_total

    Mhat = rule.Mhat
    P = centers @ Mhat.T
    O = freqs @ Mhat.T
    Qb = Mhat @ q_bar_vec
    to_corners = ((P[:, None, :] - Mhat.T[None, :, :]) ** 2).sum(axis=2)
    S = float(counts @ (freqs * to_corners).sum(axis=1)) / n_total
    Z = float(counts @ ((Qb - O) ** 2).sum(axis=1)) / n_total
    R = float(counts @ ((P - O) ** 2).sum(axis=1)) / n_total
    q_bar = make_ternary(*q_bar_vec)
    return Decomposition(S, uncertainty(rule, q_bar), Z, R, q_bar)


def skill_radius(d: Decomposition) -> float | None:
    """Relative skill (sqrt(Z) - sqrt(R)) / sqrt(Z).

    Positive values size the skill circle on a map; negative values mean
    the system did worse than climatology (no circle); None means skill
    is undefined because the resolution is zero.
    """
    if d.Z <= 0.0:
        return None
    return (d.sqrt_Z - d.sqrt_R) / d.sqrt_Z


@dataclass(frozen=True)
class DiagramGeometry:
    """Plotting primitives of the decomposition diagram.

    Everything lives in root-score units.  The semicircle has diameter
    sqrt(U) along the x-axis from the origin; the larger right triangle
    (legs sqrt(Z), sqrt(U-Z)) is inscribed with its right angle on the
    arc; the smaller right triangle (legs sqrt(R), sqrt(U-Z), hypotenuse
    sqrt(S)) shares the sqrt(U-Z) leg.  The dashed chords mark the two
    limiting root-scores: sqrt(U) for a zero-resolution system and
    sqrt(U-Z) for a perfectly reliable one.
    """

    semicircle_center: tuple[float, float]
    semicircle_radius: float
    large_triangle: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    small_triangle: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    chord_zero_resolution: tuple[tuple[float, float], tuple[float, float]]
    chord_perfect_reliability: tuple[tuple[float, float], tuple[float, float]]

    @property
    def sqrt_U(self) -> float:
        return 2.0 * self.semicircle_radius

    @property
    def sqrt_best_score(self) -> float:
        (x0, y0), (x1, y1) = self.chord_perfect_reliability
        return math.hypot(x1 - x0, y1 - y0)

    @property
    def sqrt_score(self) -> float:
        (x0, y0) = self.small_triangle[0]
        (x1, y1) = self.small_triangle[2]
        return math.hypot(x1 - x0, y1 - y0)


def decomposition_diagram_geometry(d: Decomposition) -> DiagramGeometry:
    """Lay out the decomposition diagram for a computed decomposition."""
    if d.U < d.Z:
        raise InvalidDecomposition(f"U = {d.U} < Z = {d.Z}")
    su = d.sqrt_U
    sz = d.sqrt_Z
    sr = d.sqrt_R
    s_best = math.sqrt(max(0.0, d.U - d.Z))

    origin = (0.0, 0.0)
    diam_end = (su, 0.0)
    if su > 0.0:
        vx = s_best * s_best / su
        vy = s_best * sz / su
    else:
        vx = vy = 0.0
    vertex = (vx, vy)

    # reliability leg: perpendicular to the sqrt(U-Z) chord at its arc
    # end, towards (and possibly past) the diameter end
    if sz > 0.0:
        ux, uy = (diam_end[0] - vx) / sz, (diam_end[1] - vy) / sz
    else:
        ux, uy = 0.0, -1.0
    w = (vx + sr * ux, vy + sr * uy)

    return DiagramGeometry(
        semicircle_center=(su / 2.0, 0.0),
        semicircle_radius=su / 2.0,
        large_triangle=(origin, vertex, diam_end),
        small_triangle=(origin, vertex, w),
        chord_zero_resolution=(origin, diam_end),
        chord_perfect_reliability=(origin, vertex),
    )
