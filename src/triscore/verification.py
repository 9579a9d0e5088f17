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
from operator import attrgetter

import numpy as np

from .errors import EmptyDataset, InvalidDecomposition
from .scoring import ScoringRule, uncertainty
from .simplex import _INDEX, ObsCategory, TernaryProb, make_ternary

_IDENTITY_GUARD = 1e-10  # rounding allowance of S = U - Z + R and of U >= Z


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


@dataclass(frozen=True, eq=False)
class BinnedStats:
    """Forecast-observation pairs grouped on the simplex lattice: each bin's
    lattice counts ``keys`` and observed category counts ``obs_counts``,
    both (nb, 3) integer arrays ordered as the (kB, kN, kA) tuples."""

    keys: np.ndarray
    obs_counts: np.ndarray
    nbins: int

    @property
    def n_pairs(self) -> int:
        return int(self.obs_counts.sum())

    @property
    def bins(self) -> tuple[Bin, ...]:
        """The bins as :class:`Bin` values."""
        n = self.nbins
        bins = []
        for key, counts in zip(self.keys.tolist(), self.obs_counts):
            total = int(counts.sum())
            center = make_ternary(key[0] / n, key[1] / n, key[2] / n)
            bins.append(Bin(center, total, make_ternary(*(counts / total)), tuple(key)))
        return tuple(bins)


def _pair_arrays(pairs: list[ForecastObsPair]) -> tuple[np.ndarray, np.ndarray]:
    """The forecasts as an (N, 3) array and the observed category indices."""
    F = np.array(list(map(attrgetter("pB", "pN", "pA"), map(attrgetter("forecast"), pairs))))
    labels = map(attrgetter("_value_"), map(attrgetter("obs"), pairs))
    return F, np.fromiter(map(_INDEX.__getitem__, labels), np.int64, len(pairs))


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


def _bin_arrays(
    F: np.ndarray, obs: np.ndarray, group: np.ndarray, nbins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of F by (group id, lattice point).

    Returns each bin's group id, its lattice counts (nb, 3) and its
    observed category counts (nb, 3), ordered by group id and then as
    the (kB, kN, kA) tuples.
    """
    if not 1 <= nbins <= 2**31:  # so the lattice code below fits in int64
        raise EmptyDataset(f"nbins = {nbins} must be between 1 and {2**31}")
    keys = _snap(F, nbins)
    code = keys[:, 0] * (nbins + 1) + keys[:, 1]  # ordered as the key tuples
    order = np.lexsort((code, group))
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (np.diff(group[order]) != 0) | (np.diff(code[order]) != 0)
    first = order[starts]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    obs_counts = np.bincount(3 * inverse + obs, minlength=3 * len(first)).reshape(-1, 3)
    return group[first], keys[first], obs_counts


def _binned(F: np.ndarray, obs: np.ndarray, nbins: int) -> BinnedStats:
    """The rows of F and their observed category indices, binned."""
    _, keys, obs_counts = _bin_arrays(F, obs, np.zeros(len(F), dtype=np.int64), nbins)
    return BinnedStats(keys, obs_counts, nbins)


def bin_forecasts(pairs: list[ForecastObsPair], nbins: int = 11) -> BinnedStats:
    """Group pairs by the lattice point nearest to each forecast."""
    if not pairs:
        raise EmptyDataset("no forecast-observation pairs to bin")
    return _binned(*_pair_arrays(pairs), nbins)


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

    def check(self) -> None:
        """InvalidDecomposition unless S = U - Z + R and U >= Z (U - Z is a
        count-weighted mean of the bins' own uncertainties), each to within
        a rounding allowance."""
        gap = self.identity_gap()
        if gap > _IDENTITY_GUARD:
            raise InvalidDecomposition(f"decomposition identity violated by {gap:.3e}")
        if self.Z - self.U > _IDENTITY_GUARD:
            raise InvalidDecomposition(f"U = {self.U} < Z = {self.Z}")


def _decompose_bins(
    rule: ScoringRule, group: np.ndarray, keys: np.ndarray, obs_counts: np.ndarray, nbins: int
) -> list[Decomposition]:
    """One Decomposition per group id 0..G-1 of the bins; every id has bins.

    Within each bin the observation distribution over the three corners
    is exactly the bin's mean observation ``obs_counts / count``, so S,
    Z and R reduce to count-weighted sums of squared plane distances
    between lattice centres ``keys / nbins``, corner observations,
    conditional means and the group's mean observation; U is the
    uncertainty of that group mean.
    """
    counts = obs_counts.sum(axis=1)
    centers = keys / nbins
    freqs = obs_counts / counts[:, None]
    n = np.bincount(group, weights=counts)

    def mean(x: np.ndarray) -> np.ndarray:
        return np.bincount(group, weights=counts * x) / n

    q_bar = np.stack([mean(freqs[:, j]) for j in range(3)], axis=1)
    Mhat = rule.Mhat
    P = centers @ Mhat.T
    O = freqs @ Mhat.T
    Qb = (q_bar @ Mhat.T)[group]
    to_corners = ((P[:, None, :] - Mhat.T[None, :, :]) ** 2).sum(axis=2)
    S = mean((freqs * to_corners).sum(axis=1))
    Z = mean(((Qb - O) ** 2).sum(axis=1))
    R = mean(((P - O) ** 2).sum(axis=1))
    out = []
    for s, z, r, qb in zip(S.tolist(), Z.tolist(), R.tolist(), q_bar.tolist()):
        q = make_ternary(*qb)
        out.append(Decomposition(s, uncertainty(rule, q), z, r, q))
    return out


def decompose(rule: ScoringRule, binned: BinnedStats) -> Decomposition:
    """Murphy decomposition of the binned mean score."""
    nb = len(binned.keys)
    if not nb:
        raise EmptyDataset("no bins to decompose")
    group = np.zeros(nb, dtype=np.int64)
    return _decompose_bins(rule, group, binned.keys, binned.obs_counts, binned.nbins)[0]


def decompose_by_group(
    rule: ScoringRule, F: np.ndarray, obs: np.ndarray, group: np.ndarray, nbins: int = 11
) -> list[Decomposition]:
    """The decomposition of each group of forecast-observation pairs.

    ``F`` holds the forecasts as an (N, 3) array, ``obs`` the observed
    category indices and ``group`` integer ids 0..G-1, each used at
    least once.  Element g equals, up to summation order,
    ``decompose(rule, bin_forecasts(<the pairs of group g>, nbins))``.
    """
    sizes = np.bincount(group)
    if not len(sizes) or not sizes.all():
        raise EmptyDataset("every group id 0..G-1 needs at least one pair")
    return _decompose_bins(rule, *_bin_arrays(F, obs, group, nbins), nbins)


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
    d.check()
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
