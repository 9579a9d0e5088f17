"""Quadratic recalibration of ternary forecasts.

A recalibration map sends an issued forecast (pB, pN, pA) to

    pB~ = C1 + C2*pB + C3*pA + C4*pB^2 + C5*pB*pA + C6*pA^2
    pA~ = C7 + C8*pB + C9*pA + C10*pB^2 + C11*pB*pA + C12*pA^2
    pN~ = 1 - pB~ - pA~

and the twelve coefficients are chosen to minimise the mean quadratic
score of the recalibrated forecasts against the observations.  The
recalibrated value is linear in the coefficients, so the optimum is an
ordinary linear least-squares solution; no iterative optimiser is
needed; pB~ and pA~ share their six terms, so it is the same for every
quadratic rule (see fit_map).  Mapped forecasts may leave the simplex,
which is reported and can optionally be repaired by Euclidean projection.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset
from .scoring import AffineTernary, ScoringRule
from .simplex import NEGATIVE_TOLERANCE, TernaryProb
from .verification import (
    BinnedStats,
    Decomposition,
    ForecastObsPair,
    _binned,
    _pair_arrays,
    decompose,
)

IDENTITY_COEFFS = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class QuadraticMap:
    """Coefficients C1..C12 of a quadratic recalibration map."""

    coeffs: tuple[float, ...] = IDENTITY_COEFFS

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if len(cs) != 12 or not all(np.isfinite(cs)):
            raise EmptyDataset("a quadratic map needs 12 finite coefficients")
        object.__setattr__(self, "coeffs", cs)
        # the coefficient rows of pB~ and pA~, for apply_map
        object.__setattr__(self, "_cB", np.array(cs[:6]))
        object.__setattr__(self, "_cA", np.array(cs[6:]))

    @classmethod
    def identity(cls) -> "QuadraticMap":
        return cls(IDENTITY_COEFFS)


def _features(pB, pA) -> list:
    """The six terms of the map, for floats or for arrays of forecasts."""
    return [1.0, pB, pA, pB * pB, pB * pA, pA * pA]


def apply_map(mapping: QuadraticMap, p: TernaryProb, clip: bool = False) -> AffineTernary:
    """Evaluate the map at one forecast.

    Returns the affine 3-vector together with an on-simplex flag; with
    ``clip`` a finite result is Euclidean-projected onto the simplex
    first (the flag still reports where the unclipped value landed).
    """
    # numpy's dot, not a Python sum: the two round differently
    f = np.array(_features(p.pB, p.pA))
    tB = float(f @ mapping._cB)
    tA = float(f @ mapping._cA)
    tN = 1.0 - tB - tA
    on_simplex = tB >= NEGATIVE_TOLERANCE and tN >= NEGATIVE_TOLERANCE and tA >= NEGATIVE_TOLERANCE
    # tN is finite only when all three are; an overflow stays for to_ternary to name
    if clip and not on_simplex and math.isfinite(tN):
        tB, tN, tA = _project3(tB, tN, tA)
    return AffineTernary(tB, tN, tA, on_simplex)


def project_to_simplex(v: np.ndarray) -> tuple[float, float, float]:
    """Euclidean projection of a 3-vector onto the probability simplex."""
    return _project3(float(v[0]), float(v[1]), float(v[2]))


def _project3(v0: float, v1: float, v2: float) -> tuple[float, float, float]:
    """The sort-based projection (Duchi et al. 2008) of (v0, v1, v2).

    With the components sorted descending as u and their running sums
    c, the shift is lam = (1 - c[rho]) / (rho + 1) for the last rho with
    u[rho] + (1 - c[rho]) / (rho + 1) > 0; each result is v + lam, or
    0.0 if that is below zero.  A NaN component makes every result NaN.
    """
    if v0 != v0 or v1 != v1 or v2 != v2:
        return (math.nan, math.nan, math.nan)
    u0, u1, u2 = sorted((v0, v1, v2), reverse=True)
    c1 = u0 + u1
    c2 = c1 + u2
    if u2 + (1.0 - c2) / 3 > 0.0:
        lam = (1.0 - c2) / 3
    elif u1 + (1.0 - c1) / 2 > 0.0:
        lam = (1.0 - c1) / 2
    else:
        lam = 1.0 - u0
    # max returns its first argument for NaN (inf - inf), as np.maximum does
    return (max(v0 + lam, 0.0), max(v1 + lam, 0.0), max(v2 + lam, 0.0))


# p~ - o = J (t - y), for the map's (tB, tA) and the observed B and A indicators y
_J = np.array([[1.0, 0.0], [-1.0, -1.0], [0.0, 1.0]])


def _regression(F: np.ndarray, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X (N, 6): the six map terms of each row of F; Y (N, 2): the B and A indicators of obs."""
    X = np.column_stack(np.broadcast_arrays(*_features(F[:, 0], F[:, 2])))
    return X, np.eye(3)[obs][:, ::2]


def _mean_score(coeffs, X: np.ndarray, Y: np.ndarray, rule: ScoringRule) -> float:
    """Mean score of the mapped forecasts; each weighted residual row is Mhat (p~ - o)."""
    resid = (X @ np.reshape(coeffs, (2, 6)).T - Y) @ (rule.Mhat @ _J).T
    return float(np.einsum("ij,ij->", resid, resid)) / len(X)


def fit_map(pairs: list[ForecastObsPair], rule: ScoringRule) -> QuadraticMap:
    """Fit the coefficients that minimise the mean score of the mapped forecasts.

    The rule weights each residual t - y by Mhat J, which is invertible
    (determinant a*n*sin(phi) > 0), so every rule has the same optimum:
    the regressions of the B and A indicators on the six map terms
    (Zellner 1962), one least-squares solve with two right-hand sides.
    A rank-deficient X (for example, all forecasts identical) gives the
    minimum-norm solution.  The identity map is in the family, so the
    fitted mean score never exceeds the unrecalibrated one; in the rare
    float-level tie the identity is returned outright.
    """
    if not pairs:
        raise EmptyDataset("no pairs to fit a recalibration map on")
    X, Y = _regression(*_pair_arrays(pairs))
    C, *_ = np.linalg.lstsq(X, Y, rcond=None)
    coeffs = C.T.ravel()  # C1..C6 for pB~, then C7..C12 for pA~
    if _mean_score(coeffs, X, Y, rule) > _mean_score(IDENTITY_COEFFS, X, Y, rule):
        coeffs = IDENTITY_COEFFS
    return QuadraticMap(coeffs)


def mean_score_of_map(
    pairs: list[ForecastObsPair], mapping: QuadraticMap, rule: ScoringRule
) -> float:
    """Mean quadratic score of the (unclipped) mapped forecasts."""
    if not pairs:
        raise EmptyDataset("no pairs to score")
    return _mean_score(mapping.coeffs, *_regression(*_pair_arrays(pairs)), rule)


@dataclass(frozen=True)
class CalibrationReport:
    """Before/after comparison of a recalibration map on a dataset."""

    before: Decomposition
    after: Decomposition
    binned_before: BinnedStats
    binned_after: BinnedStats
    mean_score_before: float
    mean_score_after: float
    n_off_simplex: int


def recalibration_report(
    pairs: list[ForecastObsPair],
    mapping: QuadraticMap,
    rule: ScoringRule,
    nbins: int = 11,
) -> CalibrationReport:
    """Decompose the score before and after applying a recalibration map.

    Mapped forecasts that leave the simplex are counted and projected
    back before binning (the decomposition needs simplex points); the
    raw mean scores are reported unclipped.
    """
    if not pairs:
        raise EmptyDataset("no pairs to report on")
    F, obs = _pair_arrays(pairs)
    mapped = [apply_map(mapping, pair.forecast, clip=True) for pair in pairs]
    binned_before = _binned(F, obs, nbins)
    binned_after = _binned(np.array([res.to_ternary().as_tuple() for res in mapped]), obs, nbins)
    X, Y = _regression(F, obs)
    return CalibrationReport(
        before=decompose(rule, binned_before),
        after=decompose(rule, binned_after),
        binned_before=binned_before,
        binned_after=binned_after,
        mean_score_before=_mean_score(IDENTITY_COEFFS, X, Y, rule),
        mean_score_after=_mean_score(mapping.coeffs, X, Y, rule),
        n_off_simplex=sum(not res.on_simplex for res in mapped),
    )
