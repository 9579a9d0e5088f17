"""Quadratic recalibration of ternary forecasts.

A recalibration map sends an issued forecast (pB, pN, pA) to

    pB~ = C1 + C2*pB + C3*pA + C4*pB^2 + C5*pB*pA + C6*pA^2
    pA~ = C7 + C8*pB + C9*pA + C10*pB^2 + C11*pB*pA + C12*pA^2
    pN~ = 1 - pB~ - pA~

and the twelve coefficients are chosen to minimise the mean quadratic
score of the recalibrated forecasts against the observations.  The
recalibrated value is linear in the coefficients, so the optimum is an
ordinary linear least-squares solution; no iterative optimiser is
needed.  Mapped forecasts may leave the simplex, which is reported and
can optionally be repaired by Euclidean projection.
"""

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

    @classmethod
    def identity(cls) -> "QuadraticMap":
        return cls(IDENTITY_COEFFS)


def _features(pB, pA) -> list:
    """The six terms of the map, for floats or for arrays of forecasts."""
    return [1.0, pB, pA, pB * pB, pB * pA, pA * pA]


def apply_map(mapping: QuadraticMap, p: TernaryProb, clip: bool = False) -> AffineTernary:
    """Evaluate the map at one forecast.

    Returns the affine 3-vector together with an on-simplex flag; with
    ``clip`` the result is Euclidean-projected onto the simplex first
    (the flag still reports where the unclipped value landed).
    """
    f = np.array(_features(p.pB, p.pA))
    c = np.asarray(mapping.coeffs)
    tB = float(f @ c[:6])
    tA = float(f @ c[6:])
    tN = 1.0 - tB - tA
    on_simplex = tB >= NEGATIVE_TOLERANCE and tN >= NEGATIVE_TOLERANCE and tA >= NEGATIVE_TOLERANCE
    if clip and not on_simplex:
        tB, tN, tA = project_to_simplex(np.array([tB, tN, tA]))
    return AffineTernary(tB, tN, tA, on_simplex)


def project_to_simplex(v: np.ndarray) -> tuple[float, float, float]:
    """Euclidean projection of a 3-vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = 0
    for j in range(3):
        if u[j] + (1.0 - css[j]) / (j + 1) > 0.0:
            rho = j
    lam = (1.0 - css[rho]) / (rho + 1)
    w = np.maximum(v + lam, 0.0)
    return (float(w[0]), float(w[1]), float(w[2]))


def _mean_score(coeffs: np.ndarray, design: np.ndarray, target: np.ndarray) -> float:
    resid = design @ coeffs - target
    return float(resid @ resid) / (design.shape[0] // 2)


# the map's output at zero coefficients, and how (tB, tA) move it
_BASE = np.array([0.0, 1.0, 0.0])
_J = np.array([[1.0, 0.0], [-1.0, -1.0], [0.0, 1.0]])


def _assemble(F: np.ndarray, obs: np.ndarray, rule: ScoringRule) -> tuple[np.ndarray, np.ndarray]:
    """Stack the 2N x 12 linear system, for forecasts F (N, 3) and observed
    category indices obs, whose residual is Mhat(p~ - o); p~ - o sums to
    zero, so the residual's squared length is its score."""
    features = np.column_stack(np.broadcast_arrays(*_features(F[:, 0], F[:, 2])))
    MJ = rule.Mhat @ _J
    design = (MJ[None, :, :, None] * features[:, None, None, :]).reshape(2 * len(F), 12)
    target = (np.eye(3)[obs] - _BASE) @ rule.Mhat.T
    return design, target.ravel()


def fit_map(pairs: list[ForecastObsPair], rule: ScoringRule) -> QuadraticMap:
    """Least-squares fit of the recalibration coefficients.

    Minimises the mean score of the mapped forecasts over all pairs.
    Rank-deficient systems (for example, all forecasts identical) give
    the minimum-norm solution.  The identity map is in the family, so
    the fitted mean score never exceeds the unrecalibrated one; in the
    rare float-level tie the identity is returned outright.
    """
    if not pairs:
        raise EmptyDataset("no pairs to fit a recalibration map on")
    design, target = _assemble(*_pair_arrays(pairs), rule)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    identity = np.asarray(IDENTITY_COEFFS)
    if _mean_score(coeffs, design, target) > _mean_score(identity, design, target):
        coeffs = identity
    return QuadraticMap(tuple(float(c) for c in coeffs))


def mean_score_of_map(
    pairs: list[ForecastObsPair], mapping: QuadraticMap, rule: ScoringRule
) -> float:
    """Mean quadratic score of the (unclipped) mapped forecasts."""
    if not pairs:
        raise EmptyDataset("no pairs to score")
    design, target = _assemble(*_pair_arrays(pairs), rule)
    return _mean_score(np.asarray(mapping.coeffs), design, target)


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
    design, target = _assemble(F, obs, rule)
    return CalibrationReport(
        before=decompose(rule, binned_before),
        after=decompose(rule, binned_after),
        binned_before=binned_before,
        binned_after=binned_after,
        mean_score_before=_mean_score(np.asarray(IDENTITY_COEFFS), design, target),
        mean_score_after=_mean_score(np.asarray(mapping.coeffs), design, target),
        n_off_simplex=sum(not res.on_simplex for res in mapped),
    )
