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
which is reported and can optionally be repaired by moving each to the
nearest point of a scoring rule's own triangle (see map_forecasts).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TriscoreError
from .scoring import AffineTernary, ScoringRule
from .simplex import TernaryProb
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
            raise DomainError("a quadratic map needs 12 finite coefficients")
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


def apply_map(mapping: QuadraticMap, p: TernaryProb) -> AffineTernary:
    """Evaluate the map at one forecast: an affine 3-vector that may lie
    off the simplex."""
    # numpy's dot, not a Python sum: the two round differently
    f = np.array(_features(p.pB, p.pA))
    tB = float(f.dot(mapping._cB))  # the same BLAS ddot as @, with less dispatch
    tA = float(f.dot(mapping._cA))
    return AffineTernary(tB, 1.0 - tB - tA, tA)


def map_forecasts(
    mapping: QuadraticMap, forecasts: list, clip: ScoringRule | None = None
) -> tuple[list, int]:
    """Each forecast under the map as a TernaryProb, and how many the map
    sent off the simplex.  With a rule ``clip``, each finite off-simplex
    value is first moved to the nearest point of that rule's triangle.
    A mapped value that is not a TernaryProb fails as to_ternary does,
    its message prefixed ``records[i]``."""
    # an overflowing map gives a non-finite value, which to_ternary names
    with np.errstate(over="ignore", invalid="ignore"):
        mapped = [apply_map(mapping, p) for p in forecasts]
        off = [i for i, res in enumerate(mapped) if not res.on_simplex]
        # tN is finite only when all three are
        rows = [i for i in off if math.isfinite(mapped[i].pN)] if clip is not None else []
        if rows:
            V = np.array([(mapped[i].pB, mapped[i].pN, mapped[i].pA) for i in rows])
            for i, x in zip(rows, _clip(clip, V).tolist()):
                mapped[i] = AffineTernary(*x)
    try:
        for i, res in enumerate(mapped):
            mapped[i] = res.to_ternary()
    except TriscoreError as e:
        raise type(e)(str(e), f"records[{i}]") from None
    return mapped, len(off)


# edge e runs from corner e to corner e + 1 (mod 3): e_e + t d_e, t in [0, 1]
_D = np.eye(3)[[1, 2, 0]] - np.eye(3)
_E = np.arange(3)


def _clip(rule: ScoringRule, V: np.ndarray) -> np.ndarray:
    """The nearest simplex point, in the rule's own metric, to each row v
    of V (k, 3), each summing to one with a component below zero: the x
    on an edge that minimises (x - v)' L'L (x - v).  Edge e's point has
    t = (v - e_e)' L'L d_e / d_e' L'L d_e clamped to [0, 1]; the edge kept
    is the one where g = L'L (x - v) at the opposite corner most exceeds
    its least value at the edge's own corners.  That excess, the multiplier
    of x >= 0 there, is not negative only at the nearest point, and unlike
    the squared distances it does not round to a tie near a corner."""
    AD = _D @ rule.LtL  # row e: (L'L d_e)'
    t = (V @ AD.T - AD.diagonal()) / np.einsum("ek,ek->e", _D, AD)
    X = np.eye(3) + np.clip(t, 0.0, 1.0)[..., None] * _D  # (k, edge, 3)
    G = (X - V[:, None, :]) @ rule.LtL
    margin = G[:, _E, (_E + 2) % 3] - np.minimum(G[:, _E, _E], G[:, _E, (_E + 1) % 3])
    return X[np.arange(len(V)), margin.argmax(axis=1)]


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
        raise DomainError("no pairs to fit a recalibration map on")
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
        raise DomainError("no pairs to score")
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

    Mapped forecasts that leave the simplex are counted and clipped to
    the nearest point of the rule's triangle before binning (the
    decomposition needs simplex points); the raw mean scores are
    reported unclipped.
    """
    if not pairs:
        raise DomainError("no pairs to report on")
    F, obs = _pair_arrays(pairs)
    mapped, n_off = map_forecasts(mapping, [pair.forecast for pair in pairs], clip=rule)
    binned_before = _binned(F, obs, nbins)
    binned_after = _binned(np.array([p.as_tuple() for p in mapped]), obs, nbins)
    X, Y = _regression(F, obs)
    return CalibrationReport(
        before=decompose(rule, binned_before),
        after=decompose(rule, binned_after),
        binned_before=binned_before,
        binned_after=binned_after,
        mean_score_before=_mean_score(IDENTITY_COEFFS, X, Y, rule),
        mean_score_after=_mean_score(mapping.coeffs, X, Y, rule),
        n_off_simplex=n_off,
    )
