"""Ternary probability values and projection of forecasts onto three categories.

A continuous forecast (or climatology) distribution is reduced to a
probability triple over the ordered categories B ("below normal"),
N ("near normal") and A ("above normal"), delimited by two physical
thresholds.  Categories are the closed intervals B = (-inf, xB],
N = [xB, xA], A = [xA, inf); a value exactly on a shared endpoint is
broken low (B at xB, N at xA).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InsufficientData,
    NegativeProbability,
    NonMonotoneCDF,
    NotNormalised,
)

#: Largest |pB+pN+pA - 1| that is silently renormalised.
SUM_TOLERANCE = 1e-9
#: Most negative component accepted (clamped to zero) at construction.
NEGATIVE_TOLERANCE = -1e-12
#: Largest |pB+pN+pA - 1| left without rescaling at construction.
RESCALE_TOLERANCE = 1e-15


@dataclass(frozen=True)
class TernaryProb:
    """A point on the 2-simplex: category probabilities (pB, pN, pA).

    Instances are produced by :func:`make_ternary` and friends, which
    enforce non-negativity and unit sum; direct construction skips
    validation and is reserved for values already known to be valid.
    """

    pB: float
    pN: float
    pA: float

    def as_array(self) -> np.ndarray:
        return np.array([self.pB, self.pN, self.pA])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.pB, self.pN, self.pA)


class ObsCategory(Enum):
    """Observed category of a ternary outcome."""

    B = "B"
    N = "N"
    A = "A"

    # both look up by the value string: hashing a member calls the
    # Python-level Enum.__hash__
    def to_ternary(self) -> TernaryProb:
        """Corner of the simplex carrying all mass in this category."""
        return _CORNERS[self._value_]

    @property
    def index(self) -> int:
        return _INDEX[self._value_]


_CORNERS = {
    "B": TernaryProb(1.0, 0.0, 0.0),
    "N": TernaryProb(0.0, 1.0, 0.0),
    "A": TernaryProb(0.0, 0.0, 1.0),
}
_INDEX = {"B": 0, "N": 1, "A": 2}

#: The uniform climatology (1/3, 1/3, 1/3), the default benchmark.
UNIFORM = TernaryProb(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class CategoryThresholds:
    """Physical-variable thresholds (xB, xA) delimiting the categories."""

    xB: float
    xA: float

    def __post_init__(self):
        if self.xB > self.xA:
            raise NonMonotoneCDF(f"thresholds out of order: xB={self.xB} > xA={self.xA}")

    def categorise(self, value: float) -> ObsCategory:
        """Category of an observed value; boundary values break low."""
        if value <= self.xB:
            return ObsCategory.B
        if value <= self.xA:
            return ObsCategory.N
        return ObsCategory.A


def make_ternary(pB: float, pN: float, pA: float) -> TernaryProb:
    """Validate and normalise a probability triple.

    Components more negative than ``NEGATIVE_TOLERANCE`` raise
    :class:`NegativeProbability`; sums farther than ``SUM_TOLERANCE``
    from one raise :class:`NotNormalised`.  Within those tolerances the
    triple is renormalised so the float components sum to exactly 1.0.

    A triple with no component below zero whose sum, added left to
    right, is within ``RESCALE_TOLERANCE`` of one is returned as given,
    with -0.0 turned into +0.0; any other triple goes through the checks
    in the order above.
    """
    b, n, a = float(pB), float(pN), float(pA)
    if b >= 0.0 and n >= 0.0 and a >= 0.0 and abs(b + n + a - 1.0) <= RESCALE_TOLERANCE:
        return TernaryProb(b + 0.0, n + 0.0, a + 0.0)
    vals = [b, n, a]
    for name, v in zip("BNA", vals):
        if not math.isfinite(v):
            raise NotNormalised(f"p{name} is not finite: {v}")
        if v < NEGATIVE_TOLERANCE:
            raise NegativeProbability(f"p{name} = {v} < 0")
    vals = [max(0.0, v) for v in vals]
    total = vals[0] + vals[1] + vals[2]
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalised(f"probabilities sum to {total}, not 1")
    # sums already within a few ulp of 1 are left untouched: rescaling by
    # such a factor is a no-op at double precision and would break
    # bit-level idempotence of construction (and hence I/O roundtrips)
    if abs(total - 1.0) > RESCALE_TOLERANCE:
        vals = [v / total for v in vals]
        k = max(range(3), key=lambda i: vals[i])
        vals[k] = 1.0 - (vals[(k + 1) % 3] + vals[(k + 2) % 3])
    return TernaryProb(*vals)


def ternary_from_cdf(F_at_xB: float, F_at_xA: float) -> TernaryProb:
    """Project a CDF evaluated at the two thresholds onto the simplex.

    Returns (F(xB), F(xA) - F(xB), 1 - F(xA)).
    """
    if not (0.0 <= F_at_xB <= 1.0 and 0.0 <= F_at_xA <= 1.0):
        raise NotNormalised(f"CDF values outside [0,1]: ({F_at_xB}, {F_at_xA})")
    if F_at_xB > F_at_xA:
        raise NonMonotoneCDF(f"F(xB)={F_at_xB} > F(xA)={F_at_xA}")
    return make_ternary(F_at_xB, F_at_xA - F_at_xB, 1.0 - F_at_xA)


def empirical_quantiles(series: list[float], q: TernaryProb) -> CategoryThresholds:
    """Thresholds placed at the climatology quantiles q_B and q_B + q_N.

    Quantiles are computed by linear interpolation of the order
    statistics: the quantile at cumulative probability c is the value at
    fractional index c*(n-1) in the sorted sample.
    """
    if len(series) < 2:
        raise InsufficientData(f"need at least 2 climatology values, got {len(series)}")
    if not all(math.isfinite(v) for v in series):
        raise InsufficientData("climatology series contains non-finite values")
    ordered = sorted(series)
    xB = _interp_quantile(ordered, q.pB)
    xA = _interp_quantile(ordered, q.pB + q.pN)
    return CategoryThresholds(xB, xA)


def _interp_quantile(ordered: list[float], c: float) -> float:
    c = min(1.0, max(0.0, c))
    idx = c * (len(ordered) - 1)
    lo = int(math.floor(idx))
    hi = min(lo + 1, len(ordered) - 1)
    frac = idx - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def ensemble_to_ternary(members: list[float], thresholds: CategoryThresholds) -> TernaryProb:
    """Category probabilities from ensemble member counts.

    pB is the fraction of members <= xB, pA the fraction > xA, pN the
    remainder, consistent with the closed-interval category definitions.
    """
    n = len(members)
    if n == 0:
        raise InsufficientData("empty ensemble")
    nB = sum(1 for m in members if m <= thresholds.xB)
    nA = sum(1 for m in members if m > thresholds.xA)
    nN = n - nB - nA
    return make_ternary(nB / n, nN / n, nA / n)
