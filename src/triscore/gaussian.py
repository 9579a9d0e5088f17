"""Gaussian forecasts and their exact two-way link to ternary values.

When forecast and climatology are both normal, the forecast is fully
described by its mean and standard deviation scaled against the
climatology's: mu_hat = (mu - mu_c)/sigma_c, sigma_hat = sigma/sigma_c.
The induced ternary forecast is

    pB       = Phi((zB - mu_hat)/sigma_hat)
    pB + pN  = Phi((zA - mu_hat)/sigma_hat)

with zB, zA the standard-normal quantiles of the climatology's category
probabilities.  On the open interior of the simplex this map inverts in
closed form, recovering (mu_hat, sigma_hat) from any ternary forecast.
The standard-normal quantiles come from the standard library's
``statistics.NormalDist().inv_cdf``.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DomainError
from .simplex import TernaryProb, make_ternary

_SQRT2 = math.sqrt(2.0)
# Wichura's AS 241 (Applied Statistics 37:477, 1988): within a few ulp
_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class GaussianScaled:
    """Forecast mean and standard deviation scaled by the climatology."""

    mu_hat: float
    sigma_hat: float

    def __post_init__(self):
        if not (math.isfinite(self.mu_hat) and math.isfinite(self.sigma_hat)):
            raise DomainError("scaled parameters must be finite")
        if self.sigma_hat <= 0.0:
            raise DomainError(f"sigma_hat = {self.sigma_hat} <= 0")


def scale_params(mu: float, sigma: float, mu_c: float, sigma_c: float) -> GaussianScaled:
    """Normalise (mu, sigma) against the climatology (mu_c, sigma_c)."""
    if sigma <= 0.0:
        raise DomainError(f"sigma = {sigma} <= 0")
    if sigma_c <= 0.0:
        raise DomainError(f"sigma_c = {sigma_c} <= 0")
    return GaussianScaled((mu - mu_c) / sigma_c, sigma / sigma_c)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_quantile(u: float) -> float:
    """Inverse of :func:`std_normal_cdf` on the open interval (0, 1)."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument {u} outside (0, 1)")
    return _STD_NORMAL.inv_cdf(u)


def _climatology_z(q: TernaryProb) -> tuple[float, float]:
    """Standard-normal quantiles (zB, zA) of the climatology's thresholds."""
    if q.pB <= 0.0 or q.pB + q.pN >= 1.0:
        raise DomainError(
            f"climatology ({q.pB}, {q.pN}, {q.pA}) leaves no interior thresholds"
        )
    return std_normal_quantile(q.pB), std_normal_quantile(q.pB + q.pN)


def gaussian_to_ternary(g: GaussianScaled, q: TernaryProb) -> TernaryProb:
    """Project a scaled Gaussian forecast onto the climatology's categories.

    Tail categories are evaluated through the survival function, so
    probabilities stay relatively accurate (instead of rounding to 0)
    even when the forecast is many standard deviations from a
    threshold.
    """
    zB, zA = _climatology_z(q)
    aB = (zB - g.mu_hat) / g.sigma_hat
    aA = (zA - g.mu_hat) / g.sigma_hat
    pB = std_normal_cdf(aB)
    pA = std_normal_cdf(-aA)
    if aA <= 0.0:
        pN = max(0.0, std_normal_cdf(aA) - pB)
    elif aB >= 0.0:
        pN = max(0.0, std_normal_cdf(-aB) - pA)
    else:
        pN = max(0.0, 1.0 - pB - pA)
    return make_ternary(pB, pN, pA)


def ternary_to_gaussian(p: TernaryProb, q: TernaryProb) -> GaussianScaled:
    """Recover the scaled Gaussian parameters behind a ternary forecast.

    Defined for strictly interior forecasts: pB and pB+pN in (0, 1) and
    pN > 0.  With wB, wA, zB, zA the standard-normal quantiles of the
    forecast and climatology cumulative probabilities,

        sigma_hat = (zA - zB) / (wA - wB)
        mu_hat    = zB - sigma_hat * wB
    """
    zB, zA = _climatology_z(q)
    # quantiles are taken on whichever of the cumulative probability and
    # its complement is smaller, so near-one values (stored to full
    # relative precision in the other two components) invert cleanly
    wB = _split_quantile(p.pB, p.pN + p.pA, "pB")
    wA = _split_quantile(p.pB + p.pN, p.pA, "pB + pN")
    if not wA > wB:
        raise DomainError("pN = 0: forecast carries no central mass")
    sigma_hat = (zA - zB) / (wA - wB)
    mu_hat = zB - sigma_hat * wB
    return GaussianScaled(mu_hat, sigma_hat)


def _split_quantile(c: float, complement: float, name: str) -> float:
    if c <= 0.0:
        raise DomainError(f"{name} = 0 is on the boundary")
    if complement <= 0.0:
        raise DomainError(f"{name} = 1 is on the boundary")
    if c <= 0.5:
        return std_normal_quantile(c)
    return -std_normal_quantile(complement)
