import math

import mpmath as mp
import numpy as np
import pytest

from triscore import (
    GaussianScaled,
    UNIFORM,
    gaussian_to_ternary,
    make_ternary,
    scale_params,
    std_normal_cdf,
    std_normal_quantile,
    ternary_to_gaussian,
)
from triscore.errors import (
    DegenerateClimatology,
    NonPositiveSigma,
    NotInvertible,
    QuantileOutOfRange,
)

mp.mp.dps = 40

QUARTILE_Q = make_ternary(0.25, 0.5, 0.25)

# frozen from a bisection of the high-precision normal CDF to 1e-30
Z_TERCILE = -0.43072729929545749


def phi_oracle(z: float) -> float:
    """High-order evaluation of the normal CDF via mpmath's erfc."""
    return float(0.5 * mp.erfc(-mp.mpf(z) / mp.sqrt(2)))


def phi_inv_oracle(u: float) -> float:
    """Bisection of the high-precision CDF, independent of the package."""
    lo, hi = mp.mpf(-40), mp.mpf(40)
    target = mp.mpf(u)
    while hi - lo > mp.mpf("1e-25"):
        mid = (lo + hi) / 2
        if 0.5 * mp.erfc(-mid / mp.sqrt(2)) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestScaleParams:
    def test_forecast_equals_climatology(self):
        assert scale_params(5, 2, 5, 2) == GaussianScaled(0.0, 1.0)

    def test_unit_shift(self):
        assert scale_params(7, 2, 5, 2) == GaussianScaled(1.0, 1.0)

    def test_variance_inflation(self):
        assert scale_params(5, 10, 5, 2) == GaussianScaled(0.0, 5.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            scale_params(0, 0.0, 0, 1)
        with pytest.raises(NonPositiveSigma):
            scale_params(0, 1, 0, -2.0)
        with pytest.raises(NonPositiveSigma):
            GaussianScaled(0.0, 0.0)
        with pytest.raises(NonPositiveSigma, match="finite"):
            GaussianScaled(math.inf, 1.0)


class TestNormalPrimitives:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_tercile_quantile_against_bisection(self):
        assert std_normal_quantile(1 / 3) == pytest.approx(Z_TERCILE, abs=1e-12)
        assert std_normal_quantile(2 / 3) == pytest.approx(-Z_TERCILE, abs=1e-12)

    def test_cdf_against_erfc_oracle(self):
        for z in (-8.0, -1.96, -0.5, 0.1, 1.0, 1.96, 3.0, 6.5):
            assert std_normal_cdf(z) == pytest.approx(phi_oracle(z), rel=1e-13, abs=1e-300)
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)

    def test_quantile_against_bisection_oracle(self):
        for u in (1e-10, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
            assert std_normal_quantile(u) == pytest.approx(phi_inv_oracle(u), abs=1e-10)

    @pytest.mark.parametrize("u", [1e-300, 1e-6, 0.25, 0.5, 0.999,
                                   1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_quantile_within_8_ulp(self, u):
        want = phi_inv_oracle(u)
        # the oracle itself is only known to its 1e-25 bisection width
        assert abs(std_normal_quantile(u) - want) <= 8 * math.ulp(want) + 1e-25

    def test_mutual_consistency(self, rng):
        worst = 0.0
        for u in rng.uniform(1e-8, 1 - 1e-8, 20000):
            u = float(u)
            worst = max(worst, abs(std_normal_cdf(std_normal_quantile(u)) - u))
        for u in (1e-8, 1e-7, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-8):
            worst = max(worst, abs(std_normal_cdf(std_normal_quantile(u)) - u))
        assert worst <= 1e-9

    def test_quantile_domain(self):
        for u in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(QuantileOutOfRange):
                std_normal_quantile(u)


class TestProjection:
    def test_identity_forecast_is_climatology(self):
        p = gaussian_to_ternary(GaussianScaled(0.0, 1.0), UNIFORM)
        assert p.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_shifted_forecast(self):
        # oracle: Phi(z + 1) at the tercile quantiles, via mpmath
        p = gaussian_to_ternary(GaussianScaled(-1.0, 1.0), UNIFORM)
        fB = phi_oracle(Z_TERCILE + 1.0)
        fA = phi_oracle(-Z_TERCILE + 1.0)
        assert p.as_tuple() == pytest.approx((fB, fA - fB, 1 - fA), abs=1e-12)
        assert p.as_tuple() == pytest.approx((0.7154, 0.2083, 0.0763), abs=5e-5)

    def test_high_variance_splits_tails(self):
        # oracle: Phi(z/5) by symmetry
        p = gaussian_to_ternary(GaussianScaled(0.0, 5.0), UNIFORM)
        fB = phi_oracle(Z_TERCILE / 5.0)
        assert p.pB == pytest.approx(fB, abs=1e-12)
        assert p.pA == pytest.approx(fB, abs=1e-12)
        assert p.as_tuple() == pytest.approx((0.4657, 0.0686, 0.4657), abs=5e-5)
        assert p.pB == p.pA  # exact symmetry for mu_hat = 0

    def test_rejects_degenerate_climatology(self):
        with pytest.raises(DegenerateClimatology):
            gaussian_to_ternary(GaussianScaled(0, 1), make_ternary(0.0, 0.5, 0.5))
        with pytest.raises(DegenerateClimatology):
            gaussian_to_ternary(GaussianScaled(0, 1), make_ternary(0.5, 0.5, 0.0))

    def test_monotone_in_mean(self):
        prev = None
        for mu in np.arange(-3, 3.01, 0.5):
            p = gaussian_to_ternary(GaussianScaled(float(mu), 1.3), UNIFORM)
            if prev is not None:
                assert p.pB < prev.pB
                assert p.pA > prev.pA
            prev = p

    def test_sharp_forecast_concentrates(self):
        p = gaussian_to_ternary(GaussianScaled(-2.0, 0.01), UNIFORM)
        assert p.pB > 1 - 1e-12


class TestInversion:
    def test_identity_case(self):
        g = ternary_to_gaussian(UNIFORM, UNIFORM)
        assert g.mu_hat == pytest.approx(0.0, abs=1e-12)
        assert g.sigma_hat == pytest.approx(1.0, abs=1e-12)

    def test_recovers_shifted_forecast(self):
        p = make_ternary(0.7154, 0.2083, 0.0763)
        g = ternary_to_gaussian(p, UNIFORM)
        assert g.mu_hat == pytest.approx(-1.0, abs=5e-4)
        assert g.sigma_hat == pytest.approx(1.0, abs=5e-4)

    def test_not_invertible_without_central_mass(self):
        with pytest.raises(NotInvertible):
            ternary_to_gaussian(make_ternary(1 / 3, 0.0, 2 / 3), UNIFORM)

    def test_not_invertible_at_corners(self):
        with pytest.raises(NotInvertible):
            ternary_to_gaussian(make_ternary(1.0, 0.0, 0.0), UNIFORM)
        with pytest.raises(NotInvertible):
            ternary_to_gaussian(make_ternary(0.0, 1.0, 0.0), UNIFORM)

    def test_roundtrip_grid(self):
        for q in (UNIFORM, QUARTILE_Q):
            for mu in np.arange(-3.0, 3.01, 0.25):
                for sigma in (0.2, 0.5, 1.0, 2.0, 5.0):
                    g = GaussianScaled(float(mu), float(sigma))
                    back = ternary_to_gaussian(gaussian_to_ternary(g, q), q)
                    assert back.mu_hat == pytest.approx(g.mu_hat, abs=1e-7)
                    assert back.sigma_hat == pytest.approx(g.sigma_hat, abs=1e-7)

    def test_roundtrip_through_values(self, rng):
        for _ in range(200):
            p = make_ternary(*rng.dirichlet((3, 3, 3)))
            g = ternary_to_gaussian(p, UNIFORM)
            p2 = gaussian_to_ternary(g, UNIFORM)
            assert p2.as_tuple() == pytest.approx(p.as_tuple(), abs=1e-9)
