import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from triscore import (
    ForecastObsPair,
    ObsCategory,
    QuadraticMap,
    apply_map,
    brier_rule,
    fit_map,
    make_ternary,
    mean_score_of_map,
    recalibration_report,
    rps_rule,
    score,
)
from triscore.errors import EmptyDataset
from triscore.scoring import AffineTernary, ScoringRule
from triscore.simplex import NEGATIVE_TOLERANCE, TernaryProb
from triscore.recalibration import _J, _features, _mean_score, _regression, project_to_simplex
from triscore.verification import _pair_arrays

from conftest import CATS, categorical_pairs, random_pd_rules

B, N, A = ObsCategory.B, ObsCategory.N, ObsCategory.A


# the rule-weighted 2N x 12 system: the reference for the regression fit and
# for _mean_score.  _BASE is the map's output at zero coefficients, and _J how
# (tB, tA) move it
_BASE = np.array([0.0, 1.0, 0.0])


def _assemble(F: np.ndarray, obs: np.ndarray, rule: ScoringRule) -> tuple[np.ndarray, np.ndarray]:
    """Stack the 2N x 12 linear system, for forecasts F (N, 3) and observed
    category indices obs, whose residual is Mhat(p~ - o); p~ - o sums to
    zero, so the residual's squared length is its score."""
    features = np.column_stack(np.broadcast_arrays(*_features(F[:, 0], F[:, 2])))
    MJ = rule.Mhat @ _J
    design = (MJ[None, :, :, None] * features[:, None, None, :]).reshape(2 * len(F), 12)
    target = (np.eye(3)[obs] - _BASE) @ rule.Mhat.T
    return design, target.ravel()


def overconfident_pairs(rng, n):
    """Well-calibrated truth, but issued forecasts are sharpened."""
    truth = rng.dirichlet((1.0, 1.0, 1.0), n)
    issued = truth**2
    issued /= issued.sum(axis=1, keepdims=True)
    pairs = []
    for tr, sh in zip(truth, issued):
        obs = CATS[rng.choice(3, p=tr)]
        pairs.append(ForecastObsPair(make_ternary(*sh), obs))
    return pairs


def nelder_mead_best(pairs, rule, rng, restarts=20):
    """Derivative-free reference optimiser over the 12 coefficients.

    The residual system is assembled once so each simplex-search step
    costs a single matrix-vector product; the map itself is still
    evaluated through the public API at the returned optimum.
    """
    design, target = _assemble(*_pair_arrays(pairs), rule)
    n = len(pairs)

    def objective(c):
        r = design @ c - target
        return float(r @ r) / n

    identity = np.array(QuadraticMap.identity().coeffs)
    best_fun, best_x = np.inf, identity
    for k in range(restarts):
        x0 = identity + (rng.uniform(-0.3, 0.3, 12) if k else 0.0)
        res = optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": 20000, "xatol": 1e-10, "fatol": 1e-12},
        )
        if res.fun < best_fun:
            best_fun, best_x = float(res.fun), res.x
    # confirm through the public scorer that the surrogate agrees
    public = mean_score_of_map(pairs, QuadraticMap(tuple(best_x)), rule)
    assert abs(public - best_fun) <= 1e-10
    return best_fun


class TestQuadraticMap:
    def test_identity_is_representable(self):
        m = QuadraticMap.identity()
        assert m.coeffs[1] == 1.0 and m.coeffs[8] == 1.0
        assert sum(abs(c) for c in m.coeffs) == 2.0

    def test_needs_twelve_coefficients(self):
        with pytest.raises(EmptyDataset):
            QuadraticMap((1.0, 2.0))


class TestApplyMap:
    def test_identity_reproduces_input(self, rng):
        ident = QuadraticMap.identity()
        for row in rng.dirichlet((1, 1, 1), 100):
            p = make_ternary(*row)
            res = apply_map(ident, p)
            assert res.as_array() == pytest.approx(p.as_array(), abs=1e-15)
            assert res.on_simplex

    def test_constant_map(self, rng):
        const = QuadraticMap((1.0,) + (0.0,) * 11)
        for row in rng.dirichlet((1, 1, 1), 20):
            res = apply_map(const, make_ternary(*row))
            assert (res.pB, res.pN, res.pA) == (1.0, 0.0, 0.0)

    def test_shrinkage_toward_uniform(self):
        # oracle: hand evaluation of the two quadratics at a corner
        coeffs = [0.0] * 12
        coeffs[0] = coeffs[6] = 1 / 6  # C1, C7
        coeffs[1] = coeffs[8] = 0.5    # C2, C9
        res = apply_map(QuadraticMap(tuple(coeffs)), make_ternary(1, 0, 0))
        assert (res.pB, res.pN, res.pA) == pytest.approx((2 / 3, 1 / 6, 1 / 6), abs=1e-15)

    def test_off_simplex_flag_and_clip(self):
        overshoot = QuadraticMap((-0.2, 1.2, 0.0, 0, 0, 0, 0.0, 0.0, 1.0, 0, 0, 0))
        p = make_ternary(0.05, 0.9, 0.05)
        raw = apply_map(overshoot, p)
        assert not raw.on_simplex
        assert raw.as_array().sum() == pytest.approx(1.0, abs=1e-12)
        clipped = apply_map(overshoot, p, clip=True)
        assert not clipped.on_simplex  # flag reports the unclipped location
        assert min(clipped.pB, clipped.pN, clipped.pA) >= 0.0
        assert clipped.pB + clipped.pN + clipped.pA == pytest.approx(1.0, abs=1e-12)

    def test_flag_matches_component_signs(self, rng):
        m = QuadraticMap((0.1, 0.9, -0.3, 0.2, 0.0, 0.1, -0.05, 0.1, 1.1, 0.0, 0.2, -0.1))
        for row in rng.dirichlet((1, 1, 1), 200):
            res = apply_map(m, make_ternary(*row))
            want = min(res.pB, res.pN, res.pA) >= -1e-12
            assert res.on_simplex == want

    @pytest.mark.parametrize("p", [(0.319, 0.506, 0.175), (0.2, 0.3, 0.5)],
                             ids=["tN-overflows", "terms-overflow"])
    def test_clip_leaves_overflow_unclipped(self, p):
        huge = QuadraticMap((1e308,) * 12)
        with np.errstate(over="ignore", invalid="ignore"):
            got = apply_map(huge, make_ternary(*p), clip=True)
            want = apply_map_reference(huge, make_ternary(*p), clip=True)
            unclipped = apply_map(huge, make_ternary(*p))
        assert not all(map(math.isfinite, got.as_array()))
        assert _bits(got.as_array()) == _bits(want.as_array()) == _bits(unclipped.as_array())


class TestProjectToSimplex:
    def test_inside_is_fixed(self):
        assert project_to_simplex(np.array([0.2, 0.5, 0.3])) == pytest.approx((0.2, 0.5, 0.3))

    def test_projection_properties(self, rng):
        for _ in range(200):
            v = rng.uniform(-1, 2, 3)
            w = np.array(project_to_simplex(v))
            assert w.min() >= 0.0
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            # no simplex point is closer to v (spot check against random points)
            for u in rng.dirichlet((1, 1, 1), 20):
                assert np.linalg.norm(v - w) <= np.linalg.norm(v - u) + 1e-9


class TestFitMap:
    def test_single_pair_fits_exactly(self, brier):
        pairs = [ForecastObsPair(make_ternary(0.5, 0.3, 0.2), N)]
        m = fit_map(pairs, brier)
        assert mean_score_of_map(pairs, m, brier) <= 1e-16
        res = apply_map(m, pairs[0].forecast)
        assert res.as_array() == pytest.approx([0.0, 1.0, 0.0], abs=1e-7)

    def test_perfect_incumbent_is_kept(self, brier):
        # forecasts equal to the observed corners have score zero, which
        # the family can reproduce; the fit must not do worse
        pairs = [
            ForecastObsPair(make_ternary(1, 0, 0), B),
            ForecastObsPair(make_ternary(0, 1, 0), N),
            ForecastObsPair(make_ternary(0, 0, 1), A),
        ]
        m = fit_map(pairs, brier)
        assert mean_score_of_map(pairs, m, brier) <= 1e-16

    def test_never_worse_than_identity(self, brier, rps, rng):
        for rule in (brier, rps):
            for n in (5, 40, 200):
                pairs = categorical_pairs(rng, n, sharpen=2.0)
                fitted = fit_map(pairs, rule)
                assert mean_score_of_map(pairs, fitted, rule) <= mean_score_of_map(
                    pairs, QuadraticMap.identity(), rule
                )

    def test_rank_deficient_all_identical(self, brier):
        pairs = [ForecastObsPair(make_ternary(0.4, 0.4, 0.2), B)] * 7 + [
            ForecastObsPair(make_ternary(0.4, 0.4, 0.2), A)
        ] * 3
        m = fit_map(pairs, brier)
        res = apply_map(m, make_ternary(0.4, 0.4, 0.2))
        # the best constant forecast is the observed frequency vector
        assert res.as_array() == pytest.approx([0.7, 0.0, 0.3], abs=1e-7)

    def test_first_order_stationarity(self, brier, rng):
        pairs = categorical_pairs(rng, 150, sharpen=2.0)
        m = fit_map(pairs, brier)
        base = mean_score_of_map(pairs, m, brier)
        for i in range(12):
            for delta in (+1e-3, -1e-3):
                c = list(m.coeffs)
                c[i] += delta
                assert mean_score_of_map(pairs, QuadraticMap(tuple(c)), brier) >= base - 1e-12

    def test_matches_derivative_free_optimiser(self, brier, rng):
        pairs = categorical_pairs(rng, 120, sharpen=2.0)
        ls = mean_score_of_map(pairs, fit_map(pairs, brier), brier)
        nm = nelder_mead_best(pairs, brier, rng, restarts=20)
        assert abs(ls - nm) <= 1e-6

    def test_overconfident_dataset_improves(self, brier, rng):
        pairs = overconfident_pairs(rng, 2000)
        fitted = fit_map(pairs, brier)
        s_fit = mean_score_of_map(pairs, fitted, brier)
        s_id = mean_score_of_map(pairs, QuadraticMap.identity(), brier)
        assert s_fit < s_id

    def test_rejects_empty(self, brier):
        with pytest.raises(EmptyDataset):
            fit_map([], brier)
        with pytest.raises(EmptyDataset):
            mean_score_of_map([], QuadraticMap.identity(), brier)
        with pytest.raises(EmptyDataset):
            recalibration_report([], QuadraticMap.identity(), brier, 11)

    def test_mean_score_agrees_with_scoring_module(self, brier, rng):
        pairs = categorical_pairs(rng, 50)
        direct = sum(score(brier, p.forecast, p.obs.to_ternary()) for p in pairs) / len(pairs)
        assert mean_score_of_map(pairs, QuadraticMap.identity(), brier) == pytest.approx(
            direct, abs=1e-12
        )


def mapped_reference(c, p):
    """The map of the module docstring, written out term by term."""
    pB, pA = p.pB, p.pA
    tB = c[0] + c[1] * pB + c[2] * pA + c[3] * pB * pB + c[4] * pB * pA + c[5] * pA * pA
    tA = c[6] + c[7] * pB + c[8] * pA + c[9] * pB * pB + c[10] * pB * pA + c[11] * pA * pA
    return np.array([tB, 1.0 - tB - tA, tA])


class TestResidualSystem:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_residual_norm_is_the_mean_score(self, seed, n):
        rng = np.random.default_rng(seed)
        pairs = categorical_pairs(rng, n)
        coeffs = np.asarray(QuadraticMap.identity().coeffs) + rng.uniform(-0.5, 0.5, 12)
        for rule in (brier_rule(), rps_rule(), *random_pd_rules(rng, 2)):
            design, target = _assemble(*_pair_arrays(pairs), rule)
            resid = design @ coeffs - target
            diffs = [rule.L @ (mapped_reference(coeffs, p.forecast) - p.obs.to_ternary().as_array())
                     for p in pairs]
            want = sum(float(d @ d) for d in diffs) / n
            assert abs(float(resid @ resid) / n - want) <= 1e-12
            got = _mean_score(coeffs, *_regression(*_pair_arrays(pairs)), rule)
            assert abs(got - float(resid @ resid) / n) <= 1e-12

    # 300 examples: about 80 of them draw n < 6, where X is rank-deficient and
    # lstsq returns the minimum-norm solution, and about 170 draw n >= 50, where
    # the coefficients are compared; with fewer, each case gets only a handful
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_one_map_for_every_rule(self, seed, n):
        rng = np.random.default_rng(seed)
        pairs = categorical_pairs(rng, n, sharpen=2.0)
        rules = (brier_rule(), rps_rule(), *random_pd_rules(rng, 2))
        fits = [fit_map(pairs, rule) for rule in rules]
        # bit-identical, except where the guard kept the identity on a float tie
        assert len({m.coeffs for m in fits if m.coeffs != QuadraticMap.identity().coeffs}) <= 1
        for rule, m in zip(rules, fits):
            design, target = _assemble(*_pair_arrays(pairs), rule)
            ref, *_ = np.linalg.lstsq(design, target, rcond=None)
            resid = design @ ref - target
            assert abs(mean_score_of_map(pairs, m, rule) - float(resid @ resid) / n) <= 1e-12
            if n >= 50:
                assert np.abs(np.array(m.coeffs) - ref).max() <= 1e-9


class TestRecalibrationReport:
    def test_identity_map_changes_nothing(self, brier, rng):
        pairs = categorical_pairs(rng, 120)
        rep = recalibration_report(pairs, QuadraticMap.identity(), brier, nbins=11)
        assert rep.before == rep.after
        assert rep.mean_score_before == rep.mean_score_after
        assert rep.n_off_simplex == 0

    def test_fitted_map_improves_score(self, brier, rng):
        pairs = overconfident_pairs(rng, 2000)
        rep = recalibration_report(pairs, fit_map(pairs, brier), brier, nbins=11)
        assert rep.mean_score_after <= rep.mean_score_before
        assert rep.after.S <= rep.before.S
        # observations are untouched, so uncertainty is unchanged
        assert rep.after.U == pytest.approx(rep.before.U, abs=1e-12)
        assert rep.after.q_bar.as_tuple() == pytest.approx(
            rep.before.q_bar.as_tuple(), abs=1e-12
        )

    def test_constant_corner_map(self, brier, rng):
        pairs = categorical_pairs(rng, 80)
        const = QuadraticMap((1.0,) + (0.0,) * 11)
        rep = recalibration_report(pairs, const, brier, nbins=11)
        assert rep.n_off_simplex == 0  # corners are on the simplex
        assert rep.after.R > 0.0

    def test_identity_holds_before_and_after(self, brier, rng):
        pairs = overconfident_pairs(rng, 500)
        rep = recalibration_report(pairs, fit_map(pairs, brier), brier, nbins=11)
        assert rep.before.identity_gap() <= 1e-10
        assert rep.after.identity_gap() <= 1e-10


def project_reference(v):
    """The array projection with np.sort and np.cumsum: the reference
    for the float projection."""
    with np.errstate(all="ignore"):  # inf and NaN inputs
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        rho = 0
        for j in range(3):
            if u[j] + (1.0 - css[j]) / (j + 1) > 0.0:
                rho = j
        lam = (1.0 - css[rho]) / (rho + 1)
        w = np.maximum(v + lam, 0.0)
    return (float(w[0]), float(w[1]), float(w[2]))


def apply_map_reference(mapping, p, clip=False):
    """The map with the coefficients converted and sliced per call and
    the array projection: the reference for apply_map."""
    f = np.array([1.0, p.pB, p.pA, p.pB * p.pB, p.pB * p.pA, p.pA * p.pA])
    c = np.asarray(mapping.coeffs)
    tB = float(f @ c[:6])
    tA = float(f @ c[6:])
    tN = 1.0 - tB - tA
    on_simplex = tB >= NEGATIVE_TOLERANCE and tN >= NEGATIVE_TOLERANCE and tA >= NEGATIVE_TOLERANCE
    if clip and not on_simplex and all(map(math.isfinite, (tB, tN, tA))):
        tB, tN, tA = project_reference(np.array([tB, tN, tA]))
    return AffineTernary(tB, tN, tA, on_simplex)


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


# few distinct values, so that mapped components tie or are exactly zero
_POOL = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 2.0, 1 / 3)
_pooled = st.one_of(st.sampled_from(_POOL), st.floats(-2.0, 2.0))


@st.composite
def _forecasts(draw):
    """Simplex points: corners, edge midpoints with signed zeros, or random."""
    pick = draw(st.sampled_from(["pool", "random"]))
    if pick == "pool":
        return TernaryProb(*draw(st.sampled_from([
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.0, 0.5),
            (0.5, -0.0, 0.5), (-0.0, 0.5, 0.5), (0.25, 0.5, 0.25), (1 / 3, 1 / 3, 1 / 3)])))
    a = draw(st.floats(0.0, 1.0))
    b = draw(st.floats(0.0, 1.0 - a))
    return make_ternary(a, b, max(0.0, 1.0 - a - b))


class TestFloatKernelsMatchReference:
    @settings(max_examples=1500, deadline=None)
    @given(st.lists(_pooled, min_size=12, max_size=12), _forecasts(), st.booleans())
    def test_apply_map(self, coeffs, p, clip):
        mapping = QuadraticMap(tuple(coeffs))
        got, want = apply_map(mapping, p, clip=clip), apply_map_reference(mapping, p, clip=clip)
        assert got.on_simplex == want.on_simplex
        assert _bits(got.as_array()) == _bits(want.as_array())

    @settings(max_examples=1500, deadline=None)
    @given(st.one_of(
        st.lists(st.one_of(
            st.sampled_from(_POOL + (math.inf, -math.inf, math.nan, 1e308)),
            st.floats(-3.0, 3.0), st.floats(allow_nan=False)), min_size=3, max_size=3),
        # a simplex point moved a little, as off-simplex mapped forecasts are
        st.builds(lambda p, shift, noise: [x + shift + e for x, e in zip(p.as_tuple(), noise)],
                  _forecasts(), st.floats(-0.1, 0.1),
                  st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))))
    def test_project_to_simplex(self, v):
        v = np.array(v)
        assert _bits(project_to_simplex(v)) == _bits(project_reference(v))

    @pytest.mark.parametrize("v", [
        (0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (1.0, 1.0, -1.0),
        (2.0, -1.0, 0.0), (math.inf, -math.inf, 1.0), (-math.inf, math.inf, 1.0),
        (1.0, -math.inf, math.inf), (math.nan, 0.2, 0.8), (0.2, 0.8, math.nan),
        (1e308, 1e308, -1e308), (-0.0, -0.0, -0.0),
        # the shift test of rho = 2, then of rho = 1, is exactly zero
        (0.9289237831317347, 0.5609956869618402, 0.2449597350467875),
        (2.9120685437784988, 1.9120685437784983, 0.32695848188308907),
        (1.8897083774517072, 0.8897083774517069, -0.6244629616909407),
    ])
    def test_project_to_simplex_fixed_cases(self, v):
        v = np.array(v)
        assert _bits(project_to_simplex(v)) == _bits(project_reference(v))
