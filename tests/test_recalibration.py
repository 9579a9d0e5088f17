import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from triscore import (
    ForecastObsPair,
    ObsCategory,
    QuadraticMap,
    apply_map,
    bin_forecasts,
    brier_rule,
    decompose,
    fit_map,
    make_ternary,
    mean_score_of_map,
    recalibration_report,
    rps_rule,
    score,
)
from triscore.errors import DomainError
from triscore.scoring import AffineTernary, ScoringRule
from triscore.simplex import NEGATIVE_TOLERANCE, TernaryProb
from triscore.recalibration import (
    _J,
    _clip,
    _features,
    _mean_score,
    _regression,
    map_forecasts,
)
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


def underconfident_pairs(rng, n):
    """Forecasts 0.35 truth + 0.65 / 3 of a Dirichlet(0.6, 0.6, 0.6) truth,
    whose fitted map sends some of them off the simplex."""
    truth = rng.dirichlet((0.6, 0.6, 0.6), n)
    return [ForecastObsPair(make_ternary(*(0.35 * t + 0.65 / 3)), CATS[rng.choice(3, p=t)])
            for t in truth]


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
        with pytest.raises(DomainError, match=r"^a quadratic map needs 12 finite coefficients$"):
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
        (clipped,), n_off = map_forecasts(overshoot, [p], clip=brier_rule())
        assert n_off == 1  # the count is of the unclipped values
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
            got = apply_map(huge, make_ternary(*p))
            want, _ = apply_map_reference(huge, make_ternary(*p))
        assert not all(map(math.isfinite, got.as_array()))
        assert _bits(got.as_array()) == _bits(want.as_array())
        # map_forecasts names the unclipped value, as to_ternary does
        with pytest.raises(DomainError, match=r"^p[BNA] is not finite: ") as unclipped:
            got.to_ternary()
        with pytest.raises(DomainError, match=r"^records\[0\]: ") as clipped:
            map_forecasts(huge, [make_ternary(*p)], clip=brier_rule())
        assert str(clipped.value) == f"records[0]: {unclipped.value}"


class TestMapForecasts:
    """map_forecasts is apply_map at each forecast, clipped as the Brier
    projection clips, with the off-simplex count and the location of the
    first forecast that fails."""

    MAPS = {
        "identity": QuadraticMap.identity().coeffs,
        "shrink": (1 / 6, 0.5, 0.0, 0, 0, 0, 1 / 6, 0.0, 0.5, 0, 0, 0),
        "overshoot": (-0.2, 1.2, 0.0, 0, 0, 0, 0.0, 0.0, 1.0, 0, 0, 0),
    }

    @pytest.mark.parametrize("clip", [None, brier_rule()], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("name", list(MAPS))
    def test_is_apply_map_at_each_forecast(self, rng, name, clip):
        m = QuadraticMap(self.MAPS[name])
        ps = [make_ternary(*row) for row in rng.dirichlet((1, 1, 1), 300)]
        off = [not apply_map(m, p).on_simplex for p in ps]
        assert any(off) == (name == "overshoot")
        if clip is not None or not any(off):
            got, n_off = map_forecasts(m, ps, clip=clip)
            assert n_off == sum(off)
            for x, p, is_off in zip(got, ps, off):
                res = apply_map(m, p)
                if not is_off:  # bit for bit
                    assert repr(x) == repr(res.to_ternary())
                else:
                    want = project_reference(res.as_array())
                    assert np.abs(x.as_array() - want).max() <= 4.5e-16
        else:
            k = off.index(True)
            assert k > 0  # so that records[0] would not pass
            with pytest.raises(DomainError) as raised:
                map_forecasts(m, ps)
            with pytest.raises(type(raised.value)) as want:
                apply_map(m, ps[k]).to_ternary()
            assert str(raised.value) == f"records[{k}]: {want.value}"

    def test_report_names_an_overflowing_map(self, brier):
        # the map's terms overflow: a domain error, not numpy's RuntimeWarning
        pairs = [ForecastObsPair(make_ternary(0.2, 0.3, 0.5), B)]
        with pytest.raises(DomainError, match=r"^records\[0\]: pB is not finite: inf$"):
            recalibration_report(pairs, QuadraticMap((1e308,) * 12), brier)


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

    def test_float_level_tie_returns_the_identity(self, brier, rps):
        # the identity scores exactly 0 here; the least-squares solution
        # reproduces it only up to rounding (a mean score near 1e-31), so
        # the tie goes to the identity itself
        pairs = [ForecastObsPair(c.to_ternary(), c) for c in (B, N, A, B, A)]
        for rule in (brier, rps):
            m = fit_map(pairs, rule)
            assert m == QuadraticMap.identity()
            assert mean_score_of_map(pairs, m, rule) == 0.0

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
        with pytest.raises(DomainError, match=r"^no pairs to fit a recalibration map on$"):
            fit_map([], brier)
        with pytest.raises(DomainError, match=r"^no pairs to score$"):
            mean_score_of_map([], QuadraticMap.identity(), brier)
        with pytest.raises(DomainError, match=r"^no pairs to report on$"):
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

    def test_clips_in_the_rule_triangle(self, brier, rps):
        """The report bins the mapped forecasts as map_forecasts clips them
        in the report's own rule's triangle, not in Brier's."""
        pairs = underconfident_pairs(np.random.default_rng(2), 500)
        m = fit_map(pairs, rps)

        def after(clip):
            mapped, _ = map_forecasts(m, [p.forecast for p in pairs], clip=clip)
            return decompose(rps, bin_forecasts(
                [ForecastObsPair(f, p.obs) for f, p in zip(mapped, pairs)], 11))

        rep = recalibration_report(pairs, m, rps, nbins=11)
        assert rep.n_off_simplex > 0
        assert rep.after == after(rps) != after(brier)

    def test_identity_holds_before_and_after(self, brier, rng):
        pairs = overconfident_pairs(rng, 500)
        rep = recalibration_report(pairs, fit_map(pairs, brier), brier, nbins=11)
        assert rep.before.identity_gap() <= 1e-10
        assert rep.after.identity_gap() <= 1e-10


def project_reference(v):
    """The Euclidean projection onto the simplex (Duchi et al. 2008) with
    np.sort and np.cumsum: the reference for the clip in Brier's
    triangle, whose metric is Euclidean up to a factor."""
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


def apply_map_reference(mapping, p):
    """The map with the coefficients converted and sliced per call, and
    whether no component is below NEGATIVE_TOLERANCE: the reference for
    apply_map and its on_simplex."""
    f = np.array([1.0, p.pB, p.pA, p.pB * p.pB, p.pB * p.pA, p.pA * p.pA])
    c = np.asarray(mapping.coeffs)
    tB = float(f @ c[:6])
    tA = float(f @ c[6:])
    tN = 1.0 - tB - tA
    on_simplex = tB >= NEGATIVE_TOLERANCE and tN >= NEGATIVE_TOLERANCE and tA >= NEGATIVE_TOLERANCE
    return AffineTernary(tB, tN, tA), on_simplex


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


def _sum_one(b, a):
    """The vector (b, 1 - b - a, a), summing to one as a mapped forecast does."""
    return np.array([b, 1.0 - b - a, a])


# (pB~, pA~) of vectors off the simplex: past each corner, past each edge,
# as far past B as past A, just past NEGATIVE_TOLERANCE, on an edge's
# extension and far out, and two former fixed cases of the Euclidean
# projection moved along (1, 1, 1) onto the sum-one plane
_OFF_SIMPLEX = [
    (1.5, -0.25), (-0.25, -0.25), (-0.25, 1.5),
    (0.6, -0.2), (0.6, 0.6), (-0.2, 0.6), (2.0, 2.0),
    (0.5, -2e-12), (1.2, -0.2), (2.0, 0.0), (1.0, -1.0), (-2.0, 1.5), (3.0, -1.0), (1e6, -1e6),
    (1.5283700206318034, -1.0567400412636063), (1.5047237797142161, -1.0094475594284318),
]
_off_simplex = st.one_of(
    st.sampled_from(_OFF_SIMPLEX),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    # a simplex point moved a little, as off-simplex mapped forecasts are
    st.builds(lambda p, e: (p.pB + e[0], p.pA + e[1]),
              _forecasts(), st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))),
).map(lambda ba: _sum_one(*ba)).filter(lambda v: v.min() < NEGATIVE_TOLERANCE)


class TestFloatKernelsMatchReference:
    @settings(max_examples=1500, deadline=None)
    @given(st.lists(_pooled, min_size=12, max_size=12), _forecasts())
    def test_apply_map(self, coeffs, p):
        mapping = QuadraticMap(tuple(coeffs))
        got, (want, on_simplex) = apply_map(mapping, p), apply_map_reference(mapping, p)
        assert got.on_simplex == on_simplex
        assert _bits(got.as_array()) == _bits(want.as_array())

    # the clip in Brier's triangle is the Euclidean projection, to the rounding
    # of its other formula.  300 examples of up to 16 rows clip about 2 500
    # vectors; this test and test_clip_lowers_every_score together take less
    # time than the bit-exact test of the float projection took for its
    # 1 500 single vectors
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_off_simplex, min_size=1, max_size=16))
    # 5e-13 from corner A: comparing squared distances, which round to a tie
    # there, picked the corner itself
    @example([_sum_one(0.03125, 1.031249999999)])
    def test_project_to_simplex(self, vs):
        V = np.array(vs)
        want = np.array([project_reference(v) for v in V])
        assert np.abs(_clip(brier_rule(), V) - want).max() <= 4.5e-16

    @pytest.mark.parametrize("v", _OFF_SIMPLEX)
    def test_project_to_simplex_fixed_cases(self, v):
        V = _sum_one(*v)[None, :]
        assert V.min() < NEGATIVE_TOLERANCE
        assert np.abs(_clip(brier_rule(), V)[0] - project_reference(V[0])).max() <= 4.5e-16
        for rule in (brier_rule(), rps_rule()):
            assert_clip_properties(rule, V)


def assert_clip_properties(rule, V):
    """Each clipped row is a TernaryProb as it stands, scores no more than
    its unclipped row against every outcome (to 1e-15 of the larger of the
    score and 1), and is passed through by a second clip."""
    X = _clip(rule, V)
    for x, v in zip(X.tolist(), V.tolist()):
        assert make_ternary(*x).as_tuple() == tuple(x)
        assert not any(math.copysign(1.0, c) < 0 for c in x)  # no -0.0
        for o in CATS:
            unclipped = score(rule, AffineTernary(*v), o.to_ternary())
            clipped = score(rule, TernaryProb(*x), o.to_ternary())
            assert clipped <= unclipped + 1e-15 * max(1.0, unclipped)
    # map_forecasts clips only the rows below NEGATIVE_TOLERANCE
    assert X.min() >= 0.0


_rules = st.one_of(
    st.sampled_from([brier_rule(), rps_rule()]),
    st.integers(0, 2**32 - 1).map(lambda seed: random_pd_rules(np.random.default_rng(seed), 1)[0]),
)


class TestClip:
    """The clip moves an off-simplex vector to the nearest point of the
    rule's own triangle, so it lowers its score against every outcome."""

    # 300 examples of up to 16 rows, about 2 500 in all: about 75 examples
    # each for Brier and RPS and 150 for random rules
    @settings(max_examples=300, deadline=None)
    @given(_rules, st.lists(_off_simplex, min_size=1, max_size=16))
    def test_clip_lowers_every_score(self, rule, vs):
        assert_clip_properties(rule, np.array(vs))

    def test_rps_clip_where_the_euclidean_projection_fails(self, rps):
        """Under-confident forecasts under the fitted map: the Euclidean
        projection raises the RPS score of some clipped forecasts against
        some outcome; the clip in RPS's triangle raises none."""
        pairs = underconfident_pairs(np.random.default_rng(2), 500)
        m = fit_map(pairs, rps)
        mapped = [apply_map(m, p.forecast) for p in pairs]
        V = np.array([res.as_array() for res in mapped if not res.on_simplex])
        assert len(V) > 0

        def n_raised(W):
            return sum(any(score(rps, TernaryProb(*w), o.to_ternary())
                           > score(rps, AffineTernary(*v), o.to_ternary()) + 1e-15
                           for o in CATS) for w, v in zip(W.tolist(), V.tolist()))

        assert n_raised(np.array([project_reference(v) for v in V])) > 0
        assert n_raised(_clip(rps, V)) == 0
