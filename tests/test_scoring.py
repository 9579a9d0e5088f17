import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscore import (
    BaryPoint,
    ObsCategory,
    TernaryProb,
    UNIFORM,
    brier_rule,
    custom_rule,
    from_bary,
    make_ternary,
    rps_rule,
    score,
    to_bary,
    uncertainty,
)
from triscore import scoring
from triscore.errors import DegenerateTriangle, NegativeProbability, NotPositiveDefinite
from triscore.scoring import unit_map

from conftest import random_pd_rules, random_simplex, simplex_grid

O_B = ObsCategory.B.to_ternary()
O_N = ObsCategory.N.to_ternary()
O_A = ObsCategory.A.to_ternary()


class TestBrierRule:
    def test_unit_sides(self, brier):
        assert brier.sides == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_mhat_matches_closed_form(self, brier):
        expected = np.array([[0.0, 0.5, 1.0], [0.0, math.sqrt(3) / 2, 0.0]])
        assert np.allclose(brier.Mhat, expected, atol=1e-12)

    def test_corner_n_maps_to_apex(self, brier):
        b = to_bary(brier, O_N)
        assert (b.x, b.y) == pytest.approx((0.5, math.sqrt(3) / 2), abs=1e-12)

    def test_uncertainty_maximiser(self, brier):
        assert brier.q0 == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)
        assert brier.U0 == pytest.approx(1 / 3, abs=1e-12)
        assert math.sqrt(brier.U0) == pytest.approx(0.577, abs=5e-4)


class TestRpsRule:
    def test_right_triangle_sides(self, rps):
        b, n, a = rps.sides
        assert b == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert a == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert n == pytest.approx(1.0, abs=1e-12)

    def test_corner_score(self, rps):
        # oracle: cumulative-squared-error form on the corners:
        # 0.5 * [(1-0)^2 + (1-0)^2] = 1
        assert score(rps, O_B, O_A) == pytest.approx(1.0, abs=1e-12)

    def test_maximiser_against_grid_search(self, rps):
        # oracle: grid search of U(q) over the simplex at step 1e-3
        n = 1000
        best_u, best_q = -1.0, None
        i = np.arange(n + 1)
        for k in i:
            qB = k / n
            qN = np.arange(n + 1 - k) / n
            qA = 1.0 - qB - qN
            q = np.stack([np.full_like(qN, qB), qN, qA], axis=1)
            v = np.diag(rps.LtL)
            u = q @ v - np.einsum("ij,jk,ik->i", q, rps.LtL, q)
            j = int(np.argmax(u))
            if u[j] > best_u:
                best_u, best_q = float(u[j]), q[j]
        assert best_q == pytest.approx(rps.q0, abs=1e-3)
        assert best_u == pytest.approx(rps.U0, abs=1e-5)
        assert rps.q0 == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
        assert rps.U0 == pytest.approx(0.25, abs=1e-12)


class TestCustomRule:
    def test_identity_scaled_equals_brier(self, brier):
        rule = custom_rule(np.eye(3) / math.sqrt(2))
        assert np.allclose(rule.Mhat, brier.Mhat, atol=1e-14)
        assert rule.sides == pytest.approx(brier.sides, abs=1e-14)

    def test_uniform_scaling(self, brier, rng):
        rule = custom_rule(2 * np.eye(3) / math.sqrt(2))
        assert rule.sides == pytest.approx((2.0, 2.0, 2.0), abs=1e-12)
        for a, b in zip(random_simplex(rng, 20), random_simplex(rng, 20)):
            p, o = make_ternary(*a), make_ternary(*b)
            assert score(rule, p, o) == pytest.approx(4 * score(brier, p, o), rel=1e-12)

    def test_singular_matrix_rejected(self):
        L = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NotPositiveDefinite):
            custom_rule(L)
        with pytest.raises(NotPositiveDefinite, match="finite"):
            custom_rule(np.diag([1.0, 1.0, math.inf]))
        with pytest.raises(AttributeError, match="immutable"):
            custom_rule(np.eye(3)).L = L

    def test_near_degenerate_triangle_rejected(self):
        # nearly rank-2 L'L: its smallest eigenvalue, 1e-14, is below the
        # floor, so this stops there; either error is acceptable here
        L = np.diag([1.0, 1.0, 1e-7])
        with pytest.raises((DegenerateTriangle, NotPositiveDefinite)):
            custom_rule(L)

    def test_collinear_triangle_rejected(self):
        # L'L clears the eigenvalue floor, so only the triangle check can
        # reject this rule: its sides (1e6, 1e6, 2e6) are collinear
        L = np.array([[1e6, -1e6, 0.0], [0.0, 1e-5, -1e-5], [1.0, 1.0, 1.0]])
        assert np.linalg.eigvalsh(L.T @ L).min() > 100 * scoring._EIGEN_FLOOR
        b, n, a = (np.linalg.norm(L @ d) for d in np.eye(3)[[1, 2, 0]] - np.eye(3)[[2, 0, 1]])
        assert a == pytest.approx(b + n, rel=1e-12)
        with pytest.raises(DegenerateTriangle, match="collinear"):
            custom_rule(L)


class TestUnitMap:
    def test_brier_is_the_equilateral_literal(self, brier):
        # element for element, bit for bit: Brier figures keep their bytes
        want = [[0.0, 0.5, 1.0], [0.0, math.sqrt(3.0) / 2.0, 0.0]]
        assert unit_map(brier).tolist() == want

    def test_bounding_box_is_one_unit_wide(self, rps, rng):
        for rule in [rps, *random_pd_rules(rng, 20)]:
            M = unit_map(rule)
            assert M[0].max() - M[0].min() == pytest.approx(1.0, rel=1e-15)
            assert np.allclose(M * (rule.Mhat[0, 2] / M[0, 2]), rule.Mhat, rtol=1e-14, atol=0)


class TestScore:
    def test_zero_iff_equal(self, brier, rng):
        for row in random_simplex(rng, 50):
            p = make_ternary(*row)
            assert score(brier, p, p) == 0.0

    def test_brier_hand_value(self, brier):
        # oracle: 0.5 * (0.25 + 0.49 + 0.04)
        p = make_ternary(0.5, 0.3, 0.2)
        assert score(brier, p, O_N) == pytest.approx(0.39, abs=1e-12)

    def test_rps_hand_value(self, rps):
        # oracle: 0.5 * (0.5^2 + (0.8 - 1)^2)
        p = make_ternary(0.5, 0.3, 0.2)
        assert score(rps, p, O_N) == pytest.approx(0.145, abs=1e-12)


def score_reference(rule, p, o):
    """The quadratic form in numpy: the reference for score."""
    d = p.as_array() - o.as_array()
    return max(0.0, float(d @ rule.LtL @ d))


_simplex_points = st.builds(
    lambda w: TernaryProb(*(np.array(w) / sum(w)).tolist()),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0.0))


class TestScoreMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1), _simplex_points,
           st.one_of(_simplex_points, st.sampled_from([O_B, O_N, O_A])))
    def test_float_form(self, seed, p, o):
        rules = [brier_rule(), rps_rule(), *random_pd_rules(np.random.default_rng(seed), 2)]
        d = np.abs(p.as_array() - o.as_array())
        for rule in rules:
            # 1e-15, or relative to the size of the terms where they are
            # larger than one, as a random rule's can be
            tol = 1e-15 * max(1.0, float(d @ np.abs(rule.LtL) @ d))
            assert abs(score(rule, p, o) - score_reference(rule, p, o)) <= tol


class TestBaryMaps:
    def test_corner_b_at_origin(self, brier):
        assert to_bary(brier, O_B).as_array() == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_matrix_multiply_oracle(self, brier):
        # oracle: multiply by the closed-form equilateral matrix directly
        M = np.array([[0.0, 0.5, 1.0], [0.0, math.sqrt(3) / 2, 0.0]])
        p = make_ternary(0.5, 0.3, 0.2)
        expected = M @ p.as_array()
        got = to_bary(brier, p)
        assert (got.x, got.y) == pytest.approx(tuple(expected), abs=1e-14)
        assert (got.x, got.y) == pytest.approx((0.35, 0.15 * math.sqrt(3)), abs=1e-12)

    def test_centroid(self, brier):
        b = to_bary(brier, UNIFORM)
        assert (b.x, b.y) == pytest.approx((0.5, math.sqrt(3) / 6), abs=1e-12)

    def test_from_bary_corner(self, brier):
        res = from_bary(brier, BaryPoint(0.0, 0.0))
        assert res.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert res.on_simplex

    def test_from_bary_roundtrip_value(self, brier):
        res = from_bary(brier, BaryPoint(0.35, 0.15 * math.sqrt(3)))
        assert res.as_array() == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)

    def test_from_bary_outside(self, brier):
        res = from_bary(brier, BaryPoint(2.0, 0.0))
        assert not res.on_simplex
        assert min(res.as_array()) < 0
        assert res.as_array().sum() == pytest.approx(1.0, abs=1e-12)

    def test_just_across_an_edge_is_off_simplex(self, brier):
        v = np.array([-5e-10, 0.5 + 5e-10, 0.5])
        res = from_bary(brier, BaryPoint(*(brier.Mhat @ v)))
        assert not res.on_simplex
        with pytest.raises(NegativeProbability):
            res.to_ternary()

    def test_flag_agrees_with_to_ternary_near_edges(self, brier, rps, rng):
        for rule in [brier, rps, *random_pd_rules(rng, 3)]:
            for _ in range(300):
                edge = int(rng.integers(3))
                v = rng.dirichlet((1.0, 1.0, 1.0))
                v[edge] = 0.0
                v /= v.sum()
                delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14, -8)
                v[edge] += delta
                v[(edge + 1) % 3] -= delta
                res = from_bary(rule, BaryPoint(*(rule.Mhat @ v)))
                try:
                    res.to_ternary()
                    accepted = True
                except NegativeProbability:
                    accepted = False
                assert res.on_simplex == accepted

    def test_roundtrip_all_rules(self, brier, rps, rng):
        for rule in [brier, rps, *random_pd_rules(rng, 3)]:
            for row in random_simplex(rng, 200):
                p = make_ternary(*row)
                back = from_bary(rule, to_bary(rule, p))
                assert back.as_array() == pytest.approx(p.as_array(), abs=1e-12)


class TestIsometry:
    def test_score_is_squared_distance(self, brier, rps, rng):
        for rule in [brier, rps, *random_pd_rules(rng, 5)]:
            P = random_simplex(rng, 2000)
            O = random_simplex(rng, 2000)
            d = P - O
            scores = np.einsum("ij,jk,ik->i", d, rule.LtL, d)
            proj = d @ rule.Mhat.T
            dists = np.einsum("ij,ij->i", proj, proj)
            assert np.max(np.abs(scores - dists)) <= 1e-12

    def test_cosine_rule_corner_distances(self, brier, rps, rng):
        for rule in [brier, rps, *random_pd_rules(rng, 5)]:
            cb, cn, ca = (rule.Mhat[:, i] for i in range(3))
            assert np.linalg.norm(cn - ca) == pytest.approx(rule.b, abs=1e-12)
            assert np.linalg.norm(ca - cb) == pytest.approx(rule.n, abs=1e-12)
            assert np.linalg.norm(cb - cn) == pytest.approx(rule.a, abs=1e-12)


class TestUncertainty:
    def test_brier_uniform(self, brier):
        assert uncertainty(brier, UNIFORM) == pytest.approx(1 / 3, abs=1e-12)

    def test_rps_uniform_closed_form(self, rps):
        # oracle: 0.5 * (qB(1-qB) + qA(1-qA)) at qB = qA = 1/3
        assert uncertainty(rps, UNIFORM) == pytest.approx(2 / 9, abs=1e-12)

    def test_corner_has_no_uncertainty(self, brier):
        assert uncertainty(brier, O_B) == 0.0

    def test_closed_forms_on_grid(self, brier, rps):
        for q in simplex_grid(50):
            qv = q.as_array()
            want_brier = 0.5 * (1.0 - qv @ qv)
            want_rps = 0.5 * (qv[0] * (1 - qv[0]) + qv[2] * (1 - qv[2]))
            assert abs(uncertainty(brier, q) - want_brier) <= 1e-12
            assert abs(uncertainty(rps, q) - want_rps) <= 1e-12

    def test_reduction_identity(self, brier, rps, rng):
        for rule in [brier, rps, *random_pd_rules(rng, 3)]:
            for q in simplex_grid(25):
                du = rule.Mhat @ (q.as_array() - rule.q0)
                assert abs(uncertainty(rule, q) - (rule.U0 - du @ du)) <= 1e-12
