import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscore import (
    ColorHSV,
    LegacyRegion,
    ObsCategory,
    PaletteParams,
    UNIFORM,
    assign_color,
    dominant_category,
    hex_colors,
    hsv_to_rgb,
    information_gain,
    legacy_region,
    make_ternary,
)
from triscore.colors import _hue_saturation
from triscore.errors import DomainError

from conftest import simplex_grid

B, N, A = (c.to_ternary() for c in ObsCategory)
TWO_PI = 2.0 * math.pi
NON_POSITIVE_Q = r"^climatology \(0\.5, 0\.5, 0\.0\) has a non-positive component$"
TINY_Q = r"^climatology \(5e-324, 0\.5, 0\.5\) has a component too small to invert$"


class TestInformationGain:
    def test_zero_at_climatology_exactly(self):
        for q in (UNIFORM, make_ternary(0.25, 0.5, 0.25), make_ternary(0.1, 0.2, 0.7)):
            assert information_gain(q, q) == 0.0

    def test_one_at_corner_exactly(self):
        for corner in (B, N, A):
            assert information_gain(corner, UNIFORM) == 1.0

    def test_one_only_at_least_likely_corner(self):
        q = make_ternary(0.2, 0.3, 0.5)
        assert information_gain(B, q) == 1.0
        assert information_gain(N, q) < 1.0
        assert information_gain(A, q) < 1.0

    def test_direct_evaluation(self):
        # oracle: direct evaluation of the scaled divergence
        p = make_ternary(0.5, 0.3, 0.2)
        want = (
            0.5 * math.log(1.5) + 0.3 * math.log(0.9) + 0.2 * math.log(0.6)
        ) / math.log(3.0)
        got = information_gain(p, UNIFORM)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.0627694, abs=1e-7)

    def test_bounded_on_grid(self):
        for q in (UNIFORM, make_ternary(0.25, 0.5, 0.25)):
            for p in simplex_grid(100):
                e = information_gain(p, q)
                assert 0.0 <= e <= 1.0

    def test_rejects_degenerate_climatology(self):
        with pytest.raises(DomainError, match=NON_POSITIVE_Q):
            information_gain(UNIFORM, make_ternary(0.5, 0.5, 0.0))
        # 1 / 5e-324 overflows
        with pytest.raises(DomainError, match=TINY_Q):
            information_gain(UNIFORM, make_ternary(5e-324, 0.5, 0.5))


class TestDominantCategory:
    def test_reference_ray_points_at_b(self):
        assert dominant_category(B, UNIFORM) == 0.0

    def test_clockwise_corner_angles(self):
        # oracle: threefold symmetry of the centroid-corner rays, taken
        # clockwise in the order B, N, A
        assert dominant_category(N, UNIFORM) == pytest.approx(TWO_PI / 3, abs=1e-12)
        assert dominant_category(A, UNIFORM) == pytest.approx(2 * TWO_PI / 3, abs=1e-12)

    def test_degenerate_at_climatology(self):
        assert dominant_category(UNIFORM, UNIFORM) == 0.0

    def test_angle_range(self, rng):
        for row in rng.dirichlet((1, 1, 1), 300):
            theta = dominant_category(make_ternary(*row), UNIFORM)
            assert 0.0 <= theta < TWO_PI


class TestAssignColor:
    def test_climatology_is_white(self):
        c = assign_color(UNIFORM, UNIFORM)
        assert c.saturation == 0.0
        assert c.value == 1.0
        rgb = hsv_to_rgb(c)
        assert (rgb.r, rgb.g, rgb.b) == (1.0, 1.0, 1.0)

    def test_corner_b_is_strong_red(self):
        c = assign_color(B, UNIFORM)
        assert c.hue == 0.0
        assert c.saturation == 1.0
        rgb = hsv_to_rgb(c)
        assert (rgb.r, rgb.g, rgb.b) == (1.0, 0.0, 0.0)

    def test_above_heavy_forecast_is_blue(self):
        # oracle: angle lands exactly on the 2/3 anchor; gain evaluates
        # to 0.6410038 by direct computation of the scaled divergence
        p = make_ternary(0.05, 0.05, 0.90)
        c = assign_color(p, UNIFORM)
        assert c.hue == pytest.approx(2 / 3, abs=1e-9)
        gain = (2 * 0.05 * math.log(0.15) + 0.9 * math.log(2.7)) / math.log(3.0)
        assert c.saturation == pytest.approx(gain**0.7, abs=1e-12)
        assert c.saturation == pytest.approx(0.7324912, abs=1e-7)

    def test_saturation_monotone_in_gain(self):
        params = PaletteParams()
        sats = []
        for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
            p = make_ternary(
                (1 - lam) / 3 + lam, (1 - lam) / 3, (1 - lam) / 3
            )
            sats.append(assign_color(p, UNIFORM, params).saturation)
        assert sats == sorted(sats)

    def test_theta0_rotation_permutes_corner_hues(self):
        base = PaletteParams()
        rotated = PaletteParams(theta0=TWO_PI / 3)
        base_hues = [assign_color(c, UNIFORM, base).hue for c in (B, N, A)]
        rot_hues = [assign_color(c, UNIFORM, rotated).hue for c in (B, N, A)]
        # rotating by one corner step: B takes A's hue, N takes B's, A takes N's
        assert rot_hues[0] == pytest.approx(base_hues[2], abs=1e-9)
        assert rot_hues[1] == pytest.approx(base_hues[0], abs=1e-9)
        assert rot_hues[2] == pytest.approx(base_hues[1], abs=1e-9)


class TestPaletteParams:
    def test_defaults(self):
        params = PaletteParams()
        assert params.m == 0.7
        assert params.theta0 == 0.0
        assert params.hue_at(0.0) == 0.0
        assert params.hue_at(1 / 3) == pytest.approx(1 / 6, abs=1e-12)
        assert params.hue_at(2 / 3) == pytest.approx(2 / 3, abs=1e-12)

    def test_green_band_is_compressed(self):
        # hues 0.26..0.55 (green/cyan) occupy only 4% of the angle range
        params = PaletteParams()
        assert params.hue_at(0.48) == pytest.approx(0.26, abs=1e-12)
        assert params.hue_at(0.52) == pytest.approx(0.55, abs=1e-12)

    def test_rejects_bad_anchor_tables(self):
        ends = "hue anchors must start at t=0 and end at t=1"
        increasing = "hue anchor positions must be strictly increasing"
        modulo = "hue at t=1 must equal hue at t=0 modulo 1"
        finite = "hue anchors must be finite"
        apart = "neighbouring hue anchors must be a finite distance apart"
        for table, message in ((((0.1, 0.0), (1.0, 1.0)), ends),
                               (((0.0, 0.0), (0.5, 0.2), (0.5, 0.3), (1.0, 1.0)), increasing),
                               (((0.0, 0.0), (1.0, 0.5)), modulo),
                               (((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)), finite),
                               (((0.0, 0.0), (0.5, math.inf), (1.0, 1.0)), finite),
                               (((0.0, -1e308), (1.0, 1e308)), modulo),
                               (((0.0, 0.0), (0.4, -1e308), (0.7, 1e308), (1.0, 1.0)), apart)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                PaletteParams(hue_anchors=table)
        with pytest.raises(DomainError,
                           match=r"^saturation exponent m = 0\.0 must be finite and > 0$"):
            PaletteParams(m=0.0)

    def test_hues_a_finite_distance_apart_give_numbers(self):
        # the anchor rule rejects -1e308 next to 1e308, whose distance
        # overflows; hues as far apart as floats allow still interpolate
        params = PaletteParams(hue_anchors=((0.0, 0.0), (0.5, 1e308), (1.0, 1.0)))
        F = np.array([p.as_tuple() for p in simplex_grid(10)])
        hue = _hue_saturation(F, UNIFORM, params)[0]
        assert np.all((0.0 <= hue) & (hue <= 1.0))
        assert len(hex_colors(F, UNIFORM, params)) == len(F)

    @pytest.mark.parametrize("first", [0.4, 0.9, 0.15, 0.3])
    def test_accepts_last_hue_one_turn_on(self, first):
        # first + 1 - first is 0.9999999999999999 for the first three
        anchors = ((0.0, first), (1.0, first + 1.0))
        assert PaletteParams(hue_anchors=anchors).hue_anchors == anchors

    @pytest.mark.parametrize("kw", [
        {"m": math.inf}, {"m": math.nan}, {"theta0": math.nan}, {"theta0": -math.inf},
    ], ids=["m-inf", "m-nan", "theta0-nan", "theta0-inf"])
    def test_rejects_non_finite_parameters(self, kw):
        [(name, v)] = kw.items()
        message = (f"saturation exponent m = {v} must be finite and > 0" if name == "m"
                   else f"palette rotation theta0 = {v} must be finite")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            PaletteParams(**kw)


class TestHsvToRgb:
    def test_primaries(self):
        red = hsv_to_rgb(ColorHSV(0.0, 1.0, 1.0))
        assert (red.r, red.g, red.b) == (1.0, 0.0, 0.0)
        green = hsv_to_rgb(ColorHSV(1 / 3, 1.0, 1.0))
        assert (green.r, green.g, green.b) == (0.0, 1.0, 0.0)

    def test_white_axis(self):
        for hue in (0.0, 0.3, 0.9):
            rgb = hsv_to_rgb(ColorHSV(hue, 0.0, 1.0))
            assert (rgb.r, rgb.g, rgb.b) == (1.0, 1.0, 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError, match=r"^hue = 1\.5 outside \[0, 1\]$"):
            hsv_to_rgb(ColorHSV(1.5, 0.5, 0.5))
        with pytest.raises(DomainError, match=r"^saturation = -0\.1 outside \[0, 1\]$"):
            hsv_to_rgb(ColorHSV(0.5, -0.1, 0.5))

    def test_hex_rounds_half_up(self):
        from triscore import ColorRGB

        assert ColorRGB(0.5, 0.5, 0.5).to_hex() == "#808080"  # 127.5 -> 128
        assert ColorRGB(1.0, 0.0, 1.0).to_hex() == "#ff00ff"


class TestLegacyRegions:
    def test_hand_classified_examples(self):
        # oracle: evaluate the five predicates by hand
        assert legacy_region(make_ternary(0.5, 0.3, 0.2)) is LegacyRegion.DRY
        assert legacy_region(make_ternary(0.45, 0.10, 0.45)) is LegacyRegion.GAP
        assert legacy_region(make_ternary(0.2, 0.5, 0.3)) is LegacyRegion.NORMAL

    def test_wet_side(self):
        assert legacy_region(make_ternary(0.2, 0.3, 0.5)) is LegacyRegion.WET
        assert legacy_region(make_ternary(0.15, 0.42, 0.43)) is LegacyRegion.WET_OR_NORMAL

    def test_mutually_exclusive_on_grid(self):
        third, two_fifths = 1 / 3, 2 / 5
        for p in simplex_grid(100):
            pB, pN, pA = p.as_tuple()
            hits = [
                pB > two_fifths and pN < third and pA < third,
                (pB > third and pN > two_fifths) or (pB > two_fifths and pN > third),
                pB < third and pN > two_fifths and pA < third,
                (pN > third and pA > two_fifths) or (pN > two_fifths and pA > third),
                pB < third and pN < third and pA > two_fifths,
            ]
            assert sum(hits) <= 1
            if sum(hits) == 0:
                assert legacy_region(p) is LegacyRegion.GAP

    def test_gap_fills_triangle_base(self):
        # the central strip of the base, where B and A are both likely
        # but neither predicate fires, is entirely unclassified
        for pB100 in range(34, 41):
            for pA100 in range(34, 41):
                p = make_ternary(pB100 / 100, 1 - pB100 / 100 - pA100 / 100, pA100 / 100)
                assert legacy_region(p) is LegacyRegion.GAP


class TestIdentifiability:
    def test_hue_saturation_injective_on_grid(self):
        params = PaletteParams()
        seen = sorted(
            (assign_color(p, UNIFORM, params).hue, assign_color(p, UNIFORM, params).saturation)
            for p in simplex_grid(100)
        )
        # sliding window over hue: any two points within 1e-6 in hue must
        # be at least 1e-6 apart in saturation
        for i, (h, s) in enumerate(seen):
            j = i + 1
            while j < len(seen) and seen[j][0] - h < 1e-6:
                assert abs(seen[j][1] - s) >= 1e-6
                j += 1


_unit = st.floats(0.0, 1.0)
_positive_q = st.tuples(*[st.floats(1e-3, 1.0)] * 3).map(lambda w: make_ternary(*(x / sum(w) for x in w)))


def _lattice_point(n):
    return st.integers(0, n).flatmap(
        lambda i: st.integers(0, n - i).map(lambda j: (i / n, j / n, (n - i - j) / n))
    )


@st.composite
def _anchor_tables(draw):
    """Strictly increasing positions from 0 to 1; the last hue is the
    first one, or one more."""
    inner = sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=5))))
    first = draw(st.floats(0.0, 1.0, exclude_max=True))
    hues = draw(st.lists(_unit, min_size=len(inner), max_size=len(inner)))
    last = first + draw(st.sampled_from((0.0, 1.0)))
    return tuple(zip([0.0, *inner, 1.0], [first, *hues, last]))


@st.composite
def _coloring_cases(draw):
    """A climatology, palette parameters and forecasts including the
    climatology itself, corners, points with zero components and lattice
    points."""
    q = draw(st.one_of(st.just(UNIFORM), _positive_q))
    params = PaletteParams(
        m=draw(st.floats(0.05, 5.0)),
        theta0=draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0))),
        hue_anchors=draw(st.one_of(st.just(PaletteParams().hue_anchors), _anchor_tables())),
    )
    forecast = st.one_of(
        st.just(q.as_tuple()),
        st.sampled_from(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
        _unit.flatmap(lambda a: st.permutations((a, 1.0 - a, 0.0))).map(tuple),
        st.integers(1, 40).flatmap(_lattice_point),
        st.tuples(_unit, _unit, _unit).filter(lambda w: sum(w) > 0.0).map(
            lambda w: tuple(x / sum(w) for x in w)),
    )
    rows = draw(st.lists(forecast, min_size=1, max_size=40))
    return q, params, [make_ternary(*p) for p in rows]


class TestBatchColors:
    """hex_colors against the scalar colour functions, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_coloring_cases())
    def test_matches_scalar(self, case):
        q, params, forecasts = case
        F = np.array([p.as_tuple() for p in forecasts])
        hue, sat = _hue_saturation(F, q, params)
        want = [assign_color(p, q, params) for p in forecasts]
        assert hue.tolist() == [c.hue for c in want]
        assert sat.tolist() == [c.saturation for c in want]
        assert hex_colors(F, q, params) == [hsv_to_rgb(c).to_hex() for c in want]

    def test_grid_and_random_forecasts(self, rng):
        # enough random rows that a last-ulp difference in a log, atan2 or
        # pow would show in some saturation or hue
        forecasts = simplex_grid(60) + [make_ternary(*r) for r in rng.dirichlet((1, 1, 1), 20000)]
        F = np.array([p.as_tuple() for p in forecasts])
        params = PaletteParams()
        # the last climatology is so near corner B that the reference ray
        # falls back to the centroid's
        for q in (UNIFORM, make_ternary(0.25, 0.5, 0.25), make_ternary(0.1, 0.2, 0.7),
                  make_ternary(1 - 2e-13, 1e-13, 1e-13)):
            want = [assign_color(p, q, params) for p in forecasts]
            hue, sat = _hue_saturation(F, q, params)
            assert hue.tolist() == [c.hue for c in want]
            assert sat.tolist() == [c.saturation for c in want]
            assert hex_colors(F, q) == [hsv_to_rgb(c).to_hex() for c in want]

    def test_hue_of_exactly_one_wraps_to_red(self):
        # a tiny negative hue is 1.0 after "% 1.0"; colorsys takes sector 6 as 0
        params = PaletteParams(hue_anchors=((0.0, -1e-20), (1.0, -1e-20)))
        F = np.array([B.as_tuple(), N.as_tuple()])
        assert _hue_saturation(F, UNIFORM, params)[0].tolist() == [1.0, 1.0]
        assert hex_colors(F, UNIFORM, params) == ["#ff0000", "#ff0000"]

    def test_rejects_degenerate_climatology(self):
        with pytest.raises(DomainError, match=NON_POSITIVE_Q):
            hex_colors(np.array([UNIFORM.as_tuple()]), make_ternary(0.5, 0.5, 0.0))
        with pytest.raises(DomainError, match=TINY_Q):
            hex_colors(np.array([UNIFORM.as_tuple()]), make_ternary(5e-324, 0.5, 0.5))
