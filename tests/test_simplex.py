import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscore import (
    CategoryThresholds,
    ObsCategory,
    UNIFORM,
    empirical_quantiles,
    ensemble_to_ternary,
    make_ternary,
    ternary_from_cdf,
)
from triscore.errors import DomainError, TriscoreError
from triscore.simplex import (
    NEGATIVE_TOLERANCE,
    RESCALE_TOLERANCE,
    SUM_TOLERANCE,
    TernaryProb,
)

from conftest import random_simplex


def test_make_ternary_uniform():
    q = make_ternary(1 / 3, 1 / 3, 1 / 3)
    assert q.pB == pytest.approx(1 / 3, abs=1e-15)
    assert q.pB + q.pN + q.pA == pytest.approx(1.0, abs=1e-12)


def test_make_ternary_corner():
    assert make_ternary(1.0, 0.0, 0.0).as_tuple() == (1.0, 0.0, 0.0)


def test_make_ternary_rejects_bad_sum():
    with pytest.raises(DomainError, match=r"^probabilities sum to 0\.9, not 1$"):
        make_ternary(0.5, 0.3, 0.1)


def test_make_ternary_rejects_negative():
    with pytest.raises(DomainError, match=r"^pB = -0\.01 < 0$"):
        make_ternary(-0.01, 0.5, 0.51)


def test_make_ternary_clamps_tiny_negative():
    p = make_ternary(-1e-13, 0.5, 0.5)
    assert p.pB == 0.0


def test_make_ternary_renormalises_within_tolerance():
    p = make_ternary(0.333333333, 0.333333333, 0.333333333)
    assert p.pB + p.pN + p.pA == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError, match=r"^probabilities sum to 0\.9999998999999999, not 1$"):
        make_ternary(0.3333333, 0.3333333, 0.3333333)  # off by 1e-7


def test_make_ternary_idempotent_bits():
    for vals in [(0.333333333, 0.333333333, 0.333333334), (0.2, 0.5, 0.3), (1.0, 0.0, 0.0)]:
        p1 = make_ternary(*vals)
        p2 = make_ternary(*p1.as_tuple())
        assert p1 == p2


def test_obs_corners_fixed_points():
    for cat in ObsCategory:
        corner = cat.to_ternary()
        assert make_ternary(*corner.as_tuple()) == corner


def test_ternary_from_cdf_terciles():
    assert ternary_from_cdf(1 / 3, 2 / 3).as_tuple() == pytest.approx(
        (1 / 3, 1 / 3, 1 / 3), abs=1e-15
    )


def test_ternary_from_cdf_quartiles():
    assert ternary_from_cdf(0.25, 0.75).as_tuple() == (0.25, 0.5, 0.25)


def test_ternary_from_cdf_gaussian_case():
    # oracle: Phi(z+1) at z = Phiinv(1/3), Phiinv(2/3); see test_gaussian
    p = ternary_from_cdf(0.7154, 0.9237)
    assert p.as_tuple() == pytest.approx((0.7154, 0.2083, 0.0763), abs=1e-12)


def test_ternary_from_cdf_rejects_nonmonotone():
    with pytest.raises(DomainError, match=r"^F\(xB\)=0\.7 > F\(xA\)=0\.6$"):
        ternary_from_cdf(0.7, 0.6)
    with pytest.raises(DomainError, match=r"^thresholds out of order: xB=2\.0 > xA=1\.0$"):
        CategoryThresholds(2.0, 1.0)
    with pytest.raises(DomainError, match=r"^CDF values outside \[0,1\]: \(1\.5, 0\.5\)$"):
        ternary_from_cdf(1.5, 0.5)


def test_ternary_from_cdf_on_simplex(rng):
    for _ in range(200):
        a, b = sorted(rng.uniform(0, 1, 2))
        p = ternary_from_cdf(a, b)
        assert min(p.as_tuple()) >= 0.0
        assert sum(p.as_tuple()) == pytest.approx(1.0, abs=1e-12)


def test_empirical_quantiles_interpolation():
    thr = empirical_quantiles([1, 2, 3, 4, 5], UNIFORM)
    # oracle: hand interpolation of sorted order statistics at 1/3, 2/3:
    # index 4/3 -> 2 + 1/3, index 8/3 -> 3 + 2/3
    assert thr.xB == pytest.approx(7 / 3, abs=1e-12)
    assert thr.xA == pytest.approx(11 / 3, abs=1e-12)


def test_empirical_quantiles_constant_series():
    thr = empirical_quantiles([4.2] * 9, UNIFORM)
    assert thr.xB == thr.xA == 4.2


def test_empirical_quantiles_median():
    thr = empirical_quantiles([0.0, 10.0], make_ternary(0.5, 0.0, 0.5))
    assert thr.xB == thr.xA == 5.0


def test_empirical_quantiles_needs_two_values():
    with pytest.raises(DomainError, match=r"^need at least 2 climatology values, got 1$"):
        empirical_quantiles([1.0], UNIFORM)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"^climatology series contains non-finite values$"):
            empirical_quantiles([1.0, bad, 2.0], UNIFORM)


def test_ensemble_one_member_per_category():
    p = ensemble_to_ternary([1.0, 2.0, 3.0], CategoryThresholds(1.5, 2.5))
    assert p.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)


def test_ensemble_all_above():
    p = ensemble_to_ternary([5.0, 6.0, 7.0], CategoryThresholds(1.0, 2.0))
    assert p.as_tuple() == (0.0, 0.0, 1.0)


def test_ensemble_direct_count():
    members = [0.5] * 4 + [1.5] * 3 + [2.5] * 2
    p = ensemble_to_ternary(members, CategoryThresholds(1.0, 2.0))
    assert p.as_tuple() == pytest.approx((4 / 9, 3 / 9, 2 / 9), abs=1e-15)


def test_ensemble_rejects_empty():
    with pytest.raises(DomainError, match=r"^empty ensemble$"):
        ensemble_to_ternary([], CategoryThresholds(0.0, 1.0))


def test_ensemble_boundary_members_break_low():
    # a member exactly at xB counts as B, exactly at xA counts as N
    p = ensemble_to_ternary([1.0, 2.0], CategoryThresholds(1.0, 2.0))
    assert p.as_tuple() == (0.5, 0.5, 0.0)


def test_ensemble_fractions_need_no_renormalising():
    """For every split of up to 60 members, (nB/n, nN/n, nA/n) is what
    make_ternary returns for it: non-negative quotients of an exact unit sum
    land within RESCALE_TOLERANCE of one, so ensemble_to_ternary builds the
    triple as is."""
    thresholds = CategoryThresholds(-0.5, 0.5)
    for n in range(1, 61):
        for nB in range(n + 1):
            for nA in range(n + 1 - nB):
                nN = n - nB - nA
                got = ensemble_to_ternary([-1.0] * nB + [0.0] * nN + [1.0] * nA, thresholds)
                assert repr(got) == repr(make_ternary(nB / n, nN / n, nA / n)), (nB, nN, nA)


def test_observation_boundary_breaks_low():
    thr = CategoryThresholds(1.0, 2.0)
    assert thr.categorise(1.0) is ObsCategory.B
    assert thr.categorise(2.0) is ObsCategory.N
    assert thr.categorise(2.0000001) is ObsCategory.A


def test_quantile_count_consistency(rng):
    """Categorising a sample against its own empirical quantiles lands
    within 1/n of the climatology in every coordinate."""
    for n in (10, 37, 200):
        series = list(rng.normal(size=n))
        for q in (UNIFORM, make_ternary(0.25, 0.5, 0.25)):
            thr = empirical_quantiles(series, q)
            p = ensemble_to_ternary(series, thr)
            for got, want in zip(p.as_tuple(), q.as_tuple()):
                assert abs(got - want) <= 1.0 / n + 1e-12


def test_random_simplex_valid(rng):
    for row in random_simplex(rng, 100):
        p = make_ternary(*row)
        assert min(p.as_tuple()) >= 0.0
        assert math.isclose(sum(p.as_tuple()), 1.0, abs_tol=1e-9)


def make_ternary_reference(pB, pN, pA):
    """Check, clamp and renormalise in one loop: the reference for
    make_ternary's fast path."""
    vals = [float(pB), float(pN), float(pA)]
    for name, v in zip("BNA", vals):
        if not math.isfinite(v):
            raise DomainError(f"p{name} is not finite: {v}")
        if v < NEGATIVE_TOLERANCE:
            raise DomainError(f"p{name} = {v} < 0")
    vals = [max(0.0, v) for v in vals]
    total = vals[0] + vals[1] + vals[2]
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise DomainError(f"probabilities sum to {total}, not 1")
    if abs(total - 1.0) > RESCALE_TOLERANCE:
        vals = [v / total for v in vals]
        k = max(range(3), key=lambda i: vals[i])
        vals[k] = 1.0 - (vals[(k + 1) % 3] + vals[(k + 2) % 3])
    return TernaryProb(*vals)


def _outcome(make, *args):
    """The bits and types of the components, or the error class and message."""
    try:
        p = make(*args)
    except TriscoreError as e:
        return type(e), str(e)
    return struct.pack("<3d", *p.as_tuple()), tuple(map(type, p.as_tuple()))


_SPECIAL = (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, NEGATIVE_TOLERANCE,
            math.nextafter(NEGATIVE_TOLERANCE, -1.0), -5e-324, 5e-324)
# offsets of the third component from a sum of exactly one
_OFFSETS = (0.0, RESCALE_TOLERANCE, 2 * RESCALE_TOLERANCE, 1e-12, SUM_TOLERANCE,
            math.nextafter(SUM_TOLERANCE, 1.0), 2 * SUM_TOLERANCE)


@st.composite
def _triples(draw):
    """Triples on, near and off the simplex, as floats, ints or numpy floats."""
    kind = draw(st.sampled_from(["near", "any", "ints"]))
    if kind == "near":
        a = draw(st.floats(0.0, 1.0))
        b = draw(st.floats(0.0, 1.0 - a))
        c = 1.0 - a - b + draw(st.sampled_from(_OFFSETS)) * draw(st.sampled_from((1.0, -1.0)))
        for _ in range(draw(st.integers(0, 3))):
            c = math.nextafter(c, draw(st.sampled_from((-1.0, 2.0))))
        vals = draw(st.permutations([a, b, c]))
        if draw(st.booleans()):  # a component just below zero, or a signed zero
            vals[draw(st.integers(0, 2))] = draw(st.one_of(
                st.floats(-1e-12, 0.0, exclude_max=True), st.sampled_from(_SPECIAL)))
    elif kind == "any":
        vals = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats(-2.0, 2.0)),
                             min_size=3, max_size=3))
    else:
        vals = draw(st.lists(st.one_of(st.integers(-1, 2), st.booleans()), min_size=3, max_size=3))
    cast = draw(st.sampled_from((lambda v: v, np.float64, np.float32)))
    return [v if isinstance(v, int) else cast(v) for v in vals]


class TestMakeTernaryReference:
    @settings(max_examples=2000, deadline=None)
    @given(_triples())
    def test_matches_loop(self, vals):
        assert _outcome(make_ternary, *vals) == _outcome(make_ternary_reference, *vals)

    @pytest.mark.parametrize("vals", [
        (0.2, 0.5, 0.3), (-0.0, 0.5, 0.5), (-0.0, -0.0, 1.0), (1, 0, 0), (True, False, False),
        (np.float64(0.25), np.float64(0.5), np.float64(0.25)),
        (np.float32(0.1), np.float32(0.2), np.float32(0.7)),
        (0.5, 0.5, 1e-12), (0.5, 0.5, -1e-12), (0.5, 0.5, 1e-15), (0.5, 0.5, 2e-15),
        (0.5, 0.5, SUM_TOLERANCE), (0.5, 0.5, 2 * SUM_TOLERANCE), (0.5, 0.5, -5e-324),
        (math.nan, 0.5, 0.5), (0.5, math.inf, 0.5), (0.5, 0.5, -math.inf),
        (-0.5, 1.0, 0.5), (0.1, 0.2, 0.7),  # 0.1 + 0.2 + 0.7 rounds to 1 + 2.2e-16
    ])
    def test_fixed_cases(self, vals):
        assert _outcome(make_ternary, *vals) == _outcome(make_ternary_reference, *vals)


# the member-keyed tables the enum looked values up in
_CORNERS_REFERENCE = {
    ObsCategory.B: TernaryProb(1.0, 0.0, 0.0),
    ObsCategory.N: TernaryProb(0.0, 1.0, 0.0),
    ObsCategory.A: TernaryProb(0.0, 0.0, 1.0),
}
_INDEX_REFERENCE = {ObsCategory.B: 0, ObsCategory.N: 1, ObsCategory.A: 2}


@pytest.mark.parametrize("cat", list(ObsCategory))
def test_obs_lookups_match_reference(cat):
    assert cat.index == _INDEX_REFERENCE[cat]
    assert cat.to_ternary() == _CORNERS_REFERENCE[cat]
    assert struct.pack("<3d", *cat.to_ternary().as_tuple()) == struct.pack(
        "<3d", *_CORNERS_REFERENCE[cat].as_tuple())
