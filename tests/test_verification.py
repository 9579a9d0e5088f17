import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscore import (
    Bin,
    BinnedStats,
    Decomposition,
    ForecastObsPair,
    ObsCategory,
    UNIFORM,
    bin_forecasts,
    brier_rule,
    custom_rule,
    decompose,
    decompose_by_group,
    decomposition_diagram_geometry,
    make_ternary,
    rps_rule,
    skill_radius,
    snap_to_lattice,
)
from triscore.errors import DomainError
from triscore.simplex import RESCALE_TOLERANCE, SUM_TOLERANCE
from triscore.verification import _bin_arrays, _binned, _pair_arrays

from conftest import CATS, categorical_pairs, random_pd_rules

B, N, A = ObsCategory.B, ObsCategory.N, ObsCategory.A


def pair(p, obs):
    return ForecastObsPair(make_ternary(*p), obs)


def pair_arrays_reference(pairs):
    """Per-pair comprehensions: the reference for _pair_arrays."""
    F = np.array([pair.forecast.as_tuple() for pair in pairs])
    obs = np.array([pair.obs.index for pair in pairs])
    return F, obs


def snap_reference(p, nbins):
    """Scalar largest-remainder rounding: the reference for the array snap."""
    scaled = [p.pB * nbins, p.pN * nbins, p.pA * nbins]
    floors = [math.floor(v) for v in scaled]
    remainders = [v - f for v, f in zip(scaled, floors)]
    missing = nbins - sum(floors)
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in range(missing):
        floors[order[i]] += 1
    return (floors[0], floors[1], floors[2])


def bin_reference(pairs, nbins):
    """Per-pair grouping on the lattice: the reference for bin_forecasts'
    ``bins``."""
    counts = {}
    for p in pairs:
        acc = counts.setdefault(snap_reference(p.forecast, nbins), np.zeros(3))
        acc[p.obs.index] += 1.0
    bins = []
    for key in sorted(counts):
        total = int(counts[key].sum())
        center = make_ternary(key[0] / nbins, key[1] / nbins, key[2] / nbins)
        bins.append(Bin(center, total, make_ternary(*(counts[key] / total)), key))
    return tuple(bins)


def decompose_reference(rule, binned):
    """Per-bin, per-corner sums of squared plane distances: the reference
    for decompose, as (S, U, Z, R)."""
    Mhat = rule.Mhat
    corners = [Mhat @ np.eye(3)[i] for i in range(3)]
    n_total = binned.n_pairs
    q_bar_vec = np.zeros(3)
    for b in binned.bins:
        q_bar_vec += b.count * b.mean_obs.as_array()
    q_bar_vec /= n_total
    Qb = Mhat @ q_bar_vec
    S = U = Z = R = 0.0
    for b in binned.bins:
        Pk = Mhat @ b.center.as_array()
        Ok = Mhat @ b.mean_obs.as_array()
        w = b.mean_obs.as_tuple()  # observed corner frequencies in this bin
        for c in range(3):
            n_c = b.count * w[c]
            if n_c > 0.0:
                S += n_c * float((Pk - corners[c]) @ (Pk - corners[c]))
                U += n_c * float((Qb - corners[c]) @ (Qb - corners[c]))
        Z += b.count * float((Qb - Ok) @ (Qb - Ok))
        R += b.count * float((Pk - Ok) @ (Pk - Ok))
    return (S / n_total, U / n_total, Z / n_total, R / n_total)


def _lattice(n):
    return st.integers(0, n).flatmap(
        lambda i: st.integers(0, n - i).map(lambda j: (i / n, j / n, (n - i - j) / n))
    )


_weights = st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 0.0).map(
    lambda w: tuple(x / sum(w) for x in w)
)


@st.composite
def _binning_cases(draw):
    """nbins and pairs whose forecasts include points of that lattice and
    of others, and exact remainder ties such as (0.5, 0.5, 0)."""
    nbins = draw(st.integers(1, 30))
    forecast = st.one_of(
        _lattice(nbins),
        st.integers(1, 60).flatmap(_lattice),
        st.permutations((0.5, 0.5, 0.0)).map(tuple),
        st.just((1 / 3, 1 / 3, 1 / 3)),
        _weights,
    )
    rows = draw(st.lists(st.tuples(forecast, st.sampled_from(CATS)), min_size=1, max_size=60))
    return nbins, [pair(p, obs) for p, obs in rows]


class TestSnapping:
    def test_lattice_point_is_fixed(self):
        assert snap_to_lattice(make_ternary(1 / 3, 1 / 3, 1 / 3), 3) == (1, 1, 1)
        assert snap_to_lattice(make_ternary(6 / 11, 3 / 11, 2 / 11), 11) == (6, 3, 2)

    def test_nearest_under_brier_distance(self):
        # oracle: enumerate every lattice point at nbins=11 and take the
        # closest under the Brier quadratic form
        p = make_ternary(0.50, 0.30, 0.20)
        best, best_d = None, np.inf
        for i in range(12):
            for j in range(12 - i):
                k = 11 - i - j
                d = p.as_array() - np.array([i, j, k]) / 11.0
                dist = 0.5 * float(d @ d)
                if dist < best_d - 1e-15:
                    best, best_d = (i, j, k), dist
        assert snap_to_lattice(p, 11) == best == (6, 3, 2)

    def test_sum_preserved_and_small_moves(self, rng):
        for nbins in (1, 3, 11, 23):
            for row in rng.dirichlet((1, 1, 1), 300):
                p = make_ternary(*row)
                key = snap_to_lattice(p, nbins)
                assert sum(key) == nbins
                for got, want in zip(key, p.as_tuple()):
                    assert abs(got / nbins - want) <= 1.0 / nbins + 1e-12

    def test_idempotent(self, rng):
        for nbins in (3, 11):
            for row in rng.dirichlet((1, 1, 1), 200):
                key = snap_to_lattice(make_ternary(*row), nbins)
                center = make_ternary(*(k / nbins for k in key))
                assert snap_to_lattice(center, nbins) == key

    def test_tie_breaks_prefer_b_then_n(self):
        # (0.5, 0.5, 0) at nbins=1: remainders tie at 0.5; B wins
        assert snap_to_lattice(make_ternary(0.5, 0.5, 0.0), 1) == (1, 0, 0)
        assert snap_to_lattice(make_ternary(0.0, 0.5, 0.5), 1) == (0, 1, 0)


class TestBinning:
    def test_single_pair_on_lattice(self):
        binned = bin_forecasts([pair((1 / 3, 1 / 3, 1 / 3), B)], nbins=3)
        assert len(binned.bins) == 1
        assert binned.bins[0].center.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert binned.bins[0].count == 1

    def test_mean_obs_is_corner_average(self):
        binned = bin_forecasts([pair((0.5, 0.3, 0.2), B), pair((0.5, 0.3, 0.2), A)], 11)
        assert len(binned.bins) == 1
        assert binned.bins[0].mean_obs.as_tuple() == pytest.approx((0.5, 0.0, 0.5))

    def test_counts_total(self, rng):
        pairs = categorical_pairs(rng, 137)
        binned = bin_forecasts(pairs, 11)
        assert binned.n_pairs == 137

    def test_key_is_the_snapped_lattice_point(self, rng):
        pairs = categorical_pairs(rng, 200)
        binned = bin_forecasts(pairs, 7)
        assert {b.key for b in binned.bins} == {
            snap_to_lattice(p.forecast, 7) for p in pairs
        }
        for b in binned.bins:
            assert b.center == make_ternary(*(k / 7 for k in b.key))

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match=r"^no forecast-observation pairs to bin$"):
            bin_forecasts([], 11)

    def test_finest_lattice(self, rng):
        # the largest nbins whose lattice code fits in int64 still groups
        # and orders exactly; one more is rejected, not wrapped around
        pairs = categorical_pairs(rng, 50) + [pair((0.5, 0.5, 0.0), B)] * 2
        assert bin_forecasts(pairs, 2**31).bins == bin_reference(pairs, 2**31)
        for nbins in (0, 2**31 + 1):
            message = f"^nbins = {nbins} must be between 1 and {2**31}$"
            with pytest.raises(DomainError, match=message):
                bin_forecasts(pairs, nbins)

    def test_binning_already_binned_is_identity(self, rng):
        pairs = categorical_pairs(rng, 200)
        binned = bin_forecasts(pairs, 11)
        rebinned = bin_forecasts(
            [ForecastObsPair(b.center, c) for b in binned.bins for c in (B,) * b.count],
            11,
        )
        assert [b.center for b in rebinned.bins] == [b.center for b in binned.bins]
        assert [b.count for b in rebinned.bins] == [b.count for b in binned.bins]


class TestArrayMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_binning_cases())
    def test_binning(self, case):
        nbins, pairs = case
        assert bin_forecasts(pairs, nbins).bins == bin_reference(pairs, nbins)

    @settings(max_examples=100, deadline=None)
    @given(_binning_cases(), st.integers(0, 2**32 - 1))
    def test_decomposition(self, case, seed):
        nbins, pairs = case
        binned = bin_forecasts(pairs, nbins)
        for rule in (brier_rule(), rps_rule(), *random_pd_rules(np.random.default_rng(seed), 2)):
            d = decompose(rule, binned)
            want = decompose_reference(rule, binned)
            assert np.max(np.abs(np.array([d.S, d.U, d.Z, d.R]) - want)) <= 1e-12


@st.composite
def _count_triples(draw, max_total: int) -> tuple[int, tuple[int, int, int]]:
    """A total in 1..max_total and three non-negative counts summing to it."""
    total = draw(st.integers(1, max_total))
    a = draw(st.integers(0, total))
    b = draw(st.integers(0, total - a))
    return total, (a, b, total - a - b)


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


class TestBinRowsAreValidTriples:
    """BinnedStats.bins and the reliability diagram take each bin centre
    keys / nbins and mean observation obs_counts / count as a triple as it
    stands, without make_ternary.  That is exact because three
    non-negative, correctly rounded quotients of counts that sum to their
    divisor sum, added left to right, to within about 3 * 2**-53 (3.3e-16)
    of one: below RESCALE_TOLERANCE (1e-15), so make_ternary returns them
    unchanged.  The bound holds for any counts below 2**53, so the random
    cases below guard the code that computes the rows, not the bound; a
    few hundred of them reach every magnitude up to the largest nbins and
    counts."""

    def test_every_lattice_row_up_to_500(self):
        worst = 0.0
        for n in range(1, 501):
            i, j = np.triu_indices(n + 1)  # every 0 <= a <= a + b <= n
            rows = np.stack([i, j - i, n - j], axis=1) / n
            assert not np.signbit(rows).any()
            worst = max(worst, np.abs(rows[:, 0] + rows[:, 1] + rows[:, 2] - 1.0).max())
        assert worst <= RESCALE_TOLERANCE

    @settings(max_examples=500, deadline=None)
    @given(_count_triples(2**31))
    def test_centers_pass_make_ternary_unchanged(self, case):
        nbins, key = case
        binned = BinnedStats(np.array([key]), np.array([[1, 0, 0]]), nbins)
        row = binned.centers[0]
        assert _bits(make_ternary(*row).as_tuple()) == _bits(row)
        assert binned.bins[0].center == make_ternary(*row)

    @settings(max_examples=500, deadline=None)
    @given(_count_triples(10**9))
    def test_mean_obs_pass_make_ternary_unchanged(self, case):
        count, obs_counts = case
        binned = BinnedStats(np.array([[1, 0, 0]]), np.array([obs_counts]), 1)
        row = binned.mean_obs[0]
        assert _bits(make_ternary(*row).as_tuple()) == _bits(row)
        assert binned.counts[0] == count and binned.bins[0].mean_obs == make_ternary(*row)


# forecasts as make_ternary issues them: from raw triples with signed
# zeros (returned as +0.0) and with sums off one by up to half its
# tolerance (renormalised beyond a few ulp)
_issued = st.tuples(
    st.tuples(*[st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, 1.0))] * 3)
    .filter(lambda w: sum(w) > 0.0),
    st.floats(-SUM_TOLERANCE / 2, SUM_TOLERANCE / 2),
).map(lambda c: make_ternary(*(x / sum(c[0]) * (1.0 + c[1]) for x in c[0])))


class TestPairArrays:
    # 200 examples of up to 40 pairs: signed zeros, renormalised sums and
    # plain points meet each category in many orders, in under a second
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_issued, st.sampled_from(CATS)), min_size=1, max_size=40))
    def test_matches_reference(self, rows):
        pairs = [ForecastObsPair(p, obs) for p, obs in rows]
        F, obs = _pair_arrays(pairs)
        F_ref, obs_ref = pair_arrays_reference(pairs)
        assert F.shape == F_ref.shape and F.tobytes() == F_ref.tobytes()
        assert obs.dtype == np.int64 and obs.tolist() == obs_ref.tolist()


@st.composite
def _pure_cases(draw):
    """nbins and pairs in which each forecast value always meets one
    category, so bins mostly observe a single category."""
    nbins = draw(st.integers(3, 21))
    cases = draw(st.dictionaries(st.one_of(_lattice(nbins), _weights),
                                 st.tuples(st.sampled_from(CATS), st.integers(1, 40)),
                                 min_size=1, max_size=12))
    return nbins, [pair(p, obs) for p, (obs, n) in cases.items() for _ in range(n)]


@st.composite
def _grouped_cases(draw):
    """A binning case whose pairs are split into groups with ids 0..G-1."""
    nbins, pairs = draw(_binning_cases())
    labels = draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)))
    return nbins, pairs, np.unique(labels, return_inverse=True)[1]


def _sign(skill):
    return None if skill is None else np.sign(skill)


def assert_matches_per_group(rule, pairs, group, nbins):
    F = np.array([p.forecast.as_tuple() for p in pairs])
    obs = np.array([p.obs.index for p in pairs])
    got = decompose_by_group(rule, F, obs, group, nbins)
    assert len(got) == group.max() + 1
    for g, d in enumerate(got):
        members = [p for p, k in zip(pairs, group) if k == g]
        binned = bin_forecasts(members, nbins)
        assert binned.bins == bin_reference(members, nbins)
        want = decompose(rule, binned)
        terms = np.array([d.S, d.U, d.Z, d.R])
        assert np.max(np.abs(terms - [want.S, want.U, want.Z, want.R])) <= 1e-15
        assert np.max(np.abs(terms - decompose_reference(rule, binned))) <= 1e-12
        assert np.max(np.abs(d.q_bar.as_array() - want.q_bar.as_array())) <= 1e-15
        assert _sign(skill_radius(d)) == _sign(skill_radius(want))


class TestGroupedDecomposition:
    """decompose_by_group against per-group decompose(bin_forecasts(...))."""

    @settings(max_examples=150, deadline=None)
    @given(_grouped_cases(), st.integers(0, 2**32 - 1))
    def test_matches_per_group(self, case, seed):
        nbins, pairs, group = case
        for rule in (brier_rule(), rps_rule(), *random_pd_rules(np.random.default_rng(seed), 2)):
            assert_matches_per_group(rule, pairs, group, nbins)

    def test_many_locations(self, rng, brier):
        pairs = categorical_pairs(rng, 2000, sharpen=1.5)
        assert_matches_per_group(brier, pairs, rng.integers(0, 100, size=2000), 11)

    def test_finest_lattice(self, rng, brier):
        pairs = categorical_pairs(rng, 60) + [pair((0.5, 0.5, 0.0), B)] * 2
        group = np.arange(len(pairs)) % 3
        assert_matches_per_group(brier, pairs, group, 2**31)
        F = np.array([p.forecast.as_tuple() for p in pairs])
        obs = np.array([p.obs.index for p in pairs])
        for nbins in (0, 2**31 + 1):
            message = f"^nbins = {nbins} must be between 1 and {2**31}$"
            with pytest.raises(DomainError, match=message):
                decompose_by_group(brier, F, obs, group, nbins)

    def test_rejects_unused_group_id(self, brier):
        F = np.array([UNIFORM.as_tuple()] * 2)
        for group in ([0, 2], []):
            with pytest.raises(DomainError,
                               match=r"^every group id 0\.\.G-1 needs at least one pair$"):
                decompose_by_group(brier, F[:len(group)], np.zeros(len(group), dtype=int),
                                   np.array(group, dtype=int))


class TestReliabilityNoiseFloor:
    """The per-location R of forecasts that are reliable by construction.

    Each observation is drawn from its own Dirichlet(1, 1, 1) forecast, so
    a bin's mean observation misses its centre c only by sampling noise:
    a bin of k pairs adds about k/n * U(c)/k to the R of a location with
    n pairs, and lattice snapping a little more.  The mean R over 200
    locations is then (1/n) * sum of U(c) over each location's occupied
    bins, and dwarfs the R of the same pairs pooled.  A single case's
    ratio to that prediction is itself noisy, so the bounds are held over
    every case at once: 3 seeds, both rules, 20 and 200 pairs per location
    and nbins 11 and 21, which put the ratio between 0.9997 and 1.031 and
    the per-location R at least 13 times the pooled R.  The 24 cases take
    about a second in all.
    """

    @pytest.mark.parametrize("nbins", [11, 21])
    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("rule", [brier_rule(), rps_rule()], ids=["brier", "rps"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mean_r_is_sampling_noise(self, seed, rule, n, nbins):
        n_loc = 200
        rng = np.random.default_rng(seed)
        F = rng.dirichlet((1, 1, 1), n_loc * n)
        obs = (rng.random(len(F))[:, None] > np.cumsum(F[:, :2], axis=1)).sum(axis=1)
        group = np.repeat(np.arange(n_loc), n)
        R = np.mean([d.R for d in decompose_by_group(rule, F, obs, group, nbins)])
        loc, bins = _bin_arrays(F, obs, group, nbins)
        c = bins.centers
        U = c @ np.diag(rule.LtL) - np.einsum("ij,jk,ik->i", c, rule.LtL, c)  # U(c), per bin
        predicted = np.bincount(loc, weights=U).mean() / n
        assert 0.98 <= R / predicted <= 1.06
        assert R > 10 * decompose(rule, _binned(F, obs, nbins)).R


class TestDecompose:
    def test_perfect_forecasts(self, brier):
        pairs = [pair((1, 0, 0), B), pair((0, 0, 1), A), pair((0, 1, 0), N)]
        d = decompose(brier, bin_forecasts(pairs, 11))
        assert d.S == pytest.approx(0.0, abs=1e-15)
        assert d.R == pytest.approx(0.0, abs=1e-15)
        assert d.Z == pytest.approx(d.U, abs=1e-12)

    def test_climatological_forecaster(self, brier):
        # everyone forecasts the lattice-exact climatology (1/3,1/3,1/3)
        q = (1 / 3, 1 / 3, 1 / 3)
        pairs = [pair(q, B), pair(q, N), pair(q, A)]
        d = decompose(brier, bin_forecasts(pairs, 3))
        assert d.Z == pytest.approx(0.0, abs=1e-15)
        assert d.R == pytest.approx(0.0, abs=1e-15)
        assert d.S == pytest.approx(d.U, abs=1e-12)

    def test_six_pair_synthetic(self, brier):
        # oracle: direct arithmetic over the six pairs (see the sums in
        # each assertion); q_bar = (2 o_B + 4 o_A)/6
        pairs = [pair((1, 0, 0), B)] * 2 + [pair((1, 0, 0), A)] + [pair((0, 0, 1), A)] * 3
        binned = bin_forecasts(pairs, 11)
        d = decompose(brier, binned)
        assert d.q_bar.as_tuple() == pytest.approx((1 / 3, 0.0, 2 / 3), abs=1e-12)
        by_center = {b.center.as_tuple(): b for b in binned.bins}
        assert by_center[(1.0, 0.0, 0.0)].mean_obs.as_tuple() == pytest.approx(
            (2 / 3, 0.0, 1 / 3), abs=1e-12
        )
        assert by_center[(0.0, 0.0, 1.0)].mean_obs.as_tuple() == pytest.approx(
            (0.0, 0.0, 1.0), abs=1e-12
        )
        # S: one opposite-corner miss of score 1 among six pairs
        assert d.S == pytest.approx(1 / 6, abs=1e-12)
        # U: 2 pairs at 4/9 from q_bar, 4 at 1/9
        assert d.U == pytest.approx(2 / 9, abs=1e-12)
        assert d.Z == pytest.approx(1 / 9, abs=1e-12)
        assert d.R == pytest.approx(1 / 18, abs=1e-12)
        assert d.identity_gap() <= 1e-10

    def test_identity_many_rules(self, brier, rps, rng):
        rules = [brier, rps, *random_pd_rules(rng, 3)]
        for i in range(30):
            pairs = categorical_pairs(rng, int(rng.integers(20, 300)), sharpen=1.5)
            d = decompose(rules[i % len(rules)], bin_forecasts(pairs, 11))
            assert d.identity_gap() <= 1e-10

    def test_rejects_empty(self, brier):
        with pytest.raises(DomainError, match=r"^no bins to decompose$"):
            decompose(brier, BinnedStats(np.zeros((0, 3), int), np.zeros((0, 3), int), 11))


class TestSkillRadius:
    def test_reported_values(self):
        d = Decomposition(S=0.569**2, U=0.577**2, Z=0.185**2, R=0.159**2, q_bar=UNIFORM)
        assert skill_radius(d) == pytest.approx((0.185 - 0.159) / 0.185, abs=1e-12)
        assert skill_radius(d) == pytest.approx(0.1405, abs=5e-4)

    def test_perfect_reliability(self):
        d = Decomposition(S=0.1, U=0.3, Z=0.2, R=0.0, q_bar=UNIFORM)
        assert skill_radius(d) == 1.0

    def test_worse_than_climatology_is_negative(self):
        d = Decomposition(S=0.5, U=0.3, Z=0.04, R=0.24, q_bar=UNIFORM)
        assert skill_radius(d) < 0.0

    def test_zero_resolution_undefined(self):
        d = Decomposition(S=0.3, U=0.3, Z=0.0, R=0.0, q_bar=UNIFORM)
        assert skill_radius(d) is None

    def test_invariant_under_rule_scaling(self, rng):
        pairs = categorical_pairs(rng, 150)
        L = np.eye(3) / math.sqrt(2)
        d1 = decompose(custom_rule(L), bin_forecasts(pairs, 11))
        d2 = decompose(custom_rule(3.0 * L), bin_forecasts(pairs, 11))
        assert skill_radius(d1) == pytest.approx(skill_radius(d2), abs=1e-12)


class TestDiagramGeometry:
    def test_reported_value_consistency(self):
        d = Decomposition(
            S=0.577**2 - 0.185**2 + 0.159**2,
            U=0.577**2, Z=0.185**2, R=0.159**2, q_bar=UNIFORM,
        )
        geom = decomposition_diagram_geometry(d)
        assert geom.sqrt_best_score == pytest.approx(0.547, abs=5e-4)
        assert geom.sqrt_score == pytest.approx(0.569, abs=5e-4)

    def test_recalibrated_value(self):
        d = Decomposition(
            S=0.577**2 - 0.185**2 + 0.092**2,
            U=0.577**2, Z=0.185**2, R=0.092**2, q_bar=UNIFORM,
        )
        assert decomposition_diagram_geometry(d).sqrt_score == pytest.approx(0.554, abs=5e-4)

    def test_pythagoras_by_construction(self):
        d = Decomposition(S=0.32, U=0.4, Z=0.15, R=0.07, q_bar=UNIFORM)
        geom = decomposition_diagram_geometry(d)
        o, v, e = geom.large_triangle
        w = geom.small_triangle[2]
        leg_uz = math.dist(o, v)
        assert leg_uz**2 + math.dist(v, e) ** 2 == pytest.approx(d.U, abs=1e-12)
        assert leg_uz**2 + math.dist(v, w) ** 2 == pytest.approx(d.S, abs=1e-12)
        # right-angle vertex sits on the semicircle
        assert math.dist(geom.semicircle_center, v) == pytest.approx(
            geom.semicircle_radius, abs=1e-12
        )

    def test_chord_lengths(self):
        d = Decomposition(S=0.32, U=0.4, Z=0.15, R=0.07, q_bar=UNIFORM)
        geom = decomposition_diagram_geometry(d)
        assert math.dist(*geom.chord_zero_resolution) == pytest.approx(d.sqrt_U, abs=1e-12)
        assert math.dist(*geom.chord_perfect_reliability) == pytest.approx(
            math.sqrt(d.U - d.Z), abs=1e-12
        )

    def test_perfect_reliability_degenerates(self):
        d = Decomposition(S=0.25, U=0.4, Z=0.15, R=0.0, q_bar=UNIFORM)
        geom = decomposition_diagram_geometry(d)
        assert geom.small_triangle[1] == pytest.approx(geom.small_triangle[2], abs=1e-12)

    # U - Z is 0 in real arithmetic when every bin observes one category,
    # and rounding can then put Z an ulp above U.  That happens under some
    # rule in about 38 % of these examples, but in only 1 or 2 of the
    # first 10, which hypothesis keeps small; so it takes ~100 examples
    # for an exact U < Z comparison to fail here with near certainty.
    @settings(max_examples=100, deadline=None)
    @given(_pure_cases(), st.integers(0, 2**32 - 1))
    def test_pure_bins_are_admissible(self, case, seed):
        nbins, pairs = case
        binned = bin_forecasts(pairs, nbins)
        for rule in (brier_rule(), rps_rule(), *random_pd_rules(np.random.default_rng(seed), 2)):
            d = decompose(rule, binned)
            d.check()
            decomposition_diagram_geometry(d)

    def test_rejects_u_below_z(self):
        d = Decomposition(S=0.1, U=0.1, Z=0.2, R=0.2, q_bar=UNIFORM)
        with pytest.raises(DomainError, match=r"^U = 0\.1 < Z = 0\.2$"):
            decomposition_diagram_geometry(d)
