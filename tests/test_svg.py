import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from triscore import (
    Dataset,
    ForecastObsPair,
    ForecastRecord,
    ObsCategory,
    PaletteParams,
    RenderConfig,
    UNIFORM,
    bin_forecasts,
    brier_rule,
    decompose,
    make_ternary,
    render_forecast_map,
    render_palette_legend,
    render_reliability_diagram,
    skill_radius,
)
from triscore.errors import DomainError, MissingVerificationHistory

from conftest import categorical_pairs, frozen_dataset

GOLDEN = Path(__file__).parent / "golden"

B, N, A = ObsCategory.B, ObsCategory.N, ObsCategory.A

HEX_RE = re.compile(r'fill="(#[0-9a-f]*)"')


def assert_well_formed(svg: bytes):
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib


def fills(svg: bytes):
    return [m for m in HEX_RE.findall(svg.decode()) if m != "#"]


def skill_history_dataset():
    """Two locations: one with positive skill, one with negative skill."""
    records = []
    # location (0, 0): mixed-quality history; skill (sqrt(Z)-sqrt(R))/sqrt(Z)
    for obs in (B, B, A):
        records.append(ForecastRecord(lat=0.0, lon=0.0, ternary=make_ternary(1, 0, 0), obs=obs))
    for _ in range(3):
        records.append(ForecastRecord(lat=0.0, lon=0.0, ternary=make_ternary(0, 0, 1), obs=A))
    # location (0, 1): systematically wrong
    for _ in range(3):
        records.append(ForecastRecord(lat=0.0, lon=1.0, ternary=make_ternary(1, 0, 0), obs=A))
    for _ in range(3):
        records.append(ForecastRecord(lat=0.0, lon=1.0, ternary=make_ternary(0, 0, 1), obs=B))
    return Dataset(records=tuple(records))


class TestRenderConfig:
    @pytest.mark.parametrize("kw", [
        {"width_px": 0}, {"height_px": -1}, {"cell_size_px": math.nan},
        {"cell_size_px": math.inf}, {"circle_scale": -1.0}, {"circle_scale": 0.0},
        {"circle_scale": math.nan}, {"width_px": 10**400}, {"height_px": 10**400},
    ], ids=["width-0", "height-neg", "cell-nan", "cell-inf", "circle-neg", "circle-0",
            "circle-nan", "width-beyond-float", "height-beyond-float"])
    def test_rejects_non_positive_or_non_finite_sizes(self, kw):
        with pytest.raises(DomainError):
            RenderConfig(**kw)


class TestPaletteLegend:
    def test_well_formed_and_deterministic(self):
        a = render_palette_legend(UNIFORM, PaletteParams(), 12)
        b = render_palette_legend(UNIFORM, PaletteParams(), 12)
        assert_well_formed(a)
        assert a == b
        assert render_palette_legend(UNIFORM) == render_palette_legend(UNIFORM, PaletteParams())

    def test_cell_count_is_resolution_squared(self):
        for size in (1, 2, 5, 12):
            svg = render_palette_legend(UNIFORM, PaletteParams(), size)
            assert svg.count(b"<polygon") == size * size

    def test_single_cell_degenerate(self):
        svg = render_palette_legend(UNIFORM, PaletteParams(), 1)
        assert_well_formed(svg)
        assert svg.count(b"<polygon") == 1

    def test_centroid_cell_is_white_for_uniform_q(self):
        # at resolution 2 the down-pointing cell's centroid is exactly q
        svg = render_palette_legend(UNIFORM, PaletteParams(), 2)
        assert b'fill="#ffffff"' in svg

    def test_cross_follows_climatology(self):
        q = make_ternary(0.1, 0.2, 0.7)
        svg_a = render_palette_legend(UNIFORM, PaletteParams(), 4).decode()
        svg_b = render_palette_legend(q, PaletteParams(), 4).decode()
        cross_a = [ln for ln in svg_a.splitlines() if "#0000cc" in ln]
        cross_b = [ln for ln in svg_b.splitlines() if "#0000cc" in ln]
        assert len(cross_a) == len(cross_b) == 2
        assert cross_a != cross_b

    def test_fill_colors_are_hex6(self):
        svg = render_palette_legend(UNIFORM, PaletteParams(), 8)
        for value in fills(svg):
            assert re.fullmatch(r"#[0-9a-f]{6}", value)


class TestForecastMap:
    def test_single_white_cell_at_climatology(self):
        ds = Dataset(records=(ForecastRecord(lat=0, lon=0, ternary=UNIFORM),))
        svg = render_forecast_map(ds)
        assert_well_formed(svg)
        rects = [ln for ln in svg.decode().splitlines() if ln.startswith("<rect")]
        assert len(rects) == 1
        assert 'fill="#ffffff"' in rects[0]

    def test_circle_radius_encodes_skill(self):
        ds = skill_history_dataset()
        config = RenderConfig(show_skill_circles=True, min_pairs_for_circle=6,
                              cell_size_px=10.0, circle_scale=1.0)
        svg = render_forecast_map(ds, config)
        assert_well_formed(svg)
        # expected radius from the location's own decomposition
        pairs = [ForecastObsPair(r.ternary, r.obs) for r in ds.records[:6]]
        skill = skill_radius(decompose(brier_rule(), bin_forecasts(pairs, 11)))
        assert skill > 0
        want_r = f'r="{10.0 * skill:.4f}"'
        body = svg.decode()
        main = body.split('<g id="legend">')[0]
        circles = [ln for ln in main.splitlines() if ln.startswith("<circle")]
        assert len(circles) == 6  # one per record at the skilful location
        assert all(want_r in ln for ln in circles)

    def test_no_circle_for_negative_skill(self):
        ds = skill_history_dataset()
        config = RenderConfig(show_skill_circles=True, min_pairs_for_circle=6)
        body = render_forecast_map(ds, config).decode()
        main = body.split('<g id="legend">')[0]
        # the systematically wrong location draws nothing
        assert len([ln for ln in main.splitlines() if ln.startswith("<circle")]) == 6

    def test_min_pairs_suppresses_circles(self):
        ds = skill_history_dataset()
        config = RenderConfig(show_skill_circles=True, min_pairs_for_circle=10)
        body = render_forecast_map(ds, config).decode()
        main = body.split('<g id="legend">')[0]
        assert not [ln for ln in main.splitlines() if ln.startswith("<circle")]

    def test_signed_zero_coordinates_are_one_location(self):
        # six pairs at (0, 0), three of them written as (-0.0, -0.0): one
        # location with enough pairs for a circle
        records = [
            r if i % 2 else ForecastRecord(lat=-0.0, lon=-0.0, ternary=r.ternary, obs=r.obs)
            for i, r in enumerate(skill_history_dataset().records[:6])
        ]
        config = RenderConfig(show_skill_circles=True, min_pairs_for_circle=6)
        body = render_forecast_map(Dataset(records=tuple(records)), config).decode()
        main = body.split('<g id="legend">')[0]
        assert len([ln for ln in main.splitlines() if ln.startswith("<circle")]) == 6

    def test_circles_without_history_fail(self):
        ds = Dataset(records=(ForecastRecord(lat=0, lon=0, ternary=UNIFORM),))
        with pytest.raises(MissingVerificationHistory):
            render_forecast_map(ds, RenderConfig(show_skill_circles=True))

    def test_legend_embedded(self):
        ds = Dataset(records=(ForecastRecord(lat=0, lon=0, ternary=UNIFORM),))
        assert b'<g id="legend">' in render_forecast_map(ds)

    def test_deterministic(self):
        ds = frozen_dataset()
        config = RenderConfig(show_skill_circles=True)
        assert render_forecast_map(ds, config) == render_forecast_map(ds, config)

    def test_overlay_polylines_drawn(self):
        ds = Dataset(records=(
            ForecastRecord(lat=0, lon=0, ternary=UNIFORM),
            ForecastRecord(lat=2, lon=3, ternary=UNIFORM),
        ))
        coast = [[(0.0, 0.0), (1.0, 1.5), (2.0, 3.0)], [(0.5, 2.0), (1.5, 2.5)]]
        svg = render_forecast_map(ds, overlay=coast)
        assert_well_formed(svg)
        assert svg.count(b"<polyline") == 2

    def test_negative_zero_is_written_as_zero(self):
        # margin 40 px, 64 px per degree of longitude: lon -0.6250001 lands
        # at x = -6.4e-6 px, which "%.4f" writes as "-0.0000"
        ds = Dataset(records=tuple(
            ForecastRecord(lat=lat, lon=lon, ternary=UNIFORM)
            for lat in (0.0, 10.0) for lon in (0.0, 10.0)
        ))
        svg = render_forecast_map(ds, overlay=[[(5.0, -0.6250001), (5.0, 5.0)]])
        assert b'<polyline points="0.0000,280.0000 360.0000,280.0000"' in svg
        assert b"-0.0000" not in svg


class TestReliabilityDiagram:
    def make_inputs(self, rng, threshold=10):
        pairs = categorical_pairs(rng, 400, sharpen=1.5)
        binned = bin_forecasts(pairs, 11)
        return binned, decompose(brier_rule(), binned)

    def test_well_formed(self, rng):
        binned, decomp = self.make_inputs(rng)
        svg = render_reliability_diagram(binned, decomp)
        assert_well_formed(svg)

    def test_dipole_count_honours_threshold(self, rng):
        binned, decomp = self.make_inputs(rng)
        ns = "{http://www.w3.org/2000/svg}"
        for threshold in (1, 5, 10, 50):
            config = RenderConfig(dipole_threshold=threshold)
            svg = render_reliability_diagram(binned, decomp, config)
            root = ET.fromstring(svg)
            layer = [g for g in root.iter(f"{ns}g") if g.get("id") == "dipoles"]
            assert len(layer) == 1
            want = sum(1 for b in binned.bins if b.count >= threshold)
            assert len(layer[0].findall(f"{ns}g")) == want

    def test_sparse_bins_still_shaded(self, rng):
        binned, decomp = self.make_inputs(rng)
        config = RenderConfig(dipole_threshold=10**9)  # no dipoles at all
        svg = render_reliability_diagram(binned, decomp, config).decode()
        # sharpness inset shades one circle per lattice point
        n_lattice = (binned.nbins + 1) * (binned.nbins + 2) // 2
        assert svg.count("<circle") >= n_lattice
        occupied_shades = [
            c for c in HEX_RE.findall(svg) if c not in ("#cccccc",) and c.startswith("#")
        ]
        assert occupied_shades

    def test_dashed_limit_chords_present(self, rng):
        binned, decomp = self.make_inputs(rng)
        svg = render_reliability_diagram(binned, decomp).decode()
        assert svg.count("stroke-dasharray") == 2

    def test_climatology_cross_present(self, rng):
        binned, decomp = self.make_inputs(rng)
        svg = render_reliability_diagram(binned, decomp).decode()
        # the cross is two wide blue strokes (inset lines are thinner)
        assert svg.count('stroke="#0000cc" stroke-width="2"') == 2

    def test_threshold_text(self, rng):
        binned, decomp = self.make_inputs(rng)
        svg = render_reliability_diagram(binned, decomp, RenderConfig(dipole_threshold=10))
        assert b"threshold =10" in svg

    def test_perfectly_reliable_dipoles_are_zero_length(self):
        # forecasts sit on corner bins and observations always agree, so
        # each dipole joins two coincident points
        pairs = [ForecastObsPair(make_ternary(1, 0, 0), B)] * 12 + [
            ForecastObsPair(make_ternary(0, 0, 1), A)
        ] * 12
        binned = bin_forecasts(pairs, 11)
        decomp = decompose(brier_rule(), binned)
        svg = render_reliability_diagram(binned, decomp, RenderConfig(dipole_threshold=10))
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(svg)
        layer = [g for g in root.iter(f"{ns}g") if g.get("id") == "dipoles"][0]
        lines = layer.iter(f"{ns}line")
        n = 0
        for ln in lines:
            assert ln.get("x1") == ln.get("x2")
            assert ln.get("y1") == ln.get("y2")
            n += 1
        assert n == 2


class TestGoldenFiles:
    """Byte-for-byte stability of the document types."""

    @pytest.mark.parametrize("name, q, params, size", [
        ("legend.svg", UNIFORM, PaletteParams(), 16),
        ("legend_q5.svg", make_ternary(0.2, 0.3, 0.5), PaletteParams(m=1.1, theta0=0.3), 5),
    ], ids=["uniform-16", "q-5"])
    def test_legend_golden(self, name, q, params, size):
        got = render_palette_legend(q, params, size)
        assert got == (GOLDEN / name).read_bytes()

    def test_map_golden(self):
        config = RenderConfig(show_skill_circles=True, min_pairs_for_circle=10)
        got = render_forecast_map(frozen_dataset(), config)
        assert got == (GOLDEN / "map_circles.svg").read_bytes()

    @pytest.mark.parametrize("name, q, params, overlay", [
        ("map_cells.svg", UNIFORM, PaletteParams(), None),
        ("map_cells_q.svg", make_ternary(0.25, 0.5, 0.25), PaletteParams(m=1.3, theta0=1.0),
         None),
        # the records span lat 0..3 and lon 0..4; the last two lines leave that frame
        ("map_cells_overlay.svg", UNIFORM, PaletteParams(),
         [[(0.0, 0.0), (1.5, 2.25), (3.0, 4.0)], [(-1.0, 2.0), (0.5, 6.5)],
          [(2.5, -0.75), (2.0, 1.0), (1.0, 3.0), (0.25, 4.5)]]),
    ], ids=["uniform", "q-rotated", "overlay"])
    def test_cell_map_golden(self, name, q, params, overlay):
        ds = Dataset(records=frozen_dataset().records, q=q)
        got = render_forecast_map(ds, RenderConfig(palette=params), overlay=overlay)
        assert got == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name, nbins", [
        ("reliability.svg", 11), ("reliability_nbins5.svg", 5),
    ], ids=["nbins-11", "nbins-5"])
    def test_reliability_golden(self, name, nbins):
        ds = frozen_dataset()
        pairs = [ForecastObsPair(r.ternary, r.obs) for r in ds.records]
        binned = bin_forecasts(pairs, nbins)
        decomp = decompose(brier_rule(), binned)
        got = render_reliability_diagram(binned, decomp, RenderConfig(dipole_threshold=10))
        assert got == (GOLDEN / name).read_bytes()
