"""Ternary probabilistic forecasts: projection, scoring geometry,
verification, colour mapping, the Gaussian special case, quadratic
recalibration and SVG rendering."""

from importlib import import_module

# The public names, by the submodule each lives in.  They resolve on first
# use (PEP 562), so ``import triscore`` loads neither numpy nor any
# submodule.  Nothing is cached here: the package always returns what the
# submodule binds at the time.
_EXPORTS = {
    "colors": (
        "ColorHSV", "ColorRGB", "LegacyRegion", "PaletteParams",
        "assign_color", "dominant_category", "hex_colors", "hsv_to_rgb",
        "information_gain", "legacy_region",
    ),
    "datasets": (
        "Dataset", "ForecastRecord", "pairs_from_dataset", "parse_csv",
        "parse_json", "resolve_observation", "resolve_ternary", "write_json",
    ),
    "gaussian": (
        "GaussianScaled", "gaussian_to_ternary", "scale_params",
        "std_normal_cdf", "std_normal_quantile", "ternary_to_gaussian",
    ),
    "recalibration": (
        "CalibrationReport", "QuadraticMap", "apply_map", "fit_map",
        "mean_score_of_map", "recalibration_report",
    ),
    "scoring": (
        "AffineTernary", "BaryPoint", "ScoringRule", "brier_rule",
        "custom_rule", "from_bary", "rps_rule", "score", "to_bary",
        "uncertainty",
    ),
    "simplex": (
        "UNIFORM", "CategoryThresholds", "ObsCategory", "TernaryProb",
        "empirical_quantiles", "ensemble_to_ternary", "make_ternary",
        "ternary_from_cdf",
    ),
    "svg": (
        "RenderConfig", "render_forecast_map", "render_palette_legend",
        "render_reliability_diagram",
    ),
    "verification": (
        "Bin", "BinnedStats", "Decomposition", "DiagramGeometry",
        "ForecastObsPair", "bin_forecasts", "decompose", "decompose_by_group",
        "decomposition_diagram_geometry", "skill_radius", "snap_to_lattice",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
