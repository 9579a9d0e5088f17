"""Command-line interface.

Subcommands wire ingestion, verification, recalibration and rendering
together.  Each writes one document, its artefact, to ``--output`` or to
stdout, and prints its JSON summary on stdout unless the artefact went there.
Exit codes: 0 on success, 2 on malformed input or a path that cannot be
read or written, 3 on mathematically invalid values (domain errors).
Each run pauses the cyclic garbage collector: its records hold no cycles.
``run``, the process entry point, ends by freezing the heap: exit walks none of it.
"""

import codecs
import gc
import json
import os
import sys
from pathlib import Path

# A CLI run is one process, and its BLAS calls are a 6-column lstsq and
# 3x3 products: the OpenBLAS thread pool that numpy starts on import buys
# nothing, and its idle worker can slow start-up.  So unless the user chose
# a thread count (OpenBLAS also honours OMP_NUM_THREADS), or numpy is
# already loaded, run it single-threaded.  This must come before the first
# import of numpy.
if "numpy" not in sys.modules and "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import __version__
from .colors import PaletteParams
from .datasets import (
    Dataset,
    _valid_record,
    check_lat_lon,
    json_floats,
    load_json,
    make_climatology,
    pairs_from_dataset,
    parse_csv,
    parse_json,
    resolve_dataset,
    write_json,
)
from .errors import DomainError, SchemaError
from .recalibration import QuadraticMap, fit_map, map_forecasts, recalibration_report
from .scoring import ScoringRule, brier_rule, rps_rule, score
from .svg import RenderConfig, render_forecast_map, render_palette_legend, render_reliability_diagram
from .verification import BinnedStats, Decomposition, ForecastObsPair, bin_forecasts, decompose

EXIT_SCHEMA = 2
EXIT_DOMAIN = 3


def _fail(code: int, err: Exception) -> None:
    click.echo(f"error: {err}", err=True)
    sys.exit(code)


class _Group(click.Group):
    """The command group; maps package and file errors of every subcommand to exit codes."""

    def main(self, *args, **kwargs):
        # a command's JSON, records, pairs and arrays hold no reference cycles:
        # at 10^4 records its 60-210 collections (10-29 ms) freed none of them
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().main(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SchemaError, OSError) as e:
            _fail(EXIT_SCHEMA, e)
        except DomainError as e:
            _fail(EXIT_DOMAIN, e)


def _read_dataset(path: str) -> Dataset:
    if path == "-":
        data = sys.stdin.buffer.read()
        sniff = data.removeprefix(codecs.BOM_UTF8).lstrip()[:1]
        return parse_json(data) if sniff == b"{" else parse_csv(data)
    data = Path(path).read_bytes()
    if path.lower().endswith(".json"):
        return parse_json(data)
    return parse_csv(data)


def _read_pairs(path: str) -> list[ForecastObsPair]:
    """The observed pairs of a dataset file; DomainError if there are none."""
    pairs = pairs_from_dataset(_read_dataset(path))
    if not pairs:
        raise DomainError("no records carry observations")
    return pairs


def _finish(summary: dict, output: str | None, data: bytes | None = None) -> None:
    """Write the command's artefact, ``data`` or else the summary, to
    ``output`` (stdout if None or '-'); stdout carries the summary only
    when the artefact went to a file."""
    text = json.dumps(summary, indent=2) + "\n"
    if output is not None and output != "-":
        Path(output).write_bytes(text.encode() if data is None else data)
    elif data is not None:
        sys.stdout.buffer.write(data)
        return
    # a text stream, which an in-process caller may swap for one without .buffer
    click.echo(text, nl=False)


def _rule_by_name(name: str) -> ScoringRule:
    return brier_rule() if name == "brier" else rps_rule()


def _palette_from(m: float, theta0: float, anchors: str | None) -> PaletteParams:
    if anchors is None:
        return PaletteParams(m=m, theta0=theta0)
    doc = load_json(anchors, "invalid hue anchor list")
    if not (isinstance(doc, list) and all(isinstance(a, list) and len(a) == 2 for a in doc)):
        raise SchemaError("hue anchor list must be a JSON array of [t, hue] pairs")
    table = tuple(json_floats(a, f"anchors[{i}]") for i, a in enumerate(doc))
    return PaletteParams(m=m, theta0=theta0, hue_anchors=table)


def _decomposition_summary(decomp: Decomposition, binned: BinnedStats) -> dict:
    decomp.check()
    return {
        "S": decomp.S,
        "U": decomp.U,
        "Z": decomp.Z,
        "R": decomp.R,
        "sqrtS": decomp.sqrt_S,
        "sqrtU": decomp.sqrt_U,
        "sqrtZ": decomp.sqrt_Z,
        "sqrtR": decomp.sqrt_R,
        "q_bar": list(decomp.q_bar.as_tuple()),
        "n_pairs": binned.n_pairs,
        "n_bins": len(binned.keys),
    }


_input_opt = click.option("--input", "-i", "input_path", default="-", show_default=True,
                          help="Input dataset (CSV or JSON); '-' reads stdin.")
_output_opt = click.option("--output", "-o", "output_path", default=None,
                           help="Output file; defaults to stdout.")
_score_opt = click.option("--score", "score_rule", type=click.Choice(["brier", "rps"]),
                          default="brier", show_default=True, help="Scoring rule.")
_nbins_opt = click.option("--nbins", type=int, default=11, show_default=True,
                          help="Simplex lattice resolution for binning.")
_threshold_opt = click.option("--threshold", type=int, default=10, show_default=True,
                              help="Minimum bin count for a dipole to be drawn.")
_m_opt = click.option("--m", type=float, default=0.7, show_default=True,
                      help="Saturation exponent of the palette.")
_theta0_opt = click.option("--theta0", type=float, default=0.0, show_default=True,
                           help="Palette rotation in radians.")
_anchors_opt = click.option("--anchors", default=None,
                            help="Hue anchor table as a JSON list of [t, hue] pairs.")


@click.group(cls=_Group)
@click.version_option(version=__version__)
def main():
    """Verification, colouring and recalibration of ternary forecasts."""


@main.command()
@_input_opt
@_output_opt
@click.option("--apply-map", "map_path", default=None,
              help="JSON file with 12 recalibration coefficients to apply.")
@click.option("--clip/--no-clip", default=False, show_default=True,
              help="Move recalibrated forecasts that leave the simplex to its "
                   "nearest point in Brier's triangle; acts only with --apply-map.")
def project(input_path, output_path, map_path, clip):
    """Resolve every record to a ternary forecast; write a JSON dataset.

    Observations are resolved to category labels at the same time, so
    the projected dataset stays verifiable after the Gaussian or
    ensemble context is dropped.
    """
    dataset = _read_dataset(input_path)
    mapping = _load_map(map_path) if map_path else None
    forecasts, obs = resolve_dataset(dataset)
    n_off = 0
    if mapping is not None:
        forecasts, n_off = map_forecasts(mapping, forecasts, clip=brier_rule() if clip else None)
    # resolved from valid records, so valid too
    records = tuple(_valid_record(r.lat, r.lon, p, None, None, o, None, None)
                    for r, p, o in zip(dataset.records, forecasts, obs))
    out = Dataset(records=records, q=dataset.q, metadata=dataset.metadata)
    _finish({
        "output": output_path,
        "n_records": len(records),
        "n_off_simplex": n_off,
    }, output_path, write_json(out))


@main.command(name="score")
@_input_opt
@_output_opt
@_score_opt
def score_cmd(input_path, output_path, score_rule):
    """Mean quadratic score of the observed records."""
    pairs = _read_pairs(input_path)
    rule = _rule_by_name(score_rule)
    mean = sum(score(rule, p.forecast, p.obs.to_ternary()) for p in pairs) / len(pairs)
    _finish({"rule": score_rule, "mean_score": mean, "n_pairs": len(pairs)}, output_path)


@main.command()
@_input_opt
@_output_opt
@_score_opt
@_nbins_opt
def verify(input_path, output_path, score_rule, nbins):
    """Bin forecasts and write the score decomposition S = U - Z + R."""
    pairs = _read_pairs(input_path)
    rule = _rule_by_name(score_rule)
    binned = bin_forecasts(pairs, nbins)
    decomp = decompose(rule, binned)
    summary = _decomposition_summary(decomp, binned)
    summary["rule"] = score_rule
    summary["nbins"] = nbins
    _finish(summary, output_path)


def _load_map(path: str) -> QuadraticMap:
    doc = load_json(Path(path).read_bytes(), "invalid coefficients file")
    coeffs = doc.get("coefficients") if isinstance(doc, dict) else doc
    if not (isinstance(coeffs, list) and len(coeffs) == 12):
        raise SchemaError("coefficients must be a JSON array of 12 numbers")
    return QuadraticMap(json_floats(coeffs, "coefficients"))


@main.command()
@_input_opt
@_output_opt
@_score_opt
@_nbins_opt
@click.option("--holdout", type=float, default=0.0, show_default=True,
              help="Trailing fraction of pairs reserved for evaluation.")
def calibrate(input_path, output_path, score_rule, nbins, holdout):
    """Fit the quadratic recalibration map and report before/after."""
    if not 0.0 <= holdout < 1.0:
        raise DomainError(f"holdout fraction {holdout} outside [0, 1)")
    pairs = _read_pairs(input_path)
    rule = _rule_by_name(score_rule)
    n_train = len(pairs) - int(round(holdout * len(pairs)))
    train = pairs[:n_train]
    evaluate = pairs[n_train:] if holdout > 0.0 else pairs
    if not train:
        raise DomainError("holdout leaves no training pairs")
    if not evaluate:
        raise DomainError("holdout leaves no evaluation pairs")
    mapping = fit_map(train, rule)
    report = recalibration_report(evaluate, mapping, rule, nbins)
    summary = {
        "rule": score_rule,
        "nbins": nbins,
        "holdout": holdout,
        "n_train": len(train),
        "n_eval": len(evaluate),
        "coefficients": list(mapping.coeffs),
        "mean_score_before": report.mean_score_before,
        "mean_score_after": report.mean_score_after,
        "n_off_simplex": report.n_off_simplex,
        "before": _decomposition_summary(report.before, report.binned_before),
        "after": _decomposition_summary(report.after, report.binned_after),
    }
    _finish(summary, output_path)


@main.command(name="render-map")
@_input_opt
@_output_opt
@_score_opt
@_nbins_opt
@_m_opt
@_theta0_opt
@_anchors_opt
@click.option("--show-skill-circles", is_flag=True, default=False,
              help="Draw skill circles from per-location verification history.")
@click.option("--cell-size", type=float, default=10.0, show_default=True)
@click.option("--width", type=int, default=720, show_default=True)
@click.option("--height", type=int, default=560, show_default=True)
@click.option("--min-pairs", type=int, default=10, show_default=True,
              help="Minimum per-location pairs needed for a circle.")
@click.option("--circle-scale", type=float, default=1.0, show_default=True,
              help="Circle radius in cells at skill 1.")
@click.option("--overlay", "overlay_path", default=None,
              help="JSON file of polylines (arrays of [lat, lon] pairs) drawn over the map.")
def render_map(input_path, output_path, score_rule, nbins, m, theta0, anchors,
               show_skill_circles, cell_size, width, height, min_pairs, circle_scale,
               overlay_path):
    """Render the forecast map as SVG."""
    dataset = _read_dataset(input_path)
    config = RenderConfig(
        width_px=width, height_px=height, cell_size_px=cell_size,
        show_skill_circles=show_skill_circles,
        palette=_palette_from(m, theta0, anchors),
        nbins=nbins, min_pairs_for_circle=min_pairs, circle_scale=circle_scale,
    )
    overlay = _load_overlay(overlay_path) if overlay_path else None
    data = render_forecast_map(dataset, config, _rule_by_name(score_rule), overlay)
    _finish({"output": output_path, "n_records": len(dataset.records), "n_drawn": data.n_drawn},
            output_path, data)


def _load_overlay(path: str) -> list[list[tuple[float, float]]]:
    doc = load_json(Path(path).read_bytes(), "invalid overlay file")
    if not (isinstance(doc, list) and all(isinstance(line, list) for line in doc)):
        raise SchemaError("overlay must be a JSON array of polylines")
    lines = []
    for i, line in enumerate(doc):
        points = []
        for j, point in enumerate(line):
            where = f"overlay[{i}][{j}]"
            if not (isinstance(point, list) and len(point) == 2):
                raise SchemaError("point must be a [lat, lon] pair", where)
            lat, lon = json_floats(point, where)
            check_lat_lon(lat, lon, where)
            points.append((lat, lon))
        lines.append(points)
    return lines


@main.command(name="render-reliability")
@_input_opt
@_output_opt
@_score_opt
@_nbins_opt
@_threshold_opt
@click.option("--width", type=int, default=760, show_default=True,
              help="SVG width in px; a positive width below 600 is drawn as 600.")
@click.option("--height", type=int, default=700, show_default=True,
              help="SVG height in px; a positive height below 600 is drawn as 600.")
def render_reliability(input_path, output_path, score_rule, nbins, threshold, width, height):
    """Render the ternary reliability diagram as SVG."""
    pairs = _read_pairs(input_path)
    rule = _rule_by_name(score_rule)
    binned = bin_forecasts(pairs, nbins)
    decomp = decompose(rule, binned)
    config = RenderConfig(width_px=width, height_px=height, dipole_threshold=threshold)
    data = render_reliability_diagram(binned, decomp, config, rule)
    _finish({"output": output_path, "n_bins": len(binned.keys), "n_dipoles": data.n_drawn},
            output_path, data)


@main.command()
@_output_opt
@click.option("--q", "q_text", default="1/3,1/3,1/3", show_default=True,
              help="Climatology as three comma-separated values (fractions allowed).")
@_m_opt
@_theta0_opt
@_anchors_opt
@click.option("--size", type=int, default=24, show_default=True,
              help="Lattice resolution of the legend.")
def palette(output_path, q_text, m, theta0, anchors, size):
    """Render the colour palette legend as SVG."""
    parts = q_text.split(",")
    if len(parts) != 3:
        raise SchemaError(f"q must have three components, got {q_text!r}")
    vals = []
    for part in parts:
        part = part.strip()
        try:
            if "/" in part:
                num, den = part.split("/")
                vals.append(float(num) / float(den))
            else:
                vals.append(float(part))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"invalid climatology component {part!r}") from None
    q = make_climatology(vals)
    data = render_palette_legend(q, _palette_from(m, theta0, anchors), size)
    _finish({"output": output_path, "size": size}, output_path, data)


def run():
    try:
        main()
    finally:
        # the exit-time full collection, which gc.disable() does not skip, walks all that numpy,
        # click and triscore loaded: 22-38 ms on a 2-core VM; a frozen heap exits in 8-11 ms
        gc.freeze()


if __name__ == "__main__":
    run()
