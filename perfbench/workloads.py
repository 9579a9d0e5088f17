"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

Each workload function draws its inputs from the seed, writes the files the CLI
reads, and returns the workload's commands.  Every command carries the
check for its output, with the expected values already computed by
``oracle`` from the generated arrays.  A check returns a list of
problems; an empty list means the output is correct.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

#: The datasets' default climatology, which every generated input uses.
Q = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
_LABELS = np.array(["B", "N", "A"])

#: Input sizes.  "full" keeps each command near a second on a 2-core VM,
#: so a 40-second window holds several passes; "smoke" keeps every
#: workload near 10^3 records.
SIZES = {
    "full": {"verify": 25_000, "gauss": 12_500, "ens": 2_500, "mapped": 12_500,
             "grid": (20, 40, 20)},
    "smoke": {"verify": 1_000, "gauss": 1_000, "ens": 200, "mapped": 1_000,
              "grid": (10, 10, 10)},
}
MEMBERS, SERIES = 20, 30

#: The fixed recalibration map of ``project --apply-map``.  It sharpens
#: every forecast, which sends about half of Dirichlet(1,1,1) forecasts
#: off the simplex.
FIXED_MAP = (-0.15, 1.45, 0.1, 0.05, 0.0, -0.05,
             -0.15, 0.1, 1.45, -0.05, 0.0, 0.05)

_IDENTITY_TOL = 1e-10


@dataclass
class Command:
    metric: str                      # end-to-end metric of its wall time
    argv: list[str]                  # arguments after ``python -m triscore.cli``
    records: int                     # records the command reads
    check: Callable[[str], list[str]]  # stdout -> problems


def _close(problems: list[str], what: str, got, want, tol: float) -> None:
    try:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{what}: {got!r} is not numeric")
        return
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape} != {want.shape}")
        return
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        problems.append(f"{what}: off by {err:.3e} > {tol:g}")


def _equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: {got!r} != {want!r}")


def _summary(stdout: str, problems: list[str]) -> dict:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        problems.append(f"stdout is not a JSON summary: {e}")
        return {}
    return doc if isinstance(doc, dict) else {}


def _categories(rng, law: np.ndarray) -> np.ndarray:
    u = rng.random(len(law))
    return (u[:, None] > np.cumsum(law, axis=1)[:, :2]).sum(axis=1)


def _write_ternary_json(path: Path, lat, lon, p, obs) -> None:
    records = [
        {"lat": a, "lon": b, "pB": pb, "pN": pn, "pA": pa, "obs": o}
        for a, b, (pb, pn, pa), o in zip(lat.tolist(), lon.tolist(), p.tolist(),
                                          _LABELS[obs].tolist())
    ]
    path.write_text(json.dumps({"records": records}), encoding="utf-8")


def _read_projected(path: Path, problems: list[str]):
    """Triples and category indices of a projected dataset, by value."""
    try:
        records = json.loads(path.read_text(encoding="utf-8"))["records"]
        p = np.array([[r["pB"], r["pN"], r["pA"]] for r in records], dtype=float)
        obs = np.array(["BNA".index(r["obs"]) for r in records], dtype=np.int64)
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"cannot read {path.name}: {e}")
        return None, None
    if len(p) and not ((p >= 0.0).all() and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9):
        problems.append(f"{path.name}: a triple is off the simplex")
    return p.reshape(-1, 3), obs


def _decomposition_problems(problems, what, doc, want, n_pairs) -> None:
    terms = [doc.get(k) for k in ("S", "U", "Z", "R")]
    if not all(isinstance(t, float) for t in terms):
        problems.append(f"{what}: S, U, Z, R missing")
        return
    S, U, Z, R = terms
    _close(problems, f"{what} |S-(U-Z+R)|", S - (U - Z + R), 0.0, _IDENTITY_TOL)
    for k, v in zip("SUZR", terms):
        _close(problems, f"{what} {k}", v, want[k][0], _IDENTITY_TOL)
    _close(problems, f"{what} q_bar", doc.get("q_bar"), want["q_bar"][0], 1e-12)
    _equal(problems, f"{what} n_pairs", doc.get("n_pairs"), n_pairs)
    _equal(problems, f"{what} n_bins", doc.get("n_bins"), int(want["n_bins"][0]))


def ternary_verify(rng, size: dict, workdir: Path) -> list[Command]:
    """Over-confident Dirichlet(1,1,1) forecasts, scored, verified, recalibrated."""
    n = size["verify"]
    p = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    law = np.sqrt(p)  # flatter than the forecast: forecasts are over-confident
    law /= law.sum(axis=1, keepdims=True)
    obs = _categories(rng, law)
    path = workdir / "verify.json"
    _write_ternary_json(path, rng.uniform(-60, 60, n), rng.uniform(-170, 170, n), p, obs)
    src = str(path)

    score_want = oracle.mean_score("brier", p, obs)
    verify_want = oracle.decompose("rps", p, obs, 11)
    n_eval = int(round(0.25 * n))
    p_eval, obs_eval = p[n - n_eval:], obs[n - n_eval:]
    before_want = oracle.decompose("brier", p_eval, obs_eval, 11)
    before_score = oracle.mean_score("brier", p_eval, obs_eval)

    def check_score(stdout):
        problems = []
        doc = _summary(stdout, problems)
        _close(problems, "mean_score", doc.get("mean_score"), score_want, 1e-12)
        _equal(problems, "n_pairs", doc.get("n_pairs"), n)
        return problems

    def check_verify(stdout):
        problems = []
        _decomposition_problems(problems, "verify", _summary(stdout, problems), verify_want, n)
        return problems

    def check_calibrate(stdout):
        problems = []
        doc = _summary(stdout, problems)
        _equal(problems, "n_train", doc.get("n_train"), n - n_eval)
        _equal(problems, "n_eval", doc.get("n_eval"), n_eval)
        _decomposition_problems(problems, "before", doc.get("before", {}), before_want, n_eval)
        after = doc.get("after", {})
        if isinstance(after.get("S"), float):
            S, U, Z, R = (after[k] for k in "SUZR")
            _close(problems, "after |S-(U-Z+R)|", S - (U - Z + R), 0.0, _IDENTITY_TOL)
        else:
            problems.append("after: S, U, Z, R missing")
        before, after_score = doc.get("mean_score_before"), doc.get("mean_score_after")
        _close(problems, "mean_score_before", before, before_score, 1e-12)
        coeffs = doc.get("coefficients")
        if not (isinstance(coeffs, list) and len(coeffs) == 12):
            problems.append("coefficients: not 12 numbers")
            return problems
        if not (isinstance(after_score, float) and after_score <= before):
            problems.append(f"mean_score_after {after_score!r} > before {before!r}")
        mapped, off = oracle.apply_map(coeffs, p_eval)
        _close(problems, "mean_score_after", after_score,
               oracle.mean_score("brier", mapped, obs_eval), 1e-10)
        _equal(problems, "n_off_simplex", doc.get("n_off_simplex"), int(off.sum()))
        return problems

    return [
        Command("score_s", ["score", "-i", src, "--score", "brier"], n, check_score),
        Command("verify_s", ["verify", "-i", src, "--score", "rps", "--nbins", "11"], n,
                check_verify),
        Command("calibrate_s", ["calibrate", "-i", src, "--score", "brier", "--holdout", "0.25"],
                n, check_calibrate),
    ]


def _project_check(out: Path, n: int, p_want, obs_want, n_off: int, tol: float):
    def check(stdout):
        problems = []
        doc = _summary(stdout, problems)
        _equal(problems, "n_records", doc.get("n_records"), n)
        _equal(problems, "n_off_simplex", doc.get("n_off_simplex"), n_off)
        p, obs = _read_projected(out, problems)
        if p is not None:
            _close(problems, f"{out.name} triples", p, p_want, tol)
            if not np.array_equal(obs, obs_want):
                problems.append(f"{out.name}: observed categories differ")
        return problems

    return check


def ingest_project(rng, size: dict, workdir: Path) -> list[Command]:
    """Gaussian CSV, ensemble JSON and map-applied ternary JSON, projected to files."""
    n = size["gauss"]
    mu_c = rng.normal(15.0, 8.0, n)
    sigma_c = rng.uniform(1.0, 4.0, n)
    mu = mu_c + sigma_c * rng.normal(0.0, 0.8, n)
    sigma = sigma_c * rng.uniform(0.3, 1.2, n)
    obs_value = rng.normal(mu, sigma)
    lat, lon = rng.uniform(-60, 60, n), rng.uniform(-170, 170, n)
    gauss = workdir / "gauss.csv"
    cols = np.stack([lat, lon, mu, sigma, mu_c, sigma_c, obs_value], axis=1).tolist()
    gauss.write_text(
        "lat,lon,mu,sigma,mu_c,sigma_c,obs_value\n"
        + "".join(",".join(map(repr, row)) + "\n" for row in cols),
        encoding="utf-8",
    )
    gauss_p, gauss_x = oracle.gaussian_ternary(mu, sigma, mu_c, sigma_c, Q)
    gauss_obs = oracle.categorise(obs_value, gauss_x)

    n_ens = size["ens"]
    centre = rng.normal(0.0, 3.0, (n_ens, 1))
    spread = rng.uniform(0.5, 2.0, (n_ens, 1))
    shift = rng.normal(0.0, 1.0, (n_ens, 1))
    series = centre + spread * rng.normal(0.0, 1.0, (n_ens, SERIES))
    members = centre + spread * (shift + 0.6 * rng.normal(0.0, 1.0, (n_ens, MEMBERS)))
    ens_value = (centre + spread * (shift + 0.8 * rng.normal(0.0, 1.0, (n_ens, 1))))[:, 0]
    ens = workdir / "ensemble.json"
    ens_lat, ens_lon = rng.uniform(-60, 60, n_ens), rng.uniform(-170, 170, n_ens)
    ens.write_text(json.dumps({"records": [
        {"lat": a, "lon": b, "members": m, "series": s, "obs_value": v}
        for a, b, m, s, v in zip(ens_lat.tolist(), ens_lon.tolist(), members.tolist(),
                                 series.tolist(), ens_value.tolist())
    ]}), encoding="utf-8")
    ens_p, ens_x = oracle.ensemble_ternary(members, series, Q)
    ens_obs = oracle.categorise(ens_value, ens_x)

    n_map = size["mapped"]
    p = rng.dirichlet((1.0, 1.0, 1.0), size=n_map)
    obs = _categories(rng, p)
    mapped = workdir / "mapped.json"
    _write_ternary_json(mapped, rng.uniform(-60, 60, n_map), rng.uniform(-170, 170, n_map),
                        p, obs)
    map_file = workdir / "map.json"
    map_file.write_text(json.dumps({"coefficients": list(FIXED_MAP)}), encoding="utf-8")
    t, off = oracle.apply_map(FIXED_MAP, p)
    t[off] = oracle.project_to_simplex(t[off])

    outs = {k: workdir / f"{k}.out.json" for k in ("gauss", "ens", "map")}
    return [
        Command("project_gauss_s", ["project", "-i", str(gauss), "-o", str(outs["gauss"])], n,
                _project_check(outs["gauss"], n, gauss_p, gauss_obs, 0, 1e-9)),
        Command("project_ens_s", ["project", "-i", str(ens), "-o", str(outs["ens"])], n_ens,
                _project_check(outs["ens"], n_ens, ens_p, ens_obs, 0, 1e-12)),
        Command("project_map_s", ["project", "-i", str(mapped), "--apply-map", str(map_file),
                                  "--clip", "-o", str(outs["map"])], n_map,
                _project_check(outs["map"], n_map, t, obs, int(off.sum()), 1e-9)),
    ]


def _svg_prefix(path: Path, problems: list[str]) -> str:
    """The document up to its embedded legend (the whole document if none)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        problems.append(f"cannot read {path.name}: {e}")
        return ""
    if not (text.startswith("<svg ") and text.endswith("</svg>\n")):
        problems.append(f"{path.name}: not a complete SVG document")
    return text.split('<g id="legend">')[0]


def map_render(rng, size: dict, workdir: Path) -> list[Command]:
    """A lat/lon grid of locations, each with one forecast per season."""
    n_lat, n_lon, seasons = size["grid"]
    n_loc = n_lat * n_lon
    n = n_loc * seasons
    # smooth random fields over the grid: forecast concentration, and the
    # exponent of the observation law (negative: forecasts point the wrong way)
    yy, xx = np.meshgrid(np.linspace(0, np.pi, n_lat), np.linspace(0, 2 * np.pi, n_lon),
                         indexing="ij")
    phase = rng.uniform(0, 2 * np.pi, 4)
    conc = np.exp(1.2 * np.sin(2 * yy + phase[0]) * np.cos(xx + phase[1])).ravel()
    power = (0.5 + 1.5 * np.sin(yy + phase[2]) * np.cos(2 * xx + phase[3])).ravel()
    loc = np.repeat(np.arange(n_loc), seasons)
    gamma = rng.gamma(np.repeat(conc, seasons)[:, None], size=(n, 3))
    p = gamma / gamma.sum(axis=1, keepdims=True)
    law = (p + 1e-9) ** power[loc][:, None]
    law /= law.sum(axis=1, keepdims=True)
    obs = _categories(rng, law)
    lat = (-78.0 + 4.0 * (loc // n_lon)).astype(float)
    lon = (-148.0 + 4.0 * (loc % n_lon)).astype(float)
    path = workdir / "grid.json"
    _write_ternary_json(path, lat, lon, p, obs)
    src = str(path)

    per_loc = oracle.decompose("brier", p, obs, 11, group=loc)
    positive = (per_loc["Z"] > 0.0) & (per_loc["Z"] > per_loc["R"])
    n_circles = int(positive.sum()) * seasons  # every location has >= 10 pairs
    binned = oracle.decompose("brier", p, obs, 11)
    n_bins = int(binned["n_bins"][0])
    n_dipoles = int((binned["bin_counts"] >= 10).sum())
    outs = {k: workdir / f"{k}.svg" for k in ("map", "circles", "reliability")}

    def shape_check(out: Path, shape: str, want: int):
        def check(stdout):
            problems = []
            _equal(problems, "n_records", _summary(stdout, problems).get("n_records"), n)
            _equal(problems, f"{shape} count", _svg_prefix(out, problems).count(f"<{shape} "),
                   want)
            return problems

        return check

    def check_reliability(stdout):
        problems = []
        doc = _summary(stdout, problems)
        _equal(problems, "n_bins", doc.get("n_bins"), n_bins)
        _equal(problems, "n_dipoles", doc.get("n_dipoles"), n_dipoles)
        _equal(problems, "dipoles drawn", _svg_prefix(outs["reliability"], problems)
               .count("<g>"), n_dipoles)
        return problems

    return [
        Command("render_map_s", ["render-map", "-i", src, "-o", str(outs["map"])], n,
                shape_check(outs["map"], "rect", n)),
        Command("render_circles_s", ["render-map", "-i", src, "-o", str(outs["circles"]),
                                     "--show-skill-circles"], n,
                shape_check(outs["circles"], "circle", n_circles)),
        Command("render_reliability_s", ["render-reliability", "-i", src, "-o",
                                         str(outs["reliability"]), "--threshold", "10"], n,
                check_reliability),
    ]


WORKLOADS = {
    "ternary-verify": ternary_verify,
    "ingest-project": ingest_project,
    "map-render": map_render,
}
