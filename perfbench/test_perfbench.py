"""Smoke tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "stages.json").read_text(encoding="utf-8"))["layers"]
PER_COMMAND = {
    "ternary-verify": {"score_s", "verify_s", "calibrate_s"},
    "ingest-project": {"project_gauss_s", "project_ens_s", "project_map_s"},
    "map-render": {"render_map_s", "render_circles_s", "render_reliability_s"},
}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def result(workload, trace):
    """The result line's metrics and the readable table's metric names."""
    proc = run("--workload", workload, "--seed", "5", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stderr
    table = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")}
    return doc["metrics"], table


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    metrics, table = result(workload, 0)
    assert PER_COMMAND[workload] <= table
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == units
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_metrics(workload):
    metrics, table = result(workload, 1)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == units
    assert all(m["value"] > 0 for m in metrics.values())
    # the readable table has every registry metric of the layers the
    # workload calls, and none of a layer it never calls
    for name, spec in LAYERS.items():
        if workload in spec["moves"]:
            assert name in table, name
    never = {
        "ternary-verify": ("gaussian.", "colors.", "svg.", "datasets.write_json", "datasets.parse_csv"),
        "ingest-project": ("verification.", "colors.", "svg.", "scoring."),
        "map-render": ("gaussian.", "recalibration.", "datasets.write_json", "datasets.parse_csv"),
    }[workload]
    assert not [name for name in table if name.startswith(never)]


def test_registry_matches_benchmark_json():
    # BENCHMARK.json lists the registry metrics that every workload calls
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, spec["unit"], spec["better"]) for name, spec in LAYERS.items()
        if set(spec["moves"]) == set(workloads.WORKLOADS)
    ]
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(e2e) == {"setup_s", "pass_rel", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for spec in LAYERS.values():
        for workload, moved in spec["moves"].items():
            assert set(moved) <= PER_COMMAND[workload]
    baseline = json.loads((HERE / "stages.json").read_text())["roadmap_baseline"]
    assert all(alias == "about" or metric in LAYERS for alias, metric in baseline.items())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    def files(seed, where):
        where.mkdir()
        workloads.WORKLOADS[workload](np.random.default_rng(seed), workloads.SIZES["smoke"], where)
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    first = files(7, tmp_path / "a")
    assert first == files(7, tmp_path / "b")
    assert first != files(8, tmp_path / "c")


def test_checks_reject_wrong_outputs(tmp_path):
    score, verify, calibrate = workloads.ternary_verify(
        np.random.default_rng(3), workloads.SIZES["smoke"], tmp_path)
    assert score.check(json.dumps({"mean_score": 0.123, "n_pairs": score.records}))
    assert verify.check(json.dumps({"S": 0.3, "U": 0.2, "Z": 0.1, "R": 0.1}))
    assert calibrate.check("not json")


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("--workload", "map-render", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
