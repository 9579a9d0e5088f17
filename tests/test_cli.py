import codecs
import gc
import importlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from triscore import (
    UNIFORM,
    BinnedStats,
    Dataset,
    Decomposition,
    bin_forecasts,
    brier_rule,
    make_ternary,
    pairs_from_dataset,
    parse_json,
    rps_rule,
    write_json,
)
from triscore.cli import _decomposition_summary, main, run
from triscore.errors import DomainError
from triscore.recalibration import QuadraticMap

from conftest import frozen_dataset
from test_datasets import assert_template_exact


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dataset_json(tmp_path):
    path = tmp_path / "ds.json"
    path.write_bytes(write_json(frozen_dataset()))
    return str(path)


@pytest.fixture
def dataset_csv(tmp_path):
    ds = frozen_dataset()
    lines = ["lat,lon,pB,pN,pA,obs"]
    for r in ds.records:
        lines.append(
            f"{r.lat},{r.lon},{r.ternary.pB!r},{r.ternary.pN!r},{r.ternary.pA!r},{r.obs.value}"
        )
    path = tmp_path / "ds.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def assert_fails_cleanly(result, code):
    """Exit ``code`` with one ``error:`` line on stderr and no traceback."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert "Traceback" not in result.output


# deeper than the JSON decoder's recursion limit
DEEP_JSON = "[" * 5000 + "]" * 5000

# one input per subcommand that must end in exit 2 or 3; "{ds}" is a valid
# dataset, "{deep}" a file holding DEEP_JSON, "{out}" a path that does not exist
FAILING_INPUTS = {
    "calibrate": (["-i", "{ds}", "--holdout", "1"], 3),
    "palette": (["-o", "{out}", "--q", "0.5,0.5"], 2),
    "project": (["-i", "{ds}", "-o", "{out}/x.json"], 2),
    "render-map": (["-i", "{ds}", "-o", "{out}", "--cell-size", "nan"], 3),
    "render-reliability": (["-i", "{ds}", "-o", "{out}", "--threshold", "-1"], 3),
    "score": (["-i", "{out}"], 2),
    "verify": (["-i", "{ds}", "--nbins", "0"], 3),
}


def fill_paths(args, dataset_path, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    paths = {"ds": dataset_path, "deep": str(deep), "out": str(tmp_path / "out")}
    return [a.format(**paths) for a in args]


def assert_summary_bytes(result, summary):
    """stdout is exactly ``summary`` in the one layout every command writes."""
    assert result.stdout_bytes == (json.dumps(summary, indent=2) + "\n").encode()


def run_json(runner, args, **kw):
    result = runner.invoke(main, args, **kw)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestVerify:
    def test_summary_fields_and_identity(self, runner, dataset_csv):
        out = run_json(runner, ["verify", "-i", dataset_csv, "--score", "brier"])
        for key in ("S", "U", "Z", "R", "sqrtS", "sqrtU", "sqrtZ", "sqrtR",
                    "q_bar", "n_pairs", "n_bins"):
            assert key in out
        assert abs(out["S"] - (out["U"] - out["Z"] + out["R"])) <= 1e-10
        assert out["n_pairs"] == 240

    def test_perfect_forecasts_have_zero_score(self, runner, tmp_path):
        lines = ["lat,lon,pB,pN,pA,obs"]
        for obs, p in (("B", "1,0,0"), ("N", "0,1,0"), ("A", "0,0,1")):
            lines.append(f"0,0,{p},{obs}")
        path = tmp_path / "perfect.csv"
        path.write_text("\n".join(lines) + "\n")
        out = run_json(runner, ["verify", "-i", str(path)])
        assert out["S"] == pytest.approx(0.0, abs=1e-15)
        assert out["R"] == pytest.approx(0.0, abs=1e-15)

    def test_rps_rule_selected(self, runner, dataset_csv):
        brier = run_json(runner, ["verify", "-i", dataset_csv, "--score", "brier"])
        rps = run_json(runner, ["verify", "-i", dataset_csv, "--score", "rps"])
        assert brier["S"] != rps["S"]

    @pytest.mark.parametrize("command, count", [
        ("score", "n_pairs"), ("verify", "n_pairs"), ("calibrate", "n_eval"),
    ], ids=["score", "verify", "calibrate"])
    def test_writes_output_file(self, runner, dataset_csv, tmp_path, command, count):
        # the summary is these commands' artefact: -o FILE holds what stdout prints
        out_path = tmp_path / "summary.json"
        result = runner.invoke(main, [command, "-i", dataset_csv, "-o", str(out_path)])
        assert result.exit_code == 0, result.output
        summary = json.loads(out_path.read_bytes())
        assert summary[count] == 240
        assert out_path.read_bytes() == result.stdout_bytes
        assert_summary_bytes(result, summary)

    def test_stdin_json(self, runner):
        data = write_json(frozen_dataset())
        out = run_json(runner, ["verify", "-i", "-"], input=data)
        assert out["n_pairs"] == 240

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_order_mark(self, runner, tmp_path, dataset_json, dataset_csv, fmt):
        # as written by spreadsheet "CSV UTF-8" exports: skipped, on stdin too
        path = Path(dataset_json if fmt == "json" else dataset_csv)
        want = run_json(runner, ["verify", "-i", str(path)])
        marked = tmp_path / f"bom.{fmt}"
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert run_json(runner, ["verify", "-i", str(marked)]) == want
        assert run_json(runner, ["verify", "-i", "-"], input=marked.read_bytes()) == want

    @pytest.mark.parametrize("command, option, content", [
        ("project", "--apply-map", b"[0.05, 0.9, 0, 0, 0, 0, 0.05, 0, 0.9, 0, 0, 0]"),
        ("render-map", "--overlay", b"[[[0.0, 0.0], [1.5, 2.0], [3.0, 4.0]]]"),
    ], ids=["coefficients", "overlay"])
    def test_byte_order_mark_in_side_file(self, runner, tmp_path, dataset_json, command,
                                          option, content):
        side, out = tmp_path / "side.json", tmp_path / "out"
        outputs = []
        for mark in (b"", codecs.BOM_UTF8):
            side.write_bytes(mark + content)
            result = runner.invoke(main, [command, "-i", dataset_json, "-o", str(out),
                                          option, str(side)])
            assert result.exit_code == 0, result.output
            outputs.append((result.output, out.read_bytes()))
        assert outputs[0] == outputs[1]


class TestVersion:
    def test_version_from_source_tree(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert "0.1.0" in result.output


class TestExitCodes:
    def test_schema_error_is_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lat,lon,pB,pN,pA\n0,0,0.5,0.3,0.1\n")
        result = runner.invoke(main, ["verify", "-i", str(bad)])
        assert result.exit_code == 2
        for name, text, message in [
            ("empty.csv", "", "empty CSV input"),
            ("q.json", '{"q": [0.5, 0.5, 0.5], "records": []}',
             "q: invalid climatology q: probabilities sum to 1.5, not 1"),
            ("meta.json", '{"metadata": {"a": 1}, "records": []}',
             "metadata: metadata must map strings to strings"),
            # q, then the metadata, are named before a bad record
            ("q-record.json", '{"q": [0.5, 0.5, 0.5], "metadata": {"a": 1}, '
             '"records": [{"lat": 0}]}', "q: invalid climatology q: probabilities sum to 1.5, not 1"),
            ("meta-record.json", '{"metadata": {"a": 1}, "records": [{"lat": true}]}',
             "metadata: metadata must map strings to strings"),
        ]:
            (tmp_path / name).write_text(text)
            result = runner.invoke(main, ["verify", "-i", str(tmp_path / name)])
            assert_fails_cleanly(result, 2)
            assert result.stderr == f"error: {message}\n"

    def test_domain_error_is_3(self, runner, tmp_path):
        # schema-valid dataset with no observations cannot be verified
        empty = tmp_path / "noobs.csv"
        empty.write_text("lat,lon,pB,pN,pA\n0,0,1,0,0\n")
        result = runner.invoke(main, ["verify", "-i", str(empty)])
        assert result.exit_code == 3

    def test_render_map_without_records_is_3(self, runner, tmp_path):
        src = tmp_path / "none.json"
        src.write_text('{"records": []}')
        result = runner.invoke(main, ["render-map", "-i", str(src), "-o", str(tmp_path / "x.svg")])
        assert_fails_cleanly(result, 3)
        assert result.stderr == "error: dataset has no records to draw\n"

    def test_missing_file_is_2(self, runner):
        result = runner.invoke(main, ["verify", "-i", "/nonexistent/x.csv"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name, content, message", [
        ("ds.json", '{"records": [{"lat": 0, "lon": 0, "pB": 1e308, "pN": 1e308, "pA": 0, '
         '"obs": "B"}]}', "records[0]: probabilities sum to inf, not 1"),
        ("ds.csv", "lat,lon,pB,pN,pA,obs\n0,0,1e308,1e308,0,B\n",
         "row 2: probabilities sum to inf, not 1"),
        ("ds.json", '{"records": [{"lat": 0, "lon": 0, "pB": 0, "pN": Infinity, '
         '"pA": -Infinity, "obs": "B"}]}', "records[0].pN: pN must be a finite number"),
        ("ds.csv", "lat,lon,pB,pN,pA,obs\n0,0,0,inf,-inf,B\n", "row 2: pN is not finite: 'inf'"),
    ], ids=["json-overflow", "csv-overflow", "json-inf-minus-inf", "csv-inf-minus-inf"])
    def test_triple_sum_beyond_the_floats_is_one_line_2(self, runner, tmp_path, name, content,
                                                        message):
        # numpy's overflow or invalid-value warning would be a second line, or
        # under filterwarnings = error the exception that ends the command
        path = tmp_path / name
        path.write_text(content)
        result = runner.invoke(main, ["score", "-i", str(path)])
        assert_fails_cleanly(result, 2)
        assert result.stderr == f"error: {message}\n"

    def test_directory_input_is_2(self, runner, tmp_path):
        assert_fails_cleanly(runner.invoke(main, ["score", "-i", str(tmp_path)]), 2)

    @pytest.mark.parametrize("args", [
        ["render-map", "--width", "0"],
        ["render-map", "--height", "-1"],
        ["render-map", "--cell-size", "0"],
        ["render-reliability", "--threshold", "-1"],
        ["render-map", "--min-pairs", "-1", "--show-skill-circles"],
        ["render-map", "--cell-size", "nan"],
        ["render-map", "--circle-scale", "-1", "--show-skill-circles"],
        ["render-map", "--circle-scale", "nan"],
        ["render-map", "--m", "nan"],
        ["render-reliability", "--nbins", "501"],
        ["render-reliability", "--nbins", "2147483648"],
        ["render-map", "--cell-size", "200"],
        ["render-map", "--cell-size", "1e308"],
        ["render-map", "--cell-size", "70"],
        ["render-map", "--cell-size", "20", "--width", "160"],
        ["render-map", "--width", str(10**400)],
        ["render-map", "--height", str(10**400)],
        ["render-reliability", "--width", str(10**400)],
        ["render-reliability", "--height", str(10**400)],
        ["render-map", "--circle-scale", "1e308", "--show-skill-circles"],
    ], ids=["width", "height", "cell-size", "threshold", "min-pairs", "cell-size-nan",
            "circle-scale-neg", "circle-scale-nan", "m-nan", "nbins-501", "nbins-2^31",
            "cell-size-200", "cell-size-1e308", "cell-size-height", "cell-size-width",
            "map-width-10^400", "map-height-10^400", "reliability-width-10^400",
            "reliability-height-10^400", "circle-radius-inf"])
    def test_bad_render_size_is_3(self, runner, dataset_json, tmp_path, args):
        result = runner.invoke(main, [*args, "-i", dataset_json, "-o", str(tmp_path / "x.svg")])
        assert_fails_cleanly(result, 3)

    def test_map_beyond_float_range_is_3(self, runner, tmp_path):
        # one row of records: the lat span is taken as 1e-9, so the y scale overflows
        src = tmp_path / "row.csv"
        src.write_text("lat,lon,pB,pN,pA\n0,0,0.2,0.3,0.5\n0,1,0.3,0.3,0.4\n")
        result = runner.invoke(main, ["render-map", "-i", str(src), "-o", str(tmp_path / "x.svg"),
                                      "--height", str(10**300)])
        assert_fails_cleanly(result, 3)
        assert "720 x 1e+300 px" in result.stderr

    @pytest.mark.parametrize("args", [
        ["render-map", "--cell-size", "69.9"],
        ["render-map", "--cell-size", "19.9", "--width", "160"],
        ["render-reliability", "--width", "50"],
        ["render-map", "--circle-scale", "1e308"],  # drawn without circles, so unused
    ], ids=["cell-size-height", "cell-size-width", "reliability-width", "circle-scale-unused"])
    def test_render_size_inside_bound_is_0(self, runner, dataset_json, tmp_path, args):
        result = runner.invoke(main, [*args, "-i", dataset_json, "-o", str(tmp_path / "x.svg")])
        assert result.exit_code == 0, result.output

    def test_palette_size_zero_is_3(self, runner, tmp_path):
        for size in ("0", "501", "2147483648"):
            args = ["palette", "-o", str(tmp_path / "x.svg"), "--size", size]
            assert_fails_cleanly(runner.invoke(main, args), 3)

    @pytest.mark.parametrize("args", [["--m", "inf"], ["--theta0", "nan"]],
                             ids=["m-inf", "theta0-nan"])
    def test_non_finite_palette_option_is_3(self, runner, tmp_path, args):
        result = runner.invoke(main, ["palette", "-o", str(tmp_path / "x.svg"), *args])
        assert_fails_cleanly(result, 3)

    @pytest.mark.parametrize("args, prefix", [
        (["score", "-i", "{deep}"], "invalid JSON"),
        (["project", "-i", "{ds}", "-o", "{out}", "--apply-map", "{deep}"],
         "invalid coefficients file"),
        (["render-map", "-i", "{ds}", "-o", "{out}", "--overlay", "{deep}"],
         "invalid overlay file"),
        (["palette", "-o", "{out}", "--anchors", DEEP_JSON], "invalid hue anchor list"),
    ], ids=["input", "apply-map", "overlay", "anchors"])
    def test_deeply_nested_json_is_2(self, runner, dataset_json, tmp_path, args, prefix):
        result = runner.invoke(main, fill_paths(args, dataset_json, tmp_path))
        assert_fails_cleanly(result, 2)
        assert result.stderr.startswith(f"error: {prefix}: ")

    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_every_command_fails_cleanly(self, runner, dataset_json, tmp_path, command):
        assert set(FAILING_INPUTS) == set(main.commands)
        args, code = FAILING_INPUTS[command]
        result = runner.invoke(main, fill_paths([command, *args], dataset_json, tmp_path))
        assert_fails_cleanly(result, code)

    def test_error_messages_name_offending_row(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lat,lon,pB,pN,pA\n0,0,1,0,0\n0,1,0.5,0.3,0.1\n")
        result = runner.invoke(main, ["verify", "-i", str(bad)])
        assert result.exit_code == 2
        assert "row 3" in result.output

    @pytest.mark.parametrize("command", ["score", "project"])
    def test_parse_error_names_row_and_resolve_error_names_record(
            self, runner, tmp_path, command):
        # the offending record is file row 4 (header row 1, a blank row 3)
        # but records[1]: parse errors count file rows, resolve errors records
        head = "lat,lon,mu,sigma,mu_c,sigma_c,obs_value\n0,0,1,1,0,1,0\n\n"
        for name, row, code, message in [
            ("parse.csv", "0,0,abc,1,-1e308,1,0", 2, "row 4: mu is not a number: 'abc'"),
            ("resolve.csv", "0,0,1e308,1,-1e308,1,0", 3,
             "records[1]: scaled parameters must be finite"),
        ]:
            path = tmp_path / name
            path.write_text(head + row + "\n")
            args = [command, "-i", str(path)]
            if command == "project":
                args += ["-o", str(tmp_path / "out.json")]
            result = runner.invoke(main, args)
            assert_fails_cleanly(result, code)
            assert result.stderr == f"error: {message}\n"

    def test_identity_guard_is_invalid_decomposition(self):
        broken = Decomposition(S=0.5 + 1e-6, U=0.6, Z=0.2, R=0.1, q_bar=UNIFORM)
        with pytest.raises(DomainError, match=r"^decomposition identity violated by 1\.000e-06$"):
            _decomposition_summary(
                broken, BinnedStats(np.zeros((0, 3), int), np.zeros((0, 3), int), 11))


class TestCollectorPause:
    """Each run pauses the cyclic collector and gives the caller's setting back."""

    @pytest.fixture
    def collections(self):
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])
        gc.callbacks.append(count)
        yield started
        gc.callbacks.remove(count)

    def test_no_collection_during_a_command(self, runner, dataset_json, collections):
        out = run_json(runner, ["score", "-i", dataset_json])
        assert out["n_pairs"] == 240
        assert collections == []

    @pytest.mark.parametrize("args, code", [
        (["score", "-i", "{ds}"], 0),
        (["score", "-i", "{deep}"], 2),
        (["verify", "-i", "{ds}", "--nbins", "0"], 3),
        (["--help"], 0),
    ], ids=["exit-0", "schema-error", "domain-error", "help"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_caller_setting_restored(self, runner, dataset_json, tmp_path, args, code, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            result = runner.invoke(main, fill_paths(args, dataset_json, tmp_path))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert result.exit_code == code, result.output
        # only a process's own exit freezes the heap, never an in-process caller's
        assert gc.get_freeze_count() == 0

    def test_import_leaves_collector_on(self):
        proc = run_fresh("import gc, triscore.cli; print(gc.isenabled(), gc.get_freeze_count())")
        assert (proc.returncode, proc.stdout) == (0, "True 0\n"), proc.stderr


def run_fresh(code, *args):
    """``python -c CODE ARGS`` in a fresh interpreter with triscore importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=False)


class TestProcessExit:
    """A ``triscore`` process ends through ``run``, which freezes the heap."""

    # the hook runs after run() has returned or raised, before the interpreter's
    # exit-time collection; the module runs as ``python -m triscore.cli`` does
    REPORT_FROZEN = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(f'frozen={gc.get_freeze_count() > 0}', file=sys.stderr))\n"
        "runpy.run_module('triscore.cli', run_name='__main__', alter_sys=True)\n")

    @pytest.mark.parametrize("args, code", [
        (["--help"], 0),
        (["score", "-i", "{ds}"], 0),
        (["score", "-i", "{deep}"], 2),
        (["verify", "-i", "{ds}", "--nbins", "0"], 3),
    ], ids=["help", "exit-0", "schema-error", "domain-error"])
    def test_process_ends_frozen(self, dataset_json, tmp_path, args, code):
        proc = run_fresh(self.REPORT_FROZEN, *fill_paths(args, dataset_json, tmp_path))
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.splitlines()[-1] == "frozen=True", proc.stderr

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_installed_command_is_run(self):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = target["triscore"].partition(":")
        assert getattr(importlib.import_module(module), name) is run


class TestJsonDecoding:
    """Each JSON input is decoded by orjson or by the standard decoder, and
    reads the same either way."""

    @pytest.mark.parametrize("args, content, stderr", [
        (["score", "-i", "{side}"], b'{"metadata": {"a": "\xff"}, "records": []}',
         "error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 20: "
         "invalid start byte\n"),
        (["score", "-i", "{side}"], codecs.BOM_UTF8 * 2 + b'{"records": []}',
         "error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)\n"),
        (["project", "-i", "{ds}", "-o", "{out}", "--apply-map", "{side}"], b'[0, 1, "\xff"]',
         "error: invalid coefficients file: 'utf-8' codec can't decode byte 0xff in "
         "position 8: invalid start byte\n"),
    ], ids=["dataset-not-utf8", "dataset-two-boms", "coefficients-not-utf8"])
    def test_utf8_messages(self, runner, dataset_json, tmp_path, args, content, stderr):
        side = tmp_path / "side.json"
        side.write_bytes(content)
        paths = {"ds": dataset_json, "side": str(side), "out": str(tmp_path / "out")}
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert_fails_cleanly(result, 2)
        assert result.stderr == stderr

    # valid documents deep enough that orjson 3.8 crashes the process on them
    @pytest.mark.parametrize("doc", [
        '{"a": ' * 100_000 + "0" + "}" * 100_000,
        "[" * 1_000_000 + "]" * 1_000_000,
    ], ids=["objects-1e5", "arrays-1e6"])
    @pytest.mark.parametrize("args, prefix", [
        (["score", "-i", "{deep}"], "invalid JSON"),
        (["project", "-i", "{ds}", "-o", "{out}", "--apply-map", "{deep}"],
         "invalid coefficients file"),
    ], ids=["input", "apply-map"])
    def test_deep_document_is_one_error_line(self, dataset_json, tmp_path, doc, args, prefix):
        deep = tmp_path / "deep.json"
        deep.write_text(doc)
        paths = {"ds": dataset_json, "deep": str(deep), "out": str(tmp_path / "out")}
        # in a child, so that a crash shows as a signal, not as the test run's end
        proc = run_fresh("import runpy\n"
                         "runpy.run_module('triscore.cli', run_name='__main__', alter_sys=True)\n",
                         *(a.format(**paths) for a in args))
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: {prefix}: "), proc.stderr

    def test_help_loads_no_json_extension(self):
        proc = run_fresh(
            "import atexit, runpy, sys\n"
            "atexit.register(lambda: print(sorted({'orjson', 'zoneinfo'} & set(sys.modules)),\n"
            "                               file=sys.stderr))\n"
            "runpy.run_module('triscore.cli', run_name='__main__', alter_sys=True)\n", "--help")
        assert (proc.returncode, proc.stderr) == (0, "[]\n"), proc.stderr


class TestCalibrate:
    def test_improves_or_matches_score(self, runner, dataset_csv):
        out = run_json(runner, ["calibrate", "-i", dataset_csv])
        assert len(out["coefficients"]) == 12
        assert out["mean_score_after"] <= out["mean_score_before"] + 1e-15
        for block in ("before", "after"):
            d = out[block]
            assert abs(d["S"] - (d["U"] - d["Z"] + d["R"])) <= 1e-10

    def test_holdout_split(self, runner, dataset_csv):
        out = run_json(runner, ["calibrate", "-i", dataset_csv, "--holdout", "0.25"])
        assert out["n_train"] == 180
        assert out["n_eval"] == 60

    @pytest.mark.parametrize("holdout", ["0", "0.25"])
    def test_one_map_for_every_rule(self, runner, dataset_csv, holdout):
        fits = [run_json(runner, ["calibrate", "-i", dataset_csv, "--holdout", holdout,
                                  "--score", rule])["coefficients"] for rule in ("brier", "rps")]
        assert fits[0] == fits[1]

    def test_bad_holdout_is_domain_error(self, runner, dataset_csv, tmp_path):
        result = runner.invoke(main, ["calibrate", "-i", dataset_csv, "--holdout", "1.0"])
        assert result.exit_code == 3
        for n, holdout, message in [(1, "0.9", "holdout leaves no training pairs"),
                                    (2, "0.1", "holdout leaves no evaluation pairs")]:
            src = tmp_path / f"{n}.csv"
            src.write_text("lat,lon,pB,pN,pA,obs\n" + "0,0,1,0,0,B\n" * n)
            result = runner.invoke(main, ["calibrate", "-i", str(src), "--holdout", holdout])
            assert_fails_cleanly(result, 3)
            assert message in result.stderr

    def test_verify_after_calibrate_project(self, runner, dataset_json, tmp_path):
        cal = tmp_path / "cal.json"
        run_json(runner, ["calibrate", "-i", dataset_json, "-o", str(cal)])
        before = run_json(runner, ["verify", "-i", dataset_json])

        projected = tmp_path / "projected.json"
        result = runner.invoke(main, [
            "project", "-i", dataset_json, "-o", str(projected),
            "--apply-map", str(cal), "--clip",
        ])
        assert result.exit_code == 0, result.output
        after = run_json(runner, ["verify", "-i", str(projected)])
        assert after["S"] <= before["S"] + 1e-12


class TestProject:
    def test_resolves_to_ternary(self, runner, tmp_path):
        src = tmp_path / "gauss.csv"
        src.write_text("lat,lon,mu,sigma,mu_c,sigma_c\n0,0,5,2,5,2\n")
        out_path = tmp_path / "out.json"
        result = runner.invoke(main, ["project", "-i", str(src), "-o", str(out_path)])
        assert result.exit_code == 0, result.output
        assert_summary_bytes(result, {"output": str(out_path), "n_records": 1,
                                      "n_off_simplex": 0})
        ds = parse_json(out_path.read_bytes())
        assert ds.records[0].ternary.as_tuple() == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-9
        )
        # without -o the dataset itself goes to stdout, with no summary
        result = runner.invoke(main, ["project", "-i", str(src)])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == out_path.read_bytes()

    def test_resolves_observation_values_to_labels(self, runner, tmp_path):
        src = tmp_path / "gauss.csv"
        src.write_text(
            "lat,lon,mu,sigma,mu_c,sigma_c,obs_value\n0,0,7,2,5,2,0.1\n0,1,5,2,5,2,5.0\n"
        )
        out_path = tmp_path / "out.json"
        result = runner.invoke(main, ["project", "-i", str(src), "-o", str(out_path)])
        assert result.exit_code == 0, result.output
        ds = parse_json(out_path.read_bytes())
        assert [r.obs.value for r in ds.records] == ["B", "N"]
        assert all(r.obs_value is None for r in ds.records)
        # the projected dataset is self-contained for verification
        assert runner.invoke(main, ["verify", "-i", str(out_path)]).exit_code == 0
        # a Gaussian record's value meets its Gaussian climatology, not its series
        src = tmp_path / "gauss_series.json"
        src.write_text(json.dumps({"records": [{
            "lat": 0, "lon": 0, "mu": 0, "sigma": 1, "mu_c": 0, "sigma_c": 1,
            "series": list(range(10, 41)), "obs_value": 0,
        }]}))
        result = runner.invoke(main, ["project", "-i", str(src), "-o", str(out_path)])
        assert result.exit_code == 0, result.output
        assert json.loads(out_path.read_text())["records"][0]["obs"] == "N"

    def test_apply_bare_coefficient_array(self, runner, dataset_json, tmp_path):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps([0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]))
        out_path = tmp_path / "out.json"
        result = runner.invoke(main, [
            "project", "-i", dataset_json, "-o", str(out_path), "--apply-map", str(coeffs),
        ])
        assert result.exit_code == 0, result.output
        got = parse_json(out_path.read_bytes()).records
        want = frozen_dataset().records
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # pN is reconstructed as 1 - pB - pA, so allow 1-ulp drift
            assert g.ternary.as_tuple() == pytest.approx(w.ternary.as_tuple(), abs=1e-15)
            assert g.obs is w.obs

    @pytest.mark.parametrize("content, named", [
        (b'["x", 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]', "coefficients[0]"),
        (b"[0, 1, 0, 0, 0, NaN, 0, 0, 1, 0, 0, 0]", "coefficients[5]"),
        (b"\xff\xfe[0]", "invalid coefficients file"),
        (b"[0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0]", "a JSON array of 12 numbers"),
    ], ids=["string", "nan", "not-utf8", "eleven"])
    def test_bad_coefficients_file_is_schema_error(self, runner, dataset_json, tmp_path,
                                                   content, named):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_bytes(content)
        result = runner.invoke(main, [
            "project", "-i", dataset_json, "-o", str(tmp_path / "out.json"),
            "--apply-map", str(coeffs),
        ])
        assert result.exit_code == 2, result.output
        assert named in result.output

    def test_overflowing_map_is_one_line_3(self, runner, tmp_path):
        # numpy's overflow warning would be a second line, or under
        # filterwarnings = error the exception that ends the command
        src, coeffs = tmp_path / "ds.csv", tmp_path / "big.json"
        src.write_text("lat,lon,pB,pN,pA,obs\n0,0,0.2,0.3,0.5,B\n")
        coeffs.write_text(json.dumps([1e308] * 12))
        result = runner.invoke(main, ["project", "-i", str(src), "--apply-map", str(coeffs),
                                      "--clip", "-o", str(tmp_path / "out.json")])
        assert_fails_cleanly(result, 3)
        assert result.stderr == "error: records[0]: pB is not finite: inf\n"

    def test_clipped_overflow_is_named(self, runner, dataset_json, tmp_path):
        # on the first record (pB 0.319, pA 0.175) both map terms stay finite
        # and tN = 1 - tB - tA overflows; clipping it would give (0, 0, 0)
        coeffs = tmp_path / "big.json"
        coeffs.write_text(json.dumps([1e308] * 12))
        result = runner.invoke(main, ["project", "-i", dataset_json, "--apply-map", str(coeffs),
                                      "--clip", "-o", str(tmp_path / "out.json")])
        assert_fails_cleanly(result, 3)
        assert result.stderr == "error: records[0]: pN is not finite: -inf\n"

    def test_readme_example_bytes(self, runner, tmp_path):
        src = tmp_path / "two.json"
        src.write_text(json.dumps({"records": [
            {"lat": -5.0, "lon": -60.0, "pB": 0.6, "pN": 0.3, "pA": 0.1, "obs": "B"},
            {"lat": -5.0, "lon": -59.0, "mu": 7.0, "sigma": 2.0, "mu_c": 5.0, "sigma_c": 2.0},
        ]}))
        want = (
            b'{"q": [0.3333333333333333, 0.3333333333333333, 0.3333333333333333], '
            b'"metadata": {}, "records": [\n'
            b'{"lat": -5.0, "lon": -60.0, "pB": 0.6, "pN": 0.3, "pA": 0.1, "obs": "B"},\n'
            b'{"lat": -5.0, "lon": -59.0, "pB": 0.07625419304339663, '
            b'"pN": 0.20833135198693103, "pA": 0.7154144549696724}\n'
            b"]}\n"
        )
        result = runner.invoke(main, ["project", "-i", str(src)])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == want
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert want in readme.read_bytes()

    def test_observed_value_without_series_is_rejected(self, runner, tmp_path):
        src = tmp_path / "ds.json"
        src.write_text(json.dumps({"records": [
            {"lat": 0, "lon": 0, "pB": 0.2, "pN": 0.5, "pA": 0.3, "obs_value": 1.0},
        ]}))
        result = runner.invoke(main, ["project", "-i", str(src), "-o",
                                      str(tmp_path / "out.json")])
        assert result.exit_code == 3
        assert "records[0]" in result.output

    def test_resolve_error_comes_before_map_error(self, runner, tmp_path):
        # every record is resolved before the map applies to any: record 0
        # would fail only the map, record 1 fails its resolution
        src, coeffs = tmp_path / "ds.json", tmp_path / "big.json"
        src.write_text(json.dumps({"records": [
            {"lat": 0, "lon": 0, "pB": 0.2, "pN": 0.3, "pA": 0.5, "obs": "B"},
            {"lat": 0, "lon": 1, "mu": 1e308, "sigma": 1, "mu_c": -1e308, "sigma_c": 1},
        ]}))
        coeffs.write_text(json.dumps([1e308] * 12))
        result = runner.invoke(main, ["project", "-i", str(src), "--apply-map", str(coeffs),
                                      "--clip", "-o", str(tmp_path / "out.json")])
        assert_fails_cleanly(result, 3)
        assert result.stderr == "error: records[1]: scaled parameters must be finite\n"

    def test_observation_error_comes_before_forecast_error(self, runner, tmp_path):
        # the forecast's scaled parameters overflow and the observation has no
        # thresholds under q; every command resolves the observation first
        src = tmp_path / "ds.json"
        src.write_text(json.dumps({"q": [0, 0.5, 0.5], "records": [
            {"lat": 0, "lon": 0, "mu": 1e308, "sigma": 1, "mu_c": -1e308, "sigma_c": 1,
             "obs_value": 0.5},
        ]}))
        out = str(tmp_path / "out")
        for args in (["project", "-o", out], ["score"],
                     ["render-map", "-o", out, "--show-skill-circles"]):
            result = runner.invoke(main, [*args, "-i", str(src)])
            assert_fails_cleanly(result, 3)
            assert result.stderr == ("error: records[0]: climatology (0.0, 0.5, 0.5) "
                                     "leaves no interior thresholds\n")


class TestScoreCommand:
    def test_unobserved_ensemble_without_series_is_skipped(self, runner, tmp_path):
        # the ensemble record cannot be resolved, but it is never needed
        src = tmp_path / "ds.json"
        src.write_text(json.dumps({"records": [
            {"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0, "obs": "B"},
            {"lat": 0, "lon": 1, "members": [1.0, 2.0, 3.0]},
        ]}))
        out = run_json(runner, ["score", "-i", str(src)])
        assert out["n_pairs"] == 1
        assert out["mean_score"] == pytest.approx(0.0, abs=1e-15)

    def test_matches_verify_unbinned(self, runner, tmp_path):
        # forecasts on the lattice: binning is a no-op, so the raw mean
        # score equals the decomposition's S
        lines = ["lat,lon,pB,pN,pA,obs"]
        for obs, p in (("B", "1,0,0"), ("A", "1,0,0"), ("A", "0,0,1"), ("B", "0,1,0")):
            lines.append(f"0,0,{p},{obs}")
        path = tmp_path / "lattice.csv"
        path.write_text("\n".join(lines) + "\n")
        mean = run_json(runner, ["score", "-i", str(path)])["mean_score"]
        s = run_json(runner, ["verify", "-i", str(path)])["S"]
        assert mean == pytest.approx(s, abs=1e-12)


    @pytest.mark.parametrize("rule", ["brier", "rps"])
    def test_matches_calibrate_mean_score_before(self, runner, tmp_path, rule):
        # the same quantity, summed per pair in score and as one residual
        # dot product in calibrate: equal up to summation order
        rng = np.random.default_rng(5)
        p = rng.dirichlet((1.0, 1.0, 1.0), 5000)
        records = [{"lat": 0.0, "lon": 0.0, "pB": b, "pN": n, "pA": a, "obs": "BNA"[k]}
                   for (b, n, a), k in zip(p.tolist(), rng.integers(0, 3, 5000).tolist())]
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"records": records}))
        mean = run_json(runner, ["score", "-i", str(path), "--score", rule])["mean_score"]
        cal = run_json(runner, ["calibrate", "-i", str(path), "--score", rule])
        assert abs(mean - cal["mean_score_before"]) <= 1e-12

    def test_degenerate_climatology_message_matches_project(self, runner, tmp_path):
        src = tmp_path / "ds.json"
        src.write_text(json.dumps({"q": [0, 0.5, 0.5], "records": [
            {"lat": 0, "lon": 0, "mu": 1, "sigma": 1, "mu_c": 0, "sigma_c": 1,
             "obs_value": 0.5},
        ]}))
        scored = runner.invoke(main, ["score", "-i", str(src)])
        projected = runner.invoke(main, ["project", "-i", str(src), "-o",
                                         str(tmp_path / "out.json")])
        for result in (scored, projected):
            assert_fails_cleanly(result, 3)
        assert scored.stderr == projected.stderr
        assert "leaves no interior thresholds" in scored.stderr


class TestRenderCommands:
    def test_render_map_roundtrip(self, runner, dataset_csv, tmp_path):
        out_path = tmp_path / "map.svg"
        result = runner.invoke(main, [
            "render-map", "-i", dataset_csv, "-o", str(out_path),
            "--show-skill-circles",
        ])
        assert result.exit_code == 0, result.output
        assert_summary_bytes(result, {"output": str(out_path), "n_records": 240,
                                      "n_drawn": 12})
        ET.parse(out_path)
        first = out_path.read_bytes()
        runner.invoke(main, ["render-map", "-i", dataset_csv, "-o", str(out_path),
                             "--show-skill-circles"])
        assert out_path.read_bytes() == first

    def test_render_map_without_circles_ignores_observations(self, runner, tmp_path):
        # an observed value with no climatology cannot be categorised,
        # but a map without skill circles never needs the observation
        src = tmp_path / "ds.json"
        src.write_text(json.dumps({"records": [
            {"lat": 0, "lon": 0, "pB": 0.2, "pN": 0.5, "pA": 0.3, "obs_value": 1.0},
        ]}))
        out_path = tmp_path / "map.svg"
        result = runner.invoke(main, ["render-map", "-i", str(src), "-o", str(out_path)])
        assert result.exit_code == 0, result.output
        assert out_path.read_bytes().count(b"<rect ") == 1

    @pytest.mark.parametrize("circles", [False, True], ids=["cells", "circles"])
    def test_render_map_needs_every_forecast(self, runner, tmp_path, circles):
        # score skips the unobserved ensemble without series; a map draws it
        src = tmp_path / "ds.json"
        src.write_text(json.dumps({"records": [
            {"lat": 0, "lon": 0, "pB": 1, "pN": 0, "pA": 0, "obs": "B"},
            {"lat": 0, "lon": 1, "members": [1.0, 2.0, 3.0]},
        ]}))
        args = ["render-map", "-i", str(src), "-o", str(tmp_path / "map.svg")]
        result = runner.invoke(main, args + ["--show-skill-circles"] * circles)
        assert_fails_cleanly(result, 3)
        assert result.stderr == ("error: records[1]: record needs a climatology series "
                                 "to place thresholds\n")

    @pytest.mark.parametrize("args", [
        ["render-map", "-i", "{ds}"],
        ["render-map", "-i", "{ds}", "--show-skill-circles"],
        ["palette", "--q", "5e-324,0.5,0.5"],
    ], ids=["render-map", "render-map-circles", "palette"])
    def test_subnormal_climatology_is_3(self, runner, tmp_path, args):
        # 1 / 5e-324 overflows, so the saturation's scale 1 / log(1 / min q) is undefined
        ds = tmp_path / "ds.json"
        ds.write_bytes(write_json(Dataset(records=frozen_dataset().records,
                                          q=make_ternary(5e-324, 0.5, 0.5))))
        result = runner.invoke(main, fill_paths(args, str(ds), tmp_path)
                               + ["-o", str(tmp_path / "x.svg")])
        assert_fails_cleanly(result, 3)
        assert result.stderr == ("error: climatology (5e-324, 0.5, 0.5) has a component "
                                 "too small to invert\n")

    def test_render_map_with_overlay(self, runner, dataset_csv, tmp_path):
        overlay = tmp_path / "coast.json"
        overlay.write_text(json.dumps([[[0.0, 0.0], [1.5, 2.0], [3.0, 4.0]]]))
        out_path = tmp_path / "map.svg"
        result = runner.invoke(main, [
            "render-map", "-i", dataset_csv, "-o", str(out_path),
            "--overlay", str(overlay),
        ])
        assert result.exit_code == 0, result.output
        assert b"<polyline" in out_path.read_bytes()

    @pytest.mark.parametrize("circles, want", [(False, 240), (True, 12)],
                             ids=["cells", "circles"])
    def test_render_map_counts_what_it_draws(self, runner, dataset_json, tmp_path,
                                             circles, want):
        out_path = tmp_path / "map.svg"
        args = ["render-map", "-i", dataset_json, "-o", str(out_path)]
        out = run_json(runner, args + ["--show-skill-circles"] * circles)
        assert out["n_records"] == 240
        main_layer = out_path.read_bytes().split(b'<g id="legend">')[0]
        assert out["n_drawn"] == main_layer.count(b"<circle" if circles else b"<rect") == want

    @pytest.mark.parametrize("overlay, where", [
        ("[[[1e400, 0], [0, 0]]]", "overlay[0][0][0] must be a finite number"),
        ("[[[0, 0]], [[NaN, 1], [1, 1]]]", "overlay[1][0][0] must be a finite number"),
        ('[[["5", 0], [0, 0]]]', "overlay[0][0][0] must be a finite number"),
        ("[[[0, 0], [0, true]]]", "overlay[0][1][1] must be a finite number"),
        ("[[[0, 0], [91, 0]]]", "overlay[0][1]: lat = 91.0 outside"),
        ("[[[0, -180.5]]]", "overlay[0][0]: lon = -180.5 outside"),
        ("[[[0, 0, 0]]]", "overlay[0][0]: point must be a [lat, lon] pair"),
        ('{"lines": []}', "overlay must be a JSON array of polylines"),
    ], ids=["infinite", "nan", "string", "boolean", "lat-range", "lon-range", "triple",
            "object"])
    def test_bad_overlay_is_schema_error(self, runner, dataset_json, tmp_path, overlay,
                                         where):
        path = tmp_path / "coast.json"
        path.write_text(overlay)
        result = runner.invoke(main, ["render-map", "-i", dataset_json, "-o",
                                      str(tmp_path / "map.svg"), "--overlay", str(path)])
        assert_fails_cleanly(result, 2)
        assert result.stderr.startswith(f"error: {where}")

    def test_malformed_csv_is_schema_error(self, runner, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text('lat,lon,pB,pN,pA,obs\n0,0,"' + "1" * 200_000 + '",0,0,B\n')
        result = runner.invoke(main, ["score", "-i", str(big)])
        assert_fails_cleanly(result, 2)
        assert result.stderr.startswith("error: row 2: malformed CSV")

    def test_render_reliability(self, runner, dataset_csv, tmp_path):
        out_path = tmp_path / "rel.svg"
        result = runner.invoke(main, [
            "render-reliability", "-i", dataset_csv, "-o", str(out_path),
            "--threshold", "10",
        ])
        assert result.exit_code == 0, result.output
        assert_summary_bytes(result, {"output": str(out_path), "n_bins": 60, "n_dipoles": 4})
        ET.parse(out_path)

        # every bin observes one category, so U - Z is 0 in real arithmetic;
        # under rps, rounding puts Z an ulp above U, and both commands accept it
        rows = ([(0.6, 0.3, 0.1, "B")] * 30 + [(0.1, 0.7, 0.2, "N")]
                + [(0.2, 0.2, 0.6, "A")] * 31)
        pure = tmp_path / "pure.json"
        pure.write_text(json.dumps({"records": [
            {"lat": 0, "lon": 0, "pB": b, "pN": n, "pA": a, "obs": o} for b, n, a, o in rows
        ]}))
        for rule, u, z in (("brier", 0.2578043704474505, 0.2578043704474505),
                           ("rps", 0.24986992715920908, 0.2498699271592091)):
            result = runner.invoke(main, ["render-reliability", "-i", str(pure),
                                          "-o", str(out_path), "--score", rule])
            assert result.exit_code == 0, result.output
            out = run_json(runner, ["verify", "-i", str(pure), "--score", rule])
            assert (out["U"], out["Z"]) == pytest.approx((u, z), abs=1e-12)

    def test_palette(self, runner, tmp_path):
        out_path = tmp_path / "pal.svg"
        result = runner.invoke(main, [
            "palette", "-o", str(out_path), "--q", "0.25,0.5,0.25", "--size", "8",
        ])
        assert result.exit_code == 0, result.output
        assert_summary_bytes(result, {"output": str(out_path), "size": 8})
        svg = out_path.read_bytes()
        ET.fromstring(svg)
        assert svg.count(b"<polygon") == 64

    @pytest.mark.parametrize("args", [
        ["project", "-i", "{ds}"],
        ["render-map", "-i", "{ds}"],
        ["render-map", "-i", "{ds}", "--show-skill-circles"],
        ["render-reliability", "-i", "{ds}"],
        ["palette", "--size", "8"],
    ], ids=["project", "render-map", "render-map-circles", "render-reliability", "palette"])
    def test_stdout_is_one_document(self, runner, dataset_json, tmp_path, args):
        # the artefact goes to -o FILE, or alone to stdout with -o - or no -o
        args = fill_paths(args, dataset_json, tmp_path)
        out_path = tmp_path / "out"
        piped = [runner.invoke(main, args + output) for output in (["-o", "-"], [])]
        filed = runner.invoke(main, args + ["-o", str(out_path)])
        for result in (*piped, filed):
            assert result.exit_code == 0, result.output
        assert piped[0].stdout_bytes == piped[1].stdout_bytes == out_path.read_bytes()
        assert json.loads(filed.stdout)["output"] == str(out_path)
        if args[0] == "project":
            json.loads(piped[0].stdout_bytes)
        else:
            ET.fromstring(piped[0].stdout_bytes)

    def test_palette_custom_anchors(self, runner, tmp_path):
        out_path = tmp_path / "pal.svg"
        anchors = json.dumps([[0, 0], [0.5, 0.5], [1, 1]])
        result = runner.invoke(main, [
            "palette", "-o", str(out_path), "--anchors", anchors, "--size", "3",
        ])
        assert result.exit_code == 0, result.output

    def test_palette_anchors_one_turn_on(self, runner, tmp_path):
        out_path = tmp_path / "pal.svg"
        result = runner.invoke(main, [
            "palette", "-o", str(out_path), "--anchors", "[[0,0.4],[1,1.4]]", "--size", "3",
        ])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("anchors, named", [
        ("[[0, 0], [1, 1" + "0" * 400 + "]]", "anchors[1][1]"),
        ('[[0, "0.5"], [1, 1.5]]', "anchors[0][1]"),
        ("[[0, true], [1, 1]]", "anchors[0][1]"),
        ("[[0, NaN], [1, NaN]]", "anchors[0][1]"),
        ("[[0, 0], [1]]", "[t, hue] pairs"),
        ("5", "[t, hue] pairs"),
    ], ids=["huge-int", "string", "bool", "nan", "not-a-pair", "not-a-list"])
    def test_palette_bad_anchors_is_schema_error(self, runner, tmp_path, anchors, named):
        result = runner.invoke(main, ["palette", "-o", str(tmp_path / "x.svg"),
                                      "--anchors", anchors])
        assert_fails_cleanly(result, 2)
        assert named in result.stderr

    @pytest.mark.parametrize("command", ["render-map", "palette"])
    def test_anchors_an_infinite_distance_apart_are_domain_error(self, runner, tmp_path,
                                                                 command):
        # each hue is finite, but -1e308 to 1e308 overflows
        anchors = "[[0,0],[0.4,-1e308],[0.7,1e308],[1,1]]"
        args = [command, "-o", str(tmp_path / "x.svg"), "--anchors", anchors]
        if command == "render-map":
            data = tmp_path / "one.csv"
            data.write_text("lat,lon,pB,pN,pA\n0,0,0.2,0.3,0.5\n")
            args += ["-i", str(data)]
        result = runner.invoke(main, args)
        assert_fails_cleanly(result, 3)
        assert result.stderr == "error: neighbouring hue anchors must be a finite distance apart\n"

    def test_palette_bad_q_is_schema_error(self, runner, tmp_path):
        result = runner.invoke(main, ["palette", "-o", str(tmp_path / "x.svg"),
                                      "--q", "0.5,0.5"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["palette", "-o", str(tmp_path / "x.svg"),
                                      "--q", "1/3,x,1/3"])
        assert_fails_cleanly(result, 2)
        assert "invalid climatology component 'x'" in result.stderr
        # the rule and the message of a dataset's "q"
        result = runner.invoke(main, ["palette", "-o", str(tmp_path / "x.svg"),
                                      "--q", "0.5,0.5,0.5"])
        assert_fails_cleanly(result, 2)
        assert result.stderr == "error: invalid climatology q: probabilities sum to 1.5, not 1\n"


def mixed_records():
    """27 records: a triple, a Gaussian and an ensemble forecast, each
    observed by label, observed by value and unobserved, three times."""
    series = [float(v) for v in range(1, 31)]
    records = []
    for k in range(3):
        forecasts = [
            {"pB": 0.2 + 0.1 * k, "pN": 0.5 - 0.1 * k, "pA": 0.3, "series": series},
            {"mu": 4.0 + k, "sigma": 2.0, "mu_c": 5.0, "sigma_c": 2.0},
            {"members": [5.0 + 6.0 * k + j for j in range(5)], "series": series},
        ]
        for forecast in forecasts:
            for observed in ({"obs": "BNA"[k]}, {"obs_value": 2.0 + 10.0 * k}, {}):
                records.append({"lat": 0.0, "lon": float(len(records)), **forecast, **observed})
    return records


class TestResolveCalls:
    """How often each command resolves a forecast and an observation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # counted wherever a loaded triscore module binds the two functions,
        # as the benchmark's tracer catches them
        import triscore.datasets as datasets

        counts = {}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "triscore" or name.startswith("triscore.")]
        for name in ("resolve_ternary", "resolve_observation"):
            original = getattr(datasets, name)
            counts[name] = 0

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return counts

    # 27 records, 18 of them observed
    @pytest.mark.parametrize("args, forecasts, observations", [
        (["score"], 18, 27),
        (["verify"], 18, 27),
        (["calibrate"], 18, 27),
        (["render-reliability", "-o", "{out}"], 18, 27),
        (["render-map", "-o", "{out}"], 27, 0),
        (["render-map", "-o", "{out}", "--show-skill-circles"], 27, 27),
        (["project", "-o", "{out}"], 27, 27),
        (["project", "-o", "{out}", "--apply-map", "{map}"], 27, 27),
    ], ids=["score", "verify", "calibrate", "render-reliability", "render-map",
            "render-map-circles", "project", "project-map"])
    def test_resolve_calls(self, runner, tmp_path, calls, args, forecasts, observations):
        src, coeffs = tmp_path / "mixed.json", tmp_path / "map.json"
        src.write_text(json.dumps({"records": mixed_records()}))
        coeffs.write_text(json.dumps([0.05, 0.9, 0, 0, 0, 0, 0.05, 0, 0.9, 0, 0, 0]))
        paths = {"out": str(tmp_path / "out"), "map": str(coeffs)}
        result = runner.invoke(main, [*(a.format(**paths) for a in args), "-i", str(src)])
        assert result.exit_code == 0, result.output
        assert calls == {"resolve_ternary": forecasts, "resolve_observation": observations}


class TestProjectKeepsVerification:
    """Verifying project's output prints, byte for byte, what verifying its input prints."""

    @pytest.mark.parametrize("source", ["frozen", "mixed"])
    def test_projected_verifies_alike(self, runner, tmp_path, source):
        src = tmp_path / "in.json"
        if source == "frozen":
            src.write_bytes(write_json(frozen_dataset()))
        else:
            src.write_text(json.dumps({"records": mixed_records()}))
        projected = tmp_path / "projected.json"
        result = runner.invoke(main, ["project", "-i", str(src), "-o", str(projected)])
        assert result.exit_code == 0, result.output
        for args in (["score"], ["verify", "--score", "brier"],
                     ["verify", "--score", "rps", "--nbins", "5"],
                     ["calibrate", "--holdout", "0"], ["render-reliability"]):
            before, after = (runner.invoke(main, [*args, "-i", str(path)])
                             for path in (src, projected))
            assert before.exit_code == after.exit_code == 0, (args, before.output)
            assert after.stdout_bytes == before.stdout_bytes, args


class TestReliabilityRelations:
    """What render-reliability's summary, its figure and verify share."""

    @pytest.mark.parametrize("threshold", [0, 1, 10, 10**9])
    def test_n_dipoles_counts_the_drawn_dipoles(self, runner, dataset_json, tmp_path,
                                                threshold):
        out_path = tmp_path / "rel.svg"
        out = run_json(runner, ["render-reliability", "-i", dataset_json, "-o", str(out_path),
                                "--threshold", str(threshold)])
        ns = "{http://www.w3.org/2000/svg}"
        layer = [g for g in ET.parse(out_path).getroot().iter(f"{ns}g")
                 if g.get("id") == "dipoles"]
        assert len(layer) == 1
        assert out["n_dipoles"] == len(layer[0].findall(f"{ns}g"))

    @pytest.mark.parametrize("source", ["frozen", "mixed"])
    def test_record_order_changes_no_byte(self, runner, tmp_path, source):
        records = (json.loads(write_json(frozen_dataset()))["records"] if source == "frozen"
                   else mixed_records())
        rng = np.random.default_rng(7)
        paths = []
        for k in range(3):
            path = tmp_path / f"in{k}.json"
            order = rng.permutation(len(records)) if k else range(len(records))
            path.write_text(json.dumps({"records": [records[i] for i in order]}))
            paths.append(path)
        out_path = tmp_path / "rel.svg"
        for args in (["verify", "--score", "brier"], ["verify", "--score", "rps", "--nbins", "5"],
                     ["render-reliability", "-o", str(out_path), "--threshold", "1"]):
            outputs = []
            for path in paths:
                result = runner.invoke(main, [*args, "-i", str(path)])
                assert result.exit_code == 0, result.output
                written = out_path.read_bytes() if "-o" in args else b""
                outputs.append((result.stdout_bytes, written))
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], args

    @pytest.mark.parametrize("score", ["brier", "rps"])
    def test_dipoles_measure_verify_sqrt_R(self, runner, dataset_json, tmp_path, score):
        """The count-weighted RMS length of the drawn dipoles, over the
        drawn scale, is verify's sqrtR to the SVG's rounding: the figure
        is drawn in the --score rule's own triangle."""
        out_path = tmp_path / "rel.svg"
        run_json(runner, ["render-reliability", "-i", dataset_json, "-o", str(out_path),
                          "--score", score, "--threshold", "0"])
        want = run_json(runner, ["verify", "-i", dataset_json, "--score", score])["sqrtR"]
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.parse(out_path).getroot()
        # the outlines are drawn black, the main triangle's last: "M x y L x y L x y Z"
        outline = [p for p in root.iter(f"{ns}path") if p.get("stroke") == "#000000"][-1]
        xs = [float(x) for x in outline.get("d").split()[1::3]]
        Mhat = (brier_rule() if score == "brier" else rps_rule()).Mhat
        scale = (max(xs) - min(xs)) / (Mhat[0].max() - Mhat[0].min())
        layer = [g for g in root.iter(f"{ns}g") if g.get("id") == "dipoles"][0]
        lengths = np.array([math.dist((float(ln.get("x1")), float(ln.get("y1"))),
                                      (float(ln.get("x2")), float(ln.get("y2"))))
                            for ln in layer.iter(f"{ns}line")])
        counts = bin_forecasts(pairs_from_dataset(frozen_dataset()), 11).counts
        rms = math.sqrt((counts * lengths**2).sum() / counts.sum())
        assert rms / scale == pytest.approx(want, rel=1e-5)


class TestSkillCircleRelations:
    def test_radius_is_verify_skill_of_the_location(self, runner, dataset_json, tmp_path):
        """Each circle's radius over cell size times circle scale is
        (sqrtZ - sqrtR) / sqrtZ from verify run on that location's records
        alone, to the SVG's four decimals."""
        records = json.loads(Path(dataset_json).read_bytes())["records"]
        skill = {}
        for loc in {(r["lat"], r["lon"]) for r in records}:
            path = tmp_path / "loc.json"
            path.write_text(json.dumps(
                {"records": [r for r in records if (r["lat"], r["lon"]) == loc]}))
            out = run_json(runner, ["verify", "-i", str(path), "--nbins", "5"])
            skill[loc] = (out["sqrtZ"] - out["sqrtR"]) / out["sqrtZ"]
        map_path = tmp_path / "map.svg"
        run_json(runner, ["render-map", "-i", dataset_json, "-o", str(map_path),
                          "--show-skill-circles", "--min-pairs", "1", "--nbins", "5",
                          "--circle-scale", "1.5"])
        ns = "{http://www.w3.org/2000/svg}"
        # one circle per record at a location of positive skill, in record
        # order; the legend draws none at the top level
        radii = [float(c.get("r")) for c in ET.parse(map_path).getroot().findall(f"{ns}circle")]
        want = [s for s in (skill[(r["lat"], r["lon"])] for r in records) if s > 0.0]
        assert len(radii) == len(want) > 0
        for r, s in zip(radii, want):
            assert abs(r / (10.0 * 1.5) - s) <= 0.5e-4 / (10.0 * 1.5) + 1e-12


class TestCommandRelations:
    """Numbers that two commands report for the same data agree."""

    @pytest.fixture(params=["frozen", "mixed"])
    def source(self, request, tmp_path):
        path = tmp_path / "in.json"
        if request.param == "frozen":
            path.write_bytes(write_json(frozen_dataset()))
        else:
            path.write_text(json.dumps({"records": mixed_records()}))
        return str(path)

    @pytest.mark.parametrize("nbins", [5, 11, 21])
    @pytest.mark.parametrize("score", ["brier", "rps"])
    def test_summaries_agree(self, runner, tmp_path, source, score, nbins):
        common = ["-i", source, "--score", score]
        binned = [*common, "--nbins", str(nbins)]
        scored = run_json(runner, ["score", *common])
        verified = run_json(runner, ["verify", *binned])
        calibrated = run_json(runner, ["calibrate", *binned, "--holdout", "0"])
        rendered = run_json(runner, ["render-reliability", *binned, "-o", str(tmp_path / "r.svg")])
        before = calibrated["before"]
        # bit for bit: each value's JSON text is its float's repr
        assert set(verified) - set(before) == {"rule", "nbins"}
        assert json.dumps({k: verified[k] for k in before}) == json.dumps(before)
        n = verified["n_pairs"]
        assert (scored["n_pairs"], before["n_pairs"], calibrated["after"]["n_pairs"],
                calibrated["n_train"], calibrated["n_eval"]) == (n,) * 5
        assert rendered["n_bins"] == verified["n_bins"]

    @pytest.mark.parametrize("nbins", [5, 11, 21])
    @pytest.mark.parametrize("score", ["brier", "rps"])
    def test_calibrated_map_projected_then_verified(self, runner, tmp_path, score, nbins):
        """verify on what project --apply-map --clip writes under calibrate's
        map gives calibrate's after-decomposition, bit for bit."""
        src, cal, projected = (tmp_path / name for name in ("in.json", "cal.json", "out.json"))
        dataset = frozen_dataset()
        assert all(r.obs is not None for r in dataset.records)  # every record is a pair
        src.write_bytes(write_json(dataset))
        binned = ["--score", score, "--nbins", str(nbins)]
        calibrated = run_json(runner, ["calibrate", "-i", str(src), *binned, "--holdout", "0",
                                       "-o", str(cal)])
        mapped = run_json(runner, ["project", "-i", str(src), "--apply-map", str(cal), "--clip",
                                   "-o", str(projected)])
        verified = run_json(runner, ["verify", "-i", str(projected), *binned])
        after = calibrated["after"]
        assert json.dumps({k: verified[k] for k in after}) == json.dumps(after)
        assert mapped["n_off_simplex"] == calibrated["n_off_simplex"] > 0  # the clip acts

    def test_identity_map_keeps_the_triple(self, runner, tmp_path, source):
        """pB~ and pA~ are pB and pA to the bit; pN~ = 1 - pB - pA is pN
        to the rounding of one subtraction more."""
        coeffs = tmp_path / "identity.json"
        coeffs.write_text(json.dumps(list(QuadraticMap.identity().coeffs)))
        plain, mapped = tmp_path / "plain.json", tmp_path / "mapped.json"
        run_json(runner, ["project", "-i", source, "-o", str(plain)])
        run_json(runner, ["project", "-i", source, "-o", str(mapped), "--apply-map", str(coeffs)])
        before, after = (json.loads(path.read_bytes())["records"] for path in (plain, mapped))
        assert len(before) == len(after) > 0
        for x, y in zip(before, after):
            assert [float.hex(x[k]) for k in ("lat", "lon", "pB", "pA")] == [
                float.hex(y[k]) for k in ("lat", "lon", "pB", "pA")]
            assert abs(x["pN"] - y["pN"]) <= 3.3e-16
            assert x.get("obs") == y.get("obs")


    @staticmethod
    def write_records(path, records):
        """Triple records as JSON, or as CSV (an unobserved record's obs cell
        empty); each value's text is its float's repr either way."""
        if path.suffix == ".json":
            path.write_text(json.dumps({"records": records}))
        else:
            path.write_text("lat,lon,pB,pN,pA,obs\n" + "".join(
                f"{r['lat']!r},{r['lon']!r},{r['pB']!r},{r['pN']!r},{r['pA']!r},"
                f"{r.get('obs', '')}\n" for r in records))
        return str(path)

    @staticmethod
    def random_records(rng, n, under_confident=False):
        """n observed records, each outcome drawn from a Dirichlet(1, 1, 1)
        truth that is the forecast, or with ``under_confident`` a
        Dirichlet(0.6, 0.6, 0.6) truth shrunk to 0.35 truth + 0.65 / 3."""
        truth = rng.dirichlet((0.6,) * 3 if under_confident else (1.0,) * 3, n)
        forecasts = 0.35 * truth + 0.65 / 3 if under_confident else truth
        return [{"lat": float(i % 7), "lon": float(i % 360 - 180),
                 "pB": p[0], "pN": p[1], "pA": p[2], "obs": "BNA"[rng.choice(3, p=t)]}
                for i, (t, p) in enumerate(zip(truth, forecasts.tolist()))]

    # the commands whose stdout is a function of the pairs alone
    PAIR_COMMANDS = (["score"], ["verify"], ["calibrate", "--holdout", "0"],
                     ["calibrate", "--holdout", "0.25"])

    def stdouts(self, runner, path, score):
        results = [runner.invoke(main, [*command, "-i", path, "--score", score])
                   for command in self.PAIR_COMMANDS]
        assert all(r.exit_code == 0 for r in results), [r.output for r in results]
        return [r.stdout for r in results]

    @pytest.mark.parametrize("score", ["brier", "rps"])
    def test_csv_and_json_agree(self, runner, tmp_path, score):
        records = self.random_records(np.random.default_rng(3), 3000)
        csv_out, json_out = (self.stdouts(runner, self.write_records(tmp_path / name, records),
                                          score) for name in ("in.csv", "in.json"))
        assert csv_out == json_out

    @pytest.mark.parametrize("score", ["brier", "rps"])
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_unobserved_records_change_nothing(self, runner, tmp_path, suffix, score):
        rng = np.random.default_rng(4)
        records = self.random_records(rng, 1000)
        mixed = list(records)
        for unobserved in self.random_records(rng, 500):
            del unobserved["obs"]
            mixed.insert(int(rng.integers(len(mixed) + 1)), unobserved)
        observed_out, mixed_out = (
            self.stdouts(runner, self.write_records(tmp_path / f"{name}{suffix}", rs), score)
            for name, rs in (("observed", records), ("mixed", mixed)))
        assert observed_out == mixed_out

    def on_mirror(self, runner, tmp_path, records, command, *args):
        """The stdout of a command on the records, and on the records with
        pB and pA swapped, and B and A."""
        swap = {"B": "A", "N": "N", "A": "B"}
        mirrored = [{**r, "pB": r["pA"], "pA": r["pB"], "obs": swap[r["obs"]]} for r in records]
        return [run_json(runner, [command, "-i", self.write_records(tmp_path / name, rs), *args])
                for name, rs in (("in.json", records), ("mirror.json", mirrored))]

    @staticmethod
    def assert_mirrored(got, mirror):
        """The same S, U, Z, R and bin count, and the mean outcome reversed."""
        for key in ("S", "U", "Z", "R"):
            assert abs(got[key] - mirror[key]) <= 1e-12, key
        assert got["q_bar"] == mirror["q_bar"][::-1]
        assert got["n_bins"] == mirror["n_bins"]

    @pytest.mark.parametrize("nbins", [5, 10, 11])
    @pytest.mark.parametrize("score", ["brier", "rps"])
    def test_verify_mirrors(self, runner, tmp_path, score, nbins):
        """On forecasts without ties, mirroring the categories mirrors the
        decomposition."""
        records = self.random_records(np.random.default_rng(5), 1000)
        self.assert_mirrored(*self.on_mirror(runner, tmp_path, records, "verify",
                                             "--score", score, "--nbins", str(nbins)))

    # C'k = C[_MIRROR[k]]: pB~ and pA~ swap, and so do pB and pA within each term
    _MIRROR = [6, 8, 7, 11, 10, 9, 0, 2, 1, 5, 4, 3]

    @pytest.mark.parametrize("score", ["brier", "rps"])
    def test_calibrate_mirrors(self, runner, tmp_path, score):
        """Under-confident forecasts, which the fitted map sends off the
        simplex: mirroring the categories mirrors the map, and the
        decomposition of the clipped forecasts under either rule's clip."""
        records = self.random_records(np.random.default_rng(6), 1000, under_confident=True)
        got, mirror = self.on_mirror(runner, tmp_path, records, "calibrate",
                                     "--score", score, "--holdout", "0")
        assert max(abs(got["coefficients"][k] - c)
                   for k, c in zip(self._MIRROR, mirror["coefficients"])) <= 1e-12
        assert got["n_off_simplex"] == mirror["n_off_simplex"] > 0  # the clip acts
        self.assert_mirrored(got["after"], mirror["after"])


class TestProjectWritesThroughTheTemplate:
    @pytest.mark.parametrize("mapped", [False, True], ids=["resolved", "mapped"])
    @pytest.mark.parametrize("source", ["frozen", "mixed"])
    def test_template_exact_for_projected_records(self, runner, tmp_path, monkeypatch, source,
                                                  mapped):
        """project's records hold exact finite floats, so each line it
        writes is json.dumps of the record's object."""
        src, coeffs = tmp_path / "in.json", tmp_path / "map.json"
        if source == "frozen":
            src.write_bytes(write_json(frozen_dataset()))
        else:  # integer-valued lat and lon
            src.write_text(json.dumps({"records": [
                {**r, "lat": 0, "lon": i} for i, r in enumerate(mixed_records())]}))
        coeffs.write_text(json.dumps([0.05, 0.9, 0, 0, 0, 0, 0.05, 0, 0.9, 0, 0, 0]))
        written = []
        monkeypatch.setattr("triscore.cli.write_json",
                            lambda ds: written.append(ds) or write_json(ds))
        out = tmp_path / "out.json"
        run_json(runner, ["project", "-i", str(src), "-o", str(out)]
                 + ["--apply-map", str(coeffs)] * mapped)
        assert len(written) == 1 and out.read_bytes() == write_json(written[0])
        assert_template_exact(written[0])
