#!/usr/bin/env python3
"""triscore benchmark: CLI cost of each workload's commands on seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload ternary-verify --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every subcommand runs as its own fresh
``python -m triscore.cli`` process, one at a time (a closed loop with
one client), each right after the fixed reference job ``refjob.py``,
and the end-to-end metrics are printed.  With ``--trace 1`` the same
commands run inside this process, alternately untraced and with spans
around each layer's public functions, and the per-layer metrics are
printed.  Every output is checked against the oracles in
``workloads.py``.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; metrics holds exactly the
metrics that ``BENCHMARK.json`` lists for the mode.
"""

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MANIFEST = ROOT / "BENCHMARK.json"
#: The reference job's median wall time on the 2-core VM the benchmark was
#: tuned on.  setup_s is the set-up time rescaled to that machine speed.
REFERENCE_S = 0.40


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_cli(argv: list[str], workdir: Path) -> CliResult:
    """Run ``python -m triscore.cli ARGV`` to completion in a fresh process."""
    return run_python(["-m", "triscore.cli", *argv], workdir)


def run_python(argv: list[str], workdir: Path) -> CliResult:
    """Run ``python ARGV`` to completion in a fresh process, with triscore importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(workdir / "cli.stdout", "w+b") as out, open(workdir / "cli.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, out.read().decode("utf-8", "replace"),
                         err.read().decode("utf-8", "replace"), wall, usage.ru_maxrss / 1024.0)


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: " + "; ".join(problems[:3]), file=sys.stderr)


def _outcome(code: int, stderr: str, check, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    try:
        return check(stdout)
    except Exception as e:  # output of an unexpected shape fails its check
        return [f"check raised {type(e).__name__}: {e}"]


def _check_help(stdout: str) -> list[str]:
    return [] if "Usage:" in stdout else ["no usage text"]


def run_reference(workdir: Path) -> float:
    """Wall time of one fresh run of the fixed reference job."""
    r = run_python([str(HERE / "refjob.py")], workdir)
    if r.code != 0:
        raise RuntimeError(f"reference job failed: {r.stderr.strip()[-300:]}")
    return r.wall_s


def timed_run(commands, workdir: Path, seconds: float, tally: Tally) -> tuple[dict, int]:
    """End-to-end metrics over passes of fresh CLI processes.

    A fresh reference job runs right before every command, and the
    command's wall time is also taken as a multiple of that job's.  Each
    pass starts with two ``--help`` processes for setup_s, taken as
    multiples of the reference job that follows them; one more before
    the window compiles triscore's bytecode.  Returns the metrics,
    per-command figures among them, and the number of passes.
    """
    helps, setup_rel, refs, rss = [], [], [], []
    walls = {c.metric: [] for c in commands}
    rel = {c.metric: [] for c in commands}

    def sample_setup() -> float:
        r = run_cli(["--help"], workdir)
        tally.record("--help", _outcome(r.code, r.stderr, _check_help, r.stdout))
        return r.wall_s

    sample_setup()
    start = time.perf_counter()
    while True:
        pass_helps = [sample_setup(), sample_setup()]
        pass_rss = 0.0
        for c in commands:
            refs.append(run_reference(workdir))
            r = run_cli(c.argv, workdir)
            tally.record(c.metric, _outcome(r.code, r.stderr, c.check, r.stdout))
            walls[c.metric].append(r.wall_s)
            rel[c.metric].append(r.wall_s / refs[-1])
            pass_rss = max(pass_rss, r.maxrss_mb)
        helps.extend(pass_helps)
        setup_rel.extend(h / refs[-len(commands)] for h in pass_helps)
        rss.append(pass_rss)
        elapsed = time.perf_counter() - start
        # start another pass only if it should end inside the window
        if elapsed * (len(rss) + 1) / len(rss) > seconds:
            break

    wall = {m: statistics.median(v) for m, v in walls.items()}
    ratio = {m: statistics.median(v) for m, v in rel.items()}
    metrics = {
        "setup_s": (REFERENCE_S * statistics.median(setup_rel), "s"),
        "pass_rel": (sum(ratio.values()), "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    metrics.update({m: (s, "s") for m, s in wall.items()})
    metrics.update({m.removesuffix("_s") + "_rel": (r, "ratio") for m, r in ratio.items()})
    metrics["help_s"] = (statistics.median(helps), "s")
    metrics["reference_s"] = (statistics.median(refs), "s")
    metrics["records_per_s"] = (sum(c.records for c in commands) / sum(wall.values()), "1/s")
    return metrics, len(rss)


def call_in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    """Invoke the click group in this process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="triscore", standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash is one failed operation, not the end of the run
            code = 1
            print(f"{type(e).__name__}: {e}", file=err)
    return code, out.getvalue(), err.getvalue()


def in_process_pass(cli, commands, tally: Tally, tracer=None) -> float:
    wall = 0.0
    for c in commands:
        start = time.perf_counter()
        if tracer is None:
            code, out, err = call_in_process(cli, c.argv)
        else:
            with tracer.span("cli." + c.metric.removesuffix("_s")):
                code, out, err = call_in_process(cli, c.argv)
        wall += time.perf_counter() - start
        tally.record(c.metric, _outcome(code, err, c.check, out))
    return wall


def traced_run(commands, seconds: float, tally: Tally, trace_path: Path) -> tuple[dict, int]:
    """Per-layer metrics: untraced and traced in-process passes, alternately."""
    sys.path.insert(0, str(SRC))
    import triscore.cli as cli

    from tracer import Tracer

    layers = json.loads((HERE / "stages.json").read_text(encoding="utf-8"))["layers"]
    tracer = Tracer(layers)
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    try:
        while True:
            untraced.append(in_process_pass(cli, commands, tally))
            tracer.install()
            try:
                tracer.begin_pass()
                traced.append(in_process_pass(cli, commands, tally, tracer))
            finally:
                tracer.uninstall()
            per_pass.append(tracer.pass_metrics())
            elapsed = time.perf_counter() - start
            if elapsed * (len(traced) + 1) / len(traced) > seconds:
                break
    finally:
        tracer.dump(trace_path)

    metrics = {}
    for name in layers:
        values = [p[name] for p in per_pass if name in p]
        if values:
            metrics[name] = (statistics.median(values), layers[name]["unit"])
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced),
                                       layers["trace.overhead_ratio"]["unit"])
    return metrics, len(traced)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement window; passes start only while they fit in it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="about 10^3 records per workload, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "triscore" / "cli.py").is_file():
        print(f"error: no triscore sources under {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if args.trace else "end_to_end"]}
    scale = "smoke" if args.smoke else "full"
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        commands = workloads.WORKLOADS[args.workload](
            np.random.default_rng(args.seed), workloads.SIZES[scale], workdir)
        generated_s = time.perf_counter() - start
        print(f"workload {args.workload}, seed {args.seed}, {scale} inputs "
              f"({sum(c.records for c in commands)} records read per pass), "
              f"benchmark set-up (input generation and oracles) {generated_s:.2f} s")
        tally = Tally()
        if args.trace:
            # one file per workload and scale, so repeated runs do not fill the disk
            trace_path = WORK / f"trace-{args.workload}-{scale}.npz"
            metrics, n_passes = traced_run(commands, args.seconds, tally, trace_path)
        else:
            metrics, n_passes = timed_run(commands, workdir, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "traced and untraced in-process" if args.trace else "fresh-process"
    print(f"{n_passes} {kind} pass(es); each metric is the median of {n_passes} samples"
          + ("" if args.trace else f", setup_s of {2 * n_passes}"))
    print("tail percentiles not reported: a p90 with 10 samples beyond it needs 100 samples")
    if args.trace:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for title, names in (("in BENCHMARK.json", [n for n in metrics if n in wanted]),
                         ("readable only", [n for n in metrics if n not in wanted])):
        print(f"{title}:")
        for name in names:
            value, unit = metrics[name]
            print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"failed {tally.failed} of {tally.attempted} operations")
    missing = [n for n, unit in wanted.items() if metrics.get(n, (None, None))[1] != unit]
    if missing:
        print(f"error: no value in the declared unit for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": unit} for n, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
