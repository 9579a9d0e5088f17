#!/usr/bin/env python3
"""Check that another tree's CLI does exactly what this tree's does on the
benchmark's commands.

Run from anywhere in the repository:

    python tools/same_outputs.py PARENT [--seeds 1 7] [--smoke] [--workload NAME ...]

PARENT is a git ref, exported with ``git archive`` into a temporary
directory that is removed afterwards, or a directory that holds
``src/triscore``.  For each workload and seed the inputs are generated
twice, one work directory per side, by this tree's
``perfbench/workloads.py``; nothing under ``perfbench/`` is written.
Every command runs as ``python -m triscore.cli`` with its side's ``src``
first on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``.  The two sides
must give the same exit code, stdout and stderr, with each side's work
directory written as one placeholder, and leave the same bytes in every
file of their work directories.  Each side's outputs must also pass the
workload's own checks, so two sides that fail alike are not taken as a
match.  One line is printed per difference or failed check, then the
totals; the exit code is 0 only when there is neither.  A file that is
JSON on both sides and differs only in its numbers has the largest
absolute difference between them on its line.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import the workloads without writing under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

PLACEHOLDER = "<work>"


def _parent_src(parent: str, scratch: Path) -> Path:
    """The ``src`` directory of PARENT: the directory's own, or the git
    ref's, exported under ``scratch``."""
    if Path(parent, "src", "triscore").is_dir():
        return Path(parent, "src").resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"error: {parent!r} is neither a directory holding src/triscore nor a git "
                 f"ref: {archive.stderr.decode(errors='replace').strip()}")
    subprocess.run(["tar", "-x", "-C", str(scratch)], input=archive.stdout, check=True)
    return scratch / "src"


def _run(argv: list[str], src: Path, work: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m triscore.cli ARGV``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "triscore.cli", *argv],
                          capture_output=True, env=env, cwd=work)
    out, err = (text.decode("utf-8", "replace").replace(str(work), PLACEHOLDER)
                for text in (proc.stdout, proc.stderr))
    return proc.returncode, out, err


def _files(work: Path) -> dict[str, bytes]:
    return {p.relative_to(work).as_posix(): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


def number_gap(a: bytes, b: bytes) -> float | None:
    """The largest absolute difference between the numbers of two JSON
    documents that differ in nothing else, or None."""
    try:
        docs = [json.loads(x) for x in (a, b)]
    except (ValueError, RecursionError):
        return None
    gaps = [0.0]

    def same_but_numbers(x, y) -> bool:
        if isinstance(x, dict) and isinstance(y, dict):
            return x.keys() == y.keys() and all(same_but_numbers(x[k], y[k]) for k in x)
        if isinstance(x, list) and isinstance(y, list):
            return len(x) == len(y) and all(map(same_but_numbers, x, y))
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            gaps.append(abs(x - y) if x != y else 0.0)
            return True
        return type(x) is type(y) and x == y

    return max(gaps) if same_but_numbers(*docs) else None


def compare(parent_src: Path, names: list[str], seeds: list[int], scale: str,
            scratch: Path) -> int:
    """Print one line per difference between the two sides and per failed
    check; return their number."""
    sides = (parent_src, ROOT / "src")
    n_diff = n_failed = n_commands = n_files = 0
    for name in names:
        for seed in seeds:
            works = [scratch / f"{name}-{seed}-{side}" for side in ("parent", "change")]
            commands = []
            for work in works:
                work.mkdir()
                commands.append(workloads.WORKLOADS[name](
                    np.random.default_rng(seed), workloads.SIZES[scale], work))
            for ours, theirs in zip(*commands):
                results = [_run(c.argv, src, work)
                           for c, src, work in zip((ours, theirs), sides, works)]
                for what, a, b in zip(("exit code", "stdout", "stderr"), *results):
                    if a != b:
                        n_diff += 1
                        print(f"{name} seed {seed} {ours.metric}: {what} differs")
                for side, c, (code, out, _) in zip(("parent", "change"), (ours, theirs), results):
                    for problem in c.check(out) if code == 0 else [f"exit code {code}"]:
                        n_failed += 1
                        print(f"{name} seed {seed} {ours.metric} ({side}): {problem}")
                n_commands += 1
            files = [_files(work) for work in works]
            for path in sorted(files[0].keys() | files[1].keys()):
                a, b = files[0].get(path), files[1].get(path)
                if a != b:
                    n_diff += 1
                    gap = None if a is None or b is None else number_gap(a, b)
                    note = "" if gap is None else f" (numbers by at most {gap:.3g})"
                    print(f"{name} seed {seed} {path}: bytes differ{note}")
            n_files += len(files[0].keys() | files[1].keys())
    print(f"{n_diff} difference(s) in {n_commands} command(s) and {n_files} file(s); "
          f"{n_failed} failed check(s)")
    return n_diff + n_failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref, or a directory holding src/triscore")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--smoke", action="store_true", help="about 10^3 records per workload")
    parser.add_argument("--workload", nargs="+", choices=list(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        scratch = Path(scratch)
        parent_src = _parent_src(args.parent, scratch)
        scale = "smoke" if args.smoke else "full"
        return 1 if compare(parent_src, args.workload, args.seeds, scale, scratch) else 0


if __name__ == "__main__":
    sys.exit(main())
