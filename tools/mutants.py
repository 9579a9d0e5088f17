#!/usr/bin/env python3
"""Check that the tests catch each committed mutant of ``src/``.

Run from anywhere in the repository:

    python tools/mutants.py [TREE] [--only NAME ...]

TREE is a git ref (default HEAD), exported with ``git archive``, or a
directory that holds ``src/triscore`` and ``tests``, copied without its
caches; either goes into a temporary directory that is removed
afterwards, and only that copy is ever changed.
Each mutant replaces one exact snippet of one file under ``src/`` and
names the tests expected to catch it.  First the unchanged copy must
pass every listed test.  Then each mutant is applied alone, its tests
run as ``python -m pytest -x -q``, and one line says whether they
``killed`` it (a test failed) or it ``survived``.  A snippet that is not
found exactly once in its file is ``stale``: the list no longer matches
the source.  The exit code is 0 only when every mutant is killed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    breaks: str
    tests: tuple[str, ...]  # pytest node ids, relative to the tree


MUTANTS = (
    Mutant("domain-exit-2", "src/triscore/cli.py",
           "            _fail(EXIT_DOMAIN, e)", "            _fail(EXIT_SCHEMA, e)",
           "a DomainError exits 2, as malformed input does",
           ("tests/test_cli.py::TestExitCodes",)),
    Mutant("resolve-drops-location", "src/triscore/datasets.py",
           'raise type(e)(str(e), f"records[{i}]") from None', "raise type(e)(str(e)) from None",
           "an error resolving a record no longer names records[i]",
           ("tests/test_datasets.py::TestPairsFromDataset",)),
    Mutant("map-drops-location", "src/triscore/recalibration.py",
           'raise type(e)(str(e), f"records[{i}]") from None', "raise type(e)(str(e)) from None",
           "a mapped forecast that fails no longer names records[i]",
           ("tests/test_recalibration.py::TestApplyMap",
            "tests/test_recalibration.py::TestMapForecasts")),
    Mutant("anchors-unchecked", "src/triscore/colors.py",
           "all(math.isfinite(h2 - h1) for", "all(True for",
           "hue anchors an infinite distance apart interpolate to NaN hues",
           ("tests/test_colors.py::TestPaletteParams",)),
    Mutant("plain-nan-cell", "src/triscore/datasets.py",
           "plain &= np.isfinite(cols[name]) | ~_given(values, n)",
           "plain &= ~np.isinf(cols[name]) | ~_given(values, n)",
           "the column pass takes a cell that is not a number as plain",
           ("tests/test_datasets.py::TestColumnChecks",)),
    Mutant("snap-ties-reversed", "src/triscore/verification.py",
           'rank = np.argsort(np.argsort(floors - scaled, axis=1, kind="stable"), axis=1)',
           'rank = np.argsort(np.argsort((floors - scaled)[:, ::-1], axis=1, kind="stable"),'
           " axis=1)[:, ::-1]",
           "lattice ties go to A, N, B instead of B, N, A",
           ("tests/test_verification.py::TestSnapping",)),
    Mutant("reliability-off-by-1e-9", "src/triscore/verification.py",
           "    R = mean(((P - O) ** 2).sum(axis=1))",
           "    R = mean(((P - O) ** 2).sum(axis=1)) + 1e-9",
           "R no longer closes S = U - Z + R",
           ("tests/test_verification.py::TestDecompose",)),
    Mutant("fit-no-identity-fallback", "src/triscore/recalibration.py",
           "        coeffs = IDENTITY_COEFFS", "        pass",
           "a fitted map may score worse than the identity",
           ("tests/test_recalibration.py::TestFitMap",)),
    Mutant("off-simplex-count-flipped", "src/triscore/recalibration.py",
           "if not res.on_simplex]", "if res.on_simplex]",
           "n_off_simplex counts the forecasts that stayed on the simplex",
           ("tests/test_recalibration.py::TestMapForecasts",)),
    Mutant("project-drops-obs", "src/triscore/cli.py",
           "_valid_record(r.lat, r.lon, p, None, None, o, None, None)",
           "_valid_record(r.lat, r.lon, p, None, None, None, None, None)",
           "project writes records without their observed category",
           ("tests/test_cli.py::TestProject",)),
    Mutant("obs-labels-swapped", "src/triscore/datasets.py",
           "_OBS_LABELS = {c.value: c for c in ObsCategory}",
           '_OBS_LABELS = {"B": ObsCategory.A, "N": ObsCategory.N, "A": ObsCategory.B}',
           "an observed B is read as A and A as B",
           ("tests/test_datasets.py::TestParseCsv",)),
)


def _export(tree: str, scratch: Path) -> Path:
    """A copy of TREE under ``scratch``: the files git tracks at a ref, or
    a directory's files but for caches and work directories."""
    copy = scratch / "tree"
    if Path(tree, "src", "triscore").is_dir():
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "_work"))
        return copy
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", tree], capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"error: {tree!r} is neither a directory holding src/triscore nor a git "
                 f"ref: {archive.stderr.decode(errors='replace').strip()}")
    copy.mkdir()
    subprocess.run(["tar", "-x", "-C", str(copy)], input=archive.stdout, check=True)
    return copy


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    # no bytecode: a mutant of the same size and second as the original
    # would otherwise be run from the original's cached .pyc
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, capture_output=True, text=True)


def run(mutants, copy: Path) -> int:
    """Print one line per mutant and the totals; return the number of
    mutants that were not killed."""
    stale = [m for m in mutants if (copy / m.path).read_text().count(m.old) != 1]
    for m in stale:
        print(f"stale     {m.name}: the snippet is not found exactly once in {m.path}")
    listed = sorted({t for m in mutants for t in m.tests})
    base = _pytest(copy, listed)
    if base.returncode != 0:
        print(f"error: the unchanged tree fails its listed tests\n{base.stdout}{base.stderr}")
        return len(mutants)
    outcomes = {"killed": 0, "survived": 0, "stale": len(stale)}
    for m in mutants:
        if m in stale:
            continue
        source = copy / m.path
        text = source.read_text()
        source.write_text(text.replace(m.old, m.new))
        start = time.perf_counter()
        result = _pytest(copy, m.tests)
        source.write_text(text)
        # 1: a test failed; 2: collection failed, as when the mutant cannot be imported
        if result.returncode not in (0, 1, 2):
            sys.exit(f"error: pytest exited {result.returncode} on {m.name}\n{result.stdout}")
        outcome = "survived" if result.returncode == 0 else "killed"
        outcomes[outcome] += 1
        print(f"{outcome:9} {m.name} ({time.perf_counter() - start:.1f} s): {m.breaks}")
    print(", ".join(f"{n} {k}" for k, n in outcomes.items()))
    return outcomes["survived"] + outcomes["stale"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default="HEAD",
                        help="git ref, or a directory holding src/triscore and tests")
    parser.add_argument("--only", nargs="+", choices=[m.name for m in MUTANTS],
                        help="run these mutants alone")
    args = parser.parse_args()
    mutants = [m for m in MUTANTS if args.only is None or m.name in args.only]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        return 1 if run(mutants, _export(args.tree, Path(scratch))) else 0


if __name__ == "__main__":
    sys.exit(main())
