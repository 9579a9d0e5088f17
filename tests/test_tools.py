import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"


@pytest.mark.parametrize("cross_color, code", [(None, 0), ("#00cc00", 1)],
                         ids=["copy", "changed-cross"])
def test_same_outputs(tmp_path, cross_color, code):
    """A copy of this tree's src does what it does; one with another cross
    colour differs in every SVG the map-render workload writes, and only there."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if cross_color is not None:
        svg = tmp_path / "src" / "triscore" / "svg.py"
        text = svg.read_text()
        assert text.count('_CROSS_COLOR = "#0000cc"') == 1
        svg.write_text(text.replace('_CROSS_COLOR = "#0000cc"', f'_CROSS_COLOR = "{cross_color}"'))
    proc = subprocess.run([sys.executable, str(SAME_OUTPUTS), str(tmp_path), "--smoke",
                           "--seeds", "1", "--workload", "map-render"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stdout + proc.stderr
    *lines, total = proc.stdout.splitlines()
    assert sorted(lines) == ([] if cross_color is None else [
        f"map-render seed 1 {name}.svg: bytes differ" for name in ("circles", "map", "reliability")
    ])
    assert total == (f"{len(lines)} difference(s) in 3 command(s) and 4 file(s); "
                     "0 failed check(s)")


@pytest.mark.parametrize("a, b, gap", [
    (b'{"x": [1.0, 2.5], "n": 3}', b'{"x": [1.0000000000000002, 2.5], "n": 3}', 2.0**-52),
    (b'{"x": [1.0, 2.5]}', b'{"x": [1.0, 2.0]}', 0.5),
    (b'{"x": 1}', b'{"x": 1.5}', 0.5),
    (b'[1.0, 2.0]', b'[1.0, 2.0]', 0.0),
    (b'{"x": 1.0}', b'{"y": 1.0}', None),  # keys differ
    (b'[1.0, 2.0]', b'[1.0]', None),  # lengths differ
    (b'{"x": "a", "y": 1.0}', b'{"x": "b", "y": 2.0}', None),  # a string differs
    (b'{"x": true}', b'{"x": 1}', None),  # a bool is not a number
    (b'<svg/>', b'<svg />', None),  # not JSON
], ids=["ulp", "list", "int-float", "equal", "keys", "lengths", "string", "bool", "not-json"])
def test_number_gap(a, b, gap):
    """The largest absolute difference between the numbers of two JSON
    documents that differ only in their numbers, else None; loading the
    tool leaves the importing process as it was."""
    before = (sys.path[:], sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("same_outputs", SAME_OUTPUTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert (sys.path, sys.dont_write_bytecode) == before
    assert tool.number_gap(a, b) == gap
