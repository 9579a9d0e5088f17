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
