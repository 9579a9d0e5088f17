"""The package's lazy exports, its error families, the CLI's BLAS thread
default and README's library example.

The exports and the thread default are properties of interpreter
start-up, so each of their cases runs in a fresh interpreter; the
example runs as a reader would run it.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import triscore
from triscore import errors, write_json

from conftest import frozen_dataset

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(args, **env_vars):
    """Stdout of ``python ARGS`` with triscore importable, no thread count set
    but ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def child_json(code, **env_vars):
    """What the script ``code`` prints as JSON, run in a fresh interpreter."""
    return json.loads(run_python(["-c", code], **env_vars))


class TestLazyExports:
    def test_import_loads_no_submodule_and_no_numpy(self):
        out = child_json(
            "import json, sys, triscore\n"
            "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
            "    'loaded': sorted(m for m in sys.modules if m.startswith('triscore.')),\n"
            "    'version': triscore.__version__}))\n")
        assert out == {"numpy": False, "loaded": [], "version": "0.1.0"}

    def test_every_name_is_its_home_binding(self):
        out = child_json(
            "import importlib, json, triscore\n"
            "wrong = []\n"
            "for name in triscore.__all__:\n"
            "    home = 'triscore.' + triscore._HOME[name]\n"
            "    obj = getattr(triscore, name)\n"
            "    if obj is not getattr(importlib.import_module(home), name) \\\n"
            "            or getattr(obj, '__module__', home) != home:\n"
            "        wrong.append(name)\n"
            "# nothing is cached: a rebinding in the submodule shows through\n"
            "sentinel = object()\n"
            "triscore.scoring.score = sentinel\n"
            "print(json.dumps({'table': sorted(triscore._HOME), 'wrong': wrong,\n"
            "    'rebound': triscore.score is sentinel}))\n")
        assert out["wrong"] == []
        assert out["rebound"]
        import triscore
        assert out["table"] == sorted(triscore.__all__)

    def test_star_import_binds_all(self):
        out = child_json(
            "import json, triscore\n"
            "ns = {}\n"
            "exec('from triscore import *', ns)\n"
            "print(json.dumps({'bound': sorted(set(ns) - {'__builtins__'}),\n"
            "    'all': sorted(triscore.__all__)}))\n")
        assert out["bound"] == out["all"]
        assert len(out["all"]) == 63

    def test_dir_and_unknown_names(self):
        out = child_json(
            "import json, triscore\n"
            "def error(name):\n"
            "    try:\n"
            "        getattr(triscore, name)\n"
            "    except AttributeError as e:\n"
            "        return str(e)\n"
            "print(json.dumps({'missing': sorted(set(triscore.__all__) - set(dir(triscore))),\n"
            "    'unknown': error('no_such_name'), 'svg': error('svg')}))\n")
        assert out["missing"] == []
        assert out["unknown"] == "module 'triscore' has no attribute 'no_such_name'"
        # a submodule is an attribute only once it has been imported
        assert out["svg"] == "module 'triscore' has no attribute 'svg'"


class TestErrorFamilies:
    def test_errors_defines_the_two_families_only(self):
        classes = {name for name, obj in vars(errors).items()
                   if inspect.isclass(obj) and obj.__module__ == errors.__name__}
        assert classes == {"TriscoreError", "DomainError", "SchemaError"}
        assert errors.DomainError.__bases__ == (errors.TriscoreError,)
        assert errors.SchemaError.__bases__ == (errors.TriscoreError,)
        for info in pkgutil.iter_modules(triscore.__path__):
            module = importlib.import_module(f"triscore.{info.name}")
            assert module is errors or not [
                name for name, obj in vars(module).items()
                if inspect.isclass(obj) and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__], info.name

    @pytest.mark.parametrize("family", ["DomainError", "SchemaError"])
    def test_location_goes_in_front_of_the_message(self, family):
        error = getattr(errors, family)
        assert str(error("pB = -0.5 < 0", "records[3]")) == "records[3]: pB = -0.5 < 0"
        assert str(error("pB = -0.5 < 0", "row 4")) == "row 4: pB = -0.5 < 0"
        assert str(error("pB = -0.5 < 0")) == "pB = -0.5 < 0"
        assert isinstance(error("x"), errors.TriscoreError)
        assert not hasattr(error("x", "q"), "location")


class TestBlasThreadDefault:
    @pytest.mark.parametrize("prelude, env_vars, expected", [
        ("", {}, "1"),
        ("", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
        ("", {"OMP_NUM_THREADS": "2"}, None),
        ("import numpy\n", {}, None),
    ], ids=["unset", "user-choice", "omp-set", "numpy-first"])
    def test_cli_import(self, prelude, env_vars, expected):
        out = child_json(prelude + "import json, os, triscore.cli\n"
                         "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))\n",
                         **env_vars)
        assert out == expected

    def test_thread_count_does_not_change_results(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_bytes(write_json(frozen_dataset()))
        args = ["-m", "triscore.cli", "calibrate", "-i", str(path)]
        one, two = (run_python(args, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert json.loads(one)["n_train"] == 240
        assert one == two


def test_readme_library_example():
    """The python block under README's ``## Library example`` runs, and
    its first line prints sqrt S, U, Z and R with S = U - Z + R."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    first = run_python(["-c", code]).splitlines()[0]
    S, U, Z, R = (float(x) ** 2 for x in first.split())
    assert S == pytest.approx(U - Z + R, abs=1e-12)
