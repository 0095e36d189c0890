"""Package namespace and the runnable scripts in ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import liouq

ROOT = Path(__file__).resolve().parent.parent


def test_all_holds_no_module():
    assert liouq.__all__
    for name in liouq.__all__:
        assert not isinstance(getattr(liouq, name), ModuleType), name


def test_import_loads_no_executor_machinery():
    # importing concurrent.futures costs about 12 ms, which every run pays
    # at start-up; the worker thread needs only ``threading``
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    probe = "import sys, liouq; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize(
    "script, args",
    [
        ("void_experiment.py", ["--trials", "200", "--radii", "0.5"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
