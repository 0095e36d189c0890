"""Package namespace and the runnable scripts in ``scripts/``."""

import inspect
import os
import re
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


def _readme_api_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_readme_api_names_are_exported():
    # every call in the API block, and every call quoted in its prose
    section = _readme_api_section()
    block = section.split("```python", 1)[1].split("```", 1)[0]
    called = set(re.findall(r"^(\w+)\(", block, re.MULTILINE))
    called |= set(re.findall(r"`(\w+)\(", section))
    assert {"ensemble_evolve", "EvolverConfig", "NoiseSpec"} <= called
    assert sorted(called - set(liouq.__all__)) == []


def test_readme_evolver_config_signature_is_the_code():
    printed = re.search(r"`EvolverConfig\(([^`]*)\)`", _readme_api_section())
    params = inspect.signature(liouq.EvolverConfig).parameters.values()
    actual = ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params
    )
    assert " ".join(printed.group(1).split()) == actual


def run_python(*args, **env_vars):
    """stdout of ``python *args`` with liouq's sources on the path; it must succeed."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout.strip()


def test_import_loads_no_executor_machinery():
    # importing concurrent.futures costs about 12 ms, which every run pays
    # at start-up; the worker thread needs only ``threading``
    probe = "import sys, liouq; print('concurrent.futures' in sys.modules)"
    assert run_python("-c", probe) == "False"


def test_import_pins_blas_threads_unless_set(monkeypatch):
    # an unset thread count becomes 1 before numpy loads BLAS; a set one stays
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    probe = (
        "import os, liouq; print(*(os.environ[v] for v in"
        " ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))"
    )
    assert run_python("-c", probe) == "1 1 1"
    assert run_python("-c", probe, OMP_NUM_THREADS="2") == "1 2 1"
    # once numpy is loaded, BLAS has read its thread count: liouq sets none
    probe = "import os, numpy, liouq; print('MKL_NUM_THREADS' in os.environ)"
    assert run_python("-c", probe) == "False"


@pytest.mark.parametrize(
    "script, args",
    [
        ("void_experiment.py", ["--trials", "200", "--radii", "0.5"]),
    ],
)
def test_script_runs(script, args):
    run_python(str(ROOT / "scripts" / script), *args)
