"""Numeric payload of an emitted study directory and its deviation check.

The payload is read back from the files ``emit_outputs`` wrote: every
CSV column (distance curves, probe curves, the void estimate), every
state snapshot, the ``.dat`` curves, and the numeric values of
``summary.json`` (check observed values, thresholds and verdicts,
metrics, seeds).  Timing fields and the scenario hash are left out.

Deviation from the recorded reference is ``|new - ref|`` elementwise.
A key fails when it exceeds ``ATOL + RTOL * |ref|``; standard-error
columns use ``STDERR_ATOL`` instead.  These sit well below the studies'
own thresholds (``EQUIVALENCE_TOL`` = 1e-6, ``DRIFT_TOL`` = 1e-9) and
well above the ~1e-13 shifts that reordered floating-point work
legitimately causes.  Standard errors are square roots of variances: a
rounding-level change of a near-zero variance moves them by
``sqrt(1e-17 / M)`` ~ 1e-10, hence their wider tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ATOL = 1e-10
RTOL = 1e-9
STDERR_ATOL = 1e-8

FILES_KEY = "__files__"
SEEDS_KEY = "__seeds__"


def _summary_payload(path: Path) -> dict:
    summary = json.loads(path.read_text())
    out = {"summary.passed": float(summary["passed"])}
    for name, check in summary["checks"].items():
        out[f"summary.checks.{name}.observed"] = check["observed"]
        out[f"summary.checks.{name}.threshold"] = check["threshold"]
        out[f"summary.checks.{name}.passed"] = float(check["passed"])
    for name, value in summary["metrics"].items():
        if isinstance(value, (bool, int, float)):
            out[f"summary.metrics.{name}"] = float(value)
    for name, value in summary["seeds"].items():
        out[f"summary.seeds.{name}"] = float(value)
    return {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in out.items()}


def _state_payload(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = int(rows[:, 0].max()) + 1
    values = np.zeros((n, n), dtype=complex)
    values[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    return values


def _csv_payload(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {f"{path.name}:{col}": data[:, i] for i, col in enumerate(header)}


def read_payload(outdir, files=None) -> dict:
    """Numeric payload of ``outdir``; ``files`` restricts which files are read."""
    outdir = Path(outdir)
    listed = (outdir / "index.txt").read_text().split()
    payload = {FILES_KEY: np.array(sorted(listed))}
    for name in files if files is not None else listed:
        path = outdir / name
        if name == "summary.json":
            payload.update(_summary_payload(path))
        elif name.startswith("state_") and name.endswith(".csv"):
            payload[name] = _state_payload(path)
        elif name.endswith(".csv"):
            payload.update(_csv_payload(path))
        elif name.endswith(".dat"):
            payload[name] = np.loadtxt(path, ndmin=2)
    return payload


def deviation(payload: dict, reference: dict) -> tuple:
    """``(max_abs_dev, failures)`` of ``payload`` against ``reference``.

    Every reference key and file must be present with the same shape;
    keys and files the payload adds are ignored, so new outputs do not
    count as deviations.
    """
    failures = []
    missing = set(reference[FILES_KEY]) - set(payload.get(FILES_KEY, ()))
    if missing:
        failures.append(f"missing files {sorted(missing)}")
    worst = 0.0
    for key, ref in reference.items():
        if key == FILES_KEY:
            continue
        new = payload.get(key)
        if new is None or np.shape(new) != np.shape(ref):
            failures.append(f"{key}: missing or reshaped")
            continue
        dev = np.abs(np.asarray(new) - ref)
        if not np.all(np.isfinite(dev)):
            failures.append(f"{key}: non-finite values")
            continue
        if dev.size:
            worst = max(worst, float(dev.max()))
        atol = STDERR_ATOL if key.endswith(":stderr") else ATOL
        if np.any(dev > atol + RTOL * np.abs(ref)):
            failures.append(f"{key}: max deviation {float(dev.max()):.3e}")
    return worst, failures


def reference_path(bench_dir: Path, workload: str) -> Path:
    return bench_dir / "reference" / f"{workload}.npz"


def seed_prefix(seed) -> str:
    return "all" if seed is None else f"seed{seed}"


def load_reference(bench_dir: Path, workload: str, seed, seeded: bool) -> tuple:
    """``(program_seed, reference payload)`` for a ``--seed`` value.

    A seeded workload maps ``seed`` onto its recorded program seeds; an
    unseeded one ignores it and returns ``program_seed`` 0.
    """
    with np.load(reference_path(bench_dir, workload), allow_pickle=False) as data:
        program_seed = int(data[SEEDS_KEY][seed % data[SEEDS_KEY].size]) if seeded else None
        prefix = seed_prefix(program_seed) + "/"
        reference = {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}
    return program_seed or 0, reference


def reference_files(reference: dict) -> list:
    """Files of the reference whose contents are payload keys."""
    return [str(name) for name in reference[FILES_KEY]]
