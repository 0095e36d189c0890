"""Interpreter set-up for the benchmark and the environment block it reports.

``bootstrap`` must run before numpy is imported: it pins the BLAS
thread count (OpenBLAS reads it once, at load) and puts the checkout's
``src`` first on ``sys.path`` so the liouq under test is the one built
from this checkout.

BLAS is pinned to one thread.  The studies are single-threaded numpy
code, and on a shared 2-core Intel Xeon host a 128^2 complex matmul
took 0.24 ms with one OpenBLAS thread but 15.8 ms with two.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bootstrap() -> int:
    """Pin BLAS threads (at most ``nproc``), import liouq from ``src``.

    Returns the pinned thread count.  Exits with status 2 when the
    checkout holds no liouq sources.
    """
    threads = min(nproc(), BLAS_THREADS)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    if not (SRC / "liouq" / "__init__.py").is_file():
        print(f"benchmark: no liouq sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import liouq

    if Path(liouq.__file__).resolve().parent != SRC / "liouq":
        print(f"benchmark: imported liouq from {liouq.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_block(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)",
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }
