"""Kernel microbenchmarks at the study grid size (n = 128, complex128).

Operation counts and bytes moved are computed from the kernel's shape,
not measured: an FFT of N points counts 5 N log2 N flops, a complex
multiply 6, a complex matmul 8 n^3, and bytes count each array read or
written once.
"""

from __future__ import annotations

import math
import time

import numpy as np

from liouq import DensityGrid, GridSpec, boundary_fraction

N_GRID = 128
_BATCHES = 7
_BATCH_S = 0.01


def _time_us(fn) -> float:
    """Median over batches of one call's time, in microseconds."""
    fn()
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= _BATCH_S:
            break
        reps *= 2
    samples = [elapsed / reps]
    for _ in range(_BATCHES - 1):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return float(np.median(samples)) * 1e6


def kernel_table(n: int = N_GRID, seed: int = 0) -> dict:
    """metric name -> {"us", "ops_computed", "bytes_computed"}."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(n, 10.0)
    cells = n * n
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))
    work = a.copy()

    def phase_mul():
        nonlocal work
        work *= phase

    kernels = {
        "evolvers.fft_pair_us": (
            lambda: np.fft.ifft2(np.fft.fft2(a)),
            2 * 5 * cells * math.log2(cells),
            2 * 2 * 16 * cells,
        ),
        "evolvers.phase_mul_us": (phase_mul, 6 * cells, 3 * 16 * cells),
        "evolvers.hermiticity_defect_us": (
            lambda: float(np.abs(a - a.conj().T).max()),
            7 * cells,
            80 * cells,
        ),
        "evolvers.matmul_us": (lambda: a @ b, 8 * n**3, 3 * 16 * cells),
        "grids.boundary_fraction_us": (
            lambda: boundary_fraction(a),
            5 * cells,
            32 * cells,
        ),
        "grids.density_grid_us": (
            lambda: DensityGrid(grid, a.copy(), 0.0),
            2 * cells,
            49 * cells,
        ),
    }
    return {
        name: {"us": _time_us(fn), "ops_computed": float(ops), "bytes_computed": float(nbytes)}
        for name, (fn, ops, nbytes) in kernels.items()
    }
