"""Quenched potential noise, noisy ensembles, and the dissipative evolution.

A noise realization is one static field dV(x) with independent Gaussian
cells of standard deviation nu(x); the continuum delta correlation is
read as a Kronecker delta on the lattice, so the quenched average of
the pure-phase evolution has the closed form

    <f(x, y; t)> = f(x, y; 0) exp(-t^2 [nu^2(x) + nu^2(y)] / 2)

off the diagonal, with t the time since the noise was switched on and
diagonal elements exactly unchanged.  Noisy ensembles and the
dissipative evolution, whose decay coefficient grows linearly in t, run
with transport frozen: their noise factors are not smooth (the lattice
white noise, the damping across the diagonal), and spectral kinetic
steps would ring them out to the box edge.  Every factor is then
pointwise and the factors commute, so neither steps anything:
``ensemble_evolve`` averages the realizations in closed form, and
``lindblad_evolve`` evaluates the law above times V's midpoint phases.

A noise width always comes as a ``NoiseSpec``: the profile nu(x) and
the stream seed.  Realizations are drawn from the counter-based streams
of :mod:`liouq.streams`, keyed by (seed, realization index), so results
do not depend on evaluation order; ``sample_noise`` returns realization
k's field dV(x) as an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    BoundaryContaminationError,
    ConfigError,
    DomainError,
    RealizationError,
)
from .evolvers import (
    EvolverConfig,
    Trajectory,
    _beside,
    _check_tail,
    _density_diag,
    _record_steps,
)
from .grids import DensityGrid, GridSpec, boundary_fraction
from .potentials import Potential
from .streams import check_seed, normal_rows, stream

_BLOCK = 128  # realizations per accumulation block of the closed form


@dataclass(frozen=True)
class NoiseSpec:
    """Width profile nu(x) plus the stream seed.

    ``nu`` may be a scalar, an array over the spatial lattice, or a
    callable of x.
    """

    nu: object
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)

    def nu_on_grid(self, grid: GridSpec) -> np.ndarray:
        if callable(self.nu):
            prof = np.asarray(self.nu(grid.x), dtype=float)
        elif np.ndim(self.nu) == 0:
            prof = np.full(grid.n_points, float(self.nu))
        else:
            prof = np.asarray(self.nu, dtype=float)
        if prof.shape != (grid.n_points,):
            raise ConfigError("nu profile length does not match the grid")
        if not np.all(np.isfinite(prof)) or np.any(prof < 0):
            raise DomainError("nu must be finite and non-negative")
        return prof


def sample_noise(spec: NoiseSpec, grid: GridSpec, k: int) -> np.ndarray:
    """Draw realization ``k``'s field dV(x): independent cells, mean 0, std nu(x)."""
    return spec.nu_on_grid(grid) * stream(spec.seed, k).standard_normal(grid.n_points)


@dataclass
class EnsembleReport:
    """Averaged states and per-element standard errors per recorded time."""

    n_realizations: int
    seed: int
    times: List[float]
    mean_states: List[DensityGrid]
    stderr: List[np.ndarray]

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ConfigError("need at least one realization")


def _phase_minus_one(theta: np.ndarray) -> np.ndarray:
    """exp(-i theta) - 1 without cancellation at small theta."""
    return -2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)


def _potential_phases(V, x, t0, dt, steps) -> list:
    """d_s = exp(-i dt sum_{s' <= s} v(x, t0 + (s' - 1/2) dt)) per record step s.

    As the steppers do (``evolvers._midpoint_phase``), a time-dependent V
    is sampled at every step midpoint; each run of equal samples adds
    (its steps) dt v at once, so a static V gives exp(-i s dt v) itself.
    """
    profile = V.value(x, t0 + 0.5 * dt)
    done, start, sampled, phases = 0.0, 0, 1, []
    for s in steps:
        while V.time_dependent and sampled < s:
            sampled += 1
            current = V.value(x, t0 + (sampled - 0.5) * dt)
            if not np.array_equal(current, profile):
                done = done + -1j * ((sampled - 1 - start) * dt) * profile
                profile, start = current, sampled - 1
        phases.append(np.exp(done + -1j * ((s - start) * dt) * profile))
    return phases


def _frozen_walk(f0: DensityGrid, V: Potential, cfg: EvolverConfig):
    """Sorted record steps and V's midpoint phases d_s there, for a closed form.

    Both closed forms run with transport frozen (the module docstring
    says why), so every factor is pointwise and the factors commute:
    record step s is f0 times d_s(Q) conj(d_s(q)) times a noise factor,
    and nothing is stepped.  No factor has modulus above 1, and for a
    Hermitian positive f0 the peak is on the diagonal, which never
    moves, so no record's tail exceeds f0's: f0's tail over the limit
    raises ``BoundaryContaminationError`` at step 1, where a stepper
    would abort.  A non-finite phase raises ``DomainError``.
    """
    _check_tail(f0.values, cfg.tail_threshold, 1)
    steps = sorted(_record_steps(cfg))
    phases = _potential_phases(V, f0.grid.x, f0.time, cfg.dt, steps)
    if not all(np.all(np.isfinite(d)) for d in phases):
        raise DomainError("potential phase is not finite")
    return steps, phases


def _decay_rates(spec: NoiseSpec, grid: GridSpec) -> np.ndarray:
    """nu^2(Q) + nu^2(q) off the diagonal and 0 on it: the coherence decay rates."""
    nu = spec.nu_on_grid(grid)
    rates = nu[:, None] ** 2 + nu[None, :] ** 2
    np.fill_diagonal(rates, 0.0)
    return rates


def _closed_form_moments(f0, V, spec, M, cfg):
    """Quenched pure-phase ensemble without stepping (see ensemble_evolve).

    Transport is frozen (see the module docstring).  With
    u_k = exp(-i t dV_k) and b_k = u_k - 1, realization k at record
    step s is f0 D w_k, where D(Q, q) = d_s(Q) conj(d_s(q)) carries V
    (``_potential_phases``) and w_k = u_k(Q) conj(u_k(q)).  Only
    realization sums of b and of b(Q) conj(b(q)) are needed: the latter,
    ``pair``, is one matrix product per record and block, and its real
    diagonal is the sum of |b|^2.  M2 is taken about the noise-free value
    w = 1, using |w_k - 1| = |b_k(Q) - b_k(q)|, so its rounding error
    scales with the spread instead of with |f0|^2.

    A block's rows b are stepped from record to record: u at step s + g
    is u_s u_g, so b <- b + b_g + b b_g, where b_g is built once per
    block and distinct record gap g.  The update never forms 1 + b, so
    small phases keep their relative accuracy.  A block's noise rows
    come from one pass over its streams (``streams.normal_rows``).

    The blocks alternate between this thread, which takes the even ones,
    and a second one (``evolvers._beside``): each thread draws its own
    blocks' rows, steps them once through all records and adds them to
    its own sums.  This thread's ``pair`` sums live in ``mean[1:]``, so
    the second thread's are the only extra record-sized array; this
    thread then adds them to its own, a fixed order, so the result does
    not depend on thread timing and equals a run of both jobs on one
    thread.  With at most two blocks every sum takes the operands in the
    order a single loop over the blocks would, bit for bit; with more,
    the block sums are added in another order.  A second call splits
    the records by parity and turns each record's sums into its mean in
    place.  A run makes two thread starts, whatever M and the number of
    records.

    Raises ``RealizationError`` for the first failing realization: 0
    with ``_frozen_walk``'s ``BoundaryContaminationError`` or
    ``DomainError`` (f0's tail, a non-finite potential phase), else a
    ``DomainError`` for a non-finite noise row (the smallest such k:
    each thread stops at its first one, and every block below the
    smaller was checked by its owner).
    """
    try:
        steps, phases = _frozen_walk(f0, V, cfg)
    except (BoundaryContaminationError, DomainError) as cause:
        raise RealizationError(0, cause) from cause
    grid = f0.grid
    n = grid.n_points
    profile = spec.nu_on_grid(grid)
    gaps = np.diff(steps, prepend=0)
    times = [f0.time] + [f0.time + step * cfg.dt for step in steps]
    mean = np.zeros((len(times), n, n), dtype=complex)
    mean[0] = f0.values
    first = np.zeros((len(steps), n), dtype=complex)

    def accumulate(blocks: range, sums) -> int | None:
        # adds the blocks to the sums; the first non-finite row's k stops it
        pair_sum, first_sum = sums
        for start in blocks:
            ks = range(start, min(start + _BLOCK, M))
            dv = profile * normal_rows(spec.seed, ks, n)
            finite = np.isfinite(dv).all(axis=1)
            if not finite.all():
                return ks[int(np.argmin(finite))]
            b_gap = {g: _phase_minus_one((g * cfg.dt) * dv) for g in set(gaps)}
            b = np.zeros_like(b_gap[gaps[0]])
            update = np.empty_like(b)
            for r, g in enumerate(gaps):
                # b += b_g + b b_g, in place
                np.multiply(b, b_gap[g], out=update)
                update += b_gap[g]
                b += update
                pair_sum[r] += b.T @ b.conj()
                first_sum[r] += b.sum(axis=0)
        return None

    def finish(records: range) -> None:
        # shift = (first(Q) + conj(first(q)) + pair) / M; the mean
        # f0 D (1 + shift) is formed in the buffer of the record's sums
        shift = np.empty((n, n), dtype=complex)
        work = np.empty((n, n))
        for r in records:
            pair, total, d, spread = mean[r + 1], first[r], phases[r], m2[r + 1]
            np.add(total[:, None], total.conj()[None, :], out=shift)
            shift += pair
            shift /= M
            second = pair.real.diagonal()
            np.add(second[:, None], second[None, :], out=spread)
            spread -= np.multiply(2.0, pair.real, out=work)
            np.square(np.abs(shift, out=work), out=work)
            spread -= np.multiply(M, work, out=work)
            # non-negative in exact arithmetic (Cauchy-Schwarz); guard rounding
            np.maximum(spread, 0.0, out=spread)
            np.multiply(abs_f0_sq, spread, out=spread)
            shift += 1.0
            np.multiply(d[:, None], d.conj()[None, :], out=pair)
            np.multiply(f0.values, pair, out=pair)
            pair *= shift
            # dV(Q) - dV(Q) vanishes: the diagonal never moves
            pair[diag] = f0.values[diag]
            spread[diag] = 0.0

    blocks = range(0, M, _BLOCK)
    theirs = (np.zeros_like(mean[1:]), np.zeros_like(first))
    found = _beside(
        lambda: accumulate(blocks[1::2], theirs),
        lambda: accumulate(blocks[0::2], (mean[1:], first)),
    )
    found = [k for k in found if k is not None]
    if found:
        cause = DomainError("noise field is not finite")
        raise RealizationError(min(found), cause) from cause
    # sums start at +0.0 and never become -0.0, so adding a job's untouched
    # zeros (one block) leaves the caller's sums bit for bit as they were
    mean[1:] += theirs[0]
    first += theirs[1]
    theirs = None  # freed before m2 is written
    m2 = np.zeros(mean.shape)
    abs_f0_sq = np.abs(f0.values) ** 2
    diag = np.diag_indices(n)
    records = range(len(steps))
    _beside(lambda: finish(records[1::2]), lambda: finish(records[0::2]))
    return times, mean, m2


def ensemble_evolve(
    f0: DensityGrid,
    V: Potential,
    spec: NoiseSpec,
    M: int,
    cfg: EvolverConfig,
) -> EnsembleReport:
    """Average M quenched noisy evolutions of the same initial state.

    Each realization evolves under V + dV_k, dV_k static over the whole
    window, with transport frozen.  Every step is then a pure phase and
    the phases commute, so nothing is stepped: s steps multiply f0
    exactly by
    d_s(Q) conj(d_s(q)) exp(-i s dt [dV_k(Q) - dV_k(q)]), where d_s sums
    V's midpoint phases.  ``_closed_form_moments`` forms the means and
    elementwise standard errors at every recorded time, one matrix
    product per record and block of realizations, so memory does not
    grow with M.  The blocks alternate between this thread and a second
    one, whose sums are added to this thread's in a fixed order: reruns
    are bit-identical, and equal a run of both threads' jobs on one
    thread; with at most two blocks the sums are those of one loop over
    the blocks, bit for bit.  The means are formed in the buffer that
    held the sums, and the standard errors in the one that held M2.
    The diagonal keeps f0's values exactly.  Raises
    ``RealizationError`` when f0's tail is over the limit or a phase is
    not finite.
    """
    if M < 2:
        raise ConfigError("need M >= 2 realizations for error bars")
    times, mean, m2 = _closed_form_moments(f0, V, spec, M, cfg)
    m2 /= (M - 1) * M
    stderr = np.sqrt(m2, out=m2)
    return EnsembleReport(
        n_realizations=M,
        seed=spec.seed,
        times=list(times),
        mean_states=[DensityGrid(f0.grid, mean[i], t) for i, t in enumerate(times)],
        stderr=[stderr[i] for i in range(len(times))],
    )


# ---------------------------------------------------------------------------
# the dissipative evolution and its decay law


def lindblad_evolve(
    f0: DensityGrid, V: Potential, spec: NoiseSpec, cfg: EvolverConfig
) -> Trajectory:
    """Potential phases plus off-diagonal damping at rate t [nu^2(Q) + nu^2(q)].

    t is the time since f0.  Transport is frozen, so record step s is, in
    closed form, ``decay_predict(f0, spec, s dt)`` times
    d_s(Q) conj(d_s(q)), with d_s V's midpoint phases as in the
    ensemble's closed form.  The diagonal keeps f0's values exactly.
    Raises ``_frozen_walk``'s errors bare: ``BoundaryContaminationError``
    at step 1 when f0's tail is over the limit, ``DomainError`` for a
    non-finite potential phase.
    """
    steps, phases = _frozen_walk(f0, V, cfg)
    grid = f0.grid
    rates = _decay_rates(spec, grid)
    diag = np.diag_indices(grid.n_points)
    states = [f0]
    for step, d in zip(steps, phases):
        t = step * cfg.dt
        # decay_predict's product, then the phases; the diagonal is restored,
        # since |d|^2 rounds
        values = f0.values * np.exp(-0.5 * t**2 * rates) * np.outer(d, d.conj())
        values[diag] = f0.values[diag]
        states.append(DensityGrid(grid, values, f0.time + t))
    diags = [_density_diag(s, boundary_fraction(s.values)) for s in states]
    return Trajectory([s.time for s in states], states, diags)


def decay_predict(f0: DensityGrid, spec: NoiseSpec, t: float) -> DensityGrid:
    """Closed-form off-diagonal decay with the transport part neglected.

    f(Q, q; t) = f(Q, q; 0) exp(-t^2 [nu^2(Q) + nu^2(q)] / 2) off the
    diagonal, with t the time since f0; diagonal elements are unchanged.
    """
    factor = np.exp(-0.5 * t**2 * _decay_rates(spec, f0.grid))
    return DensityGrid(f0.grid, f0.values * factor, f0.time + t)


def compare_ensemble_vs_lindblad(
    report: EnsembleReport, traj: Trajectory, spec: NoiseSpec
) -> dict:
    """Elementwise z-scores of the dissipative evolution against the ensemble.

    The PASS flag requires elementwise agreement within three standard
    errors over the window t * max(nu) <= 2, with a small allowance for
    the expected tail of the error distribution (a strict all-elements
    rule would fail statistically on large grids).  Records are paired
    by index; their counts and times must agree.
    """
    times = report.times
    if len(traj.times) != len(times) or any(
        abs(t - u) > 1e-9 * max(1.0, abs(t)) for t, u in zip(times, traj.times)
    ):
        raise ConfigError("ensemble and trajectory record different times")
    worst_z = 0.0
    n_checked = 0
    n_exceed = 0
    nu_max = float(spec.nu_on_grid(report.mean_states[0].grid).max())
    for t, mean_state, err, other in zip(
        times, report.mean_states, report.stderr, traj.states
    ):
        if other.grid != mean_state.grid:
            raise ConfigError("ensemble and trajectory grids do not match")
        if t * nu_max > 2.0:
            continue
        diff = np.abs(mean_state.values - other.values)
        floor = 1e-13 * max(float(np.abs(mean_state.values).max()), 1.0)
        z = diff / np.maximum(err, floor)
        worst_z = max(worst_z, float(z.max()))
        n_checked += z.size
        n_exceed += int((z > 3.0).sum())
    exceed_fraction = n_exceed / n_checked if n_checked else 0.0
    passed = n_checked > 0 and exceed_fraction <= 0.02 and worst_z <= 6.0
    return {
        "max_z": worst_z,
        "exceed_fraction": exceed_fraction,
        "pass": passed,
    }
