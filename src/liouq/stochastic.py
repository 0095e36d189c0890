"""Quenched potential noise, noisy ensembles, and the dissipative stepper.

A noise realization is one static field dV(x) with independent Gaussian
cells of standard deviation nu(x); the continuum delta correlation is
read as a Kronecker delta on the lattice, so the quenched average of
the pure-phase evolution has the closed form

    <f(x, y; t)> = f(x, y; 0) exp(-t^2 [nu^2(x) + nu^2(y)] / 2)

off the diagonal, with diagonal elements exactly unchanged.  The same
law is the stationary-phase limit of the dissipative stepper, whose
decay coefficient grows linearly in time; stepping uses the midpoint
value of that coefficient, which integrates the linear growth exactly.

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

from .errors import ConfigError, DomainError, RealizationError
from .evolvers import (
    EvolverConfig,
    Trajectory,
    _evolve_density,
    _potential_phase,
    _record_steps,
    _strang_density,
    _Worker,
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


def _draw(profile: np.ndarray, seed: int, k: int) -> np.ndarray:
    """The field of stream ``(seed, k)``: independent cells, std profile."""
    return profile * stream(seed, k).standard_normal(profile.size)


def sample_noise(spec: NoiseSpec, grid: GridSpec, k: int) -> np.ndarray:
    """Draw realization ``k``'s field dV(x): independent cells, mean 0, std nu(x)."""
    return _draw(spec.nu_on_grid(grid), spec.seed, k)


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


def _stepped_moments(f0, V, spec, M, cfg):
    """Step every quenched realization; running mean and M2 per recorded time.

    Welford's update keeps M2 a sum of squared deviations from the
    running mean, so no cancellation-prone E[x^2] - mean^2 is formed.
    """
    profile = spec.nu_on_grid(f0.grid)
    mean = m2 = times = None
    for k in range(M):
        dv = _draw(profile, spec.seed, k)
        try:
            traj = _evolve_density(f0, V, dv[:, None] - dv[None, :], cfg)
        except Exception as exc:  # annotate with the realization index
            raise RealizationError(k, exc) from exc
        if mean is None:
            times = traj.times
            mean = np.zeros((len(times),) + f0.values.shape, dtype=complex)
            m2 = np.zeros(mean.shape)
        for i, state in enumerate(traj.states):
            delta = state.values - mean[i]
            mean[i] += delta / (k + 1)
            m2[i] += (delta * np.conj(state.values - mean[i])).real
    return times, mean, m2


def _phase_minus_one(theta: np.ndarray) -> np.ndarray:
    """exp(-i theta) - 1 without cancellation at small theta."""
    return -2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)


def _closed_form_moments(f0, V, spec, M, cfg):
    """Quenched pure-phase ensemble without stepping (see ensemble_evolve).

    With u_k = exp(-i t dV_k) and b_k = u_k - 1, realization k at time t
    is f0 D w_k, where D(Q, q) = exp(-i t [v(Q) - v(q)]) and
    w_k = u_k(Q) conj(u_k(q)).  Only realization sums of b and of
    b(Q) conj(b(q)) are needed: the latter, ``pair``, is one matrix
    product per record and block, and its real diagonal is the sum of
    |b|^2.  M2 is taken about the noise-free value w = 1, using
    |w_k - 1| = |b_k(Q) - b_k(q)|, so its rounding error scales with the
    spread instead of with |f0|^2.

    A block's rows b are stepped from record to record: u at step s + g
    is u_s u_g, so b <- b + b_g + b b_g, where b_g is built once per
    block and distinct record gap g.  The update never forms 1 + b, so
    small phases keep their relative accuracy.  A block's noise rows
    come from one pass over its streams (``streams.normal_rows``).

    With more than one record, the records are split by parity between
    this thread and one worker thread (``evolvers._Worker``).  Per block,
    this thread draws the rows and builds b_g while the worker waits,
    so no GIL-bound draw runs beside the worker's products.  Then both
    threads step the rows from record 0, and each adds the block to its
    own records' sums only; at the end each finishes its own records'
    mean and M2.  So every record's sums take the same operands in the
    same block order as on one thread, bit for bit, and no second
    accumulator is needed.

    Returns None, for the caller to step every realization instead, when
    f0's tail exceeds the limit (unit-modulus factors keep |f| elementwise,
    so the monitor would read that at every step) or a phase is not finite.
    """
    grid = f0.grid
    n = grid.n_points
    vx = V.value(grid.x)
    profile = spec.nu_on_grid(grid)
    if boundary_fraction(f0.values) > cfg.tail_threshold:
        return None
    steps = sorted(_record_steps(cfg))
    gaps = np.diff(steps, prepend=0)
    pair = np.zeros((len(steps), n, n), dtype=complex)
    first = np.zeros((len(steps), n), dtype=complex)

    def accumulate(b_gap: dict, own: range) -> None:
        b = np.zeros_like(b_gap[gaps[0]])
        update = np.empty_like(b)
        for r, g in enumerate(gaps):
            # b += b_g + b b_g, in place
            np.multiply(b, b_gap[g], out=update)
            update += b_gap[g]
            b += update
            if r in own:
                pair[r] += b.T @ b.conj()
                first[r] += b.sum(axis=0)

    def finish(own: range) -> None:
        for r in own:
            step = steps[r]
            d = np.exp(-1j * (step * cfg.dt) * vx)
            shift = (first[r][:, None] + first[r].conj()[None, :] + pair[r]) / M
            mean[r + 1] = f0.values * np.outer(d, d.conj()) * (1.0 + shift)
            second = pair[r].real.diagonal()
            spread = second[:, None] + second[None, :] - 2.0 * pair[r].real
            # non-negative in exact arithmetic (Cauchy-Schwarz); guard rounding
            m2[r + 1] = abs_f0_sq * np.maximum(spread - M * np.abs(shift) ** 2, 0.0)
            # dV(Q) - dV(Q) vanishes: the diagonal never moves
            mean[r + 1][diag] = f0.values[diag]
            m2[r + 1][diag] = 0.0

    records = range(len(steps))
    mine, theirs = records[0::2], records[1::2]
    with _Worker() as helper:
        for start in range(0, M, _BLOCK):
            ks = range(start, min(start + _BLOCK, M))
            dv = profile * normal_rows(spec.seed, ks, n)
            if not np.all(np.isfinite(vx + dv)):
                return None
            b_gap = {g: _phase_minus_one((g * cfg.dt) * dv) for g in set(gaps)}
            if theirs:
                helper.submit(accumulate, b_gap, theirs)
            accumulate(b_gap, mine)
            helper.wait()
        times = [f0.time] + [f0.time + step * cfg.dt for step in steps]
        mean = np.empty((len(times), n, n), dtype=complex)
        m2 = np.zeros(mean.shape)
        mean[0] = f0.values
        abs_f0_sq = np.abs(f0.values) ** 2
        diag = np.diag_indices(n)
        if theirs:
            helper.submit(finish, theirs)
        finish(mine)
        helper.wait()
    return times, mean, m2


def ensemble_evolve(
    f0: DensityGrid,
    V: Potential,
    spec: NoiseSpec,
    M: int,
    cfg: EvolverConfig,
) -> EnsembleReport:
    """Average M noisy commutator evolutions of the same initial state.

    Each quenched realization evolves under V + dV_k with dV_k static
    over the whole window.  Means and elementwise standard errors are
    accumulated at every recorded time.

    Quenched runs with the kinetic term off and a static V take a closed
    form instead of the stepper: every factor is then the pure phase
    exp(-i dt [v(Q) + dV_k(Q) - v(q) - dV_k(q)]), so s steps multiply f0
    by exp(-i s dt ...) exactly, and the ensemble mean is one matrix
    product of per-realization phase rows per recorded time.  The phase
    vanishes on the diagonal, which therefore keeps f0's values with
    zero error.  The realizations are accumulated in fixed-size blocks,
    so memory does not grow with M.  A block draws its noise rows in
    one pass over its streams and steps its phase rows from record to
    record by the exact product u_{s+g} = u_s u_g; the sum of |b|^2 that
    the error bars need is read off the diagonal of the matrix product
    (see ``_closed_form_moments``).  With more than one record, one
    worker thread forms half of the records' products, split by parity,
    beside the calling thread; the results are those of one thread bit
    for bit, and no thread outlives the call.  Kinetic and time-dependent runs
    are stepped realization by realization, and so is a closed-form run
    whose initial tail is over the limit or whose phase is not finite:
    the stepper alone raises ``RealizationError``.
    """
    if M < 2:
        raise ConfigError("need M >= 2 realizations for error bars")
    moments = None
    if not cfg.include_kinetic and not V.time_dependent:
        moments = _closed_form_moments(f0, V, spec, M, cfg)
    if moments is None:
        moments = _stepped_moments(f0, V, spec, M, cfg)
    times, mean, m2 = moments
    stderr = np.sqrt(m2 / ((M - 1) * M))
    return EnsembleReport(
        n_realizations=M,
        seed=spec.seed,
        times=list(times),
        mean_states=[DensityGrid(f0.grid, mean[i], t) for i, t in enumerate(times)],
        stderr=[stderr[i] for i in range(len(times))],
    )


# ---------------------------------------------------------------------------
# dissipative stepper and its closed form


def _decay_rates(nu: np.ndarray) -> np.ndarray:
    rates = nu[:, None] ** 2 + nu[None, :] ** 2
    np.fill_diagonal(rates, 0.0)
    return rates


def lindblad_evolve(
    f0: DensityGrid, V: Potential, spec: NoiseSpec, cfg: EvolverConfig
) -> Trajectory:
    """Unitary transport plus off-diagonal damping with linearly growing rate.

    Per step: kinetic half-step, then the pointwise potential phase and
    the damping exp(-(t + dt/2) dt [nu^2(Q) + nu^2(q)]) off the diagonal,
    then the second kinetic half-step.  Both pointwise factors commute,
    so their order is immaterial.  Like every engine, the potential
    phase samples a time-dependent V at the step midpoint and is built
    again only when the sampled potential changes.  The diagonal is
    untouched, so the trace is conserved exactly by the dissipative
    factor, and with nu = 0 the step is one commutator-transport step.
    The boundary tail is read and recorded at recorded times, and does
    not abort the run.
    """
    rates = _decay_rates(spec.nu_on_grid(f0.grid))
    dt = cfg.dt
    potential = _potential_phase(f0, V, cfg)

    def phase(work: np.ndarray, step: int) -> None:
        t_prev = f0.time + (step - 1) * dt
        potential(work, step)
        work *= np.exp(-(t_prev + 0.5 * dt) * dt * rates)

    # No tail abort: the damping has zero rate on the diagonal, so it is
    # not smooth, and the kinetic half-steps ring it out to the box edge.
    # At n = 64, L = 10, dt = 0.008, nu = 1 the boundary fraction reaches
    # 7.5e-6 in 15 steps, where commutator transport stays at 8e-14.
    # Nor could the kernel's monitor skip its exact reads here: that
    # needs unit-modulus factors, and the damping shrinks the 2-norm.
    return _strang_density(f0, cfg, phase, None)


def decay_predict(f0: DensityGrid, spec: NoiseSpec, t: float) -> DensityGrid:
    """Closed-form off-diagonal decay with the transport part neglected.

    f(Q, q; t) = f(Q, q; 0) exp(-t^2 [nu^2(Q) + nu^2(q)] / 2) off the
    diagonal; diagonal elements are unchanged.
    """
    factor = np.exp(-0.5 * t**2 * _decay_rates(spec.nu_on_grid(f0.grid)))
    return DensityGrid(f0.grid, f0.values * factor, f0.time + t)


def compare_ensemble_vs_lindblad(
    report: EnsembleReport, traj: Trajectory, spec: NoiseSpec
) -> dict:
    """Per-time distances between the averaged ensemble and the stepper.

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
    maxnorm = []
    l2 = []
    worst_z = 0.0
    n_checked = 0
    n_exceed = 0
    nu_max = float(spec.nu_on_grid(report.mean_states[0].grid).max())
    for idx, (t, other) in enumerate(zip(times, traj.states)):
        mean_state = report.mean_states[idx]
        if other.grid != mean_state.grid:
            raise ConfigError("ensemble and trajectory grids do not match")
        diff = np.abs(mean_state.values - other.values)
        grid = mean_state.grid
        maxnorm.append(float(diff.max()))
        l2.append(float(np.sqrt((diff**2).sum()) * grid.spacing))
        if t * nu_max > 2.0:
            continue
        err = report.stderr[idx]
        floor = 1e-13 * max(float(np.abs(mean_state.values).max()), 1.0)
        z = diff / np.maximum(err, floor)
        worst_z = max(worst_z, float(z.max()))
        n_checked += z.size
        n_exceed += int((z > 3.0).sum())
    exceed_fraction = n_exceed / n_checked if n_checked else 0.0
    passed = n_checked > 0 and exceed_fraction <= 0.02 and worst_z <= 6.0
    return {
        "times": list(times),
        "maxnorm": maxnorm,
        "l2": l2,
        "max_z": worst_z,
        "exceed_fraction": exceed_fraction,
        "pass": passed,
    }
