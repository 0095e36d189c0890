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

Realizations are drawn from the counter-based streams of
:mod:`liouq.streams`, keyed by (seed, realization index), so results do
not depend on evaluation order.
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
)
from .grids import DensityGrid, GridSpec, boundary_fraction
from .potentials import Potential
from .streams import check_seed, stream

_MODES = ("quenched", "resampled")
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


@dataclass(frozen=True)
class NoiseField:
    """One sampled realization dV(x)."""

    values: np.ndarray
    seed: int
    index: int


def _draws(profile: np.ndarray, seed: int, k: int):
    """Successive fields of stream ``(seed, k)``: independent cells, std profile."""
    rng = stream(seed, k)
    while True:
        yield profile * rng.standard_normal(profile.size)


def sample_noise(spec: NoiseSpec, grid: GridSpec, k: int) -> NoiseField:
    """Draw realization ``k``: independent cells, mean 0, std nu(x)."""
    values = next(_draws(spec.nu_on_grid(grid), spec.seed, k))
    return NoiseField(values, spec.seed, k)


def _profile(nu, grid: GridSpec) -> np.ndarray:
    """nu(x) on the lattice from a NoiseSpec or a bare width argument."""
    spec = nu if isinstance(nu, NoiseSpec) else NoiseSpec(nu)
    return spec.nu_on_grid(grid)


@dataclass
class EnsembleReport:
    """Averaged states and per-element standard errors per recorded time."""

    n_realizations: int
    mode: str
    seed: int
    times: List[float]
    mean_states: List[DensityGrid]
    stderr: List[np.ndarray]

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ConfigError("need at least one realization")
        for err in self.stderr:
            if np.any(err < 0):
                raise DomainError("standard errors cannot be negative")


def _resampled_evolve(
    f0: DensityGrid, V: Potential, draws, cfg: EvolverConfig
) -> Trajectory:
    # Exploratory mode: each step takes the potential phase of V, then the
    # phase of a fresh field from ``draws`` instead of one static draw per
    # realization.  The decay it produces depends on dt.
    potential = _potential_phase(f0, V, cfg)

    def phase(work: np.ndarray, step: int) -> None:
        potential(work, step)
        dv = next(draws)
        work *= np.exp(-1j * cfg.dt * (dv[:, None] - dv[None, :]))

    return _strang_density(f0, cfg, phase, cfg.tail_threshold)


def _stepped_moments(f0, V, spec, M, cfg, mode):
    """Step every realization; running mean and M2 per recorded time.

    Welford's update keeps M2 a sum of squared deviations from the
    running mean, so no cancellation-prone E[x^2] - mean^2 is formed.
    """
    profile = spec.nu_on_grid(f0.grid)
    mean = m2 = times = None
    for k in range(M):
        draws = _draws(profile, spec.seed, k)
        try:
            if mode == "quenched":
                dv = next(draws)
                traj = _evolve_density(f0, V, dv[:, None] - dv[None, :], cfg)
            else:
                traj = _resampled_evolve(f0, V, draws, cfg)
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


def _closed_form_moments(f0, V, spec, M, cfg):
    """Quenched pure-phase ensemble without stepping (see ensemble_evolve).

    With u_k = exp(-i t dV_k) and b_k = u_k - 1, realization k at time t
    is f0 D w_k, where D(Q, q) = exp(-i t [v(Q) - v(q)]) and
    w_k = u_k(Q) conj(u_k(q)).  Only realization sums of b, |b|^2 and
    b(Q) conj(b(q)) are needed: the last is one matrix product per
    record and block.  M2 is taken about the noise-free value w = 1,
    using |w_k - 1| = |b_k(Q) - b_k(q)|, so its rounding error scales
    with the spread instead of with |f0|^2.

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
    pair = np.zeros((len(steps), n, n), dtype=complex)
    first = np.zeros((len(steps), n), dtype=complex)
    second = np.zeros((len(steps), n))
    for start in range(0, M, _BLOCK):
        ks = range(start, min(start + _BLOCK, M))
        dv = np.array([next(_draws(profile, spec.seed, k)) for k in ks])
        if not np.all(np.isfinite(vx + dv)):
            return None
        for r, step in enumerate(steps):
            theta = (step * cfg.dt) * dv
            # exp(-i theta) - 1 without cancellation at small theta
            b = -2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)
            pair[r] += b.T @ b.conj()
            first[r] += b.sum(axis=0)
            second[r] += (b.real**2 + b.imag**2).sum(axis=0)

    times = [f0.time] + [f0.time + step * cfg.dt for step in steps]
    mean = np.empty((len(times), n, n), dtype=complex)
    m2 = np.zeros(mean.shape)
    mean[0] = f0.values
    abs_f0_sq = np.abs(f0.values) ** 2
    diag = np.diag_indices(n)
    for r, step in enumerate(steps):
        d = np.exp(-1j * (step * cfg.dt) * vx)
        shift = (first[r][:, None] + first[r].conj()[None, :] + pair[r]) / M
        mean[r + 1] = f0.values * np.outer(d, d.conj()) * (1.0 + shift)
        spread = second[r][:, None] + second[r][None, :] - 2.0 * pair[r].real
        # non-negative in exact arithmetic (Cauchy-Schwarz); guard rounding
        m2[r + 1] = abs_f0_sq * np.maximum(spread - M * np.abs(shift) ** 2, 0.0)
        # dV(Q) - dV(Q) vanishes: the diagonal never moves
        mean[r + 1][diag] = f0.values[diag]
        m2[r + 1][diag] = 0.0
    return times, mean, m2


def ensemble_evolve(
    f0: DensityGrid,
    V: Potential,
    spec: NoiseSpec,
    M: int,
    cfg: EvolverConfig,
    mode: str = "quenched",
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
    so memory does not grow with M.  Kinetic, time-dependent and
    resampled runs are stepped realization by realization, and so is a
    closed-form run whose initial tail is over the limit or whose phase
    is not finite: the stepper alone raises ``RealizationError``.
    """
    if M < 2:
        raise ConfigError("need M >= 2 realizations for error bars")
    if mode not in _MODES:
        raise ConfigError(f"unknown ensemble mode {mode!r}")
    moments = None
    if mode == "quenched" and not cfg.include_kinetic and not V.time_dependent:
        moments = _closed_form_moments(f0, V, spec, M, cfg)
    if moments is None:
        moments = _stepped_moments(f0, V, spec, M, cfg, mode)
    times, mean, m2 = moments
    stderr = np.sqrt(m2 / ((M - 1) * M))
    return EnsembleReport(
        n_realizations=M,
        mode=mode,
        seed=spec.seed,
        times=list(times),
        mean_states=[DensityGrid(f0.grid, mean[i], t) for i, t in enumerate(times)],
        stderr=[stderr[i] for i in range(len(times))],
    )


# ---------------------------------------------------------------------------
# dissipative stepper and its closed form


def _decay_rates(nu_profile: np.ndarray) -> np.ndarray:
    rates = nu_profile[:, None] ** 2 + nu_profile[None, :] ** 2
    np.fill_diagonal(rates, 0.0)
    return rates


def lindblad_evolve(
    f0: DensityGrid, V: Potential, nu, cfg: EvolverConfig
) -> Trajectory:
    """Unitary transport plus off-diagonal damping with linearly growing rate.

    Per step: kinetic half-step, then the pointwise potential half-phase,
    the damping exp(-(t + dt/2) dt [nu^2(Q) + nu^2(q)]) off the diagonal
    and the second potential half-phase, then the second kinetic
    half-step.  Like every engine, both half-phases sample a
    time-dependent V at the step midpoint, and both apply one factor,
    built again only when the sampled potential changes.  The diagonal
    is untouched, so the trace is conserved exactly by the dissipative
    factor, and with nu = 0 the step is one commutator-transport step.
    The boundary tail is read and recorded at recorded times, and does
    not abort the run.
    """
    rates = _decay_rates(_profile(nu, f0.grid))
    dt = cfg.dt
    pot_half = _potential_phase(f0, V, cfg, scale=0.5)

    def phase(work: np.ndarray, step: int) -> None:
        t_prev = f0.time + (step - 1) * dt
        pot_half(work, step)
        work *= np.exp(-(t_prev + 0.5 * dt) * dt * rates)
        pot_half(work, step)

    # No tail abort: the damping has zero rate on the diagonal, so it is
    # not smooth, and the kinetic half-steps ring it out to the box edge.
    # At n = 64, L = 10, dt = 0.008, nu = 1 the boundary fraction reaches
    # 7.5e-6 in 15 steps, where commutator transport stays at 8e-14.
    return _strang_density(f0, cfg, phase, None)


def decay_predict(f0: DensityGrid, nu, t: float) -> DensityGrid:
    """Closed-form off-diagonal decay with the transport part neglected.

    f(Q, q; t) = f(Q, q; 0) exp(-t^2 [nu^2(Q) + nu^2(q)] / 2) off the
    diagonal; diagonal elements are unchanged.
    """
    factor = np.exp(-0.5 * t**2 * _decay_rates(_profile(nu, f0.grid)))
    return DensityGrid(f0.grid, f0.values * factor, f0.time + t)


def compare_ensemble_vs_lindblad(
    report: EnsembleReport, traj: Trajectory, nu
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
    nu_max = float(_profile(nu, report.mean_states[0].grid).max())
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
