"""Time evolution engines.

Every engine runs one symmetric (Strang) splitting kernel, ``_strang``:
a spectral kinetic half-step, a pointwise factor, a second kinetic
half-step.  The second half-step of one step and the first of the next
are fused into one full kinetic step, so a step costs one FFT pair.  The
loop transforms one n x n array in place, each 2-D transform as two 1-D
passes in ``fft2``'s axis order, so its states are bit for bit those of
``fft2``/``ifft2``.
The engines differ only in the initial work array, the kinetic factor
and the pointwise factor:

* classical phase-space transport, run in the mixed (x, y)
  representation: kinetic phase exp(-i kx ky dt / 2), pointwise phase
  exp(-i y v'(x) dt);
* density-grid transport with the full coupling field, pointwise phase
  exp(-i [v(Q) - v(q) + E(Q, q)] dt), or without it (commutator only).

Every engine takes its potential phase from ``_midpoint_phase``, which
samples a time-dependent potential at the step midpoint
t0 + (s - 1/2) dt, as Strang needs; the closed forms in ``stochastic``
(the quenched ensemble and the dissipative evolution) sum the same
midpoint samples.

All density-grid engines share the kinetic phase
exp(-i dt [k^2(Q) - k^2(q)] / 4), which agrees with the classical one
mode by mode under the shear, so for potentials of at most quadratic
order the classical and density evolutions coincide to rounding.

The kernel warns with ``TimeStepWarning`` when dt exceeds the
spectral-phase guard, and its boundary tail monitor aborts with
``BoundaryContaminationError`` above ``tail_threshold``.
A fused step holds position space only where the pointwise factor acts,
half a kinetic step short of the full step, so the monitor watches there
every step; at a record, and so at the final step, it reads the
full-step state itself, and a recorded snapshot carries that reading as
its ``boundary_fraction``.  An abort may therefore come a step or two
away from where a monitor after every full step would raise it, but no
returned state exceeds the threshold.  Between records the monitor
reads the boundary frame alone and takes the exact fraction, a pass over
the whole array, only when the frame exceeds half the threshold times
norm / n, with norm the initial 2-norm.  That rests on every factor
having unit modulus, which keeps the 2-norm (see below): the peak is
then at least norm / n, so a smaller frame cannot reach the threshold,
and the aborts, their steps and fractions are those of an exact read on
every step.

A density-grid run whose step is one fixed unitary, rho -> U rho U^H
(a static V and no extra term, as for
``von_neumann_evolve`` with a static V and ``qq_liouville_evolve`` with
E identically zero), and whose records are at least two steps apart,
skips the FFTs: ``_dense_density`` builds U^m once per record gap and
jumps from record to record, with a checkpoint every ``_CHECKPOINT``
steps in between.  It reads the tail on the full-step state at
checkpoints and records only; an excursion between checkpoints that
falls back below the threshold goes unseen.  The dense path either
finishes the run or, at the first checkpoint or record above the
threshold, hands the whole run to ``_strang``, so every abort, its step
and the one ``TimeStepWarning`` come from the stepped kernel alone.  The
states agree with the stepped kernel's to rounding (about 1e-12 of the
peak after 6000 steps).

Two studies run a job on a second thread through ``_beside``, which
starts one thread per call and joins it before it returns: the
equivalence study steps the classical engine there, and the quenched
closed form in ``stochastic`` sums every other block there.  A job that
fails sets a stop event that ``_strang`` polls at records and
``_dense_density`` at its stops, through a context variable the caller's
thread alone sees, so the engines on the caller's thread end there; the
job's error is raised.

Every unitary factor has unit modulus: the 2-norm is conserved exactly,
the trace of the density grid is conserved because the spectral factor
is one on the anti-diagonal modes and the pointwise phase vanishes on
the diagonal, and Hermiticity is preserved by the conjugation symmetry
of both factors.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import BoundaryContaminationError, ConfigError, DomainError
from .grids import (
    DensityGrid,
    GridSpec,
    PhaseSpaceDistribution,
    XYGrid,
    boundary_fraction,
    boundary_frame,
    hermiticity_defect,
    xp_to_xy,
    xy_to_xp,
)
from .potentials import Potential, superoperator_field

DENSE_GRID_LIMIT = 32
_CHECKPOINT = 32  # steps between tail reads on the dense path
_MIN_DENSE_GAP = 2  # a record every step is cheaper stepped


class TimeStepWarning(UserWarning):
    """The configured dt exceeds the spectral-phase resolution guard."""


@dataclass(frozen=True)
class EvolverConfig:
    """Stepping parameters shared by all engines.

    The stepping engines always carry the kinetic term and the closed
    forms in ``stochastic`` never do, so no field selects it.
    """

    dt: float
    n_steps: int
    record_every: int = 1
    tail_threshold: float = 1e-10

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be at least 1")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")
        if not self.tail_threshold > 0:
            raise ConfigError("tail_threshold must be positive")

    @property
    def include_kinetic(self) -> bool:
        """Always True; kept while bench/lqbench/workloads.py reads it."""
        return True


@dataclass
class Trajectory:
    """Recorded snapshots of one evolution run."""

    times: List[float]
    states: list
    diagnostics: List[dict]

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ConfigError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("times must be strictly increasing")


def _check_dt_guard(cfg: EvolverConfig, grid: GridSpec) -> None:
    guard = 0.1 * grid.spacing**2
    if cfg.dt > guard:
        # name the innermost caller outside this package, at any engine depth
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__", "").startswith(__package__ + "."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"dt={cfg.dt:.3e} exceeds the kinetic-phase guard {guard:.3e} "
            f"for spacing {grid.spacing:.3e}",
            TimeStepWarning,
            stacklevel=level,
        )


def _check_tail(work: np.ndarray, limit: float, step: int) -> float:
    """Boundary fraction of ``work``; raise if it exceeds ``limit``."""
    tail = boundary_fraction(work)
    if tail > limit:
        raise BoundaryContaminationError(step, tail, limit)
    return tail


def _record_steps(cfg: EvolverConfig) -> set:
    steps = set(range(cfg.record_every, cfg.n_steps + 1, cfg.record_every))
    steps.add(cfg.n_steps)
    return steps


# ---------------------------------------------------------------------------
# one job on a second thread beside the caller

_STOP: contextvars.ContextVar = contextvars.ContextVar("liouq_stop", default=None)


class _Stopped(Exception):
    """The worker failed, so an engine on the caller's thread ends early."""


def _check_stop(stop_event: threading.Event | None) -> None:
    if stop_event is not None and stop_event.is_set():
        raise _Stopped


def _beside(job, own):
    """``(job(), own())``, with ``job`` on one new thread beside the caller's.

    ``own`` runs on the caller's thread with ``_STOP`` set to an event
    that a failing ``job`` sets, so the engines there end at their next
    poll (``_strang`` at records, ``_dense_density`` at its stops).  The
    thread is joined on every path.  A job error is raised in preference
    to one of ``own``, as in a sequential run that calls ``job`` first.
    The job runs in the thread's own context, so under numpy's default
    ``errstate``.
    """
    stop = threading.Event()
    done: dict = {}

    def run() -> None:
        try:
            done["result"] = job()
        except BaseException as exc:  # raised again on the caller's thread
            done["error"] = exc
            stop.set()

    thread = threading.Thread(target=run, name="liouq-worker")
    thread.start()
    token = _STOP.set(stop)
    try:
        mine = own()
    finally:
        _STOP.reset(token)
        thread.join()
        if "error" in done:
            raise done["error"] from None
    return done["result"], mine


def _midpoint_phase(sample, build, time_dependent: bool, t0: float, dt: float):
    """In-place ``phase(work, step)``: ``build(sample(t))`` at the step midpoint t.

    ``sample(t)`` is the potential's length-n profile and ``build`` turns
    it into the n x n factor.  The factor is rebuilt only when the
    profile differs from the last one, so a static potential builds it
    once and a piecewise-constant schedule once per piece.
    """
    profile = sample(t0 + 0.5 * dt)
    factor = build(profile)

    def phase(work: np.ndarray, step: int) -> None:
        nonlocal profile, factor
        if time_dependent:
            current = sample(t0 + (step - 0.5) * dt)
            if not np.array_equal(current, profile):
                profile, factor = current, build(current)
        work *= factor

    return phase


def _fft2(work: np.ndarray) -> None:
    """``work[:] = fft2(work)`` in place, in ``fft2``'s own axis order."""
    np.fft.fft(work, axis=1, out=work)
    np.fft.fft(work, axis=0, out=work)


def _ifft2(work: np.ndarray) -> None:
    """``work[:] = ifft2(work)`` in place, in ``ifft2``'s own axis order."""
    np.fft.ifft(work, axis=1, out=work)
    np.fft.ifft(work, axis=0, out=work)


def _strang(f0, work, cfg, kin_half, phase, snapshot, diag) -> Trajectory:
    """Run ``cfg.n_steps`` Strang steps on ``work`` and record a trajectory.

    ``kin_half`` is the spectral half-step factor.  ``phase(work, step)``
    applies step ``step``'s pointwise factor to ``work`` in place.
    ``snapshot(work, t)`` builds the recorded state and
    ``diag(state, tail)`` its diagnostics.

    Adjacent kinetic half-steps are fused (K½ V K½ · K½ V K½ =
    K½ V K V K½): the state stays in Fourier space between pointwise
    factors, so a step costs one inverse and one forward transform, and
    the full-step state one more inverse transform, at records only.
    The loop transforms ``work`` in place, each 2-D transform as two 1-D
    passes in ``fft2``'s axis order, so the states are those of
    ``fft2``/``ifft2`` bit for bit; a record's full-step state goes into
    one second array.  Both are overwritten on later steps, so
    ``snapshot`` must copy its input.

    The tail monitor aborts the run once the boundary fraction exceeds
    ``cfg.tail_threshold``.  It watches, every step, the position-space
    array the pointwise factor acted on, half a kinetic step short of
    the full-step state, the only position-space array a fused step
    holds.  Between records it reads the boundary frame alone (4n
    cells), and the exact fraction (a pass
    over all n² cells) only where the frame could mean an abort.  This
    needs every factor to have unit modulus, so that the 2-norm stays
    that of the initial ``work``: the peak is at least norm / n, so a
    frame at most ``0.5 * tail_threshold * norm / n`` puts the fraction
    under the limit.  A NaN frame, a non-finite initial norm and every
    larger frame take the exact read, so every abort, its step and its
    fraction are those of an exact read on every step.  At a record the
    monitor reads the full-step state itself, exactly, so a recorded
    tail is that of the returned state and no returned state exceeds
    the limit.
    """
    _check_dt_guard(cfg, f0.grid)
    stop_event = _STOP.get()
    record_at = _record_steps(cfg)
    times = [f0.time]
    states: list = [f0]
    diags = [diag(f0, boundary_fraction(work))]
    limit = cfg.tail_threshold
    with np.errstate(over="ignore"):  # an overflowed norm skips no read
        norm = np.linalg.norm(work)
    frame_bound = 0.0
    if np.isfinite(norm):
        frame_bound = 0.5 * limit * norm / np.sqrt(work.size)
    kin = kin_half * kin_half
    full = np.empty_like(work)
    _fft2(work)
    work *= kin_half
    for step in range(1, cfg.n_steps + 1):
        _ifft2(work)
        phase(work, step)
        recorded = step in record_at
        # ``not <=``, so that a NaN frame takes the exact read
        if not recorded and not boundary_frame(work) <= frame_bound:
            _check_tail(work, limit, step)
        _fft2(work)
        if recorded:
            np.multiply(work, kin_half, out=full)
            _ifft2(full)
        work *= kin
        if recorded:
            tail = _check_tail(full, limit, step)
            _check_stop(stop_event)
            t = f0.time + step * cfg.dt
            state = snapshot(full, t)
            times.append(t)
            states.append(state)
            diags.append(diag(state, tail))
    return Trajectory(times, states, diags)


# ---------------------------------------------------------------------------
# classical transport


def _xp_diag(state: PhaseSpaceDistribution, tail: float) -> dict:
    return {
        "mass": state.mass(),
        "min_value": float(state.values.min()),
        "boundary_fraction": tail,
    }


def liouville_evolve_xp(
    f0: PhaseSpaceDistribution, v: Potential, cfg: EvolverConfig
) -> Trajectory:
    """Evolve a phase-space density under -∂t f = (p ∂x - v'(x) ∂p) f.

    Runs in the mixed (x, y) representation; snapshots are transformed
    back to (x, p).  Mass is conserved exactly because the zero mode of
    the streaming phase and the y = 0 line of the force phase are one.
    """
    grid = f0.grid
    dt = cfg.dt
    kx = grid.wavenumbers
    kin_half = np.exp(-0.5j * dt * np.outer(kx, 0.5 * kx))

    phase = _midpoint_phase(
        lambda t: v.derivative(grid.x, t),
        lambda force: np.exp(-1j * dt * np.outer(force, grid.y)),
        v.time_dependent,
        f0.time,
        dt,
    )

    def snapshot(work: np.ndarray, t: float) -> PhaseSpaceDistribution:
        # the copy is needed: XYGrid freezes the array it is given, and
        # ``_strang`` overwrites it on a later step
        return xy_to_xp(XYGrid(grid, work.copy(), t))

    work = xp_to_xy(f0).values.copy()
    return _strang(f0, work, cfg, kin_half, phase, snapshot, _xp_diag)


# ---------------------------------------------------------------------------
# density-grid transport


def _density_diag(state: DensityGrid, tail: float) -> dict:
    return {
        "trace": state.trace(),
        "hermiticity_defect": hermiticity_defect(state.values),
        "boundary_fraction": tail,
    }


def _strang_density(f0: DensityGrid, cfg, phase) -> Trajectory:
    """``_strang`` on a density grid, with its shared kinetic factor."""
    grid = f0.grid
    k2 = grid.wavenumbers**2
    return _strang(
        f0,
        f0.values.copy(),
        cfg,
        np.exp(-0.25j * cfg.dt * (k2[:, None] - k2[None, :])),
        phase,
        # a copy, as DensityGrid freezes its array and ``_strang`` reuses it
        lambda work, t: DensityGrid(grid, work.copy(), t),
        _density_diag,
    )


def _potential_phase(f0: DensityGrid, v: Potential, cfg, extra=None):
    """``phase(work, step)`` for exp(-i dt [v(Q) - v(q) + extra])."""
    x = f0.grid.x

    def factor(vx: np.ndarray) -> np.ndarray:
        pot = vx[:, None] - vx[None, :]
        if extra is not None:
            pot = pot + extra
        return np.exp(-1j * cfg.dt * pot)

    return _midpoint_phase(
        lambda t: v.value(x, t), factor, v.time_dependent, f0.time, cfg.dt
    )


def _evolve_density(
    f0: DensityGrid,
    v: Potential,
    extra: np.ndarray | None,
    cfg: EvolverConfig,
) -> Trajectory:
    # a static step rho -> U rho U^H, with records far enough apart to pay;
    # a tail alarm on the dense path steps the whole run instead
    if (
        not v.time_dependent
        and not np.any(extra)
        and min(cfg.record_every, cfg.n_steps) >= _MIN_DENSE_GAP
    ):
        traj = _dense_density(f0, v, cfg)
        if traj is not None:
            return traj
    phase = _potential_phase(f0, v, cfg, extra)
    return _strang_density(f0, cfg, phase)


def _spectral_operator(grid: GridSpec, symbol) -> np.ndarray:
    """The n x n matrix F^-1 diag(symbol(k)) F on the x lattice.

    ``symbol`` must be even in k, which makes the matrix symmetric; the
    result is symmetrized so that it is so exactly.
    """
    k = grid.wavenumbers
    eye = np.eye(grid.n_points)
    op = np.fft.ifft(symbol(k)[:, None] * np.fft.fft(eye, axis=0), axis=0)
    return 0.5 * (op + op.T)


def _dense_stops(cfg: EvolverConfig) -> list:
    """Record steps, with a checkpoint every ``_CHECKPOINT`` steps after each."""
    stops, prev = [], 0
    for rec in sorted(_record_steps(cfg)):
        stops += range(prev + _CHECKPOINT, rec, _CHECKPOINT)
        stops.append(rec)
        prev = rec
    return stops


def _dense_density(
    f0: DensityGrid, v: Potential, cfg: EvolverConfig
) -> Trajectory | None:
    """``_strang_density`` for a static V and no extra term, as rho -> U^m rho U^mH.

    One Strang step is the n x n unitary U = K½ D K½, with
    K½ = F^-1 diag(exp(-i dt k^2 / 4)) F and D = diag(exp(-i dt v)), so m
    steps are U^m, cached per gap m.  The state jumps from stop to stop
    (``_dense_stops``) and the tail is read on the full-step state there.
    A stop above ``tail_threshold`` returns None: the caller then steps
    the whole run with ``_strang``, which alone names an abort step.  An
    excursion between checkpoints that falls back below the limit goes
    unseen.
    """
    grid, dt = f0.grid, cfg.dt
    kin_half = _spectral_operator(grid, lambda k: np.exp(-0.25j * dt * k**2))
    potential = np.exp(-1j * dt * v.value(grid.x, f0.time + 0.5 * dt))
    step = kin_half @ (potential[:, None] * kin_half)
    powers: dict = {}
    stop_event = _STOP.get()
    record_at = _record_steps(cfg)
    work = f0.values
    times = [f0.time]
    states: list = [f0]
    diags = [_density_diag(f0, boundary_fraction(work))]
    done = 0
    for stop in _dense_stops(cfg):
        if stop - done not in powers:
            powers[stop - done] = np.linalg.matrix_power(step, stop - done)
        um = powers[stop - done]
        work, done = um @ work @ um.conj().T, stop
        _check_stop(stop_event)
        tail = boundary_fraction(work)
        if tail > cfg.tail_threshold:
            return None
        if stop in record_at:
            t = f0.time + stop * dt
            state = DensityGrid(grid, work, t)
            times.append(t)
            states.append(state)
            diags.append(_density_diag(state, tail))
    _check_dt_guard(cfg, grid)
    return Trajectory(times, states, diags)


def _require_hermitian(f0: DensityGrid) -> None:
    defect = hermiticity_defect(f0.values)
    scale = max(float(np.abs(f0.values).max()), 1.0)
    if defect > 1e-9 * scale:
        raise DomainError(f"initial state not Hermitian: defect {defect:.3e}")


def qq_liouville_evolve(
    f0: DensityGrid, v: Potential, cfg: EvolverConfig
) -> Trajectory:
    """Density-grid transport including the coupling field E(Q, q).

    E is ``superoperator_field(v, f0.grid)``.  With E identically zero
    (V of at most quadratic order) and a static V it runs as
    ``von_neumann_evolve`` does, through the dense propagator.
    """
    _require_hermitian(f0)
    return _evolve_density(f0, v, superoperator_field(v, f0.grid), cfg)


def von_neumann_evolve(
    f0: DensityGrid, v: Potential, cfg: EvolverConfig
) -> Trajectory:
    """Commutator-only density-grid transport (coupling field omitted).

    With a static V and records at least two steps apart, each step is
    one fixed unitary, and the run applies its powers instead of stepping
    (see the module docstring for where the tail monitor reads then).
    """
    _require_hermitian(f0)
    return _evolve_density(f0, v, None, cfg)


# ---------------------------------------------------------------------------
# dense generator


def dense_generator(v: Potential, small_grid: GridSpec):
    """Assemble the full evolution generator as a dense symmetric matrix.

    Uses the spectral Laplacian F^-1 diag(-k^2) F, the operator whose
    exponential the engines step, plus the diagonal
    v(Q) - v(q) + E(Q, q).  Returns the matrix together with its sorted
    eigenvalues; the permutation swapping Q and q maps the generator to
    its negative, so the spectrum is symmetric about zero.
    """
    n = small_grid.n_points
    if n > DENSE_GRID_LIMIT:
        raise DomainError(
            f"{n} points per axis exceed the dense generator's limit "
            f"of {DENSE_GRID_LIMIT}"
        )
    lap = _spectral_operator(small_grid, lambda k: -(k**2)).real
    h1 = -0.5 * lap + np.diag(v.value(small_grid.x))
    eye = np.eye(n)
    field = superoperator_field(v, small_grid)
    gen = np.kron(h1, eye) - np.kron(eye, h1) + np.diag(field.ravel())
    eigenvalues = np.linalg.eigvalsh(gen)
    return gen, eigenvalues
