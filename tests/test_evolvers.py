"""Evolution engines against method-of-characteristics oracles."""

import threading

import numpy as np
import pytest

import liouq as lq
from liouq import (
    Constant,
    EvolverConfig,
    GridSpec,
    Harmonic,
    Linear,
    NoiseSpec,
    Quartic,
    dense_generator,
    liouville_evolve_xp,
    make_gaussian_phase_space,
    qq_liouville_evolve,
    sample_noise,
    step_schedule,
    superoperator_field,
    von_neumann_evolve,
    xp_to_Qq,
)
from liouq import evolvers
from liouq.errors import (
    BoundaryContaminationError,
    ConfigError,
    DomainError,
)
from liouq.grids import boundary_fraction

SIGMA = 1.0 / np.sqrt(2.0)


def rotated_gaussian(grid, cx, cp, sx, sp, t, omega=1.0):
    """Characteristics oracle for the harmonic flow: rotate back, evaluate."""
    X, P = np.meshgrid(grid.x, grid.p, indexing="ij")
    x0 = X * np.cos(omega * t) - (P / omega) * np.sin(omega * t)
    p0 = omega * X * np.sin(omega * t) + P * np.cos(omega * t)
    g = np.exp(-0.5 * ((x0 - cx) / sx) ** 2 - 0.5 * ((p0 - cp) / sp) ** 2)
    ref = np.exp(-0.5 * ((X - cx) / sx) ** 2 - 0.5 * ((P - cp) / sp) ** 2)
    return g / (ref.sum() * grid.spacing * grid.momentum_spacing)


def test_config_validation():
    with pytest.raises(ConfigError):
        EvolverConfig(dt=0.0, n_steps=1)
    with pytest.raises(ConfigError):
        EvolverConfig(dt=0.1, n_steps=0)
    for threshold in (float("nan"), 0.0, -1.0):
        with pytest.raises(ConfigError, match="tail_threshold"):
            EvolverConfig(dt=0.1, n_steps=1, tail_threshold=threshold)


def test_harmonic_quarter_period_rotation(grid64):
    f0 = make_gaussian_phase_space(1.0, 0.0, SIGMA, SIGMA, grid64)
    n = 400
    cfg = EvolverConfig(dt=(np.pi / 2) / n, n_steps=n, record_every=n)
    traj = liouville_evolve_xp(f0, Harmonic(1.0), cfg)
    final = traj.states[-1]
    i, j = np.unravel_index(np.argmax(final.values), final.values.shape)
    assert abs(grid64.x[i] - 0.0) <= grid64.spacing
    assert abs(grid64.p[j] - (-1.0)) <= grid64.momentum_spacing
    oracle = rotated_gaussian(grid64, 1.0, 0.0, SIGMA, SIGMA, traj.times[-1])
    assert np.abs(final.values - oracle).max() <= 5e-5  # O(dt^2) splitting error
    assert abs(final.mass() - 1.0) <= 1e-9


def test_free_streaming():
    # momentum tails travel far by t = 2; a wide box keeps them contained
    grid = GridSpec(128, 16.0)
    f0 = make_gaussian_phase_space(0.0, 1.0, SIGMA, SIGMA, grid)
    cfg = EvolverConfig(dt=0.005, n_steps=400, record_every=400)
    traj = liouville_evolve_xp(f0, Constant(1.0), cfg)
    final = traj.states[-1]
    i, j = np.unravel_index(np.argmax(final.values), final.values.shape)
    assert abs(grid.x[i] - 2.0) <= grid.spacing
    assert abs(grid.p[j] - 1.0) <= grid.momentum_spacing
    # free streaming is exact for the splitting: compare with shifted oracle
    X, P = np.meshgrid(grid.x, grid.p, indexing="ij")
    g = np.exp(-0.5 * ((X - P * 2.0) / SIGMA) ** 2 - 0.5 * ((P - 1.0) / SIGMA) ** 2)
    ref = np.exp(-0.5 * (X / SIGMA) ** 2 - 0.5 * ((P - 1.0) / SIGMA) ** 2)
    g /= ref.sum() * grid.spacing * grid.momentum_spacing
    assert np.abs(final.values - g).max() <= 1e-10


def test_zero_steps_not_allowed_identity_is_trivial(grid64):
    f0 = make_gaussian_phase_space(0.0, 0.0, SIGMA, SIGMA, grid64)
    cfg = EvolverConfig(dt=1e-3, n_steps=1, record_every=1)
    traj = liouville_evolve_xp(f0, Constant(0.0), cfg)
    assert traj.times[0] == 0.0
    assert np.abs(traj.states[0].values - f0.values).max() == 0.0


def test_classical_matches_vonneumann_for_harmonic(grid64):
    f0 = make_gaussian_phase_space(0.4, 0.0, SIGMA, SIGMA, grid64)
    n = 300
    cfg = EvolverConfig(dt=0.002, n_steps=n, record_every=n)
    classical = liouville_evolve_xp(f0, Harmonic(1.0), cfg)
    quantum = von_neumann_evolve(xp_to_Qq(f0), Harmonic(1.0), cfg)
    diff = np.abs(
        xp_to_Qq(classical.states[-1]).values - quantum.states[-1].values
    ).max()
    assert diff <= 1e-10


def test_time_dependent_linear_force_matches_characteristics(grid64):
    # constant force g for t < 0.5, zero afterwards; run to t = 1
    g = 0.8
    sched = step_schedule([[0.0, g], [0.5, 0.0]])
    v = Linear(sched, 0.0)
    f0 = make_gaussian_phase_space(0.0, 0.0, SIGMA, SIGMA, grid64)
    # coherences spread ballistically on this small box; the band edges of
    # the two representations then wrap differently at the ~1e-7 level
    cfg = EvolverConfig(dt=0.005, n_steps=200, record_every=200,
                        tail_threshold=1e-6)
    traj = liouville_evolve_xp(f0, v, cfg)
    final = traj.states[-1]
    # characteristics: p(1) = p0 - g/2, x(1) = x0 + p0 - 3g/8; invert
    X, P = np.meshgrid(grid64.x, grid64.p, indexing="ij")
    p0 = P + g / 2.0
    x0 = X - p0 + 3.0 * g / 8.0
    gauss = np.exp(-0.5 * (x0 / SIGMA) ** 2 - 0.5 * (p0 / SIGMA) ** 2)
    ref = np.exp(-0.5 * (X / SIGMA) ** 2 - 0.5 * (P / SIGMA) ** 2)
    gauss /= ref.sum() * grid64.spacing * grid64.momentum_spacing
    assert np.abs(final.values - gauss).max() <= 1e-9
    # classical and commutator engines stay equivalent for linear kinds
    quantum = von_neumann_evolve(xp_to_Qq(f0), v, cfg)
    diff = np.abs(xp_to_Qq(final).values - quantum.states[-1].values).max()
    assert diff <= 1e-6


def test_qq_engine_equals_vonneumann_when_field_vanishes(grid64):
    f0 = xp_to_Qq(make_gaussian_phase_space(0.4, 0.0, SIGMA, SIGMA, grid64))
    v = Harmonic(1.0)
    cfg = EvolverConfig(dt=0.002, n_steps=100, record_every=100)
    a = qq_liouville_evolve(f0, v, cfg)
    b = von_neumann_evolve(f0, v, cfg)
    assert np.abs(a.states[-1].values - b.states[-1].values).max() <= 1e-12


def test_zero_potential_engines_identical(grid64):
    f0 = xp_to_Qq(make_gaussian_phase_space(0.0, 0.5, SIGMA, SIGMA, grid64))
    v = Constant(0.0)
    cfg = EvolverConfig(dt=0.002, n_steps=50, record_every=50)
    a = qq_liouville_evolve(f0, v, cfg)
    b = von_neumann_evolve(f0, v, cfg)
    assert np.abs(a.states[-1].values - b.states[-1].values).max() == 0.0


def test_step_reversibility(grid64):
    f0 = xp_to_Qq(make_gaussian_phase_space(0.4, 0.0, SIGMA, SIGMA, grid64))
    v = Quartic(0.25)
    cfg = EvolverConfig(dt=0.002, n_steps=1, record_every=1)
    fwd = von_neumann_evolve(f0, v, cfg).states[-1]
    # reversing the potential sign and conjugating reverses the flow
    back = von_neumann_evolve(
        lq.DensityGrid(grid64, fwd.values.conj(), 0.0), v, cfg
    ).states[-1]
    assert np.abs(back.values.conj() - f0.values).max() <= 1e-10


def test_quartic_divergence_grows(grid64):
    f0 = make_gaussian_phase_space(0.4, 0.0, 0.6, 0.5 / 0.6, grid64)
    v = Quartic(0.25)
    cfg = EvolverConfig(dt=0.002, n_steps=500, record_every=100,
                        tail_threshold=1e-3)
    classical = liouville_evolve_xp(f0, v, cfg)
    quantum = von_neumann_evolve(xp_to_Qq(f0), v, cfg)
    dists = [
        np.abs(xp_to_Qq(a).values - b.values).max()
        for a, b in zip(classical.states, quantum.states)
    ]
    assert dists[-1] > 1e-3
    assert np.all(np.diff(dists) > 0)


def test_trace_and_hermiticity_preserved(grid64):
    f0 = xp_to_Qq(make_gaussian_phase_space(0.4, 0.0, SIGMA, SIGMA, grid64))
    cfg = EvolverConfig(dt=0.002, n_steps=200, record_every=50,
                        tail_threshold=1e-6)
    traj = von_neumann_evolve(f0, Quartic(0.25), cfg)
    trace0 = traj.diagnostics[0]["trace"].real
    for diag in traj.diagnostics:
        assert abs(diag["trace"].real - trace0) <= 1e-9
        assert diag["hermiticity_defect"] <= 1e-9


@pytest.mark.filterwarnings("ignore::liouq.evolvers.TimeStepWarning")
def test_strang_second_order_convergence(grid64):
    f0 = make_gaussian_phase_space(1.0, 0.0, SIGMA, SIGMA, grid64)
    v = Harmonic(1.0)
    t_final = np.pi / 4
    errors = []
    for n in (50, 100, 200):
        cfg = EvolverConfig(dt=t_final / n, n_steps=n, record_every=n)
        traj = liouville_evolve_xp(f0, v, cfg)
        oracle = rotated_gaussian(grid64, 1.0, 0.0, SIGMA, SIGMA, t_final)
        errors.append(np.abs(traj.states[-1].values - oracle).max())
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    assert 3.2 <= r1 <= 4.8
    assert 3.2 <= r2 <= 4.8


def test_non_hermitian_initial_state_rejected(grid64):
    n = grid64.n_points
    vals = np.zeros((n, n), dtype=complex)
    vals[2, 7] = 1.0
    cfg = EvolverConfig(dt=1e-3, n_steps=1)
    with pytest.raises(DomainError):
        von_neumann_evolve(lq.DensityGrid(grid64, vals), Constant(0.0), cfg)


def _abort(engine, f0, v, cfg) -> BoundaryContaminationError:
    with pytest.raises(BoundaryContaminationError) as err:
        engine(f0, v, cfg)
    return err.value


def _abort_step(engine, f0, v, cfg) -> int:
    return _abort(engine, f0, v, cfg).step


@pytest.mark.filterwarnings("ignore::liouq.evolvers.TimeStepWarning")
def test_boundary_contamination_raises_with_step(grid64, monkeypatch):
    # fast packet: reaches the boundary quickly
    f0 = make_gaussian_phase_space(4.0, 2.0, 0.5, 0.5, grid64)
    cfg = EvolverConfig(dt=0.01, n_steps=400, record_every=400)
    assert _abort_step(liouville_evolve_xp, f0, Constant(0.0), cfg) >= 1
    # the fused monitor reads half a kinetic step short of the full step,
    # so it may abort a step or two away from the unfused loop
    f0 = make_gaussian_phase_space(0.0, 1.0, SIGMA, SIGMA, grid64)
    cfg = EvolverConfig(dt=0.005, n_steps=400, record_every=400)
    engines = ((liouville_evolve_xp, f0), (von_neumann_evolve, xp_to_Qq(f0)))
    for engine, state in engines:
        for v in (Constant(0.0), Quartic(0.25)):
            fused = _abort_step(engine, state, v, cfg)
            with monkeypatch.context() as m:
                m.setattr(evolvers, "_strang", _unfused_strang)
                oracle = _abort_step(engine, state, v, cfg)
            assert oracle > 1
            assert abs(fused - oracle) <= 2


def test_dt_guard_warning(grid64):
    f0 = make_gaussian_phase_space(0.0, 0.0, SIGMA, SIGMA, grid64)
    cfg = EvolverConfig(dt=0.05, n_steps=1)  # above 0.1 dx^2 = 6.25e-3
    with pytest.warns(lq.TimeStepWarning):
        liouville_evolve_xp(f0, Constant(0.0), cfg)


# ---------------------------------------------------------------------------
# fused kernel against the unfused Strang loop


def _unfused_strang(f0, work, cfg, kin_half, phase, snapshot, diag):
    """Reference ``_strang``: K½ V K½ per step, tail read after every full step."""
    evolvers._check_dt_guard(cfg, f0.grid)
    record_at = evolvers._record_steps(cfg)
    times = [f0.time]
    states: list = [f0]
    diags = [diag(f0, boundary_fraction(work))]
    for step in range(1, cfg.n_steps + 1):
        work = np.fft.ifft2(np.fft.fft2(work) * kin_half)
        phase(work, step)
        work = np.fft.ifft2(np.fft.fft2(work) * kin_half)
        tail = evolvers._check_tail(work, cfg.tail_threshold, step)
        if step in record_at:
            t = f0.time + step * cfg.dt
            state = snapshot(work, t)
            times.append(t)
            states.append(state)
            diags.append(diag(state, tail))
    return evolvers.Trajectory(times, states, diags)


def _fft2_strang(f0, work, cfg, kin_half, phase, snapshot, diag):
    """Reference for the buffered ``_strang``: the same fused loop on
    ``fft2``/``ifft2``, with the exact tail read on every step."""
    evolvers._check_dt_guard(cfg, f0.grid)
    record_at = evolvers._record_steps(cfg)
    times = [f0.time]
    states: list = [f0]
    diags = [diag(f0, boundary_fraction(work))]
    kin = kin_half * kin_half
    spec = np.fft.fft2(work) * kin_half
    for step in range(1, cfg.n_steps + 1):
        work = np.fft.ifft2(spec)
        phase(work, step)
        recorded = step in record_at
        spec = np.fft.fft2(work)
        if recorded:
            work = np.fft.ifft2(spec * kin_half)
        spec *= kin
        tail = evolvers._check_tail(work, cfg.tail_threshold, step)
        if recorded:
            t = f0.time + step * cfg.dt
            state = snapshot(work, t)
            times.append(t)
            states.append(state)
            diags.append(diag(state, tail))
    return evolvers.Trajectory(times, states, diags)


def _switched_linear():
    # switches between midpoints of the dt = 0.004 steps below
    return Linear(step_schedule([[0.0, 0.8], [0.031, -0.5], [0.071, 0.0]]), 0.2)


def _run_engine(name, v, grid, cfg):
    """Recorded arrays and scalar diagnostics of one stepper run."""
    f0 = make_gaussian_phase_space(0.4, 0.3, SIGMA, SIGMA, grid)
    rho = xp_to_Qq(f0)
    nu = 0.5 * np.exp(-(grid.x**2))
    if name == "xp":
        traj = liouville_evolve_xp(f0, v, cfg)
    elif name == "von_neumann":
        traj = von_neumann_evolve(rho, v, cfg)
    elif name == "qq":
        traj = qq_liouville_evolve(rho, v, cfg)
    else:  # one quenched realization, as the ensemble's stepped test oracle runs it
        dv = sample_noise(NoiseSpec(nu, seed=4), grid, 0)
        traj = evolvers._evolve_density(rho, v, dv[:, None] - dv[None, :], cfg)
    return traj.times, traj.states, traj.diagnostics


def _with_reference(kernel, name, v, grid, cfg, monkeypatch):
    """``_run_engine`` as is, and with ``kernel`` patched in for ``_strang``."""
    run = _run_engine(name, v, grid, cfg)
    with monkeypatch.context() as m:
        m.setattr(evolvers, "_strang", kernel)
        return run, _run_engine(name, v, grid, cfg)


# 7 does not divide 25: the final record comes off the cadence.  White
# noise factors are not smooth, and the kinetic steps ring them out to the
# edges, so the threshold only guards against a blow-up here.
ORACLE_CFG = EvolverConfig(dt=0.004, n_steps=25, record_every=7, tail_threshold=1e-2)


@pytest.mark.parametrize("v", [Quartic(0.25), _switched_linear()],
                         ids=["quartic", "switched_linear"])
@pytest.mark.parametrize("name", ["xp", "von_neumann", "qq", "quenched"])
def test_fused_kernel_matches_unfused_oracle(grid64, monkeypatch, name, v):
    (times, states, diags), (ref_times, ref_states, ref_diags) = _with_reference(
        _unfused_strang, name, v, grid64, ORACLE_CFG, monkeypatch
    )
    assert times == ref_times
    assert len(states) == len(ref_states)
    for a, b in zip(states, ref_states):
        a, b = getattr(a, "values", a), getattr(b, "values", b)
        scale = np.abs(b).max()
        assert np.abs(a - b).max() <= 1e-12 * scale
    for d, ref in zip(diags, ref_diags):
        assert d.keys() == ref.keys()
        for key in d:
            assert abs(d[key] - ref[key]) <= 1e-12 * max(abs(ref[key]), 1.0)


@pytest.mark.parametrize("v", [Quartic(0.25), _switched_linear()],
                         ids=["quartic", "switched_linear"])
@pytest.mark.parametrize("name", ["xp", "von_neumann", "qq", "quenched"])
def test_buffered_kernel_is_fft2_loop_bit_for_bit(grid64, monkeypatch, name, v):
    # per-axis transforms into fixed buffers run fft2's own passes in its
    # order, so nothing may differ in a single bit.  The dense path is held
    # off, so that every engine steps.
    monkeypatch.setattr(evolvers, "_MIN_DENSE_GAP", ORACLE_CFG.n_steps + 1)
    (times, states, diags), (ref_times, ref_states, ref_diags) = _with_reference(
        _fft2_strang, name, v, grid64, ORACLE_CFG, monkeypatch
    )
    assert times == ref_times
    assert len(states) == len(ref_states)
    for a, b in zip(states, ref_states):
        assert np.array_equal(getattr(a, "values", a), getattr(b, "values", b))
    assert diags == ref_diags


def test_per_axis_transforms_are_fft2_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    work = a.copy()
    evolvers._fft2(work)
    assert np.array_equal(work, np.fft.fft2(a))
    evolvers._ifft2(work)
    assert np.array_equal(work, np.fft.ifft2(np.fft.fft2(a)))


def _oracle_tails(engine, f0, v, cfg, monkeypatch) -> dict:
    """Step -> the exact tail the ``fft2`` oracle reads on that step."""
    tails, real = {}, evolvers._check_tail

    def logged(work, limit, step):
        tails[step] = boundary_fraction(work)
        return real(work, limit, step)

    with monkeypatch.context() as m:
        m.setattr(evolvers, "_strang", _fft2_strang)
        m.setattr(evolvers, "_check_tail", logged)
        engine(f0, v, cfg)
    return tails


def _outcome(engine, f0, v, cfg):
    """``(step, fraction)`` of the run's abort, or None if it runs through."""
    try:
        engine(f0, v, cfg)
    except BoundaryContaminationError as err:
        return err.step, err.fraction
    return None


@pytest.mark.filterwarnings("ignore::liouq.evolvers.TimeStepWarning")
def test_abort_step_and_fraction_are_the_exact_monitors(grid64, monkeypatch):
    # the setups of test_boundary_contamination_raises_with_step, all
    # stepped, then the coupling field and a state whose 2-norm
    # overflows, so that every tail-limited caller is checked
    monkeypatch.setattr(evolvers, "_MIN_DENSE_GAP", 401)
    fast = make_gaussian_phase_space(4.0, 2.0, 0.5, 0.5, grid64)
    slow = make_gaussian_phase_space(0.0, 1.0, SIGMA, SIGMA, grid64)
    huge = lq.DensityGrid(grid64, xp_to_Qq(slow).values * 2.0**530)
    runs = [(liouville_evolve_xp, fast, Constant(0.0), 0.01)]
    runs += [
        (engine, state, v, 0.005)
        for engine, state in ((liouville_evolve_xp, slow),
                              (von_neumann_evolve, xp_to_Qq(slow)))
        for v in (Constant(0.0), Quartic(0.25))
    ]
    runs += [
        (qq_liouville_evolve, xp_to_Qq(slow), Quartic(0.25), 0.005),
        (von_neumann_evolve, huge, Quartic(0.25), 0.005),
    ]
    for engine, f0, v, dt in runs:

        def cfg(limit):
            return EvolverConfig(dt=dt, n_steps=400, record_every=400,
                                 tail_threshold=limit)

        tails = _oracle_tails(engine, f0, v, cfg(1.0), monkeypatch)
        # a non-record step on the rising tail
        probe = min(step for step, tail in tails.items() if tail > 1e-8)
        assert 1 < probe < 400
        for factor in (1 - 1e-9, 1 + 1e-9, 0.75):
            limited = cfg(tails[probe] * factor)
            with monkeypatch.context() as m:
                m.setattr(evolvers, "_strang", _fft2_strang)
                oracle = _outcome(engine, f0, v, limited)
            assert _outcome(engine, f0, v, limited) == oracle
            # a rising tail crosses every limit, the one above the probe too
            assert oracle is not None
            assert oracle[0] <= probe or factor > 1


def test_zero_state_and_zero_frame_never_abort(grid64):
    n = grid64.n_points
    zero = np.zeros((n, n), dtype=complex)
    cfg = EvolverConfig(dt=0.004, n_steps=20, record_every=20, tail_threshold=1e-300)
    traj = _stepped(lq.DensityGrid(grid64, zero), Quartic(0.25), None, cfg)
    assert np.array_equal(traj.states[-1].values, zero)


def _log_tail_reads(monkeypatch) -> tuple:
    """Count ``_strang``'s frame reads and log the steps of its exact ones."""
    frames, exact = [], []
    real_frame, real_exact = evolvers.boundary_frame, evolvers._check_tail

    def frame(values):
        frames.append(1)
        return real_frame(values)

    def check(work, limit, step):
        exact.append(step)
        return real_exact(work, limit, step)

    monkeypatch.setattr(evolvers, "boundary_frame", frame)
    monkeypatch.setattr(evolvers, "_check_tail", check)
    return frames, exact


@pytest.mark.parametrize("name", ["xp", "qq"])
def test_clean_stepped_run_reads_the_frame_between_records(grid64, monkeypatch, name):
    # far from the edge the frame rules out every abort between records:
    # the exact tail is read at the start and at the records only
    cfg = EvolverConfig(dt=0.004, n_steps=60, record_every=25, tail_threshold=1e-2)
    frames, exact = _log_tail_reads(monkeypatch)
    reads, real = [], evolvers.boundary_fraction
    monkeypatch.setattr(evolvers, "boundary_fraction",
                        lambda values: reads.append(1) or real(values))
    times, _, _ = _run_engine(name, Quartic(0.25), grid64, cfg)
    records = len(times) - 1
    assert exact == [25, 50, 60]
    assert len(reads) <= records + 2
    assert len(frames) == cfg.n_steps - records


def test_state_turned_nan_runs_as_under_the_exact_monitor(grid64, monkeypatch):
    # a NaN set in one interior cell reaches the frame at the next
    # transform.  The exact fraction of a NaN state is NaN, which aborts
    # nothing, so both monitors step on until the record refuses the state.
    rho = _packet(grid64)
    cfg = EvolverConfig(dt=0.004, n_steps=30, record_every=10, tail_threshold=1e-4)
    potential = evolvers._potential_phase(rho, Quartic(0.25), cfg)
    stepped = []

    def phase(work, step):
        stepped.append(step)
        potential(work, step)
        if step == 12:
            work[20, 20] = np.nan

    with monkeypatch.context() as m:
        m.setattr(evolvers, "_strang", _fft2_strang)
        with pytest.raises(lq.DomainError, match="finite"):
            evolvers._strang_density(rho, cfg, phase)
    assert stepped == list(range(1, 21))
    stepped.clear()
    frames, exact = _log_tail_reads(monkeypatch)
    with pytest.raises(lq.DomainError, match="finite"):
        evolvers._strang_density(rho, cfg, phase)
    assert stepped == list(range(1, 21))
    assert exact == [10] + list(range(13, 21))
    assert len(frames) == 18


def test_midpoint_phase_cache_equals_rebuild(grid64):
    # the cached factor of a piecewise-constant potential equals a fresh
    # build on every step, and is built once per piece
    v = _switched_linear()
    dt, n = 0.004, 25
    extra = np.outer(grid64.x, np.ones(grid64.n_points)) * 0.1
    builds = []

    def build(vx):
        builds.append(vx)
        return np.exp(-0.5j * dt * (vx[:, None] - vx[None, :] + extra))

    phase = evolvers._midpoint_phase(
        lambda t: v.value(grid64.x, t), build, v.time_dependent, 0.0, dt
    )
    for step in range(1, n + 1):
        work = np.ones((grid64.n_points,) * 2, dtype=complex)
        phase(work, step)
        vx = v.value(grid64.x, (step - 0.5) * dt)
        fresh = np.exp(-0.5j * dt * (vx[:, None] - vx[None, :] + extra))
        assert np.array_equal(work, fresh)
    assert len(builds) == 3


# ---------------------------------------------------------------------------
# dense propagator against the stepped kernel


def _stepped(f0, v, extra, cfg):
    """The stepped kernel on an input the dense path may take over."""
    phase = evolvers._potential_phase(f0, v, cfg, extra)
    return evolvers._strang_density(f0, cfg, phase)


def _spy_strang(monkeypatch) -> list:
    """Record the config of every ``_strang`` call."""
    calls, real = [], evolvers._strang

    def spy(f0, work, cfg, *rest):
        calls.append(cfg)
        return real(f0, work, cfg, *rest)

    monkeypatch.setattr(evolvers, "_strang", spy)
    return calls


def _assert_same_trajectory(traj, ref):
    assert traj.times == ref.times
    assert len(traj.states) == len(ref.states)
    for a, b in zip(traj.states, ref.states):
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()
    for d, r in zip(traj.diagnostics, ref.diagnostics):
        assert d.keys() == r.keys()
        for key in d:
            assert abs(d[key] - r[key]) <= 1e-12 * max(abs(r[key]), 1.0)


def _packet(grid):
    return xp_to_Qq(make_gaussian_phase_space(0.4, 0.3, SIGMA, SIGMA, grid))


@pytest.mark.parametrize(
    "n_steps,record_every",
    [(100, 100), (200, 70), (90, 7), (20, 1)],
    ids=["steps_off_checkpoints", "records_off_checkpoints", "ragged_short", "every_step"],
)
@pytest.mark.parametrize(
    "name,v",
    [
        ("von_neumann", Harmonic(1.0)),
        ("von_neumann", Quartic(0.25)),
        ("von_neumann", Constant(0.0)),
        ("qq", Harmonic(1.0)),
    ],
    ids=["vn_harmonic", "vn_quartic", "vn_constant", "qq_harmonic"],
)
def test_dense_path_matches_stepped_kernel(grid64, monkeypatch, name, v,
                                           n_steps, record_every):
    cfg = EvolverConfig(dt=0.004, n_steps=n_steps, record_every=record_every,
                        tail_threshold=1e-6)
    rho = _packet(grid64)
    field = superoperator_field(v, grid64)
    ref = _stepped(rho, v, field if name == "qq" else None, cfg)
    calls = _spy_strang(monkeypatch)
    if name == "qq":
        traj = qq_liouville_evolve(rho, v, cfg)
    else:
        traj = von_neumann_evolve(rho, v, cfg)
    if record_every >= evolvers._MIN_DENSE_GAP:
        assert calls == []
    else:  # a record every step is left to the kernel; check the path anyway
        assert len(calls) == 1
        _assert_same_trajectory(traj, ref)
        traj = evolvers._dense_density(rho, v, cfg)
    _assert_same_trajectory(traj, ref)


@pytest.mark.parametrize("case", ["time_dependent", "coupling_field", "quenched_noise"])
def test_stepped_inputs_keep_the_kernel(grid64, monkeypatch, case):
    # records far apart, so only the input can keep these off the dense path
    cfg = EvolverConfig(dt=0.004, n_steps=40, record_every=20, tail_threshold=1e-2)
    rho = _packet(grid64)
    calls = _spy_strang(monkeypatch)
    if case == "time_dependent":
        von_neumann_evolve(rho, _switched_linear(), cfg)
    elif case == "coupling_field":
        qq_liouville_evolve(rho, Quartic(0.25), cfg)
    else:  # one quenched realization's noise as the extra term
        dv = sample_noise(NoiseSpec(0.5, seed=4), grid64, 0)
        evolvers._evolve_density(rho, Harmonic(1.0), dv[:, None] - dv[None, :], cfg)
    assert len(calls) == 1
    assert all(c.n_steps == cfg.n_steps for c in calls)


@pytest.mark.parametrize("record_every", [400, 30])
@pytest.mark.parametrize("v", [Constant(0.0), Quartic(0.25)], ids=["constant", "quartic"])
def test_dense_abort_step_is_the_stepped_one(grid64, monkeypatch, v, record_every):
    # the packet reaches the edge; the dense path hands the whole run to
    # the kernel, and the abort names the kernel's step
    f0 = xp_to_Qq(make_gaussian_phase_space(0.0, 1.0, SIGMA, SIGMA, grid64))
    cfg = EvolverConfig(dt=0.005, n_steps=400, record_every=record_every)
    stepped = _abort_step(lambda f, v, c: _stepped(f, v, None, c), f0, v, cfg)
    calls = _spy_strang(monkeypatch)
    dense = _abort_step(von_neumann_evolve, f0, v, cfg)
    assert stepped > 1
    assert dense == stepped
    assert len(calls) == 1


def test_dense_false_alarm_runs_the_kernel(grid64, monkeypatch):
    # a false alarm at the first checkpoint: the dense path gives up and
    # the kernel steps the whole run from f0.  dt is above the guard, which
    # warns once, from the kernel.
    cfg = EvolverConfig(dt=0.008, n_steps=150, record_every=100, tail_threshold=1e-3)
    rho, v = _packet(grid64), Harmonic(1.0)
    with pytest.warns(lq.TimeStepWarning):
        ref = _stepped(rho, v, None, cfg)
    real, reads = evolvers.boundary_fraction, []

    def alarm_at_first_checkpoint(values):
        reads.append(values)
        return 1.0 if len(reads) == 2 else real(values)

    monkeypatch.setattr(evolvers, "boundary_fraction", alarm_at_first_checkpoint)
    calls = _spy_strang(monkeypatch)
    with pytest.warns(lq.TimeStepWarning) as record:
        traj = von_neumann_evolve(rho, v, cfg)
    assert len(record) == 1 and record[0].filename == __file__
    assert [c.n_steps for c in calls] == [150]
    _assert_same_trajectory(traj, ref)


def test_dense_stops_checkpoint_each_record_interval():
    cfg = EvolverConfig(dt=0.01, n_steps=150, record_every=70)
    assert evolvers._dense_stops(cfg) == [32, 64, 70, 102, 134, 140, 150]


# ---------------------------------------------------------------------------
# one job on a second thread


def test_beside_runs_the_job_on_a_new_thread_and_joins_it():
    before = threading.active_count()
    caller = threading.get_ident()
    job_ident, own_ident = evolvers._beside(threading.get_ident, threading.get_ident)
    assert own_ident == caller and job_ident != caller
    assert threading.active_count() == before
    # only the caller's side sees the stop event, and only during the call;
    # the job runs in the new thread's context, under numpy's default errstate
    with np.errstate(all="raise"):
        (job_stop, job_err), (own_stop, own_err) = evolvers._beside(
            lambda: (evolvers._STOP.get(), np.geterr()),
            lambda: (evolvers._STOP.get(), np.geterr()),
        )
    assert job_stop is None and isinstance(own_stop, threading.Event)
    assert evolvers._STOP.get() is None
    assert job_err["over"] == "warn" and own_err["over"] == "raise"


def test_worker_error_reaches_the_caller_in_preference_to_its_own():
    before = threading.active_count()

    def fail():
        raise ValueError("worker job")

    def own_fails():
        raise KeyError("caller")

    with pytest.raises(ValueError, match="worker job"):
        evolvers._beside(fail, lambda: 1)
    with pytest.raises(ValueError, match="worker job"):
        evolvers._beside(fail, own_fails)
    with pytest.raises(KeyError, match="caller"):
        evolvers._beside(lambda: 1, own_fails)
    assert threading.active_count() == before


def test_worker_error_stops_the_callers_engines(grid64):
    # a failed job sets the stop event; the caller's kernel ends at its
    # next record instead of running to completion
    f0 = xp_to_Qq(make_gaussian_phase_space(0.0, 0.0, SIGMA, SIGMA, grid64))
    cfg = EvolverConfig(dt=0.002, n_steps=100, record_every=10)
    steps = []

    def phase(work, step):
        steps.append(step)

    def fail():
        raise ValueError("worker job")

    def own():
        assert evolvers._STOP.get().wait(timeout=60)
        return evolvers._strang_density(f0, cfg, phase)

    with pytest.raises(ValueError, match="worker job"):
        evolvers._beside(fail, own)
    assert steps == list(range(1, 11))


# ---------------------------------------------------------------------------
# dense generator


def test_dense_generator_symmetric_spectrum_free():
    _, eigs = dense_generator(Constant(0.0), GridSpec(8, 4.0))
    assert np.abs(np.sort(eigs) - np.sort(-eigs)).max() <= 1e-10


@pytest.mark.parametrize("v", [Quartic(1.0), Harmonic(1.0)])
def test_dense_generator_symmetric_spectrum(v):
    _, eigs = dense_generator(v, GridSpec(16, 6.0))
    assert np.abs(np.sort(eigs) - np.sort(-eigs)).max() <= 1e-8


def test_dense_generator_harmonic_level_differences():
    # eigenvalues approximate E_m - E_n; integer multiples of omega show up
    omega = 1.0
    _, eigs = dense_generator(Harmonic(omega), GridSpec(16, 6.0))
    for k in (1, 2, 3):
        assert np.min(np.abs(eigs - k * omega)) <= 0.1 * k * omega


def test_dense_generator_refuses_large_grid():
    with pytest.raises(DomainError):
        dense_generator(Constant(0.0), GridSpec(64, 6.0))


def test_dense_generator_matrix_is_symmetric():
    gen, _ = dense_generator(Quartic(1.0), GridSpec(8, 4.0))
    assert np.abs(gen - gen.T).max() == 0.0
