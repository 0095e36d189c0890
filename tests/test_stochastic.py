"""Noise sampling, ensemble averaging, dissipative evolution, decay law."""

import dataclasses
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouq import (
    Constant,
    DensityGrid,
    EvolverConfig,
    GridSpec,
    Harmonic,
    Linear,
    NoiseSpec,
    Quartic,
    Qq_to_xp,
    compare_ensemble_vs_lindblad,
    decay_predict,
    ensemble_evolve,
    lindblad_evolve,
    liouville_evolve_xp,
    make_cat_density,
    qq_liouville_evolve,
    sample_noise,
    scenario_from_text,
    step_schedule,
    von_neumann_evolve,
)
from liouq.errors import BoundaryContaminationError, ConfigError, DomainError
from liouq import evolvers, stochastic
from liouq.evolvers import TimeStepWarning, _check_tail, _record_steps
from liouq.grids import boundary_fraction
from liouq.stochastic import _BLOCK, _phase_minus_one
from liouq.streams import normal_rows, stream


@pytest.fixture
def grid():
    return GridSpec(32, 10.0)


@pytest.fixture
def cat(grid):
    return make_cat_density(grid, 4.0, 0.7)


def probe_indices(grid, separation=4.0):
    i_plus = int(np.argmin(np.abs(grid.x - separation / 2)))
    i_minus = int(np.argmin(np.abs(grid.x + separation / 2)))
    return i_plus, i_minus


@pytest.mark.parametrize(
    "ks", [range(_BLOCK), range(_BLOCK, _BLOCK + 37), range(1000, 1003)],
    ids=["full_block", "partial_block", "nonzero_start"],
)
@pytest.mark.parametrize("seed", [101, 2**64 - 1])
def test_normal_rows_are_the_streams_bit_for_bit(ks, seed):
    rows = normal_rows(seed, ks, 33)
    assert rows.shape == (len(ks), 33)
    for row, k in zip(rows, ks):
        assert np.array_equal(row, stream(seed, k).standard_normal(33))


def test_noise_first_two_moments(grid):
    # cell 7 of sample_noise(NoiseSpec(nu=1.0, seed=101), grid, k), k < m
    m = 100_000
    cell = normal_rows(101, range(m), grid.n_points)[:, 7]
    assert abs(cell.mean()) <= 4.0 / np.sqrt(m)
    assert abs(cell.var() - 1.0) <= 0.05


def test_noise_zero_width_gives_zero_field(grid):
    field = sample_noise(NoiseSpec(nu=0.0, seed=3), grid, 0)
    assert np.all(field == 0.0)


def test_noise_determinism(grid):
    spec = NoiseSpec(nu=1.0, seed=5)
    a = sample_noise(spec, grid, 9)
    b = sample_noise(spec, grid, 9)
    assert np.array_equal(a, b)
    c = sample_noise(spec, grid, 10)
    assert not np.array_equal(a, c)


def test_noise_profile_variants(grid):
    arr = np.linspace(0.0, 1.0, grid.n_points)
    assert np.array_equal(NoiseSpec(nu=arr).nu_on_grid(grid), arr)
    fn = NoiseSpec(nu=lambda x: np.abs(x) / 10.0)
    assert np.allclose(fn.nu_on_grid(grid), np.abs(grid.x) / 10.0)
    with pytest.raises(DomainError):
        NoiseSpec(nu=-1.0).nu_on_grid(grid)


def quenched_average_oracle(nu_x, nu_y, t):
    # exact Gaussian average of exp(-i (dV(x) - dV(y)) t) for independent cells
    return np.exp(-0.5 * t**2 * (nu_x**2 + nu_y**2))


def test_quenched_average_oracle_against_quadrature():
    # verify the closed form itself by Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    norm = weights.sum()
    for nu, t in ((1.0, 1.0), (0.5, 2.0)):
        phases = np.exp(-1j * nu * nodes * t)
        one_sided = np.sum(weights * phases) / norm
        # independent x and y cells factorize
        got = (np.sum(weights * phases) / norm) * (
            np.sum(weights * np.conj(phases)) / norm
        )
        assert abs(got - quenched_average_oracle(nu, nu, t)) <= 1e-12
        assert abs(one_sided) <= 1.0


def test_ensemble_matches_closed_form(cat, grid):
    spec = NoiseSpec(nu=1.0, seed=42)
    cfg = EvolverConfig(dt=0.05, n_steps=20, record_every=20)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 1000, cfg)
    i, j = probe_indices(grid)
    ratio = abs(rep.mean_states[-1].values[i, j]) / abs(cat.values[i, j])
    err = rep.stderr[-1][i, j] / abs(cat.values[i, j])
    assert abs(ratio - np.exp(-1.0)) <= 3.0 * err
    # diagonal untouched per realization, hence exactly in the mean
    assert abs(rep.mean_states[-1].values[i, i] - cat.values[i, i]) <= 1e-12


def _frozen_steps(f0, V, extra, cfg):
    """Step f0 with transport frozen: the closed forms' stepped oracle.

    Step s multiplies by exp(-i dt [v(Q, t_s) - v(q, t_s) + extra]) at the
    step midpoint t_s = t0 + (s - 1/2) dt, and ``evolvers._check_tail``
    reads every full-step state.  Returns the recorded times and states;
    a non-finite record raises ``DensityGrid``'s ``DomainError``.
    """
    grid, dt = f0.grid, cfg.dt
    record_at = _record_steps(cfg)
    work = f0.values
    times, states = [f0.time], [f0]
    for step in range(1, cfg.n_steps + 1):
        vx = V.value(grid.x, f0.time + (step - 0.5) * dt)
        work = work * np.exp(-1j * dt * (vx[:, None] - vx[None, :] + extra))
        _check_tail(work, cfg.tail_threshold, step)
        if step in record_at:
            times.append(f0.time + step * dt)
            states.append(DensityGrid(grid, work, times[-1]))
    return times, states


def test_ensemble_zero_noise_reduces_to_vonneumann(cat):
    spec = NoiseSpec(nu=0.0, seed=1)
    cfg = EvolverConfig(dt=0.01, n_steps=10, record_every=10)
    rep = ensemble_evolve(cat, Harmonic(1.0), spec, 3, cfg)
    _, states = _frozen_steps(cat, Harmonic(1.0), 0.0, cfg)
    assert np.abs(rep.mean_states[-1].values - states[-1].values).max() <= 1e-13


def _stepped_moments(f0, V, spec, M, cfg):
    """Step every quenched realization; running mean and M2 per recorded time.

    Welford's update keeps M2 a sum of squared deviations from the
    running mean, so no cancellation-prone E[x^2] - mean^2 is formed.
    """
    mean = m2 = times = None
    for k in range(M):
        dv = sample_noise(spec, f0.grid, k)
        times, states = _frozen_steps(f0, V, dv[:, None] - dv[None, :], cfg)
        if mean is None:
            mean = np.zeros((len(times),) + f0.values.shape, dtype=complex)
            m2 = np.zeros(mean.shape)
        for i, state in enumerate(states):
            delta = state.values - mean[i]
            mean[i] += delta / (k + 1)
            m2[i] += (delta * np.conj(state.values - mean[i])).real
    return times, mean, m2


def stepped_oracle(f0, V, spec, M, cfg):
    times, mean, m2 = _stepped_moments(f0, V, spec, M, cfg)
    return times, mean, np.sqrt(m2 / ((M - 1) * M))


def switched_force():
    """Linear potential whose slope steps from 0 to 3 at t = 0.1."""
    return Linear(step_schedule([[0.0, 0.0], [0.1, 3.0]]))


def assert_matches_stepped_oracle(cat, grid, v):
    nu = np.linspace(0.0, 1.2, grid.n_points)
    nu[::5] = 0.0  # noise-free cells: deterministic elements, zero error bars
    spec = NoiseSpec(nu=nu, seed=7)
    cfg = EvolverConfig(dt=0.05, n_steps=20, record_every=3)
    M = _BLOCK + 37  # a full block plus a partial one
    rep = ensemble_evolve(cat, v, spec, M, cfg)
    times, mean, stderr = stepped_oracle(cat, v, spec, M, cfg)
    assert rep.times == times
    for i in range(len(times)):
        got = rep.mean_states[i].values
        assert np.abs(got - mean[i]).max() <= 1e-12
        assert np.allclose(rep.stderr[i], stderr[i], rtol=1e-10, atol=1e-15)
        assert np.array_equal(rep.stderr[i] == 0.0, stderr[i] == 0.0)
        assert np.array_equal(np.diag(got), np.diag(cat.values))
        assert np.all(np.diag(rep.stderr[i]) == 0.0)


def test_closed_form_matches_stepped_oracle(cat, grid):
    assert_matches_stepped_oracle(cat, grid, Harmonic(1.0))


def test_closed_form_follows_a_switched_force_like_the_stepped_oracle(cat, grid):
    # the slope switches twice between step midpoints (dt = 0.05), so the
    # phases of three runs of equal midpoint profiles add up
    v = Linear(step_schedule([[0.0, 0.8], [0.2, -0.5], [0.55, 0.0]]), 0.2)
    assert_matches_stepped_oracle(cat, grid, v)


def direct_phase_oracle(f0, V, spec, M, cfg):
    """Closed-form moments with each record's phase rows built from its own time."""
    n = f0.grid.n_points
    vx = V.value(f0.grid.x)
    dv = np.array([sample_noise(spec, f0.grid, k) for k in range(M)])
    times, mean, stderr = [], [], []
    for step in _record_steps(cfg):
        t = step * cfg.dt
        b = _phase_minus_one(t * dv)
        pair = b.T @ b.conj()
        first = b.sum(axis=0)
        second = (np.abs(b) ** 2).sum(axis=0)
        d = np.exp(-1j * t * vx)
        shift = (first[:, None] + first.conj()[None, :] + pair) / M
        m = f0.values * np.outer(d, d.conj()) * (1.0 + shift)
        spread = second[:, None] + second[None, :] - 2.0 * pair.real
        m2 = np.abs(f0.values) ** 2 * np.maximum(spread - M * np.abs(shift) ** 2, 0.0)
        m[np.diag_indices(n)] = np.diag(f0.values)
        m2[np.diag_indices(n)] = 0.0
        times.append(f0.time + t)
        mean.append(m)
        stderr.append(np.sqrt(m2 / ((M - 1) * M)))
    return times, mean, stderr


def test_closed_form_recurrence_matches_direct_phases(cat, grid):
    # 200 records two steps apart and a last one step later, phases up to
    # t max(nu) = 25 rad: the record-to-record update drifts from the direct
    # form by 2.4e-15 of |f0| in the mean and 2.8e-15 relative in the
    # standard errors (measured)
    nu = np.linspace(0.0, 2.5, grid.n_points)
    spec = NoiseSpec(nu=nu, seed=11)
    cfg = EvolverConfig(dt=0.025, n_steps=401, record_every=2)
    assert len(_record_steps(cfg)) == 201
    assert cfg.n_steps * cfg.dt * nu.max() >= 20.0
    M = _BLOCK + 22
    rep = ensemble_evolve(cat, Harmonic(1.0), spec, M, cfg)
    times, mean, stderr = direct_phase_oracle(cat, Harmonic(1.0), spec, M, cfg)
    assert rep.times[1:] == times
    for got, err, m, e in zip(rep.mean_states[1:], rep.stderr[1:], mean, stderr):
        assert np.all(np.abs(got.values - m) <= 1e-14 * np.abs(cat.values))
        assert np.all(np.abs(err - e) <= 1e-14 * e)


def sequential_closed_form(f0, V, spec, M, cfg):
    """The closed form's moments with every record's sums formed on one thread."""
    grid = f0.grid
    n = grid.n_points
    vx = V.value(grid.x)
    profile = spec.nu_on_grid(grid)
    if boundary_fraction(f0.values) > cfg.tail_threshold:
        return None
    steps = _record_steps(cfg)
    gaps = np.diff(steps, prepend=0)
    pair = np.zeros((len(steps), n, n), dtype=complex)
    first = np.zeros((len(steps), n), dtype=complex)
    for start in range(0, M, _BLOCK):
        ks = range(start, min(start + _BLOCK, M))
        dv = profile * normal_rows(spec.seed, ks, n)
        if not np.all(np.isfinite(vx + dv)):
            return None
        b_gap = {g: _phase_minus_one((g * cfg.dt) * dv) for g in set(gaps)}
        b = np.zeros_like(dv, dtype=complex)
        for r, g in enumerate(gaps):
            b += b_gap[g] + b * b_gap[g]
            pair[r] += b.T @ b.conj()
            first[r] += b.sum(axis=0)

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
        second = pair[r].real.diagonal()
        spread = second[:, None] + second[None, :] - 2.0 * pair[r].real
        m2[r + 1] = abs_f0_sq * np.maximum(spread - M * np.abs(shift) ** 2, 0.0)
        mean[r + 1][diag] = f0.values[diag]
        m2[r + 1][diag] = 0.0
    return times, mean, m2


@pytest.mark.parametrize(
    "n_steps, record_every, M",
    [
        (20, 2, _BLOCK + 37),  # ten records, a full block plus a partial one
        (20, 3, _BLOCK + 37),  # seven records, gaps of 3 and a last one of 2
        (6, 6, _BLOCK + 37),  # one record: nothing to split
        (9, 1, 50),  # nine records, less than one block
        (6, 6, 50),  # one block and one record: each thread start has no work
    ],
    ids=["even_records", "odd_records_mixed_gaps", "one_record", "below_one_block",
         "one_block_one_record"],
)
def test_split_records_match_the_sequential_oracle_bit_for_bit(
    cat, grid, n_steps, record_every, M
):
    nu = np.linspace(0.0, 1.2, grid.n_points)
    nu[::5] = 0.0
    spec = NoiseSpec(nu=nu, seed=7)
    cfg = EvolverConfig(dt=0.05, n_steps=n_steps, record_every=record_every)
    rep = ensemble_evolve(cat, Harmonic(1.0), spec, M, cfg)
    times, mean, m2 = sequential_closed_form(cat, Harmonic(1.0), spec, M, cfg)
    stderr = np.sqrt(m2 / ((M - 1) * M))
    assert rep.times == times
    for i in range(len(times)):
        assert np.array_equal(rep.mean_states[i].values, mean[i])
        assert np.array_equal(rep.stderr[i], stderr[i])


@pytest.mark.parametrize("case", ["normal", "tail_alarm", "non_finite_phase"])
def test_closed_form_leaves_no_thread(cat, monkeypatch, case):
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=1)
    f0, M = cat, _BLOCK + 5
    if case == "tail_alarm":
        f0 = DensityGrid(cat.grid, np.ones(cat.values.shape))
    if case == "non_finite_phase":
        real = stochastic.normal_rows

        def rows(seed, ks, n):  # the row of realization _BLOCK + 3 is infinite
            out = real(seed, ks, n)
            if ks.start >= _BLOCK:
                out[3] = np.inf
            return out

        monkeypatch.setattr(stochastic, "normal_rows", rows)
    before = threading.active_count()

    def run():
        return stochastic._closed_form_moments(
            f0, Constant(0.0), NoiseSpec(nu=1.0, seed=3), M, cfg
        )

    if case == "normal":
        run()
    else:
        cause = {"tail_alarm": BoundaryContaminationError,
                 "non_finite_phase": DomainError}[case]
        with pytest.raises(cause):
            run()
    assert threading.active_count() == before


def test_closed_form_raises_a_worker_error(cat, monkeypatch):
    def fail():
        raise MemoryError("worker job")

    beside = evolvers._beside
    monkeypatch.setattr(stochastic, "_beside", lambda job, own: beside(fail, own))
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=1)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="worker job"):
        ensemble_evolve(cat, Constant(0.0), NoiseSpec(nu=1.0, seed=3), 10, cfg)
    assert threading.active_count() == before


def test_closed_form_rerun_is_deterministic(cat):
    spec = NoiseSpec(nu=1.0, seed=13)
    cfg = EvolverConfig(dt=0.1, n_steps=5, record_every=1)
    for M in (150, SPLIT_M):  # two blocks, then four: two per thread
        a = ensemble_evolve(cat, Harmonic(1.0), spec, M, cfg)
        b = ensemble_evolve(cat, Harmonic(1.0), spec, M, cfg)
        for sa, sb, ea, eb in zip(a.mean_states, b.mean_states, a.stderr, b.stderr):
            assert np.array_equal(sa.values, sb.values)
            assert np.array_equal(ea, eb)


SPLIT_M = 3 * _BLOCK + 37  # blocks 0 and 2 on the caller's thread, 1 and 3 beside


def split_run(cat, grid):
    nu = np.linspace(0.0, 1.2, grid.n_points)
    nu[::5] = 0.0
    spec = NoiseSpec(nu=nu, seed=7)
    cfg = EvolverConfig(dt=0.05, n_steps=20, record_every=1)
    return ensemble_evolve(cat, Harmonic(1.0), spec, SPLIT_M, cfg), (spec, cfg)


def test_block_split_equals_both_jobs_on_one_thread(cat, grid, monkeypatch):
    # the job's sums are added to the caller's in a fixed order, so thread
    # timing cannot move a bit; a run makes one thread start
    threaded, _ = split_run(cat, grid)
    starts = []

    def alone(job, own):
        starts.append(job)
        return job(), own()

    monkeypatch.setattr(stochastic, "_beside", alone)
    sequential, _ = split_run(cat, grid)
    assert len(starts) == 1  # accumulation; the means are formed on this thread
    assert len(threaded.times) == 21
    for a, b, ea, eb in zip(
        threaded.mean_states, sequential.mean_states, threaded.stderr, sequential.stderr
    ):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(ea, eb)


def test_block_split_matches_the_sequential_oracle(cat, grid):
    # more than two blocks are summed in another order than one loop over
    # them: 3.6e-16 of |f0| in the mean and 4.7e-16 relative in the
    # standard errors at worst (measured); exact zeros stay exact
    rep, (spec, cfg) = split_run(cat, grid)
    times, mean, m2 = sequential_closed_form(cat, Harmonic(1.0), spec, SPLIT_M, cfg)
    stderr = np.sqrt(m2 / ((SPLIT_M - 1) * SPLIT_M))
    assert rep.times == times
    for got, err, m, e in zip(rep.mean_states, rep.stderr, mean, stderr):
        assert np.all(np.abs(got.values - m) <= 4e-15 * np.abs(cat.values))
        assert np.all(np.abs(err - e) <= 1e-14 * e)


@pytest.mark.parametrize(
    "bad",
    [
        (_BLOCK + 9, 2 * _BLOCK + 1),  # the job's block 1, then block 2
        (2 * _BLOCK + 5, 3 * _BLOCK + 2),  # block 2, then the job's 3
    ],
    ids=["odd_block_first", "even_block_first"],
)
def test_closed_form_names_the_smallest_bad_realization(cat, monkeypatch, bad):
    # each thread stops at its first non-finite block; the error names nu,
    # not a realization, since a nu that overflows the field fails every
    # realization alike
    real, drawn = stochastic.normal_rows, []

    def rows(seed, ks, n):
        drawn.append(ks.start // _BLOCK)
        out = real(seed, ks, n)
        for k in bad:
            if k in ks:
                out[k - ks.start] = np.nan
        return out

    monkeypatch.setattr(stochastic, "normal_rows", rows)
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=1)
    before = threading.active_count()
    with pytest.raises(DomainError, match="noise field is not finite"):
        ensemble_evolve(cat, Constant(0.0), NoiseSpec(nu=1.0, seed=3), 6 * _BLOCK, cfg)
    assert threading.active_count() == before
    # neither thread drew past its own bad block
    last = {k // _BLOCK for k in bad}
    assert set(drawn) == set(range(max(last) + 1))


def test_noise_past_the_float_range_is_domain_error(cat):
    # nu times a normal deviate past 1.8 overflows, so every block fails
    # alike (both threads' here); the error names nu, and no overflow warns
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=r"not finite \(nu up to 1\.000e\+308\)"):
            ensemble_evolve(cat, Constant(0.0), NoiseSpec(1e308), 2 * _BLOCK, cfg)
    assert caught == []


def test_closed_form_keeps_its_sums_in_the_means_buffer():
    # the caller's sums live in the means' buffer and the standard errors are
    # formed in M2's, so the peak is the means' bytes plus one record-sized
    # complex array (the job's sums) and block work: 2.24x the means' bytes
    # at n = 64 and 100 records (measured); one more sums array adds 1x
    grid = GridSpec(64, 10.0)
    cat = make_cat_density(grid, 4.0, 0.7)
    cfg = EvolverConfig(dt=0.01, n_steps=100, record_every=1)
    spec = NoiseSpec(nu=1.0, seed=3)
    means_bytes = 101 * grid.n_points**2 * 16
    tracemalloc.start()
    try:
        rep = ensemble_evolve(cat, Constant(0.0), spec, 2 * _BLOCK, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.times) == 101
    assert peak <= 2.5 * means_bytes


@pytest.mark.parametrize(
    "f0, V, cause",
    [
        # flat state: the boundary frame carries the global peak
        (DensityGrid(GridSpec(32, 10.0), np.ones((32, 32))), Constant(0.0),
         BoundaryContaminationError),
        (make_cat_density(GridSpec(32, 10.0), 4.0, 0.7), Constant(np.inf),
         DomainError),
    ],
)
def test_closed_form_errors_match_stepped_oracle(f0, V, cause):
    # the ensemble raises what lindblad_evolve raises, bare
    spec = NoiseSpec(nu=1.0, seed=3)
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=2)
    errors = []
    for run in (
        lambda: ensemble_evolve(f0, V, spec, 5, cfg),
        lambda: lindblad_evolve(f0, V, spec, cfg),
        lambda: stepped_oracle(f0, V, spec, 5, cfg),
    ):
        with np.errstate(invalid="ignore"), pytest.raises(cause) as err:
            run()
        assert type(err.value) is cause
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1])
    if cause is BoundaryContaminationError:
        assert errors[0].step == errors[2].step == 1


@pytest.mark.parametrize(
    "f0, V, cause",
    [
        (DensityGrid(GridSpec(32, 10.0), np.ones((32, 32))), Constant(0.0),
         BoundaryContaminationError),
        (make_cat_density(GridSpec(32, 10.0), 4.0, 0.7), Constant(np.inf), DomainError),
    ],
    ids=["tail_alarm", "non_finite_phase"],
)
def test_closed_form_raises_without_stepping(f0, V, cause, monkeypatch):
    # the closed form is the only ensemble path: it raises its own errors
    calls = []
    monkeypatch.setattr(evolvers, "_strang", lambda *args: calls.append(args))
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=2)
    with np.errstate(invalid="ignore"), pytest.raises(cause):
        ensemble_evolve(f0, V, NoiseSpec(nu=1.0, seed=3), 5, cfg)
    assert calls == []


def test_ensemble_requires_two_realizations(cat):
    cfg = EvolverConfig(dt=0.1, n_steps=1)
    with pytest.raises(ConfigError, match="M >= 2"):
        ensemble_evolve(cat, Constant(0.0), NoiseSpec(nu=1.0), 1, cfg)


def test_evolution_is_linear_in_the_state():
    # the master equations act linearly on matrix elements
    grid = GridSpec(64, 10.0)
    f1 = make_cat_density(grid, 4.0, 0.7)
    f2 = make_cat_density(grid, 2.0, 0.6)
    mix = DensityGrid(grid, 0.3 * f1.values + 0.7 * f2.values)
    cfg = EvolverConfig(dt=0.008, n_steps=15, record_every=15)
    v = Harmonic(1.0)
    out_mix = von_neumann_evolve(mix, v, cfg).states[-1].values
    out_sep = (
        0.3 * von_neumann_evolve(f1, v, cfg).states[-1].values
        + 0.7 * von_neumann_evolve(f2, v, cfg).states[-1].values
    )
    assert np.abs(out_mix - out_sep).max() <= 1e-12
    out_mix_l = lindblad_evolve(mix, v, NoiseSpec(1.0), cfg).states[-1].values
    out_sep_l = (
        0.3 * lindblad_evolve(f1, v, NoiseSpec(1.0), cfg).states[-1].values
        + 0.7 * lindblad_evolve(f2, v, NoiseSpec(1.0), cfg).states[-1].values
    )
    assert np.abs(out_mix_l - out_sep_l).max() <= 1e-12


def test_lindblad_matches_closed_form_without_transport(cat, grid):
    cfg = EvolverConfig(dt=1e-3, n_steps=1000, record_every=1000)
    traj = lindblad_evolve(cat, Constant(0.0), NoiseSpec(1.0), cfg)
    predicted = decay_predict(cat, NoiseSpec(1.0), 1.0)
    assert np.abs(traj.states[-1].values - predicted.values).max() <= 1e-8
    i, _ = probe_indices(grid)
    assert traj.states[-1].values[i, i] == cat.values[i, i]  # diagonal exact


def test_lindblad_trace_exactly_conserved(cat):
    cfg = EvolverConfig(dt=0.01, n_steps=100, record_every=25)
    traj = lindblad_evolve(cat, Constant(0.0), NoiseSpec(2.0), cfg)
    for diag in traj.diagnostics:
        assert abs(diag["trace"].real - 1.0) <= 1e-12
        assert diag["hermiticity_defect"] <= 1e-12


def test_transport_is_not_a_setting():
    # the stepping engines always stream and the closed forms never do, so
    # no field selects it and a scenario's config feeds the closed forms as is
    assert [f.name for f in dataclasses.fields(EvolverConfig)] == [
        "dt", "n_steps", "record_every", "tail_threshold"
    ]
    with pytest.raises(TypeError):
        EvolverConfig(dt=0.1, n_steps=1, include_kinetic=False)
    scenario = scenario_from_text(
        "grid.n = 32\npotential.kind = constant\nstate.kind = cat\n"
        "state.sigma_x = 0.7\nevolve.dt = 0.05\nevolve.t_final = 0.2\n"
        "ensemble.realizations = 2\n"
    )
    cfg = scenario.build_evolver_config()
    assert cfg.include_kinetic is True  # the benchmark's read
    f0, v = scenario.build_initial_density(), scenario.build_potential()
    spec = scenario.build_noise_spec()
    rep = ensemble_evolve(f0, v, spec, 2, cfg)
    traj = lindblad_evolve(f0, v, spec, cfg)
    assert rep.times == traj.times
    assert len(traj.times) == 5


def test_lindblad_non_finite_potential_phase_is_domain_error(cat):
    # raised bare by the walk, before any state is built
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=2)
    with np.errstate(invalid="ignore"), pytest.raises(
        DomainError, match="potential phase is not finite"
    ):
        lindblad_evolve(cat, Constant(np.inf), NoiseSpec(nu=1.0), cfg)


def test_lindblad_records_tail_without_abort():
    # for a Hermitian positive f0 the peak stays on the diagonal and no
    # factor off it exceeds modulus one, so no record's tail exceeds f0's
    cat = make_cat_density(GridSpec(64, 10.0), 4.0, 0.7)
    cfg = EvolverConfig(dt=0.008, n_steps=15, record_every=5)
    traj = lindblad_evolve(cat, Harmonic(1.0), NoiseSpec(1.0), cfg)
    tails = [d["boundary_fraction"] for d in traj.diagnostics]
    assert len(tails) == 4
    assert tails[0] == boundary_fraction(cat.values) <= cfg.tail_threshold
    for state, tail in zip(traj.states, tails):
        assert tail == boundary_fraction(state.values)
        assert tail <= tails[0] * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "v", [Harmonic(1.0), switched_force()], ids=["harmonic", "switched_linear"]
)
def test_lindblad_zero_noise_is_vonneumann(v):
    cat = make_cat_density(GridSpec(48, 10.0), 4.0, 0.7)
    cfg = EvolverConfig(dt=0.01, n_steps=20, record_every=20)
    a = lindblad_evolve(cat, v, NoiseSpec(0.0), cfg)
    _, b = _frozen_steps(cat, v, 0.0, cfg)
    assert np.abs(a.states[-1].values - b[-1].values).max() <= 1e-12


def _stepped_lindblad(f0, V, spec, cfg, kinetic):
    """Strang-stepped dissipative evolution: the closed form's test oracle.

    Per step: kinetic half-step (if ``kinetic``), V's phase and the damping
    exp(-tau dt [nu^2(Q) + nu^2(q)]) off the diagonal, both at the step
    midpoint, with tau = (s - 1/2) dt the time elapsed since f0, then the
    second kinetic half-step.  The midpoint rates sum to t^2 / 2 exactly.
    No tail monitor.  Returns the recorded times and arrays.
    """
    grid, dt = f0.grid, cfg.dt
    nu = spec.nu_on_grid(grid)
    rates = nu[:, None] ** 2 + nu[None, :] ** 2
    np.fill_diagonal(rates, 0.0)
    k2 = grid.wavenumbers**2
    kin_half = np.exp(-0.25j * dt * (k2[:, None] - k2[None, :]))
    record_at = _record_steps(cfg)
    work = f0.values.copy()
    times, states = [f0.time], [f0.values]
    for step in range(1, cfg.n_steps + 1):
        if kinetic:
            work = np.fft.ifft2(np.fft.fft2(work) * kin_half)
        vx = V.value(grid.x, f0.time + (step - 0.5) * dt)
        work = work * np.exp(-1j * dt * (vx[:, None] - vx[None, :]))
        work = work * np.exp(-((step - 0.5) * dt) * dt * rates)
        if kinetic:
            work = np.fft.ifft2(np.fft.fft2(work) * kin_half)
        if step in record_at:
            times.append(f0.time + step * cfg.dt)
            states.append(work)
    return times, states


@pytest.mark.parametrize("t0", [0.0, 1.0])
@pytest.mark.parametrize(
    "v",
    [
        Constant(0.0),
        Harmonic(1.0),
        Quartic(0.25),
        # switches inside the windows that start at t0 = 0 and t0 = 1
        Linear(step_schedule([[0.0, 0.8], [0.1, 3.0], [1.3, -0.5]]), 0.2),
    ],
    ids=["constant", "harmonic", "quartic", "switched_linear"],
)
def test_lindblad_matches_stepped_oracle(grid, v, t0):
    f0 = make_cat_density(grid, 4.0, 0.7)
    f0 = DensityGrid(grid, f0.values, t0)
    nu = np.linspace(0.0, 1.2, grid.n_points)
    nu[::5] = 0.0  # undamped cells
    spec = NoiseSpec(nu)
    cfg = EvolverConfig(dt=0.05, n_steps=20, record_every=3)
    traj = lindblad_evolve(f0, v, spec, cfg)
    times, states = _stepped_lindblad(f0, v, spec, cfg, kinetic=False)
    assert traj.times == times
    peak = np.abs(f0.values).max()
    for state, ref, d in zip(traj.states, states, traj.diagnostics):
        assert np.abs(state.values - ref).max() <= 1e-14 * peak
        assert np.array_equal(np.diag(state.values), np.diag(f0.values))
        assert d["boundary_fraction"] == boundary_fraction(state.values)
        assert abs(d["trace"] - f0.trace()) == 0.0
        assert d["hermiticity_defect"] <= 1e-15 * peak
    # each record is decay_predict's state times the phases, bit for bit
    steps = _record_steps(cfg)
    phases = stochastic._potential_phases(v, grid.x, t0, cfg.dt, steps)
    for state, step, d in zip(traj.states[1:], steps, phases):
        expected = decay_predict(f0, spec, step * cfg.dt).values * np.outer(d, d.conj())
        np.fill_diagonal(expected, np.diag(f0.values))
        assert np.array_equal(state.values, expected)


def test_lindblad_damping_clock_starts_at_f0(grid):
    # the damping rate grows with the time since f0, not with f0.time + t:
    # a state recorded at time 1 decays over [1, 2] as one at 0 over [0, 1]
    cat = make_cat_density(grid, 4.0, 0.7)
    f0 = DensityGrid(grid, cat.values, 1.0)
    spec = NoiseSpec(nu=1.0, seed=5)
    cfg = EvolverConfig(dt=0.05, n_steps=20, record_every=5)
    traj = lindblad_evolve(f0, Constant(0.0), spec, cfg)
    predicted = decay_predict(f0, spec, 1.0)
    assert traj.times[-1] == predicted.time == 2.0
    assert np.abs(traj.states[-1].values - predicted.values).max() <= 1e-15
    rep = ensemble_evolve(f0, Constant(0.0), spec, 1000, cfg)
    assert compare_ensemble_vs_lindblad(rep, traj, spec)["pass"]


def test_zero_noise_ensemble_follows_time_dependent_potential(cat):
    cfg = EvolverConfig(dt=0.01, n_steps=20, record_every=20)
    v = switched_force()
    rep = ensemble_evolve(cat, v, NoiseSpec(nu=0.0, seed=1), 2, cfg)
    _, states = _frozen_steps(cat, v, 0.0, cfg)
    assert np.abs(rep.mean_states[-1].values - states[-1].values).max() <= 1e-12


@pytest.mark.parametrize(
    "run",
    [
        lambda f, v, cfg: liouville_evolve_xp(Qq_to_xp(f), v, cfg),
        lambda f, v, cfg: von_neumann_evolve(f, v, cfg),
        lambda f, v, cfg: qq_liouville_evolve(f, v, cfg),
    ],
    ids=["xp", "von_neumann", "qq"],
)
def test_dt_guard_warning_names_the_caller(cat, run):
    cfg = EvolverConfig(dt=0.05, n_steps=1, tail_threshold=1.0)  # dt > 0.1 dx^2
    with pytest.warns(TimeStepWarning) as record:
        run(cat, Harmonic(1.0), cfg)
    assert record[0].filename == __file__


def test_decay_predict_values(cat, grid):
    i, j = probe_indices(grid)
    out = decay_predict(cat, NoiseSpec(1.0), 1.0)
    assert abs(out.values[i, j]) == pytest.approx(
        abs(cat.values[i, j]) * np.exp(-1.0), rel=1e-12
    )
    ident = decay_predict(cat, NoiseSpec(1.0), 0.0)
    assert np.array_equal(ident.values, cat.values)


def test_decay_predict_mixed_widths(grid):
    # nu^2(x) = 1 and nu^2(y) = 3 at t = 2: factor exp(-8)
    nu2 = np.zeros(grid.n_points)
    i, j = 5, 20
    nu2[i] = 1.0
    nu2[j] = 3.0
    oracle = np.exp(-0.5 * 2.0**2 * (nu2[i] + nu2[j]))
    assert oracle == pytest.approx(np.exp(-8.0), rel=1e-15)
    f = make_cat_density(grid, 4.0, 0.7)
    out = decay_predict(f, NoiseSpec(np.sqrt(nu2)), 2.0)
    assert out.values[i, j] == pytest.approx(f.values[i, j] * np.exp(-8.0), rel=1e-12)


@given(t=st.floats(0.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_decay_magnitudes_never_increase(t):
    grid = GridSpec(32, 10.0)
    f = make_cat_density(grid, 4.0, 0.7)
    out = decay_predict(f, NoiseSpec(1.0), t)
    assert np.all(np.abs(out.values) <= np.abs(f.values) + 1e-15)


def test_compare_pass_for_quenched_window(cat, grid):
    spec = NoiseSpec(nu=1.0, seed=11)
    cfg = EvolverConfig(dt=0.1, n_steps=20, record_every=5)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 400, cfg)
    traj = lindblad_evolve(cat, Constant(0.0), spec, cfg)
    result = compare_ensemble_vs_lindblad(rep, traj, spec)
    assert result["pass"]


def test_compare_skips_records_past_the_noise_window(cat):
    # a record with t max(nu) > 2 is not compared: corrupting it changes
    # nothing, while corrupting one inside the window fails the comparison
    spec = NoiseSpec(nu=1.0, seed=11)
    cfg = EvolverConfig(dt=0.25, n_steps=12, record_every=4)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 400, cfg)
    traj = lindblad_evolve(cat, Constant(0.0), spec, cfg)
    assert traj.times == [0.0, 1.0, 2.0, 3.0]
    clean = compare_ensemble_vs_lindblad(rep, traj, spec)
    assert clean["pass"]

    def corrupted(r):
        states = list(traj.states)
        shift = 0.1 * np.abs(cat.values).max()
        states[r] = DensityGrid(cat.grid, states[r].values + shift, states[r].time)
        return dataclasses.replace(traj, states=states)

    assert compare_ensemble_vs_lindblad(rep, corrupted(3), spec) == clean
    assert not compare_ensemble_vs_lindblad(rep, corrupted(2), spec)["pass"]


def test_compare_zero_noise_differences_vanish(cat):
    spec = NoiseSpec(nu=0.0, seed=2)
    cfg = EvolverConfig(dt=0.05, n_steps=10, record_every=5)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 3, cfg)
    traj = lindblad_evolve(cat, Constant(0.0), spec, cfg)
    assert len(rep.mean_states) == len(traj.states)
    for mean, state in zip(rep.mean_states, traj.states):
        assert np.abs(mean.values - state.values).max() <= 1e-10
    assert compare_ensemble_vs_lindblad(rep, traj, spec)["pass"]


def test_compare_rejects_mismatched_grids(cat):
    spec = NoiseSpec(nu=1.0, seed=2)
    cfg = EvolverConfig(dt=0.1, n_steps=2, record_every=1)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 4, cfg)
    other = make_cat_density(GridSpec(16, 10.0), 4.0, 0.7)
    traj = lindblad_evolve(other, Constant(0.0), spec, cfg)
    with pytest.raises(ConfigError):
        compare_ensemble_vs_lindblad(rep, traj, spec)


def test_compare_rejects_mismatched_records(cat):
    spec = NoiseSpec(nu=1.0, seed=2)
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=2)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 4, cfg)
    for other in (
        EvolverConfig(dt=0.1, n_steps=4, record_every=1),
        EvolverConfig(dt=0.15, n_steps=2, record_every=1),
    ):
        traj = lindblad_evolve(cat, Constant(0.0), spec, other)
        with pytest.raises(ConfigError):
            compare_ensemble_vs_lindblad(rep, traj, spec)


def test_monte_carlo_convergence_rate(grid):
    # quenched mean error vs the closed form shrinks like 1/sqrt(M)
    cat = make_cat_density(grid, 4.0, 0.7)
    spec = NoiseSpec(nu=1.0, seed=77)
    cfg = EvolverConfig(dt=0.1, n_steps=10, record_every=10)
    predicted = decay_predict(cat, spec, 1.0)
    errors = []
    for m in (100, 1000):
        rep = ensemble_evolve(cat, Constant(0.0), spec, m, cfg)
        errors.append(np.abs(rep.mean_states[-1].values - predicted.values).mean())
    slope = (np.log(errors[1]) - np.log(errors[0])) / np.log(10.0)
    assert -0.7 <= slope <= -0.3


def test_short_time_consistency_third_order():
    """With transport on, |exact quenched average - stepped law| shrinks as t^3.

    Noise on a single cell makes the quenched average a one-dimensional
    Gaussian integral, evaluated here by Gauss-Hermite quadrature, so no
    Monte Carlo error enters.  The single-cell spike rings spectrally, so
    the exact side's tail monitor is disabled (the oracle has none); both
    sides share the ringing.
    """
    grid = GridSpec(48, 10.0)
    nu0 = 1.0
    cell = grid.n_points // 2 + 2
    nu_profile = np.zeros(grid.n_points)
    nu_profile[cell] = nu0
    f0 = make_cat_density(grid, 4.0, 0.7)
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    norm = weights.sum()

    from liouq.evolvers import _evolve_density

    def exact_average(t, n_steps):
        cfg = EvolverConfig(dt=t / n_steps, n_steps=n_steps,
                            record_every=n_steps, tail_threshold=1.0)
        total = np.zeros_like(f0.values)
        for node, weight in zip(nodes, weights):
            dv = np.zeros(grid.n_points)
            dv[cell] = nu0 * node
            extra = dv[:, None] - dv[None, :]
            out = _evolve_density(f0, Constant(0.0), extra, cfg).states[-1].values
            total = total + weight * out
        return total / norm

    diffs = []
    for t in (0.025, 0.075):  # asymptotic regime needs t * ||H|| small
        n_steps = max(2, int(round(t / 0.00125)))
        cfg = EvolverConfig(dt=t / n_steps, n_steps=n_steps,
                            record_every=n_steps, tail_threshold=1.0)
        _, stepped = _stepped_lindblad(
            f0, Constant(0.0), NoiseSpec(nu_profile), cfg, kinetic=True
        )
        diffs.append(np.abs(exact_average(t, n_steps) - stepped[-1]).max())
    growth = diffs[1] / diffs[0]
    assert 27.0 * 0.5 <= growth <= 27.0 * 1.5


def corner_packet(grid):
    packet = make_cat_density(grid, 0.0, 0.7).values
    half = grid.n_points // 2
    return DensityGrid(grid, np.roll(packet, (half, half), axis=(0, 1)))


CORNER_CFG = EvolverConfig(dt=0.01, n_steps=400, record_every=400)


@pytest.mark.parametrize(
    "run",
    [
        lambda f0, spec: lindblad_evolve(f0, Constant(0.0), spec, CORNER_CFG),
        lambda f0, spec: ensemble_evolve(f0, Constant(0.0), spec, 2, CORNER_CFG),
    ],
    ids=["lindblad", "ensemble"],
)
def test_lindblad_aborts_on_the_initial_tail(grid, run):
    # both closed forms' tail rule: f0's tail bounds every record's, so a
    # packet rolled onto the box corner aborts at step 1, before any noise
    f0 = corner_packet(grid)
    with pytest.raises(BoundaryContaminationError) as err:
        run(f0, NoiseSpec(nu=0.1, seed=1))
    assert type(err.value) is BoundaryContaminationError
    assert err.value.step == 1
    assert err.value.fraction == boundary_fraction(f0.values)


def off_diagonal_peak(grid):
    # Hermitian, minimum eigenvalue -0.999: its tail is 1e-3, but the noise
    # damps the peak off the diagonal until the corner cell is the peak
    values = np.zeros((grid.n_points,) * 2, dtype=complex)
    values[8, 9] = values[9, 8] = 1.0
    values[0, 0] = values[8, 8] = values[9, 9] = 1e-3
    return DensityGrid(grid, values)


def zero_diagonal(grid):
    values = np.zeros((grid.n_points,) * 2, dtype=complex)
    values[0, 1] = values[1, 0] = 1.0
    return DensityGrid(grid, values)


@pytest.mark.parametrize(
    "state, bound", [(off_diagonal_peak, 1.0), (zero_diagonal, np.inf)],
    ids=["off_diagonal_peak", "zero_diagonal"],
)
def test_closed_forms_bound_the_tail_by_the_diagonal(state, bound):
    # the diagonal never moves and no factor grows a modulus, so
    # boundary_frame(f0) / max|diag f0| bounds every record's tail
    f0 = state(GridSpec(16, 4.0))
    spec = NoiseSpec(1.0)
    cfg = EvolverConfig(dt=0.5, n_steps=6, record_every=2, tail_threshold=1e-2)
    with pytest.raises(BoundaryContaminationError) as err:
        lindblad_evolve(f0, Constant(0.0), spec, cfg)
    assert type(err.value) is BoundaryContaminationError
    assert (err.value.step, err.value.fraction) == (1, bound)
    with pytest.raises(BoundaryContaminationError) as again:
        ensemble_evolve(f0, Constant(0.0), spec, 64, cfg)
    assert type(again.value) is BoundaryContaminationError
    assert str(again.value) == str(err.value)
    assert (again.value.step, again.value.fraction) == (1, bound)
