"""Noise sampling, ensemble averaging, dissipative stepper, decay law."""

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
    Qq_to_xp,
    compare_ensemble_vs_lindblad,
    decay_predict,
    ensemble_evolve,
    lindblad_evolve,
    liouville_evolve_xp,
    make_cat_density,
    qq_liouville_evolve,
    sample_noise,
    step_schedule,
    superoperator_field,
    von_neumann_evolve,
)
from liouq.errors import (
    BoundaryContaminationError,
    ConfigError,
    DomainError,
    RealizationError,
)
from liouq.evolvers import TimeStepWarning


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


def test_noise_first_two_moments(grid):
    spec = NoiseSpec(nu=1.0, seed=101)
    m = 100_000
    cell = np.array([sample_noise(spec, grid, k).values[7] for k in range(m)])
    assert abs(cell.mean()) <= 4.0 / np.sqrt(m)
    assert abs(cell.var() - 1.0) <= 0.05


def test_noise_zero_width_gives_zero_field(grid):
    field = sample_noise(NoiseSpec(nu=0.0, seed=3), grid, 0)
    assert np.all(field.values == 0.0)


def test_noise_determinism(grid):
    spec = NoiseSpec(nu=1.0, seed=5)
    a = sample_noise(spec, grid, 9)
    b = sample_noise(spec, grid, 9)
    assert np.array_equal(a.values, b.values)
    c = sample_noise(spec, grid, 10)
    assert not np.array_equal(a.values, c.values)


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
    cfg = EvolverConfig(dt=0.05, n_steps=20, record_every=20, include_kinetic=False)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 1000, cfg)
    i, j = probe_indices(grid)
    ratio = abs(rep.mean_states[-1].values[i, j]) / abs(cat.values[i, j])
    err = rep.stderr[-1][i, j] / abs(cat.values[i, j])
    assert abs(ratio - np.exp(-1.0)) <= 3.0 * err
    # diagonal untouched per realization, hence exactly in the mean
    assert abs(rep.mean_states[-1].values[i, i] - cat.values[i, i]) <= 1e-12


def test_ensemble_zero_noise_reduces_to_vonneumann():
    # transport on: needs spatial resolution for the packet width
    cat = make_cat_density(GridSpec(48, 10.0), 4.0, 0.7)
    spec = NoiseSpec(nu=0.0, seed=1)
    cfg = EvolverConfig(dt=0.01, n_steps=10, record_every=10)
    rep = ensemble_evolve(cat, Harmonic(1.0), spec, 3, cfg)
    traj = von_neumann_evolve(cat, Harmonic(1.0), cfg)
    assert np.abs(rep.mean_states[-1].values - traj.states[-1].values).max() <= 1e-13


def stepped_oracle(f0, V, spec, M, cfg):
    from liouq.stochastic import _stepped_moments

    times, mean, m2 = _stepped_moments(f0, V, spec, M, cfg, "quenched")
    return times, mean, np.sqrt(m2 / ((M - 1) * M))


def test_closed_form_matches_stepped_oracle(cat, grid):
    from liouq.stochastic import _BLOCK

    nu = np.linspace(0.0, 1.2, grid.n_points)
    nu[::5] = 0.0  # noise-free cells: deterministic elements, zero error bars
    spec = NoiseSpec(nu=nu, seed=7)
    cfg = EvolverConfig(dt=0.05, n_steps=20, record_every=3, include_kinetic=False)
    M = _BLOCK + 37  # a full block plus a partial one
    rep = ensemble_evolve(cat, Harmonic(1.0), spec, M, cfg)
    times, mean, stderr = stepped_oracle(cat, Harmonic(1.0), spec, M, cfg)
    assert rep.times == times
    for i in range(len(times)):
        got = rep.mean_states[i].values
        assert np.abs(got - mean[i]).max() <= 1e-12
        assert np.allclose(rep.stderr[i], stderr[i], rtol=1e-10, atol=1e-15)
        assert np.array_equal(rep.stderr[i] == 0.0, stderr[i] == 0.0)
        assert np.array_equal(np.diag(got), np.diag(cat.values))
        assert np.all(np.diag(rep.stderr[i]) == 0.0)


def test_closed_form_rerun_is_deterministic(cat):
    spec = NoiseSpec(nu=1.0, seed=13)
    cfg = EvolverConfig(dt=0.1, n_steps=5, record_every=1, include_kinetic=False)
    a = ensemble_evolve(cat, Harmonic(1.0), spec, 150, cfg)
    b = ensemble_evolve(cat, Harmonic(1.0), spec, 150, cfg)
    for sa, sb, ea, eb in zip(a.mean_states, b.mean_states, a.stderr, b.stderr):
        assert np.array_equal(sa.values, sb.values)
        assert np.array_equal(ea, eb)


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
    spec = NoiseSpec(nu=1.0, seed=3)
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=2, include_kinetic=False)
    errors = []
    for run in (
        lambda: ensemble_evolve(f0, V, spec, 5, cfg),
        lambda: stepped_oracle(f0, V, spec, 5, cfg),
    ):
        with np.errstate(invalid="ignore"), pytest.raises(RealizationError) as err:
            run()
        assert err.value.index == 0
        assert isinstance(err.value.__cause__, cause)
        errors.append(err.value.__cause__)
    if cause is BoundaryContaminationError:
        assert errors[0].step == errors[1].step == 1


@pytest.mark.parametrize(
    "f0, V",
    [
        (DensityGrid(GridSpec(32, 10.0), np.ones((32, 32))), Constant(0.0)),
        (make_cat_density(GridSpec(32, 10.0), 4.0, 0.7), Constant(np.inf)),
    ],
    ids=["tail_alarm", "non_finite_phase"],
)
def test_closed_form_hands_failures_to_the_stepper(f0, V, monkeypatch):
    # the closed form raises nothing itself: it leaves the run to the stepper
    from liouq import stochastic

    calls, real = [], stochastic._stepped_moments

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stochastic, "_stepped_moments", spy)
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=2, include_kinetic=False)
    with np.errstate(invalid="ignore"), pytest.raises(RealizationError):
        ensemble_evolve(f0, V, NoiseSpec(nu=1.0, seed=3), 5, cfg)
    assert len(calls) == 1


def test_ensemble_requires_two_realizations(cat):
    cfg = EvolverConfig(dt=0.1, n_steps=1)
    with pytest.raises(ConfigError):
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
    out_mix_l = lindblad_evolve(mix, v, 1.0, cfg).states[-1].values
    out_sep_l = (
        0.3 * lindblad_evolve(f1, v, 1.0, cfg).states[-1].values
        + 0.7 * lindblad_evolve(f2, v, 1.0, cfg).states[-1].values
    )
    assert np.abs(out_mix_l - out_sep_l).max() <= 1e-12


def test_lindblad_matches_closed_form_without_transport(cat, grid):
    cfg = EvolverConfig(dt=1e-3, n_steps=1000, record_every=1000,
                        include_kinetic=False)
    traj = lindblad_evolve(cat, Constant(0.0), 1.0, cfg)
    predicted = decay_predict(cat, 1.0, 1.0)
    assert np.abs(traj.states[-1].values - predicted.values).max() <= 1e-8
    i, _ = probe_indices(grid)
    assert traj.states[-1].values[i, i] == cat.values[i, i]  # diagonal exact


def test_lindblad_trace_exactly_conserved(cat):
    cfg = EvolverConfig(dt=0.01, n_steps=100, record_every=25,
                        include_kinetic=False)
    traj = lindblad_evolve(cat, Constant(0.0), 2.0, cfg)
    for diag in traj.diagnostics:
        assert abs(diag["trace"].real - 1.0) <= 1e-12
        assert diag["hermiticity_defect"] <= 1e-12


def test_lindblad_has_dt_guard(cat):
    cfg = EvolverConfig(dt=0.05, n_steps=1)  # above 0.1 dx^2 here
    with pytest.warns(TimeStepWarning):
        lindblad_evolve(cat, Constant(0.0), 1.0, cfg)


def test_lindblad_records_tail_without_abort():
    # the damping rings out to the box edge under transport; the tail is
    # recorded, never raised, even above the configured threshold
    cat = make_cat_density(GridSpec(64, 10.0), 4.0, 0.7)
    cfg = EvolverConfig(dt=0.008, n_steps=15, record_every=5)
    traj = lindblad_evolve(cat, Harmonic(1.0), 1.0, cfg)
    tails = [d["boundary_fraction"] for d in traj.diagnostics]
    assert len(tails) == 4
    assert max(tails) > cfg.tail_threshold


def switched_force():
    """Linear potential whose slope steps from 0 to 3 at t = 0.1."""
    return Linear(step_schedule([[0.0, 0.0], [0.1, 3.0]]))


@pytest.mark.parametrize(
    "v", [Harmonic(1.0), switched_force()], ids=["harmonic", "switched_linear"]
)
def test_lindblad_zero_noise_is_vonneumann(v):
    cat = make_cat_density(GridSpec(48, 10.0), 4.0, 0.7)
    cfg = EvolverConfig(dt=0.01, n_steps=20, record_every=20)
    a = lindblad_evolve(cat, v, 0.0, cfg)
    b = von_neumann_evolve(cat, v, cfg)
    assert np.abs(a.states[-1].values - b.states[-1].values).max() <= 1e-12


def test_resampled_zero_noise_follows_time_dependent_potential():
    cat = make_cat_density(GridSpec(48, 10.0), 4.0, 0.7)
    cfg = EvolverConfig(dt=0.01, n_steps=20, record_every=20)
    v = switched_force()
    rep = ensemble_evolve(cat, v, NoiseSpec(nu=0.0, seed=1), 2, cfg,
                          mode="resampled")
    traj = von_neumann_evolve(cat, v, cfg)
    assert np.abs(rep.mean_states[-1].values - traj.states[-1].values).max() <= 1e-12


@pytest.mark.parametrize(
    "run",
    [
        lambda f, v, cfg: liouville_evolve_xp(Qq_to_xp(f), v, cfg),
        lambda f, v, cfg: von_neumann_evolve(f, v, cfg),
        lambda f, v, cfg: qq_liouville_evolve(
            f, v, superoperator_field(v, f.grid), cfg
        ),
        lambda f, v, cfg: lindblad_evolve(f, v, 1.0, cfg),
        lambda f, v, cfg: ensemble_evolve(f, v, NoiseSpec(1.0), 2, cfg),
    ],
    ids=["xp", "von_neumann", "qq", "lindblad", "stepped_ensemble"],
)
def test_dt_guard_warning_names_the_caller(cat, run):
    cfg = EvolverConfig(dt=0.05, n_steps=1, tail_threshold=1.0)  # dt > 0.1 dx^2
    with pytest.warns(TimeStepWarning) as record:
        run(cat, Harmonic(1.0), cfg)
    assert record[0].filename == __file__


def test_decay_predict_values(cat, grid):
    i, j = probe_indices(grid)
    out = decay_predict(cat, 1.0, 1.0)
    assert abs(out.values[i, j]) == pytest.approx(
        abs(cat.values[i, j]) * np.exp(-1.0), rel=1e-12
    )
    ident = decay_predict(cat, 1.0, 0.0)
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
    out = decay_predict(f, np.sqrt(nu2), 2.0)
    assert out.values[i, j] == pytest.approx(f.values[i, j] * np.exp(-8.0), rel=1e-12)


@given(t=st.floats(0.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_decay_magnitudes_never_increase(t):
    grid = GridSpec(32, 10.0)
    f = make_cat_density(grid, 4.0, 0.7)
    out = decay_predict(f, 1.0, t)
    assert np.all(np.abs(out.values) <= np.abs(f.values) + 1e-15)


def test_compare_pass_for_quenched_window(cat, grid):
    spec = NoiseSpec(nu=1.0, seed=11)
    cfg = EvolverConfig(dt=0.1, n_steps=20, record_every=5, include_kinetic=False)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 400, cfg)
    traj = lindblad_evolve(cat, Constant(0.0), spec, cfg)
    result = compare_ensemble_vs_lindblad(rep, traj, nu=spec)
    assert result["pass"]
    assert len(result["maxnorm"]) == len(rep.times)


def test_compare_zero_noise_differences_vanish(cat):
    spec = NoiseSpec(nu=0.0, seed=2)
    cfg = EvolverConfig(dt=0.05, n_steps=10, record_every=5, include_kinetic=False)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 3, cfg)
    traj = lindblad_evolve(cat, Constant(0.0), spec, cfg)
    result = compare_ensemble_vs_lindblad(rep, traj, nu=spec)
    assert max(result["maxnorm"]) <= 1e-10


def test_compare_rejects_mismatched_grids(cat):
    spec = NoiseSpec(nu=1.0, seed=2)
    cfg = EvolverConfig(dt=0.1, n_steps=2, record_every=1, include_kinetic=False)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 4, cfg)
    other = make_cat_density(GridSpec(16, 10.0), 4.0, 0.7)
    traj = lindblad_evolve(other, Constant(0.0), spec, cfg)
    with pytest.raises(ConfigError):
        compare_ensemble_vs_lindblad(rep, traj, nu=spec)


def test_compare_rejects_mismatched_records(cat):
    spec = NoiseSpec(nu=1.0, seed=2)
    cfg = EvolverConfig(dt=0.1, n_steps=4, record_every=2, include_kinetic=False)
    rep = ensemble_evolve(cat, Constant(0.0), spec, 4, cfg)
    for other in (
        EvolverConfig(dt=0.1, n_steps=4, record_every=1, include_kinetic=False),
        EvolverConfig(dt=0.15, n_steps=2, record_every=1, include_kinetic=False),
    ):
        traj = lindblad_evolve(cat, Constant(0.0), spec, other)
        with pytest.raises(ConfigError):
            compare_ensemble_vs_lindblad(rep, traj, nu=spec)


def test_resampled_mode_decays_slower_per_unit_time(cat, grid):
    # exploratory per-step redraw: step-to-step phases average out, so the
    # decay depends on dt; just exercise determinism and basic behaviour
    spec = NoiseSpec(nu=1.0, seed=8)
    cfg = EvolverConfig(dt=0.1, n_steps=10, record_every=10, include_kinetic=False)
    rep1 = ensemble_evolve(cat, Constant(0.0), spec, 50, cfg, mode="resampled")
    rep2 = ensemble_evolve(cat, Constant(0.0), spec, 50, cfg, mode="resampled")
    assert np.array_equal(rep1.mean_states[-1].values, rep2.mean_states[-1].values)
    i, j = probe_indices(grid)
    quenched_ratio = np.exp(-0.5)  # quenched law at t = 1
    resampled_ratio = abs(rep1.mean_states[-1].values[i, j]) / abs(cat.values[i, j])
    assert resampled_ratio > quenched_ratio


def test_resampled_mode_has_dt_guard_and_tail_abort(grid):
    flat = DensityGrid(grid, np.ones((grid.n_points, grid.n_points)))
    cfg = EvolverConfig(dt=0.1, n_steps=2)  # above the kinetic guard here
    with pytest.warns(TimeStepWarning), pytest.raises(RealizationError) as err:
        ensemble_evolve(flat, Constant(0.0), NoiseSpec(nu=1.0), 2, cfg,
                        mode="resampled")
    assert err.value.index == 0
    assert isinstance(err.value.__cause__, BoundaryContaminationError)
    assert err.value.__cause__.step == 1


def test_monte_carlo_convergence_rate(grid):
    # quenched mean error vs the closed form shrinks like 1/sqrt(M)
    cat = make_cat_density(grid, 4.0, 0.7)
    spec = NoiseSpec(nu=1.0, seed=77)
    cfg = EvolverConfig(dt=0.1, n_steps=10, record_every=10, include_kinetic=False)
    predicted = decay_predict(cat, spec, 1.0)
    errors = []
    for m in (100, 1000):
        rep = ensemble_evolve(cat, Constant(0.0), spec, m, cfg)
        errors.append(np.abs(rep.mean_states[-1].values - predicted.values).mean())
    slope = (np.log(errors[1]) - np.log(errors[0])) / np.log(10.0)
    assert -0.7 <= slope <= -0.3


def test_short_time_consistency_third_order():
    """With transport on, |exact quenched average - stepper| shrinks as t^3.

    Noise on a single cell makes the quenched average a one-dimensional
    Gaussian integral, evaluated here by Gauss-Hermite quadrature, so no
    Monte Carlo error enters.  The single-cell spike rings spectrally, so
    the tail monitor is disabled; both sides share the ringing.
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
        stepped = lindblad_evolve(f0, Constant(0.0), nu_profile, cfg)
        diffs.append(
            np.abs(exact_average(t, n_steps) - stepped.states[-1].values).max()
        )
    growth = diffs[1] / diffs[0]
    assert 27.0 * 0.5 <= growth <= 27.0 * 1.5


@pytest.mark.filterwarnings("ignore::liouq.evolvers.TimeStepWarning")
def test_realization_error_carries_index():
    # a state that escapes the box makes every realization fail
    from liouq import make_gaussian_phase_space, xp_to_Qq
    from liouq.errors import RealizationError

    fine = GridSpec(64, 8.0)
    f0 = xp_to_Qq(make_gaussian_phase_space(4.0, 2.0, 0.5, 0.5, fine))
    spec = NoiseSpec(nu=0.1, seed=1)
    cfg = EvolverConfig(dt=0.01, n_steps=400, record_every=400)
    with pytest.raises(RealizationError) as err:
        ensemble_evolve(f0, Constant(0.0), spec, 2, cfg)
    assert err.value.index == 0
