"""Experiment pipelines: single-engine runs, equivalence, divergence,
decoherence, void, segment and spectrum studies.

Each study returns a :class:`RunReport` whose checks carry the violated
threshold and the observed value on failure, plus a curves dictionary
``{"tables": {stem: {column: values}}, "snapshots": {stem: state}}``
(either key may be absent).  :func:`emit_outputs` is the one writer: it
turns both into ``summary.json``, CSV/gnuplot tables, state files and an
index, and knows no study's stems or columns.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .causet import SprinkleRegion, void_probability_mc
from .errors import ConfigError, DomainError
from .evolvers import (
    TimeStepWarning,
    _beside,
    _check_dt_guard,
    dense_generator,
    liouville_evolve_xp,
    qq_liouville_evolve,
    von_neumann_evolve,
)
from .grids import save_state, xp_to_Qq
from .potentials import PiecewiseLinear, linearize, segment_sum
from .scenario import Scenario
from .stochastic import (
    _decay_rates,
    compare_ensemble_vs_lindblad,
    ensemble_evolve,
    lindblad_evolve,
)
from .streams import stream

EQUIVALENCE_TOL = 1e-6
DIVERGENCE_MIN = 1e-3
IDENTITY_TOL = 1e-2
DRIFT_TOL = 1e-9
DECAY_FIT_TOL = 0.05
SEGMENT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    threshold: float
    observed: float
    comparison: str = "<="


@dataclass
class RunReport:
    study: str
    scenario_hash: str
    seeds: dict
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks.values())

    def add_check(self, name, observed, threshold, comparison="<="):
        ops = {"<=": lambda o, t: o <= t, ">=": lambda o, t: o >= t}
        self.checks[name] = CheckResult(
            bool(ops[comparison](observed, threshold)),
            float(threshold),
            float(observed),
            comparison,
        )


def _pairwise_distance(a: np.ndarray, b: np.ndarray, spacing: float):
    diff = np.abs(a - b)
    return float(diff.max()), float(np.sqrt((diff**2).sum()) * spacing)


def _drift_metrics(traj, engine: str) -> dict:
    """Largest drift of the conserved quantities over a trajectory.

    Mass for the classical engine; trace and Hermiticity defect for the
    density-grid engines.
    """
    diags = traj.diagnostics
    if engine == "classical":
        mass0 = diags[0]["mass"]
        return {"mass_drift": max(abs(d["mass"] - mass0) for d in diags)}
    trace0 = diags[0]["trace"].real
    return {
        "trace_drift": max(abs(d["trace"].real - trace0) for d in diags),
        "hermiticity_drift": max(d["hermiticity_defect"] for d in diags),
    }


def _stepped_potential(scenario: Scenario):
    """The scenario's V for the stepping engines, which take no kinked one.

    A piecewise-linear V (``potential.kind = piecewise_linear`` or
    ``potential.delta``) has a step-function force.  On the shipped
    grids every linearity length tried made the engines abort on the
    tail or fail the classical-vs-qq identity, so it is a ``ConfigError``.
    """
    v = scenario.build_potential()
    if isinstance(v, PiecewiseLinear):
        raise ConfigError(
            "compare and evolve step the potential, and a piecewise-linear one "
            "(potential.kind = piecewise_linear or potential.delta) has a "
            "discontinuous force; segcheck, spectrum and decohere accept it"
        )
    return v


def run_evolve_study(scenario: Scenario):
    """Run the scenario's ``evolve.engine`` and keep every state; no checks.

    The report carries the engine, its conservation drift and the recorded
    times; the curves hold the states as ``snapshot_NNNN`` snapshots.
    """
    engine = scenario["evolve.engine"]
    v = _stepped_potential(scenario)
    cfg = scenario.build_evolver_config()
    if engine == "classical":
        traj = liouville_evolve_xp(scenario.build_initial_xp(), v, cfg)
    elif engine == "qq":
        traj = qq_liouville_evolve(scenario.build_initial_density(), v, cfg)
    elif engine == "vonneumann":
        traj = von_neumann_evolve(scenario.build_initial_density(), v, cfg)
    else:
        raise ConfigError(f"unknown engine {engine!r}")
    report = RunReport(
        study="evolve",
        scenario_hash=scenario.content_hash,
        seeds={},
    )
    report.metrics["engine"] = engine
    report.metrics.update(_drift_metrics(traj, engine))
    report.metrics["times"] = traj.times
    snapshots = {f"snapshot_{idx:04d}": s for idx, s in enumerate(traj.states)}
    return report, {"snapshots": snapshots}


def run_equivalence_study(scenario: Scenario):
    """Run all three engines from one ensemble and measure their distances.

    For potentials of at most quadratic order the transformed classical
    trajectory must match both density-grid engines.  Anharmonic kinds
    are expected to diverge from the commutator engine, and the report
    records the divergence instead; the coupled engine must still track
    the classical one, to ``IDENTITY_TOL`` of that divergence at every
    record after the initial state.

    The classical engine steps on a second thread (``evolvers._beside``)
    while this thread steps the density engines: they share only
    read-only inputs, and the FFT and BLAS calls release the GIL, so the
    states are those of a sequential run bit for bit.  A failure on
    either thread does not cut the other short; once both have ended, a
    classical failure is raised in preference to a density one, as in a
    sequential run.  The dt guard warns once, naming this function's
    caller, before the engines run.
    """
    grid = scenario.build_grid()
    v = _stepped_potential(scenario)
    cfg = scenario.build_evolver_config()
    f0_xp = scenario.build_initial_xp()
    f0_qq = scenario.build_initial_density()

    _check_dt_guard(cfg, grid)
    # the filter list is process-wide, so it covers the second thread, and
    # it is set and restored here, before the start and after the join
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TimeStepWarning)
        classical, (quantum, coupled) = _beside(
            lambda: liouville_evolve_xp(f0_xp, v, cfg),
            lambda: (von_neumann_evolve(f0_qq, v, cfg), qq_liouville_evolve(f0_qq, v, cfg)),
        )

    times = classical.times
    names = ("classical_vs_vonneumann", "classical_vs_qq", "qq_vs_vonneumann")
    rows = {name: [] for name in names}
    # one classical record at a time: the whole trajectory in (Q, q) would
    # set the study's peak memory
    for cl, vn, qq in zip(classical.states, quantum.states, coupled.states):
        cl, vn, qq = xp_to_Qq(cl).values, vn.values, qq.values
        for name, a, b in zip(names, (cl, cl, qq), (vn, qq, vn)):
            rows[name].append(_pairwise_distance(a, b, grid.spacing))
    tables = {}
    for name in names:
        maxnorm, l2 = (list(col) for col in zip(*rows[name]))
        tables[f"distance_{name}"] = {"t": times, "maxnorm": maxnorm, "l2": l2}

    report = RunReport(
        study="equivalence",
        scenario_hash=scenario.content_hash,
        seeds={},
    )
    for name, drift in _drift_metrics(quantum, "vonneumann").items():
        report.metrics[name] = drift
        report.add_check(name, drift, DRIFT_TOL)

    cv = tables["distance_classical_vs_vonneumann"]["maxnorm"]
    if v.harmonic_order:
        worst = max(max(table["maxnorm"]) for table in tables.values())
        report.metrics["max_pairwise_distance"] = worst
        report.add_check("pairwise_distance", worst, EQUIVALENCE_TOL)
    else:
        report.metrics["divergence_expected"] = True
        at_t1 = [d for t, d in zip(times, cv) if t >= 1.0 - 1e-9]
        if at_t1:
            report.add_check("divergence_at_t1", at_t1[0], DIVERGENCE_MIN, ">=")
        window = [d for t, d in zip(times, cv) if t >= 0.5 - 1e-9]
        monotone = float(np.all(np.diff(window) > 0)) if len(window) > 1 else 0.0
        report.add_check("divergence_monotone", monotone, 1.0, ">=")
        cq = tables["distance_classical_vs_qq"]["maxnorm"]
        identity = max(q / d for q, d in zip(cq[1:], cv[1:]))
        report.add_check("classical_vs_qq_identity", identity, IDENTITY_TOL)
        report.metrics["final_distance"] = cv[-1]

    curves = {
        "tables": tables,
        "snapshots": {
            "state_classical_final": classical.states[-1],
            "state_vonneumann_final": quantum.states[-1],
            "state_qq_final": coupled.states[-1],
        },
    }
    return report, curves


def fit_decay_exponent(times, magnitudes, initial, sigmas):
    """Least-squares slope of -log(|f|/|f0|) against t^2 through the origin.

    ``sigmas`` are absolute uncertainties of the magnitudes; points are
    weighted by the implied log-scale variance, which keeps late, fully
    decayed samples from dominating the fit.
    """
    t2 = np.asarray(times, dtype=float) ** 2
    mags = np.asarray(magnitudes, dtype=float)
    y = -np.log(mags / initial)
    rel = np.asarray(sigmas, dtype=float) / mags
    weights = 1.0 / np.maximum(rel, 1e-12) ** 2
    denom = float((weights * t2**2).sum())
    if denom == 0.0:
        raise DomainError("need at least one positive time to fit a decay")
    return float((weights * t2 * y).sum() / denom)


def _default_probes(scenario: Scenario, grid):
    if scenario["probes"] is not None:
        return [tuple(p) for p in scenario["probes"]]
    if scenario["state.kind"] == "cat":
        half = scenario["state.separation"] / 2.0
        i_plus = int(np.argmin(np.abs(grid.x - half)))
        i_minus = int(np.argmin(np.abs(grid.x + half)))
        return [(i_plus, i_minus), (i_plus, i_plus)]
    center = int(np.argmin(np.abs(grid.x - scenario["state.x0"])))
    off = min(center + max(2, grid.n_points // 16), grid.n_points - 1)
    return [(center, off), (center, center)]


def run_decoherence_study(scenario: Scenario):
    """Noisy-ensemble decay versus the dissipative evolution and decay law.

    The ensemble size is the scenario's ``ensemble.realizations``.  The
    check names keep their word "stepper" for the dissipative evolution,
    a closed form.  The study evaluates the probe law itself, so
    ``probe_*_stepper_vs_closed_form`` holds ``lindblad_evolve`` to an
    independent law: ``stochastic._decay_rates`` × 1.05 fails it.
    """
    grid = scenario.build_grid()
    v = scenario.build_potential()
    cfg = scenario.build_evolver_config()
    spec = scenario.build_noise_spec()
    M = scenario["ensemble.realizations"]
    f0 = scenario.build_initial_density()
    probes = _default_probes(scenario, grid)

    report = RunReport(
        study="decoherence",
        scenario_hash=scenario.content_hash,
        seeds={"noise": spec.seed},
    )

    ensemble = ensemble_evolve(f0, v, spec, M, cfg)
    dissipative = lindblad_evolve(f0, v, spec, cfg)
    comparison = compare_ensemble_vs_lindblad(ensemble, dissipative, spec)
    report.metrics["comparison_max_z"] = comparison["max_z"]
    report.metrics["comparison_exceed_fraction"] = comparison["exceed_fraction"]
    report.add_check("ensemble_vs_stepper", float(comparison["pass"]), 1.0, ">=")

    rates = _decay_rates(spec, grid)
    times = np.asarray(ensemble.times[1:])
    tables = {}
    for idx, (i, j) in enumerate(probes):
        ref = abs(f0.values[i, j])
        mags = np.array(
            [abs(s.values[i, j]) for s in ensemble.mean_states[1:]]
        )
        # decay_predict at the probe alone
        predicted = np.abs(f0.values[i, j] * np.exp(-0.5 * times**2 * rates[i, j]))
        errs = np.array([e[i, j] for e in ensemble.stderr[1:]])
        tables[f"decay_probe_{idx}"] = {
            "t": times, "abs_f": mags, "predicted": predicted, "stderr": errs
        }
        if i == j:
            flat = float(np.abs(mags - ref).max())
            report.add_check(f"diagonal_probe_{idx}_flat", flat, 1e-12)
            continue
        rate = 0.5 * rates[i, j]
        # transport is frozen, so |<f>| = |f0| |1 + shift| for any V
        if ref > 0 and rate > 0:
            fitted = fit_decay_exponent(times, mags, ref, errs)
            ratio = fitted / rate
            report.metrics[f"probe_{idx}_fit_ratio"] = ratio
            report.add_check(
                f"probe_{idx}_fit_error", abs(ratio - 1.0), DECAY_FIT_TOL
            )
            stepper_mags = np.array(
                [abs(s.values[i, j]) for s in dissipative.states[1:]]
            )
            report.add_check(
                f"probe_{idx}_stepper_vs_closed_form",
                float(np.abs(stepper_mags - predicted).max()),
                1e-8,
            )

    return report, {"tables": tables}


def run_void_study(dr, rho=1.0, duration=1.0, geometry="ball_times_interval",
                   trials=100_000, seed=0):
    """Empirical emptiness against both analytic forms."""
    region = SprinkleRegion(dr, duration=duration, geometry=geometry, rho=rho)
    estimate = void_probability_mc(region, trials, seed)
    report = RunReport(
        study="void",
        scenario_hash=(f"dr={dr!r},rho={rho!r},duration={duration!r},"
                       f"trials={trials!r},geometry={geometry}"),
        seeds={"sprinkle": seed},
    )
    # the estimated binomial width collapses when no trial is empty; fall
    # back on the width implied by the exact law
    exact = estimate.analytic_exact
    floor = np.sqrt(exact * (1.0 - exact) / trials)
    tol = 3.0 * max(estimate.stderr, floor, 1e-12)
    report.metrics.update(
        {
            "analytic_bare": estimate.analytic_bare,
            "analytic_exact": estimate.analytic_exact,
            "empirical": estimate.empirical,
            "stderr": estimate.stderr,
        }
    )
    report.add_check(
        "empirical_vs_exact",
        abs(estimate.empirical - estimate.analytic_exact),
        tol,
    )
    table = {
        "dr": [float(dr)],
        "rho": [float(rho)],
        "trials": [estimate.n_trials],
        "bare": [estimate.analytic_bare],
        "exact": [estimate.analytic_exact],
        "empirical": [estimate.empirical],
        "stderr": [estimate.stderr],
    }
    return report, {"tables": {"void": table}}


def run_segment_checks(scenario: Scenario, n_pairs=1000, seed=0):
    """``segment_sum`` against v(Q) - v(q) at random pairs, V made piecewise linear."""
    if n_pairs < 1:
        raise ConfigError("need at least one pair")
    grid = scenario.build_grid()
    v = scenario.build_potential()
    if not isinstance(v, PiecewiseLinear):
        v = linearize(v, grid.half_width / 25.0, (-grid.half_width, grid.half_width))
    rng = stream(seed)
    lo, hi = v.breakpoints[0], v.breakpoints[-1]
    worst = 0.0
    for _ in range(n_pairs):
        q, Q = rng.uniform(lo, hi, size=2)
        got = segment_sum(v, q, Q)
        want = float(v.value(Q) - v.value(q))
        worst = max(worst, abs(got - want))
    report = RunReport(
        study="segcheck",
        scenario_hash=scenario.content_hash,
        seeds={"pairs": seed},
    )
    report.metrics["n_pairs"] = n_pairs
    report.add_check("segment_sum_identity", worst, SEGMENT_TOL)
    return report, {}


def run_spectrum_study(scenario: Scenario):
    """Dense-generator eigenvalues; like ``run_evolve_study``, no checks."""
    grid = scenario.build_grid()
    v = scenario.build_potential()
    try:
        _, eigenvalues = dense_generator(v, grid)
    except DomainError as exc:
        raise ConfigError(f"grid.n = {grid.n_points}: {exc}") from exc
    report = RunReport(
        study="spectrum",
        scenario_hash=scenario.content_hash,
        seeds={},
    )
    report.metrics["n_eigenvalues"] = int(eigenvalues.size)
    table = {"index": range(eigenvalues.size), "eigenvalue": eigenvalues}
    return report, {"tables": {"spectrum": table}}


# ---------------------------------------------------------------------------
# output emission


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_outputs(report: RunReport, curves: dict, outdir) -> list:
    """Write ``summary.json``, the tables, the snapshots and ``index.txt``.

    Each ``curves["tables"]`` entry ``stem: {column: values}`` becomes
    ``<stem>.csv`` (header row of column names, then every column) and
    the gnuplot file ``<stem>.dat`` (its first two columns); each
    ``curves["snapshots"]`` entry ``stem: state`` becomes ``<stem>.csv``
    through :func:`save_state`.  Returns the written paths, sorted.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str):
        path = outdir / name
        path.write_text(text)
        written.append(name)

    summary = {
        "study": report.study,
        "scenario_hash": report.scenario_hash,
        "seeds": report.seeds,
        "passed": report.passed,
        "metrics": {k: _json_safe(v) for k, v in report.metrics.items()},
        "checks": {
            name: {
                "passed": c.passed,
                "threshold": c.threshold,
                "observed": c.observed,
                "comparison": c.comparison,
            }
            for name, c in report.checks.items()
        },
    }
    emit("summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for stem, table in curves.get("tables", {}).items():
        header = ",".join(table)
        rows = list(zip(*([_fmt(v) for v in col] for col in table.values())))
        emit(f"{stem}.csv", "\n".join([header] + [",".join(r) for r in rows]) + "\n")
        emit(f"{stem}.dat", "\n".join(f"{r[0]} {r[1]}" for r in rows) + "\n")

    for stem, state in curves.get("snapshots", {}).items():
        save_state(state, outdir / f"{stem}.csv")
        written.append(f"{stem}.csv")

    emit("index.txt", "\n".join(sorted(written + ["index.txt"])) + "\n")
    return [outdir / name for name in sorted(written)]


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value
