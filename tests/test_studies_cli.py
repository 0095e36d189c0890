"""Study pipelines, output files, CLI subcommands and exit codes."""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from liouq import evolvers, studies
from liouq import (
    RunReport,
    decay_predict,
    emit_outputs,
    run_decoherence_study,
    run_equivalence_study,
    run_evolve_study,
    run_segment_checks,
    run_spectrum_study,
    run_void_study,
    scenario_from_text,
)
from liouq.cli import main
from liouq.errors import BoundaryContaminationError
from liouq.evolvers import TimeStepWarning
from liouq.grids import xp_to_Qq

SHIPPED_QUARTIC = (
    Path(__file__).resolve().parents[1] / "scenarios" / "quartic_divergence.cfg"
).read_text()

HARMONIC = """
grid.n = 64
grid.L = 8.0
potential.kind = harmonic
potential.params.omega = 1.0
state.x0 = 0.4
evolve.dt = 0.002
evolve.t_final = 0.5
evolve.record_every = 50
"""

QUARTIC = """
grid.n = 64
grid.L = 8.0
potential.kind = quartic
potential.params.lam = 0.25
state.x0 = 0.4
state.sigma_x = 0.6
state.sigma_p = 0.8333333333333334
evolve.dt = 0.002
evolve.t_final = 1.5
evolve.record_every = 125
evolve.tail_threshold = 1e-3
"""

SPEC = "grid.n = 16\ngrid.L = 6.0\npotential.kind = harmonic\npotential.params.omega = 1.0\n"

CAT = """
grid.n = 64
grid.L = 10.0
potential.kind = constant
potential.params.c = 0.0
state.kind = cat
state.separation = 4.0
state.sigma_x = 0.7
evolve.dt = 0.05
evolve.t_final = 1.0
evolve.record_every = 4
noise.nu0 = 1.0
noise.seed = 42
ensemble.realizations = 400
"""


def test_equivalence_study_harmonic_passes():
    report, curves = run_equivalence_study(scenario_from_text(HARMONIC))
    assert report.passed
    assert report.checks["pairwise_distance"].observed <= 1e-6
    assert set(curves["tables"]) == {
        "distance_classical_vs_vonneumann",
        "distance_classical_vs_qq",
        "distance_qq_vs_vonneumann",
    }


def test_equivalence_study_linear_passes():
    # free-fall spreads coherences ballistically; the density-grid frame
    # sees the packet's edge amplitude, so the monitor gets headroom
    linear = HARMONIC.replace(
        "potential.kind = harmonic\npotential.params.omega = 1.0",
        "potential.kind = linear\npotential.params.a = 1.0\npotential.params.b = 0.5",
    ) + "evolve.tail_threshold = 1e-6\n"
    report, _ = run_equivalence_study(scenario_from_text(linear))
    assert report.passed


def test_equivalence_study_quartic_records_divergence():
    report, curves = run_equivalence_study(scenario_from_text(QUARTIC))
    assert report.metrics["divergence_expected"] is True
    assert report.checks["divergence_at_t1"].passed
    assert report.checks["divergence_monotone"].passed
    tables = curves["tables"]
    assert tables["distance_classical_vs_vonneumann"]["maxnorm"][-1] >= 1e-3
    # the coupled engine diverges from the commutator-only one the same way
    assert tables["distance_qq_vs_vonneumann"]["maxnorm"][-1] >= 1e-3
    # and itself keeps tracking the transformed classical trajectory
    assert tables["distance_classical_vs_qq"]["maxnorm"][-1] <= 1e-2
    assert report.checks["classical_vs_qq_identity"].passed
    assert "classical_vs_qq_identity" not in run_equivalence_study(
        scenario_from_text(HARMONIC)
    )[0].checks


QUARTIC_SHORT = QUARTIC.replace("evolve.t_final = 1.5", "evolve.t_final = 0.25").replace(
    "evolve.record_every = 125", "evolve.record_every = 50"
)


def test_identity_check_fails_when_qq_drops_the_coupling_field(monkeypatch):
    scenario = scenario_from_text(QUARTIC_SHORT)
    report, _ = run_equivalence_study(scenario)
    assert report.checks["classical_vs_qq_identity"].observed <= 1e-2
    monkeypatch.setattr(studies, "qq_liouville_evolve", studies.von_neumann_evolve)
    report, _ = run_equivalence_study(scenario)
    check = report.checks["classical_vs_qq_identity"]
    assert not check.passed
    assert check.observed == 1.0


@pytest.mark.parametrize("text", [QUARTIC_SHORT, HARMONIC], ids=["quartic", "harmonic"])
def test_concurrent_engines_match_a_sequential_run_bit_for_bit(monkeypatch, text):
    scenario = scenario_from_text(text)
    v = scenario.build_potential()
    cfg = scenario.build_evolver_config()
    f0_xp = scenario.build_initial_xp()
    f0_qq = xp_to_Qq(f0_xp)
    reference = {
        "classical": studies.liouville_evolve_xp(f0_xp, v, cfg),
        "vonneumann": studies.von_neumann_evolve(f0_qq, v, cfg),
        "qq": studies.qq_liouville_evolve(f0_qq, v, cfg),
    }

    seen = {}

    def recording(name, engine):
        def run(*args):
            seen[name] = engine(*args)
            return seen[name]
        return run

    for name, attr in [("classical", "liouville_evolve_xp"),
                       ("vonneumann", "von_neumann_evolve"),
                       ("qq", "qq_liouville_evolve")]:
        monkeypatch.setattr(studies, attr, recording(name, getattr(studies, attr)))
    _, curves = run_equivalence_study(scenario)

    for name, ref in reference.items():
        assert seen[name].times == ref.times
        assert len(seen[name].states) == len(ref.states)
        for got, want in zip(seen[name].states, ref.states):
            assert np.array_equal(got.values, want.values)
        assert np.array_equal(
            curves["snapshots"][f"state_{name}_final"].values, ref.states[-1].values
        )
    spacing = scenario.build_grid().spacing
    classical_qq = [xp_to_Qq(s).values for s in reference["classical"].states]
    for pair, (seq_a, seq_b) in {
        "classical_vs_vonneumann": (classical_qq, reference["vonneumann"].states),
        "classical_vs_qq": (classical_qq, reference["qq"].states),
        "qq_vs_vonneumann": (
            [s.values for s in reference["qq"].states], reference["vonneumann"].states
        ),
    }.items():
        rows = [studies._pairwise_distance(a, b.values, spacing)
                for a, b in zip(seq_a, seq_b)]
        table = curves["tables"][f"distance_{pair}"]
        assert table["t"] == reference["classical"].times
        assert np.array_equal(table["maxnorm"], [r[0] for r in rows])
        assert np.array_equal(table["l2"], [r[1] for r in rows])


def test_classical_abort_wins_and_no_thread_is_left():
    # run alone, the classical engine aborts at step 764, the qq engine at
    # step 1024, and the von Neumann engine finishes
    aborting = SHIPPED_QUARTIC.replace(
        "evolve.tail_threshold = 1e-3", "evolve.tail_threshold = 1e-8"
    ).replace("evolve.t_final = 1.5", "evolve.t_final = 1.05")
    before = threading.active_count()
    run_equivalence_study(scenario_from_text(QUARTIC_SHORT))
    assert threading.active_count() == before
    with pytest.raises(BoundaryContaminationError, match="at step 764$") as info:
        run_equivalence_study(scenario_from_text(aborting))
    assert info.value.step == 764
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "engine, reads_after_abort",
    # QUARTIC records every 125 steps.  The von Neumann engine takes the
    # dense path and polls at its first stop, before reading the tail
    # there; the qq engine's monitor reads once a step, the frame between
    # records and the exact fraction at a record, and polls at records.
    [("von_neumann_evolve", 0), ("qq_liouville_evolve", 125)],
    ids=["dense_path", "stepped_kernel"],
)
def test_density_engines_stop_at_their_next_record_after_a_classical_abort(
    monkeypatch, engine, reads_after_abort
):
    caller = threading.get_ident()
    in_engine = threading.Event()
    held, reads = [], []
    real_read, real_engine = evolvers.boundary_fraction, getattr(studies, engine)
    real_frame = evolvers.boundary_frame

    def read(values):
        if threading.get_ident() == caller and in_engine.is_set():
            if held:
                reads.append("exact")
            else:  # hold the engine at its initial read until the abort is in
                held.append(evolvers._STOP.get().wait(timeout=60))
        return real_read(values)

    def frame(values):
        if threading.get_ident() == caller and in_engine.is_set():
            reads.append("frame")
        return real_frame(values)

    def started(*args):
        in_engine.set()
        return real_engine(*args)

    def classical(*args):
        in_engine.wait(timeout=60)
        raise BoundaryContaminationError(1, 1.0, 0.5)

    monkeypatch.setattr(evolvers, "boundary_fraction", read)
    monkeypatch.setattr(evolvers, "boundary_frame", frame)
    monkeypatch.setattr(studies, engine, started)
    monkeypatch.setattr(studies, "liouville_evolve_xp", classical)
    before = threading.active_count()
    with pytest.raises(BoundaryContaminationError, match="at step 1$"):
        run_equivalence_study(scenario_from_text(QUARTIC))
    assert held == [True]
    assert len(reads) == reads_after_abort
    assert reads.count("exact") == min(reads_after_abort, 1)
    assert threading.active_count() == before


def test_dt_guard_warns_once_naming_the_caller():
    # spacing 20/128 puts the guard at 0.1 * spacing**2 = 2.44e-3
    coarse = SHIPPED_QUARTIC.replace("evolve.dt = 0.001", "evolve.dt = 0.004").replace(
        "evolve.t_final = 1.5", "evolve.t_final = 0.2"
    )
    with pytest.warns(TimeStepWarning) as record:
        run_equivalence_study(scenario_from_text(coarse))
    assert len(record) == 1
    assert record[0].filename == __file__


def test_decoherence_study_passes():
    scenario = scenario_from_text(CAT)
    report, curves = run_decoherence_study(scenario)
    assert report.passed
    assert abs(report.metrics["probe_0_fit_ratio"] - 1.0) <= 0.05
    probe = curves["tables"]["decay_probe_0"]
    assert len(probe["t"]) == len(probe["abs_f"]) == len(probe["stderr"])
    # the law evaluated at the probes alone is decay_predict's, bit for bit
    f0, spec = scenario.build_initial_density(), scenario.build_noise_spec()
    for idx, (i, j) in enumerate(studies._default_probes(scenario, f0.grid)):
        table = curves["tables"][f"decay_probe_{idx}"]
        law = [abs(decay_predict(f0, spec, t).values[i, j]) for t in table["t"]]
        assert np.array_equal(table["predicted"], law)


def test_decoherence_fit_checks_run_for_any_potential():
    # transport is frozen, so a potential only turns the phase: |<f>| and
    # the fitted rate are those of the flat cat
    harmonic = CAT_50.replace(
        "potential.kind = constant\npotential.params.c = 0.0",
        "potential.kind = harmonic\npotential.params.omega = 1.0",
    )
    assert harmonic != CAT_50
    flat, _ = run_decoherence_study(scenario_from_text(CAT_50))
    report, _ = run_decoherence_study(scenario_from_text(harmonic))
    assert {"probe_0_fit_error", "probe_0_stepper_vs_closed_form"} <= set(report.checks)
    assert abs(
        report.metrics["probe_0_fit_ratio"] - flat.metrics["probe_0_fit_ratio"]
    ) <= 1e-12


def test_decoherence_zero_noise_no_decay():
    scenario = scenario_from_text(
        CAT.replace("noise.nu0 = 1.0", "noise.nu0 = 0.0")
        .replace("ensemble.realizations = 400", "ensemble.realizations = 3")
    )
    report, curves = run_decoherence_study(scenario)
    probe = curves["tables"]["decay_probe_0"]
    assert abs(probe["abs_f"][-1] - probe["abs_f"][0]) <= 1e-10


def test_evolve_and_equivalence_report_the_same_drift():
    scenario = scenario_from_text(HARMONIC)
    evolved, _ = run_evolve_study(scenario)
    compared, _ = run_equivalence_study(scenario)
    for name in ("trace_drift", "hermiticity_drift"):
        assert evolved.metrics[name] == compared.metrics[name]
        assert compared.checks[name].observed == compared.metrics[name]


def test_void_study():
    report, curves = run_void_study(0.5, trials=5000, seed=9)
    assert report.passed
    assert report.metrics["analytic_bare"] == pytest.approx(np.exp(-0.125))


def test_segment_checks():
    scenario = scenario_from_text(
        "grid.n = 64\ngrid.L = 8.0\npotential.kind = quartic\n"
        "potential.params.lam = 1.0\npotential.delta = 0.25\n"
    )
    report, _ = run_segment_checks(scenario, n_pairs=200, seed=1)
    assert report.passed


def test_spectrum_study():
    scenario = scenario_from_text(
        "grid.n = 16\ngrid.L = 6.0\npotential.kind = quartic\npotential.params.lam = 1.0\n"
    )
    report, curves = run_spectrum_study(scenario)
    assert report.passed
    assert curves["tables"]["spectrum"]["eigenvalue"].size == 256


def test_emit_outputs_contracts(tmp_path):
    report, curves = run_equivalence_study(scenario_from_text(HARMONIC))
    files = emit_outputs(report, curves, tmp_path)
    names = {f.name for f in files}
    assert "summary.json" in names
    assert "distance_classical_vs_vonneumann.csv" in names
    csv = (tmp_path / "distance_classical_vs_vonneumann.csv").read_text()
    assert csv.splitlines()[0] == "t,maxnorm,l2"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    for check in summary["checks"].values():
        assert {"passed", "threshold", "observed", "comparison"} <= set(check)
    index = (tmp_path / "index.txt").read_text().split()
    assert "summary.json" in index and "index.txt" in index
    # every subcommand writes exactly the files its index lists
    write(tmp_path, HARMONIC, "harmonic.cfg")
    write(tmp_path, CAT, "cat.cfg")
    write(tmp_path, SPEC, "spec.cfg")
    for command, args in SHORT_RUNS.items():
        out = tmp_path / command
        args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
        # tiny ensembles may miss the 5% fit gate
        assert main([command, *args, "--out", str(out)]) in (0, 1)
        listed = (out / "index.txt").read_text().split()
        assert sorted(p.name for p in out.iterdir()) == listed


def test_emit_outputs_writes_any_table(tmp_path):
    report = RunReport(study="any", scenario_hash="h", seeds={})
    emit_outputs(report, {"tables": {"t": {"index": [0, 1], "x": [0.5, 1.5]}}}, tmp_path)
    assert (tmp_path / "t.csv").read_text() == "index,x\n0,0.5\n1,1.5\n"
    assert (tmp_path / "t.dat").read_text() == "0 0.5\n1 1.5\n"
    index = (tmp_path / "index.txt").read_text().split()
    assert index == ["index.txt", "summary.json", "t.csv", "t.dat"]


CAT_50 = CAT.replace("ensemble.realizations = 400", "ensemble.realizations = 50")


def test_decay_csv_header(tmp_path):
    report, curves = run_decoherence_study(scenario_from_text(CAT_50))
    emit_outputs(report, curves, tmp_path)
    text = (tmp_path / "decay_probe_0.csv").read_text()
    assert text.splitlines()[0] == "t,abs_f,predicted,stderr"


def test_outputs_deterministic(tmp_path):
    # one block of realizations, then four: two on each thread
    for text in (CAT_50, CAT):
        scenario = scenario_from_text(text)
        for sub in ("a", "b"):
            report, curves = run_decoherence_study(scenario)
            emit_outputs(report, curves, tmp_path / sub)
        for name in ("summary.json", "decay_probe_0.csv", "decay_probe_1.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


# ---------------------------------------------------------------------------
# CLI


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_compare_pass(tmp_path, capsys):
    rc = main(["compare", "--scenario", write(tmp_path, HARMONIC),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS overall" in out


@pytest.mark.parametrize("engine", ["classical", "qq", "vonneumann"])
def test_cli_evolve_emits_snapshots(tmp_path, engine):
    out = tmp_path / "out"
    rc = main(["evolve", "--scenario", write(tmp_path, HARMONIC),
               "--engine", engine, "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    metrics = summary["metrics"]
    assert metrics["engine"] == engine
    assert summary["checks"] == {}
    if engine == "classical":
        drifts = ("mass_drift",)
    else:
        drifts = ("trace_drift", "hermiticity_drift")
    for name in drifts:
        assert metrics[name] <= 1e-9
    snapshots = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert snapshots == [f"snapshot_{i:04d}.csv" for i in range(len(metrics["times"]))]
    index = (out / "index.txt").read_text().split()
    assert set(snapshots) <= set(index)


def test_cli_decohere(tmp_path):
    rc = main(["decohere", "--scenario", write(tmp_path, CAT),
               "--realizations", "400",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "decay_probe_0.csv").exists()


def test_cli_void(tmp_path):
    rc = main(["void", "--dr", "0.5", "--trials", "2000", "--seed", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    header = (tmp_path / "out" / "void.csv").read_text().splitlines()[0]
    assert header == "dr,rho,trials,bare,exact,empirical,stderr"


def test_cli_void_hash_covers_duration_and_trials(tmp_path):
    hashes = set()
    for args in (["--duration", "1"], ["--duration", "2"], ["--trials", "200"]):
        out = tmp_path / "_".join(args)
        assert main(["void", "--dr", "0.5", *args, "--out", str(out)]) == 0
        hashes.add(json.loads((out / "summary.json").read_text())["scenario_hash"])
    assert len(hashes) == 3


def test_cli_void_mean_count_beyond_poisson_limit(tmp_path, capsys):
    # lambda = rho V4 ~ 1.1e20 is more than numpy's Poisson sampler accepts
    rc = main(["void", "--dr", "3e6", "--trials", "100", "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "runtime error: mean count lambda" in err
    assert "Traceback" not in err


def test_cli_segcheck_and_spectrum(tmp_path):
    seg = write(tmp_path, "grid.n = 64\ngrid.L = 8.0\npotential.kind = quartic\n"
                          "potential.params.lam = 1.0\npotential.delta = 0.25\n",
                "seg.cfg")
    assert main(["segcheck", "--scenario", seg, "--pairs", "200",
                 "--out", str(tmp_path / "segout")]) == 0
    spec = write(tmp_path, SPEC, "spec.cfg")
    assert main(["spectrum", "--scenario", spec,
                 "--out", str(tmp_path / "specout")]) == 0
    assert (tmp_path / "specout" / "spectrum.csv").exists()


def test_cli_spectrum_grid_above_dense_limit_is_config_error(tmp_path, capsys):
    spec = write(tmp_path, "grid.n = 64\ngrid.L = 6.0\npotential.kind = harmonic\n"
                           "potential.params.omega = 1.0\n", "spec.cfg")
    rc = main(["spectrum", "--scenario", spec, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "grid.n = 64" in err and "limit of 32" in err
    assert not (tmp_path / "out").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "grid.n = 64\nbanana = 1\n", "bad.cfg")
    rc = main(["compare", "--scenario", bad, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, args",
    [
        ("void", ["--dr", "-1"]),
        ("void", ["--dr", "0.5", "--rho", "0"]),
        ("void", ["--dr", "0.5", "--duration", "0"]),
        ("void", ["--dr", "0.5", "--trials", "50"]),
        ("decohere", ["--scenario", "cat.cfg", "--realizations", "1"]),
        ("segcheck", ["--scenario", "cat.cfg", "--pairs", "0"]),
        ("segcheck", ["--scenario", "cat.cfg", "--pairs", "-5"]),
    ],
    ids=["dr", "rho", "duration", "trials", "realizations", "no_pairs", "negative_pairs"],
)
def test_cli_bad_option_value_is_config_error(tmp_path, capsys, command, args):
    write(tmp_path, CAT, "cat.cfg")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    rc = main([command, *args, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "Traceback" not in err


# the shipped spectrum_small.cfg: no state key, and the default packet
# does not fit its grid
SPECTRUM_SMALL = (
    "grid.n = 16\ngrid.L = 6.0\npotential.kind = quartic\npotential.params.lam = 1.0\n"
)


@pytest.mark.parametrize(
    "command, text, keys",
    [
        ("evolve", SPECTRUM_SMALL, ("state.sigma_x", "grid.n", "grid.L")),
        ("compare", SPECTRUM_SMALL, ("state.sigma_x", "grid.n", "grid.L")),
        ("decohere", CAT.replace("state.separation = 4.0", "state.separation = 19.0"),
         ("state.separation", "grid.L")),
    ],
    ids=["evolve_gaussian", "compare_gaussian", "decohere_cat"],
)
def test_cli_state_that_does_not_fit_is_config_error(tmp_path, capsys, command, text, keys):
    rc = main([command, "--scenario", write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert all(key in err for key in keys)
    assert not (tmp_path / "out").exists()
    # a study that builds no state still runs on the same file
    if text is SPECTRUM_SMALL:
        assert main(["spectrum", "--scenario", write(tmp_path, text),
                     "--out", str(tmp_path / "specout")]) == 0


def _potential(kind_lines: str, extra: str = "") -> str:
    return HARMONIC.replace(
        "potential.kind = harmonic\npotential.params.omega = 1.0", kind_lines
    ) + extra


LINEAR = "potential.kind = linear\npotential.params.a = 1.0"
PIECEWISE = "potential.kind = piecewise_linear"


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("compare", _potential(LINEAR, "potential.params.a_schedule = [[0.0]]\n"),
         "potential.params.a_schedule"),
        ("compare", _potential(LINEAR, "potential.params.a_schedule = [1.0, 2.0]\n"),
         "potential.params.a_schedule"),
        ("compare", _potential(LINEAR, "potential.params.a_schedule = []\n"),
         "potential.params.a_schedule"),
        ("compare", _potential("potential.kind = polynomial",
                               "potential.coeffs = [[1.0], 2.0]\n"), "potential.coeffs"),
        ("compare", _potential("potential.kind = polynomial", "potential.coeffs = []\n"),
         "potential.coeffs"),
        ("segcheck", HARMONIC + "potential.delta = -1.0\n", "potential.delta"),
        ("segcheck", HARMONIC + "potential.delta = [[0.5, 0.5]]\n", "potential.delta"),
        ("segcheck", HARMONIC + "potential.delta = [[8.0, 8.0]]\n", "potential.delta"),
        ("segcheck", HARMONIC + "potential.delta = [[0.5], 0.5]\n", "potential.delta"),
        ("segcheck", _potential(PIECEWISE, "potential.breakpoints = [[-8.0], 0.0, 8.0]\n"
                                "potential.values = [1.0, 0.0, 1.0]\n"),
         "potential.breakpoints"),
        ("segcheck", _potential(PIECEWISE, "potential.breakpoints = [[-8.0, 0.0, 8.0]]\n"
                                "potential.values = [[1.0, 0.0, 1.0]]\n"),
         "potential.breakpoints"),
    ],
    ids=["schedule_entry_short", "schedule_entry_scalar", "schedule_empty",
         "coeff_list", "coeffs_empty", "delta_negative", "delta_short_nested",
         "delta_covering_nested", "delta_ragged", "breakpoints_ragged",
         "breakpoints_nested"],
)
def test_cli_malformed_potential_is_config_error(tmp_path, capsys, command, text, key):
    # caught at scenario load, before any study starts
    rc = main([command, "--scenario", write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: no valid potential from" in err
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# a quartic run whose packet reaches the box edge within a few steps
EDGE_BOUND = """
grid.n = 64
grid.L = 8.0
potential.kind = quartic
potential.params.lam = 0.25
state.x0 = 2.5
evolve.dt = 0.005
evolve.t_final = 3.0
"""


@pytest.mark.parametrize(
    "command, text",
    [
        ("compare", EDGE_BOUND + "evolve.tail_threshold = NaN\n"),
        ("compare", EDGE_BOUND + "evolve.tail_threshold = 0\n"),
        ("compare", EDGE_BOUND.replace("evolve.dt = 0.005", "evolve.dt = NaN")),
        ("compare", EDGE_BOUND.replace("evolve.dt = 0.005", "evolve.dt = nan")),
        ("compare", EDGE_BOUND.replace("lam = 0.25", "lam = Infinity")),
        ("compare", EDGE_BOUND.replace("grid.n = 64", "grid.n = Infinity")),
        ("compare", EDGE_BOUND.replace("potential.kind = quartic\npotential.params.lam = 0.25",
                                       "potential.kind = polynomial\n"
                                       "potential.coeffs = [0, -Infinity]")),
        ("compare", EDGE_BOUND.replace("potential.kind = quartic\npotential.params.lam = 0.25",
                                       "potential.kind = polynomial\n"
                                       'potential.coeffs = [0, "nan"]')),
        ("decohere", CAT.replace("noise.nu0 = 1.0", "noise.nu0 = -1.0")),
    ],
    ids=["nan_tail", "zero_tail", "nan_dt", "bare_nan_dt", "inf_float", "inf_int",
         "inf_in_list", "string_in_list", "negative_nu0"],
)
def test_cli_non_finite_or_negative_value_is_config_error(tmp_path, capsys, command, text):
    rc = main([command, "--scenario", write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_edge_bound_run_aborts_on_the_tail(tmp_path, capsys):
    # the run the threshold cases above would otherwise start
    rc = main(["compare", "--scenario", write(tmp_path, EDGE_BOUND),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "runtime error:" in err
    assert "boundary tail fraction" in err


def test_cli_seed_rejected_where_unused(tmp_path):
    # compare, evolve and spectrum draw no random numbers
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", write(tmp_path, HARMONIC), "--seed", "3",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_decohere_with_the_retired_kinetic_key_is_config_error(tmp_path, capsys):
    # the decoherence study freezes transport itself, so no scenario key sets it
    text = CAT + "evolve.include_kinetic = false\n"
    rc = main(["decohere", "--scenario", write(tmp_path, text),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "evolve.include_kinetic" in err
    assert not (tmp_path / "out").exists()


def test_cli_decohere_without_a_potential_is_config_error(tmp_path, capsys):
    # decohere builds V like every other study: no silent zero potential
    text = CAT.replace("potential.kind = constant\npotential.params.c = 0.0\n", "")
    assert text != CAT
    rc = main(["decohere", "--scenario", write(tmp_path, text),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "potential.kind is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


KINKED = {
    "piecewise_linear": HARMONIC.replace(
        "potential.kind = harmonic\npotential.params.omega = 1.0",
        "potential.kind = piecewise_linear\n"
        "potential.breakpoints = [-8.0, 0.0, 8.0]\npotential.values = [32.0, 0.0, 32.0]",
    ),
    "delta": HARMONIC + "potential.delta = 0.25\n",
}


@pytest.mark.parametrize("spelling", list(KINKED))
@pytest.mark.parametrize("command", ["compare", "evolve"])
def test_cli_stepping_a_piecewise_linear_potential_is_config_error(
    tmp_path, capsys, command, spelling
):
    # its force is a step function, which no stepping run on the shipped
    # grids survived; segcheck and spectrum step nothing and accept it
    assert KINKED[spelling] != HARMONIC
    rc = main([command, "--scenario", write(tmp_path, KINKED[spelling]),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "discontinuous force" in err
    assert not (tmp_path / "out").exists()


def test_cli_decohere_has_no_mode_option(tmp_path):
    # quenched noise is the only model, so decohere has no option to choose one
    with pytest.raises(SystemExit) as exc:
        main(["decohere", "--scenario", write(tmp_path, CAT), "--mode", "quenched",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    missing = str(tmp_path / "does_not_exist.cfg")
    rc = main(["compare", "--scenario", missing, "--out", str(tmp_path / "out")])
    assert rc == 3


SHORT_RUNS = {
    "evolve": ["--scenario", "harmonic.cfg"],
    "compare": ["--scenario", "harmonic.cfg"],
    "decohere": ["--scenario", "cat.cfg", "--realizations", "20"],
    "void": ["--dr", "0.5", "--trials", "200"],
    "segcheck": ["--scenario", "harmonic.cfg", "--pairs", "20"],
    "spectrum": ["--scenario", "spec.cfg"],
}


@pytest.mark.parametrize("command", list(SHORT_RUNS))
def test_cli_output_error_exit_code(tmp_path, capsys, command):
    # the output directory cannot be made: its parent is a regular file
    write(tmp_path, HARMONIC, "harmonic.cfg")
    write(tmp_path, CAT, "cat.cfg")
    write(tmp_path, SPEC, "spec.cfg")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in SHORT_RUNS[command]]
    rc = main([command, *args, "--out", str(blocker / "out")])
    assert rc == 3
    assert "runtime error:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["void", "segcheck", "decohere"])
def test_cli_seed_out_of_range(tmp_path, capsys, command, seed):
    # a seed is one 64-bit Philox key word
    write(tmp_path, HARMONIC, "harmonic.cfg")
    write(tmp_path, CAT, "cat.cfg")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in SHORT_RUNS[command]]
    rc = main([command, *args, f"--seed={seed}", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err


def test_cli_scientific_fail_exit_code(tmp_path):
    # quartic run too short to reach the divergence window: the
    # monotone-growth check cannot be satisfied and the study fails
    short = QUARTIC.replace("evolve.t_final = 1.5", "evolve.t_final = 0.1").replace(
        "evolve.record_every = 125", "evolve.record_every = 25"
    )
    rc = main(["compare", "--scenario", write(tmp_path, short, "short.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 1


def test_cli_output_dir_from_scenario(tmp_path):
    target = tmp_path / "from_scenario"
    text = HARMONIC + f'output.dir = "{target}"\n'
    rc = main(["compare", "--scenario", write(tmp_path, text, "odir.cfg")])
    assert rc == 0
    assert (target / "summary.json").exists()


def test_cli_seed_override_changes_noise(tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        rc = main(["decohere", "--scenario", write(tmp_path, CAT),
                   "--realizations", "20", "--seed", seed, "--out", str(out)])
        assert rc in (0, 1)  # tiny ensembles may miss the 5% fit gate
        outs.append((out / "decay_probe_0.csv").read_bytes())
    assert outs[0] != outs[1]
    summary = json.loads((tmp_path / "seed1" / "summary.json").read_text())
    assert summary["seeds"]["noise"] == 1


def test_cli_realizations_override_changes_hash(tmp_path):
    hashes = []
    for m in ("20", "40"):
        out = tmp_path / f"m{m}"
        rc = main(["decohere", "--scenario", write(tmp_path, CAT),
                   "--realizations", m, "--out", str(out)])
        assert rc in (0, 1)  # tiny ensembles may miss the 5% fit gate
        hashes.append(json.loads((out / "summary.json").read_text())["scenario_hash"])
    assert hashes[0] != hashes[1]


def test_cli_engine_override_changes_hash(tmp_path):
    # --engine overrides evolve.engine, so the hash covers it; naming the
    # scenario's own engine changes nothing
    hashes = {}
    for engine in ("classical", "qq", "vonneumann", None):
        out = tmp_path / f"{engine}"
        extra = ["--engine", engine] if engine else []
        rc = main(["evolve", "--scenario", write(tmp_path, HARMONIC),
                   "--out", str(out), *extra])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["engine"] == (engine or "vonneumann")
        hashes[engine] = summary["scenario_hash"]
    assert len({hashes["classical"], hashes["qq"], hashes["vonneumann"]}) == 3
    assert hashes[None] == hashes["vonneumann"]
