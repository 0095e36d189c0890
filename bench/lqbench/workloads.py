"""The four study workloads and one timed iteration of each.

An iteration is what ``liouq compare`` / ``decohere`` / ``void`` does
minus argparse: load the scenario (or build the void region), run the
study, and emit its outputs into a fresh directory.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from liouq import Scenario, SprinkleRegion, load_scenario, studies, superoperator_field, xp_to_Qq

# Seeded workloads map the --seed argument onto this many program seeds,
# each with a recorded reference payload (see capture_reference.py).
REFERENCE_SEEDS = 16

VOID_DR = 0.5
VOID_TRIALS = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    study: str  # "compare", "decohere" or "void"
    scenario: str | None
    work_unit: str  # what work_per_s counts
    overrides: dict = field(default_factory=dict)

    @property
    def seeded(self) -> bool:
        return self.study != "compare"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-quartic",
            "compare",
            "scenarios/quartic_divergence.cfg",
            "engine-steps",
        ),
        Workload(
            "compare-harmonic",
            "compare",
            "scenarios/harmonic_equivalence.cfg",
            "engine-steps",
            # the first of the scenario's four 1570-step record intervals
            overrides={"evolve.t_final": 1.57},
        ),
        Workload(
            "decohere-quenched",
            "decohere",
            "scenarios/cat_decoherence.cfg",
            "realizations",
            overrides={"ensemble.realizations": 1000},
        ),
        Workload(
            "void-mc",
            "void",
            None,
            "trials",
        ),
    )
}


def load(workload: Workload, seed: int, root: Path, recorder=None) -> Scenario:
    recorder = recorder or NULL_RECORDER
    with recorder.span("scenario.load_scenario"):
        scenario = load_scenario(root / workload.scenario)
    settings = {**scenario.settings, **workload.overrides}
    if workload.seeded:
        settings["noise.seed"] = seed
    return Scenario(settings)


def prepare(workload: Workload, seed: int, root: Path):
    """Build every input a study needs; what set-up costs a CLI user."""
    if workload.study == "void":
        return SprinkleRegion(VOID_DR)
    scenario = load(workload, seed, root)
    grid = scenario.build_grid()
    v = scenario.build_potential()
    cfg = scenario.build_evolver_config()
    if workload.study == "compare":
        f0 = xp_to_Qq(scenario.build_initial_xp())
        return grid, v, cfg, f0, superoperator_field(v, grid)
    return grid, v, cfg, scenario.build_initial_density(), scenario.build_noise_spec()


@dataclass
class IterationResult:
    report: studies.RunReport
    study_s: float
    work: int  # engine-steps, realizations or trials completed
    n_steps: int  # steps per engine run (0 for void)
    include_kinetic: bool


def run_iteration(
    workload: Workload, seed: int, root: Path, outdir: Path, recorder=None
) -> IterationResult:
    """Run one study end to end and emit its outputs into ``outdir``.

    ``seed`` is the program seed: ``noise.seed`` or the sprinkle seed.
    """
    recorder = recorder or NULL_RECORDER
    start = time.perf_counter()
    with recorder.span("iteration"):
        if workload.study == "void":
            with recorder.span("studies.run_void_study"):
                report, curves = studies.run_void_study(
                    VOID_DR, trials=VOID_TRIALS, seed=seed
                )
            work, n_steps, kinetic = VOID_TRIALS, 0, False
        else:
            scenario = load(workload, seed, root, recorder)
            if workload.study == "compare":
                with recorder.span("studies.run_equivalence_study"):
                    report, curves = studies.run_equivalence_study(scenario)
            else:
                with recorder.span("studies.run_decoherence_study"):
                    report, curves = studies.run_decoherence_study(scenario)
            cfg = scenario.build_evolver_config()
            n_steps, kinetic = cfg.n_steps, cfg.include_kinetic
            if workload.study == "compare":
                work = 3 * n_steps
            else:
                work = scenario["ensemble.realizations"]
        with recorder.span("studies.emit_outputs"):
            studies.emit_outputs(report, curves, outdir)
    elapsed = time.perf_counter() - start
    return IterationResult(report, elapsed, work, n_steps, kinetic)


class _NullRecorder:
    def span(self, name):
        return nullcontext()


NULL_RECORDER = _NullRecorder()
