"""Command-line interface.

Subcommands: evolve, compare, decohere, void, segcheck, spectrum.
Exit codes: 0 all checks pass, 1 scientific failure, 2 configuration
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time as _time
from pathlib import Path

from . import studies
from .errors import ConfigError, LiouqError
from .evolvers import liouville_evolve_xp, qq_liouville_evolve, von_neumann_evolve
from .grids import save_state
from .potentials import superoperator_field
from .scenario import load_scenario


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output directory (default: scenario output.dir "
                             "or ./liouq_out)")

    # only the randomized studies take a seed
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="override scenario seed")

    parser = argparse.ArgumentParser(
        prog="liouq",
        description="ensemble-dynamics laboratory: evolution engines, "
        "decoherence studies, void statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", parents=[common],
                            help="run one engine, emit snapshots")
    evolve.add_argument("--scenario", required=True)
    evolve.add_argument("--engine", choices=("classical", "qq", "vonneumann"))

    compare = sub.add_parser("compare", parents=[common],
                             help="equivalence study across engines")
    compare.add_argument("--scenario", required=True)

    decohere = sub.add_parser("decohere", parents=[common, seeded],
                              help="noisy ensemble vs dissipative stepper")
    decohere.add_argument("--scenario", required=True)
    decohere.add_argument("--realizations", type=int)
    decohere.add_argument("--mode", choices=("quenched", "resampled"))

    void = sub.add_parser("void", parents=[common, seeded],
                          help="sprinkled-void emptiness statistics")
    void.add_argument("--dr", type=float, required=True)
    void.add_argument("--rho", type=float, default=1.0)
    void.add_argument("--duration", type=float, default=1.0)
    void.add_argument("--geometry", choices=("ball_times_interval", "box"),
                      default="ball_times_interval")
    void.add_argument("--trials", type=int, default=100_000)

    segcheck = sub.add_parser("segcheck", parents=[common, seeded],
                              help="piecewise-linear identity checks")
    segcheck.add_argument("--scenario", required=True)
    segcheck.add_argument("--pairs", type=int, default=1000)

    spectrum = sub.add_parser("spectrum", parents=[common],
                              help="dense generator eigenvalues")
    spectrum.add_argument("--scenario", required=True)

    return parser


def _print_report(report) -> None:
    for name, check in report.checks.items():
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"{verdict} {name}: observed {check.observed:.6g} "
            f"{check.comparison} threshold {check.threshold:.6g}"
        )
    print(f"{'PASS' if report.passed else 'FAIL'} overall ({report.study}), "
          f"wall time {report.wall_time:.2f} s")


def _run_evolve(args, outdir: Path) -> int:
    scenario = load_scenario(args.scenario)
    engine = args.engine or scenario["evolve.engine"]
    cfg = scenario.build_evolver_config()
    v = scenario.build_potential()
    started = _time.perf_counter()
    if engine == "classical":
        traj = liouville_evolve_xp(scenario.build_initial_xp(), v, cfg)
        drift_key, drift0 = "mass", traj.diagnostics[0]["mass"]
        drift = max(abs(d["mass"] - drift0) for d in traj.diagnostics)
        herm = 0.0
    else:
        f0 = scenario.build_initial_density()
        if engine == "qq":
            field = superoperator_field(v, scenario.build_grid())
            traj = qq_liouville_evolve(f0, v, field, cfg)
        else:
            traj = von_neumann_evolve(f0, v, cfg)
        drift_key = "trace"
        drift0 = traj.diagnostics[0]["trace"].real
        drift = max(abs(d["trace"].real - drift0) for d in traj.diagnostics)
        herm = max(d["hermiticity_defect"] for d in traj.diagnostics)
    wall = _time.perf_counter() - started

    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for idx, state in enumerate(traj.states):
        name = f"snapshot_{idx:04d}.csv"
        save_state(state, outdir / name)
        written.append(name)
    summary = {
        "engine": engine,
        "scenario_hash": scenario.content_hash,
        f"{drift_key}_drift": drift,
        "hermiticity_drift": herm,
        "wall_time_s": wall,
        "times": traj.times,
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    written.append("summary.json")
    (outdir / "index.txt").write_text("\n".join(sorted(written + ["index.txt"])) + "\n")
    print(f"engine {engine}: {len(traj.states)} snapshots, "
          f"{drift_key} drift {drift:.3e}, wall time {wall:.2f} s")
    return 0


def _resolve_outdir(args, scenario=None) -> Path:
    # an explicit --out wins over the scenario's output.dir
    if args.out is not None:
        return Path(args.out)
    if scenario is not None and scenario["output.dir"]:
        return Path(scenario["output.dir"])
    return Path("liouq_out")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    outdir = _resolve_outdir(args)

    try:
        if args.command == "evolve":
            return _run_evolve(args, _resolve_outdir(args, load_scenario(args.scenario)))
        if args.command == "compare":
            scenario = load_scenario(args.scenario)
            outdir = _resolve_outdir(args, scenario)
            report, curves = studies.run_equivalence_study(scenario)
        elif args.command == "decohere":
            scenario = load_scenario(args.scenario)
            outdir = _resolve_outdir(args, scenario)
            if args.seed is not None:
                settings = dict(scenario.settings)
                settings["noise.seed"] = args.seed
                scenario = type(scenario)(settings)
            report, curves = studies.run_decoherence_study(
                scenario, realizations=args.realizations, mode=args.mode
            )
        elif args.command == "void":
            report, curves = studies.run_void_study(
                args.dr,
                rho=args.rho,
                duration=args.duration,
                geometry=args.geometry,
                trials=args.trials,
                seed=args.seed if args.seed is not None else 0,
            )
        elif args.command == "segcheck":
            scenario = load_scenario(args.scenario)
            outdir = _resolve_outdir(args, scenario)
            report, curves = studies.run_segment_checks(
                scenario,
                n_pairs=args.pairs,
                seed=args.seed if args.seed is not None else 0,
            )
        elif args.command == "spectrum":
            scenario = load_scenario(args.scenario)
            outdir = _resolve_outdir(args, scenario)
            report, curves = studies.run_spectrum_study(scenario)
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (LiouqError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    studies.emit_outputs(report, curves, outdir)
    _print_report(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
