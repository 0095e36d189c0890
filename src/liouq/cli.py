"""Command-line interface.

Subcommands: evolve, compare, decohere, void, segcheck, spectrum.  Each
one parses its arguments, runs one study from :mod:`liouq.studies`, has
:func:`liouq.studies.emit_outputs` write its files, and prints the
report.
Exit codes: 0 all checks pass, 1 scientific failure, 2 configuration
error, 3 runtime error (output files included).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import studies
from .errors import ConfigError, LiouqError
from .scenario import Scenario, load_scenario


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
                              help="noisy ensemble vs dissipative evolution")
    decohere.add_argument("--scenario", required=True)
    decohere.add_argument("--realizations", type=int)

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


def _print_report(report, wall_time: float) -> None:
    for name, check in report.checks.items():
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"{verdict} {name}: observed {check.observed:.6g} "
            f"{check.comparison} threshold {check.threshold:.6g}"
        )
    print(f"{'PASS' if report.passed else 'FAIL'} overall ({report.study}), "
          f"wall time {wall_time:.2f} s")


def _resolve_outdir(args, scenario) -> Path:
    # an explicit --out wins over the scenario's output.dir
    if args.out is not None:
        return Path(args.out)
    if scenario is not None and scenario["output.dir"]:
        return Path(scenario["output.dir"])
    return Path("liouq_out")


def _run_study(args, scenario):
    if args.command in ("evolve", "decohere"):
        # each option given overrides its scenario key, so the hash covers it
        keys = {"engine": "evolve.engine", "seed": "noise.seed",
                "realizations": "ensemble.realizations"}
        given = {key: getattr(args, opt, None) for opt, key in keys.items()}
        settings = {k: v for k, v in given.items() if v is not None}
        scenario = Scenario({**scenario.settings, **settings})
    if args.command == "evolve":
        return studies.run_evolve_study(scenario)
    if args.command == "compare":
        return studies.run_equivalence_study(scenario)
    if args.command == "decohere":
        return studies.run_decoherence_study(scenario)
    if args.command == "void":
        return studies.run_void_study(
            args.dr,
            rho=args.rho,
            duration=args.duration,
            geometry=args.geometry,
            trials=args.trials,
            seed=args.seed if args.seed is not None else 0,
        )
    if args.command == "segcheck":
        return studies.run_segment_checks(
            scenario,
            n_pairs=args.pairs,
            seed=args.seed if args.seed is not None else 0,
        )
    return studies.run_spectrum_study(scenario)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every subcommand but void reads a scenario
        scenario = load_scenario(args.scenario) if args.command != "void" else None
        start = time.perf_counter()
        report, curves = _run_study(args, scenario)
        wall_time = time.perf_counter() - start
        studies.emit_outputs(report, curves, _resolve_outdir(args, scenario))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (LiouqError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    _print_report(report, wall_time)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
