#!/usr/bin/env python3
"""Sweep the void radius and compare emptiness probabilities three ways:
bare exponent, exact Poisson law, and Monte Carlo.  Each radius runs the
void study, whose 3-sigma check decides PASS/FAIL."""

import argparse

from liouq import run_void_study


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--radii", type=float, nargs="+",
                        default=[0.25, 0.5, 0.75, 1.0, 1.5])
    args = parser.parse_args()

    print(f"{'dr':>6} {'bare':>12} {'exact':>12} {'empirical':>12} {'stderr':>10}")
    ok = True
    for dr in args.radii:
        report, _ = run_void_study(dr, trials=args.trials, seed=args.seed)
        m = report.metrics
        print(
            f"{dr:6.2f} {m['analytic_bare']:12.6f} {m['analytic_exact']:12.6f} "
            f"{m['empirical']:12.6f} {m['stderr']:10.6f}"
        )
        ok &= report.checks["empirical_vs_exact"].passed
    print("PASS" if ok else "FAIL", "empirical within 3 sigma of the exact law")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
