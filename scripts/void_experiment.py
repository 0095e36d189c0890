#!/usr/bin/env python3
"""Sweep the void radius and compare emptiness probabilities three ways:
bare exponent, exact Poisson law, and Monte Carlo."""

import argparse

from liouq import SprinkleRegion, void_probability_mc


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
        est = void_probability_mc(SprinkleRegion(dr), args.trials, args.seed)
        print(
            f"{dr:6.2f} {est.analytic_bare:12.6f} {est.analytic_exact:12.6f} "
            f"{est.empirical:12.6f} {est.stderr:10.6f}"
        )
        exact = est.analytic_exact
        floor = (exact * (1.0 - exact) / args.trials) ** 0.5
        ok &= abs(est.empirical - exact) <= 3.0 * max(est.stderr, floor, 1e-12)
    print("PASS" if ok else "FAIL", "empirical within 3 sigma of the exact law")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
