"""liouq study benchmark.

Run from the checkout root:

    python3 bench/run.py --workload compare-quartic --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own process.

Each workload runs whole studies (load scenario, run study, emit
outputs) for ``--seconds`` seconds in this one process and checks every
emitted payload against ``bench/reference``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations, runs the kernel microbenchmarks, writes the spans to
``.bench_work/traces/`` and reports the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Every other lqbench module imports numpy or liouq, so it is imported
# only after bootstrap() has pinned BLAS threads and chosen the sources.
from lqbench.env import ROOT, bootstrap, environment_block

BENCH = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPS = 7
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def describe(name: str, values: list, unit: str) -> str:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    line = f"{name:<16} median {statistics.median(values):.6g} {unit}  (n={n}"
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"{line}, p{p} {cut:.6g} {unit})"
    return f"{line}; a tail percentile needs >= 20 samples)"


def measure_setup(workload: str, program_seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(program_seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return ready - start


class Runner:
    """Runs checked iterations of one workload and keeps their outcomes."""

    def __init__(self, workload, program_seed: int, reference: dict):
        self.workload = workload
        self.program_seed = program_seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0

    def run(self, recorder=None):
        """One iteration; returns its ``IterationResult`` or None if it raised."""
        from lqbench.payload import deviation, read_payload, reference_files
        from lqbench.workloads import run_iteration

        self.attempted += 1
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as outdir:
            try:
                result = run_iteration(
                    self.workload, self.program_seed, ROOT, Path(outdir), recorder
                )
            except Exception:
                traceback.print_exc()
                self.failed += 1
                return None
            problems = [f"check {k} failed" for k, c in result.report.checks.items() if not c.passed]
            try:
                dev, bad = deviation(
                    read_payload(outdir, reference_files(self.reference)), self.reference
                )
            except (OSError, ValueError, KeyError) as exc:
                dev, bad = float("inf"), [f"payload unreadable: {exc!r}"]
        self.max_dev = max(self.max_dev, dev)
        if problems or bad:
            print(f"iteration {self.attempted} failed: {problems + bad}", file=sys.stderr)
            self.failed += 1
        return result


def _keep_going(start: float, seconds: float, durations: list) -> bool:
    """Another iteration fits in the budget, judged by the median so far."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def run_timed(runner: Runner, start: float, seconds: float) -> dict:
    # One set-up probe before each iteration, so set-up is sampled over
    # the whole run rather than one moment of a shared host's load.
    setup = []
    results = []
    durations = []
    while _keep_going(start, seconds, durations):
        t0 = time.perf_counter()
        setup.append(measure_setup(runner.workload.name, runner.program_seed))
        result = runner.run()
        durations.append(time.perf_counter() - t0)
        if result is not None:
            results.append(result)
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup(runner.workload.name, runner.program_seed))
    if not results:
        raise SystemExit("benchmark: every iteration raised")
    study = [r.study_s for r in results]
    rate = [r.work / r.study_s for r in results]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(describe("study_s", study, "s"))
    print(describe("work_per_s", rate, f"{runner.workload.work_unit}/s"))
    print(describe("setup_s", setup, "s"))
    print(f"{'peak_rss_mb':<16} {rss:.6g} MB  (n=1, this process)")
    return {
        "study_s": statistics.median(study),
        "work_per_s": statistics.median(rate),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def run_traced(runner: Runner, start: float, seconds: float, env: dict, seed: int) -> dict:
    from lqbench.kernels import kernel_table
    from lqbench.layers import layer_metrics, traced_targets
    from lqbench.spans import SpanRecorder, totals_by_trace

    kernels = kernel_table()
    kernel_us = {name: k["us"] for name, k in kernels.items()}
    recorder = SpanRecorder()
    plain, traced = [], []  # (duration, result)
    while True:
        batch = traced if len(traced) < len(plain) else plain
        if plain and traced and not _keep_going(start, seconds, [d for d, _ in batch]):
            break
        t0 = time.perf_counter()
        if batch is traced:
            recorder.trace = len(traced)
            with recorder.patched(traced_targets()):
                result = runner.run(recorder)
        else:
            result = runner.run()
        batch.append((time.perf_counter() - t0, result))
    totals = totals_by_trace(recorder.spans)
    per_iteration = [
        layer_metrics(totals[i], r.n_steps, r.include_kinetic, r.work, kernel_us)
        for i, (_, r) in enumerate(traced)
        if r is not None
    ]
    plain_s = [r.study_s for _, r in plain if r is not None]
    traced_s = [r.study_s for _, r in traced if r is not None]
    if not per_iteration or not plain_s:
        raise SystemExit("benchmark: every iteration raised")
    metrics = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["correctness.max_abs_dev"] = runner.max_dev

    print(f"per-layer medians over {len(per_iteration)} traced iteration(s); "
          f"overhead against {len(plain_s)} untraced")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g}")
    print("kernels at n=128, complex128 (ops and bytes computed, not measured):")
    for name, k in kernels.items():
        print(f"  {name:<34} {k['us']:9.2f} us  {k['ops_computed']:.4g} flop  "
              f"{k['bytes_computed']:.4g} B  "
              f"{k['ops_computed'] / k['bytes_computed']:.3g} flop/B  "
              f"{k['ops_computed'] / k['us'] * 1e-3:.3g} GFLOP/s")

    out = WORK_DIR / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{runner.workload.name}-seed{seed}.json"
    recorder.dump(path, {"environment": env, "kernels": kernels, "layers": per_iteration})
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def run_all(args, workloads) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in workloads:
        print(f"=== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    threads = bootstrap()
    from lqbench.payload import load_reference
    from lqbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}[workload.name]
    program_seed, reference = load_reference(BENCH, workload.name, args.seed, workload.seeded)
    env = environment_block(threads)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} (program seed {program_seed}) "
          f"trace {args.trace}: {why}")
    WORK_DIR.mkdir(exist_ok=True)
    runner = Runner(workload, program_seed, reference)
    if args.trace:
        values = run_traced(runner, start, args.seconds, env, args.seed)
    else:
        values = run_timed(runner, start, args.seconds)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise SystemExit(f"benchmark: metrics {sorted(set(units) ^ set(values))} "
                         "are not both declared in BENCHMARK.json and measured")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"{'failed_fraction':<16} {runner.failed / runner.attempted:.6g}  "
          f"({runner.failed} of {runner.attempted} iterations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
