"""Record each workload's numeric payload as the benchmark's reference.

Run from the checkout root, on the commit the reference should come
from:

    python3 bench/capture_reference.py [workload ...]

Unseeded workloads are recorded once.  Seeded workloads are recorded
for the first ``REFERENCE_SEEDS`` program seeds, counting up from 0,
whose study checks pass; the decoherence checks are statistical and
fail for some seeds, and those seeds are listed with their failing
checks in ``bench/reference/capture.json``.  Writes
``bench/reference/<workload>.npz`` and ``capture.json`` (environment
block plus seed bookkeeping).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from lqbench.env import ROOT, bootstrap, environment_block

BENCH = Path(__file__).resolve().parent
MAX_CANDIDATES = 64


def main(argv) -> int:
    threads = bootstrap()
    from lqbench.payload import SEEDS_KEY, read_payload, reference_path, seed_prefix
    from lqbench.workloads import REFERENCE_SEEDS, WORKLOADS, run_iteration

    import numpy as np

    log_path = BENCH / "reference" / "capture.json"
    log = json.loads(log_path.read_text()) if log_path.is_file() else {"workloads": {}}
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    for name in argv or list(WORKLOADS):
        workload = WORKLOADS[name]
        candidates = range(MAX_CANDIDATES) if workload.seeded else [None]
        arrays, kept, rejected = {}, [], {}
        for seed in candidates:
            with tempfile.TemporaryDirectory(dir=work) as outdir:
                result = run_iteration(workload, seed or 0, ROOT, Path(outdir))
                if not result.report.passed:
                    failing = [k for k, c in result.report.checks.items() if not c.passed]
                    rejected[str(seed)] = failing
                    print(f"{name} seed {seed}: checks failed: {failing}", flush=True)
                    if workload.seeded:
                        continue
                    return 1
                for key, value in read_payload(outdir).items():
                    arrays[f"{seed_prefix(seed)}/{key}"] = value
            print(f"{name} seed {seed}: {result.study_s:.2f} s", flush=True)
            kept.append(seed)
            if len(kept) == REFERENCE_SEEDS:
                break
        if workload.seeded:
            if len(kept) < REFERENCE_SEEDS:
                print(f"{name}: only {len(kept)} passing seeds", file=sys.stderr)
                return 1
            arrays[SEEDS_KEY] = np.array(kept)
        np.savez_compressed(reference_path(BENCH, name), **arrays)
        log["workloads"][name] = {"program_seeds": kept, "rejected_seeds": rejected}
    log["environment"] = environment_block(threads)
    log_path.write_text(json.dumps(log, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
