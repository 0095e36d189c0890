"""Build one workload's inputs in a fresh interpreter, then print ``ready``.

Started by ``run.py`` to time set-up as a CLI user pays it: interpreter
start, ``import liouq``, scenario loading and input construction.

    python3 bench/setup_probe.py <workload> <program seed>
"""

import sys

from lqbench.env import ROOT, bootstrap

if __name__ == "__main__":
    bootstrap()
    from lqbench.workloads import WORKLOADS, prepare

    prepare(WORKLOADS[sys.argv[1]], int(sys.argv[2]), ROOT)
    print("ready", flush=True)
