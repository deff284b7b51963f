"""Write one workload's inputs: `python3 perfbench/gen_inputs.py WORKLOAD SEED OUT_DIR`.

Runs in its own process so the timed process never holds the generator's
memory; `src` must be on PYTHONPATH.
"""

import sys

from workloads import WORKLOADS, generate

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    generate(WORKLOADS[name], seed, out_dir)
