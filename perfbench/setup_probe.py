"""Set-up time of one workload, measured in this fresh process.

Times `import afdmest` and the workload's warm-up (workloads.warm_up: one
frame drawn on each grid and every estimator of the workload run on it
once), so whatever the program builds lazily and caches is counted. NumPy
is imported before timing starts; the speed kernel (perfbench/speed.py) is
sampled before and after the timed interval. Prints one JSON object with
the elapsed seconds and the kernel times. Run by perfbench/run.py:

    python3 perfbench/setup_probe.py '<workload spec as JSON>' SEED
"""

import json
import sys
import time

import speed
from workloads import load_afdmest, warm_up

KERNEL_SAMPLES = 5


def main(argv: list) -> int:
    spec, seed = json.loads(argv[0]), int(argv[1])
    kernel_s = [speed.kernel_time() for _ in range(KERNEL_SAMPLES)]
    t0 = time.perf_counter()
    m = load_afdmest()
    warm_up(m, spec, seed)
    elapsed = time.perf_counter() - t0
    kernel_s += [speed.kernel_time() for _ in range(KERNEL_SAMPLES)]
    print(json.dumps({"elapsed_s": elapsed, "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
