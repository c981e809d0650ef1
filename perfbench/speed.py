"""Machine-speed reference for timings taken on a host whose speed drifts.

On the 2-vCPU KVM guest (Intel Xeon, Sapphire Rapids) this benchmark was
defined on, the same code alternates between a fast and a slow phase, each
lasting from under a second to tens of seconds, with a 1.7x ratio between
them; single-threaded BLAS does not remove it. Over 10-second runs the
median joint time per frame differed by 20 to 30% from run to run, while
its ratio to the kernel below, timed in the same windows, stayed within 6%.
Over two sets of ten 20-second runs per workload (spread: quartile distance
over median), the timing metrics spread 0.18-0.51 unscaled and 0.02-0.09
scaled at N=256, and 0.09-0.35 unscaled and 0.07-0.17 scaled at N=4096.

`kernel` is a fixed mix of interpreter work and small NumPy calls, the two
kinds of work a frame estimate at N=256 is made of. It uses no BLAS and no
afdmest code, so neither thread settings nor changes to the program move
it. Every workload samples the kernel every `INTERVAL_S` while it runs
(sweeps after every grid cell), and each timed interval is multiplied by
NOMINAL_S over the kernel time of its window: the result reads as the time
the work would take where the kernel takes NOMINAL_S. The memory-bound
N=4096 stream follows the kernel less closely. Set-up time gets one factor
per run, from the kernel samples that every set-up probe takes before and
after its timed interval: one probe's samples track it poorly, as the
phases are shorter than a probe, but the run's samples together follow the
drift of the host over minutes. Over the same two sets, set-up spread
0.19-0.36 unscaled and 0.14-0.26 scaled.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# kernel time in the fast phase of the host described above
NOMINAL_S = 2.5e-4
INTERVAL_S = 0.25

_VEC = np.ones(256)


def kernel() -> int:
    s = 0
    for i in range(2000):
        s += i * i
    for _ in range(20):
        np.exp(_VEC * 0.1j)
    return s


def factor(kernel_times: list) -> float:
    """NOMINAL_S over the median of sampled kernel times."""
    return NOMINAL_S / float(np.median(kernel_times))


def kernel_time(repeats: int = 3) -> float:
    """Best of `repeats` timed kernel runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Reference:
    """Kernel samples over a run; `scaled` converts intervals of that run."""

    def __init__(self):
        self.times: list = []
        self.values: list = []
        self._next = 0.0

    def sample(self) -> None:
        t = time.perf_counter()
        self.values.append(kernel_time())
        self.times.append(t)
        self._next = t + INTERVAL_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def _factor(self, j: int) -> float:
        # window j runs from sample j to sample j + 1
        j = min(max(j, 0), len(self.values) - 2)
        return NOMINAL_S / (0.5 * (self.values[j] + self.values[j + 1]))

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] at nominal speed."""
        if len(self.values) < 2:
            return t1 - t0
        total = 0.0
        j = bisect.bisect_right(self.times, t0) - 1
        start = t0
        while start < t1:
            edge = self.times[j + 1] if 0 <= j < len(self.times) - 1 else float("inf")
            if j < 0:
                edge = self.times[0]
            end = min(edge, t1)
            total += (end - start) * self._factor(j)
            start, j = end, j + 1
        return total

    def factor_p50(self) -> float:
        """Speed factor over all samples of the run."""
        return factor(self.values)
