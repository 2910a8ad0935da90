"""Machine-speed calibration for the end-to-end times.

On a shared 2-vCPU VM the speed of the whole machine drifts with what its
neighbours run: one pass of a workload was measured at 16.7 s and at 25.2 s
a few minutes apart, and interpreter start-up moved by the same factor.  A
fixed pure-Python loop of the same kind of work as the package's hot paths
(composing 32-point permutations as tuples and filing them in a dict) is
timed between work items; each item's time is then rescaled by
NOMINAL_S / (the mean of the loop's times just before and just after it).
A reported second is thus a second at the loop's nominal speed, so two
runs of the same code agree even when the machine slowed between them,
while a change in the package's own speed shows in full.  Over ten seeds
this cut the interquartile spread of a pass's wall time from 0.23 to 0.05
of the median on corpus_theorems and from 0.26 to 0.11 on tower_certify.
One median of the loop over the whole pass did worse: most loop times then
come from the short items and miss the state of the machine during the
long ones.  The raw times are recorded beside the rescaled ones.
"""

from __future__ import annotations

import random
import time

# the loop's typical time on the 2-vCPU VM where the baseline was recorded
NOMINAL_S = 0.008

_PERMS = [tuple(random.Random(k).sample(range(32), 32)) for k in range(48)]


def measure() -> tuple[float, float]:
    """(wall, cpu) seconds of the loop, each the fastest of two tries."""
    best_wall = best_cpu = float("inf")
    for _ in range(2):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        filed = {}
        for a in _PERMS:
            for b in _PERMS:
                c = tuple(map(b.__getitem__, a))
                filed[c] = c
        best_wall = min(best_wall, time.perf_counter() - wall0)
        best_cpu = min(best_cpu, time.process_time() - cpu0)
    return best_wall, best_cpu


def factor(before, after) -> float:
    """Rescaling factor for work done between two loop times."""
    return 2 * NOMINAL_S / (before + after)
