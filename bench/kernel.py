"""Permutation-kernel microbenchmark: ns per mul/inv/conj/order.

Degrees are those of the corpus groups that dominate the workloads:
psl2(7) on 8 points, psl3_4 on 21, the psl34 extensions on 42, sz8 on 65
and sl2_9 (regular representation) on 720.  Operands are drawn from the
seed and built through the public Permutation class, so the kernel sees
whatever raw form the package uses.
"""

from __future__ import annotations

import random
import statistics
import time

DEGREES = (8, 21, 42, 65, 720)
OPS = ("mul", "inv", "conj", "order")
OPERANDS = 32
REPEATS = 5
MIN_REPEAT_NS = 10_000_000


def _time_per_op(call, args) -> float:
    """ns per call over one repeat of at least MIN_REPEAT_NS."""
    done = 0
    start = time.perf_counter_ns()
    while True:
        for a in args:
            call(*a)
        done += len(args)
        elapsed = time.perf_counter_ns() - start
        if elapsed >= MIN_REPEAT_NS:
            return elapsed / done


def run(seed: int) -> dict:
    from cppo import permutation as pm

    calls = {"mul": pm.mul_raw, "inv": pm.inv_raw, "conj": pm.conj_raw, "order": pm.order_raw}
    out = {}
    for d in DEGREES:
        rng = random.Random(seed * 1009 + d)
        raws = []
        for _ in range(OPERANDS):
            img = list(range(1, d + 1))
            rng.shuffle(img)
            raws.append(pm.Permutation(img).raw)
        pairs = list(zip(raws, raws[1:] + raws[:1]))
        singles = [(r,) for r in raws]
        for op in OPS:
            args = singles if op in ("inv", "order") else pairs
            samples = [_time_per_op(calls[op], args) for _ in range(REPEATS)]
            out["permutation.%s_ns.d%d" % (op, d)] = statistics.median(samples)
    return out
