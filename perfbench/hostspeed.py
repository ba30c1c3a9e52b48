"""Host-speed calibration.

On a shared host the CPU speed one process gets swings with the other
tenants' load: a fixed pure-Python loop measured once a second on a 2-vCPU
VM took between 6.9 and 12.1 ms over five minutes, and the benchmark's own
ops slowed by up to 70% from one run to the next.  Such swings are wider
than any regression bound a benchmark can usefully set.

So the benchmark runs `calibrate`, a fixed kernel that does the package's
kind of work (set and list traffic of a breadth-first search, no package
code, collector off), right before each op, and reports each op's time
scaled to the host speed at which the kernel takes REFERENCE_S: the op's
wall time times REFERENCE_S over the median kernel time of the nearby ops.
Raw wall-clock figures are printed beside the scaled ones.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

REFERENCE_S = 0.002
_rng = random.Random(20200715)
_GRAPH = [_rng.sample(range(400), 6) for _ in range(400)]


def calibrate() -> float:
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for src in range(0, 400, 40):
            seen = {src}
            queue = [src]
            for v in queue:
                for w in _GRAPH[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(times: list[float], kernel: list[float], reach: int = 2) -> list[float]:
    """times[i] at reference speed, given kernel[i] measured just before
    it; the speed estimate is the median kernel time over i +- reach."""
    return [t * REFERENCE_S / statistics.median(kernel[max(0, i - reach):i + reach + 1])
            for i, t in enumerate(times)]
