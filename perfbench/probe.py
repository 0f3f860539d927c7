"""How fast the machine is right now, from a fixed reference job.

The benchmark runs on a shared host whose speed drifts by 20-40% over
minutes; a run's raw timings follow the drift.  Each run therefore
times a fixed pure-Python job (:func:`probe_seconds`) between its work
items and reports its times (``setup_s``, ``suite_s``) in *reference
seconds*: the raw time scaled by
``(REFERENCE_S / median probe time of the run) ** SENSITIVITY``.  A slower machine stretches the work and the probe
together, so the scaled time stays put; a slower program stretches only
the work, and the scaled time grows in proportion.

The probe uses nothing from ``src/``, so no change to the library can
change it.  It does the kind of work the library does — hashing tuples,
dict and frozenset churn, sorting — and runs with the cyclic garbage
collector paused, so the heap the workload left behind cannot slow it.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Probe seconds the benchmark's timings are scaled to: about the
#: probe's median on the development box (a 2-vCPU VM) on a quiet day,
#: so reference seconds read close to that box's wall seconds.
REFERENCE_S = 0.075

#: How much the workloads' time moves per unit of the probe's time, on a
#: log scale: when contention slows the probe by 50%, it slows the
#: workloads by about 30%, because the probe leans harder on the caches
#: the neighbours share.  Log-log least-squares fits on the development
#: box gave 0.69 (verify-table2, 15 runs, probe medians 42-79 ms), 0.84
#: (serve-cold, 15 runs, 47-97 ms) and 0.83 (serve-hot, 15 runs,
#: 70-84 ms); one exponent serves all three.
SENSITIVITY = 0.7

#: Iterations of the probe's main loop.
_STEPS = 30000


def _job() -> int:
    state = 12345
    table: dict = {}
    total = 0
    for step in range(_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = (state % 20000, (state >> 8) % 61)
        node = table.get(key)
        if node is None:
            node = table[key] = frozenset((key[0] % 13, key[1], step % 7))
        total += len(node)
    seen = set()
    for first, second in sorted(table)[::3]:
        seen.add((second, first))
        total += (first, second) in table
    return total + len(seen)


def probe_seconds() -> float:
    """Wall seconds of one run of the reference job."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _job()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probe samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(probe_seconds())

    @property
    def probe_ms_p50(self) -> float:
        return statistics.median(self.samples) * 1000.0

    @property
    def scale(self) -> float:
        """Reference seconds per wall second in this run."""
        return (REFERENCE_S / statistics.median(self.samples)) ** SENSITIVITY
