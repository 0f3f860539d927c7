"""``verify-table2``: cold, serial, in-process passes over Table 2.

Each pass runs every runnable Table 2 row through ``Cuba.verify`` — the
Sec. 6 auto dispatch — including building the model, with the runtime
caches cleared before each problem, in a seed-shuffled order.  The
service is not involved.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time

from repro.cuba import Cuba
from repro.models.registry import Benchmark, runnable_benchmarks
from repro.obs import trace
from repro.util.caches import clear_runtime_caches
from repro.util.meter import scoped

from env import child_env
from layers import COUNTERS, LAYER_OF, hit_ratio, instrument, layer_times
from probe import Speed
from problems import Tally

#: Fresh-interpreter imports per run; ``setup_s`` is their median.
SETUPS = 9


def verify_one(bench: Benchmark, tally: Tally) -> float:
    """Build and verify one problem cold; its wall seconds."""
    clear_runtime_caches()
    begin = time.perf_counter()
    try:
        with trace.span("bench.problem", problem=bench.name):
            cpds, prop = bench.build()
            report = Cuba(cpds, prop).verify(max_rounds=bench.max_rounds)
    except Exception as failure:  # noqa: BLE001 - counted as a failed attempt
        tally.record(bench.name, None, error=f"{type(failure).__name__}: {failure}")
    else:
        tally.record(bench.name, report.verdict.value)
    return time.perf_counter() - begin


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the layers the pass
    uses — this workload's set-up, repeatable in a child process."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cuba, repro.models.registry"],
        check=True,
        env=child_env(),
    )
    return time.perf_counter() - started


def run(seed: int, seconds: float, traced: bool) -> dict:
    """Shuffled rounds over the suite: one whole round, then more
    rounds while ``seconds`` last.  A pass is estimated as the sum of
    the per-problem median times, so every measured second counts and
    a partial last round biases nothing.  Later rounds leave out any
    problem that alone took over a quarter of the first round (BST-Insert
    [2+2] at this commit): its one long sample is already steady, and the
    time buys the short problems, whose single samples are not, more
    samples for their medians.  The reference probe runs before every
    set-up and every problem; times are reported in reference seconds
    (see ``probe.py``)."""
    rng = random.Random(seed)
    problems = runnable_benchmarks()
    tally = Tally()
    if traced:
        return {"tally": tally, "layers": traced_pass(problems, tally, rng)}
    speed = Speed()
    setup = []
    for _ in range(SETUPS):
        speed.sample()
        setup.append(import_seconds())

    samples: dict[str, list[float]] = {bench.name: [] for bench in problems}
    deadline = time.perf_counter() + seconds
    order = list(problems)
    rng.shuffle(order)
    started = time.perf_counter()
    for bench in order:
        speed.sample()
        samples[bench.name].append(verify_one(bench, tally))
    first_round = time.perf_counter() - started
    repeated = [bench for bench in problems if samples[bench.name][0] <= first_round / 4]
    while time.perf_counter() < deadline:
        order = list(repeated)
        rng.shuffle(order)
        for bench in order:
            if time.perf_counter() >= deadline:
                break
            speed.sample()
            samples[bench.name].append(verify_one(bench, tally))
    medians = [statistics.median(times) for times in samples.values()]
    return {
        "tally": tally,
        "speed": speed,
        "setup_s": statistics.median(setup) * speed.scale,
        "suite_s": sum(medians) * speed.scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdicts": sum(len(times) for times in samples.values()),
        "wall": {
            "setup_s": statistics.median(setup),
            "suite_s": sum(medians),
            "verdict_ms_p50": statistics.median(medians) * 1000.0,
            "slowest_verdict_ms": max(medians) * 1000.0,
        },
        "by_problem": {name: statistics.median(times) for name, times in samples.items()},
    }


def traced_pass(problems: tuple[Benchmark, ...], tally: Tally, rng: random.Random) -> dict:
    """One shuffled round in which every problem runs twice back to
    back: untraced, then traced with the layer entry points wrapped.
    Per-layer self times and METER counts come from the traced runs;
    the tracing overhead compares each pair, so drift of the machine's
    speed between the two halves cannot masquerade as overhead."""
    order = list(problems)
    rng.shuffle(order)
    untraced = traced = 0.0
    records: list[dict] = []
    with scoped() as work:
        for bench in order:
            untraced += verify_one(bench, tally)
            undo = instrument()
            trace.clear()
            trace.enable()
            try:
                traced += verify_one(bench, tally)
            finally:
                trace.disable()
                undo()
            records.extend(trace.take())
    layers = {name: 0.0 for name in set(LAYER_OF.values())}
    layers.update(layer_times(records))
    metrics = dict(layers)
    # Both halves did the same work; report one pass's worth.
    metrics.update({name: work.get(name, 0) / 2 for name in COUNTERS})
    metrics["canonical.hit_ratio"] = hit_ratio(
        work.get("canonical.cache_hits", 0), work.get("canonical.cache_misses", 0)
    )
    metrics["trace.unattributed_share"] = max(0.0, traced - sum(layers.values())) / traced
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    metrics["traced_wall_s"] = traced
    # The verdict path: compile, FCR, overapproximation, explicit levels.
    metrics["verdict_path_share"] = sum(
        layers[name]
        for name in ("bp.compile_s", "cuba.fcr_s", "cuba.overapprox_s", "reach.explicit.level_s")
    ) / traced
    return metrics
