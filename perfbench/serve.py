"""``serve-cold`` and ``serve-hot``: one daemon, one client.

``serve-cold`` starts every pass from a fresh store and a fresh daemon
and submits each problem on each applicable named lane, first at a
shallow bound and then at the row's full bound (which resumes from the
stored snapshot).  ``serve-hot`` warms a daemon with the same rows on the
auto lane during set-up, then resubmits them in an open loop at a fixed
rate, so every request is a store hit.

The client is a single thread that waits for each reply, so the
reference probe (``probe.py``) runs while the daemon is idle: between
submits in ``serve-cold``, in the slack before the next due time in
``serve-hot``.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import time

from repro.errors import ServiceError

from daemon import Daemon
from env import OUT
from layers import (
    LAYER_OF,
    Scrape,
    chrome_records,
    counter_deltas,
    histogram_delta,
    hit_ratio,
    ipc_seconds,
    layer_times,
    mean_ms,
    span_stats,
)
from probe import Speed
from problems import (
    SHALLOW_ROUNDS,
    Tally,
    WireProblem,
    cold_problems,
    hot_problems,
    rounds,
    service_rows,
)

#: Open-loop arrival rate of ``serve-hot``, requests per second — well
#: below the ~12/s one client sustains on store hits of these programs, so
#: latency reflects service time rather than queueing behind the
#: ~120 ms Bluetooth requests.
HOT_RATE = 4.5

#: Set-up repetitions per run (``setup_s`` is their median): daemon
#: start-ups for ``serve-cold``, start-up plus warm-up for ``serve-hot``.
COLD_SETUPS = 5
HOT_SETUPS = 3

#: Lanes ``service.request_ms`` is reported for.
REQUEST_LANES = ("explicit", "symbolic", "wuba")


class Outcome:
    """One submit: what was asked, what came back, and when."""

    __slots__ = ("problem", "budget", "due", "sent", "done", "verdict", "error")

    def __init__(self, problem: WireProblem, budget: int, due: float) -> None:
        self.problem = problem
        self.budget = budget
        self.due = due
        self.sent = self.done = 0.0
        self.verdict = self.error = None

    @property
    def latency(self) -> float:
        return self.done - self.due


def _submit(client, problem: WireProblem, max_rounds: int, due: float) -> Outcome:
    outcome = Outcome(problem, max_rounds, due)
    outcome.sent = time.perf_counter()
    try:
        response = client.submit(engine=problem.lane, max_rounds=max_rounds, **problem.kwargs)
    except ServiceError as failure:
        outcome.error = str(failure)
    else:
        outcome.verdict = response.get("verdict")
    outcome.done = time.perf_counter()
    return outcome


def _by_request(outcomes: list[Outcome]) -> dict[str, float]:
    """Median latency per distinct request (problem, lane and bound)."""
    groups: dict[str, list[float]] = {}
    for outcome in outcomes:
        label = f"{outcome.problem.label} k={outcome.budget}"
        groups.setdefault(label, []).append(outcome.latency)
    return {label: statistics.median(values) for label, values in groups.items()}


def _tally(tally: Tally, outcomes: list[Outcome]) -> None:
    for outcome in outcomes:
        tally.record(outcome.problem.name, outcome.verdict, error=outcome.error)


def submit_serial(
    daemon: Daemon, problems: list[WireProblem], budgets, speed: Speed | None = None
) -> list[Outcome]:
    """Closed loop, one client: each problem's submits (one per budget
    in ``budgets(problem)``) in order, a probe after each when ``speed``
    is given."""
    client = daemon.client()
    outcomes = []
    for problem in problems:
        for budget in budgets(problem):
            outcomes.append(_submit(client, problem, budget, time.perf_counter()))
            if speed is not None:
                speed.sample()
    return outcomes


def _full_bound(problem: WireProblem) -> tuple[int]:
    return (problem.bench.max_rounds,)


def _shallow_then_full(problem: WireProblem) -> tuple[int, int]:
    return (SHALLOW_ROUNDS, problem.bench.max_rounds)


def _children_peak_rss_mb() -> float:
    """Peak RSS of the largest reaped child (a daemon or one of its
    workers), in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _quantile(values: list[float], n: int) -> float:
    """The highest cut point of ``statistics.quantiles(values, n)``."""
    return statistics.quantiles(values, n=n)[-1]


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------
def _cold_pass(
    problems: list[WireProblem], rng: random.Random, speed: Speed | None = None, traced: bool = False
):
    """One pass on a fresh store and daemon: (daemon start-up seconds,
    outcomes, per-layer metrics when ``traced``)."""
    order = list(problems)
    rng.shuffle(order)
    daemon = Daemon(OUT / "cold.sqlite", OUT / "serve-cold.log", traced=traced)
    try:
        if traced:
            outcomes, layers = _traced_phase(
                daemon, lambda: submit_serial(daemon, order, _shallow_then_full)
            )
        else:
            outcomes = submit_serial(daemon, order, _shallow_then_full, speed)
            layers = None
    finally:
        daemon.stop()
    return daemon.startup_seconds, outcomes, layers


def _service_seconds(outcomes: list[Outcome]) -> float:
    return sum(outcome.done - outcome.sent for outcome in outcomes)


def run_cold(seed: int, seconds: float, traced: bool) -> dict:
    rng = random.Random(seed)
    problems = cold_problems(service_rows())
    tally = Tally()
    if traced:
        _spawn, outcomes, _none = _cold_pass(problems, rng)
        _tally(tally, outcomes)
        untraced = _service_seconds(outcomes)
        _spawn, outcomes, layers = _cold_pass(problems, rng, traced=True)
        _tally(tally, outcomes)
        layers["trace.overhead_share"] = _service_seconds(outcomes) / untraced - 1.0
        return {"tally": tally, "layers": layers}

    speed = Speed()
    spawn: list[float] = []
    passes: list[float] = []
    lengths: list[float] = []
    everything: list[Outcome] = []
    started = time.perf_counter()
    while True:
        speed.sample()
        begun = time.perf_counter()
        startup, outcomes, _none = _cold_pass(problems, rng, speed)
        lengths.append(time.perf_counter() - begun)
        _tally(tally, outcomes)
        spawn.append(startup)
        passes.append(_service_seconds(outcomes))
        everything.extend(outcomes)
        if time.perf_counter() - started + statistics.median(lengths) > seconds:
            break
    while len(spawn) < COLD_SETUPS:
        speed.sample()
        daemon = Daemon(OUT / "cold.sqlite", OUT / "serve-cold.log")
        spawn.append(daemon.startup_seconds)
        daemon.stop()
    latencies = [outcome.latency for outcome in everything]
    return {
        "tally": tally,
        "speed": speed,
        "setup_s": statistics.median(spawn) * speed.scale,
        "suite_s": statistics.median(passes) * speed.scale,
        "peak_rss_mb": _children_peak_rss_mb(),
        "passes": len(passes),
        "submits": len(latencies),
        "wall": {
            "setup_s": statistics.median(spawn),
            "suite_s": statistics.median(passes),
            "cold_ms_p50": statistics.median(latencies) * 1000.0,
            "cold_ms_p75": _quantile(latencies, 4) * 1000.0,
        },
        "by_problem": _by_request(everything),
    }


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------
def open_loop(
    daemon: Daemon, picks: list[WireProblem], rate: float, speed: Speed | None = None
) -> list[Outcome]:
    """Send ``picks`` on a fixed schedule, one every ``1/rate`` seconds,
    each timed from when it was due.  With ``speed``, a probe runs after
    a reply whenever the next request is not due for another twice the
    probe's median time, so probing never delays a send."""
    client = daemon.client()
    outcomes = []
    start = time.perf_counter() + 0.05
    for index, problem in enumerate(picks):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcomes.append(_submit(client, problem, problem.bench.max_rounds, due))
        if speed is not None:
            slack = start + (index + 1) / rate - time.perf_counter()
            if slack > 2 * speed.probe_ms_p50 / 1000.0:
                speed.sample()
    return outcomes


def _warm_daemon(
    problems: list[WireProblem], tally: Tally, traced: bool = False
) -> tuple[Daemon, float]:
    """Set-up of ``serve-hot``: a daemon on a fresh store, warmed with
    every problem at its full bound.  Returns (daemon, seconds)."""
    started = time.perf_counter()
    daemon = Daemon(OUT / "hot.sqlite", OUT / "serve-hot.log", traced=traced)
    try:
        outcomes = submit_serial(daemon, problems, _full_bound)
    except BaseException:
        daemon.stop()
        raise
    _tally(tally, outcomes)
    return daemon, time.perf_counter() - started


def _hot_picks(problems: list[WireProblem], seconds: float, rng: random.Random) -> list:
    """An open loop's worth of resubmissions, in whole rounds so every
    problem is sent equally often."""
    count = len(problems) * max(1, round(HOT_RATE * seconds / len(problems)))
    return rounds(problems, count, rng)


def run_hot(seed: int, seconds: float, traced: bool) -> dict:
    # One vCPU for the client, the probe and the daemon it spawns: the
    # client waits for every reply and the probe runs while the daemon
    # is idle, so nothing competes, and the probe times the processor
    # the daemon's work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(seed)
    problems = hot_problems(service_rows())
    tally = Tally()
    if traced:
        # The same requests twice, untraced then traced; the overhead
        # is the ratio of their summed latencies.
        daemon, _elapsed = _warm_daemon(problems, tally, traced=True)
        try:
            picks = _hot_picks(problems, seconds / 2, rng)
            untraced = open_loop(daemon, picks, HOT_RATE)
            hot, layers = _traced_phase(daemon, lambda: open_loop(daemon, picks, HOT_RATE))
        finally:
            daemon.stop()
        _tally(tally, untraced + hot)
        layers["trace.overhead_share"] = (
            sum(o.latency for o in hot) / sum(o.latency for o in untraced) - 1.0
        )
        layers["loadgen.late_ms_p90"] = _quantile([o.sent - o.due for o in hot], 10) * 1000.0
        return {"tally": tally, "layers": layers}

    speed = Speed()
    setup: list[float] = []
    daemon = None
    for _ in range(HOT_SETUPS):
        if daemon is not None:
            daemon.stop()
        speed.sample()
        daemon, elapsed = _warm_daemon(problems, tally)
        setup.append(elapsed)
    try:
        before = daemon.client().meter()
        hot = open_loop(daemon, _hot_picks(problems, seconds, rng), HOT_RATE, speed)
        after = daemon.client().meter()
    finally:
        daemon.stop()
    _tally(tally, hot)
    by_row = _by_request(hot)
    hits = after.get("service.store_hits", 0) - before.get("service.store_hits", 0)
    latencies = [outcome.latency for outcome in hot]
    return {
        "tally": tally,
        "speed": speed,
        "setup_s": statistics.median(setup) * speed.scale,
        # One resubmission of every row: the sum of the rows' median
        # latencies (every row is sent equally often).
        "suite_s": sum(by_row.values()) * speed.scale,
        "peak_rss_mb": _children_peak_rss_mb(),
        "store_hit_ratio": hits / len(hot),
        "requests": len(hot),
        "wall": {
            "setup_s": statistics.median(setup),
            "suite_s": sum(by_row.values()),
            "hot_ms_p50": statistics.median(latencies) * 1000.0,
            "hot_ms_p90": _quantile(latencies, 10) * 1000.0,
            "late_ms_p90": _quantile([o.sent - o.due for o in hot], 10) * 1000.0,
        },
        "by_problem": by_row,
    }


# ----------------------------------------------------------------------
# Traced phase on a daemon
# ----------------------------------------------------------------------
def _traced_phase(daemon: Daemon, drive) -> tuple[list[Outcome], dict]:
    """Run ``drive()`` (-> outcomes) with the daemon tracing, scraping
    ``/metrics`` around it; returns (outcomes, per-layer metrics)."""
    client = daemon.client()
    before = Scrape(client.metrics())
    daemon.call("POST", "/trace", {"enabled": True})
    outcomes = drive()
    chrome = daemon.call("GET", "/trace")
    daemon.call("POST", "/trace", {"enabled": False})
    after = Scrape(client.metrics())
    return outcomes, service_layers(chrome_records(chrome), before, after, outcomes)


def service_layers(records: list[dict], before: Scrape, after: Scrape, outcomes: list[Outcome]) -> dict:
    """Per-layer metrics of a traced daemon phase."""
    layers = {name: 0.0 for name in set(LAYER_OF.values())}
    layers.update(layer_times(records))
    metrics = dict(layers)
    metrics.update(counter_deltas(before, after))
    hits = after.counter("canonical.cache_hits") - before.counter("canonical.cache_hits")
    misses = after.counter("canonical.cache_misses") - before.counter("canonical.cache_misses")
    metrics["canonical.hit_ratio"] = hit_ratio(hits, misses)

    submits, submit_seconds = histogram_delta(before, after, "http_request", route="/submit")
    _requests, request_seconds = histogram_delta(before, after, "service_request")
    metrics["service.prepare_ms"] = mean_ms(submits, submit_seconds - request_seconds)
    for lane in REQUEST_LANES:
        metrics[f"service.request_ms.{lane}"] = mean_ms(
            *histogram_delta(before, after, "service_request", lane=lane)
        )
    metrics["service.queue_ms"] = mean_ms(*histogram_delta(before, after, "service_queue"))
    metrics["store.txn_ms"] = mean_ms(*histogram_delta(before, after, "store_transaction"))
    metrics["store.read_ms"] = mean_ms(
        *histogram_delta(before, after, "store_transaction", op="read")
    )
    store_hits = after.counter("service.store_hits") - before.counter("service.store_hits")
    metrics["service.store_hit_ratio"] = store_hits / submits if submits else 0.0
    metrics["executor.ipc_ms"] = mean_ms(*ipc_seconds(records))
    metrics["snapshot.encode_ms"] = mean_ms(*span_stats(records, "snapshot.encode"))
    metrics["snapshot.decode_ms"] = mean_ms(*span_stats(records, "snapshot.decode"))

    attributed = sum(layers.values())
    client_seconds = sum(outcome.done - outcome.sent for outcome in outcomes)
    metrics["trace.unattributed_share"] = max(0.0, client_seconds - attributed) / client_seconds
    metrics["trace.spans"] = float(len(records))
    metrics["loadgen.late_ms_p90"] = 0.0
    return metrics
