"""Per-layer measurement for the traced runs.

Two sources feed the per-layer metrics, both read from outside ``src/``:

* **Spans.**  The library's own :mod:`repro.obs.trace` spans
  (``<lane>.level``, ``canonical.form``, ``service.request``,
  ``executor.dispatch``, ``snapshot.*``, ``store.transaction`` ...),
  plus spans this module puts around calls into the public functions
  of layers that have none: :func:`instrument` rebinds
  ``compile_source``, ``check_fcr``, ``compute_z``,
  ``generator_analysis``, ``shallow_configs_psa`` and the service's
  fingerprint functions, in every loaded ``repro`` module that imported
  them, to wrappers that open a ``bench.*`` span.  A layer's time is its
  *self* time: span duration minus the part its child spans cover, so
  the layers partition the traced time and nothing is counted twice.
* **Counters and histograms.**  Deltas of METER counters (in-process)
  or of a daemon's ``/metrics`` exposition, which carries every METER
  counter and the always-on latency histograms.

Metric conventions: ``*_s`` is total self time over the traced phase,
``*_ms`` a mean per operation, ``*_share``/``*_ratio`` a fraction.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from collections.abc import Callable

from repro.obs import trace
from repro.obs.prometheus import parse_text, sanitize

#: Public functions wrapped by :func:`instrument`: (module, attribute,
#: span name).  Each is rebound wherever it was imported by name.
WRAPPED = (
    ("repro.bp.translate", "compile_source", "bench.compile_source"),
    ("repro.cuba.fcr", "check_fcr", "bench.check_fcr"),
    ("repro.cuba.overapprox", "compute_z", "bench.compute_z"),
    ("repro.cuba.generators", "generator_analysis", "bench.generator_analysis"),
    ("repro.pds.saturation", "shallow_configs_psa", "bench.shallow_configs_psa"),
    ("repro.service.fingerprint", "cpds_digest", "bench.fingerprint"),
    ("repro.service.fingerprint", "fingerprint", "bench.fingerprint"),
)

#: Span name -> the per-layer time metric its self time counts toward.
#: Spans not listed (``bench.problem``, ``lane.run``,
#: ``service.engine_run``) are containers; their self time is reported
#: as unattributed.
LAYER_OF = {
    "bench.compile_source": "bp.compile_s",
    "bench.check_fcr": "cuba.fcr_s",
    "bench.compute_z": "cuba.overapprox_s",
    "bench.generator_analysis": "cuba.generators_s",
    "bench.shallow_configs_psa": "pds.saturation_s",
    "bench.fingerprint": "service.fingerprint_s",
    "explicit.level": "reach.explicit.level_s",
    "explicit.saturation": "reach.explicit.level_s",
    "explicit.saturation_fanout": "reach.explicit.level_s",
    "explicit.replay_sharded": "reach.explicit.level_s",
    "symbolic.level": "reach.symbolic.level_s",
    "wuba.level": "reach.wuba.level_s",
    "canonical.form": "automata.canonical_s",
    "canonical.hopcroft_incremental": "automata.canonical_s",
    "service.request": "service.request_s",
    "executor.dispatch": "executor.ipc_s",
    "snapshot.encode": "snapshot.encode_s",
    "snapshot.decode": "snapshot.decode_s",
    "store.transaction": "store.txn_s",
}

#: METER counters reported as per-layer counts.
COUNTERS = (
    "explicit.expansions",
    "explicit.level_unique_views",
    "overapprox.abstract_steps",
    "post_star.rule_applications",
    "symbolic.expansions",
    "wuba.expansions",
    "snapshot.save_bytes",
    "service.resumes",
    "service.engine_runs",
    "store.busy_retries",
)


def instrument() -> Callable[[], None]:
    """Wrap the :data:`WRAPPED` functions in spans; return the undo.

    Only modules already imported are rebound, so callers import the
    layers they drive first.  The wrappers cost one no-op context
    manager while tracing is off."""
    patched: list[tuple[object, str, object]] = []
    for module_name, attribute, span_name in WRAPPED:
        __import__(module_name)
        original = getattr(sys.modules[module_name], attribute)
        wrapper = _spanned(original, span_name)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            if getattr(module, attribute, None) is original:
                patched.append((module, attribute, original))
                setattr(module, attribute, wrapper)

    def undo() -> None:
        for module, attribute, original in reversed(patched):
            setattr(module, attribute, original)

    return undo


def _spanned(fn, span_name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.span(span_name):
            return fn(*args, **kwargs)

    return wrapper


def chrome_records(chrome: dict) -> list[dict]:
    """Span records (seconds, ids, parent links) from a ``GET /trace``
    Chrome trace-event payload."""
    return [
        {
            "name": event["name"],
            "dur": event["dur"] / 1e6,
            "id": event["args"]["span_id"],
            "parent": event["args"]["parent_id"],
        }
        for event in chrome["traceEvents"]
    ]


def self_times(records: list[dict]) -> dict[str, float]:
    """Self seconds per span name: each span's duration minus the
    durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            covered[record["parent"]] += record["dur"]
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        totals[record["name"]] += record["dur"] - covered.get(record["id"], 0.0)
    return dict(totals)


def layer_times(records: list[dict]) -> dict[str, float]:
    """Self seconds per per-layer time metric (see :data:`LAYER_OF`)."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(records).items():
        if name in LAYER_OF:
            layers[LAYER_OF[name]] += seconds
    return dict(layers)


def span_stats(records: list[dict], name: str) -> tuple[int, float]:
    """(count, total inclusive seconds) of the spans called ``name``."""
    durations = [record["dur"] for record in records if record["name"] == name]
    return len(durations), sum(durations)


def ipc_seconds(records: list[dict]) -> tuple[int, float]:
    """(dispatches, seconds) the process executor spent outside the
    worker's engine run: each ``executor.dispatch`` span minus the
    adopted worker ``service.engine_run`` span under it."""
    engine = {
        record["parent"]: record["dur"]
        for record in records
        if record["name"] == "service.engine_run"
    }
    dispatches = [record for record in records if record["name"] == "executor.dispatch"]
    return len(dispatches), sum(
        record["dur"] - engine.get(record["id"], 0.0) for record in dispatches
    )


class Scrape:
    """One parsed ``/metrics`` exposition, with delta helpers."""

    def __init__(self, text: str) -> None:
        self.samples = parse_text(text)

    def counter(self, name: str) -> float:
        family = self.samples.get(f"cuba_{sanitize(name)}_total", {})
        return sum(family.values())

    def histogram(self, name: str, **labels) -> tuple[float, float]:
        """(count, sum seconds) of histogram ``name`` over the label
        sets matching ``labels``."""
        want = {(key, str(value)) for key, value in labels.items()}

        def total(suffix: str) -> float:
            family = self.samples.get(f"cuba_{sanitize(name)}_seconds_{suffix}", {})
            return sum(value for key, value in family.items() if want <= set(key))

        return total("count"), total("sum")


def counter_deltas(before: Scrape, after: Scrape) -> dict[str, float]:
    return {name: after.counter(name) - before.counter(name) for name in COUNTERS}


def histogram_delta(before: Scrape, after: Scrape, name: str, **labels) -> tuple[float, float]:
    count_0, sum_0 = before.histogram(name, **labels)
    count_1, sum_1 = after.histogram(name, **labels)
    return count_1 - count_0, sum_1 - sum_0


def mean_ms(count: float, seconds: float) -> float:
    return seconds / count * 1000.0 if count else 0.0


def hit_ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
