"""The repository benchmark: one command, three workloads, checked verdicts.

    python3 perfbench/run.py --workload verify-table2 --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists and which layer it loads):

* ``verify-table2`` — cold serial in-process ``Cuba.verify`` passes over
  every runnable Table 2 row;
* ``serve-cold`` — a fresh store and ``cuba serve`` daemon per pass,
  every wire-form row on every applicable named lane, shallow then full;
* ``serve-hot`` — a warmed daemon answering resubmissions from its
  store, open loop at a fixed rate.

Every conclusive verdict is checked against Table 2.  ``--trace 0``
reports the end-to-end metrics, times in reference seconds (see
``probe.py``); ``--trace 1`` measures the workload untraced and traced
and reports the per-layer metrics instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A per-run summary, seed included, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from env import OUT, ROOT, use_source_tree

#: Seconds one run measures, as ``BENCHMARK.json`` tells the caller.
RUN_SECONDS = 30

WORKLOADS = {
    "verify-table2": "the paper's experiment: a cold serial in-process Cuba.verify pass "
    "over every runnable Table 2 row; loads bp, cuba FCR/overapprox, reach.explicit; no service",
    "serve-cold": "the service write path: fresh store and daemon, each wire row on each "
    "named lane, shallow then full bound; loads worker engine runs, snapshots, store, resumes",
    "serve-hot": "store hits only: resubmissions of warmed rows as bp/cpds text in an open "
    "loop; loads bp compile, fingerprint and store read; engine bypassed",
}

#: End-to-end metrics — (name, unit, better, bound) — the same names on
#: every workload; their meaning per workload is in README.md.
#: Times are in reference seconds: wall seconds scaled by the run's
#: probe (``probe.py``), which takes out most of the shared host's drift.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("suite_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("decided_share", "ratio", "higher", 0.05),
)

#: Per-layer metrics of the traced run — (name, unit, better); a layer
#: a workload does not reach reads 0.
PER_LAYER = (
    ("bp.compile_s", "s", "lower"),
    ("service.fingerprint_s", "s", "lower"),
    ("service.prepare_ms", "ms", "lower"),
    ("cuba.fcr_s", "s", "lower"),
    ("cuba.overapprox_s", "s", "lower"),
    ("cuba.generators_s", "s", "lower"),
    ("pds.saturation_s", "s", "lower"),
    ("reach.explicit.level_s", "s", "lower"),
    ("reach.symbolic.level_s", "s", "lower"),
    ("reach.wuba.level_s", "s", "lower"),
    ("automata.canonical_s", "s", "lower"),
    ("canonical.hit_ratio", "ratio", "higher"),
    ("explicit.expansions", "count", "lower"),
    ("explicit.level_unique_views", "count", "lower"),
    ("overapprox.abstract_steps", "count", "lower"),
    ("post_star.rule_applications", "count", "lower"),
    ("symbolic.expansions", "count", "lower"),
    ("wuba.expansions", "count", "lower"),
    ("service.queue_ms", "ms", "lower"),
    ("service.request_ms.explicit", "ms", "lower"),
    ("service.request_ms.symbolic", "ms", "lower"),
    ("service.request_ms.wuba", "ms", "lower"),
    ("executor.ipc_ms", "ms", "lower"),
    ("snapshot.encode_ms", "ms", "lower"),
    ("snapshot.decode_ms", "ms", "lower"),
    ("snapshot.save_bytes", "B", "lower"),
    ("store.txn_ms", "ms", "lower"),
    ("store.read_ms", "ms", "lower"),
    ("service.resumes", "count", "higher"),
    ("service.engine_runs", "count", "lower"),
    ("service.store_hit_ratio", "ratio", "higher"),
    ("store.busy_retries", "count", "lower"),
    ("loadgen.late_ms_p90", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

def _run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if name == "verify-table2":
        import inproc

        return inproc.run(seed, seconds, traced)
    import serve

    if name == "serve-cold":
        return serve.run_cold(seed, seconds, traced)
    return serve.run_hot(seed, seconds, traced)


def _metrics(result: dict, traced: bool) -> dict:
    if traced:
        layers = result["layers"]
        return {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    return {
        name: {"value": float(result[name]), "unit": unit}
        for name, unit, _better, _bound in END_TO_END
    }


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``, from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def _summary(name: str, seed: int, traced: bool, result: dict, metrics: dict) -> list[str]:
    tally = result["tally"]
    lines = [f"workload: {name}", f"seed: {seed}", f"trace: {int(traced)}"]
    for key in ("passes", "verdicts", "submits", "requests"):
        if key in result:
            lines.append(f"{key}: {result[key]}")
    lines.append(
        f"failed_share: {tally.failed_share} ratio "
        f"({tally.failed} of {tally.attempted} attempts)"
    )
    if "store_hit_ratio" in result:
        lines.append(f"store_hit_ratio: {result['store_hit_ratio']}")
    for key in ("traced_wall_s", "verdict_path_share"):
        if key in result.get("layers", {}):
            lines.append(f"{key}: {result['layers'][key]}")
    for metric, entry in metrics.items():
        lines.append(f"{metric} = {entry['value']} {entry['unit']}")
    if "speed" in result:
        speed = result["speed"]
        lines.append(
            f"probe: median {speed.probe_ms_p50:.1f} ms over {len(speed.samples)} samples, "
            f"scale {speed.scale:.4f} reference s per wall s"
        )
        lines.extend(f"wall {key} = {value}" for key, value in result["wall"].items())
    for label, seconds in sorted(result.get("by_problem", {}).items()):
        lines.append(f"  median {label}: {seconds * 1000.0:.1f} ms")
    lines.extend(f"FAILED {failure}" for failure in tally.failures)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write-benchmark-json",
        action="store_true",
        help="write BENCHMARK.json at the checkout root from the metric tables and exit",
    )
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    # A terminated run unwinds like an error, so the daemons it started
    # are stopped by their ``finally`` blocks rather than orphaned.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    use_source_tree()
    OUT.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    result = _run_workload(args.workload, args.seed, args.seconds, traced)
    tally = result["tally"]
    result["decided_share"] = tally.decided_share
    metrics = _metrics(result, traced)
    lines = _summary(args.workload, args.seed, traced, result, metrics)
    summary = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    summary.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
