"""The benchmark's problems, their wire forms, and the verdict check.

Every verdict any workload obtains is checked against Table 2's ``safe``
column (:data:`repro.models.registry.TABLE2`), the independent
reference.  :class:`Tally` is the one place that does it, so the three
workloads count attempts, decided verdicts and failures identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.property import AlwaysSafe, SharedStateReachability
from repro.models.registry import Benchmark, runnable_benchmarks, smallest_per_row
from repro.reach import registry

#: Shallow bound of the first submission of each ``serve-cold`` problem;
#: the second submission asks for the row's full bound and resumes from
#: the snapshot the first one stored.
SHALLOW_ROUNDS = 2

#: Named lanes ``serve-cold`` submits each problem on (when applicable).
COLD_LANES = ("explicit", "symbolic", "wuba")

_CONCLUSIVE = {"safe": True, "unsafe": False}


def expected_verdicts() -> dict[str, bool]:
    """Table 2's ``safe`` column by benchmark name."""
    return {bench.name: bench.safe for bench in runnable_benchmarks()}


@dataclass
class Tally:
    """Attempts, decided verdicts and failures of one workload run.

    A failure is a conclusive verdict that contradicts Table 2, an
    error, or a timeout.  ``unknown`` is undecided, not failed: the
    paper's algorithms are semi-decision procedures."""

    expected: dict[str, bool] = field(default_factory=expected_verdicts)
    attempted: int = 0
    decided: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, verdict: str | None, error: str | None = None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")
            return
        if verdict == "unknown":
            return
        if verdict not in _CONCLUSIVE:
            self.failures.append(f"{name}: unexpected verdict {verdict!r}")
            return
        self.decided += 1
        if _CONCLUSIVE[verdict] != self.expected[name]:
            want = "safe" if self.expected[name] else "unsafe"
            self.failures.append(f"{name}: verdict {verdict}, Table 2 says {want}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def decided_share(self) -> float:
        return self.decided / self.attempted if self.attempted else 0.0


def _wire_sources() -> dict[str, dict]:
    """Submit keyword arguments of every Table 2 configuration the
    service workloads send, keyed by benchmark name.  Boolean programs
    travel as source text (with the same ``init`` the model builders
    pass); Stefan-1 is a hand-built CPDS and travels as CPDS text."""
    from repro.cpds import format_cpds
    from repro.models.bluetooth import bluetooth_source
    from repro.models.bst import bst_source
    from repro.models.dekker import dekker_source
    from repro.models.filecrawler import filecrawler_source
    from repro.models.proc2 import proc2_source
    from repro.models.stefan import stefan

    return {
        "1/Bluetooth-1 [1+1]": dict(bp_text=bluetooth_source(1, 1, 1), bp_init={"p0": 1}),
        "2/Bluetooth-2 [1+1]": dict(bp_text=bluetooth_source(2, 1, 1), bp_init={"p0": 1}),
        "3/Bluetooth-3 [1+1]": dict(bp_text=bluetooth_source(3, 1, 1), bp_init={"p0": 1}),
        "4/BST-Insert [1+1]": dict(bp_text=bst_source(1, 1), bp_init={"inv": 1}),
        "5/FileCrawler [1•+2]": dict(bp_text=filecrawler_source(2)),
        "7/Proc-2 [2+2•]": dict(bp_text=proc2_source()),
        "8/Stefan-1 [2]": dict(cpds_text=format_cpds(stefan(2)[0])),
        "9/Dekker [2•]": dict(bp_text=dekker_source()),
    }


@dataclass(frozen=True)
class WireProblem:
    """One service problem: a Table 2 configuration, the lane it is
    submitted on, and its submit keyword arguments."""

    bench: Benchmark
    lane: str
    kwargs: dict

    @property
    def name(self) -> str:
        return self.bench.name

    @property
    def label(self) -> str:
        return f"{self.bench.name} @{self.lane}"


def service_rows() -> list[tuple[Benchmark, tuple[str, ...], dict]]:
    """The smallest configuration of each row whose property has a
    service wire form (K-Induction's mutual-exclusion property has
    none): (benchmark, applicable lanes, submit keyword arguments).

    Raises unless every row's wire form compiles to the same problem
    fingerprint as the registry build, so the service is asked exactly
    the Table 2 problem its verdict is checked against."""
    from repro.bp.translate import compile_source
    from repro.cpds.format import parse_cpds
    from repro.service.fingerprint import fingerprint

    sources = _wire_sources()
    rows = []
    for bench in smallest_per_row(lambda bench: bench.name in sources):
        cpds, prop = bench.build()
        if not isinstance(prop, (SharedStateReachability, AlwaysSafe)):
            raise RuntimeError(f"{bench.name} has no property wire form")
        kwargs = sources[bench.name]
        if "bp_text" in kwargs:
            compiled = compile_source(kwargs["bp_text"], init=kwargs.get("bp_init") or {})
            sent = fingerprint(compiled.cpds, compiled.prop)
        else:
            sent = fingerprint(parse_cpds(kwargs["cpds_text"]), AlwaysSafe())
        if sent != fingerprint(cpds, prop):
            raise RuntimeError(f"wire form of {bench.name} is not the registry problem")
        rows.append((bench, registry.applicable_lanes(cpds, prop), kwargs))
    return rows


def cold_problems(rows: list[tuple[Benchmark, tuple[str, ...], dict]]) -> list[WireProblem]:
    """Each service row on every applicable named lane."""
    return [
        WireProblem(bench, lane, kwargs)
        for bench, applicable, kwargs in rows
        for lane in COLD_LANES
        if lane in applicable
    ]


def hot_problems(rows: list[tuple[Benchmark, tuple[str, ...], dict]]) -> list[WireProblem]:
    """Each service row on the auto lane (what ``serve-hot`` warms and
    resubmits)."""
    return [WireProblem(bench, "auto", kwargs) for bench, _lanes, kwargs in rows]


def rounds(items: list, count: int, rng: random.Random) -> list:
    """``count`` picks from ``items`` in whole shuffled rounds: every
    item appears equally often (up to the last, partial round), so the
    request mix does not vary with the seed — only the order does."""
    picks: list = []
    while len(picks) < count:
        batch = list(items)
        rng.shuffle(batch)
        picks.extend(batch)
    return picks[:count]
