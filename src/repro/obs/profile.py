"""Deterministic work-accounting profiler and memory ledger.

Wall-clock profiles of this system are useless: almost every cost in
the reproduction is *simulated* (the HTTP round trip is a constant),
so a sampling profiler mostly measures the Python interpreter's mood.  What is real — and
deterministic — is the **work** each subsystem performs: interpreter
steps in the JS sandbox, tokens lexed, DOM nodes built, requests
served, AST nodes analyzed, engine scans run.  This module counts those
work units on a lightweight frame stack::

    profiler = WorkProfiler()
    with profiler.frame("scan"):
        with profiler.frame("sandbox"):
            profiler.add("js.interp.steps", 1841)

Work kinds are free-form dotted names; the load-bearing ones are
``js.interp.steps`` (interpreter steps in the JS sandbox),
``js.tokens``, ``jsengine.cache.hits``/``.misses``,
``html.nodes``, and the per-phase request/scan counts.

and aggregates them into a :class:`WorkLedger` keyed by
``(frame-stack, kind)`` so costs roll up into a call tree.  Because
every unit is an integer count attributed by deterministic code paths,
the ledger of a ``workers=4`` run is **bit-identical** to the serial
run's — the same property the scanexec merge and provenance store pin —
which makes it the currency for perf budgets: a committed
``benchmarks/perf_budget.json`` can gate CI on "did this PR make the
pipeline *do more work*", independent of runner speed.

Three consumers sit on top:

* flamegraph tooling — :meth:`WorkLedger.to_collapsed` (Brendan Gregg
  collapsed-stack lines) and :meth:`WorkLedger.to_speedscope`
  (https://www.speedscope.app sampled-profile JSON);
* the run report — a "Work profile" section of top-N hot paths;
* the CI gate — :func:`check_budget` against the committed budget file.

The companion :class:`MemoryLedger` snapshots tracemalloc around each
pipeline phase (allocated delta + peak) and records object counts for
the big in-memory populations (simweb sites/pages, crawl records,
provenance records) — the before-picture ROADMAP item 3's bounded-
memory storage rewrite will be judged against.  Memory numbers are
*not* part of the bit-identity contract (allocator behaviour is the
interpreter's business); only the work ledger is.
"""

from __future__ import annotations

import json
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "WorkProfiler",
    "WorkLedger",
    "MemoryLedger",
    "PhaseMemory",
    "BudgetEntry",
    "BudgetResult",
    "check_budget",
    "build_budget",
    "render_work_table",
    "render_budget_table",
]

#: the frame-stack key: outermost frame first
StackKey = Tuple[str, ...]


class WorkLedger:
    """Aggregated work units keyed by ``(frame stack, kind)``.

    Amounts are integral counts added in arbitrary order; integer sums
    in float arithmetic are exact (well below 2**53), so aggregation
    order — serial loop vs shard-replay — cannot perturb the totals.
    """

    def __init__(self) -> None:
        self.cells: Dict[Tuple[StackKey, str], float] = {}

    # -- writing -------------------------------------------------------------
    def add(self, stack: StackKey, kind: str, amount: float = 1.0) -> None:
        key = (stack, kind)
        self.cells[key] = self.cells.get(key, 0.0) + amount

    def merge(self, other: "WorkLedger") -> None:
        for (stack, kind), amount in other.cells.items():
            self.add(stack, kind, amount)

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __bool__(self) -> bool:
        return bool(self.cells)

    def total(self, kind: str) -> float:
        return sum(amount for (_stack, k), amount in self.cells.items() if k == kind)

    def totals_by_kind(self) -> Dict[str, float]:
        """Per-kind grand totals — the quantities the budget gate reads."""
        out: Dict[str, float] = {}
        for (_stack, kind), amount in self.cells.items():
            out[kind] = out.get(kind, 0.0) + amount
        return dict(sorted(out.items()))

    def rows(self) -> List[Tuple[StackKey, str, float]]:
        """Every cell as ``(stack, kind, units)``, sorted for stable output."""
        return sorted(
            ((stack, kind, amount) for (stack, kind), amount in self.cells.items()),
            key=lambda row: (row[0], row[1]),
        )

    def hot_paths(self, top: int = 10) -> List[Tuple[StackKey, str, float]]:
        """The ``top`` most expensive cells, heaviest first.

        Units of different kinds are not commensurable (an interpreter
        step is not a byte), so "heaviest" is within the raw counts —
        good enough to point at the loops that dominate, which is the
        question a profile answers.
        """
        ranked = sorted(
            ((stack, kind, amount) for (stack, kind), amount in self.cells.items()),
            key=lambda row: (-row[2], row[0], row[1]),
        )
        return ranked[:top]

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """``{stack-path: {kind: units}}`` with ``;``-joined stacks."""
        out: Dict[str, Dict[str, float]] = {}
        for stack, kind, amount in self.rows():
            out.setdefault(";".join(stack), {})[kind] = amount
        return out

    def to_json(self) -> str:
        """Canonical JSON — byte-comparable across runs and worker counts."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Dict[str, float]]) -> "WorkLedger":
        ledger = cls()
        for path, kinds in data.items():
            stack = tuple(path.split(";")) if path else ()
            for kind, amount in kinds.items():
                ledger.add(stack, kind, float(amount))
        return ledger

    # -- flamegraph exports --------------------------------------------------
    def to_collapsed(self) -> str:
        """Brendan Gregg collapsed-stack lines: ``a;b;kind units``.

        The work kind becomes the leaf frame, so a flamegraph shows the
        counter *inside* the frame that incurred it.  Frame names are
        sanitised (``;`` and whitespace are structural in the format).
        """
        lines = []
        for stack, kind, amount in self.rows():
            frames = [_collapsed_frame(name) for name in stack] + [_collapsed_frame(kind)]
            lines.append("%s %d" % (";".join(frames), round(amount)))
        return "\n".join(lines)

    def to_speedscope(self, name: str = "repro work profile") -> Dict[str, object]:
        """A speedscope ``sampled`` profile: one sample per ledger cell,
        weighted by its work units (open the file at speedscope.app)."""
        frame_index: Dict[str, int] = {}
        frames: List[Dict[str, str]] = []

        def index_of(frame_name: str) -> int:
            index = frame_index.get(frame_name)
            if index is None:
                index = frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            return index

        samples: List[List[int]] = []
        weights: List[float] = []
        for stack, kind, amount in self.rows():
            samples.append([index_of(f) for f in stack] + [index_of(kind)])
            weights.append(amount)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }],
            "activeProfileIndex": 0,
            "exporter": "repro.obs.profile",
            "name": name,
        }


def _collapsed_frame(name: str) -> str:
    return name.replace(";", ":").replace(" ", "_")


class WorkProfiler:
    """Frame stack + ledger: the live object instrumentation writes to.

    Single-threaded by the same contract as the
    :class:`~repro.obs.observer.RunObserver` that owns it; worker
    threads buffer ``work``/``frame`` calls in a
    :class:`~repro.phasexec.recording.RecordingObserver` and the
    executor replays them on the main thread, which reconstructs the
    same stacks — aggregation is order-independent, so the ledger stays
    bit-identical to a serial run.
    """

    def __init__(self) -> None:
        self.ledger = WorkLedger()
        self._stack: List[str] = []
        #: cached tuple key, rebuilt only on push/pop — ``add`` is called
        #: far more often than ``frame`` and must stay one dict update
        self._key: StackKey = ()

    @property
    def stack(self) -> StackKey:
        return self._key

    def push(self, name: str) -> None:
        self._stack.append(name)
        self._key = tuple(self._stack)

    def pop(self) -> None:
        self._stack.pop()
        self._key = tuple(self._stack)

    @contextmanager
    def frame(self, name: str) -> Iterator[None]:
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def add(self, kind: str, amount: float = 1.0) -> None:
        self.ledger.add(self._key, kind, amount)


# ---------------------------------------------------------------------------
# Memory ledger
# ---------------------------------------------------------------------------
@dataclass
class PhaseMemory:
    """tracemalloc accounting for one pipeline phase."""

    #: net bytes still allocated when the phase ended (its survivors)
    allocated_bytes: int = 0
    #: peak traced bytes observed during the phase
    peak_bytes: int = 0
    #: traced bytes live when the phase started (context for the peak)
    start_bytes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "allocated_bytes": self.allocated_bytes,
            "peak_bytes": self.peak_bytes,
            "start_bytes": self.start_bytes,
        }


class MemoryLedger:
    """Per-phase tracemalloc snapshots plus object-population gauges.

    Tracing starts lazily on the first :meth:`phase` and is stopped by
    :meth:`close` *only* if this ledger started it — a surrounding
    profiler session keeps ownership of its own tracing.  Numbers here
    are diagnostic, not part of any bit-identity gate.
    """

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseMemory] = {}
        self.objects: Dict[str, int] = {}
        self._started_tracing = False

    def _ensure_tracing(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseMemory]:
        """Measure a phase; records even when the body raises."""
        self._ensure_tracing()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        record = PhaseMemory(start_bytes=start)
        # record under a unique name up front so a crash mid-phase still
        # leaves its partial accounting visible
        self.phases[name] = record
        try:
            yield record
        finally:
            current, peak = tracemalloc.get_traced_memory()
            record.allocated_bytes = current - start
            record.peak_bytes = peak

    def count_objects(self, name: str, count: int) -> None:
        """Gauge one object population (e.g. ``crawl.records``)."""
        self.objects[name] = int(count)

    @property
    def peak_bytes(self) -> int:
        return max((p.peak_bytes for p in self.phases.values()), default=0)

    def close(self) -> None:
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracing = False

    def __enter__(self) -> "MemoryLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def to_dict(self) -> Dict[str, object]:
        return {
            "phases": {name: phase.to_dict()
                       for name, phase in sorted(self.phases.items())},
            "objects": dict(sorted(self.objects.items())),
            "peak_bytes": self.peak_bytes,
        }


# ---------------------------------------------------------------------------
# Perf-budget gate
# ---------------------------------------------------------------------------
@dataclass
class BudgetEntry:
    """One work kind's measured-vs-budget comparison."""

    kind: str
    budget: float
    measured: float
    #: "ok" | "over" | "under" | "unbudgeted" | "absent"
    status: str

    @property
    def ratio(self) -> float:
        return self.measured / self.budget if self.budget else float("inf")

    @property
    def drift_pct(self) -> float:
        return 100.0 * (self.ratio - 1.0) if self.budget else 0.0


@dataclass
class BudgetResult:
    """The whole gate decision: regressions fail, everything else warns."""

    entries: List[BudgetEntry] = field(default_factory=list)
    tolerance: float = 0.10

    @property
    def regressions(self) -> List[BudgetEntry]:
        return [e for e in self.entries if e.status == "over"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def check_budget(totals: Dict[str, float], budget: Dict[str, object]) -> BudgetResult:
    """Compare measured per-kind work totals against a budget document.

    ``budget`` is the parsed ``benchmarks/perf_budget.json``::

        {"meta": {...pinned run parameters...},
         "tolerance": 0.10,
         "budgets": {"js.interp.steps": 123456, ...}}

    A kind regresses when ``measured > budget * (1 + tolerance)`` —
    the build should fail.  A kind far *under* budget is flagged
    ``under`` (refresh the budget to keep the gate tight), new kinds
    are ``unbudgeted``, and budgeted kinds that vanished are
    ``absent``; none of those fail the gate on their own.
    """
    tolerance = float(budget.get("tolerance", 0.10))  # type: ignore[arg-type]
    budgets = budget.get("budgets", {})
    if not isinstance(budgets, dict):
        raise ValueError("budget document has no 'budgets' mapping")
    result = BudgetResult(tolerance=tolerance)
    for kind in sorted(set(budgets) | set(totals)):
        allowed = float(budgets.get(kind, 0.0))
        measured = float(totals.get(kind, 0.0))
        if kind not in budgets:
            status = "unbudgeted"
        elif kind not in totals or measured == 0.0:
            status = "absent"
        elif measured > allowed * (1.0 + tolerance):
            status = "over"
        elif measured < allowed * (1.0 - tolerance):
            status = "under"
        else:
            status = "ok"
        result.entries.append(BudgetEntry(kind=kind, budget=allowed,
                                          measured=measured, status=status))
    return result


def build_budget(totals: Dict[str, float], meta: Optional[Dict[str, object]] = None,
                 tolerance: float = 0.10) -> Dict[str, object]:
    """The budget document for the current measured totals."""
    return {
        "meta": dict(meta or {}),
        "tolerance": tolerance,
        "budgets": {kind: amount for kind, amount in sorted(totals.items())},
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_work_table(ledger: WorkLedger, top: int = 10) -> str:
    """The `repro profile` hot-path table: top cells plus kind totals."""
    lines = ["Work profile — top %d hot paths" % top, ""]
    rows = ledger.hot_paths(top)
    if not rows:
        lines.append("  (no work recorded — was the profiler enabled?)")
        return "\n".join(lines)
    width = max(len(";".join(stack) or "(root)") for stack, _k, _a in rows)
    width = max(width, len("path"))
    lines.append("  %-*s  %-22s %14s" % (width, "path", "kind", "units"))
    for stack, kind, amount in rows:
        lines.append("  %-*s  %-22s %14d"
                     % (width, ";".join(stack) or "(root)", kind, round(amount)))
    lines.append("")
    lines.append("Totals by kind")
    for kind, amount in ledger.totals_by_kind().items():
        lines.append("  %-30s %14d" % (kind, round(amount)))
    return "\n".join(lines)


def render_budget_table(result: BudgetResult) -> str:
    """Human-readable gate verdict, regressions first."""
    order = {"over": 0, "under": 1, "unbudgeted": 2, "absent": 3, "ok": 4}
    entries = sorted(result.entries, key=lambda e: (order[e.status], e.kind))
    lines = ["Perf budget (tolerance ±%.0f%%): %s"
             % (100 * result.tolerance,
                "OK" if result.ok else "%d REGRESSION(S)" % len(result.regressions)),
             ""]
    lines.append("  %-10s %-30s %14s %14s %9s" % ("status", "kind", "budget", "measured", "drift"))
    for entry in entries:
        drift = ("%+8.1f%%" % entry.drift_pct) if entry.budget else "      new"
        lines.append("  %-10s %-30s %14d %14d %s"
                     % (entry.status, entry.kind, round(entry.budget),
                        round(entry.measured), drift))
    return "\n".join(lines)
