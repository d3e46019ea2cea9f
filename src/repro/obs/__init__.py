"""Observability: metrics, tracing, and structured run telemetry.

The crawl-and-scan pipeline is instrumented end to end — HTTP client,
crawlers, detection engines, JS sandbox — behind one opt-in hook::

    from repro.obs import RunObserver
    from repro.crawler import CrawlPipeline, PipelineOptions

    observer = RunObserver()
    pipeline = CrawlPipeline(web, PipelineOptions(observer=observer))
    outcome = pipeline.run()

    from repro.obs import build_run_report, render_run_report_markdown
    report = build_run_report(pipeline, outcome)       # JSON-ready dict
    print(render_run_report_markdown(report))          # human summary

With no observer attached every hook is a single ``is not None`` test:
pipeline outputs are byte-identical to an unobserved run.

Three companion layers sit on top of the observer:

- :mod:`repro.obs.provenance` — the per-URL verdict flight recorder
  (``PipelineOptions(record_provenance=True)``, rendered by
  ``repro explain <url>``);
- :mod:`repro.obs.export` — Chrome-trace-format span export
  (``repro obs-report --trace-out``);
- :mod:`repro.obs.diff` — structural run-report diffing for regression
  gates (``repro obs-diff baseline.json candidate.json``);
- :mod:`repro.obs.live` — streaming in-flight telemetry: sliding-window
  time series, phase/shard heartbeats, a stall/storm/drift watchdog,
  and the JSON-lines status sink ``repro watch`` tails
  (``CrawlPipeline(PipelineOptions(status_path=...))``), plus an
  OpenMetrics text export (``repro obs-report --openmetrics-out``).
"""

from .clock import Clock, MonotonicClock, SimClock
from .diff import DiffConfig, DiffEntry, RunDiff, diff_reports
from .events import EventLog
from .export import (
    build_chrome_trace,
    render_openmetrics,
    write_chrome_trace,
    write_openmetrics,
)
from .live import (
    HealthFinding,
    LiveRunState,
    LiveTelemetry,
    TimeSeries,
    TimeSeriesStore,
    Watchdog,
    fold_status_lines,
    load_status_snapshot,
    parse_status_text,
    render_status_text,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_count_buckets,
    default_latency_buckets,
)
from .observer import RunObserver
from .profile import (
    BudgetEntry,
    BudgetResult,
    MemoryLedger,
    PhaseMemory,
    WorkLedger,
    WorkProfiler,
    build_budget,
    check_budget,
    render_budget_table,
    render_work_table,
)
from .provenance import (
    ProvenanceStore,
    StageRecord,
    VerdictProvenance,
    render_provenance,
)
from .report import attach_status_section, build_run_report, render_run_report_markdown
from .tracing import Span, Tracer

__all__ = [
    "BudgetEntry",
    "BudgetResult",
    "Clock",
    "Counter",
    "DiffConfig",
    "DiffEntry",
    "EventLog",
    "Gauge",
    "HealthFinding",
    "Histogram",
    "LiveRunState",
    "LiveTelemetry",
    "MemoryLedger",
    "MetricsRegistry",
    "MonotonicClock",
    "PhaseMemory",
    "ProvenanceStore",
    "RunDiff",
    "RunObserver",
    "SimClock",
    "Span",
    "StageRecord",
    "TimeSeries",
    "TimeSeriesStore",
    "Tracer",
    "VerdictProvenance",
    "Watchdog",
    "WorkLedger",
    "WorkProfiler",
    "attach_status_section",
    "build_budget",
    "build_chrome_trace",
    "build_run_report",
    "check_budget",
    "default_count_buckets",
    "default_latency_buckets",
    "diff_reports",
    "fold_status_lines",
    "load_status_snapshot",
    "parse_status_text",
    "render_budget_table",
    "render_openmetrics",
    "render_provenance",
    "render_run_report_markdown",
    "render_status_text",
    "render_work_table",
    "write_chrome_trace",
    "write_openmetrics",
]
