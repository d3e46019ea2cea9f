"""Tests for repro.obs: metrics, tracing, events, and run telemetry.

The load-bearing property is the last test: attaching an observer must
not change a single verdict — telemetry observes the run, it never
steers it.
"""

import json

import pytest

from repro import MalwareSlumsStudy, StudyConfig
from repro.crawler import CrawlPipeline, PipelineOptions
from repro.obs import (
    NULL_OBSERVER,
    EventLog,
    Histogram,
    MetricsRegistry,
    MonotonicClock,
    NullObserver,
    RunObserver,
    SimClock,
    Tracer,
    build_run_report,
    default_latency_buckets,
    render_run_report_markdown,
)


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
def test_sim_clock_advances_deterministically():
    clock = SimClock()
    assert clock.now() == 0.0
    clock.advance(0.05)
    clock.advance(0.05)
    assert clock.now() == pytest.approx(0.1)
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_monotonic_clock_starts_at_zero_and_moves_forward():
    clock = MonotonicClock()
    first = clock.now()
    second = clock.now()
    assert first >= 0.0
    assert second >= first


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    registry.counter("crawl.visits", exchange="10KHits").inc()
    registry.counter("crawl.visits", exchange="10KHits").inc(2)
    registry.counter("crawl.visits", exchange="Otohits").inc()
    assert registry.counter("crawl.visits", exchange="10KHits").value == 3
    assert registry.counter_total("crawl.visits") == 4
    with pytest.raises(ValueError):
        registry.counter("crawl.visits").inc(-1)

    gauge = registry.gauge("js.op_count")
    gauge.set(10)
    gauge.set_max(4)   # lower value must not win
    gauge.set_max(25)
    assert gauge.value == 25


def test_histogram_percentiles_log_buckets():
    hist = Histogram(default_latency_buckets())
    for _ in range(98):
        hist.observe(0.010)
    hist.observe(1.0)
    hist.observe(2.0)
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["min"] == pytest.approx(0.010)
    assert summary["max"] == pytest.approx(2.0)
    # p50 lands in the bucket containing 0.010; p99 near the tail
    assert summary["p50"] <= 0.020
    assert summary["p99"] >= 1.0
    # percentile estimates never exceed the observed max
    assert hist.percentile(1.0) <= 2.0


def test_registry_snapshot_renders_labels():
    registry = MetricsRegistry()
    registry.counter("scan.engine.detected", engine="AegisScan").inc()
    snapshot = registry.snapshot()
    assert snapshot["counters"]["scan.engine.detected{engine=AegisScan}"] == 1


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_tracer_nesting_and_deterministic_durations():
    clock = SimClock()
    tracer = Tracer(clock=clock)
    with tracer.span("crawl.exchange", exchange="10KHits"):
        clock.advance(1.0)
        with tracer.span("scan.virustotal", url="http://x/"):
            clock.advance(0.25)
    spans = {s.name: s for s in tracer.finished}
    assert spans["crawl.exchange"].duration == pytest.approx(1.25)
    assert spans["scan.virustotal"].duration == pytest.approx(0.25)
    assert spans["scan.virustotal"].depth == 1
    assert spans["scan.virustotal"].parent == "crawl.exchange"
    assert spans["crawl.exchange"].attrs["exchange"] == "10KHits"

    summary = tracer.summary()
    assert summary["crawl.exchange"]["count"] == 1
    assert summary["crawl.exchange"]["p50"] == pytest.approx(1.25)


def test_tracer_records_span_even_when_body_raises():
    clock = SimClock()
    tracer = Tracer(clock=clock)
    with pytest.raises(RuntimeError):
        with tracer.span("scan"):
            clock.advance(0.5)
            raise RuntimeError("scan blew up")
    assert len(tracer.finished) == 1
    assert tracer.finished[0].duration == pytest.approx(0.5)


def test_tracer_bounds_span_count():
    tracer = Tracer(clock=SimClock(), max_spans=3)
    for index in range(5):
        with tracer.span("s%d" % index):
            pass
    assert len(tracer.finished) == 3
    assert tracer.dropped == 2


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
def test_event_log_ring_buffer_bounds_and_jsonl():
    log = EventLog(capacity=3, clock=SimClock())
    for index in range(5):
        log.emit("crawl.exchange.done", exchange="X%d" % index)
    assert len(log) == 3
    assert log.total_emitted == 5
    assert log.dropped == 2
    kinds = [e["exchange"] for e in log.tail(3)]
    assert kinds == ["X2", "X3", "X4"]  # oldest evicted first
    lines = log.to_jsonl().strip().splitlines()
    assert len(lines) == 3
    parsed = json.loads(lines[-1])
    assert parsed["kind"] == "crawl.exchange.done"
    assert parsed["seq"] == 4


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------
def test_null_observer_is_falsy_and_inert():
    assert not NullObserver()
    assert not NULL_OBSERVER
    NULL_OBSERVER.count("anything", label="x")
    NULL_OBSERVER.observe("anything", 1.0)
    with NULL_OBSERVER.span("anything") as span:
        assert span is None


def test_run_observer_shares_one_clock():
    clock = SimClock()
    observer = RunObserver(clock=clock)
    assert observer.tracer.clock is clock
    assert observer.events.clock is clock
    clock.advance(2.0)
    observer.event("tick")
    assert observer.events.tail(1)[0]["time"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# ScanOutcome.scanned (satellite: unscanned is not benign)
# ----------------------------------------------------------------------
def test_scan_outcome_tracks_unscanned_queries():
    from repro.crawler.pipeline import ScanOutcome

    outcome = ScanOutcome()
    assert not outcome.scanned("http://never-crawled.example/")
    assert outcome.is_malicious("http://never-crawled.example/") is False
    assert outcome.unscanned_queries == 1


def test_scan_outcome_counts_unscanned_per_url():
    from repro.crawler.pipeline import ScanOutcome

    outcome = ScanOutcome()
    for _ in range(3):
        outcome.is_malicious("http://hot.example/")
    outcome.is_malicious("http://cold.example/")
    outcome.is_malicious("http://also-cold.example/")
    assert outcome.unscanned_by_url() == {
        "http://hot.example/": 3,
        "http://cold.example/": 1,
        "http://also-cold.example/": 1,
    }
    # sorted by count descending, then URL for determinism
    assert outcome.unscanned_top(2) == [
        ("http://hot.example/", 3),
        ("http://also-cold.example/", 1),
    ]


def test_unscanned_top_in_report_and_markdown():
    from repro.crawler.pipeline import ScanOutcome
    from repro.obs.report import render_run_report_markdown

    observer = RunObserver()
    pipeline = _small_pipeline(observer)
    pipeline.crawl()
    outcome = pipeline.scan()
    assert outcome.is_malicious("http://never-crawled.example/") is False
    report = build_run_report(pipeline, outcome)
    assert report["scan"]["unscanned_top"] == \
        [["http://never-crawled.example/", 1]]
    markdown = render_run_report_markdown(report)
    assert "Never-scanned URLs" in markdown
    assert "http://never-crawled.example/" in markdown


# ----------------------------------------------------------------------
# end-to-end: observed run == unobserved run, plus a real report
# ----------------------------------------------------------------------
def _small_pipeline(observer=None):
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    web = study.generate_web()
    return CrawlPipeline(web, PipelineOptions(seed=66, observer=observer))


@pytest.fixture(scope="module")
def observed_run():
    observer = RunObserver()
    pipeline = _small_pipeline(observer)
    outcome = pipeline.run()
    return pipeline, outcome, observer


def test_observer_does_not_change_verdicts(observed_run):
    _pipeline, observed, _observer = observed_run
    plain = _small_pipeline().run()
    assert set(plain.verdicts) == set(observed.verdicts)
    for url, verdict in plain.verdicts.items():
        assert repr(observed.verdicts[url]) == repr(verdict)


def test_observed_run_populates_metrics(observed_run):
    pipeline, outcome, observer = observed_run
    metrics = observer.metrics
    # per-exchange crawl counters cover every crawled exchange
    visited = {dict(counter.labels).get("exchange")
               for counter in metrics.counters_named("crawl.visits")}
    assert visited == set(pipeline.crawl_stats)
    # per-engine detections: most of the 15-engine pool fires somewhere
    engines = {dict(counter.labels).get("engine"): counter.value
               for counter in metrics.counters_named("scan.engine.detected")}
    assert len(engines) >= 10
    assert all(value > 0 for value in engines.values())
    # HTTP latency histogram saw every crawl fetch
    latency = metrics.histograms_named("http.fetch.seconds")
    assert latency and sum(h.count for h in latency) > 0
    assert metrics.counter_total("scan.urls") == len(outcome.verdicts)
    # JS sandbox gauges were driven by real script executions
    assert metrics.gauge("js.op_count").value > 0


def test_run_report_structure(observed_run):
    pipeline, outcome, _observer = observed_run
    report = build_run_report(pipeline, outcome)
    assert set(pipeline.crawl_stats) == set(report["exchanges"])
    for name, row in report["exchanges"].items():
        assert row["member_visits"] > 0, name
        assert row["urls_per_second"] > 0, name
    assert report["http"]["requests"] > 0
    assert report["scan"]["urls_scanned"] == len(outcome.verdicts)
    assert report["scan"]["malicious"] + report["scan"]["benign"] == len(outcome.verdicts)
    assert report["redirects"]["depth_counts"]
    # the whole report round-trips through JSON
    parsed = json.loads(json.dumps(report))
    assert parsed["events"]["emitted"] == report["events"]["emitted"]
    markdown = render_run_report_markdown(report)
    assert "| Exchange |" in markdown
    assert "Run telemetry" in markdown


def test_run_report_requires_observer():
    pipeline = _small_pipeline()
    with pytest.raises(ValueError):
        build_run_report(pipeline)


def test_run_report_on_empty_run():
    """Zero URLs, zero events: every section renders, nothing divides by 0."""
    pipeline = _small_pipeline(RunObserver())
    report = build_run_report(pipeline)  # no crawl, no scan, no outcome
    assert report["exchanges"] == {}
    assert report["http"]["requests"] == 0
    assert report["scan"]["urls_scanned"] == 0
    assert report["scan"]["unscanned_queries"] == 0
    assert report["staticjs"]["sandbox_skip_rate"] == 0.0
    assert report["provenance"] == {"records": 0, "stage_mix": {},
                                    "mean_stages": 0.0, "recorded_counter": 0}
    assert report["dedup"]["hit_rate"] == 0.0
    assert report["events"]["emitted"] == 0
    json.dumps(report)
    markdown = render_run_report_markdown(report)
    assert "Run telemetry" in markdown
    assert "## Dedup" in markdown


def test_run_report_parallel_matches_serial():
    """A workers=4 report agrees with the serial one section by section."""
    from repro.obs import DiffConfig, diff_reports

    def build(workers):
        study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
        web = study.generate_web()
        observer = RunObserver()
        pipeline = CrawlPipeline(web, PipelineOptions(
            seed=66, observer=observer, workers=workers, record_provenance=True))
        outcome = pipeline.run()
        return json.loads(json.dumps(build_run_report(pipeline, outcome)))

    serial = build(1)
    parallel = build(4)
    # the scanexec/crawlexec sections legitimately differ (zeros on the
    # serial path); every measurement-bearing section must agree exactly
    for section in ("exchanges", "http", "redirects", "scan", "staticjs",
                    "provenance", "dedup", "js"):
        assert parallel[section] == serial[section], section
    result = diff_reports(serial, parallel,
                          DiffConfig(ignore=("events.tail", "metrics",
                                             "scanexec", "crawlexec",
                                             "spans", "events")))
    assert result.ok, result.render_text()
