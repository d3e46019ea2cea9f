"""Tests for repro.crawlexec: exchange sharding, merge determinism.

The load-bearing property is ISSUE-level: a parallel crawl
(``workers=4``) must be *bit-identical* to the serial reference — same
per-exchange stats, same dataset records and HAR timestamps, same
verdicts and provenance chains downstream — for a fixed seed.  Anything
the merge cannot reconcile exactly (rotation overlap, a wall clock)
must fall back to the bit-exact serial loop.
"""

from __future__ import annotations

import json

import pytest

from repro.crawler import CrawlPipeline, PipelineOptions
from repro.crawlexec import CrawlExecution, ParallelCrawlExecutor
from repro.httpsim import HarLog
from repro.obs import RunObserver, build_run_report
from repro.obs.clock import SimClock
from repro.phasexec import InlineExecutor, PhaseExecutor
from repro.scanexec import ParallelScanExecutor
from repro.simweb.generator import WebGenerationConfig, WebGenerator

SEED = 2016
SCALE = 0.005


def _build_web():
    return WebGenerator(WebGenerationConfig(seed=SEED, scale=SCALE)).build()


def _run_pipeline(workers, crawl_executor=None, crawl_only=False):
    observer = RunObserver()
    pipeline = CrawlPipeline(_build_web(), PipelineOptions(
        seed=SEED + 61, observer=observer, workers=workers,
        record_provenance=True))
    if crawl_executor is not None:
        pipeline.crawl_executor = crawl_executor
    if crawl_only:
        pipeline.crawl()
        return pipeline, None, observer
    outcome = pipeline.run()
    return pipeline, outcome, observer


@pytest.fixture(scope="module")
def serial_run():
    return _run_pipeline(workers=1)


@pytest.fixture(scope="module")
def parallel_run():
    return _run_pipeline(workers=4)


def _har_view(pipeline):
    return {name: [(r.transaction.url, r.transaction.response.status, r.referrer, r.started)
                   for r in HarLog(records).requests()]
            for name, records in pipeline.dataset.exchange_records.items()}


class TestBitIdenticalParity:
    def test_crawl_stats(self, serial_run, parallel_run):
        assert parallel_run[0].crawl_stats == serial_run[0].crawl_stats

    def test_dataset_records(self, serial_run, parallel_run):
        assert parallel_run[0].dataset.records == serial_run[0].dataset.records

    def test_content_cache(self, serial_run, parallel_run):
        assert parallel_run[0].dataset.content == serial_run[0].dataset.content

    def test_har_logs_including_timestamps(self, serial_run, parallel_run):
        assert _har_view(parallel_run[0]) == _har_view(serial_run[0])

    def test_verdicts_values_and_order(self, serial_run, parallel_run):
        serial = list(serial_run[1].verdicts.items())
        parallel = list(parallel_run[1].verdicts.items())
        assert parallel == serial

    def test_provenance_chains(self, serial_run, parallel_run):
        serial = serial_run[1].provenance
        parallel = parallel_run[1].provenance
        assert serial is not None and parallel is not None
        assert parallel.to_jsonl() == serial.to_jsonl()

    def test_report_json_identical_outside_executor_sections(
            self, serial_run, parallel_run):
        def build(run):
            pipeline, outcome, _ = run
            report = json.loads(json.dumps(build_run_report(pipeline, outcome)))
            # executor telemetry legitimately exists only on the
            # parallel run; everything measurement-bearing must match
            for section in ("scanexec", "crawlexec", "metrics", "spans",
                            "events"):
                report.pop(section, None)
            return report

        assert build(parallel_run) == build(serial_run)


class TestExecutionAccounting:
    def test_serial_pipeline_uses_serial_loop(self, serial_run):
        assert serial_run[0].last_crawl_execution is None

    def test_parallel_execution_summary(self, parallel_run):
        execution = parallel_run[0].last_crawl_execution
        assert isinstance(execution, CrawlExecution)
        assert not execution.fallback_serial
        assert execution.workers == 4
        assert len(execution.shard_stats) == len(parallel_run[0].exchanges)

    def test_crawlexec_metrics_emitted(self, parallel_run):
        metrics = parallel_run[2].metrics
        execution = parallel_run[0].last_crawl_execution
        assert metrics.gauge("crawlexec.workers").value == 4
        assert metrics.counter_total("crawlexec.shards") == \
            len(execution.shard_stats)
        assert metrics.counter_total("crawlexec.fallback.serial") == 0

    def test_both_executors_implement_phase_executor(self):
        assert isinstance(ParallelCrawlExecutor(), PhaseExecutor)
        assert isinstance(ParallelScanExecutor(), PhaseExecutor)


class TestSerialFallback:
    def test_rotation_overlap_falls_back_bit_exactly(self, serial_run):
        class OverlappingExecutor(ParallelCrawlExecutor):
            def _rotation_overlap(self, pipeline, results):
                return True

        pipeline, _, observer = _run_pipeline(
            workers=4, crawl_executor=OverlappingExecutor(workers=4),
            crawl_only=True)
        execution = pipeline.last_crawl_execution
        assert execution.fallback_serial
        assert pipeline.crawl_stats == serial_run[0].crawl_stats
        assert _har_view(pipeline) == _har_view(serial_run[0])
        assert observer.metrics.counter_total("crawlexec.fallback.serial") == 1

    def test_non_sim_clock_forces_serial(self, serial_run):
        class _DelegatingClock:
            """Ticks like a SimClock without being one."""

            def __init__(self):
                self._inner = SimClock()

            def now(self):
                return self._inner.now()

            def advance(self, seconds):
                self._inner.advance(seconds)

        observer = RunObserver()
        pipeline = CrawlPipeline(_build_web(), PipelineOptions(
            seed=SEED + 61, observer=observer, workers=4))
        pipeline.client.clock = _DelegatingClock()
        pipeline.crawl()
        execution = pipeline.last_crawl_execution
        assert execution.fallback_serial
        assert not execution.shard_stats
        assert pipeline.crawl_stats == serial_run[0].crawl_stats


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 3, 5, 9])
    def test_any_width_matches_serial(self, workers, serial_run):
        pipeline, _, _ = _run_pipeline(workers=workers, crawl_only=True)
        assert pipeline.crawl_stats == serial_run[0].crawl_stats
        assert pipeline.dataset.records == serial_run[0].dataset.records
        assert _har_view(pipeline) == _har_view(serial_run[0])

    def test_inline_pool_matches_threaded(self, parallel_run):
        executor = ParallelCrawlExecutor(workers=4,
                                         pool_factory=InlineExecutor)
        pipeline, _, _ = _run_pipeline(workers=4, crawl_executor=executor,
                                       crawl_only=True)
        assert not pipeline.last_crawl_execution.fallback_serial
        assert pipeline.crawl_stats == parallel_run[0].crawl_stats
        assert _har_view(pipeline) == _har_view(parallel_run[0])
