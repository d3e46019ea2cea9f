"""Tests for repro.scanexec: sharding, buffering, executor determinism.

The load-bearing property is ISSUE-level: a parallel run (``workers=4``)
must be *bit-identical* to the serial reference — same verdict dict
(values and iteration order), same ``scan.*`` telemetry, same obs-report
scan section — for a fixed seed.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.crawler import CrawlPipeline, PipelineOptions, ScanOutcome
from repro.crawler.pipeline import WORKERS_ENV
from repro.detection import UrlVerdict
from repro.obs import RunObserver, build_run_report
from repro.phasexec import InlineExecutor, RecordingObserver
from repro.scanexec import (
    ParallelScanExecutor,
    ScanTask,
    build_scan_tasks,
    shard_tasks,
    task_domain,
)
from repro.simweb.generator import WebGenerationConfig, WebGenerator


def _tasks(domains: int = 6, per_domain: int = 4):
    tasks = []
    for d in range(domains):
        for p in range(per_domain):
            tasks.append(ScanTask(
                url="http://site%d.example/page%d" % (d, p),
                content=b"<html>%d/%d</html>" % (d, p),
            ))
    return tasks


class TestSharding:
    def test_is_file_scan(self):
        assert ScanTask(url="http://a.example/", content=b"x").is_file_scan
        assert not ScanTask(url="http://a.example/").is_file_scan

    def test_task_domain(self):
        assert task_domain(ScanTask(url="http://www.site1.example/p")) == "site1.example"
        assert task_domain(ScanTask(url="not a url")) == ""

    def test_domain_locality(self):
        shards = shard_tasks(_tasks(domains=9), shard_count=4)
        owner = {}
        for shard in shards:
            for task in shard.tasks:
                domain = task_domain(task)
                assert owner.setdefault(domain, shard.index) == shard.index

    def test_order_preserved_within_domain(self):
        shards = shard_tasks(_tasks(), shard_count=3)
        for shard in shards:
            by_domain = {}
            for task in shard.tasks:
                by_domain.setdefault(task_domain(task), []).append(task.url)
            for urls in by_domain.values():
                assert urls == sorted(urls)  # pages were generated in order

    def test_deterministic(self):
        a = shard_tasks(_tasks(), shard_count=4)
        b = shard_tasks(_tasks(), shard_count=4)
        assert [(s.index, s.domains, [t.url for t in s.tasks]) for s in a] == \
               [(s.index, s.domains, [t.url for t in s.tasks]) for s in b]

    def test_empty_shards_dropped_and_reindexed(self):
        shards = shard_tasks(_tasks(domains=2), shard_count=8)
        assert len(shards) == 2
        assert [s.index for s in shards] == [0, 1]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_tasks(_tasks(), shard_count=0)

    def test_build_scan_tasks_follows_distinct_url_order(self):
        cached = SimpleNamespace(content=b"<html></html>",
                                 content_type="text/html",
                                 final_url="http://a.example/final")
        dataset = SimpleNamespace(
            distinct_urls=lambda: ["http://a.example/", "http://b.example/"],
            content={"http://a.example/": cached},
        )
        tasks = build_scan_tasks(dataset)
        assert [t.url for t in tasks] == ["http://a.example/", "http://b.example/"]
        assert tasks[0].is_file_scan and tasks[0].final_url == "http://a.example/final"
        assert not tasks[1].is_file_scan


class TestRecordingObserver:
    def test_replay_matches_direct_calls(self):
        def drive(observer):
            observer.count("scan.urls")
            observer.count("scan.urls", 2.0)
            observer.count("scan.tool.malicious", tool="virustotal")
            observer.gauge_max("js.op_count", 17)
            observer.gauge_max("js.op_count", 5)
            observer.observe("scan.latency", 0.25)
            observer.event("scan.done", urls=3)

        direct = RunObserver()
        drive(direct)

        buffer = RecordingObserver()
        drive(buffer)
        replayed = RunObserver()
        buffer.replay(replayed)

        assert replayed.metrics.snapshot() == direct.metrics.snapshot()
        assert len(replayed.events) == len(direct.events)

    def test_replay_into_none_is_noop(self):
        buffer = RecordingObserver()
        buffer.count("x")
        buffer.replay(None)  # must not raise

    def test_span_yields_none(self):
        with RecordingObserver().span("scan", urls=1) as span:
            assert span is None


class TestInlineExecutor:
    def test_runs_inline(self):
        pool = InlineExecutor()
        with pool:
            future = pool.submit(lambda x: x + 1, 41)
        assert future.result() == 42
        assert pool.submitted == 1

    def test_error_raised_at_result(self):
        def boom():
            raise RuntimeError("shard failed")
        future = InlineExecutor().submit(boom)
        with pytest.raises(RuntimeError):
            future.result()


class _FakeService:
    """Duck-typed UrlVerdictService: records call order per instance."""

    def __init__(self, submit_files: bool = True):
        self.submit_files = submit_files
        self.calls = []
        self.clones = []

    def shard_clone(self, observer=None):
        clone = _FakeService(submit_files=self.submit_files)
        self.clones.append(clone)
        return clone

    def verdict(self, url, content=None, content_type="text/html", final_url=None):
        self.calls.append(url)
        return UrlVerdict(url=url, malicious=False)


class TestParallelScanExecutorUnit:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelScanExecutor(workers=0)

    def test_url_tasks_stay_ordered_on_shared_service(self):
        tasks = [ScanTask(url="http://u%d.example/" % i) for i in range(5)]
        tasks.insert(2, ScanTask(url="http://f.example/", content=b"x"))
        service = _FakeService()
        executor = ParallelScanExecutor(workers=4, pool_factory=InlineExecutor)
        execution = executor.execute(tasks, service)
        # the stateful serial lane saw exactly the URL submissions, in order
        assert service.calls == ["http://u%d.example/" % i for i in range(5)]
        # the file submission went to a shard clone
        assert [c.calls for c in service.clones] == [["http://f.example/"]]
        assert execution.url_tasks == 5 and execution.file_tasks == 1

    def test_submit_files_false_disables_sharding(self):
        service = _FakeService(submit_files=False)
        executor = ParallelScanExecutor(workers=4, pool_factory=InlineExecutor)
        execution = executor.execute(_tasks(domains=3), service)
        assert not service.clones
        assert service.calls == [t.url for t in _tasks(domains=3)]
        assert execution.file_tasks == 0

    def test_merged_dict_keeps_workload_order(self):
        tasks = _tasks(domains=5)
        executor = ParallelScanExecutor(workers=3, pool_factory=InlineExecutor)
        execution = executor.execute(tasks, _FakeService())
        assert list(execution.verdicts) == [t.url for t in tasks]

    def test_emits_executor_metrics(self):
        observer = RunObserver()
        executor = ParallelScanExecutor(workers=3, pool_factory=InlineExecutor)
        execution = executor.execute(_tasks(domains=6), _FakeService(), observer=observer)
        metrics = observer.metrics
        assert metrics.gauge("scanexec.workers").value == 3
        assert metrics.counter_total("scanexec.shards") == len(execution.shard_stats)
        assert metrics.counter_total("scanexec.tasks.file") == execution.file_tasks


# ----------------------------------------------------------------------
# Integration: parallel pipeline is bit-identical to the serial reference
# ----------------------------------------------------------------------

def _run_pipeline(workers=None, scan_executor=None):
    web = WebGenerator(WebGenerationConfig(seed=2016, scale=0.01)).build()
    observer = RunObserver()
    pipeline = CrawlPipeline(web, PipelineOptions(
        seed=2016 + 61, observer=observer, workers=workers))
    if scan_executor is not None:
        pipeline.scan_executor = scan_executor
    outcome = pipeline.run()
    return pipeline, outcome, observer


@pytest.fixture(scope="module")
def serial_run():
    return _run_pipeline(workers=1)


@pytest.fixture(scope="module")
def parallel_run():
    return _run_pipeline(workers=4)


@pytest.fixture(scope="module")
def inline_parallel_run():
    executor = ParallelScanExecutor(workers=4, pool_factory=InlineExecutor)
    return _run_pipeline(workers=4, scan_executor=executor)


def _filtered_metrics(observer, keep):
    # snapshot() nests series under {"counters": ..., "gauges": ..., ...}
    return {category: {name: value for name, value in series.items() if keep(name)}
            for category, series in observer.metrics.snapshot().items()}


def _scan_metrics(observer):
    return _filtered_metrics(
        observer,
        lambda name: name.startswith("scan.") and not name.startswith("scanexec."),
    )


def _non_scanexec_metrics(observer):
    # crawlexec.* is excluded too: parallel fixtures run the crawl phase
    # sharded as well, and executor telemetry is legitimately absent from
    # serial runs (everything else must match bit-for-bit).
    return _filtered_metrics(
        observer,
        lambda name: not name.startswith(("scanexec.", "crawlexec.")),
    )


class TestPipelineDeterminism:
    def test_verdict_dicts_bit_identical(self, serial_run, parallel_run):
        _, serial, _ = serial_run
        _, parallel, _ = parallel_run
        assert list(parallel.verdicts) == list(serial.verdicts)
        assert parallel.verdicts == serial.verdicts

    def test_inline_pool_matches_thread_pool(self, parallel_run, inline_parallel_run):
        _, threaded, _ = parallel_run
        _, inline, _ = inline_parallel_run
        assert list(inline.verdicts) == list(threaded.verdicts)
        assert inline.verdicts == threaded.verdicts

    def test_scan_counters_identical(self, serial_run, parallel_run):
        _, _, serial_obs = serial_run
        _, _, parallel_obs = parallel_run
        assert _scan_metrics(parallel_obs) == _scan_metrics(serial_obs)

    def test_all_non_executor_metrics_identical(self, serial_run, parallel_run):
        _, _, serial_obs = serial_run
        _, _, parallel_obs = parallel_run
        assert _non_scanexec_metrics(parallel_obs) == _non_scanexec_metrics(serial_obs)

    def test_report_scan_sections_identical(self, serial_run, parallel_run):
        serial_pipeline, serial_outcome, _ = serial_run
        parallel_pipeline, parallel_outcome, _ = parallel_run
        serial_report = build_run_report(serial_pipeline, serial_outcome)
        parallel_report = build_run_report(parallel_pipeline, parallel_outcome)
        assert parallel_report["scan"] == serial_report["scan"]

    def test_parallel_run_reports_executor_section(self, parallel_run):
        pipeline, outcome, _ = parallel_run
        execution = pipeline.last_scan_execution
        assert execution is not None
        assert execution.workers == 4
        assert execution.file_tasks > 0
        report = build_run_report(pipeline, outcome)
        assert report["scanexec"]["workers"] == 4
        assert report["scanexec"]["shards"] == len(execution.shard_stats)

    def test_serial_run_has_no_executor(self, serial_run):
        pipeline, _, _ = serial_run
        assert pipeline.scan_executor is None
        assert pipeline.last_scan_execution is None


class TestScanOutcomeThreadSafety:
    def test_concurrent_unscanned_queries_all_counted(self):
        outcome = ScanOutcome()
        threads = 8
        queries = 50

        def worker():
            for i in range(queries):
                assert not outcome.is_malicious("http://missing%d.example/" % i)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert outcome.unscanned_queries == threads * queries

    def test_scanned_urls_do_not_count(self):
        outcome = ScanOutcome(verdicts={
            "http://seen.example/": UrlVerdict(url="http://seen.example/", malicious=True),
        })
        assert outcome.is_malicious("http://seen.example/")
        assert outcome.unscanned_queries == 0
        assert outcome.scanned("http://seen.example/")


class TestWiring:
    def test_env_var_sets_default_workers(self, serial_run, monkeypatch):
        pipeline, _, _ = serial_run
        monkeypatch.setenv(WORKERS_ENV, "4")
        configured = CrawlPipeline(pipeline.web, PipelineOptions(seed=1))
        assert configured.workers == 4
        assert isinstance(configured.scan_executor, ParallelScanExecutor)
        assert configured.scan_executor.workers == 4

    def test_workers_one_keeps_serial_loop(self, serial_run, monkeypatch):
        pipeline, _, _ = serial_run
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        configured = CrawlPipeline(pipeline.web, PipelineOptions(seed=1, workers=1))
        assert configured.workers == 1
        assert configured.scan_executor is None

    def test_cli_exposes_workers_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["run", "--workers", "3"]).workers == 3
        assert parser.parse_args(["obs-report", "--workers", "2"]).workers == 2
        assert parser.parse_args(["run"]).workers is None
