"""Static pre-filter benchmarks (not a paper artifact).

Measures what the repro.staticjs pre-filter buys the scan phase: scan
throughput with the pre-filter on versus off on the same crawled
dataset, plus the share of pages whose scripts' effects the abstract
interpreter proved, so that they never entered the JS sandbox.
"""

from repro import MalwareSlumsStudy, StudyConfig
from repro.crawler import CrawlPipeline, PipelineOptions
from repro.obs import RunObserver


def _crawled_pipeline(observer=None, static_prefilter=True):
    study = MalwareSlumsStudy(StudyConfig(seed=99, scale=0.01))
    study.generate_web()
    pipeline = CrawlPipeline(study.web, PipelineOptions(
        seed=7, observer=observer, static_prefilter=static_prefilter))
    pipeline.crawl()
    return pipeline


def _rescan(pipeline):
    pipeline.verdict_service = None  # force a fresh detection stack
    pipeline.blacklists = None
    return pipeline.scan()


def test_scan_throughput_prefilter_on(benchmark):
    observer = RunObserver()
    pipeline = _crawled_pipeline(observer=observer, static_prefilter=True)
    distinct = len(pipeline.dataset.distinct_urls())

    outcome = benchmark.pedantic(lambda: _rescan(pipeline), rounds=3, iterations=1)
    assert len(outcome.verdicts) == distinct

    metrics = observer.metrics
    skipped = metrics.counter_total("staticjs.sandbox.skipped_pages")
    executed = metrics.counter_total("staticjs.sandbox.executed_pages")
    analyzed = metrics.counter_total("staticjs.scripts")
    skipped_scripts = metrics.counter_total("staticjs.sandbox.skipped_scripts")
    assert skipped > 0
    print("\nscanned %d distinct URLs; %d scripts analyzed statically"
          % (distinct, int(analyzed)))
    print("sandbox skipped for %d page scans, executed for %d (skip rate %.1f%%)"
          % (int(skipped), int(executed), 100 * skipped / (skipped + executed)))
    print("script skip rate %.1f%%"
          % (100 * skipped_scripts / analyzed if analyzed else 0.0))


def test_scan_throughput_prefilter_off(benchmark):
    pipeline = _crawled_pipeline(static_prefilter=False)
    distinct = len(pipeline.dataset.distinct_urls())

    outcome = benchmark.pedantic(lambda: _rescan(pipeline), rounds=3, iterations=1)
    assert len(outcome.verdicts) == distinct
    print("\nscanned %d distinct URLs with the sandbox on every page" % distinct)
