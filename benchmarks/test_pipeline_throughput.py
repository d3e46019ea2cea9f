"""Pipeline throughput benchmarks (not a paper artifact).

Measures the substrate's performance: synthetic-web generation, the
crawl loop, and the scan loop — the numbers a user sizing a larger-scale
run cares about.
"""

from repro import MalwareSlumsStudy, StudyConfig
from repro.simweb.generator import WebGenerationConfig, WebGenerator


def test_web_generation_throughput(benchmark):
    def build():
        return WebGenerator(WebGenerationConfig(seed=99, scale=0.02)).build()

    web = benchmark(build)
    assert len(web.registry) > 500


def test_crawl_throughput(benchmark):
    def crawl():
        study = MalwareSlumsStudy(StudyConfig(seed=99, scale=0.01))
        study.generate_web()
        from repro.crawler import CrawlPipeline, PipelineOptions

        pipeline = CrawlPipeline(study.web, PipelineOptions(seed=7))
        pipeline.crawl()
        return pipeline

    pipeline = benchmark.pedantic(crawl, rounds=3, iterations=1)
    records = len(pipeline.dataset)
    assert records > 5_000
    print("\ncrawled %d URL instances" % records)


def test_observer_overhead(benchmark):
    """An attached RunObserver must stay within 10% of the bare crawl."""
    import gc
    import time

    from repro.crawler import CrawlPipeline, PipelineOptions
    from repro.obs import RunObserver

    def crawl(observer=None):
        study = MalwareSlumsStudy(StudyConfig(seed=99, scale=0.01))
        study.generate_web()
        pipeline = CrawlPipeline(study.web, PipelineOptions(seed=7, observer=observer))
        pipeline.crawl()
        return pipeline

    def timed(observer=None):
        # no pipeline outlives its crawl, and the garbage of the last one
        # is collected before the clock starts: both sides run on the
        # same live heap, so a full collection inside one costs the same
        gc.collect()
        start = time.perf_counter()
        crawl(observer)
        return time.perf_counter() - start

    # warm both paths, then time interleaved bare/observed pairs and take
    # the median per-pair ratio — noise within a pair is correlated, so
    # ratios are far more stable than independent best-of timings
    crawl(), crawl(RunObserver())
    ratios = []
    requests = 0.0
    for _ in range(7):
        bare = timed()
        observer = RunObserver()
        ratios.append(timed(observer) / bare)
        requests = observer.metrics.counter_total("http.requests")
        del observer
    benchmark.pedantic(lambda: crawl(RunObserver()), rounds=1, iterations=1)
    assert requests > 0
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    print("\nper-pair overhead: %s -> median %+.1f%%"
          % (" ".join("%+.1f%%" % (100 * (r - 1)) for r in ratios), 100 * overhead))
    assert overhead <= 0.10, "observer overhead %.1f%% exceeds 10%%" % (100 * overhead)


def test_scan_throughput(benchmark):
    study = MalwareSlumsStudy(StudyConfig(seed=99, scale=0.01))
    study.generate_web()
    from repro.crawler import CrawlPipeline, PipelineOptions

    pipeline = CrawlPipeline(study.web, PipelineOptions(seed=7))
    pipeline.crawl()
    distinct = len(pipeline.dataset.distinct_urls())

    def scan():
        pipeline.verdict_service = None  # force a fresh detection stack
        pipeline.blacklists = None
        return pipeline.scan()

    outcome = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert len(outcome.verdicts) == distinct
    print("\nscanned %d distinct URLs" % distinct)
