"""Work-profiler overhead gate (not a paper artifact).

The work-accounting profiler (:mod:`repro.obs.profile`) batches its
counts — one ``work()`` call per parse, per script execution, per
fetch — precisely so it can stay on for any diagnostic run.  This gate
holds a fully profiled run (work ledger + memory ledger) to at most
10% wall-clock overhead over a plain observed run.
"""

import time

from repro import MalwareSlumsStudy, StudyConfig
from repro.crawler import CrawlPipeline, PipelineOptions
from repro.obs import MemoryLedger, RunObserver


def _run(profile):
    study = MalwareSlumsStudy(StudyConfig(seed=99, scale=0.008))
    study.generate_web()
    observer = RunObserver(profile=profile)
    pipeline = CrawlPipeline(
        study.web, PipelineOptions(seed=7, observer=observer,
                                   memory_ledger=MemoryLedger() if profile else None),
    )
    pipeline.run()
    return observer


def test_work_profiler_overhead(benchmark):
    """profile=True must stay within 10% of the plain observed run."""

    def timed(thunk):
        start = time.perf_counter()
        result = thunk()
        return time.perf_counter() - start, result

    # warm both paths, then time interleaved plain/profiled pairs and
    # take the median per-pair ratio — noise within a pair is
    # correlated, so ratios are far more stable than best-of timings
    _run(False), _run(True)
    ratios = []
    observer = None
    for _ in range(7):
        plain, _ = timed(lambda: _run(False))
        seconds, observer = timed(lambda: _run(True))
        ratios.append(seconds / plain)
    benchmark.pedantic(lambda: _run(True), rounds=1, iterations=1)
    assert observer is not None and observer.profiler is not None
    assert observer.profiler.ledger.total("js.interp.steps") > 0
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    print("\nper-pair overhead: %s -> median %+.1f%%"
          % (" ".join("%+.1f%%" % (100 * (r - 1)) for r in ratios),
             100 * overhead))
    assert overhead <= 0.10, (
        "work profiler overhead %.1f%% exceeds 10%%" % (100 * overhead))
