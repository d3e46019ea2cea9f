"""Provenance flight-recorder overhead gate (not a paper artifact).

The per-URL :class:`~repro.obs.provenance.VerdictProvenance` chain is
meant to be cheap enough to leave on for any diagnostic run: building
the records is pure dataclass assembly plus a handful of
``stable_unit`` hashes per stage, no I/O and no live clock.  This gate
holds the recorder to at most 10% wall-clock overhead over an
unrecorded scan.
"""

import time

from repro import MalwareSlumsStudy, StudyConfig
from repro.crawler import CrawlPipeline, PipelineOptions


def _run(record_provenance):
    study = MalwareSlumsStudy(StudyConfig(seed=99, scale=0.008))
    study.generate_web()
    pipeline = CrawlPipeline(study.web, PipelineOptions(
        seed=7, record_provenance=record_provenance))
    pipeline.run()
    return pipeline


def test_provenance_recording_overhead(benchmark):
    """record_provenance=True must stay within 10% of the bare run."""

    def timed(thunk):
        start = time.perf_counter()
        result = thunk()
        return time.perf_counter() - start, result

    # warm both paths, then time interleaved bare/recorded pairs and
    # take the median per-pair ratio — noise within a pair is
    # correlated, so ratios are far more stable than best-of timings
    _run(False), _run(True)
    ratios = []
    pipeline = None
    for _ in range(7):
        bare, _ = timed(lambda: _run(False))
        seconds, pipeline = timed(lambda: _run(True))
        ratios.append(seconds / bare)
    benchmark.pedantic(lambda: _run(True), rounds=1, iterations=1)
    store = pipeline.provenance_store
    assert store is not None and len(store) > 100
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    print("\nper-pair overhead: %s -> median %+.1f%%"
          % (" ".join("%+.1f%%" % (100 * (r - 1)) for r in ratios),
             100 * overhead))
    assert overhead <= 0.10, (
        "provenance recording overhead %.1f%% exceeds 10%%" % (100 * overhead))
