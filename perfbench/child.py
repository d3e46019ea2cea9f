"""One cold benchmark run in a fresh interpreter (started by run.py).

    python3 perfbench/child.py --workload pinned --mode study --out result.json

Modes:

* ``setup``: import repro and generate the web, nothing else;
* ``study``: setup, then ``MalwareSlumsStudy.run()``;
* ``trace``: ``study`` with every layer wrapped by :mod:`tracer`; also
  writes the Chrome trace next to ``--out``.

Every mode reads ``ru_maxrss`` when web generation, the crawl and the
scan return (three wrappers, each called once a study).  The pipeline
is only ever driven through ``MalwareSlumsStudy``, so the pipeline RNG
is drawn in the study's own order.
"""

import time

T0 = time.perf_counter_ns()

import argparse  # noqa: E402 - the clock above is the child's first statement
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from probe import Probe, normalise  # noqa: E402

WORKLOADS = ("pinned", "sandbox", "parallel")
#: every workload studies this web; its verdicts are the stored reference
STUDY_SEED = 2016
SCALE = 0.05


def study_config(workload: str):
    """The ``StudyConfig`` of ``workload``: pinned plus one changed property."""
    from dataclasses import replace

    from repro.core.config import StudyConfig

    if workload == "pinned":
        return StudyConfig(seed=STUDY_SEED, scale=SCALE)
    if workload == "parallel":
        return StudyConfig(seed=STUDY_SEED, scale=SCALE, workers=2)
    if workload == "sandbox":
        class DynamicOnlyConfig(StudyConfig):
            """StudyConfig has no pre-filter field; the ablation lives on
            the pipeline options the study builds its pipeline from."""

            def pipeline_options(self, observer=None, memory_ledger=None):
                options = super().pipeline_options(observer, memory_ledger)
                return replace(options, static_prefilter=False)

        return DynamicOnlyConfig(seed=STUDY_SEED, scale=SCALE)
    raise ValueError("unknown workload %r" % workload)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def install_memory_marks(marks: dict) -> None:
    """Record ``ru_maxrss`` when generation, crawl and scan return."""
    from repro.crawler.pipeline import CrawlPipeline
    from repro.simweb.generator import WebGenerator

    def mark(owner, attr, name):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            marks[name] = peak_rss_mb()
            return result

        setattr(owner, attr, wrapper)

    mark(WebGenerator, "build", "mem.generate_mb")
    mark(CrawlPipeline, "crawl", "mem.crawl_mb")
    mark(CrawlPipeline, "scan", "mem.scan_mb")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--mode", choices=("setup", "study", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    probe = Probe()
    probe.start()
    try:
        from repro.core.study import MalwareSlumsStudy

        tracer = None
        marks: dict = {}
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        install_memory_marks(marks)
        study = MalwareSlumsStudy(study_config(args.workload))
        study.generate_web()
        t_setup = time.perf_counter_ns()
        result: dict = {}
        if args.mode != "setup":
            if tracer is not None:
                tracer.begin_study()
            results = study.run()
            t_study = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_study()
    finally:
        probe.stop()

    stamps, costs = probe.samples()
    setup_s, _factor = normalise(T0, t_setup, stamps, costs)
    result.update({"setup_wall_s": (t_setup - T0) / 1e9, "setup_s": setup_s})
    if args.mode != "setup":
        study_s, study_factor = normalise(t_setup, t_study, stamps, costs)
        pipeline = study.pipeline
        result.update({
            "study_wall_s": (t_study - t_setup) / 1e9,
            "study_s": study_s,
            "study_contention": study_factor,
            "peak_rss_mb": peak_rss_mb(),
            "records": len(pipeline.dataset.records),
            "verdicts": {url: verdict.malicious
                         for url, verdict in study.outcome.verdicts.items()},
            "table1": [[row.exchange, row.urls_crawled, row.self_referrals,
                        row.popular_referrals, row.regular_urls, row.malicious_urls]
                       for row in results.table1],
        })
        result.update(marks)
        if tracer is not None:
            trace_path = os.path.splitext(args.out)[0] + ".trace.json"
            table = tracer.layer_table(pipeline, distinct_urls=len(study.outcome.verdicts),
                                       contention=study_factor)
            tracer.write_chrome_trace(trace_path, table)
            result.update(table)
            result["trace_path"] = trace_path
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
