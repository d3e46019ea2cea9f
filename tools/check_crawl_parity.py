#!/usr/bin/env python3
"""Parallel-crawl parity gate (CI ``crawl-parity`` job).

Runs the pinned-seed pipeline twice — serial and ``--workers`` wide —
and enforces the contract ``repro.crawlexec`` must keep: per-exchange
crawl stats, the per-URL verdict map, and every HAR timestamp match the
serial run exactly, and the wide run actually went through the crawl
executor without falling back to the serial path.  The malicious/benign
totals must also match the committed bench artifact.

Regenerate ``benchmarks/BENCH_crawl.json`` after intentional changes
with ``--write``.  Requires ``PYTHONPATH=src`` (matches the other CI
jobs).
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_BENCH = "benchmarks/BENCH_crawl.json"


def run_pipeline(seed: int, scale: float, workers: int):
    from repro import MalwareSlumsStudy, StudyConfig
    from repro.crawler import CrawlPipeline
    from repro.obs import RunObserver

    config = StudyConfig(seed=seed, scale=scale, workers=workers)
    web = MalwareSlumsStudy(config).generate_web()
    pipeline = CrawlPipeline(web, config.pipeline_options(observer=RunObserver()))
    outcome = pipeline.run()
    return pipeline, outcome


def har_timestamps(pipeline):
    from repro.httpsim import HarLog

    return {name: [record.started for record in HarLog(records).requests()]
            for name, records in pipeline.dataset.exchange_records.items()}


def measure(seed: int, scale: float, workers: int):
    serial_pipe, serial_outcome = run_pipeline(seed, scale, 1)
    par_pipe, par_outcome = run_pipeline(seed, scale, workers)

    failures = []
    if serial_pipe.crawl_stats != par_pipe.crawl_stats:
        failures.append("per-exchange crawl stats differ from serial")
    serial_verdicts = {u: v.malicious
                       for u, v in serial_outcome.verdicts.items()}
    par_verdicts = {u: v.malicious for u, v in par_outcome.verdicts.items()}
    if serial_verdicts != par_verdicts:
        failures.append("per-URL verdict map differs from serial")
    if har_timestamps(serial_pipe) != har_timestamps(par_pipe):
        failures.append("HAR timestamps differ from serial")

    execution = par_pipe.last_crawl_execution
    if execution is None:
        failures.append("workers=%d run never engaged the crawl executor"
                        % workers)
        summary = {}
    else:
        if execution.fallback_serial:
            failures.append("crawl executor fell back to the serial path")
        summary = {
            "meta": {"seed": seed, "scale": scale, "workers": workers},
            "shards": len(execution.shard_stats),
            "verdicts": {
                "malicious": sum(1 for v in par_verdicts.values() if v),
                "benign": sum(1 for v in par_verdicts.values() if not v),
            },
        }
    return summary, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--write", action="store_true",
                        help="write the measured summary as the new "
                             "bench artifact")
    args = parser.parse_args()

    summary, failures = measure(args.seed, args.scale, args.workers)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1

    if args.write:
        with open(args.bench, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote bench artifact to %s" % args.bench)
        return 0

    with open(args.bench, "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    if bench["meta"] != summary["meta"]:
        print("FAIL: bench meta %r != run meta %r"
              % (bench["meta"], summary["meta"]), file=sys.stderr)
        return 1
    if bench["verdicts"] != summary["verdicts"]:
        print("FAIL: verdict totals changed: bench %r, run %r"
              % (bench["verdicts"], summary["verdicts"]), file=sys.stderr)
        return 1
    print("crawl over %d shards at workers=%d is bit-identical to serial"
          % (summary["shards"], args.workers))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
