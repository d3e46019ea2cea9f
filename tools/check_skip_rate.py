#!/usr/bin/env python3
"""Sandbox skip-rate regression gate (CI ``skip-rate`` job).

Runs the pinned-seed pipeline twice — static pre-filter on and off —
and enforces the two properties the pre-filter must keep:

1. **Verdict preservation**: the per-URL verdict map with the
   pre-filter on must be *identical* to the map with it off, and the
   malicious/benign totals must match the committed baseline exactly.
2. **Skip rate**: the fraction of page scans that skipped the JS
   sandbox must not drop more than ``--tolerance`` (default 2 points
   absolute) below the committed baseline.

Regenerate the baseline after intentional analyzer changes with
``--write``.  Requires ``PYTHONPATH=src`` (matches the other CI jobs).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Tuple

DEFAULT_BASELINE = "benchmarks/skip_rate_baseline.json"


def run_pipeline(seed: int, scale: float, static_prefilter: bool):
    from dataclasses import replace

    from repro import MalwareSlumsStudy, StudyConfig
    from repro.crawler import CrawlPipeline
    from repro.obs import RunObserver

    config = StudyConfig(seed=seed, scale=scale)
    web = MalwareSlumsStudy(config).generate_web()
    observer = RunObserver()
    pipeline = CrawlPipeline(web, replace(
        config.pipeline_options(observer=observer),
        static_prefilter=static_prefilter))
    outcome = pipeline.run()
    verdicts = {url: verdict.malicious
                for url, verdict in outcome.verdicts.items()}
    return observer, verdicts


def measure(seed: int, scale: float) -> Tuple[Dict, Dict[str, bool]]:
    observer, verdicts_on = run_pipeline(seed, scale, True)
    _, verdicts_off = run_pipeline(seed, scale, False)

    if set(verdicts_on) != set(verdicts_off):
        print("FAIL: prefilter on/off scanned different URL sets",
              file=sys.stderr)
        sys.exit(1)
    changed = [url for url in sorted(verdicts_on)
               if verdicts_on[url] != verdicts_off[url]]
    if changed:
        print("FAIL: %d URL(s) change verdict when the static "
              "pre-filter is enabled:" % len(changed), file=sys.stderr)
        for url in changed[:20]:
            print("  %s: prefilter=%s sandbox=%s"
                  % (url, verdicts_on[url], verdicts_off[url]),
                  file=sys.stderr)
        sys.exit(1)

    metrics = observer.metrics
    skipped = metrics.counter_total("staticjs.sandbox.skipped_pages")
    executed = metrics.counter_total("staticjs.sandbox.executed_pages")
    total = skipped + executed
    summary = {
        "meta": {"seed": seed, "scale": scale},
        "skipped_pages": int(skipped),
        "executed_pages": int(executed),
        "absint_skipped_pages": int(
            metrics.counter_total("staticjs.absint.skipped_pages")),
        "skip_rate": round(skipped / total, 6) if total else 0.0,
        "verdicts": {
            "malicious": sum(1 for v in verdicts_on.values() if v),
            "benign": sum(1 for v in verdicts_on.values() if not v),
        },
    }
    return summary, verdicts_on


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="max absolute skip-rate drop vs baseline")
    parser.add_argument("--write", action="store_true",
                        help="write the measured summary as the new baseline")
    args = parser.parse_args()

    summary, _ = measure(args.seed, args.scale)
    print(json.dumps(summary, indent=2, sort_keys=True))

    if args.write:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote baseline to %s" % args.baseline)
        return 0

    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    failures = []
    if baseline["meta"] != summary["meta"]:
        failures.append("baseline meta %r != run meta %r"
                        % (baseline["meta"], summary["meta"]))
    if baseline["verdicts"] != summary["verdicts"]:
        failures.append("verdict totals changed: baseline %r, run %r"
                        % (baseline["verdicts"], summary["verdicts"]))
    floor = baseline["skip_rate"] - args.tolerance
    if summary["skip_rate"] < floor:
        failures.append("skip rate %.4f fell below baseline %.4f - %.2f"
                        % (summary["skip_rate"], baseline["skip_rate"],
                           args.tolerance))
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print("skip rate %.2f%% (baseline %.2f%%), verdicts preserved"
          % (100 * summary["skip_rate"], 100 * baseline["skip_rate"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
