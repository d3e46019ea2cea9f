"""Record the reference verdict maps the benchmark checks against.

    python3 perfbench/make_reference.py

Runs the study cold in every workload, requires the three verdict maps
and Table I to agree, and writes ``reference/seed-2016.json.gz``: the
sorted malicious and benign URLs and the Table I rows.  Re-record only
when a change is meant to alter verdicts.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time

import run
from child import SCALE, STUDY_SEED, WORKLOADS


def main() -> int:
    results = {workload: run.run_child(workload, "study", time.monotonic() + 600)
               for workload in WORKLOADS}
    pinned = results["pinned"]
    for workload, result in results.items():
        if result["verdicts"] != pinned["verdicts"] or result["table1"] != pinned["table1"]:
            print("%s disagrees with pinned" % workload)
            return 1
    verdicts = pinned["verdicts"]
    reference = {
        "study_seed": STUDY_SEED,
        "scale": SCALE,
        "records": pinned["records"],
        "malicious": sorted(url for url, bad in verdicts.items() if bad),
        "benign": sorted(url for url, bad in verdicts.items() if not bad),
        "table1": pinned["table1"],
    }
    path = os.path.join(run.BENCH, "reference", "seed-%d.json.gz" % STUDY_SEED)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(json.dumps(reference, indent=0).encode())
    print("%d URLs, %d malicious, %d records" % (
        len(verdicts), len(reference["malicious"]), pinned["records"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
