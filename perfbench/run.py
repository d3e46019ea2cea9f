"""perfbench: cold-process benchmark of the Malware Slums reproduction.

    python3 perfbench/run.py --workload pinned --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  Every study runs in a fresh
interpreter (``child.py``), because a warm process reuses the
process-global ``staticjs.rules`` memo cache and runs ~40% faster.

``--trace 0`` runs three setup-only children, then whole studies until
``--seconds`` is spent (at least one), and prints the end-to-end
metrics: medians over the children of contention-normalised seconds
(see ``probe.py``), URLs/s and peak RSS.  Above them it prints each
study's raw wall seconds and contention factor, and their medians.
``--trace 1`` runs one plain study (for its ``ru_maxrss`` marks and raw
seconds) and one with every layer wrapped (``tracer.py``), prints the
per-layer table and writes the Chrome trace under ``.perfbench/``.

Workloads (``child.study_config``; all at scale 0.05, and each differs
from ``pinned`` in one property, so one reference verdict map checks
all three):

* ``pinned``: ``StudyConfig(seed, scale=0.05)``, every default;
* ``sandbox``: the same with ``PipelineOptions.static_prefilter=False``;
* ``parallel``: the same with ``workers=2``.

Every ``--seed`` runs the web of study seed 2016, the pinned run every
performance claim in this repository is stated on.  Its verdict map
(URL -> malicious) and Table I are recorded under ``reference/``
(``make_reference.py``), and every run counts a scanned URL whose
verdict is missing or differs as a failed operation.  Other webs are
not used: at scale 0.05 study cost varies with the web (IQR/median 11%
over seeds 2016-2020, against 3.9% for repeats of one web), which would
swamp the bounds the benchmark sets.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from child import STUDY_SEED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_CHILDREN = 3
#: a run must end within 180 s; no child may push it past this
RUN_LIMIT_S = 170.0


def child_env() -> Dict[str, str]:
    """The child's environment: repro from this checkout's ``src``, fixed
    string hashing, bytecode cached inside the checkout, and no
    ``REPRO_*`` override (workloads set workers and backend themselves)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


def run_child(workload: str, mode: str, deadline: float) -> dict:
    """Run one cold child to completion and return its result."""
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, "%s-%s-%d.json" % (workload, mode, os.getpid()))
    command = [sys.executable, os.path.join(BENCH, "child.py"),
               "--workload", workload, "--mode", mode, "--out", out]
    subprocess.run(command, env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out) as handle:
        result = json.load(handle)
    os.remove(out)
    return result


def load_reference() -> dict:
    path = os.path.join(BENCH, "reference", "seed-%d.json.gz" % STUDY_SEED)
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def verify(studies: List[dict], reference: dict) -> Tuple[int, int, bool]:
    """(attempted, failed, correct) of ``studies`` against the reference.

    An operation is one distinct URL scanned; it fails when its verdict
    is missing or differs.  A URL the reference never saw counts as
    attempted and failed too, and a changed Table I makes the run
    incorrect.
    """
    expected = {url: True for url in reference["malicious"]}
    expected.update((url, False) for url in reference["benign"])
    attempted = failed = 0
    correct = True
    for study in studies:
        verdicts = study["verdicts"]
        extra = sum(1 for url in verdicts if url not in expected)
        attempted += len(expected) + extra
        failed += extra + sum(1 for url, malicious in expected.items()
                              if verdicts.get(url) is not malicious)
        correct = correct and study["table1"] == reference["table1"]
    return attempted, failed, correct and failed == 0


def declared_metrics(trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(workload: str, seconds: float,
               deadline: float) -> Tuple[Dict[str, float], List[dict]]:
    start = time.monotonic()
    run_child(workload, "setup", deadline)  # fills the bytecode cache
    setups = [run_child(workload, "setup", deadline) for _ in range(SETUP_CHILDREN)]
    studies: List[dict] = []
    while True:
        began = time.monotonic()
        studies.append(run_child(workload, "study", deadline))
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds or time.monotonic() + took > deadline:
            break
    median = statistics.median
    for study in studies:
        print("study: %.3f s wall, contention %.4f, %.3f s normalised"
              % (study["study_wall_s"], study["study_contention"], study["study_s"]))
    print("median of %d studies: %.3f s wall, contention %.4f"
          % (len(studies), median([r["study_wall_s"] for r in studies]),
             median([r["study_contention"] for r in studies])))
    metrics = {
        "setup_s": median([r["setup_s"] for r in setups + studies]),
        "study_s": median([r["study_s"] for r in studies]),
        "urls_per_s": median([r["records"] / r["study_s"] for r in studies]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in studies]),
    }
    return metrics, studies


def traced(workload: str, deadline: float) -> Tuple[Dict[str, float], List[dict]]:
    run_child(workload, "setup", deadline)
    plain = run_child(workload, "study", deadline)
    spans = run_child(workload, "trace", deadline)
    metrics = dict(spans["layers"])
    metrics.update({name: plain[name]
                    for name in ("mem.generate_mb", "mem.crawl_mb", "mem.scan_mb")})
    metrics.update({
        "bench.setup_wall_s": plain["setup_wall_s"],
        "bench.study_wall_s": plain["study_wall_s"],
        "bench.contention": plain["study_contention"],
        "bench.trace_overhead": spans["study_s"] / plain["study_s"],
    })
    trace_path = os.path.join(WORK, "trace-%s-%d.json" % (workload, STUDY_SEED))
    os.replace(spans["trace_path"], trace_path)
    print("chrome trace: %s" % os.path.relpath(trace_path, ROOT))
    print("layer shares of the traced study's self time:")
    for name, share in sorted(spans["shares"].items(), key=lambda kv: -kv[1]):
        print("  %-24s %6.2f%%  %8d calls" % (name, 100 * share, spans["calls"].get(name, 0)))
    return metrics, [plain, spans]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="accepted for the benchmark interface; every seed "
                             "runs the web of study seed %d" % STUDY_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    reference = load_reference()
    units = declared_metrics(bool(args.trace))
    if args.trace:
        values, studies = traced(args.workload, deadline)
    else:
        values, studies = end_to_end(args.workload, args.seconds, deadline)
    attempted, failed, correct = verify(studies, reference)
    missing = sorted(set(units) - set(values))
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
