"""Command-line interface.

Usage (after install)::

    python -m repro run --scale 0.02 --seed 2016          # full study report
    python -m repro run --table 1                         # one table only
    python -m repro vet --per-family 20                   # tool vetting
    python -m repro har --exchange 10KHits -o out.har     # export a HAR log
    python -m repro records -o records.json               # export URL records
    python -m repro explain http://...                    # verdict provenance
    python -m repro obs-diff base.json cand.json          # regression gate
    python -m repro profile --scale 0.01 --seed 2016 --budget benchmarks/perf_budget.json
    python -m repro watch status.jsonl                    # live run progress
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from typing import List, Optional

from . import MalwareSlumsStudy, StudyConfig
from .core.reporting import (
    render_figure2,
    render_figure3_summary,
    render_figure5,
    render_figure6,
    render_figure7,
    render_full_report,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)

__all__ = ["main", "build_parser"]


def _worker_count(text: str) -> int:
    """argparse type for ``--workers``: an integer of at least 1."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if workers < 1:
        raise argparse.ArgumentTypeError("must be >= 1 (got %d)" % workers)
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Malware Slums: Measurement and Analysis of "
                    "Malware on Traffic Exchanges' (DSN 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the study and print tables/figures")
    run.add_argument("--scale", type=float, default=0.02,
                     help="crawl volume relative to the paper's 1M URLs (default 0.02)")
    run.add_argument("--seed", type=int, default=2016)
    run.add_argument("--table", type=int, choices=(1, 2, 3, 4),
                     help="print only this table")
    run.add_argument("--figure", type=int, choices=(2, 3, 5, 6, 7),
                     help="print only this figure")
    run.add_argument("--no-file-submission", action="store_true",
                     help="disable the cloaking mitigation (URL-only scanning)")
    run.add_argument("--workers", type=_worker_count, default=None, metavar="N",
                     help="worker count for the crawl and scan phases "
                          "(repro.crawlexec + repro.scanexec; default 1 or "
                          "$REPRO_WORKERS; results are identical at any "
                          "width)")
    run.add_argument("--markdown", action="store_true",
                     help="emit the report as Markdown")

    vet = sub.add_parser("vet", help="run the Section III-B tool vetting")
    vet.add_argument("--per-family", type=int, default=10)
    vet.add_argument("--seed", type=int, default=7)

    har = sub.add_parser("har", help="export an exchange's HAR capture")
    har.add_argument("--exchange", required=True)
    har.add_argument("--scale", type=float, default=0.01)
    har.add_argument("--seed", type=int, default=2016)
    har.add_argument("-o", "--output", required=True)

    records = sub.add_parser("records", help="export crawl records as JSON")
    records.add_argument("--scale", type=float, default=0.01)
    records.add_argument("--seed", type=int, default=2016)
    records.add_argument("-o", "--output", required=True)

    compare = sub.add_parser("compare", help="compare a run against the paper's values")
    compare.add_argument("--scale", type=float, default=0.02)
    compare.add_argument("--seed", type=int, default=2016)

    export = sub.add_parser("export", help="run the study and export CSVs + results JSON")
    export.add_argument("--scale", type=float, default=0.02)
    export.add_argument("--seed", type=int, default=2016)
    export.add_argument("-o", "--output-dir", required=True)

    feed = sub.add_parser("feed", help="build a threat feed from a crawl")
    feed.add_argument("--scale", type=float, default=0.02)
    feed.add_argument("--seed", type=int, default=2016)
    feed.add_argument("-o", "--output", required=True)

    obs = sub.add_parser(
        "obs-report",
        help="run an observed crawl+scan and emit the run-telemetry report",
    )
    obs.add_argument("--scale", type=float, default=0.02)
    obs.add_argument("--seed", type=int, default=2016)
    obs.add_argument("--workers", type=_worker_count, default=None, metavar="N",
                     help="crawl+scan worker count; above 1 the executor "
                          "sections count workers, shards and tasks (every "
                          "other section is identical at any width)")
    obs.add_argument("-o", "--output",
                     help="write the JSON report here (schema: repro.obs.report)")
    obs.add_argument("--markdown", action="store_true",
                     help="print the Markdown rendering instead of JSON")
    obs.add_argument("--events", metavar="PATH",
                     help="also write the structured event log as JSON-lines")
    obs.add_argument("--trace-out", metavar="PATH",
                     help="also write spans as Chrome-trace-format JSON "
                          "(load in chrome://tracing or ui.perfetto.dev)")
    obs.add_argument("--provenance", metavar="PATH",
                     help="also write per-URL verdict provenance as JSON-lines")
    obs.add_argument("--status-out", metavar="PATH",
                     help="stream live JSON-lines status to this file during "
                          "the run (`repro watch PATH` tails it); the report "
                          "is bit-identical with or without the sink")
    obs.add_argument("--status", metavar="PATH",
                     help="fold an existing status file into the report as a "
                          "'status' section (the `repro watch --json` schema)")
    obs.add_argument("--openmetrics-out", metavar="PATH",
                     help="also write the final metrics registry in "
                          "OpenMetrics/Prometheus text format")
    obs.add_argument("--watchdog-baseline", metavar="PATH",
                     help="arm the live watchdog's verdict-drift check "
                          "against this committed baseline report "
                          "(benchmarks/baseline_report.json)")

    watch = sub.add_parser(
        "watch",
        help="tail a run's live status file: per-phase/per-shard progress, "
             "window rates, ETA, and open health findings",
    )
    watch.add_argument("status_file",
                       help="the JSON-lines status sink a running pipeline "
                            "writes (PipelineOptions(status_path=...) or "
                            "`repro obs-report --status-out`)")
    watch.add_argument("--once", action="store_true",
                       help="render one snapshot and exit instead of "
                            "following the file")
    watch.add_argument("--json", dest="as_json", action="store_true",
                       help="print the snapshot as JSON (for scripting)")
    watch.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                       help="re-read cadence in follow mode (default 1.0)")

    profile = sub.add_parser(
        "profile",
        help="run a profiled crawl+scan: work ledger, memory ledger, "
             "flamegraph exports, and the perf-budget gate",
    )
    profile.add_argument("--scale", type=float, default=0.02)
    profile.add_argument("--seed", type=int, default=2016)
    profile.add_argument("--workers", type=_worker_count, default=None, metavar="N",
                         help="crawl+scan worker count (the work ledger is "
                              "bit-identical at any width)")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="hot paths to print (default 10)")
    profile.add_argument("--budget", metavar="PATH",
                         help="check totals against this perf-budget JSON; "
                              "exit 1 when any kind regresses past tolerance, "
                              "exit 2 before running when --seed or --scale "
                              "differs from the budget's")
    profile.add_argument("--write-budget", metavar="PATH",
                         help="write a fresh budget JSON from this run's "
                              "totals (the budget-update procedure)")
    profile.add_argument("--collapsed-out", metavar="PATH",
                         help="write collapsed-stack lines (flamegraph.pl "
                              "or inferno input)")
    profile.add_argument("--speedscope-out", metavar="PATH",
                         help="write a speedscope JSON profile "
                              "(open at speedscope.app)")
    profile.add_argument("--bench-out", metavar="PATH",
                         help="write a BENCH JSON artifact (work totals, "
                              "hot paths, object counts and run parameters; "
                              "byte-identical between runs)")
    profile.add_argument("--json", action="store_true",
                         help="print the full ledger + memory JSON instead "
                              "of the hot-path table")

    explain = sub.add_parser(
        "explain",
        help="print the full verdict decision chain for one URL",
    )
    explain.add_argument("url", help="the URL to explain")
    explain.add_argument("--scale", type=float, default=0.02)
    explain.add_argument("--seed", type=int, default=2016)
    explain.add_argument("--workers", type=_worker_count, default=None, metavar="N",
                         help="crawl+scan worker count (the chain is identical "
                              "at any width)")
    explain.add_argument("--from", dest="from_file", metavar="PATH",
                         help="read a stored provenance JSON-lines file "
                              "instead of running a crawl")
    explain.add_argument("--json", action="store_true",
                         help="print the raw provenance record as JSON")
    explain.add_argument("--all-engines", action="store_true",
                         help="list clean engines individually instead of "
                              "folding them into a summary line")

    diff = sub.add_parser(
        "obs-diff",
        help="structurally diff two run-report JSONs; exit 1 on regression",
    )
    diff.add_argument("baseline", help="baseline run-report JSON path")
    diff.add_argument("candidate", help="candidate run-report JSON path")
    diff.add_argument("--rel-tol", type=float, default=0.0, metavar="FRAC",
                      help="relative tolerance for numeric drift "
                           "(e.g. 0.05 = 5%%; default 0: exact)")
    diff.add_argument("--abs-tol", type=float, default=1e-9, metavar="EPS",
                      help="absolute tolerance floor for near-zero values")
    diff.add_argument("--ignore", action="append", default=None, metavar="PATH",
                      help="dotted path prefix to skip (repeatable; default "
                           "ignores events.tail and the raw metrics snapshot)")

    static = sub.add_parser(
        "static-scan",
        help="statically analyze a script or page without executing it",
    )
    static.add_argument("target",
                        help="a .js/.html file path, or a URL into the seeded simweb")
    static.add_argument("--scale", type=float, default=0.01,
                        help="simweb scale when target is a URL (default 0.01)")
    static.add_argument("--seed", type=int, default=2016,
                        help="simweb seed when target is a URL (default 2016)")
    static.add_argument("--markdown", action="store_true",
                        help="print Markdown instead of JSON")
    static.add_argument("--absint", action="store_true",
                        help="include each script's abstract-interpretation "
                             "effect summary in the output")
    static.add_argument("--explain-skips", action="store_true",
                        help="print the page-level sandbox-skip decision and "
                             "every blocking reason")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    study = MalwareSlumsStudy(StudyConfig(
        seed=args.seed, scale=args.scale,
        submit_files=not args.no_file_submission,
        workers=args.workers,
    ))
    results = study.run()
    if args.table == 1:
        print(render_table1(results.table1))
    elif args.table == 2:
        print(render_table2(results.table2))
    elif args.table == 3:
        print(render_table3(results.table3))
    elif args.table == 4:
        print(render_table4(results.table4))
    elif args.figure == 2:
        print(render_figure2(results.figure2))
    elif args.figure == 3:
        print(render_figure3_summary(results.figure3))
    elif args.figure == 5:
        print(render_figure5(results.figure5))
    elif args.figure == 6:
        print(render_figure6(results.figure6))
    elif args.figure == 7:
        print(render_figure7(results.figure7))
    elif args.markdown:
        from .core import render_markdown_report

        print(render_markdown_report(results))
    else:
        print(render_full_report(results))
    return 0


def _cmd_vet(args: argparse.Namespace) -> int:
    from .detection import QutteraSim, VirusTotalSim, all_rejected_tools, build_gold_standard, vet_tools

    samples = build_gold_standard(random.Random(args.seed), per_family=args.per_family)
    result = vet_tools([VirusTotalSim(), QutteraSim()] + all_rejected_tools(), samples)
    for name, accuracy in result.table_rows():
        print("%-14s %6.1f%%" % (name, 100 * accuracy))
    print("accepted: %s" % ", ".join(result.accepted_tools()))
    return 0


def _run_crawl(seed: int, scale: float) -> MalwareSlumsStudy:
    study = MalwareSlumsStudy(StudyConfig(seed=seed, scale=scale))
    study.crawl_and_scan()
    return study


def _cmd_har(args: argparse.Namespace) -> int:
    from .httpsim import HarLog

    study = _run_crawl(args.seed, args.scale)
    exchange_records = study.pipeline.dataset.exchange_records
    if args.exchange not in exchange_records:
        print("unknown exchange %r; choose from: %s"
              % (args.exchange, ", ".join(exchange_records)), file=sys.stderr)
        return 2
    log = HarLog(exchange_records[args.exchange])
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(log.to_json())
    print("wrote %d HAR entries to %s" % (len(log), args.output))
    return 0


def _cmd_records(args: argparse.Namespace) -> int:
    study = _run_crawl(args.seed, args.scale)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(study.pipeline.dataset.records_to_json())
    print("wrote %d records to %s" % (len(study.pipeline.dataset), args.output))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core import compare_to_paper

    study = MalwareSlumsStudy(StudyConfig(seed=args.seed, scale=args.scale))
    report = compare_to_paper(study.run())
    print(report.render())
    return 0 if report.shapes_hold else 1


def _cmd_export(args: argparse.Namespace) -> int:
    import os

    from .core import export_csvs, save_results

    study = MalwareSlumsStudy(StudyConfig(seed=args.seed, scale=args.scale))
    results = study.run()
    paths = export_csvs(results, args.output_dir)
    json_path = os.path.join(args.output_dir, "results.json")
    save_results(results, json_path)
    paths.append(json_path)
    for path in paths:
        print("wrote %s" % path)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from .crawler import CrawlPipeline
    from .obs import RunObserver, build_run_report, render_run_report_markdown

    config = StudyConfig(seed=args.seed, scale=args.scale,
                         workers=args.workers, record_provenance=True)
    web = MalwareSlumsStudy(config).generate_web()
    observer = RunObserver()
    watchdog = None
    if args.watchdog_baseline:
        from .obs import Watchdog

        watchdog = Watchdog.from_baseline_report(args.watchdog_baseline)
    pipeline = CrawlPipeline(web, dataclasses.replace(
        config.pipeline_options(observer=observer),
        status_path=args.status_out, watchdog=watchdog))
    outcome = pipeline.run()
    report = build_run_report(pipeline, outcome)
    if args.status:
        from .obs import attach_status_section

        attach_status_section(report, args.status)

    if args.status_out:
        print("streamed live status to %s (tail with `repro watch %s`)"
              % (args.status_out, args.status_out))
    if args.openmetrics_out:
        from .obs import write_openmetrics

        count = write_openmetrics(args.openmetrics_out, observer.metrics)
        print("wrote %d OpenMetrics lines to %s"
              % (count, args.openmetrics_out))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("wrote telemetry report to %s" % args.output)
    if args.events:
        with open(args.events, "w", encoding="utf-8") as handle:
            handle.write(observer.events.to_jsonl())
        print("wrote %d events to %s" % (len(observer.events), args.events))
    if args.trace_out:
        from .obs import write_chrome_trace

        count = write_chrome_trace(args.trace_out, observer)
        print("wrote %d trace events to %s" % (count, args.trace_out))
    if args.provenance and outcome.provenance is not None:
        with open(args.provenance, "w", encoding="utf-8") as handle:
            handle.write(outcome.provenance.to_jsonl())
        print("wrote %d provenance records to %s"
              % (len(outcome.provenance), args.provenance))
    if args.markdown:
        print(render_run_report_markdown(report))
    elif not args.output:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import json

    from .obs import load_status_snapshot, render_status_text

    def emit() -> dict:
        snapshot = load_status_snapshot(args.status_file)
        if args.as_json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(render_status_text(snapshot))
        return snapshot

    try:
        snapshot = emit()
    except OSError as error:
        print("cannot read status file: %s" % error, file=sys.stderr)
        return 2
    if args.once:
        return 0
    # follow mode: the sink flushes each record, so a plain re-read loop
    # (no inotify dependency) tracks an in-flight run; a torn final line
    # is skipped by the parser and picked up whole on the next pass
    import time

    while snapshot.get("run", {}).get("state") != "finished":
        time.sleep(max(0.1, args.interval))
        print()
        snapshot = emit()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .crawler import CrawlPipeline
    from .obs import (
        MemoryLedger,
        RunObserver,
        build_budget,
        check_budget,
        render_budget_table,
        render_work_table,
    )

    budget = None
    if args.budget:
        with open(args.budget, "r", encoding="utf-8") as handle:
            budget = json.load(handle)
        # work totals scale with the crawl, so a budget holds only for
        # the seed and scale it was recorded at (the ledger is
        # worker-invariant, so workers may differ)
        pinned = budget.get("meta", {})
        for key in ("seed", "scale"):
            if key in pinned and pinned[key] != getattr(args, key):
                print("budget %s was recorded at %s %s; this run has %s %s "
                      "(pass --%s %s)" % (args.budget, key, pinned[key], key,
                                          getattr(args, key), key, pinned[key]),
                      file=sys.stderr)
                return 2

    config = StudyConfig(seed=args.seed, scale=args.scale, workers=args.workers)
    web = MalwareSlumsStudy(config).generate_web()
    observer = RunObserver(profile=True)
    memory = MemoryLedger()
    with memory:
        pipeline = CrawlPipeline(web, config.pipeline_options(
            observer=observer, memory_ledger=memory))
        pipeline.run()
    assert observer.profiler is not None
    ledger = observer.profiler.ledger
    totals = ledger.totals_by_kind()
    meta = {"seed": args.seed, "scale": args.scale,
            "workers": pipeline.workers}

    if args.json:
        print(json.dumps({
            "meta": meta,
            "work": {"totals": totals, "cells": ledger.to_dict()},
            "memory": memory.to_dict(),
        }, indent=2, sort_keys=True))
    else:
        print(render_work_table(ledger, top=args.top))
        print()
        print("Memory ledger")
        for name, phase in sorted(memory.phases.items()):
            print("  %-10s allocated %8.2f MiB   peak %8.2f MiB"
                  % (name, phase.allocated_bytes / 2**20,
                     phase.peak_bytes / 2**20))
        for name, count in sorted(memory.objects.items()):
            print("  %-30s %10d objects" % (name, count))

    if args.collapsed_out:
        with open(args.collapsed_out, "w", encoding="utf-8") as handle:
            handle.write(ledger.to_collapsed() + "\n")
        print("wrote collapsed stacks to %s" % args.collapsed_out)
    if args.speedscope_out:
        with open(args.speedscope_out, "w", encoding="utf-8") as handle:
            json.dump(ledger.to_speedscope(), handle, indent=2, sort_keys=True)
        print("wrote speedscope profile to %s" % args.speedscope_out)
    if args.bench_out:
        with open(args.bench_out, "w", encoding="utf-8") as handle:
            json.dump({
                "meta": meta,
                "work_totals": totals,
                "hot_paths": [
                    {"path": ";".join(stack), "kind": kind, "units": units}
                    for stack, kind, units in ledger.hot_paths(args.top)
                ],
                # only the deterministic object counts: tracemalloc's
                # bytes differ between runs of identical code
                "memory": {"objects": dict(memory.objects)},
            }, handle, indent=2, sort_keys=True)
        print("wrote bench artifact to %s" % args.bench_out)
    if args.write_budget:
        with open(args.write_budget, "w", encoding="utf-8") as handle:
            json.dump(build_budget(totals, meta=meta), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote perf budget to %s" % args.write_budget)

    if budget is not None:
        result = check_budget(totals, budget)
        print()
        print(render_budget_table(result))
        return 0 if result.ok else 1
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .obs import ProvenanceStore, render_provenance

    if args.from_file:
        with open(args.from_file, "r", encoding="utf-8") as handle:
            store = ProvenanceStore.from_jsonl(handle.read())
    else:
        from .crawler import CrawlPipeline

        config = StudyConfig(seed=args.seed, scale=args.scale,
                             workers=args.workers, record_provenance=True)
        pipeline = CrawlPipeline(MalwareSlumsStudy(config).generate_web(),
                                 config.pipeline_options())
        outcome = pipeline.run()
        store = outcome.provenance
        assert store is not None

    record = store.get(args.url)
    if record is None:
        print("no verdict recorded for %r" % args.url, file=sys.stderr)
        sample = list(store.urls())[:5]
        if sample:
            print("known URLs include:\n  %s" % "\n  ".join(sample),
                  file=sys.stderr)
        return 2
    if args.json:
        print(record.to_json())
    else:
        print(render_provenance(record, include_clean_engines=args.all_engines))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from .obs import DiffConfig, diff_reports

    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.candidate, "r", encoding="utf-8") as handle:
        candidate = json.load(handle)
    config = (DiffConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
              if args.ignore is None else
              DiffConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                         ignore=tuple(args.ignore)))
    result = diff_reports(baseline, candidate, config)
    print(result.render_text())
    return 0 if result.ok else 1


def _static_scan_sources(args: argparse.Namespace) -> List[str]:
    """Script sources for the static-scan target (file path or URL)."""
    import os

    from .htmlparse import parse as parse_html
    from .htmlparse import select

    def scripts_from_html(html: str) -> List[str]:
        sources = []
        for script in select(parse_html(html), "script"):
            if not script.get("src") and script.text_content().strip():
                sources.append(script.text_content())
        return sources

    target = args.target
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        if target.endswith((".htm", ".html")) or text.lstrip().startswith("<"):
            return scripts_from_html(text)
        return [text]

    if "://" in target:
        from .httpsim import SimHttpClient, SimHttpServer

        study = MalwareSlumsStudy(StudyConfig(seed=args.seed, scale=args.scale))
        web = study.generate_web()
        result = SimHttpClient(SimHttpServer(web.registry)).fetch(target)
        body = result.response.body.decode("utf-8", errors="replace")
        if result.response.content_type.startswith(
                ("application/javascript", "text/javascript")):
            return [body]
        return scripts_from_html(body)

    raise FileNotFoundError(target)


def _cmd_static_scan(args: argparse.Namespace) -> int:
    import json

    from .staticjs import analyze_script, render_report_markdown

    try:
        sources = _static_scan_sources(args)
    except FileNotFoundError:
        print("target %r is neither a file nor a URL" % args.target, file=sys.stderr)
        return 2

    if not sources:
        print("no inline scripts found in %s" % args.target, file=sys.stderr)
        return 1

    reports = [analyze_script(source) for source in sources]
    page_decision = None
    if args.explain_skips:
        from .detection.heuristics import _page_skip_decision

        sandbox_skip, blockers = _page_skip_decision(reports)
        page_decision = {"sandbox_skip": sandbox_skip, "blockers": blockers}
    if args.markdown:
        for index, report in enumerate(reports):
            title = "Static scan: %s (script %d/%d)" % (
                args.target, index + 1, len(reports))
            if not args.absint:
                report = dataclasses.replace(report, effects=None)
            print(render_report_markdown(report, title=title))
        if page_decision is not None:
            print("## Sandbox skip decision\n")
            if page_decision["sandbox_skip"]:
                print("Page may **skip** dynamic execution.")
            else:
                print("Page must **execute**; blocking conditions:\n")
                for blocker in page_decision["blockers"]:
                    print("- `%s`" % blocker)
            print()
    else:
        scripts = []
        for report in reports:
            entry = report.to_dict()
            if not args.absint:
                entry.pop("effects", None)
            scripts.append(entry)
        payload = {"target": args.target, "scripts": scripts}
        if page_decision is not None:
            payload["page"] = page_decision
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 1 if any(r.max_severity == "high" for r in reports) else 0


def _cmd_feed(args: argparse.Namespace) -> int:
    from .countermeasures import build_threat_feed

    study = _run_crawl(args.seed, args.scale)
    feed = build_threat_feed(study.pipeline.dataset, study.outcome)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(feed.to_text())
    print("wrote %d domains to %s" % (len(feed), args.output))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "vet": _cmd_vet,
        "har": _cmd_har,
        "records": _cmd_records,
        "compare": _cmd_compare,
        "export": _cmd_export,
        "feed": _cmd_feed,
        "obs-report": _cmd_obs_report,
        "watch": _cmd_watch,
        "profile": _cmd_profile,
        "explain": _cmd_explain,
        "obs-diff": _cmd_obs_diff,
        "static-scan": _cmd_static_scan,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
