"""Run-telemetry report: JSON + Markdown.

Turns an observed pipeline run into the accounting a measurement
operator reads after (or during) a campaign: where the URLs went
per exchange, what each detection engine fired on, how deep the
redirect chains ran, and where the time was spent.  The JSON form is
the machine artifact (schema below); the Markdown form renders through
the same table helper as the study report.

JSON schema (top-level keys)::

    {
      "exchanges":  {name: {steps, member_visits, self_referrals,
                            popular_referrals, campaign_visits, records,
                            distinct_urls, har_entries, crawl_seconds,
                            urls_per_second}},
      "http":       {requests, status_classes: {"2xx": n, ...},
                     redirect_hops, latency: histogram-summary},
      "redirects":  {depth_counts: {"0": n, "1": n, ...}, max_depth},
      "scan":       {urls_scanned, malicious, benign, unscanned_queries,
                     unscanned_top: [[url, queries], ...],
                     engines: {name: detections}, engine_misses: {...},
                     heuristic_fps: {...}, quttera_threats: {severity: n},
                     blacklist_hits: n},
      "staticjs":   {scripts_analyzed, verdicts: {verdict: n},
                     sandbox_skipped_pages, sandbox_executed_pages,
                     sandbox_skip_rate, skipped_scripts,
                     dynamic_agreement_rate},
      "scanexec":   {workers, shards, file_tasks, url_tasks},
      "crawlexec":  {workers, shards, fallback_serial},
      "provenance": {records, stage_mix: {stage: n}, mean_stages,
                     recorded_counter},
      "dedup":      {records, new_urls, duplicate_urls, hit_rate},
      "js":         {gauges: {gauge-name: value},
                     op_count_distribution: histogram-summary,
                     compile_cache: {hits, misses, hit_rate}},
      "work":       {totals: {kind: units},          # only when the run
                     hot_paths: [{path, kind, units}],  # was profiled
                     cells: n},
      "memory":     {phases, objects, peak_bytes},   # only when a
                                                     # MemoryLedger ran
      "spans":      {name: {count, total, p50, p95, p99}},
      "events":     {emitted, dropped, tail: [...]},
      "metrics":    full registry snapshot
    }

The ``work`` and ``memory`` sections come from the deterministic
profiler (:mod:`repro.obs.profile`) and appear only when profiling was
enabled, so unprofiled baselines are unaffected.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .observer import RunObserver

__all__ = ["attach_status_section", "build_run_report",
           "render_run_report_markdown"]


def _labeled_counts(observer: RunObserver, name: str, label: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for counter in observer.metrics.counters_named(name):
        labels = dict(counter.labels)
        out[labels.get(label, "")] = counter.value
    return out


def build_run_report(pipeline: Any, outcome: Any = None) -> Dict[str, Any]:
    """Assemble the telemetry report for an observed pipeline run.

    ``pipeline`` is a :class:`~repro.crawler.pipeline.CrawlPipeline`
    whose ``observer`` is set; ``outcome`` the
    :class:`~repro.crawler.pipeline.ScanOutcome` if the scan phase ran.
    (Duck-typed to keep this module import-light.)
    """
    observer: Optional[RunObserver] = getattr(pipeline, "observer", None)
    if observer is None:
        raise ValueError("pipeline has no observer attached; "
                         "construct it with CrawlPipeline(web, PipelineOptions(observer=RunObserver()))")
    metrics = observer.metrics
    dataset = pipeline.dataset

    # -- per-exchange crawl accounting --------------------------------------
    exchanges: Dict[str, Dict[str, Any]] = {}
    for name, stats in sorted(pipeline.crawl_stats.items()):
        records = dataset.records_for(name)
        har = dataset.har_logs.get(name)
        crawl_seconds = har.time_span() if har is not None else 0.0
        entry_count = len(har) if har is not None else 0
        exchanges[name] = {
            "steps": stats.steps,
            "member_visits": stats.member_visits,
            "self_referrals": stats.self_referrals,
            "popular_referrals": stats.popular_referrals,
            "campaign_visits": stats.campaign_visits,
            "records": len(records),
            "distinct_urls": len({r.url for r in records}),
            "har_entries": entry_count,
            "crawl_seconds": crawl_seconds,
            "urls_per_second": (len(records) / crawl_seconds) if crawl_seconds else 0.0,
        }

    # -- HTTP layer ----------------------------------------------------------
    status_classes = _labeled_counts(observer, "http.responses", "status_class")
    latency = metrics.histogram("http.fetch.seconds").summary()
    http = {
        "requests": metrics.counter_total("http.requests"),
        "status_classes": status_classes,
        "redirect_hops": metrics.counter_total("http.redirect.hops"),
        "latency": latency,
    }

    # -- redirect-chain depth distribution ----------------------------------
    depth_counts: Dict[str, int] = {}
    max_depth = 0
    for record in dataset.records:
        if record.role != "page":
            continue
        depth_counts[str(record.redirect_count)] = (
            depth_counts.get(str(record.redirect_count), 0) + 1
        )
        max_depth = max(max_depth, record.redirect_count)
    redirects = {"depth_counts": dict(sorted(depth_counts.items(), key=lambda kv: int(kv[0]))),
                 "max_depth": max_depth}

    # -- scan phase ----------------------------------------------------------
    scan: Dict[str, Any] = {
        "urls_scanned": int(metrics.counter_total("scan.urls")),
        "malicious": int(metrics.counter_total("scan.verdict.malicious")),
        "benign": int(metrics.counter_total("scan.verdict.benign")),
        "unscanned_queries": getattr(outcome, "unscanned_queries", 0) if outcome is not None else 0,
        # worst never-scanned offenders, most-queried first (healthy
        # runs have none; a populated list names the gap to close)
        "unscanned_top": [list(item) for item in outcome.unscanned_top()]
        if outcome is not None and hasattr(outcome, "unscanned_top") else [],
        "engines": _labeled_counts(observer, "scan.engine.detected", "engine"),
        "engine_misses": _labeled_counts(observer, "scan.engine.signature_miss", "engine"),
        "heuristic_fps": _labeled_counts(observer, "scan.engine.heuristic_fp", "engine"),
        "quttera_threats": _labeled_counts(observer, "scan.quttera.threats", "severity"),
        "blacklist_hits": int(metrics.counter_total("scan.blacklist.hits")),
    }

    # -- static pre-filter (repro.staticjs) ---------------------------------
    skipped_pages = metrics.counter_total("staticjs.sandbox.skipped_pages")
    executed_pages = metrics.counter_total("staticjs.sandbox.executed_pages")
    agreement = _labeled_counts(observer, "staticjs.agreement", "agree")
    agreed = agreement.get("true", 0.0)
    disagreed = agreement.get("false", 0.0)
    staticjs = {
        "scripts_analyzed": int(metrics.counter_total("staticjs.scripts")),
        "verdicts": {k: int(v) for k, v in
                     _labeled_counts(observer, "staticjs.verdict", "verdict").items()},
        "sandbox_skipped_pages": int(skipped_pages),
        "sandbox_executed_pages": int(executed_pages),
        "sandbox_skip_rate": (skipped_pages / (skipped_pages + executed_pages)
                              if (skipped_pages + executed_pages) else 0.0),
        "skipped_scripts": int(metrics.counter_total("staticjs.sandbox.skipped_scripts")),
        "dynamic_agreement_rate": (agreed / (agreed + disagreed)
                                   if (agreed + disagreed) else 0.0),
        # abstract-interpretation sub-stage: why pages still executed,
        # and the redirect targets the static pass recovered
        "absint": {
            "blocked_pages": {
                k: int(v) for k, v in
                _labeled_counts(observer, "staticjs.absint.blocked_pages",
                                "reason").items()},
            "redirect_targets": int(
                metrics.counter_total("scan.static.redirect_targets")),
        },
    }

    # -- scan executor (repro.scanexec; zeros when the run was serial) ------
    scanexec = {
        "workers": int(metrics.gauge("scanexec.workers").value),
        "shards": int(metrics.counter_total("scanexec.shards")),
        "file_tasks": int(metrics.counter_total("scanexec.tasks.file")),
        "url_tasks": int(metrics.counter_total("scanexec.tasks.url")),
    }

    # -- crawl executor (repro.crawlexec; zeros when the run was serial) ----
    crawlexec = {
        "workers": int(metrics.gauge("crawlexec.workers").value),
        "shards": int(metrics.counter_total("crawlexec.shards")),
        "fallback_serial": bool(metrics.counter_total("crawlexec.fallback.serial")),
    }

    # -- verdict provenance (repro.obs.provenance; zeros when disabled) -----
    store = getattr(pipeline, "provenance_store", None)
    provenance = {
        "records": len(store) if store is not None else 0,
        "stage_mix": store.stage_mix() if store is not None else {},
        "mean_stages": store.mean_stages() if store is not None else 0.0,
        "recorded_counter": int(metrics.counter_total("provenance.records")),
    }

    # -- dedup (from the dataset itself: one capture attempt per record) ----
    record_count = len(dataset.records)
    new_urls = len(dataset.content)
    dup_urls = max(0, record_count - new_urls)
    dedup = {
        "records": record_count,
        "new_urls": new_urls,
        "duplicate_urls": dup_urls,
        "hit_rate": (dup_urls / record_count) if record_count else 0.0,
    }

    # -- JS sandbox: run-level gauges + per-script step distribution --------
    cache_hits = metrics.counter_total("jsengine.cache.hits")
    cache_misses = metrics.counter_total("jsengine.cache.misses")
    js = {
        "gauges": {
            key: value
            for key, value in observer.metrics.snapshot()["gauges"].items()
            if key.startswith("js.")
        },
        "op_count_distribution": metrics.histogram("js.op_count").summary(),
        # the per-source compiled-program cache (repro.jsengine): every
        # AST request is a hit or a miss; misses == distinct scripts
        "compile_cache": {
            "hits": int(cache_hits),
            "misses": int(cache_misses),
            "hit_rate": (cache_hits / (cache_hits + cache_misses)
                         if (cache_hits + cache_misses) else 0.0),
        },
    }

    events = {
        "emitted": observer.events.total_emitted,
        "dropped": observer.events.dropped,
        "tail": observer.events.tail(10),
    }

    report = {
        "exchanges": exchanges,
        "http": http,
        "redirects": redirects,
        "scan": scan,
        "staticjs": staticjs,
        "scanexec": scanexec,
        "crawlexec": crawlexec,
        "provenance": provenance,
        "dedup": dedup,
        "js": js,
        "spans": observer.tracer.summary(),
        "events": events,
        "metrics": metrics.snapshot(),
    }

    # -- deterministic work profile (only when the run was profiled) --------
    profiler = getattr(observer, "profiler", None)
    if profiler is not None:
        ledger = profiler.ledger
        report["work"] = {
            "totals": ledger.totals_by_kind(),
            "hot_paths": [
                {"path": ";".join(stack), "kind": kind, "units": units}
                for stack, kind, units in ledger.hot_paths(10)
            ],
            "cells": len(ledger),
        }
    memory_ledger = getattr(pipeline, "memory_ledger", None)
    if memory_ledger is not None:
        report["memory"] = memory_ledger.to_dict()

    return report


def attach_status_section(report: Dict[str, Any],
                          status_path: str) -> Dict[str, Any]:
    """Fold a live status file into the report as a ``status`` section.

    The section is the same snapshot schema ``repro watch --json``
    prints — post-hoc reports and live telemetry share one shape.  It
    is attached only on explicit request (``repro obs-report
    --status``), so baseline reports are untouched.
    """
    from .live import load_status_snapshot

    report["status"] = load_status_snapshot(status_path)
    return report


def render_run_report_markdown(report: Dict[str, Any],
                               title: str = "Run telemetry") -> str:
    """Render :func:`build_run_report` output as Markdown."""
    # imported here, not at module level: core.markdown pulls in the
    # analysis package, which imports httpsim, which imports obs.clock
    from ..core.markdown import markdown_table

    sections: List[str] = ["# %s" % title, ""]

    sections.append("## Per-exchange crawl\n")
    sections.append(markdown_table(
        ("Exchange", "Steps", "Member", "Self", "Popular", "Campaign",
         "Records", "Distinct", "URLs/s"),
        [
            (name, e["steps"], e["member_visits"], e["self_referrals"],
             e["popular_referrals"], e["campaign_visits"], e["records"],
             e["distinct_urls"], "%.1f" % e["urls_per_second"])
            for name, e in report["exchanges"].items()
        ],
    ))

    http = report["http"]
    sections.append("\n## HTTP layer\n")
    rows = [("requests", int(http["requests"])),
            ("redirect hops", int(http["redirect_hops"]))]
    rows.extend((("status %s" % cls), int(count))
                for cls, count in sorted(http["status_classes"].items()))
    sections.append(markdown_table(("Metric", "Count"), rows))
    latency = http["latency"]
    if latency["count"]:
        sections.append("\nRequest latency (s): p50 %.3f · p95 %.3f · p99 %.3f "
                        "· mean %.3f over %d requests"
                        % (latency["p50"], latency["p95"], latency["p99"],
                           latency["mean"], latency["count"]))

    redirects = report["redirects"]
    if redirects["depth_counts"]:
        sections.append("\n## Redirect-chain depth\n")
        sections.append(markdown_table(
            ("Hops", "Pages"),
            [(hops, count) for hops, count in redirects["depth_counts"].items()],
        ))

    scan = report["scan"]
    sections.append("\n## Scan phase\n")
    sections.append(markdown_table(
        ("Metric", "Count"),
        [("URLs scanned", scan["urls_scanned"]),
         ("malicious", scan["malicious"]),
         ("benign", scan["benign"]),
         ("unscanned queries", scan["unscanned_queries"]),
         ("blacklist hits", scan["blacklist_hits"])],
    ))
    if scan.get("unscanned_top"):
        sections.append("\n### Never-scanned URLs (top offenders)\n")
        sections.append(markdown_table(
            ("URL", "Queries"),
            [(url, int(count)) for url, count in scan["unscanned_top"]],
        ))
    if scan["engines"]:
        sections.append("\n### Per-engine detections\n")
        sections.append(markdown_table(
            ("Engine", "Detections", "Signature misses", "Heuristic FPs"),
            [
                (engine, int(count),
                 int(scan["engine_misses"].get(engine, 0)),
                 int(scan["heuristic_fps"].get(engine, 0)))
                for engine, count in sorted(scan["engines"].items(),
                                            key=lambda kv: -kv[1])
            ],
        ))
    if scan["quttera_threats"]:
        sections.append("\n### Quttera threats\n")
        sections.append(markdown_table(
            ("Severity", "Count"),
            [(sev, int(count)) for sev, count in sorted(scan["quttera_threats"].items())],
        ))

    staticjs = report.get("staticjs", {})
    if staticjs.get("scripts_analyzed"):
        sections.append("\n## Static pre-filter\n")
        rows = [("scripts analyzed", staticjs["scripts_analyzed"]),
                ("sandbox-skipped pages", staticjs["sandbox_skipped_pages"]),
                ("sandbox-executed pages", staticjs["sandbox_executed_pages"]),
                ("skipped scripts", staticjs["skipped_scripts"])]
        rows.extend((("verdict %s" % verdict), count)
                    for verdict, count in sorted(staticjs["verdicts"].items()))
        sections.append(markdown_table(("Metric", "Count"), rows))
        sections.append("\nSandbox skip rate %.1f%% · static/dynamic agreement %.1f%%"
                        % (100 * staticjs["sandbox_skip_rate"],
                           100 * staticjs["dynamic_agreement_rate"]))
        absint = staticjs.get("absint", {})
        if absint.get("blocked_pages") or absint.get("redirect_targets"):
            sections.append("\n### Abstract interpretation\n")
            rows = [("static redirect targets",
                     absint.get("redirect_targets", 0))]
            rows.extend((("blocked: %s" % reason), count) for reason, count
                        in sorted(absint.get("blocked_pages", {}).items()))
            sections.append(markdown_table(("Metric", "Count"), rows))

    scanexec = report.get("scanexec", {})
    if scanexec.get("workers"):
        sections.append("\n## Scan executor\n")
        sections.append(markdown_table(
            ("Metric", "Value"),
            [("workers", scanexec["workers"]),
             ("shards", scanexec["shards"]),
             ("file tasks (sharded)", scanexec["file_tasks"]),
             ("URL tasks (serial lane)", scanexec["url_tasks"])],
        ))

    crawlexec = report.get("crawlexec", {})
    if crawlexec.get("workers"):
        sections.append("\n## Crawl executor\n")
        sections.append(markdown_table(
            ("Metric", "Value"),
            [("workers", crawlexec["workers"]),
             ("shards (exchanges)", crawlexec["shards"])],
        ))
        if crawlexec.get("fallback_serial"):
            sections.append("\nShared-state overlap detected — the crawl "
                            "re-ran through the bit-exact serial fallback.")

    provenance = report.get("provenance", {})
    if provenance.get("records"):
        sections.append("\n## Verdict provenance\n")
        sections.append(markdown_table(
            ("Stage", "Records"),
            [(stage, int(count))
             for stage, count in provenance["stage_mix"].items()],
        ))
        sections.append("\n%d records, %.1f stages each on average "
                        "(`repro explain <url>` renders one chain)"
                        % (provenance["records"], provenance["mean_stages"]))

    dedup = report["dedup"]
    sections.append("\n## Dedup\n")
    sections.append("%d records; %d new URLs, %d duplicates (hit rate %.1f%%)"
                    % (dedup["records"], dedup["new_urls"],
                       dedup["duplicate_urls"], 100 * dedup["hit_rate"]))

    js = report["js"]
    cache = js.get("compile_cache", {})
    if js["gauges"] or cache.get("hits") or cache.get("misses"):
        sections.append("\n## JS sandbox\n")
        if js["gauges"]:
            sections.append(markdown_table(
                ("Gauge", "Value"),
                [(name, int(value)) for name, value in sorted(js["gauges"].items())],
            ))
        op_dist = js.get("op_count_distribution", {})
        if op_dist.get("count"):
            sections.append("\nInterpreter steps per script: p50 %.0f · p95 %.0f "
                            "· max %.0f over %d scripts"
                            % (op_dist["p50"], op_dist["p95"], op_dist["max"],
                               int(op_dist["count"])))
        if cache.get("hits") or cache.get("misses"):
            sections.append("\nCompile cache: %d hits, %d misses "
                            "(%.1f%% hit rate — misses are distinct scripts)"
                            % (cache["hits"], cache["misses"],
                               100 * cache["hit_rate"]))

    work = report.get("work")
    if work and work["totals"]:
        sections.append("\n## Work profile\n")
        sections.append(markdown_table(
            ("Path", "Kind", "Units"),
            [(hp["path"] or "(root)", hp["kind"], int(hp["units"]))
             for hp in work["hot_paths"]],
        ))
        sections.append("\n### Totals by kind\n")
        sections.append(markdown_table(
            ("Kind", "Units"),
            [(kind, int(units)) for kind, units in work["totals"].items()],
        ))

    memory = report.get("memory")
    if memory and memory["phases"]:
        sections.append("\n## Memory ledger\n")
        sections.append(markdown_table(
            ("Phase", "Allocated MiB", "Peak MiB"),
            [(name, "%.1f" % (p["allocated_bytes"] / 2**20),
              "%.1f" % (p["peak_bytes"] / 2**20))
             for name, p in memory["phases"].items()],
        ))
        if memory["objects"]:
            sections.append("\n### Object populations\n")
            sections.append(markdown_table(
                ("Population", "Objects"),
                [(name, count) for name, count in memory["objects"].items()],
            ))

    if report["spans"]:
        sections.append("\n## Spans\n")
        sections.append(markdown_table(
            ("Span", "Count", "Total s", "p50", "p95", "p99"),
            [
                (name, int(s["count"]), "%.2f" % s["total"], "%.3f" % s["p50"],
                 "%.3f" % s["p95"], "%.3f" % s["p99"])
                for name, s in report["spans"].items()
            ],
        ))

    events = report["events"]
    sections.append("\n## Events\n")
    sections.append("%d emitted, %d dropped by the ring bound"
                    % (events["emitted"], events["dropped"]))

    status = report.get("status")
    if status:
        from .live import render_status_text

        sections.append("\n## Live status (final snapshot)\n")
        sections.append("```\n%s\n```" % render_status_text(status))

    sections.append("")
    return "\n".join(sections)
