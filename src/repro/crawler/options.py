"""Pipeline configuration as one value object.

``CrawlPipeline(web, options)`` takes its whole configuration as one
:class:`PipelineOptions`, the single dataclass that
:class:`~repro.core.config.StudyConfig`, the CLI, and every test
harness build and share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs.observer import RunObserver
from ..obs.profile import MemoryLedger

__all__ = ["PipelineOptions"]


@dataclass
class PipelineOptions:
    """Everything configurable about a :class:`CrawlPipeline` run.

    One value object instead of a kwargs sprawl: build it once (or take
    it from :meth:`StudyConfig.pipeline_options`), tweak fields, pass it
    to ``CrawlPipeline(web, options)``.
    """

    #: pipeline RNG seed (exchange construction, listing weights, crawls)
    seed: int = 77
    #: submit the crawler's saved page files to the scanners (the
    #: footnote-1 cloaking mitigation); False = the cloaking ablation
    submit_files: bool = True
    #: opt-in telemetry (metrics/traces/events/profiling); None keeps
    #: every hook a skipped attribute test
    observer: Optional[RunObserver] = None
    #: run the repro.staticjs pass before sandboxing and skip provably
    #: side-effect-free pages
    static_prefilter: bool = True
    #: worker count for BOTH phases (crawl shards by exchange, scan by
    #: domain); None reads $REPRO_WORKERS, 1 keeps the serial loops, and
    #: below 1 ``CrawlPipeline`` raises ValueError
    workers: Optional[int] = None
    #: record a per-URL VerdictProvenance decision chain during the scan
    record_provenance: bool = False
    #: JSON-lines sink for the flight recorder (implies record_provenance)
    provenance_path: Optional[str] = None
    #: optional per-phase tracemalloc accounting
    memory_ledger: Optional[MemoryLedger] = None
    #: JSON-lines live-status sink (repro.obs.live) that `repro watch`
    #: tails; setting it attaches streaming telemetry to the run (an
    #: internal observer is created if none was passed) without changing
    #: any pipeline output
    status_path: Optional[str] = None
    #: in-flight health checks (a repro.obs.live.Watchdog); None with a
    #: status_path set still attaches the default watchdog
    watchdog: Optional[object] = None
