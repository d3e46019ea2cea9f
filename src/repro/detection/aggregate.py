"""Aggregate URL verdicts across VirusTotal, Quttera, and blacklists.

The study labels a URL malicious when the malware detection tools flag
it; blacklist membership (on 2+ lists) independently marks a domain
malicious.  :class:`UrlVerdictService` is the single point the crawler
pipeline calls per URL, implementing the cloaking mitigation: page
content saved by the crawler is submitted as a *file*, so scanners see
what the victim's browser saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..obs.provenance import (
    STAGE_AGGREGATE,
    STAGE_BLACKLISTS,
    STAGE_ENGINE_PREFIX,
    STAGE_SANDBOX,
    STAGE_STATICJS,
    STAGE_TOOL_PREFIX,
    StageRecord,
    VerdictProvenance,
)
from ..simweb.url import UrlTable
from .base import ScanReport, Submission, stable_unit
from .blacklists import BlacklistSet
from .quttera import QutteraSim
from .virustotal import VirusTotalSim

__all__ = ["UrlVerdict", "UrlVerdictService"]


@dataclass
class UrlVerdict:
    """Combined verdict for one URL."""

    url: str
    malicious: bool
    vt_report: Optional[ScanReport] = None
    quttera_report: Optional[ScanReport] = None
    blacklist_hits: List[str] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    content_category: str = ""
    #: the multi-list threshold the issuing service applied
    min_blacklist_hits: int = 2
    #: the flight-recorder decision chain, when the issuing service ran
    #: with ``record_provenance=True`` (scan-side stages only; the
    #: pipeline prepends crawl/redirect stages from its dataset)
    provenance: Optional[VerdictProvenance] = None

    @property
    def blacklisted(self) -> bool:
        return len(self.blacklist_hits) >= self.min_blacklist_hits


#: deterministic simulated base cost per provenance stage kind (seconds);
#: jittered ±25% keyed on (stage, url) so shard timelines stay varied
#: without a live clock — parallel runs reproduce these bit for bit
_STAGE_BASE_SECONDS = {
    STAGE_STATICJS: 0.005,
    STAGE_SANDBOX: 0.06,
    "sandbox_skipped": 0.002,
    "engine": 0.002,
    "tool": 0.05,
    STAGE_BLACKLISTS: 0.001,
    STAGE_AGGREGATE: 0.0005,
}


def _stage_seconds(stage: str, url: str, base_key: Optional[str] = None) -> float:
    base = _STAGE_BASE_SECONDS[base_key if base_key is not None else stage]
    return base * (0.75 + 0.5 * stable_unit("provenance", stage, url))


class UrlVerdictService:
    """Scans URLs/files with VT + Quttera + blacklists and combines."""

    def __init__(
        self,
        virustotal: VirusTotalSim,
        quttera: QutteraSim,
        blacklists: BlacklistSet,
        min_blacklist_hits: int = 2,
        submit_files: bool = True,
        observer: Optional[object] = None,
        static_prefilter: bool = True,
        record_provenance: bool = False,
        compile_cache: Optional[object] = None,
        url_table: Optional[UrlTable] = None,
    ) -> None:
        self.virustotal = virustotal
        self.quttera = quttera
        self.blacklists = blacklists
        self.min_blacklist_hits = min_blacklist_hits
        #: the footnote-1 mitigation: submit downloaded page files rather
        #: than bare URLs (set False for the cloaking ablation)
        self.submit_files = submit_files
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks)
        self.observer = observer
        #: gate for the repro.staticjs sandbox pre-filter on shared scans
        self.static_prefilter = static_prefilter
        #: attach a :class:`VerdictProvenance` decision chain to every
        #: verdict (the per-URL flight recorder; ~free, but off by
        #: default so unobserved runs build no records at all)
        self.record_provenance = record_provenance
        #: optional :class:`repro.jsengine.CompileCache`, pipeline-scoped
        #: and *shared with every shard clone* — the lock is inside the
        #: cache, so the hit rate (and the compile work saved) does not
        #: depend on the worker count
        self.compile_cache = compile_cache
        #: the pipeline's :class:`~repro.simweb.url.UrlTable` (shared with
        #: every shard clone), which already holds each crawled URL parsed
        self.url_table = url_table if url_table is not None else UrlTable()

    def shard_clone(self, observer: Optional[object] = None) -> "UrlVerdictService":
        """A clone safe to run on one executor shard's worker thread.

        The blacklists are shared (read-only lookups); the VT/Quttera
        stacks are rebuilt *without* HTTP clients, so a shard can only
        process file submissions — URL submissions fetch through the
        stateful simulated server and must stay on the ordered serial
        lane (see :mod:`repro.scanexec`).  ``observer`` is typically a
        per-shard buffer replayed deterministically after the join.
        """
        return UrlVerdictService(
            virustotal=VirusTotalSim(observer=observer,
                                     static_prefilter=self.static_prefilter,
                                     compile_cache=self.compile_cache),
            quttera=QutteraSim(observer=observer,
                               static_prefilter=self.static_prefilter,
                               compile_cache=self.compile_cache),
            blacklists=self.blacklists,
            min_blacklist_hits=self.min_blacklist_hits,
            submit_files=self.submit_files,
            observer=observer,
            static_prefilter=self.static_prefilter,
            record_provenance=self.record_provenance,
            compile_cache=self.compile_cache,
            url_table=self.url_table,
        )

    def verdict(
        self,
        url: str,
        content: Optional[bytes] = None,
        content_type: str = "text/html",
        final_url: Optional[str] = None,
    ) -> UrlVerdict:
        """Combined verdict; ``content`` is the crawler's saved copy."""
        from .heuristics import _frame

        with _frame(self.observer, "verdict"):
            if content is not None and self.submit_files:
                # one shared analysis: the tools disagree via their engines
                # and thresholds, not via duplicated sandbox runs
                from .heuristics import analyze_content

                analysis = analyze_content(content, content_type, url,
                                           observer=self.observer,
                                           static_prefilter=self.static_prefilter,
                                           compile_cache=self.compile_cache)
                submission = Submission(
                    url=url, content=content, content_type=content_type,
                    final_url=final_url, analysis=analysis,
                )
                vt = self.virustotal.scan(submission)
                quttera = self.quttera.scan(submission)
            else:
                analysis = None
                vt = self.virustotal.scan(Submission(url=url))
                quttera = self.quttera.scan(Submission(url=url))

            parsed = self.url_table.lookup(url)
            hits = self.blacklists.hits(parsed) if parsed is not None else []
            blacklisted = len(hits) >= self.min_blacklist_hits

            observer = self.observer
            if observer is not None:
                # one scan unit per engine verdict plus the three
                # aggregating tools (VT, Quttera, blacklists)
                observer.work("detect.scan_units", len(vt.engines) + 3)
                if analysis is not None and analysis.static_redirect_targets:
                    # provenance-only signal: statically resolved
                    # navigation/iframe targets never touch the verdict
                    observer.count("scan.static.redirect_targets",
                                   len(analysis.static_redirect_targets))
                for result in vt.engines:
                    if result.detected:
                        observer.count("scan.engine.detected", engine=result.engine)
                if hits:
                    observer.count("scan.blacklist.hits", len(hits))
                for tool, flagged in (("virustotal", vt.malicious),
                                      ("quttera", quttera.malicious),
                                      ("blacklists", blacklisted)):
                    if flagged:
                        observer.count("scan.tool.malicious", tool=tool)

        labels = vt.merged_labels() + [
            label for label in quttera.labels if label not in vt.labels
        ]
        if blacklisted:
            labels.append("Blacklist.MultiList")
        malicious = vt.malicious or quttera.malicious or blacklisted
        provenance: Optional[VerdictProvenance] = None
        if self.record_provenance:
            provenance = self._build_provenance(
                url, malicious, analysis, vt, quttera, hits, blacklisted)
            if observer is not None:
                observer.count("provenance.records")
        return UrlVerdict(
            url=url,
            malicious=malicious,
            vt_report=vt,
            quttera_report=quttera,
            blacklist_hits=hits,
            labels=labels,
            content_category=vt.details.get("category", ""),
            min_blacklist_hits=self.min_blacklist_hits,
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    def _build_provenance(self, url: str, malicious: bool,
                          analysis: Optional[object],
                          vt: ScanReport, quttera: ScanReport,
                          hits: List[str], blacklisted: bool) -> VerdictProvenance:
        """Assemble the scan-side decision chain for one URL.

        Stage durations are deterministic functions of (stage, url) —
        simulated service costs, never wall-clock — so the provenance of
        a sharded parallel run is bit-identical to the serial run's.
        """
        stages: List[StageRecord] = []

        if analysis is not None:
            static = analysis.static_evidence()
            stages.append(StageRecord(
                name=STAGE_STATICJS,
                outcome=("benign-skip" if static["sandbox_skipped"]
                         else ("findings" if static["findings"] else "clean")),
                duration=_stage_seconds(STAGE_STATICJS, url),
                evidence=static,
            ))
            sandbox = analysis.sandbox_evidence()
            stages.append(StageRecord(
                name=STAGE_SANDBOX,
                outcome="skipped" if sandbox["skipped"] else "executed",
                duration=_stage_seconds(
                    STAGE_SANDBOX, url,
                    base_key="sandbox_skipped" if sandbox["skipped"] else None),
                evidence=sandbox,
            ))

        for result in vt.engines:
            stages.append(StageRecord(
                name=STAGE_ENGINE_PREFIX + result.engine,
                outcome="detected" if result.detected else "clean",
                duration=_stage_seconds(
                    STAGE_ENGINE_PREFIX + result.engine, url, base_key="engine"),
                evidence={"label": result.label} if result.label else {},
            ))
        for tool, report in (("virustotal", vt), ("quttera", quttera)):
            stages.append(StageRecord(
                name=STAGE_TOOL_PREFIX + tool,
                outcome="malicious" if report.malicious else "clean",
                duration=_stage_seconds(STAGE_TOOL_PREFIX + tool, url,
                                        base_key="tool"),
                evidence=report.provenance_evidence(),
            ))
        stages.append(StageRecord(
            name=STAGE_BLACKLISTS,
            outcome="blacklisted" if blacklisted else ("hits" if hits else "clean"),
            duration=_stage_seconds(STAGE_BLACKLISTS, url),
            evidence={"hits": list(hits), "threshold": self.min_blacklist_hits},
        ))
        flagged_by = [tool for tool, flag in (
            ("virustotal", vt.malicious), ("quttera", quttera.malicious),
            ("blacklists", blacklisted)) if flag]
        stages.append(StageRecord(
            name=STAGE_AGGREGATE,
            outcome="malicious" if malicious else "benign",
            duration=_stage_seconds(STAGE_AGGREGATE, url),
            evidence={"flagged_by": flagged_by},
        ))
        return VerdictProvenance(url=url, malicious=malicious, stages=stages)
