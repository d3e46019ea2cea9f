"""Simulated VirusTotal: multi-engine aggregation service.

Mirrors how the paper used the real service (Section III-B): submissions
go in as URLs or as uploaded files; the report aggregates the verdicts
of the whole engine pool.  URL submissions are fetched by the service
itself **without a browser referrer**, which is what cloaked sites
discriminate on — the paper's footnote 1 mitigation (downloading pages
locally and uploading the files) is reproduced by file submissions.

The service also reports a content category for the URL's site (used by
Figure 7), inferred from the page's visible topic vocabulary — never
from generator ground truth.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..httpsim import SimHttpClient
from ..simweb.categories import CATEGORY_TOPICS
from .base import ScanReport, Submission
from .engines import SimulatedEngine, default_engine_pool
from .heuristics import ContentAnalysis, analyze_content

__all__ = ["VirusTotalSim"]


class VirusTotalSim:
    """The VirusTotal-like aggregator.

    Parameters
    ----------
    client:
        HTTP client used to fetch URL submissions (no referrer — the
        scanner's own fetch, susceptible to cloaking).
    engines:
        Engine pool; defaults to :func:`default_engine_pool`.
    positives_threshold:
        Minimum engine detections for the aggregate ``malicious`` verdict
        (the paper treats multi-engine agreement as the signal).
    """

    name = "VirusTotal"

    def __init__(
        self,
        client: Optional[SimHttpClient] = None,
        engines: Optional[List[SimulatedEngine]] = None,
        positives_threshold: int = 2,
        observer: Optional[object] = None,
        static_prefilter: bool = True,
        compile_cache: Optional[object] = None,
    ) -> None:
        self.client = client
        self.engines = engines if engines is not None else default_engine_pool(observer)
        self.positives_threshold = positives_threshold
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks);
        #: threaded into the JS sandbox for eval-depth/op-count gauges
        self.observer = observer
        #: run the repro.staticjs pass and skip the sandbox for pages
        #: whose scripts are provably side-effect-free
        self.static_prefilter = static_prefilter
        #: optional :class:`repro.jsengine.CompileCache` shared across
        #: the run so templated scripts compile once
        self.compile_cache = compile_cache
        self._url_cache: Dict[str, ScanReport] = {}

    # ------------------------------------------------------------------
    def scan(self, submission: Submission) -> ScanReport:
        """Scan a URL, an uploaded file, or a pre-analyzed submission."""
        if submission.analysis is not None:
            return self._scan_analysis(submission, submission.analysis)
        if submission.is_file_scan:
            return self._scan_analysis(
                submission,
                analyze_content(submission.content or b"", submission.content_type,
                                submission.url, observer=self.observer,
                                static_prefilter=self.static_prefilter,
                                compile_cache=self.compile_cache),
            )
        return self._scan_fetched(submission.url)

    def _scan_fetched(self, url: str) -> ScanReport:
        """URL submission: the service fetches the URL itself."""
        cached = self._url_cache.get(url)
        if cached is not None:
            return cached
        if self.client is None:
            raise RuntimeError("VirusTotalSim needs a client for URL submissions")
        result = self.client.fetch(url)  # no referrer: cloaking applies
        submission = Submission(
            url=url,
            content=result.response.body,
            content_type=result.response.content_type,
            final_url=result.final_url,
        )
        analysis = analyze_content(submission.content or b"", submission.content_type,
                                   url, observer=self.observer,
                                   static_prefilter=self.static_prefilter,
                                   compile_cache=self.compile_cache)
        report = self._scan_analysis(submission, analysis)
        if result.redirected:
            report.details["final_url"] = result.final_url
            report.details["redirects"] = str(result.redirect_count)
        self._url_cache[url] = report
        return report

    # ------------------------------------------------------------------
    def _scan_analysis(self, submission: Submission, analysis: ContentAnalysis) -> ScanReport:
        results = [engine.scan(analysis, submission.sha256) for engine in self.engines]
        positives = sum(1 for r in results if r.detected)
        report = ScanReport(
            tool=self.name,
            url=submission.url,
            malicious=positives >= self.positives_threshold,
            engines=results,
            details={
                "positives": str(positives),
                "total": str(len(results)),
                "kind": analysis.kind,
                "category": self.categorize_content(submission.text) or "",
            },
        )
        report.labels = report.merged_labels()
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def categorize_content(text: str) -> Optional[str]:
        """Infer the site's content category from its topic vocabulary.

        VirusTotal reports website categories alongside verdicts; our
        version recovers them from the page text (Figure 7 input).
        """
        if not text:
            return None
        lowered = text.lower()
        best: Optional[str] = None
        best_hits = 0
        for category, topics in CATEGORY_TOPICS.items():
            hits = sum(lowered.count(topic) for topic in topics)
            if hits > best_hits:
                best_hits = hits
                best = category
        return best
