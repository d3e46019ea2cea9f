"""The six tools the paper vetted and rejected.

Section III-B tests eight candidate tools against a gold-standard
malware set; Wepawet and AVG Threat Lab detected none of it, URLQuery
about 70%, BrightCloud 60%, SiteCheck 40%, SenderBase 10% — only
VirusTotal and Quttera scored 100% and were kept.

Each rejected tool is modelled as a *capability-limited* scanner: it
runs the same honest heuristics but only understands a subset of
signals and/or has large deterministic signature gaps, which is what
produces the measured accuracies (the vetting bench reproduces the
experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..httpsim import SimHttpClient
from .base import ScanReport, Submission, stable_unit
from .heuristics import ContentAnalysis, analyze_content

__all__ = [
    "LimitedScanner",
    "make_wepawet",
    "make_urlquery",
    "make_brightcloud",
    "make_sitecheck",
    "make_senderbase",
    "make_avg_threatlab",
    "all_rejected_tools",
]


@dataclass
class LimitedScanner:
    """A scanner with partial capability.

    ``capability`` maps an analysis to True/False (would detect if its
    signatures were complete); ``hit_rate`` is the fraction of would-be
    detections its signature corpus actually covers, keyed
    deterministically per artifact.
    """

    name: str
    capability: Callable[[ContentAnalysis], bool]
    hit_rate: float
    client: Optional[SimHttpClient] = None

    def scan(self, submission: Submission) -> ScanReport:
        if not submission.is_file_scan and self.client is not None:
            result = self.client.fetch(submission.url)
            submission = Submission(
                url=submission.url,
                content=result.response.body,
                content_type=result.response.content_type,
                final_url=result.final_url,
            )
        analysis = submission.analysis
        if analysis is None:
            analysis = analyze_content(
                submission.content or b"", submission.content_type, submission.url
            )
        capable = self.capability(analysis)
        detected = capable and stable_unit(self.name, submission.sha256) < self.hit_rate
        return ScanReport(
            tool=self.name,
            url=submission.url,
            malicious=detected,
            labels=["%s.Detection" % self.name] if detected else [],
        )


def _broad(analysis: ContentAnalysis) -> bool:
    return (
        analysis.malicious_iframe_score >= 0.4
        or analysis.behavior_score >= 0.5
        or analysis.flash_score >= 0.5
        or analysis.executable_signature_hit
    )


def _js_only(analysis: ContentAnalysis) -> bool:
    return analysis.behavior_score >= 0.5 or analysis.obfuscation_layers >= 1


def _reputation_only(analysis: ContentAnalysis) -> bool:
    # reputation services key on hosting/redirect infrastructure
    return analysis.redirect_stub or bool(analysis.download_triggers)


def make_wepawet(client: Optional[SimHttpClient] = None) -> LimitedScanner:
    """Wepawet was unmaintained by the study period: detects nothing."""
    return LimitedScanner("Wepawet", lambda a: False, hit_rate=0.0, client=client)


def make_avg_threatlab(client: Optional[SimHttpClient] = None) -> LimitedScanner:
    """AVG Threat Lab (site reports): no gold-standard coverage either."""
    return LimitedScanner("AVGThreatLab", lambda a: False, hit_rate=0.0, client=client)


def make_urlquery(client: Optional[SimHttpClient] = None) -> LimitedScanner:
    return LimitedScanner("URLQuery", _broad, hit_rate=0.72, client=client)


def make_brightcloud(client: Optional[SimHttpClient] = None) -> LimitedScanner:
    return LimitedScanner("BrightCloud", _broad, hit_rate=0.62, client=client)


def make_sitecheck(client: Optional[SimHttpClient] = None) -> LimitedScanner:
    return LimitedScanner("SiteCheck", _js_only, hit_rate=0.68, client=client)


def make_senderbase(client: Optional[SimHttpClient] = None) -> LimitedScanner:
    return LimitedScanner("SenderBase", _reputation_only, hit_rate=0.75, client=client)


def all_rejected_tools(client: Optional[SimHttpClient] = None):
    """All six rejected tools, in the paper's order of discussion."""
    return [
        make_wepawet(client),
        make_avg_threatlab(client),
        make_urlquery(client),
        make_brightcloud(client),
        make_sitecheck(client),
        make_senderbase(client),
    ]
