"""Simulated Quttera: deep heuristic web-malware scanner.

The paper relies on Quttera for *detailed* reports: it "can detect
malicious hidden iframe elements, malicious re-directs, malvertising,
JavaScript exploits ... [and] malicious JavaScript code that has been
obfuscated" (Section III-B).  Our version runs the full heuristic stack
(static parse, de-obfuscation, sandboxed execution, SWF decompilation)
and emits a structured threat report with severities and evidence
snippets — the drill-down analyses in Sections IV-V consume these.

Quttera has no trusted-host whitelist, so structurally suspicious but
benign artifacts (the Google OAuth relay frame) are flagged: the
organic false positives of Section V-E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..httpsim import SimHttpClient
from .base import ScanReport, Submission
from .heuristics import ContentAnalysis, analyze_content

__all__ = ["QutteraThreat", "QutteraSim"]

#: severity levels in Quttera's vocabulary
_MALICIOUS = "malicious"
_SUSPICIOUS = "suspicious"


@dataclass
class QutteraThreat:
    """One threat entry in a Quttera report."""

    name: str
    severity: str
    evidence: str = ""


class QutteraSim:
    """Heuristic scanner producing detailed threat reports."""

    name = "Quttera"

    def __init__(self, client: Optional[SimHttpClient] = None,
                 observer: Optional[object] = None,
                 static_prefilter: bool = True,
                 compile_cache: Optional[object] = None) -> None:
        self.client = client
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks)
        self.observer = observer
        #: run the repro.staticjs pass before any sandbox execution
        self.static_prefilter = static_prefilter
        #: optional :class:`repro.jsengine.CompileCache` shared across
        #: the run so templated scripts compile once
        self.compile_cache = compile_cache

    # ------------------------------------------------------------------
    def scan(self, submission: Submission) -> ScanReport:
        """Scan a URL, an uploaded file, or a pre-analyzed submission."""
        if submission.analysis is not None:
            return self._report_from_analysis(submission, submission.analysis)
        if not submission.is_file_scan:
            if self.client is None:
                raise RuntimeError("QutteraSim needs a client for URL submissions")
            result = self.client.fetch(submission.url)  # referrer-less fetch
            submission = Submission(
                url=submission.url,
                content=result.response.body,
                content_type=result.response.content_type,
                final_url=result.final_url,
            )
        analysis = analyze_content(
            submission.content or b"", submission.content_type, submission.url,
            observer=self.observer, static_prefilter=self.static_prefilter,
            compile_cache=self.compile_cache,
        )
        return self._report_from_analysis(submission, analysis)

    def _report_from_analysis(self, submission: Submission, analysis: ContentAnalysis) -> ScanReport:
        threats = self._threats(analysis)
        if self.observer is not None:
            for threat in threats:
                self.observer.count("scan.quttera.threats", severity=threat.severity)
        malicious = any(t.severity == _MALICIOUS for t in threats)
        suspicious_count = sum(1 for t in threats if t.severity == _SUSPICIOUS)
        report = ScanReport(
            tool=self.name,
            url=submission.url,
            malicious=malicious or suspicious_count >= 2,
            labels=[t.name for t in threats],
            details={
                "threats": str(len(threats)),
                "verdict": _MALICIOUS if malicious else (_SUSPICIOUS if threats else "clean"),
            },
        )
        report.details["threat_report"] = "; ".join(
            "%s[%s]" % (t.name, t.severity) for t in threats
        )
        return report

    # ------------------------------------------------------------------
    def _threats(self, analysis: ContentAnalysis) -> List[QutteraThreat]:
        threats: List[QutteraThreat] = []
        for finding in analysis.hidden_iframes:
            severity = _MALICIOUS
            # no whitelist, so trusted platform frames are still flagged —
            # but only as suspicious (Section V-E false positives need a
            # second signal to tip the page verdict)
            if finding.trusted_host:
                severity = _SUSPICIOUS
            threats.append(
                QutteraThreat(
                    name="hidden-iframe" if not finding.injected_by_js else "js-injected-iframe",
                    severity=severity,
                    evidence=finding.src[:120],
                )
            )
        if analysis.obfuscation_layers >= 1:
            threats.append(
                QutteraThreat(
                    name="obfuscated-javascript",
                    severity=_MALICIOUS if analysis.obfuscation_layers >= 2 else _SUSPICIOUS,
                    evidence="layers=%d" % analysis.obfuscation_layers,
                )
            )
        if analysis.redirect_stub:
            threats.append(
                QutteraThreat(
                    name="malicious-redirect",
                    severity=_MALICIOUS,
                    evidence=analysis.redirect_target[:120],
                )
            )
        if analysis.download_triggers or analysis.deceptive_download_bar:
            threats.append(
                QutteraThreat(
                    name="deceptive-download",
                    severity=_MALICIOUS,
                    evidence=(analysis.download_triggers or ["install-bar"])[0][:120],
                )
            )
        if analysis.kind == "flash" and analysis.flash_score >= 0.5:
            threats.append(
                QutteraThreat(
                    name="malicious-flash-externalinterface",
                    severity=_MALICIOUS,
                    evidence=",".join(analysis.external_interface_calls)[:120],
                )
            )
        if analysis.fingerprinting_listeners >= 2 and analysis.beacons:
            threats.append(
                QutteraThreat(
                    name="behaviour-fingerprinting",
                    severity=_SUSPICIOUS,
                    evidence=analysis.beacons[0][:120],
                )
            )
        if analysis.kind == "executable" and analysis.executable_signature_hit:
            threats.append(
                QutteraThreat(name="malicious-executable", severity=_MALICIOUS)
            )
        if analysis.kind == "pdf":
            if analysis.pdf_auto_executes:
                threats.append(QutteraThreat(
                    name="pdf-openaction-javascript", severity=_MALICIOUS,
                    evidence=(analysis.navigations or analysis.download_triggers or ["auto-js"])[0][:120],
                ))
            if analysis.pdf_malformed and analysis.pdf_embedded_js:
                threats.append(QutteraThreat(name="malformed-pdf", severity=_MALICIOUS))
            elif analysis.pdf_malformed:
                threats.append(QutteraThreat(name="malformed-pdf", severity=_SUSPICIOUS))
        if analysis.popups:
            threats.append(
                QutteraThreat(name="popup-spam", severity=_SUSPICIOUS, evidence=analysis.popups[0][:120])
            )
        return threats
