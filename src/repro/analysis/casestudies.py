"""Drill-down case studies (Section V).

Tools the analyst uses on flagged URLs to understand *why* they are
malicious — and to expose false positives:

* :func:`iframe_case_studies` — classify every hidden-iframe finding on
  flagged pages into the three Section V-A mechanisms,
* :func:`deceptive_download_case` — run a flagged page in the sandbox,
  simulate the click, and report the executable it tries to deliver,
* :func:`flash_case_study` — decompile a flagged SWF and trace its
  ExternalInterface calls through the JS bridge,
* :func:`identify_false_positives` — re-examine flagged URLs and return
  those whose only indicators are trusted-platform patterns (the Google
  OAuth relay and Google Analytics mislabels of Section V-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..crawler.pipeline import ScanOutcome
from ..crawler.storage import CrawlDataset
from ..detection.heuristics import analyze_content
from ..flashsim import DecompiledSwf, SwfError, SwfFile, decompile_bytes
from ..jsengine import CompileCache, run_script_in_page

__all__ = [
    "IframeCaseStudy",
    "DownloadCaseStudy",
    "FlashCaseStudy",
    "FalsePositiveFinding",
    "iframe_case_studies",
    "deceptive_download_case",
    "flash_case_study",
    "identify_false_positives",
]


@dataclass
class IframeCaseStudy:
    url: str
    mechanism: str  # "tiny" | "visibility" | "transparency" | "offscreen"
    injected_by_js: bool
    exfiltrates_query: bool
    frame_src: str


@dataclass
class DownloadCaseStudy:
    url: str
    payload_url: str
    payload_name: str
    triggered_by_click: bool


@dataclass
class FlashCaseStudy:
    url: str
    external_calls: List[str]
    invisible_overlay: bool
    allows_any_domain: bool
    popups_after_click: List[str]
    decompiled_source: str


@dataclass
class FalsePositiveFinding:
    url: str
    reason: str  # "google-oauth-relay" | "google-analytics"
    labels: List[str] = field(default_factory=list)


def _flagged_content(dataset: CrawlDataset, outcome: ScanOutcome):
    for url, cached in dataset.content.items():
        verdict = outcome.verdict(url)
        if verdict is not None and verdict.malicious:
            yield url, cached


def iframe_case_studies(dataset: CrawlDataset, outcome: ScanOutcome,
                        limit: int = 50,
                        compile_cache: Optional[CompileCache] = None,
                        ) -> List[IframeCaseStudy]:
    """Classify hidden iframes on flagged pages (Section V-A taxonomy).

    ``compile_cache`` is the scanning pipeline's, as for
    :func:`identify_false_positives`."""
    out: List[IframeCaseStudy] = []
    for url, cached in _flagged_content(dataset, outcome):
        if not cached.content_type.startswith("text/html"):
            continue
        analysis = analyze_content(cached.content, cached.content_type, url,
                                   compile_cache=compile_cache)
        for finding in analysis.hidden_iframes:
            if finding.trusted_host:
                continue
            out.append(IframeCaseStudy(
                url=url,
                mechanism=finding.hidden_by,
                injected_by_js=finding.injected_by_js,
                exfiltrates_query=finding.exfiltrates_query,
                frame_src=finding.src,
            ))
            if len(out) >= limit:
                return out
    return out


def deceptive_download_case(dataset: CrawlDataset, outcome: ScanOutcome) -> Optional[DownloadCaseStudy]:
    """Find a deceptive-download page and reproduce the attack flow."""
    for url, cached in _flagged_content(dataset, outcome):
        if not cached.content_type.startswith("text/html"):
            continue
        host = run_script_in_page(cached.content.decode("utf-8", errors="replace"), url=url)
        triggers = host.log.download_triggers
        if not triggers:
            continue
        payload_url = triggers[0]
        return DownloadCaseStudy(
            url=url,
            payload_url=payload_url,
            payload_name=payload_url.rsplit("/", 1)[-1].split("?")[0],
            triggered_by_click=True,
        )
    return None


def flash_case_study(dataset: CrawlDataset, outcome: ScanOutcome) -> Optional[FlashCaseStudy]:
    """Decompile a flagged SWF and trace its click-jacking behaviour."""
    from ..flashsim import FlashPlayer
    from ..jsengine.hostenv import BrowserHost

    from ..simweb.url import Url

    for url, cached in _flagged_content(dataset, outcome):
        if not SwfFile.sniff(cached.content):
            continue
        try:
            decompiled: DecompiledSwf = decompile_bytes(cached.content)
        except SwfError:
            continue
        if not decompiled.calls_external_interface:
            continue
        # replay the attack end-to-end: first run the site's own loader
        # scripts (they define the JS side of the ExternalInterface
        # bridge, obfuscated — Section V-D's 542_mobile3.js), then click
        browser = BrowserHost(url=url)
        swf_host = Url.try_parse(url)
        for other_url, other in dataset.content.items():
            if swf_host is None:
                break
            parsed = Url.try_parse(other_url)
            if parsed is None or parsed.host != swf_host.host:
                continue
            if other.content_type.startswith(("application/javascript", "text/javascript")):
                browser.run_script(other.content.decode("utf-8", errors="replace"))
        player = FlashPlayer(SwfFile.from_bytes(cached.content), browser_host=browser)
        player.load()
        for handler in decompiled.event_handlers:
            player.dispatch(handler)
        return FlashCaseStudy(
            url=url,
            external_calls=[name for name, _ in decompiled.external_calls],
            invisible_overlay=decompiled.transparent_overlay,
            allows_any_domain=decompiled.allows_any_domain,
            popups_after_click=list(browser.log.popups),
            decompiled_source=decompiled.source,
        )
    return None


def identify_false_positives(dataset: CrawlDataset, outcome: ScanOutcome,
                             limit: int = 100,
                             compile_cache: Optional[CompileCache] = None,
                             ) -> List[FalsePositiveFinding]:
    """Section V-E: flagged URLs whose indicators are benign platform
    plumbing — hidden frames from accounts.google.com only, or a
    Faceliker label on a stock Google Analytics loader.

    ``compile_cache`` is the scanning pipeline's: the re-analysis then
    reuses the scan's ASTs and static reports instead of recomputing
    them (no observer is passed, so no telemetry moves)."""
    findings: List[FalsePositiveFinding] = []
    for url, cached in _flagged_content(dataset, outcome):
        if not cached.content_type.startswith("text/html"):
            continue
        verdict = outcome.verdict(url)
        labels = verdict.labels if verdict is not None else []
        analysis = analyze_content(cached.content, cached.content_type, url,
                                   compile_cache=compile_cache)
        untrusted = [f for f in analysis.hidden_iframes if not f.trusted_host]
        trusted = [f for f in analysis.hidden_iframes if f.trusted_host]
        genuinely_bad = (
            untrusted
            or analysis.download_triggers
            or analysis.deceptive_download_bar
            or analysis.redirect_stub
            or analysis.obfuscation_layers >= 1
            or analysis.external_interface_calls
            or (analysis.fingerprinting_listeners >= 2 and analysis.beacons)
        )
        if genuinely_bad:
            continue
        if trusted and any(f.frame_host == "accounts.google.com" for f in trusted):
            findings.append(FalsePositiveFinding(url=url, reason="google-oauth-relay", labels=labels))
        elif any("Faceliker" in label for label in labels):
            findings.append(FalsePositiveFinding(url=url, reason="google-analytics", labels=labels))
        elif any("google-analytics" in s for s in analysis.remote_scripts):
            findings.append(FalsePositiveFinding(url=url, reason="google-analytics", labels=labels))
        if len(findings) >= limit:
            break
    return findings
