"""Malware detection tools (simulated third-party services).

* :class:`VirusTotalSim` — multi-engine aggregator (URL and file scans),
* :class:`QutteraSim` — deep heuristic scanner with threat reports,
* :class:`BlacklistSet` — six public blacklists + the ≥2-lists rule,
* the six vetted-and-rejected tools (:mod:`repro.detection.others`),
* :func:`vet_tools` — the gold-standard tool-selection experiment,
* :class:`UrlVerdictService` — the combined per-URL verdict the crawl
  pipeline records.
"""

from .aggregate import UrlVerdict, UrlVerdictService
from .base import EngineResult, ScanReport, Scanner, Submission, stable_unit
from .blacklists import BLACKLIST_PROFILES, Blacklist, BlacklistSet, build_blacklists
from .engines import SimulatedEngine, default_engine_pool
from .heuristics import ContentAnalysis, IframeFinding, analyze_content, analyze_html, analyze_swf
from .others import (
    LimitedScanner,
    all_rejected_tools,
    make_avg_threatlab,
    make_brightcloud,
    make_senderbase,
    make_sitecheck,
    make_urlquery,
    make_wepawet,
)
from .quttera import QutteraSim, QutteraThreat
from .vetting import GoldSample, VettingResult, build_gold_standard, vet_tools
from .virustotal import VirusTotalSim

__all__ = [
    "BLACKLIST_PROFILES",
    "Blacklist",
    "BlacklistSet",
    "ContentAnalysis",
    "EngineResult",
    "GoldSample",
    "IframeFinding",
    "LimitedScanner",
    "QutteraSim",
    "QutteraThreat",
    "ScanReport",
    "Scanner",
    "SimulatedEngine",
    "Submission",
    "UrlVerdict",
    "UrlVerdictService",
    "VettingResult",
    "VirusTotalSim",
    "all_rejected_tools",
    "analyze_content",
    "analyze_html",
    "analyze_swf",
    "build_blacklists",
    "build_gold_standard",
    "default_engine_pool",
    "make_avg_threatlab",
    "make_brightcloud",
    "make_senderbase",
    "make_sitecheck",
    "make_urlquery",
    "make_wepawet",
    "stable_unit",
    "vet_tools",
]
