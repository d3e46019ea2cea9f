"""Scanner interfaces and report types.

The paper submits two kinds of artifacts to each tool (Section III-B and
footnote 1):

* **URLs** — the tool fetches the URL itself (and can be cloaked), and
* **files** — pages the crawler downloaded locally and uploaded, which
  defeats cloaking.

:class:`Submission` models both — plus an optional pre-computed
:class:`~repro.detection.heuristics.ContentAnalysis` so several tools
can share one sandbox run.  Every scanner implements the single
:class:`Scanner` entry point, ``scan(Submission) -> ScanReport``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (heuristics imports base)
    from .heuristics import ContentAnalysis

__all__ = [
    "Submission",
    "EngineResult",
    "ScanReport",
    "Scanner",
    "stable_unit",
]


@dataclass
class Submission:
    """An artifact submitted for scanning."""

    url: str
    #: file contents when submitting a downloaded file; None for URL scans
    content: Optional[bytes] = None
    content_type: str = "text/html"
    #: where the crawl was redirected to, if anywhere (tools like VT show
    #: final URLs; the categorizer uses this for the redirect rule)
    final_url: Optional[str] = None
    #: pre-computed :class:`ContentAnalysis` shared across tools — the
    #: aggregate service runs the sandbox once and attaches the result so
    #: each scanner disagrees via its engines/thresholds, never via
    #: duplicated sandbox runs
    analysis: Optional["ContentAnalysis"] = None

    @property
    def is_file_scan(self) -> bool:
        return self.content is not None

    @property
    def text(self) -> str:
        return (self.content or b"").decode("utf-8", errors="replace")

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.content or self.url.encode("utf-8")).hexdigest()


@dataclass
class EngineResult:
    """One engine's verdict inside an aggregated report."""

    engine: str
    detected: bool
    label: str = ""


@dataclass
class ScanReport:
    """A scanner's verdict for one submission."""

    tool: str
    url: str
    malicious: bool
    labels: List[str] = field(default_factory=list)
    engines: List[EngineResult] = field(default_factory=list)
    details: Dict[str, str] = field(default_factory=dict)

    @property
    def positives(self) -> int:
        return sum(1 for engine in self.engines if engine.detected)

    @property
    def total_engines(self) -> int:
        return len(self.engines)

    def merged_labels(self) -> List[str]:
        out = list(self.labels)
        out.extend(e.label for e in self.engines if e.detected and e.label)
        seen = set()
        unique: List[str] = []
        for label in out:
            if label not in seen:
                seen.add(label)
                unique.append(label)
        return unique

    def provenance_evidence(self) -> Dict[str, object]:
        """JSON-safe facts for this tool's provenance stage record."""
        evidence: Dict[str, object] = {"labels": self.merged_labels()}
        if self.engines:
            evidence["positives"] = self.positives
            evidence["total_engines"] = self.total_engines
        for key in ("verdict", "threats", "kind", "category", "final_url"):
            value = self.details.get(key)
            if value:
                evidence[key] = value
        return evidence


class Scanner(Protocol):
    """Anything that can scan a submission.

    The one entry point: URL submissions carry just ``url``, file
    submissions carry ``content``, and batch callers that already ran
    the shared sandbox attach ``analysis``.
    """

    name: str

    def scan(self, submission: Submission) -> ScanReport:  # pragma: no cover - protocol
        ...


def stable_unit(*parts: str) -> float:
    """Deterministic pseudo-random float in [0, 1) keyed by ``parts``.

    Simulated engines use this instead of shared RNG state so that a
    given (engine, artifact) pair always yields the same verdict —
    matching how real engines behave on resubmission, and keeping the
    whole pipeline reproducible regardless of scan order.
    """
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)
