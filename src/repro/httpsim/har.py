"""HTTP Archive (HAR) logging.

The paper's crawlers captured traffic "including HTTP and HTTPS" with
Firebug plus the NetExport extension, which writes HAR files (Section
III-A).  This module provides a compatible subset of the HAR 1.2 format:
entries with request/response records, redirect locations, and timings,
plus (de)serialization — the redirection-chain analysis (Figures 4/5)
runs off these records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["HarEntry", "HarLog"]


@dataclass
class HarEntry:
    """One request/response pair."""

    url: str
    method: str = "GET"
    status: int = 200
    content_type: str = ""
    redirect_location: str = ""
    referrer: str = ""
    body_size: int = 0
    #: seconds on the capture clock — the *same* injectable clock
    #: (:class:`repro.obs.clock.Clock`) the tracer and event log use, so
    #: HAR timings line up with spans without wall-clock drift
    started: float = 0.0
    duration_ms: float = 0.0
    #: page identifier tying sub-resources to their page visit
    page_ref: str = ""

    def to_har_dict(self) -> Dict[str, Any]:
        return {
            "pageref": self.page_ref,
            "startedDateTime": self.started,
            "time": self.duration_ms,
            "request": {
                "method": self.method,
                "url": self.url,
                "headers": (
                    [{"name": "Referer", "value": self.referrer}] if self.referrer else []
                ),
            },
            "response": {
                "status": self.status,
                "content": {"size": self.body_size, "mimeType": self.content_type},
                "redirectURL": self.redirect_location,
            },
        }

    @classmethod
    def from_har_dict(cls, data: Dict[str, Any]) -> "HarEntry":
        request = data.get("request", {})
        response = data.get("response", {})
        referrer = ""
        for header in request.get("headers", []):
            if header.get("name") == "Referer":
                referrer = header.get("value", "")
        return cls(
            url=request.get("url", ""),
            method=request.get("method", "GET"),
            status=response.get("status", 0),
            content_type=response.get("content", {}).get("mimeType", ""),
            redirect_location=response.get("redirectURL", ""),
            referrer=referrer,
            body_size=response.get("content", {}).get("size", 0),
            started=data.get("startedDateTime", 0.0),
            duration_ms=data.get("time", 0.0),
            page_ref=data.get("pageref", ""),
        )


@dataclass
class HarLog:
    """An ordered log of entries (one crawl session's capture)."""

    creator: str = "repro-netexport/1.0"
    entries: List[HarEntry] = field(default_factory=list)
    #: first entry per URL over ``entries[:_indexed]``; redirect_chain
    #: extends it to the entries appended since its last call
    _first_by_url: Dict[str, HarEntry] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def add(self, entry: HarEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries: List[HarEntry]) -> None:
        self.entries.extend(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def time_span(self) -> float:
        """Capture duration in seconds (first request start to last end).

        Well-defined because every entry's ``started`` comes from one
        shared clock; feeds the per-exchange request-rate telemetry.
        """
        if not self.entries:
            return 0.0
        first = min(e.started for e in self.entries)
        last = max(e.started + e.duration_ms / 1000.0 for e in self.entries)
        return last - first

    def redirect_chain(self, start_url: str) -> List[HarEntry]:
        """Follow redirect records from ``start_url`` through the log.

        Each URL resolves to its first entry in the log.  The index
        behind that lookup is built once and then only extended, so a
        call costs the chain's length plus the entries appended since
        the previous call (entries are only ever appended).
        """
        by_url = self._first_by_url
        for entry in self.entries[self._indexed:]:
            by_url.setdefault(entry.url, entry)
        self._indexed = len(self.entries)
        chain: List[HarEntry] = []
        current = start_url
        seen = set()
        while current in by_url and current not in seen:
            seen.add(current)
            entry = by_url[current]
            chain.append(entry)
            if not entry.redirect_location:
                break
            current = entry.redirect_location
        return chain

    # -- (de)serialization --------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "log": {
                    "version": "1.2",
                    "creator": {"name": self.creator, "version": "1.0"},
                    "entries": [entry.to_har_dict() for entry in self.entries],
                }
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "HarLog":
        data = json.loads(text)
        log = data.get("log", {})
        out = cls(creator=log.get("creator", {}).get("name", "unknown"))
        for entry in log.get("entries", []):
            out.add(HarEntry.from_har_dict(entry))
        return out
