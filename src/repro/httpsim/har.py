"""HTTP Archive (HAR) logging.

The paper's crawlers captured traffic "including HTTP and HTTPS" with
Firebug plus the NetExport extension, which writes HAR files (Section
III-A).  This module renders a compatible subset of the HAR 1.2 format:
entries with request/response records, redirect locations, and timings.
It stores no entries of its own: the crawl keeps each request once, as
a row of its log (a :class:`repro.crawler.storage.UrlRecord`), and a
:class:`HarLog` is a view over one exchange's rows — the
redirection-chain analysis (Figures 4/5) reads the same rows.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Sequence

from .client import SimHttpClient

__all__ = ["HarLog"]


class HarLog:
    """One crawl session's capture, as a view over its request rows.

    A row has a ``transaction`` (the client's
    :class:`~repro.httpsim.client.Transaction`: the HAR's URL text and
    the frozen response), a ``referrer``, a ``started`` time on the
    capture clock — the *same* injectable clock
    (:class:`repro.obs.clock.Clock`) the tracer and event log use, so
    HAR timings line up with spans without wall-clock drift — and a
    ``page_ref`` tying sub-resources to their page visit.  A row whose
    ``transaction`` is ``None`` logs a URL that was never requested (a
    URL that does not parse, or the one past the redirect limit) and is
    no HAR entry.  The view reads the sequence it is given, not a copy,
    so rows appended later belong to it.
    """

    creator = "repro-netexport/1.0"

    def __init__(self, rows: Sequence[Any]) -> None:
        self.rows = rows
        #: first request per HAR URL over ``rows[:_indexed]``;
        #: redirect_chain extends it to the rows appended since its last
        #: call
        self._first_by_url: Dict[str, Any] = {}
        self._indexed = 0

    def requests(self) -> Iterator[Any]:
        """The rows that are HAR entries, in log order."""
        return (row for row in self.rows if row.transaction is not None)

    def __len__(self) -> int:
        return sum(1 for _row in self.requests())

    def time_span(self) -> float:
        """Capture duration in seconds (first request start to last end).

        Well-defined because every request's ``started`` comes from one
        shared clock; feeds the per-exchange request-rate telemetry.
        """
        started = [row.started for row in self.requests()]
        if not started:
            return 0.0
        return max(started) + SimHttpClient.REQUEST_SECONDS - min(started)

    def redirect_chain(self, start_url: str) -> List[Any]:
        """Follow redirect records from ``start_url`` through the log.

        Each URL resolves to its first request in the log, and each
        request leads on to its response's ``Location``.  The index
        behind that lookup is built once and then only extended, so a
        call costs the chain's length plus the rows appended since the
        previous call (rows are only ever appended).
        """
        by_url = self._first_by_url
        rows = self.rows
        for index in range(self._indexed, len(rows)):
            row = rows[index]
            if row.transaction is not None:
                by_url.setdefault(row.transaction.url, row)
        self._indexed = len(rows)
        chain: List[Any] = []
        current = start_url
        seen = set()
        while current in by_url and current not in seen:
            seen.add(current)
            row = by_url[current]
            chain.append(row)
            location = row.transaction.response.location
            if not location:
                break
            current = location
        return chain

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        duration_ms = SimHttpClient.REQUEST_SECONDS * 1000.0
        return json.dumps(
            {
                "log": {
                    "version": "1.2",
                    "creator": {"name": self.creator, "version": "1.0"},
                    "entries": [_entry(row, duration_ms) for row in self.requests()],
                }
            },
            indent=2,
        )


def _entry(row: Any, duration_ms: float) -> Dict[str, Any]:
    """One request row as a HAR entry."""
    transaction = row.transaction
    response = transaction.response
    return {
        "pageref": row.page_ref,
        "startedDateTime": row.started,
        "time": duration_ms,
        "request": {
            "method": "GET",
            "url": transaction.url,
            "headers": (
                [{"name": "Referer", "value": row.referrer}] if row.referrer else []
            ),
        },
        "response": {
            "status": response.status,
            "content": {"size": len(response.body), "mimeType": response.content_type},
            "redirectURL": response.location or "",
        },
    }
