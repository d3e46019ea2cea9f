"""Crawl dataset storage.

Holds the raw measurement data: one :class:`UrlRecord` per logged URL
instance (the paper's 1,003,087 URLs are instances, its 306,895
"distinct URLs" the deduplicated set), kept once for the whole crawl and
once per exchange, and a content cache of what the browser saw at each
distinct URL (the footnote-1 cloaking mitigation: pages are saved
locally for file submission).  A record is also the crawl's only copy
of its request: an exchange's HAR log
(:class:`repro.httpsim.HarLog`), which the redirect analysis reads, is a
view over that exchange's records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..httpsim.client import Transaction
from ..simweb.url import UrlTable

__all__ = ["RecordKind", "UrlRecord", "CachedContent", "CrawlDataset"]


class RecordKind:
    """What kind of crawl record a URL instance is."""

    SELF_REFERRAL = "self_referral"
    POPULAR_REFERRAL = "popular_referral"
    REGULAR = "regular"


@dataclass
class UrlRecord:
    """One logged URL instance, and its request: one row of the crawl's
    log, which the HAR log renders (see :class:`repro.httpsim.HarLog`)."""

    url: str
    exchange: str
    kind: str
    step_index: int
    timestamp: float
    #: role within the visit: "page" | "hop" | "subresource"
    role: str = "page"
    final_url: str = ""
    redirect_count: int = 0
    #: the request's transaction in the client's memo (the HAR's URL text
    #: and the frozen response); ``None`` for a chain URL that was never
    #: requested (a URL that does not parse, or the one past the
    #: client's ``MAX_REDIRECTS``)
    transaction: Optional[Transaction] = None
    referrer: str = ""
    #: the request's start on the capture clock (``None`` when it was
    #: never requested)
    started: Optional[float] = None

    @property
    def page_ref(self) -> str:
        """The HAR page identifier tying sub-resources to their visit."""
        return "%s-%06d" % (self.exchange, self.step_index)


@dataclass
class CachedContent:
    """What the crawler's browser received for a distinct URL."""

    content: bytes
    content_type: str
    final_url: str


class CrawlDataset:
    """All crawl output, with the access paths analysis needs.

    Records keep their URLs as strings; analysis reads the parsed form
    through :attr:`url_table` — the crawling pipeline's table, which
    already holds every URL the crawl fetched — so no pass re-parses a
    record string.
    """

    def __init__(self, url_table: Optional[UrlTable] = None) -> None:
        self.records: List[UrlRecord] = []
        #: exchange name → its records in crawl order: the same objects
        #: as in :attr:`records`, one list per exchange (a browser session
        #: registers its exchange's list when it is built)
        self.exchange_records: Dict[str, List[UrlRecord]] = {}
        self.content: Dict[str, CachedContent] = {}
        self.url_table = url_table if url_table is not None else UrlTable()

    # -- writing -----------------------------------------------------------
    # deliberately uninstrumented: these run once per logged URL instance,
    # and everything telemetry wants (record counts, dedup hit rate) is
    # derivable from the dataset itself at report time
    def add_record(self, record: UrlRecord) -> None:
        self.records.append(record)
        self.exchange_records.setdefault(record.exchange, []).append(record)

    def merge_records(self, other: CrawlDataset) -> None:
        """Append ``other``'s records after this dataset's."""
        self.records.extend(other.records)
        for exchange, records in other.exchange_records.items():
            self.exchange_records.setdefault(exchange, []).extend(records)

    def cache_content(self, url: str, content: bytes, content_type: str,
                      final_url: str) -> None:
        """Cache the first capture of ``url``.

        First capture wins: matches "download completed pages" semantics.
        A later capture of the same URL builds nothing.
        """
        if url not in self.content:
            self.content[url] = CachedContent(content, content_type, final_url)

    def merge_content(self, other: CrawlDataset) -> None:
        """Cache ``other``'s captures where this dataset has none: the
        first capture still wins when ``other`` crawled later."""
        for url, cached in other.content.items():
            self.content.setdefault(url, cached)

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def records_for(self, exchange: str) -> List[UrlRecord]:
        """``exchange``'s records: the dataset's own list, not a copy."""
        return self.exchange_records.get(exchange, [])

    def exchanges(self) -> List[str]:
        """The exchanges with records, in the order they were first logged."""
        return [name for name, records in self.exchange_records.items() if records]

    def distinct_urls(self, kind: Optional[str] = None) -> List[str]:
        seen: Set[str] = set()
        out: List[str] = []
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if record.url not in seen:
                seen.add(record.url)
                out.append(record.url)
        return out

    def distinct_domains(self, exchange: Optional[str] = None,
                         kind: Optional[str] = None) -> List[str]:
        seen: Set[str] = set()
        out: List[str] = []
        for record in self.records:
            if exchange is not None and record.exchange != exchange:
                continue
            if kind is not None and record.kind != kind:
                continue
            parsed = self.url_table.lookup(record.url)
            if parsed is None:
                continue
            domain = parsed.registrable_domain
            if domain not in seen:
                seen.add(domain)
                out.append(domain)
        return out

    # -- (de)serialization (records only; content is bulky) ------------------
    def records_to_json(self) -> str:
        """The records' URL-instance fields (the request each one holds
        is the HAR log's to write)."""
        return json.dumps([
            {"url": r.url, "exchange": r.exchange, "kind": r.kind,
             "step_index": r.step_index, "timestamp": r.timestamp,
             "role": r.role, "final_url": r.final_url,
             "redirect_count": r.redirect_count}
            for r in self.records])

    @classmethod
    def records_from_json(cls, text: str) -> "CrawlDataset":
        dataset = cls()
        for item in json.loads(text):
            dataset.add_record(UrlRecord(**item))
        return dataset
