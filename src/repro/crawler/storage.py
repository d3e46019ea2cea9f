"""Crawl dataset storage.

Holds the raw measurement data: one :class:`UrlRecord` per logged URL
instance (the paper's 1,003,087 URLs are instances, its 306,895
"distinct URLs" the deduplicated set), a content cache of what the
browser saw at each distinct URL (the footnote-1 cloaking mitigation:
pages are saved locally for file submission), and the per-exchange HAR
logs the redirect analysis reads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Set

from ..httpsim import HarLog
from ..simweb.url import UrlTable

__all__ = ["RecordKind", "UrlRecord", "CachedContent", "CrawlDataset"]


class RecordKind:
    """What kind of crawl record a URL instance is."""

    SELF_REFERRAL = "self_referral"
    POPULAR_REFERRAL = "popular_referral"
    REGULAR = "regular"


@dataclass
class UrlRecord:
    """One logged URL instance."""

    url: str
    exchange: str
    kind: str
    step_index: int
    timestamp: float
    #: role within the visit: "page" | "hop" | "subresource"
    role: str = "page"
    final_url: str = ""
    redirect_count: int = 0


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
        self.content: Dict[str, CachedContent] = {}
        self.har_logs: Dict[str, HarLog] = {}
        self.url_table = url_table if url_table is not None else UrlTable()

    # -- writing -----------------------------------------------------------
    # deliberately uninstrumented: these run once per logged URL instance,
    # and everything telemetry wants (record counts, dedup hit rate) is
    # derivable from the dataset itself at report time
    def add_record(self, record: UrlRecord) -> None:
        self.records.append(record)

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

    def har_log(self, exchange: str) -> HarLog:
        log = self.har_logs.get(exchange)
        if log is None:
            log = HarLog()
            self.har_logs[exchange] = log
        return log

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def records_for(self, exchange: str) -> List[UrlRecord]:
        return [r for r in self.records if r.exchange == exchange]

    def exchanges(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.exchange not in seen:
                seen.append(record.exchange)
        return seen

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

    def iter_regular(self) -> Iterator[UrlRecord]:
        for record in self.records:
            if record.kind == RecordKind.REGULAR:
                yield record

    # -- (de)serialization (records only; content is bulky) ------------------
    def records_to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.records])

    @classmethod
    def records_from_json(cls, text: str) -> "CrawlDataset":
        dataset = cls()
        for item in json.loads(text):
            dataset.add_record(UrlRecord(**item))
        return dataset
