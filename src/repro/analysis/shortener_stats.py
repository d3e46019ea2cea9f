"""Malicious shortened URL statistics (Table IV).

For every malicious shortened URL seen in the crawl, query the
shortening service's public statistics: hits on the short URL, aggregate
hits on the long URL (several slugs may alias it), the top visitor
country, and the top referrer — the columns of Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..crawler.pipeline import ScanOutcome
from ..crawler.storage import CrawlDataset, RecordKind
from ..simweb.registry import WebRegistry

__all__ = ["ShortUrlRow", "compute_shortener_stats"]


@dataclass
class ShortUrlRow:
    """One Table IV row."""

    short_url: str
    short_hits: int
    long_url: str
    long_hits: int
    top_country: str
    top_referrer: str


def compute_shortener_stats(
    dataset: CrawlDataset,
    outcome: ScanOutcome,
    registry: WebRegistry,
) -> List[ShortUrlRow]:
    """Build Table IV from the crawl and the services' public stats."""
    rows: List[ShortUrlRow] = []
    seen: Set[str] = set()
    directory = registry.shorteners
    lookup = dataset.url_table.lookup
    for record in dataset.records:
        if record.kind != RecordKind.REGULAR:
            continue
        if record.url in seen:
            continue
        parsed = lookup(record.url)
        if parsed is None or not directory.is_short_host(parsed.host):
            continue
        seen.add(record.url)
        if not outcome.is_malicious(record.url):
            continue
        service = directory.service(parsed.host)
        slug = parsed.path.lstrip("/")
        stats = service.stats(slug)
        if stats is None:
            continue
        rows.append(ShortUrlRow(
            short_url=record.url,
            short_hits=stats.hits,
            long_url=stats.long_url,
            long_hits=service.long_url_hits(stats.long_url),
            top_country=stats.top_country,
            top_referrer=stats.top_referrer,
        ))
    rows.sort(key=lambda row: row.short_hits, reverse=True)
    return rows
