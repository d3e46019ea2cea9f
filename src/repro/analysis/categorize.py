"""Malware categorization (Table III).

Section IV-A's rules, applied to every malicious URL instance:

1. URLs on shortening services → **malicious shortened URLs** (checked
   first so a short URL's own redirect does not shadow the category),
2. initial URL != final URL (cross-site) → **suspicious redirection**,
3. ``.js`` extension → **malicious JavaScript**, ``.swf`` → **malicious
   Flash**,
4. domain on more than one blacklist → **blacklisted**,
5. anything without enough detail → **miscellaneous** (the paper's
   142,405-URL bucket, excluded from Table III's percentages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional

from ..crawler.pipeline import ScanOutcome
from ..crawler.storage import CrawlDataset, RecordKind
from ..detection.blacklists import BlacklistSet
from ..malware.taxonomy import MalwareCategory
from ..simweb.shortener import SHORTENER_HOSTS
from ..simweb.url import Url, UrlTable

__all__ = ["CategorizationResult", "categorize_url", "categorize_dataset"]


@dataclass
class CategorizationResult:
    """Counts per category over malicious URL instances."""

    counts: Dict[MalwareCategory, int] = field(default_factory=dict)
    total_malicious: int = 0

    def count(self, category: MalwareCategory) -> int:
        return self.counts.get(category, 0)

    @property
    def categorized_total(self) -> int:
        """Total excluding miscellaneous (Table III's denominator)."""
        return self.total_malicious - self.count(MalwareCategory.MISCELLANEOUS)

    def percentage(self, category: MalwareCategory) -> float:
        """Share of the *categorized* URLs, as Table III reports."""
        denominator = self.categorized_total
        if denominator == 0 or category is MalwareCategory.MISCELLANEOUS:
            return 0.0
        return 100.0 * self.count(category) / denominator

    def table_rows(self) -> List[tuple]:
        order = (
            MalwareCategory.BLACKLISTED,
            MalwareCategory.MALICIOUS_JAVASCRIPT,
            MalwareCategory.SUSPICIOUS_REDIRECTION,
            MalwareCategory.MALICIOUS_SHORTENED_URL,
            MalwareCategory.MALICIOUS_FLASH,
        )
        return [(category, self.percentage(category)) for category in order]


def categorize_url(
    url: str,
    blacklists: BlacklistSet,
    final_url: str = "",
    shortener_hosts: Collection[str] = SHORTENER_HOSTS,
    url_table: Optional[UrlTable] = None,
) -> MalwareCategory:
    """Assign a single (already detected) URL to a Table III category.

    ``url_table`` (a crawl dataset's) supplies the parsed forms of
    ``url`` and ``final_url``; without one they are parsed here.
    """
    lookup = url_table.lookup if url_table is not None else Url.try_parse
    parsed = lookup(url)
    if parsed is None:
        return MalwareCategory.MISCELLANEOUS
    if parsed.host in shortener_hosts:
        return MalwareCategory.MALICIOUS_SHORTENED_URL
    if final_url:
        final = lookup(final_url)
        if final is not None and not parsed.same_site(final):
            return MalwareCategory.SUSPICIOUS_REDIRECTION
    extension = parsed.extension
    if extension == "js":
        return MalwareCategory.MALICIOUS_JAVASCRIPT
    if extension == "swf":
        return MalwareCategory.MALICIOUS_FLASH
    if blacklists.is_blacklisted(parsed, min_hits=2):
        return MalwareCategory.BLACKLISTED
    return MalwareCategory.MISCELLANEOUS


def categorize_dataset(
    dataset: CrawlDataset,
    outcome: ScanOutcome,
    blacklists: BlacklistSet,
) -> CategorizationResult:
    """Categorize every malicious regular URL instance in the dataset."""
    result = CategorizationResult()
    for record in dataset.records:
        if record.kind != RecordKind.REGULAR:
            continue
        if not outcome.is_malicious(record.url):
            continue
        category = categorize_url(
            record.url, blacklists, final_url=record.final_url,
            url_table=dataset.url_table,
        )
        result.counts[category] = result.counts.get(category, 0) + 1
        result.total_malicious += 1
    return result
