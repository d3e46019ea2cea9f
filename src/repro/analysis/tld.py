"""TLD distribution of malicious URLs (Figure 6)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

from ..crawler.pipeline import ScanOutcome
from ..crawler.storage import CrawlDataset, RecordKind

__all__ = ["TldDistribution", "compute_tld_distribution"]


@dataclass
class TldDistribution:
    """Share of malicious URLs per top-level domain."""

    counts: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def percentage(self, tld: str) -> float:
        return 100.0 * self.counts.get(tld, 0) / self.total if self.total else 0.0

    def top(self, n: int = 4) -> List[Tuple[str, float]]:
        return [(tld, self.percentage(tld)) for tld, _ in self.counts.most_common(n)]

    def others_percentage(self, top_n: int = 4) -> float:
        top_share = sum(share for _tld, share in self.top(top_n))
        return max(0.0, 100.0 - top_share)


def compute_tld_distribution(dataset: CrawlDataset, outcome: ScanOutcome,
                             distinct: bool = False) -> TldDistribution:
    """Histogram malicious URLs by TLD (instances by default)."""
    result = TldDistribution()
    seen = set()
    lookup = dataset.url_table.lookup
    for record in dataset.records:
        if record.kind != RecordKind.REGULAR or not outcome.is_malicious(record.url):
            continue
        if distinct:
            if record.url in seen:
                continue
            seen.add(record.url)
        parsed = lookup(record.url)
        if parsed is None:
            continue
        result.counts[parsed.tld] += 1
    return result
