"""Per-exchange domain statistics (Table II).

Aggregates the regular URLs of each exchange by registrable domain and
counts domains with at least one malicious URL.  Benign infrastructure
domains (ajax.googleapis.com and friends) stay in — Table II explicitly
keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..crawler.pipeline import ScanOutcome
from ..crawler.storage import CrawlDataset, RecordKind

__all__ = ["ExchangeDomainStats", "compute_domain_stats", "domains_on_multiple_exchanges"]


@dataclass
class ExchangeDomainStats:
    """One row of Table II."""

    exchange: str
    domains: int = 0
    malware_domains: int = 0
    domain_set: Set[str] = field(default_factory=set, repr=False)
    malware_domain_set: Set[str] = field(default_factory=set, repr=False)

    @property
    def malware_fraction(self) -> float:
        return self.malware_domains / self.domains if self.domains else 0.0


def compute_domain_stats(dataset: CrawlDataset, outcome: ScanOutcome) -> List[ExchangeDomainStats]:
    """Build Table II rows."""
    rows: Dict[str, ExchangeDomainStats] = {}
    lookup = dataset.url_table.lookup
    for record in dataset.records:
        if record.kind != RecordKind.REGULAR:
            continue
        parsed = lookup(record.url)
        if parsed is None:
            continue
        row = rows.get(record.exchange)
        if row is None:
            row = ExchangeDomainStats(exchange=record.exchange)
            rows[record.exchange] = row
        domain = parsed.registrable_domain
        row.domain_set.add(domain)
        if outcome.is_malicious(record.url):
            row.malware_domain_set.add(domain)
    for row in rows.values():
        row.domains = len(row.domain_set)
        row.malware_domains = len(row.malware_domain_set)
    return list(rows.values())


def domains_on_multiple_exchanges(rows: List[ExchangeDomainStats],
                                  min_exchanges: int = 5) -> List[str]:
    """Domains seen across many exchanges (the visadd.com observation)."""
    counts: Dict[str, int] = {}
    for row in rows:
        for domain in row.domain_set:
            counts[domain] = counts.get(domain, 0) + 1
    return sorted(d for d, c in counts.items() if c >= min_exchanges)
