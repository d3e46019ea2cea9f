"""Redirection analysis (Figures 4, 5, 9).

* :func:`redirect_count_distribution` — the Figure 5 histogram: for each
  malicious URL that redirects, how many hops before the destination,
* :func:`example_chain` — a Figure 4 style chain extracted from the HAR
  logs (the URL of each hop),
* :func:`probe_rotating_redirector` — the Figure 9 experiment: request a
  redirector repeatedly and collect the distinct targets it rotates
  through.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..crawler.pipeline import ScanOutcome
from ..crawler.storage import CrawlDataset, RecordKind
from ..httpsim import HarLog, SimHttpClient

__all__ = [
    "RedirectDistribution",
    "redirect_count_distribution",
    "example_chain",
    "probe_rotating_redirector",
]


@dataclass
class RedirectDistribution:
    """URL counts per redirection count (Figure 5's bars)."""

    counts: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def bars(self, max_hops: int = 7) -> List[Tuple[int, int]]:
        return [(hops, self.counts.get(hops, 0)) for hops in range(1, max_hops + 1)]

    @property
    def max_observed(self) -> int:
        return max(self.counts) if self.counts else 0


def redirect_count_distribution(dataset: CrawlDataset, outcome: ScanOutcome,
                                distinct: bool = True) -> RedirectDistribution:
    """Figure 5: distribution of redirection counts of malicious URLs."""
    result = RedirectDistribution()
    seen = set()
    for record in dataset.records:
        if record.kind != RecordKind.REGULAR or record.role == "hop":
            continue
        if record.redirect_count < 1 or not outcome.is_malicious(record.url):
            continue
        if distinct:
            if record.url in seen:
                continue
            seen.add(record.url)
        result.counts[record.redirect_count] += 1
    return result


def example_chain(dataset: CrawlDataset, outcome: ScanOutcome,
                  min_hops: int = 3) -> Optional[List[str]]:
    """A Figure 4 style example: the URLs of one long malicious chain."""
    best: Optional[List[str]] = None
    for records in dataset.exchange_records.values():
        log = HarLog(records)
        for record in log.requests():
            url, response, _next_hop = record.transaction
            if not response.location or not outcome.is_malicious(url):
                continue
            chain_records = log.redirect_chain(url)
            if len(chain_records) - 1 >= min_hops:
                chain = [r.transaction.url for r in chain_records]
                last_location = chain_records[-1].transaction.response.location
                if last_location:
                    chain.append(last_location)
                if best is None or len(chain) > len(best):
                    best = chain
    return best


def probe_rotating_redirector(client: SimHttpClient, url: str,
                              probes: int = 8) -> List[str]:
    """Figure 9: fetch ``url`` repeatedly; collect distinct final URLs."""
    targets: List[str] = []
    for _ in range(probes):
        result = client.fetch(url)
        if result.final_url not in targets:
            targets.append(result.final_url)
    return targets
