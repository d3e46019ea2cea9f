"""Detection-alias analysis.

Sections IV-A and V quote the alias names the scanning engines reported
per malware category — ``Script.virus`` / ``Virus.ScrInject.JS`` for
malicious JavaScript, ``Trojan:JS/Redirector`` for redirections,
``BehavesLike.JS.ExploitBlacole.*`` for Flash, ``HTML/IframeRef.gen`` /
``Mal_Hifrm`` for iframe injections.  This module aggregates the
verdict labels the pipeline actually produced, per Table III category —
the data behind those drill-down statements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..crawler.pipeline import ScanOutcome
from ..crawler.storage import CrawlDataset, RecordKind
from ..detection.blacklists import BlacklistSet
from ..malware.taxonomy import MalwareCategory
from .categorize import categorize_url

__all__ = ["AliasDistribution", "compute_alias_distribution"]


@dataclass
class AliasDistribution:
    """Verdict-label frequencies per Table III category."""

    by_category: Dict[MalwareCategory, Counter] = field(default_factory=dict)

    def top(self, category: MalwareCategory, count: int = 5) -> List[Tuple[str, int]]:
        counter = self.by_category.get(category)
        return counter.most_common(count) if counter else []

    def labels(self, category: MalwareCategory) -> List[str]:
        counter = self.by_category.get(category)
        return sorted(counter) if counter else []

    def render(self, per_category: int = 4) -> str:
        lines: List[str] = []
        for category in MalwareCategory:
            entries = self.top(category, per_category)
            if not entries:
                continue
            lines.append("%s:" % category.value)
            for label, count in entries:
                lines.append("    %-44s %d" % (label, count))
        return "\n".join(lines)


def compute_alias_distribution(
    dataset: CrawlDataset,
    outcome: ScanOutcome,
    blacklists: BlacklistSet,
    distinct: bool = True,
) -> AliasDistribution:
    """Aggregate the verdict labels of malicious URLs per category."""
    result = AliasDistribution()
    seen = set()
    for record in dataset.records:
        if record.kind != RecordKind.REGULAR:
            continue
        if distinct:
            if record.url in seen:
                continue
            seen.add(record.url)
        verdict = outcome.verdict(record.url)
        if verdict is None or not verdict.malicious:
            continue
        category = categorize_url(record.url, blacklists, final_url=record.final_url,
                                  url_table=dataset.url_table)
        counter = result.by_category.get(category)
        if counter is None:
            counter = Counter()
            result.by_category[category] = counter
        for label in verdict.labels:
            counter[label] += 1
    return result
