"""The study orchestrator.

:class:`MalwareSlumsStudy` runs the complete reproduction: generate the
synthetic web, build the nine exchanges, crawl, scan, and compute every
table and figure.  Deterministic per :class:`StudyConfig` seed.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

from ..analysis import (
    compute_content_categories,
    compute_domain_stats,
    compute_exchange_stats,
    compute_shortener_stats,
    compute_timeseries,
    compute_tld_distribution,
    categorize_dataset,
    example_chain,
    identify_false_positives,
    overall_malicious_fraction,
    redirect_count_distribution,
)
from ..crawler import CrawlPipeline, ScanOutcome
from ..simweb.generator import GeneratedWeb, WebGenerator
from .config import StudyConfig
from .results import Figure2Data, StudyResults

__all__ = ["MalwareSlumsStudy"]


class MalwareSlumsStudy:
    """Runs the end-to-end reproduction of the measurement study."""

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config or StudyConfig()
        self.web: Optional[GeneratedWeb] = None
        self.pipeline: Optional[CrawlPipeline] = None
        self.outcome: Optional[ScanOutcome] = None
        self.results: Optional[StudyResults] = None

    # ------------------------------------------------------------------
    def generate_web(self) -> GeneratedWeb:
        """Step 1: build the synthetic web."""
        if self.web is None:
            generator = WebGenerator(self.config.web_config(),
                                     profiles=self.config.profiles)
            self.web = generator.build()
        return self.web

    def crawl_and_scan(self) -> ScanOutcome:
        """Steps 2-3: crawl the exchanges, scan every distinct URL."""
        if self.outcome is None:
            web = self.generate_web()
            observer = None
            memory_ledger = None
            if self.config.profile:
                from ..obs.observer import RunObserver
                from ..obs.profile import MemoryLedger

                observer = RunObserver(profile=True)
                memory_ledger = MemoryLedger()
            self.pipeline = CrawlPipeline(
                web, self.config.pipeline_options(
                    observer=observer, memory_ledger=memory_ledger))
            # the ledger stops the tracemalloc session it started once the
            # run is measured; left on, it slows the rest of the process
            with memory_ledger if memory_ledger is not None else nullcontext():
                self.outcome = self.pipeline.run()
        return self.outcome

    def analyze(self) -> StudyResults:
        """Step 4: rebuild every table and figure."""
        if self.results is not None:
            return self.results
        outcome = self.crawl_and_scan()
        assert self.pipeline is not None and self.web is not None
        dataset = self.pipeline.dataset
        kinds = {p.name: p.kind for p in self.config.profiles}

        table1 = compute_exchange_stats(dataset, outcome, exchange_kinds=kinds)
        blacklists = self.pipeline.blacklists
        assert blacklists is not None

        results = StudyResults(
            table1=table1,
            table2=compute_domain_stats(dataset, outcome),
            table3=categorize_dataset(dataset, outcome, blacklists),
            table4=compute_shortener_stats(dataset, outcome, self.web.registry),
            figure2=Figure2Data.from_stats(table1),
            figure3=compute_timeseries(dataset, outcome),
            figure4_chain=example_chain(dataset, outcome, min_hops=3),
            figure5=redirect_count_distribution(dataset, outcome),
            figure6=compute_tld_distribution(dataset, outcome),
            figure7=compute_content_categories(dataset, outcome),
            false_positives=identify_false_positives(
                dataset, outcome, compile_cache=self.pipeline.compile_cache),
            overall_malicious_fraction=overall_malicious_fraction(table1),
        )
        self.results = results
        return results

    def run(self) -> StudyResults:
        """The whole study; alias for :meth:`analyze`."""
        return self.analyze()
