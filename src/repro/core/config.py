"""Study configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..exchanges.roster import EXCHANGE_PROFILES, ExchangeProfile
from ..simweb.generator import WebGenerationConfig

__all__ = ["StudyConfig"]


@dataclass
class StudyConfig:
    """Everything needed to reproduce the full study deterministically.

    ``scale`` linearly scales crawl volume against the paper's 1,003,087
    URLs; 1.0 regenerates the full study size, the 0.05 default runs in
    seconds while preserving every distribution's shape (see DESIGN.md
    §5 on shape-preserving calibration).
    """

    seed: int = 2016
    scale: float = 0.05
    #: submit downloaded page files to the scanners (the paper's cloaking
    #: mitigation, footnote 1); False reproduces the naive URL-only setup
    submit_files: bool = True
    #: worker count for both sharded phases (repro.crawlexec and
    #: repro.scanexec); None resolves to the REPRO_WORKERS environment
    #: override or the serial default of 1.  Results are bit-identical
    #: at any width for a fixed seed
    workers: Optional[int] = None
    #: record a per-URL VerdictProvenance chain during the scan phase
    #: (the flight recorder behind ``repro explain``); off by default —
    #: measurement outputs are identical either way
    record_provenance: bool = False
    profiles: Sequence[ExchangeProfile] = field(default_factory=lambda: EXCHANGE_PROFILES)
    #: optional overrides for web generation (seed/scale are synced in)
    web: Optional[WebGenerationConfig] = None

    def web_config(self) -> WebGenerationConfig:
        config = self.web if self.web is not None else WebGenerationConfig()
        config.seed = self.seed
        config.scale = self.scale
        return config

    def pipeline_options(self, observer=None, memory_ledger=None):
        """The :class:`~repro.crawler.options.PipelineOptions` this study
        builds its pipeline with (``+61`` keeps the pipeline RNG stream
        disjoint from web generation, as every pinned-value test assumes).
        """
        from ..crawler.options import PipelineOptions

        return PipelineOptions(
            seed=self.seed + 61,
            submit_files=self.submit_files,
            workers=self.workers,
            record_provenance=self.record_provenance,
            observer=observer,
            memory_ledger=memory_ledger,
        )
