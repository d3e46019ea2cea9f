"""The experiment registry: DESIGN.md's per-experiment index as code.

Each :class:`Experiment` ties a paper artifact (table/figure/section) to
the analysis function that regenerates it and the bench module that
asserts its shape.  :func:`run_experiment` executes one against a
completed study; ``python -m repro run`` and the benches are thin
wrappers over the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..analysis import (
    categorize_dataset,
    compute_content_categories,
    compute_domain_stats,
    compute_exchange_stats,
    compute_shortener_stats,
    compute_timeseries,
    compute_tld_distribution,
    example_chain,
    identify_false_positives,
    redirect_count_distribution,
)

__all__ = ["Experiment", "EXPERIMENTS", "experiment", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One row of DESIGN.md's per-experiment index."""

    experiment_id: str
    paper_artifact: str
    description: str
    modules: Tuple[str, ...]
    bench: str
    runner: Optional[Callable[..., Any]] = None


def _run_table1(study):
    return compute_exchange_stats(
        study.pipeline.dataset, study.outcome,
        exchange_kinds={p.name: p.kind for p in study.config.profiles},
    )


def _run_table2(study):
    return compute_domain_stats(study.pipeline.dataset, study.outcome)


def _run_table3(study):
    return categorize_dataset(study.pipeline.dataset, study.outcome,
                              study.pipeline.blacklists)


def _run_table4(study):
    return compute_shortener_stats(study.pipeline.dataset, study.outcome,
                                   study.web.registry)


def _run_fig3(study):
    return compute_timeseries(study.pipeline.dataset, study.outcome)


def _run_fig4(study):
    return example_chain(study.pipeline.dataset, study.outcome, min_hops=3)


def _run_fig5(study):
    return redirect_count_distribution(study.pipeline.dataset, study.outcome)


def _run_fig6(study):
    return compute_tld_distribution(study.pipeline.dataset, study.outcome)


def _run_fig7(study):
    return compute_content_categories(study.pipeline.dataset, study.outcome)


def _run_fps(study):
    return identify_false_positives(study.pipeline.dataset, study.outcome,
                                    compile_cache=study.pipeline.compile_cache)


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("E1", "Table I", "per-exchange URL statistics",
               ("repro.exchanges", "repro.crawler", "repro.analysis.exchange_stats"),
               "benchmarks/test_table1_exchange_stats.py", _run_table1),
    Experiment("E2", "Table II", "per-exchange domain statistics",
               ("repro.analysis.domains",),
               "benchmarks/test_table2_domain_stats.py", _run_table2),
    Experiment("E3", "Table III", "malware categorization",
               ("repro.analysis.categorize", "repro.detection.blacklists"),
               "benchmarks/test_table3_categorization.py", _run_table3),
    Experiment("E4", "Table IV", "malicious shortened URL hit statistics",
               ("repro.simweb.shortener", "repro.analysis.shortener_stats"),
               "benchmarks/test_table4_shortener_stats.py", _run_table4),
    Experiment("E5", "Figure 2", "malware ratio per exchange",
               ("repro.core.results",),
               "benchmarks/test_fig2_malware_ratio.py", _run_table1),
    Experiment("E6", "Figure 3", "cumulative malicious-URL time series + burst validation",
               ("repro.analysis.timeseries", "repro.exchanges.campaigns"),
               "benchmarks/test_fig3_timeseries.py", _run_fig3),
    Experiment("E7", "Figure 4", "example redirection chain",
               ("repro.malware.redirector", "repro.httpsim.har", "repro.analysis.redirects"),
               "benchmarks/test_fig4_redirect_chain.py", _run_fig4),
    Experiment("E8", "Figure 5", "distribution of redirection counts",
               ("repro.analysis.redirects",),
               "benchmarks/test_fig5_redirect_distribution.py", _run_fig5),
    Experiment("E9", "Figure 6", "malicious URLs by TLD",
               ("repro.analysis.tld",),
               "benchmarks/test_fig6_tld_distribution.py", _run_fig6),
    Experiment("E10", "Figure 7", "malicious content categories",
               ("repro.analysis.content_categories",),
               "benchmarks/test_fig7_content_categories.py", _run_fig7),
    Experiment("E11", "Section III-B", "detection-tool vetting on gold standard",
               ("repro.detection.vetting",),
               "benchmarks/test_vetting_gold_standard.py", None),
    Experiment("E12", "Section V", "malware case studies + false positives",
               ("repro.analysis.casestudies", "repro.jsengine", "repro.flashsim"),
               "benchmarks/test_case_studies.py", _run_fps),
    Experiment("E13", "Figure 9", "rotating server-side redirect targets",
               ("repro.malware.redirector", "repro.httpsim"),
               "benchmarks/test_fig4_redirect_chain.py", None),
)

_BY_ID: Dict[str, Experiment] = {e.experiment_id: e for e in EXPERIMENTS}


def experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (E1..E13)."""
    return _BY_ID[experiment_id]


def run_experiment(experiment_id: str, study) -> Any:
    """Execute one experiment's analysis against a completed study."""
    entry = experiment(experiment_id)
    if entry.runner is None:
        raise ValueError(
            "experiment %s has no inline runner; run its bench: %s"
            % (experiment_id, entry.bench)
        )
    study.crawl_and_scan()
    study.pipeline.build_detection()
    return entry.runner(study)
