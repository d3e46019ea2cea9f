"""Tests for the PipelineOptions constructor.

``CrawlPipeline(web, PipelineOptions(...))`` is the one construction
path: the pre-options keyword arguments and the positional seed are
gone and raise ``TypeError``.
"""

from __future__ import annotations

import warnings
from dataclasses import fields

import pytest

from repro.core import StudyConfig
from repro.crawler import CrawlPipeline, PipelineOptions
from repro.crawler.pipeline import WORKERS_ENV, workers_from_env
from repro.simweb.generator import WebGenerationConfig, WebGenerator


@pytest.fixture(scope="module")
def web():
    return WebGenerator(WebGenerationConfig(seed=11, scale=0.002)).build()


class TestConstructor:
    def test_unknown_kwarg_raises(self, web):
        with pytest.raises(TypeError, match="worker_count"):
            CrawlPipeline(web, worker_count=3)

    def test_option_kwargs_raise(self, web):
        with pytest.raises(TypeError, match="seed"):
            CrawlPipeline(web, seed=1)

    def test_positional_seed_raises(self, web):
        with pytest.raises(TypeError, match="PipelineOptions"):
            CrawlPipeline(web, 5)

    def test_options_path_does_not_warn(self, web):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pipeline = CrawlPipeline(web, PipelineOptions(seed=9))
        assert pipeline.options.seed == 9


class TestStudyConfigBridge:
    def test_pipeline_options_mapping(self):
        config = StudyConfig(seed=100, submit_files=False, workers=5,
                             record_provenance=True)
        options = config.pipeline_options()
        assert options == PipelineOptions(seed=161, submit_files=False,
                                          workers=5, record_provenance=True)

    def test_every_study_knob_is_an_option_field(self):
        # guards the bridge against a PipelineOptions field being added
        # without a decision on whether StudyConfig forwards it
        assert set(StudyConfig(seed=1).pipeline_options().__dict__) == \
            {field.name for field in fields(PipelineOptions)}


class TestWorkersEnv:
    def test_new_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert workers_from_env() == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert workers_from_env() == 1

    def test_env_governs_both_executors(self, web, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        pipeline = CrawlPipeline(web, PipelineOptions(seed=5))
        assert pipeline.workers == 4
        assert pipeline.scan_executor is not None
        assert pipeline.crawl_executor is not None
