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


class TestWorkerCountValidation:
    """A worker count below 1 is an error, never silently serial."""

    @pytest.mark.parametrize("workers", [0, -3])
    def test_pipeline_rejects_workers_below_one(self, web, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            CrawlPipeline(web, PipelineOptions(workers=workers))

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_env_must_be_a_positive_integer(self, web, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ValueError, match=WORKERS_ENV):
            workers_from_env()
        with pytest.raises(ValueError, match=WORKERS_ENV):
            CrawlPipeline(web, PipelineOptions())

    @pytest.mark.parametrize("command", [
        ["run"], ["obs-report"], ["profile"], ["explain", "http://a.example/"]])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cli_rejects_workers_below_one(self, command, value, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--workers", value])
        assert exit_info.value.code == 2
        assert "--workers: must be >= 1" in capsys.readouterr().err
