"""Tests for the Section V drill-down case studies."""

import pytest

from repro.analysis import (
    deceptive_download_case,
    example_chain,
    flash_case_study,
    identify_false_positives,
    iframe_case_studies,
    probe_rotating_redirector,
)


class TestIframeCases:
    def test_mechanisms_found(self, small_dataset, small_outcome):
        cases = iframe_case_studies(small_dataset, small_outcome)
        assert cases
        mechanisms = {c.mechanism for c in cases}
        assert mechanisms & {"tiny", "transparency", "visibility"}

    def test_js_injected_present(self, small_dataset, small_outcome):
        cases = iframe_case_studies(small_dataset, small_outcome, limit=200)
        assert any(c.injected_by_js for c in cases)

    def test_exfiltration_variant_present(self, small_dataset, small_outcome):
        cases = iframe_case_studies(small_dataset, small_outcome, limit=200)
        assert any(c.exfiltrates_query for c in cases)

    def test_pipeline_cache_gives_the_same_cases(self, small_study, small_dataset,
                                                 small_outcome):
        cached = iframe_case_studies(small_dataset, small_outcome, limit=200,
                                     compile_cache=small_study.pipeline.compile_cache)
        assert cached == iframe_case_studies(small_dataset, small_outcome, limit=200)


class TestDownloadCase:
    def test_reproduces_attack(self, small_dataset, small_outcome):
        case = deceptive_download_case(small_dataset, small_outcome)
        assert case is not None
        assert case.payload_url.endswith(".exe")
        assert case.payload_name.endswith(".exe")


class TestFlashCase:
    def test_decompiled_and_replayed(self, small_dataset, small_outcome):
        case = flash_case_study(small_dataset, small_outcome)
        assert case is not None
        assert case.external_calls
        assert case.invisible_overlay
        assert "ExternalInterface.call" in case.decompiled_source


class TestRedirectCases:
    def test_example_chain(self, small_dataset, small_outcome):
        chain = example_chain(small_dataset, small_outcome, min_hops=2)
        assert chain is not None
        assert len(chain) >= 3

    def test_rotating_probe(self, small_study):
        # find a site with a rotating redirector
        from repro.httpsim import SimHttpClient

        web = small_study.web
        target = None
        for site in web.registry.sites(malicious=True):
            if site.behavior.rotating_redirects:
                path = next(iter(site.behavior.rotating_redirects))
                target = site.url(path)
                break
        if target is None:
            pytest.skip("no rotating redirector at this scale/seed")
        client = SimHttpClient(small_study.pipeline.server)
        targets = probe_rotating_redirector(client, target, probes=8)
        assert len(targets) >= 2  # Figure 9: different target per request


class TestFalsePositives:
    def test_fp_identification_logic(self, small_dataset, small_outcome):
        fps = identify_false_positives(small_dataset, small_outcome)
        for fp in fps:
            assert fp.reason in ("google-oauth-relay", "google-analytics")
