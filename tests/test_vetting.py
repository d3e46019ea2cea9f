"""Tests for the gold-standard tool-vetting experiment (Section III-B)."""

import random

import pytest

from repro.detection import (
    QutteraSim,
    Submission,
    VirusTotalSim,
    all_rejected_tools,
    build_gold_standard,
    vet_tools,
)


@pytest.fixture(scope="module")
def vetting_result():
    samples = build_gold_standard(random.Random(7), per_family=10)
    tools = [VirusTotalSim(), QutteraSim()] + all_rejected_tools()
    return vet_tools(tools, samples)


class TestGoldStandard:
    def test_composition(self):
        samples = build_gold_standard(random.Random(1), per_family=3)
        names = {s.name.rsplit("-", 1)[0] for s in samples}
        assert names == {
            "gold-tiny-iframe", "gold-invisible-iframe", "gold-js-iframe",
            "gold-deceptive-download", "gold-flash", "gold-exe",
        }
        assert len(samples) == 18

    def test_artifact_types(self):
        samples = build_gold_standard(random.Random(1), per_family=2)
        types = {s.content_type for s in samples}
        assert "application/x-shockwave-flash" in types
        assert "application/x-msdownload" in types


class TestVettingOutcome:
    def test_vt_and_quttera_perfect(self, vetting_result):
        assert vetting_result.accuracies["VirusTotal"] == 1.0
        assert vetting_result.accuracies["Quttera"] == 1.0

    def test_accepted_tools(self, vetting_result):
        assert vetting_result.accepted_tools() == ["Quttera", "VirusTotal"]

    def test_wepawet_and_avg_zero(self, vetting_result):
        assert vetting_result.accuracies["Wepawet"] == 0.0
        assert vetting_result.accuracies["AVGThreatLab"] == 0.0

    def test_partial_tools_in_paper_bands(self, vetting_result):
        acc = vetting_result.accuracies
        assert 0.5 <= acc["URLQuery"] <= 0.85      # paper: ~70%
        assert 0.4 <= acc["BrightCloud"] <= 0.8    # paper: 60%
        assert 0.2 <= acc["SiteCheck"] <= 0.6      # paper: 40%
        assert 0.0 < acc["SenderBase"] <= 0.25     # paper: 10%

    def test_ordering_matches_paper(self, vetting_result):
        acc = vetting_result.accuracies
        assert acc["URLQuery"] >= acc["BrightCloud"] >= acc["SiteCheck"] >= acc["SenderBase"]

    def test_table_rows_sorted(self, vetting_result):
        rows = vetting_result.table_rows()
        values = [value for _name, value in rows]
        assert values == sorted(values, reverse=True)

    def test_shared_analysis_matches_each_tool_analyzing(self):
        # vet_tools analyzes each sample once for all tools; every tool
        # must detect exactly what its own analysis of the file finds
        samples = build_gold_standard(random.Random(3), per_family=3)
        tools = [VirusTotalSim(), QutteraSim()] + all_rejected_tools()
        result = vet_tools(tools, samples)
        for tool in tools:
            own = [sample.name for sample in samples
                   if tool.scan(Submission(url=sample.url, content=sample.content,
                                           content_type=sample.content_type)).malicious]
            assert result.detections[tool.name] == own
