"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == 0.02
        assert args.seed == 2016

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--table", "9"])


class TestCommands:
    def test_run_table1(self, capsys):
        assert main(["run", "--scale", "0.003", "--seed", "5", "--table", "1"]) == 0
        out = capsys.readouterr().out
        assert "10KHits" in out
        assert "%Malicious" in out

    def test_run_figure6(self, capsys):
        assert main(["run", "--scale", "0.003", "--seed", "5", "--figure", "6"]) == 0
        assert "TLD" in capsys.readouterr().out

    def test_run_full_report(self, capsys):
        assert main(["run", "--scale", "0.003", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Figure 7" in out

    def test_vet(self, capsys):
        assert main(["vet", "--per-family", "3"]) == 0
        out = capsys.readouterr().out
        assert "VirusTotal" in out
        assert "accepted:" in out

    def test_har_export(self, tmp_path, capsys):
        target = tmp_path / "out.har"
        assert main(["har", "--exchange", "Otohits", "--scale", "0.003",
                     "--seed", "5", "-o", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["log"]["version"] == "1.2"
        assert data["log"]["entries"]

    def test_har_unknown_exchange(self, tmp_path, capsys):
        target = tmp_path / "out.har"
        assert main(["har", "--exchange", "NoSuch", "--scale", "0.003",
                     "--seed", "5", "-o", str(target)]) == 2

    def test_records_export(self, tmp_path, capsys):
        target = tmp_path / "records.json"
        assert main(["records", "--scale", "0.003", "--seed", "5",
                     "-o", str(target)]) == 0
        records = json.loads(target.read_text())
        assert len(records) > 100
        assert {"url", "exchange", "kind"} <= set(records[0])


class TestNewCommands:
    def test_compare(self, capsys):
        exit_code = main(["compare", "--scale", "0.004", "--seed", "5"])
        out = capsys.readouterr().out
        assert "artifact" in out and "shape" in out
        assert exit_code in (0, 1)  # shape claims may wobble at micro-scale

    def test_export(self, tmp_path, capsys):
        target = tmp_path / "out"
        assert main(["export", "--scale", "0.004", "--seed", "5",
                     "-o", str(target)]) == 0
        assert (target / "table1.csv").exists()
        assert (target / "results.json").exists()

    def test_feed(self, tmp_path, capsys):
        target = tmp_path / "feed.txt"
        assert main(["feed", "--scale", "0.004", "--seed", "5",
                     "-o", str(target)]) == 0
        assert "threat feed" in target.read_text()


class TestStaticScanExplainSkips:
    """``static-scan --explain-skips`` reports the one skip decision:
    absint's, whatever the scripts' verdicts."""

    ALIASED_EVAL = ("<html><body><p>x</p><script>var e = eval; "
                    "e(\"location.href='http://evil.example/land'\");"
                    "</script></body></html>")
    INTERFERING = ("<html><body><script>var target = 'http://evil.example/land';"
                   "</script><script>location.href = target;</script></body></html>")

    def _scan(self, tmp_path, capsys, html, *flags):
        page = tmp_path / "page.html"
        page.write_text(html)
        assert main(["static-scan", str(page), "--explain-skips", *flags]) == 0
        return capsys.readouterr().out

    def test_json(self, tmp_path, capsys):
        aliased = json.loads(self._scan(tmp_path, capsys, self.ALIASED_EVAL))
        # a benign verdict; the skip rests on the complete summary,
        # whose replay navigates as the sandbox does
        assert [s["verdict"] for s in aliased["scripts"]] == ["benign"]
        assert aliased["scripts"][0]["redirect_targets"] == ["http://evil.example/land"]
        assert aliased["page"] == {"sandbox_skip": True, "blockers": []}
        interfering = json.loads(self._scan(tmp_path, capsys, self.INTERFERING))
        assert interfering["page"] == {
            "sandbox_skip": False, "blockers": ["global-interference:target"]}

    def test_markdown(self, tmp_path, capsys):
        out = self._scan(tmp_path, capsys, self.ALIASED_EVAL, "--markdown")
        assert "## Sandbox skip decision" in out
        assert "Page may **skip** dynamic execution." in out
        out = self._scan(tmp_path, capsys, self.INTERFERING, "--markdown")
        assert "Page must **execute**; blocking conditions:" in out
        assert "- `global-interference:target`" in out
