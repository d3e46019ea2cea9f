"""Tests for repro.detection: heuristics, VT, Quttera, blacklists."""

import random

import pytest

from repro.detection import QutteraSim, Submission, VirusTotalSim, analyze_content, analyze_html, build_blacklists, default_engine_pool, stable_unit
from repro.malware import (
    build_flash_ad_kit,
    deceptive_download_bar,
    fingerprinting_script,
    google_analytics_snippet,
    google_oauth_relay_iframe,
    js_injected_iframe,
    make_executable,
    tiny_iframe,
)

SHELL = "<html><head><title>t</title></head><body><p>content here</p>%s</body></html>"


@pytest.fixture
def rng():
    return random.Random(5)


class TestHeuristics:
    def test_tiny_iframe_found(self, rng):
        analysis = analyze_html(SHELL % tiny_iframe(rng, "http://bad.example/").html)
        assert len(analysis.hidden_iframes) == 1
        finding = analysis.hidden_iframes[0]
        assert finding.hidden_by in ("tiny", "transparency")
        assert not finding.trusted_host
        assert analysis.malicious_iframe_score >= 0.5

    def test_js_injected_marked(self, rng):
        snip = js_injected_iframe(rng, "http://bad.example/", obfuscation_depth=1)
        analysis = analyze_html(SHELL % snip.html)
        assert any(f.injected_by_js for f in analysis.hidden_iframes)
        assert analysis.obfuscation_layers >= 1

    def test_oauth_relay_trusted(self, rng):
        analysis = analyze_html(SHELL % google_oauth_relay_iframe(rng, "http://me.example/"))
        assert len(analysis.hidden_iframes) == 1
        assert analysis.hidden_iframes[0].trusted_host

    def test_deceptive_download_signals(self, rng):
        lure = deceptive_download_bar(rng, "http://pay.example/flashplayer.exe")
        analysis = analyze_html(SHELL % lure.html)
        assert analysis.download_triggers
        assert analysis.deceptive_download_bar
        assert analysis.behavior_score >= 0.85

    def test_redirect_stub(self):
        analysis = analyze_html(
            "<html><body><script>window.location.href = 'http://next.example/';</script></body></html>"
        )
        assert analysis.redirect_stub
        assert analysis.redirect_target == "http://next.example/"

    def test_meta_refresh_stub(self):
        analysis = analyze_html(
            '<html><head><meta http-equiv="refresh" content="0;url=http://n.example/"></head><body>x</body></html>'
        )
        assert analysis.redirect_stub

    def test_rich_page_not_stub(self, rng):
        # a long page with a navigation somewhere is not a redirect stub
        body = "<p>%s</p><script>document.cookie = 's=1';</script>" % ("text " * 100)
        analysis = analyze_html(SHELL % body)
        assert not analysis.redirect_stub

    def test_fingerprinting_signals(self, rng):
        analysis = analyze_html(SHELL % fingerprinting_script(rng, "http://spy.example/b.gif"))
        assert analysis.fingerprinting_listeners >= 2
        assert analysis.beacons

    def test_swf_analysis(self, rng):
        kit = build_flash_ad_kit(rng, "http://s.example", "http://p.example/ad")
        analysis = analyze_content(kit.swf_bytes, "application/x-shockwave-flash")
        assert analysis.kind == "flash"
        assert analysis.flash_score >= 0.7

    def test_executable_analysis(self, rng):
        analysis = analyze_content(make_executable(rng), "application/x-msdownload")
        assert analysis.kind == "executable"
        assert analysis.executable_signature_hit

    def test_standalone_js(self):
        analysis = analyze_content(
            b"window.location.href = 'http://x.example/';", "application/javascript"
        )
        assert analysis.kind == "javascript"
        assert analysis.redirect_stub

    def test_benign_page_clean(self, rng):
        analysis = analyze_html(SHELL % google_analytics_snippet(rng))
        assert not analysis.hidden_iframes
        assert analysis.behavior_score < 0.5
        assert analysis.obfuscation_layers == 0


class TestStableUnit:
    def test_deterministic(self):
        assert stable_unit("a", "b") == stable_unit("a", "b")

    def test_distinct_keys_differ(self):
        assert stable_unit("a", "b") != stable_unit("a", "c")

    def test_range(self):
        for i in range(50):
            assert 0.0 <= stable_unit("k", str(i)) < 1.0


class TestVirusTotal:
    def test_detects_malware_page(self, rng):
        vt = VirusTotalSim()
        report = vt.scan(Submission(
            url="http://m.example/",
            content=(SHELL % tiny_iframe(rng, "http://bad.example/").html).encode(),
        ))
        assert report.malicious
        assert report.positives >= 2
        assert report.total_engines == len(default_engine_pool())

    def test_clean_page_not_flagged(self, rng):
        vt = VirusTotalSim()
        report = vt.scan(Submission(
            url="http://c.example/", content=(SHELL % "<p>more text</p>").encode()))
        assert not report.malicious

    def test_labels_from_alias_vocabulary(self, rng):
        vt = VirusTotalSim()
        snip = js_injected_iframe(rng, "http://bad.example/", obfuscation_depth=2)
        report = vt.scan(Submission(
            url="http://m.example/", content=(SHELL % snip.html).encode()))
        assert any("IframeRef" in l or "ScrInject" in l or "iacgm" in l or "iframe" in l.lower()
                   for l in report.labels)

    def test_category_inference(self):
        vt = VirusTotalSim()
        text = SHELL % "<p>online shopping and payments and loans</p>"
        assert vt.categorize_content(text) == "business"

    def test_deterministic_reports(self, rng):
        content = (SHELL % tiny_iframe(rng, "http://bad.example/").html).encode()
        a = VirusTotalSim().scan(Submission(url="http://m.example/", content=content))
        b = VirusTotalSim().scan(Submission(url="http://m.example/", content=content))
        assert a.positives == b.positives

    def test_url_scan_requires_client(self):
        with pytest.raises(RuntimeError):
            VirusTotalSim().scan(Submission(url="http://x.example/"))


class TestQuttera:
    def test_threat_report_detail(self, rng):
        quttera = QutteraSim()
        snip = js_injected_iframe(rng, "http://bad.example/", obfuscation_depth=2)
        report = quttera.scan(Submission(
            url="http://m.example/", content=(SHELL % snip.html).encode()))
        assert report.malicious
        assert "js-injected-iframe" in report.labels
        assert "obfuscated-javascript" in report.labels

    def test_flags_redirect(self):
        quttera = QutteraSim()
        report = quttera.scan(Submission(
            url="http://r.example/",
            content=b"<html><body><script>window.location.href = 'http://n.example/';</script></body></html>",
        ))
        assert report.malicious
        assert "malicious-redirect" in report.labels

    def test_oauth_fp_is_suspicious_only(self, rng):
        quttera = QutteraSim()
        report = quttera.scan(Submission(
            url="http://fp.example/",
            content=(SHELL % google_oauth_relay_iframe(rng, "http://fp.example/")).encode(),
        ))
        # a single trusted-host hidden frame alone does not flag the page
        assert "hidden-iframe" in report.labels
        assert not report.malicious

    def test_clean_page(self):
        report = QutteraSim().scan(Submission(
            url="http://c.example/", content=(SHELL % "").encode()))
        assert not report.malicious
        assert report.details["verdict"] == "clean"


class TestBlacklists:
    def test_multi_list_rule(self, rng):
        blacklists = build_blacklists(
            known_bad_domains=["bad%d.example" % i for i in range(50)],
            benign_domains=["good%d.example" % i for i in range(200)],
            rng=rng,
            guaranteed_multi_listed=["notorious.example"],
        )
        assert blacklists.is_blacklisted("notorious.example")
        assert blacklists.hit_count("notorious.example") >= 3
        assert not blacklists.is_blacklisted("neverseen.example")

    def test_coverage_ordering(self, rng):
        bad = ["bad%d.example" % i for i in range(300)]
        blacklists = build_blacklists(bad, [], rng)
        by_name = {bl.name: len(bl) for bl in blacklists}
        # GSB has the highest coverage, ZeusTracker much lower scope
        assert by_name["GoogleSafeBrowsing"] > by_name["ZeusTracker"]

    def test_stale_entries_exist(self, rng):
        benign = ["good%d.example" % i for i in range(1000)]
        blacklists = build_blacklists(["bad.example"], benign, rng)
        stale = sum(
            1 for domain in benign
            if any(bl.contains_domain(domain) for bl in blacklists)
        )
        assert stale > 0  # blacklists are imperfect (the paper's premise)

    def test_min_hits_parameter(self, rng):
        blacklists = build_blacklists(["b.example"], [], rng)
        hits = blacklists.hit_count("b.example")
        if hits:
            assert blacklists.is_blacklisted("b.example", min_hits=hits)
            assert not blacklists.is_blacklisted("b.example", min_hits=hits + 1)

