"""Tests for repro.httpsim: messages, server behaviours, client, HAR."""

import dataclasses
import json
import random

import pytest

from repro.crawler.session import BrowserSession
from repro.crawler.storage import CrawlDataset, RecordKind, UrlRecord
from repro.httpsim import (
    HarLog,
    HttpRequest,
    HttpResponse,
    SimHttpClient,
    SimHttpServer,
)
from repro.httpsim.client import MAX_REDIRECTS, Transaction
from repro.simweb import (
    ContentCategory,
    GroundTruth,
    Page,
    RedirectHop,
    Site,
    WebRegistry,
)


@pytest.fixture
def registry():
    reg = WebRegistry(random.Random(0))
    landing = Site("landing.example.com", ContentCategory.BUSINESS, GroundTruth(False))
    landing.add_page(Page("/", "Landing", "<html><body><h1>landing</h1></body></html>"))
    landing.add_page(Page("/deal", "Deal", "<html><body>deal page</body></html>"))
    reg.add(landing)
    return reg


@pytest.fixture
def server(registry):
    return SimHttpServer(registry)


@pytest.fixture
def client(server):
    return SimHttpClient(server)


class TestMessages:
    def test_request_get(self):
        req = HttpRequest.get("http://x.com/p", referrer="http://e.com/")
        assert req.referrer == "http://e.com/"
        assert str(req.url) == "http://x.com/p"

    def test_response_helpers(self):
        resp = HttpResponse.redirect("http://next.com/")
        assert resp.is_redirect and resp.location == "http://next.com/"
        assert HttpResponse.html("<p>x</p>").ok
        assert HttpResponse.not_found().status == 404

    def test_text_decoding(self):
        assert HttpResponse.html("héllo").text == "héllo"

    def test_response_is_frozen(self):
        # the client's transaction memo hands one response to many fetches
        with pytest.raises(dataclasses.FrozenInstanceError):
            HttpResponse.html("<p>x</p>").status = 500


class TestServer:
    def test_serves_page(self, server):
        resp, per_request = server.serve(HttpRequest.get("http://landing.example.com/deal"))
        assert resp.ok and b"deal page" in resp.body
        assert not per_request

    def test_unknown_host_404(self, server):
        resp, per_request = server.serve(HttpRequest.get("http://nope.example.com/"))
        # the miss is counted per request
        assert resp.status == 404 and per_request

    def test_unknown_path_404(self, server):
        resp, per_request = server.serve(HttpRequest.get("http://landing.example.com/missing"))
        assert resp.status == 404 and not per_request

    def test_root_fallback(self, server):
        resp, _per_request = server.serve(HttpRequest.get("http://landing.example.com/"))
        assert b"landing" in resp.body

    def test_resource_served_with_type(self, registry, server):
        from repro.simweb import Resource

        site = registry.site("landing.example.com")
        site.add_resource(Resource("/a.js", "application/javascript", b"var x;"))
        resp, _per_request = server.serve(HttpRequest.get("http://landing.example.com/a.js"))
        assert resp.content_type == "application/javascript"


class TestRedirects:
    def test_http_hop(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/go"] = RedirectHop("http://landing.example.com/deal")
        result = client.fetch("http://landing.example.com/go")
        assert result.redirect_count == 1
        assert result.final_url == "http://landing.example.com/deal"
        assert [t.response.status for t in result.transactions] == [302, 200]

    def test_meta_refresh_hop(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/m"] = RedirectHop(
            "http://landing.example.com/deal", status=200, mechanism="meta"
        )
        result = client.fetch("http://landing.example.com/m")
        assert result.redirect_count == 1
        assert result.final_url == "http://landing.example.com/deal"
        assert [t.response.status for t in result.transactions] == [200, 200]

    def test_js_redirect_hop(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/j"] = RedirectHop(
            "http://landing.example.com/deal", status=200, mechanism="js"
        )
        result = client.fetch("http://landing.example.com/j")
        assert result.final_url.endswith("/deal")

    def test_chain_across_hosts(self, registry, client):
        bridge = Site("bridge.example.net", ContentCategory.ADVERTISEMENT, GroundTruth(True))
        bridge.behavior.redirects["/ct"] = RedirectHop("http://landing.example.com/deal")
        registry.add(bridge)
        site = registry.site("landing.example.com")
        site.behavior.redirects["/start"] = RedirectHop("http://bridge.example.net/ct")
        result = client.fetch("http://landing.example.com/start")
        assert result.redirect_count == 2
        assert result.redirected

    def test_redirect_loop_bounded(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/a"] = RedirectHop("http://landing.example.com/b")
        site.behavior.redirects["/b"] = RedirectHop("http://landing.example.com/a")
        result = client.fetch("http://landing.example.com/a")
        assert result.redirect_count <= MAX_REDIRECTS + 1

    def test_rotating_redirector(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.rotating_redirects["/r"] = [
            "http://t1.example.com/", "http://t2.example.com/",
        ]
        finals = {client.fetch("http://landing.example.com/r").final_url for _ in range(4)}
        assert finals == {"http://t1.example.com/", "http://t2.example.com/"}


class TestCloaking:
    def test_scanner_sees_decoy(self, registry, server):
        site = registry.site("landing.example.com")
        site.behavior.cloaked_paths["/deal"] = "<html><body>innocent</body></html>"
        bare, bare_per_request = server.serve(
            HttpRequest.get("http://landing.example.com/deal"))
        assert b"innocent" in bare.body
        browser, browser_per_request = server.serve(HttpRequest.get(
            "http://landing.example.com/deal", referrer="http://exchange.example/surf"
        ))
        assert b"deal page" in browser.body
        # the next request may be the other kind
        assert bare_per_request and browser_per_request


class TestShortenerServing:
    def test_resolution_and_stats(self, registry, client):
        short = registry.shorteners.shorten("goo.gl", "http://landing.example.com/deal", slug="VAdNHA")
        result = client.fetch(short, referrer="http://www.10khits.com/surf", country="BR")
        assert result.final_url == "http://landing.example.com/deal"
        stats = registry.shorteners.service("goo.gl").stats("VAdNHA")
        assert stats.hits == 1
        assert stats.top_country == "BR"
        assert stats.top_referrer == "10khits.com"

    def test_unknown_slug_404(self, client):
        assert client.fetch("http://goo.gl/zzzzzz").response.status == 404

    def test_nested_short_urls(self, registry, client):
        inner = registry.shorteners.shorten("bit.ly", "http://landing.example.com/deal")
        outer = registry.shorteners.shorten("goo.gl", inner)
        result = client.fetch(outer)
        assert result.final_url == "http://landing.example.com/deal"
        assert result.redirect_count == 2


def _session_log(client, url):
    """Visit ``url`` in a browser session bound to exchange ``E`` (surf
    page ``http://e.com/surf``, no sub-resources) and return the HAR
    view of the records it logged."""
    dataset = CrawlDataset()
    BrowserSession(client, dataset, "E", "e.com").visit(url, RecordKind.SELF_REFERRAL, 1, 0.0)
    return HarLog(dataset.records_for("E"))


def _row(url, location=None):
    """A logged request of ``url`` whose response redirects to
    ``location`` (or is a page)."""
    response = HttpResponse.redirect(location) if location else HttpResponse.html("")
    return UrlRecord(url, "E", RecordKind.REGULAR, 0, 0.0,
                     transaction=Transaction(url, response, location), started=0.0)


class TestHar:
    def test_entries_capture_chain(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/go"] = RedirectHop("http://landing.example.com/deal")
        log = _session_log(client, "http://landing.example.com/go")
        assert len(log) == 2
        chain = log.redirect_chain("http://landing.example.com/go")
        assert len(chain) == 2
        assert chain[0].transaction.response.location.endswith("/deal")

    def test_chain_appended_after_first_lookup_is_found(self):
        rows = [_row("http://a.com/", "http://b.com/")]
        log = HarLog(rows)
        assert [r.url for r in log.redirect_chain("http://a.com/")] == ["http://a.com/"]
        rows.extend([_row("http://b.com/", "http://c.com/"), _row("http://c.com/")])
        rows.append(_row("http://b.com/", "http://elsewhere/"))
        # each URL still resolves to its first entry in the log
        assert [r.url for r in log.redirect_chain("http://a.com/")] == [
            "http://a.com/", "http://b.com/", "http://c.com/"]
        assert log.redirect_chain("http://missing/") == []

    def test_json_round_trip(self, registry, client):
        log = _session_log(client, "http://landing.example.com/deal")
        restored = json.loads(log.to_json())["log"]["entries"]
        assert len(restored) == len(log) == 1
        [record] = log.requests()
        assert restored[0]["request"]["url"] == record.transaction.url
        assert restored[0]["request"]["headers"] == [
            {"name": "Referer", "value": "http://e.com/surf"}]
        assert restored[0]["response"]["content"]["size"] == len(
            record.transaction.response.body)


class TestTransactionMemo:
    """A client replays a transaction only where per-request state
    cannot decide it; everything else is served on every request."""

    @pytest.mark.parametrize("submit_files", [True, False])
    def test_memo_equals_a_fresh_serve(self, submit_files):
        from repro import MalwareSlumsStudy, StudyConfig
        from repro.analysis.redirects import probe_rotating_redirector
        from repro.crawler import CrawlPipeline

        config = StudyConfig(seed=2016, scale=0.005, submit_files=submit_files, workers=1)
        web = MalwareSlumsStudy(config).generate_web()
        pipeline = CrawlPipeline(web, config.pipeline_options())
        pipeline.run()
        registry = web.registry
        # the crawl resolves short URLs; Figure 9's probe fetches every
        # rotating redirector: neither may enter a memo
        assert any(registry.shorteners.is_short_host(pipeline.url_table.lookup(url).host)
                   for url in pipeline.dataset.distinct_urls())
        rotating = [site.url(path) for site in registry
                    for path, targets in site.behavior.rotating_redirects.items() if targets]
        assert rotating
        for url in rotating:
            assert len(probe_rotating_redirector(pipeline.client, url, probes=4)) > 1
        service = pipeline.verdict_service
        clients = [pipeline.client, service.virustotal.client, service.quttera.client]
        # the scanners fetch only URL submissions (no file submission)
        assert [bool(client.transactions) for client in clients] == [
            True, not submit_files, not submit_files]
        fresh = SimHttpServer(registry)
        hop_rule = SimHttpClient(fresh)._next_hop
        for client in clients:
            for url, transaction in client.transactions.items():
                parsed = pipeline.url_table.lookup(url)
                site = registry.site(parsed.host)
                assert not registry.shorteners.is_short_host(parsed.host)
                assert site is not None
                assert not site.behavior.rotating_redirects.get(parsed.path)
                assert parsed.path not in site.behavior.cloaked_paths
                memoised = transaction.response
                # with a referrer or without one: the same response
                for referrer in ("", "http://referrer.example/"):
                    response, per_request = fresh.serve(
                        HttpRequest.get(parsed, referrer=referrer))
                    assert not per_request
                    assert (memoised.status, memoised.body, memoised.content_type,
                            memoised.location) == (response.status, response.body,
                                                   response.content_type, response.location)
                assert transaction.url == str(parsed)
                assert transaction.next_hop == hop_rule(parsed, response)
        # the content cache keeps the memo's body, not a copy
        memo = pipeline.client.transactions
        shared = [url for url, cached in pipeline.dataset.content.items()
                  if cached.final_url == url and url in memo]
        assert shared
        for url in shared:
            assert pipeline.dataset.content[url].content is memo[url].response.body

    def test_rotation_order_is_kept(self, registry, client):
        registry.site("landing.example.com").behavior.rotating_redirects["/r"] = [
            "http://t1.example.com/", "http://t2.example.com/",
        ]
        finals = [client.fetch("http://landing.example.com/r",
                               referrer="http://e.example/").final_url for _ in range(4)]
        assert finals == ["http://t1.example.com/", "http://t2.example.com/"] * 2
        assert "http://landing.example.com/r" not in client.transactions

    def test_every_short_url_hit_is_counted(self, registry, client):
        short = registry.shorteners.shorten("goo.gl", "http://landing.example.com/deal",
                                            slug="MEMO01")
        for referrer, country in (("http://www.10khits.com/surf", "BR"),
                                  ("http://www.otohits.net/surf", "US"),
                                  ("http://www.10khits.com/surf", "US")):
            result = client.fetch(short, referrer=referrer, country=country)
            assert result.final_url == "http://landing.example.com/deal"
        stats = registry.shorteners.service("goo.gl").stats("MEMO01")
        assert stats.hits == 3
        assert dict(stats.referrer_counts) == {"10khits.com": 2, "otohits.net": 1}
        assert dict(stats.country_counts) == {"BR": 1, "US": 2}
        assert short not in client.transactions

    def test_cloaking_and_its_counter_per_request(self, registry):
        from repro.obs import RunObserver

        registry.site("landing.example.com").behavior.cloaked_paths["/deal"] = (
            "<html><body>innocent</body></html>")
        observer = RunObserver()
        client = SimHttpClient(SimHttpServer(registry, observer=observer), observer=observer)
        bodies = [client.fetch("http://landing.example.com/deal", referrer=referrer).response.body
                  for referrer in ("", "http://exchange.example/surf", "")]
        assert [b"innocent" in body for body in bodies] == [True, False, True]
        assert observer.metrics.counter_total("http.server.cloaked_decoys") == 2
        assert not client.transactions

    def test_not_found_counted_per_request(self, registry):
        from repro.obs import RunObserver

        observer = RunObserver()
        client = SimHttpClient(SimHttpServer(registry, observer=observer), observer=observer)
        for _ in range(2):
            assert client.fetch("http://nope.example.com/").response.status == 404
        assert observer.metrics.counter_total("http.server.not_found") == 2
        assert not client.transactions
