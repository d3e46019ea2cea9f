"""Tests for repro.httpsim: messages, server behaviours, client, HAR."""

import random

import pytest

from repro.httpsim import (
    HarEntry,
    HarLog,
    HttpRequest,
    HttpResponse,
    SimHttpClient,
    SimHttpServer,
)
from repro.httpsim.client import MAX_REDIRECTS
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


class TestServer:
    def test_serves_page(self, server):
        resp = server.handle(HttpRequest.get("http://landing.example.com/deal"))
        assert resp.ok and b"deal page" in resp.body

    def test_unknown_host_404(self, server):
        assert server.handle(HttpRequest.get("http://nope.example.com/")).status == 404

    def test_unknown_path_404(self, server):
        assert server.handle(HttpRequest.get("http://landing.example.com/missing")).status == 404

    def test_root_fallback(self, server):
        resp = server.handle(HttpRequest.get("http://landing.example.com/"))
        assert b"landing" in resp.body

    def test_resource_served_with_type(self, registry, server):
        from repro.simweb import Resource

        site = registry.site("landing.example.com")
        site.add_resource(Resource("/a.js", "application/javascript", b"var x;"))
        resp = server.handle(HttpRequest.get("http://landing.example.com/a.js"))
        assert resp.content_type == "application/javascript"


class TestRedirects:
    def test_http_hop(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/go"] = RedirectHop("http://landing.example.com/deal")
        result = client.fetch("http://landing.example.com/go")
        assert result.redirect_count == 1
        assert result.final_url == "http://landing.example.com/deal"
        assert [e.status for e in result.entries] == [302, 200]

    def test_meta_refresh_hop(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/m"] = RedirectHop(
            "http://landing.example.com/deal", status=200, mechanism="meta"
        )
        result = client.fetch("http://landing.example.com/m")
        assert result.redirect_count == 1
        assert result.final_url == "http://landing.example.com/deal"
        assert [e.status for e in result.entries] == [200, 200]

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
        bare = server.handle(HttpRequest.get("http://landing.example.com/deal"))
        assert b"innocent" in bare.body
        browser = server.handle(HttpRequest.get(
            "http://landing.example.com/deal", referrer="http://exchange.example/surf"
        ))
        assert b"deal page" in browser.body


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


class TestHar:
    def test_entries_capture_chain(self, registry, client):
        site = registry.site("landing.example.com")
        site.behavior.redirects["/go"] = RedirectHop("http://landing.example.com/deal")
        result = client.fetch("http://landing.example.com/go", page_ref="visit-1")
        log = HarLog()
        log.extend(result.entries)
        assert len(log) == 2
        chain = log.redirect_chain("http://landing.example.com/go")
        assert len(chain) == 2
        assert chain[0].redirect_location.endswith("/deal")

    def test_chain_appended_after_first_lookup_is_found(self):
        log = HarLog()
        log.add(HarEntry(url="http://a.com/", redirect_location="http://b.com/"))
        assert [e.url for e in log.redirect_chain("http://a.com/")] == ["http://a.com/"]
        log.extend([HarEntry(url="http://b.com/", redirect_location="http://c.com/"),
                    HarEntry(url="http://c.com/")])
        log.add(HarEntry(url="http://b.com/", redirect_location="http://elsewhere/"))
        # each URL still resolves to its first entry in the log
        assert [e.url for e in log.redirect_chain("http://a.com/")] == [
            "http://a.com/", "http://b.com/", "http://c.com/"]
        assert log.redirect_chain("http://missing/") == []

    def test_json_round_trip(self, registry, client):
        result = client.fetch("http://landing.example.com/deal", referrer="http://e.com/")
        log = HarLog()
        log.extend(result.entries)
        restored = HarLog.from_json(log.to_json())
        assert len(restored) == len(log)
        assert restored.entries[0].url == log.entries[0].url
        assert restored.entries[0].referrer == "http://e.com/"
