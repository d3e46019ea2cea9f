"""Unit tests for BrowserSession and CrawlDataset plumbing."""

import json
import random

import pytest

from repro.crawler.session import BrowserSession
from repro.crawler.storage import CrawlDataset, RecordKind, UrlRecord
from repro.httpsim import HarLog, SimHttpClient, SimHttpServer
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
def world():
    registry = WebRegistry(random.Random(0))
    site = Site("member.example.com", ContentCategory.BUSINESS, GroundTruth(False))
    site.add_page(Page(
        "/", "home", "<html><body>home</body></html>",
        subresource_urls=["http://cdn.example.net/lib.js"],
    ))
    registry.add(site)
    cdn = Site("cdn.example.net", ContentCategory.INFORMATION_TECHNOLOGY, GroundTruth(False))
    from repro.simweb import Resource
    cdn.add_resource(Resource("/lib.js", "application/javascript", b"var lib = 1;"))
    registry.add(cdn)
    redirector = Site("hop.example.org", ContentCategory.ADVERTISEMENT, GroundTruth(True))
    redirector.behavior.redirects["/go"] = RedirectHop("http://member.example.com/")
    registry.add(redirector)
    server = SimHttpServer(registry)
    dataset = CrawlDataset()
    session = BrowserSession(
        client=SimHttpClient(server), dataset=dataset,
        exchange_name="TestEx", exchange_host="exchange.example",
    )
    return registry, dataset, session


class TestVisit:
    def test_page_and_subresources_logged(self, world):
        _registry, dataset, session = world
        session.visit("http://member.example.com/", RecordKind.REGULAR, 0, 0.0)
        urls = [r.url for r in dataset.records]
        assert "http://member.example.com/" in urls
        assert "http://cdn.example.net/lib.js" in urls
        roles = {r.url: r.role for r in dataset.records}
        assert roles["http://member.example.com/"] == "page"

    def test_redirect_hops_logged(self, world):
        _registry, dataset, session = world
        session.visit("http://hop.example.org/go", RecordKind.REGULAR, 1, 0.0)
        by_url = {r.url: r for r in dataset.records}
        entry = by_url["http://hop.example.org/go"]
        assert entry.redirect_count == 1
        assert entry.final_url == "http://member.example.com/"
        landed = by_url["http://member.example.com/"]
        assert landed.role == "hop"
        assert landed.redirect_count == 0

    def test_content_cached_with_final_body(self, world):
        _registry, dataset, session = world
        session.visit("http://hop.example.org/go", RecordKind.REGULAR, 2, 0.0)
        cached = dataset.content["http://hop.example.org/go"]
        assert b"home" in cached.content  # the destination's body
        assert cached.final_url == "http://member.example.com/"

    def test_self_referral_no_subresources(self, world):
        registry, dataset, session = world
        exchange = Site("exchange.example", ContentCategory.ADVERTISEMENT, GroundTruth(False))
        exchange.add_page(Page("/", "x", "<html><body>x</body></html>",
                               subresource_urls=["http://cdn.example.net/lib.js"]))
        registry.add(exchange)
        session.visit("http://exchange.example/", RecordKind.SELF_REFERRAL, 3, 0.0)
        urls = [r.url for r in dataset.records]
        assert "http://cdn.example.net/lib.js" not in urls

    def test_har_log_populated(self, world):
        _registry, dataset, session = world
        session.visit("http://member.example.com/", RecordKind.REGULAR, 4, 1.5)
        log = HarLog(dataset.records_for("TestEx"))
        assert len(log) == 2  # page + subresource
        assert all(r.page_ref.startswith("TestEx-") for r in log.requests())
        entries = json.loads(log.to_json())["log"]["entries"]
        assert [e["pageref"] for e in entries] == ["TestEx-000004"] * 2

    def test_referrer_is_exchange_surf_page(self, world):
        _registry, dataset, session = world
        session.visit("http://member.example.com/", RecordKind.REGULAR, 5, 0.0)
        records = dataset.records_for("TestEx")
        assert records[0].referrer == "http://exchange.example/surf"
        # the sub-resource's referrer is the page it was fetched from
        assert records[1].referrer == "http://member.example.com/"

    def test_unparseable_url_logs_a_record_and_no_request(self, world):
        _registry, dataset, session = world
        result = session.visit("no-scheme.example/x", RecordKind.REGULAR, 6, 0.0)
        assert result.response.status == 404 and not result.transactions
        [record] = dataset.records_for("TestEx")
        assert record.url == "no-scheme.example/x"
        assert record.transaction is None and record.started is None
        log = HarLog(dataset.records_for("TestEx"))
        assert len(log) == 0
        assert json.loads(log.to_json())["log"]["entries"] == []
        assert log.time_span() == 0.0

    def test_redirect_loop_logs_the_url_past_the_limit_without_a_request(self, world):
        registry, dataset, session = world
        site = registry.site("hop.example.org")
        site.behavior.redirects["/a"] = RedirectHop("http://hop.example.org/b")
        site.behavior.redirects["/b"] = RedirectHop("http://hop.example.org/a")
        result = session.visit("http://hop.example.org/a", RecordKind.REGULAR, 7, 0.0)
        records = dataset.records_for("TestEx")
        assert len(records) == MAX_REDIRECTS + 2 == 12
        assert len(result.transactions) == len(result.hops) == MAX_REDIRECTS + 1
        assert [r.transaction is None for r in records] == [False] * 11 + [True]
        log = HarLog(records)
        assert len(log) == 11
        entries = json.loads(log.to_json())["log"]["entries"]
        assert [e["request"]["url"] for e in entries] == [
            "http://hop.example.org/a", "http://hop.example.org/b"] * 5 + [
            "http://hop.example.org/a"]
        # each hop's referrer is the URL before it
        assert [e["request"]["headers"][0]["value"] for e in entries] == (
            ["http://exchange.example/surf"] + [r.url for r in records[:10]])
        starts = [e["startedDateTime"] for e in entries]
        assert starts == sorted(starts) and len(set(starts)) == 11
        # the loop's first request resolves each URL, so the chain stops
        # where it would revisit one
        assert [r.url for r in log.redirect_chain("http://hop.example.org/a")] == [
            "http://hop.example.org/a", "http://hop.example.org/b"]


class TestDatasetOps:
    def test_distinct_urls_ordering(self):
        dataset = CrawlDataset()
        for url in ("http://a/", "http://b/", "http://a/"):
            dataset.add_record(UrlRecord(url=url, exchange="E", kind=RecordKind.REGULAR,
                                         step_index=0, timestamp=0.0))
        assert dataset.distinct_urls() == ["http://a/", "http://b/"]

    def test_cache_first_wins(self):
        dataset = CrawlDataset()
        dataset.cache_content("u", b"first", "text/html", "u")
        dataset.cache_content("u", b"second", "text/html", "u")
        assert dataset.content["u"].content == b"first"

    def test_records_json_round_trip(self):
        dataset = CrawlDataset()
        dataset.add_record(UrlRecord(url="http://a/", exchange="E",
                                     kind=RecordKind.REGULAR, step_index=3,
                                     timestamp=1.0, role="page",
                                     final_url="http://b/", redirect_count=1))
        restored = CrawlDataset.records_from_json(dataset.records_to_json())
        assert restored.records == dataset.records

    def test_distinct_domains(self):
        dataset = CrawlDataset()
        for url in ("http://www.a.example/", "http://cdn.a.example/", "http://b.example/"):
            dataset.add_record(UrlRecord(url=url, exchange="E", kind=RecordKind.REGULAR,
                                         step_index=0, timestamp=0.0))
        assert sorted(dataset.distinct_domains()) == ["a.example", "b.example"]


#: the crawl digest of seed 2016 at scale 0.005 (see test_crawl_artifacts_are_pinned)
CRAWL_RECORDS = 8880
CRAWL_DIGEST = "8fa57aecd6ae67b0cf0a9bbe97c4ec3c7ab34879875c068bbdcaa499da996c45"


def crawl_digest():
    """(record count, sha256 over every artifact a crawl leaves).

    Crawls seed 2016 at scale 0.005 with a ``RunObserver`` and hashes,
    in this order: ``records_to_json()``; each exchange's HAR JSON
    (``HarLog(records).to_json()`` over its list in
    ``exchange_records``, in that dict's order); the content cache as
    sorted (url, sha256(content), content_type, final_url) tuples; every
    ``http.*`` counter and the ``http.fetch.seconds`` histogram (count,
    exact sum, bucket counts); and each shortened URL's hit, referrer
    and country counts in insertion order (Table IV's ties break on
    it).
    """
    import hashlib
    import json

    from repro import MalwareSlumsStudy, StudyConfig
    from repro.crawler import CrawlPipeline
    from repro.httpsim import HarLog
    from repro.obs import RunObserver

    config = StudyConfig(seed=2016, scale=0.005)
    web = MalwareSlumsStudy(config).generate_web()
    pipeline = CrawlPipeline(web, config.pipeline_options(observer=RunObserver()))
    pipeline.crawl()
    dataset = pipeline.dataset
    metrics = pipeline.observer.metrics

    digest = hashlib.sha256()

    def add(text):
        digest.update(text.encode())
        digest.update(b"\n")

    add(dataset.records_to_json())
    for exchange, records in dataset.exchange_records.items():
        add(exchange)
        add(HarLog(records).to_json())
    add(json.dumps([
        (url, hashlib.sha256(cached.content).hexdigest(), cached.content_type,
         cached.final_url)
        for url, cached in sorted(dataset.content.items())]))
    add(json.dumps({key: repr(value) for key, value
                    in metrics.snapshot()["counters"].items()
                    if key.startswith("http.")}, sort_keys=True))
    for histogram in metrics.histograms_named("http.fetch.seconds"):
        add(json.dumps([histogram.count, repr(histogram.total),
                        histogram.bucket_counts]))
    for host, service in web.registry.shorteners.services.items():
        for slug in service.slugs():
            stats = service.stats(slug)
            add(json.dumps([host, slug, stats.hits,
                            list(stats.referrer_counts.items()),
                            list(stats.country_counts.items())]))
    return len(dataset.records), digest.hexdigest()


def test_crawl_artifacts_are_pinned():
    """Records, HAR logs, the content cache, the HTTP telemetry and the
    shortener accounting of one crawl, byte for byte: a change to the
    request path (httpsim, the browser session, the dataset) must leave
    all of them unchanged.  A change that moves them on purpose says why
    and regenerates the digest with::

        PYTHONPATH=src python -c "from tests.test_crawler_session import crawl_digest; print(crawl_digest())"
    """
    assert crawl_digest() == (CRAWL_RECORDS, CRAWL_DIGEST)
