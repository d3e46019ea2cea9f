"""Unit tests for ExchangeCrawler (login, step accounting, modalities)."""

import random

import pytest

from repro.crawler.crawlers import ExchangeCrawler
from repro.crawler.session import BrowserSession
from repro.crawler.storage import CrawlDataset, RecordKind
from repro.exchanges import AutoSurfExchange, ManualSurfExchange
from repro.httpsim import SimHttpClient, SimHttpServer
from repro.simweb import ContentCategory, GroundTruth, Page, Site, WebRegistry


@pytest.fixture
def world():
    registry = WebRegistry(random.Random(0))
    for index in range(4):
        site = Site("member%d.example.com" % index, ContentCategory.BUSINESS, GroundTruth(False))
        site.add_page(Page("/", "m", "<html><body>member %d</body></html>" % index))
        registry.add(site)
    exchange_site = Site("crawltest.example.com", ContentCategory.ADVERTISEMENT, GroundTruth(False))
    exchange_site.add_page(Page("/", "x", "<html><body>exchange</body></html>"))
    registry.add(exchange_site)
    google = Site("www.google.com", ContentCategory.SOCIAL, GroundTruth(False))
    google.add_page(Page("/", "g", "<html><body>google</body></html>"))
    registry.add(google)
    return registry


def make_crawler(registry, exchange):
    for index in range(4):
        exchange.list_site("http://member%d.example.com/" % index)
    dataset = CrawlDataset()
    browser = BrowserSession(
        client=SimHttpClient(SimHttpServer(registry)),
        dataset=dataset, exchange_name=exchange.name, exchange_host=exchange.host,
    )
    return ExchangeCrawler(exchange, browser, random.Random(3)), dataset


class TestCrawler:
    def test_login_registers_fresh_account(self, world):
        exchange = AutoSurfExchange(name="CT", host="crawltest.example.com",
                                    rng=random.Random(1))
        crawler, _dataset = make_crawler(world, exchange)
        session = crawler.login()
        assert session is not None
        assert exchange.accounts.member(crawler.account_id) is not None

    def test_crawl_counts_add_up(self, world):
        exchange = AutoSurfExchange(
            name="CT", host="crawltest.example.com", rng=random.Random(1),
            self_referral_rate=0.2, popular_referral_rate=0.1,
            popular_urls=["http://www.google.com/"],
        )
        crawler, dataset = make_crawler(world, exchange)
        stats = crawler.crawl(steps=150)
        assert stats.steps == 150
        assert stats.self_referrals + stats.popular_referrals + \
            stats.member_visits + stats.campaign_visits == 150
        # dataset records at least one URL per step
        assert len(dataset) >= 150

    def test_crawl_auto_login(self, world):
        exchange = AutoSurfExchange(name="CT", host="crawltest.example.com",
                                    rng=random.Random(1))
        crawler, _dataset = make_crawler(world, exchange)
        stats = crawler.crawl(steps=5)  # no explicit login()
        assert stats.steps == 5

    def test_manual_crawl_works(self, world):
        exchange = ManualSurfExchange(
            name="CTM", host="crawltest.example.com", rng=random.Random(1),
            captcha_every=2,
        )
        crawler, dataset = make_crawler(world, exchange)
        stats = crawler.crawl(steps=20)
        assert stats.steps == 20
        assert exchange.gate.issued > 0

    def test_campaign_steps_counted(self, world):
        exchange = AutoSurfExchange(name="CT", host="crawltest.example.com",
                                    rng=random.Random(1),
                                    self_referral_rate=0.0, popular_referral_rate=0.0)
        crawler, _dataset = make_crawler(world, exchange)
        exchange.purchase_campaign("http://member0.example.com/", visits=30, start_step=0)
        stats = crawler.crawl(steps=40)
        assert stats.campaign_visits > 10

    def test_record_kinds_match_stats(self, world):
        exchange = AutoSurfExchange(
            name="CT", host="crawltest.example.com", rng=random.Random(1),
            self_referral_rate=0.3, popular_referral_rate=0.0,
        )
        crawler, dataset = make_crawler(world, exchange)
        stats = crawler.crawl(steps=60)
        self_records = sum(1 for r in dataset.records
                           if r.kind == RecordKind.SELF_REFERRAL)
        assert self_records == stats.self_referrals
