"""The crawl browser session.

Performs one "visit" the way the paper's instrumented Firefox did: fetch
the listed URL with the exchange page as referrer (exchanges open sites
in the surf iframe), follow every redirect mechanism, then fetch the
page's sub-resources — logging each request URL once, as a record in the
dataset that also holds the request the exchange's HAR log renders, and
caching body bytes for later file submission to the scanners (the
cloaking mitigation).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Optional

from ..httpsim import FetchResult, SimHttpClient
from .storage import CrawlDataset, RecordKind, UrlRecord

__all__ = ["BrowserSession"]


class BrowserSession:
    """A crawling browser bound to one exchange account."""

    def __init__(
        self,
        client: SimHttpClient,
        dataset: CrawlDataset,
        exchange_name: str,
        exchange_host: str,
        country: str = "US",
        observer: Optional[object] = None,
    ) -> None:
        self.client = client
        self.dataset = dataset
        self.exchange_name = exchange_name
        self.exchange_host = exchange_host
        self.country = country
        #: every visit arrives from the exchange's surf page
        self.surf_referrer = "http://%s/surf" % exchange_host
        #: this exchange's list of records in the dataset
        self._exchange_records = dataset.exchange_records.setdefault(exchange_name, [])
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks);
        #: the session is bound to one exchange, so its per-exchange
        #: counters resolve once here rather than once per visit
        self.observer = observer
        if observer is not None:
            metrics = observer.metrics
            self._visits_counter = metrics.counter(
                "crawl.visits", exchange=exchange_name)
            self._redirected_counter = metrics.counter(
                "crawl.redirected_visits", exchange=exchange_name)
            self._subresource_counter = metrics.counter(
                "crawl.subresource_fetches", exchange=exchange_name)

    # ------------------------------------------------------------------
    def visit(self, url: str, kind: str, step_index: int, timestamp: float) -> FetchResult:
        """Visit ``url``; log page, redirect hops, and sub-resources."""
        result = self.client.fetch(url, referrer=self.surf_referrer, country=self.country)
        self._log_chain(result, self.surf_referrer, kind, step_index, timestamp)
        if self.observer is not None:
            self._visits_counter.value += 1.0
            if result.hops:
                self._redirected_counter.value += 1.0

        if kind == RecordKind.REGULAR and result.response.ok:
            self._fetch_subresources(result, kind, step_index, timestamp)
        return result

    # ------------------------------------------------------------------
    def _log_chain(self, result: FetchResult, referrer: str, kind: str,
                   step_index: int, timestamp: float) -> None:
        """Log the requested URL and every redirect hop it traversed, each
        with its request (each hop's referrer is the URL before it)."""
        # runs once per logged URL instance: positional construction and
        # bound methods keep it cheap
        add_record = self.dataset.records.append
        add_exchange_record = self._exchange_records.append
        cache_content = self.dataset.cache_content
        exchange_name = self.exchange_name
        final_url = result.final_url
        body = result.response.body
        content_type = result.response.content_type
        role = "page"
        remaining = len(result.hops)
        for chain_url, transaction, started in zip_longest(
                [result.request_url] + [to for _frm, to in result.hops],
                result.transactions, result.started):
            record = UrlRecord(chain_url, exchange_name, kind, step_index, timestamp,
                               role, final_url, remaining, transaction, referrer, started)
            add_record(record)
            add_exchange_record(record)
            cache_content(chain_url, body, content_type, final_url)
            role = "hop"
            remaining -= 1
            referrer = chain_url

    def _fetch_subresources(self, page_result: FetchResult, kind: str,
                            step_index: int, timestamp: float) -> None:
        client = self.client
        referrer = page_result.final_url
        for sub_url in client.server.subresource_urls(referrer, client.url_table.lookup):
            sub_result = client.fetch(sub_url, referrer=referrer, country=self.country)
            self._log_chain(sub_result, referrer, kind, step_index, timestamp)
            if self.observer is not None:
                self._subresource_counter.value += 1.0
