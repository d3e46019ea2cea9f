"""The simulated HTTP client: redirect following and capture.

Follows HTTP 3xx, ``<meta http-equiv=refresh>``, and trivial JS
``window.location`` hops (the three kinds of hop in the paper's Figure 4
chain), returning every request's transaction with its capture-clock
start and each hop as a (from, to) URL pair; which kind of hop it was is
not recorded.  The client logs nothing itself: the crawler's browser
session stores each request once, as a record its HAR log is rendered
from.  The crawler and the URL scanners both fetch through this client
— with different referrer policies, which is exactly what cloaked sites
discriminate on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..obs.clock import Clock, SimClock
from ..obs.observer import RunObserver
from ..simweb.url import Url, UrlTable
from .message import HttpRequest, HttpResponse
from .server import SimHttpServer

__all__ = ["FetchResult", "SimHttpClient"]

#: redirect hops a fetch follows before it stops (redirect loops end here)
MAX_REDIRECTS = 10

_META_REFRESH = re.compile(
    r"""<meta[^>]+http-equiv=["']?refresh["']?[^>]+content=["'][^"']*url=([^"'>]+)["']""",
    re.IGNORECASE,
)
_JS_LOCATION = re.compile(
    r"""window\.location(?:\.href)?\s*=\s*['"]([^'"]+)['"]"""
)


class Transaction(NamedTuple):
    """One served request, as every later fetch of its URL replays it."""

    #: the requested URL as the HAR log writes it (``str`` of the parsed
    #: URL)
    url: str
    response: HttpResponse
    #: the URL the hop rule follows from here, or ``None``
    next_hop: Optional[str]


@dataclass
class FetchResult:
    """Outcome of a fetch with redirects followed."""

    request_url: str
    final_url: str
    response: HttpResponse
    hops: List[Tuple[str, str]] = field(default_factory=list)  # (from, to)
    #: one per request, in order: the request URL, then each hop target
    #: up to the last one requested (a URL that does not parse, or the
    #: one past ``MAX_REDIRECTS``, was not)
    transactions: List[Transaction] = field(default_factory=list)
    #: each request's start on the capture clock, parallel to
    #: ``transactions``
    started: List[float] = field(default_factory=list)

    @property
    def redirect_count(self) -> int:
        return len(self.hops)

    @property
    def redirected(self) -> bool:
        """True when the initial and final URL differ (the paper's
        'suspicious redirection' trigger compares exactly these)."""
        return self.request_url.rstrip("/") != self.final_url.rstrip("/")


class SimHttpClient:
    """Fetches through a :class:`SimHttpServer`, following redirects.

    **Transaction memo.**  :attr:`transactions` keeps, per requested URL
    string, every transaction whose response the server did not call
    per-request (see :meth:`SimHttpServer.serve`), and :meth:`fetch`
    replays it without serving it again.  So the shorteners, the
    rotating redirectors, the cloaked paths and the unknown hosts are
    served on every request, and Table IV's hit accounting, the rotation
    order and every server counter stay exact.  Each client has its own
    memo, never one at module level; two threads missing on one URL at
    once both serve it and store equal transactions, so no lock is
    needed.
    """

    #: simulated cost of one request/response round trip (seconds)
    REQUEST_SECONDS = 0.05

    def __init__(self, server: SimHttpServer,
                 clock: Optional[Clock] = None,
                 observer: Optional[object] = None,
                 url_table: Optional[UrlTable] = None) -> None:
        self.server = server
        #: capture clock (seconds); request starts (the HAR timings) and
        #: the tracer share it, so cross-layer timestamps never drift
        self.clock: Clock = clock if clock is not None else SimClock()
        self._simulated = isinstance(self.clock, SimClock)
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks)
        self.observer = observer
        #: the ``str → Url`` memo every hop is looked up in: the
        #: pipeline's, shared with its sessions, scanners and dataset, or
        #: one of this client's own
        self.url_table = url_table if url_table is not None else UrlTable()
        #: requested URL string → its transaction
        self.transactions: Dict[str, Transaction] = {}
        # metric handles resolved once — fetch() is the pipeline's hottest
        # loop and must not pay a registry lookup per request
        if observer is not None:
            metrics = observer.metrics
            self._requests_counter = metrics.counter("http.requests")
            self._status_counters = {
                status_class: metrics.counter(
                    "http.responses", status_class="%dxx" % status_class)
                for status_class in (2, 3, 4, 5)
            }
            self._fetch_seconds = metrics.histogram("http.fetch.seconds")
            self._redirect_hops = metrics.counter("http.redirect.hops")
        #: per-fetch work amounts go to a profiler, or to a shard buffer
        #: (it cannot know whether the observer it replays into profiles);
        #: an unprofiled RunObserver would drop them
        self._counts_work = observer is not None and (
            not isinstance(observer, RunObserver) or observer.profiler is not None)

    def _status_counter(self, status: int):
        status_class = status // 100
        counter = self._status_counters.get(status_class)
        if counter is None:
            counter = self._status_counters[status_class] = self.observer.metrics.counter(
                "http.responses", status_class="%dxx" % status_class)
        return counter

    def fetch(
        self,
        url: str,
        referrer: str = "",
        country: str = "US",
    ) -> FetchResult:
        """GET ``url``; follow up to ``MAX_REDIRECTS`` redirect hops.

        A request of a URL in :attr:`transactions` is replayed from it.
        """
        current = url
        current_referrer = referrer
        hops: List[Tuple[str, str]] = []
        requested: List[Transaction] = []
        started: List[float] = []
        response: Optional[HttpResponse] = None
        observer = self.observer
        clock = self.clock
        simulated = self._simulated
        if observer is not None and not simulated:
            fetch_started = clock.now()
        transactions = self.transactions

        for _ in range(MAX_REDIRECTS + 1):
            transaction = transactions.get(current)
            if transaction is None:
                transaction = self._transact(current, current_referrer, country)
                if transaction is None:
                    response = HttpResponse.not_found()
                    break
            requested.append(transaction)
            started.append(clock.advance(self.REQUEST_SECONDS) if simulated
                           else clock.now())
            _url_text, response, next_url = transaction
            if observer is not None:
                # hot loop: bump the counter slot directly rather than
                # paying a method call per request
                try:
                    self._status_counters[response.status // 100].value += 1.0
                except KeyError:
                    self._status_counter(response.status).inc()
            if next_url is None:
                break
            hops.append((current, next_url))
            current_referrer = current
            current = next_url
        assert response is not None
        if observer is not None:
            # integral float sums are exact, so one add per fetch equals
            # one add per request
            self._requests_counter.value += len(requested)
            if simulated:
                # the simulated duration is *defined* as requests × unit
                # cost; computing it as a clock difference would pick up
                # accumulated rounding that differs between the serial
                # loop and a shard-local clock starting at zero
                self._fetch_seconds.observe(len(requested) * self.REQUEST_SECONDS)
            else:
                self._fetch_seconds.observe(clock.now() - fetch_started)
            if hops:
                self._redirect_hops.inc(len(hops))
            if self._counts_work:
                # batched per fetch: request/byte work for the profiler
                observer.work("http.requests", len(requested))
                observer.work("http.bytes", sum(len(transaction.response.body)
                                                for transaction in requested))
        return FetchResult(url, current, response, hops, requested, started)

    def _transact(self, url: str, referrer: str, country: str) -> Optional[Transaction]:
        """Serve ``url`` and apply the hop rule to the response, keeping
        the transaction unless the server calls it per-request; ``None``
        when ``url`` is no URL (a client-side 404 that logs nothing)."""
        parsed = self.url_table.lookup(url)
        if parsed is None:
            return None
        response, per_request = self.server.serve(
            HttpRequest.get(parsed, referrer=referrer, country=country))
        transaction = Transaction(str(parsed), response, self._next_hop(parsed, response))
        if not per_request:
            self.transactions[url] = transaction
        return transaction

    # ------------------------------------------------------------------
    def _next_hop(self, current: Url, response: HttpResponse) -> Optional[str]:
        if response.is_redirect:
            return str(current.join(response.location))
        if response.ok and "text/html" in response.content_type:
            text = response.text
            match = _META_REFRESH.search(text)
            if match:
                return str(current.join(match.group(1).strip()))
            if len(text) < 4096:
                # only trivially-redirecting pages (the whole body is a
                # redirect stub) are followed at the HTTP layer; richer
                # pages get full JS analysis elsewhere
                js_match = _JS_LOCATION.search(text)
                if js_match and text.count("<") < 20:
                    return str(current.join(js_match.group(1).strip()))
        return None
