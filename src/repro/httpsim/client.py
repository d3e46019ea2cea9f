"""The simulated HTTP client: redirect following and capture.

Follows HTTP 3xx, ``<meta http-equiv=refresh>``, and trivial JS
``window.location`` hops (the three mechanisms in the paper's Figure 4
chain), recording every transaction as a HAR entry.  The crawler and the
URL scanners both fetch through this client — with different referrer
policies, which is exactly what cloaked sites discriminate on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs.clock import Clock, SimClock
from ..simweb.url import Url, UrlTable
from .cookies import CookieJar
from .har import HarEntry
from .message import HttpRequest, HttpResponse
from .server import SimHttpServer

__all__ = ["FetchResult", "SimHttpClient"]

_META_REFRESH = re.compile(
    r"""<meta[^>]+http-equiv=["']?refresh["']?[^>]+content=["'][^"']*url=([^"'>]+)["']""",
    re.IGNORECASE,
)
_JS_LOCATION = re.compile(
    r"""window\.location(?:\.href)?\s*=\s*['"]([^'"]+)['"]"""
)


@dataclass
class FetchResult:
    """Outcome of a fetch with redirects followed."""

    request_url: str
    final_url: str
    response: HttpResponse
    hops: List[Tuple[str, str]] = field(default_factory=list)  # (from, to) with mechanism folded in
    mechanisms: List[str] = field(default_factory=list)
    entries: List[HarEntry] = field(default_factory=list)

    @property
    def redirect_count(self) -> int:
        return len(self.hops)

    @property
    def redirected(self) -> bool:
        """True when the initial and final URL differ (the paper's
        'suspicious redirection' trigger compares exactly these)."""
        return self.request_url.rstrip("/") != self.final_url.rstrip("/")


class SimHttpClient:
    """Fetches through a :class:`SimHttpServer`, following redirects."""

    #: simulated cost of one request/response round trip (seconds)
    REQUEST_SECONDS = 0.05

    def __init__(self, server: SimHttpServer, max_redirects: int = 10,
                 follow_js_redirects: bool = True,
                 cookie_jar: Optional["CookieJar"] = None,
                 clock: Optional[Clock] = None,
                 observer: Optional[object] = None,
                 url_table: Optional[UrlTable] = None) -> None:
        self.server = server
        self.max_redirects = max_redirects
        self.follow_js_redirects = follow_js_redirects
        #: optional cookie jar: sends Cookie headers, stores Set-Cookie
        self.cookie_jar = cookie_jar
        #: capture clock (seconds); HAR entries and the tracer share it,
        #: so cross-layer timestamps never drift
        self.clock: Clock = clock if clock is not None else SimClock()
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks)
        self.observer = observer
        #: the ``str → Url`` memo every hop is looked up in: the
        #: pipeline's, shared with its sessions, scanners and dataset, or
        #: one of this client's own
        self.url_table = url_table if url_table is not None else UrlTable()
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
        page_ref: str = "",
    ) -> FetchResult:
        """GET ``url``; follow redirect mechanisms up to ``max_redirects``."""
        current = url
        current_referrer = referrer
        hops: List[Tuple[str, str]] = []
        mechanisms: List[str] = []
        entries: List[HarEntry] = []
        response: Optional[HttpResponse] = None
        observer = self.observer
        fetch_started = self.clock.now()
        body_bytes = 0
        lookup = self.url_table.lookup

        for _ in range(self.max_redirects + 1):
            parsed = lookup(current)
            if parsed is None:
                response = HttpResponse.not_found()
                break
            request = HttpRequest.get(parsed, referrer=current_referrer, country=country)
            if self.cookie_jar is not None:
                header = self.cookie_jar.cookie_header(parsed)
                if header:
                    request.headers["Cookie"] = header
            response = self.server.handle(request)
            if self.cookie_jar is not None and "Set-Cookie" in response.headers:
                self.cookie_jar.store(parsed, response.headers["Set-Cookie"])
            if isinstance(self.clock, SimClock):
                self.clock.advance(self.REQUEST_SECONDS)
            if self.cookie_jar is not None:
                self.cookie_jar.advance(self.REQUEST_SECONDS)
            entries.append(
                HarEntry.from_transaction(
                    request, response,
                    started=self.clock.now(),
                    duration_ms=self.REQUEST_SECONDS * 1000.0,
                    page_ref=page_ref,
                )
            )
            if observer is not None:
                # hot loop: bump the counter slots directly rather than
                # paying two method calls per request
                self._requests_counter.value += 1.0
                try:
                    self._status_counters[response.status // 100].value += 1.0
                except KeyError:
                    self._status_counter(response.status).inc()
                body_bytes += len(response.body)
            next_url = self._next_hop(parsed, response)
            if next_url is None:
                break
            hops.append((current, next_url))
            mechanisms.append(self._mechanism(response))
            current_referrer = current
            current = next_url
        assert response is not None
        if observer is not None:
            if isinstance(self.clock, SimClock):
                # the simulated duration is *defined* as requests × unit
                # cost; computing it as a clock difference would pick up
                # accumulated rounding that differs between the serial
                # loop and a shard-local clock starting at zero
                self._fetch_seconds.observe(len(entries) * self.REQUEST_SECONDS)
            else:
                self._fetch_seconds.observe(self.clock.now() - fetch_started)
            if hops:
                self._redirect_hops.inc(len(hops))
            # batched per fetch: request/byte work for the profiler
            # (a single is-None test each when profiling is off)
            observer.work("http.requests", len(entries))
            observer.work("http.bytes", body_bytes)
        return FetchResult(
            request_url=url,
            final_url=current,
            response=response,
            hops=hops,
            mechanisms=mechanisms,
            entries=entries,
        )

    # ------------------------------------------------------------------
    def _next_hop(self, current: Url, response: HttpResponse) -> Optional[str]:
        if response.is_redirect:
            return str(current.join(response.location))
        if response.ok and "text/html" in response.content_type:
            text = response.text
            match = _META_REFRESH.search(text)
            if match:
                return str(current.join(match.group(1).strip()))
            if self.follow_js_redirects and len(text) < 4096:
                # only trivially-redirecting pages (the whole body is a
                # redirect stub) are followed at the HTTP layer; richer
                # pages get full JS analysis elsewhere
                js_match = _JS_LOCATION.search(text)
                if js_match and text.count("<") < 20:
                    return str(current.join(js_match.group(1).strip()))
        return None

    @staticmethod
    def _mechanism(response: HttpResponse) -> str:
        if response.is_redirect:
            return "http"
        if "refresh" in response.text.lower()[:2048]:
            return "meta"
        return "js"
