"""The simulated web server farm.

Serves every request out of the :class:`~repro.simweb.registry.WebRegistry`,
enacting each site's :class:`~repro.simweb.site.ServerBehavior`:

* **redirect hops** — 302s or meta-refresh pages (Figure 4 chains),
* **rotating redirectors** — a different target per request (Figure 9),
* **cloaking** — a referrer-less fetch (how URL-submission scanners
  fetch) receives the benign decoy; browser-like traffic arriving from
  an exchange receives the real page (Section III, footnote 1),
* **shortener services** — slug resolution with hit/referrer/country
  accounting feeding Table IV.

Outside the shortener services, the rotating redirectors, the cloaked
paths and the unknown hosts, what a request gets depends only on its URL
string, so :meth:`SimHttpServer.serve` says which responses a client may
keep for every later request of the same URL.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from ..simweb.registry import WebRegistry
from ..simweb.site import RedirectHop
from ..simweb.url import Url
from .message import HttpRequest, HttpResponse

__all__ = ["SimHttpServer"]

_META_REFRESH_TEMPLATE = (
    "<html><head><meta http-equiv=\"refresh\" content=\"0;url=%s\"></head>"
    "<body>Redirecting...</body></html>"
)


class SimHttpServer:
    """Resolves simulated requests against the registry.

    The registry must not change once this server has served a request:
    a client keeps every response :meth:`serve` does not call
    per-request for all later requests of its URL (the pipeline finishes
    building its web in ``CrawlPipeline._build_exchange_sites``, before
    it crawls).
    """

    def __init__(self, registry: WebRegistry,
                 observer: Optional[object] = None) -> None:
        self.registry = registry
        #: per-(host, path) round-robin counters for rotating redirectors
        self._rotation_counters: Dict[str, int] = {}
        #: page URL string → the sub-resource URLs of the page served there
        self._subresources: Dict[str, Sequence[str]] = {}
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks);
        #: counter handles resolved once — serve() runs per request.
        #: The client counts every request, so only the rare outcomes
        #: get metrics here
        self.observer = observer
        if observer is not None:
            metrics = observer.metrics
            self._shortener_counter = metrics.counter("http.server.shortener_resolutions")
            self._not_found_counter = metrics.counter("http.server.not_found")
            self._cloaked_counter = metrics.counter("http.server.cloaked_decoys")

    # ------------------------------------------------------------------
    def serve(self, request: HttpRequest) -> Tuple[HttpResponse, bool]:
        """Serve one request.

        Returns the response and whether it is *per-request*: a
        shortener's (it counts the hit, its referrer and country), a
        rotating redirector's (the next request gets the next target), a
        cloaked path's (only a request with a referrer gets the page) or
        an unknown host's (it counts the miss).  Every other response is
        what any request of the same URL string gets.
        """
        url = request.url
        observer = self.observer

        if self.registry.shorteners.is_short_host(url.host):
            if observer is not None:
                self._shortener_counter.inc()
            return self._handle_shortener(request), True

        site = self.registry.site(url.host)
        if site is None:
            if observer is not None:
                self._not_found_counter.inc()
            return HttpResponse.not_found(), True

        behavior = site.behavior
        path = url.path

        rotation = behavior.rotating_redirects.get(path)
        if rotation:
            key = "%s|%s" % (url.host, path)
            index = self._rotation_counters.get(key, 0)
            self._rotation_counters[key] = index + 1
            return HttpResponse.redirect(rotation[index % len(rotation)]), True

        hop = behavior.redirects.get(path)
        if hop is not None:
            return self._serve_hop(hop), False

        cloak = behavior.cloaked_paths.get(path)
        if cloak is not None and self._looks_like_scanner(request):
            if observer is not None:
                self._cloaked_counter.inc()
            return HttpResponse.html(cloak), True
        per_request = cloak is not None

        page, resource = site.lookup(path)
        if page is not None:
            return HttpResponse.html(page.html), per_request
        if resource is not None:
            return HttpResponse(200, resource.body, resource.content_type), per_request
        return HttpResponse.not_found(), per_request

    def subresource_urls(self, url: str,
                         lookup: Callable[[str], Optional[Url]]) -> Sequence[str]:
        """The sub-resource URLs of the page served at ``url`` (empty when
        no page is), memoised by the URL string; ``lookup`` parses
        ``url`` on a miss (the caller's :class:`~repro.simweb.url.UrlTable`)."""
        urls = self._subresources.get(url)
        if urls is None:
            urls = ()
            parsed = lookup(url)
            site = None if parsed is None else self.registry.site(parsed.host)
            if site is not None:
                page, _resource = site.lookup(parsed.path)
                if page is not None:
                    urls = page.subresource_urls
            self._subresources[url] = urls
        return urls

    # ------------------------------------------------------------------
    def _serve_hop(self, hop: RedirectHop) -> HttpResponse:
        if hop.mechanism == "meta":
            return HttpResponse.html(_META_REFRESH_TEMPLATE % hop.location)
        if hop.mechanism == "js":
            markup = (
                "<html><body><script>window.location.href = '%s';</script></body></html>"
                % hop.location
            )
            return HttpResponse.html(markup)
        return HttpResponse.redirect(hop.location, status=hop.status)

    def _handle_shortener(self, request: HttpRequest) -> HttpResponse:
        url = request.url
        referrer_domain = ""
        if request.referrer:
            referrer_url = Url.try_parse(request.referrer)
            if referrer_url is not None:
                referrer_domain = referrer_url.registrable_domain
        target = self._resolve_short_url(url.host, url.path.lstrip("/"),
                                         referrer_domain, request.country)
        if target is None:
            return HttpResponse.not_found()
        return HttpResponse.redirect(target, status=301)

    def _resolve_short_url(self, host: str, slug: str, referrer_domain: str,
                           country: str) -> Optional[str]:
        """The long URL behind ``slug``, with the hit counted (Table IV);
        ``None`` for an unknown slug."""
        return self.registry.shorteners.service(host).resolve(
            slug, referrer=referrer_domain, country=country)

    @staticmethod
    def _looks_like_scanner(request: HttpRequest) -> bool:
        """Cloaking trigger: direct fetches with no referrer.

        Real cloaked sites fingerprint scanners by referrer and UA; our
        model uses the referrer (URL scanners fetch bare URLs, while the
        surf traffic always arrives from an exchange page).
        """
        return not request.referrer
