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
"""

from __future__ import annotations

from typing import Dict, Optional

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
    """Resolves simulated requests against the registry."""

    def __init__(self, registry: WebRegistry,
                 observer: Optional[object] = None) -> None:
        self.registry = registry
        #: per-(host, path) round-robin counters for rotating redirectors
        self._rotation_counters: Dict[str, int] = {}
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks);
        #: counter handles resolved once — handle() runs per request.
        #: The client counts every request, so only the rare outcomes
        #: get metrics here
        self.observer = observer
        if observer is not None:
            metrics = observer.metrics
            self._shortener_counter = metrics.counter("http.server.shortener_resolutions")
            self._not_found_counter = metrics.counter("http.server.not_found")
            self._cloaked_counter = metrics.counter("http.server.cloaked_decoys")

    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one request."""
        url = request.url
        observer = self.observer

        if self.registry.shorteners.is_short_host(url.host):
            if observer is not None:
                self._shortener_counter.inc()
            return self._handle_shortener(request)

        site = self.registry.site(url.host)
        if site is None:
            if observer is not None:
                self._not_found_counter.inc()
            return HttpResponse.not_found()

        behavior = site.behavior
        path = url.path

        rotation = behavior.rotating_redirects.get(path)
        if rotation:
            key = "%s|%s" % (url.host, path)
            index = self._rotation_counters.get(key, 0)
            self._rotation_counters[key] = index + 1
            return HttpResponse.redirect(rotation[index % len(rotation)])

        hop = behavior.redirects.get(path)
        if hop is not None:
            return self._serve_hop(hop)

        cloak = behavior.cloaked_paths.get(path)
        if cloak is not None and self._looks_like_scanner(request):
            if observer is not None:
                self._cloaked_counter.inc()
            return HttpResponse.html(cloak)

        page, resource = site.lookup(path)
        if page is not None:
            return HttpResponse.html(page.html)
        if resource is not None:
            return HttpResponse(200, resource.body, resource.content_type)
        return HttpResponse.not_found()

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
