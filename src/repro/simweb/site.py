"""Site, page, and resource models for the synthetic web.

A :class:`Site` owns pages and sub-resources under one host, plus an
optional :class:`ServerBehavior` describing server-side tricks (redirect
chains, cloaking) that the HTTP layer enacts.  Every planted malware
artifact carries a :class:`GroundTruth` record — the generator's own
label, used *only* for evaluating detectors and in tests; scanners never
see it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .categories import ContentCategory

__all__ = [
    "MalwareFamily",
    "GroundTruth",
    "Resource",
    "Page",
    "RedirectHop",
    "ServerBehavior",
    "Site",
]


class MalwareFamily(str, enum.Enum):
    """Ground-truth malware families planted by the generator.

    These map onto the paper's malware categories (Table III) and case
    studies (Section V).
    """

    IFRAME_TINY = "iframe_tiny"                    # V-A category 1: 1x1 iframe
    IFRAME_INVISIBLE = "iframe_invisible"          # V-A category 2: hidden + exfil
    IFRAME_JS_INJECTED = "iframe_js_injected"      # V-A category 3: document.write
    DECEPTIVE_DOWNLOAD = "deceptive_download"      # V-B: fake Flash-Player prompt
    SUSPICIOUS_REDIRECT = "suspicious_redirect"    # V-C: server-side redirector
    MALICIOUS_JS_FILE = "malicious_js_file"        # standalone .js payloads
    MALICIOUS_FLASH = "malicious_flash"            # V-D: ExternalInterface SWF
    BLACKLISTED_HOST = "blacklisted_host"          # IV-A3: known-bad domain
    MALICIOUS_SHORTENED = "malicious_shortened"    # IV-A5: flagged short URL
    FINGERPRINTING = "fingerprinting"              # IV-A1: behaviour recording

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class GroundTruth:
    """Generator-side record of what was planted where."""

    malicious: bool
    family: Optional[MalwareFamily] = None
    detail: str = ""
    benign_lookalike: bool = False  # crafted FP bait (Section V-E)


@dataclass
class Resource:
    """A non-page asset: script, SWF, image, executable payload."""

    path: str
    content_type: str
    body: bytes
    truth: GroundTruth = field(default_factory=lambda: GroundTruth(False))

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


@dataclass
class Page:
    """An HTML page served at ``path`` on its site."""

    path: str
    title: str
    html: str
    truth: GroundTruth = field(default_factory=lambda: GroundTruth(False))
    #: absolute URLs of sub-resources the page loads (crawler logs these,
    #: mirroring Firebug capturing every request)
    subresource_urls: List[str] = field(default_factory=list)


@dataclass
class RedirectHop:
    """One hop of a server-side redirect chain."""

    location: str
    status: int = 302
    mechanism: str = "http"  # "http" | "meta" | "js"


@dataclass
class ServerBehavior:
    """Server-side behaviours the HTTP layer enforces for a site."""

    #: path -> the redirect hop served there (multi-hop chains emerge from
    #: following hops across sites, Figure 4)
    redirects: Dict[str, RedirectHop] = field(default_factory=dict)
    #: paths that serve benign content to URL scanners (cloaking): a fetch
    #: without a referrer (how URL-based scanners fetch) sees
    #: ``cloaked_paths[path]``; a browser-like client arriving from an
    #: exchange sees the real page (Section III footnote 1)
    cloaked_paths: Dict[str, str] = field(default_factory=dict)
    #: rotating redirect targets: path -> list of candidate next URLs; the
    #: server picks a different target per request (Figure 9)
    rotating_redirects: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class Site:
    """A host in the synthetic web with its pages and resources."""

    host: str
    category: ContentCategory
    truth: GroundTruth
    pages: Dict[str, Page] = field(default_factory=dict)
    resources: Dict[str, Resource] = field(default_factory=dict)
    behavior: ServerBehavior = field(default_factory=ServerBehavior)
    #: relative popularity inside an exchange's rotation (campaign boosts)
    weight: float = 1.0

    @property
    def malicious(self) -> bool:
        return self.truth.malicious

    @property
    def family(self) -> Optional[MalwareFamily]:
        return self.truth.family

    def add_page(self, page: Page) -> Page:
        self.pages[page.path] = page
        return page

    def add_resource(self, resource: Resource) -> Resource:
        self.resources[resource.path] = resource
        return resource

    def url(self, path: str = "/", scheme: str = "http") -> str:
        if not path.startswith("/"):
            path = "/" + path
        return "%s://%s%s" % (scheme, self.host, path)

    def lookup(self, path: str) -> Tuple[Optional[Page], Optional[Resource]]:
        """Find what is served at ``path`` (page first, then resource)."""
        page = self.pages.get(path)
        if page is None and path in ("", "/"):
            # root falls back to the first page (sites always have one)
            if self.pages:
                page = next(iter(self.pages.values()))
        return page, self.resources.get(path)
