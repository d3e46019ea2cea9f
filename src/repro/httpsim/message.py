"""HTTP request/response message types for the simulation layer.

A request carries what the server decides on: its URL, its referrer
(cloaking and shortener accounting) and the client's country (shortener
accounting).  A response carries its status, body, content type and
redirect location; it is frozen, because the client's transaction memo
hands one response to every fetch of the same URL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..simweb.url import Url

__all__ = ["HttpRequest", "HttpResponse"]


@dataclass
class HttpRequest:
    """A simulated HTTP GET."""

    url: Url
    referrer: str = ""
    #: two-letter-ish country of the requesting client (exchanges route
    #: traffic from a diverse IP pool; shortener stats track this)
    country: str = "US"

    @classmethod
    def get(cls, url: Union[str, Url], referrer: str = "",
            country: str = "US") -> "HttpRequest":
        """A GET of ``url``: a string is parsed, a parsed :class:`Url` is
        used as it is (the client hands over the one it looked up)."""
        if not isinstance(url, Url):
            url = Url.parse(url)
        return cls(url, referrer, country)


@dataclass(frozen=True)
class HttpResponse:
    """A simulated HTTP response."""

    status: int
    body: bytes = b""
    content_type: str = "application/octet-stream"
    #: the ``Location`` a redirect names; ``None`` when the response has
    #: none (an empty location still makes a 30x a redirect)
    location: Optional[str] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        return self.location is not None and self.status in (301, 302, 303, 307)

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "HttpResponse":
        return cls(status, markup.encode("utf-8"), "text/html; charset=utf-8")

    @classmethod
    def redirect(cls, location: str, status: int = 302) -> "HttpResponse":
        return cls(status, location=location)

    @classmethod
    def not_found(cls) -> "HttpResponse":
        return cls.html("<html><body><h1>404 Not Found</h1></body></html>", status=404)
