"""HTTP request/response message types for the simulation layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..simweb.url import Url

__all__ = ["HttpRequest", "HttpResponse", "STATUS_REASONS"]

STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    301: "Moved Permanently",
    302: "Temporary Redirect",
    303: "See Other",
    307: "Temporary Redirect",
    404: "Not Found",
    410: "Gone",
    500: "Internal Server Error",
    502: "Bad Gateway",
}

_DEFAULT_UA = "Mozilla/5.0 (Windows NT 6.1; rv:38.0) Gecko/20100101 Firefox/38.0"


@dataclass
class HttpRequest:
    """A simulated HTTP request."""

    url: Url
    method: str = "GET"
    headers: Dict[str, str] = field(default_factory=dict)
    #: two-letter-ish country of the requesting client (exchanges route
    #: traffic from a diverse IP pool; shortener stats track this)
    country: str = "US"

    @classmethod
    def get(cls, url: Union[str, Url], referrer: str = "", user_agent: str = _DEFAULT_UA,
            country: str = "US") -> "HttpRequest":
        """A GET of ``url``: a string is parsed, a parsed :class:`Url` is
        used as it is (the client hands over the one it looked up)."""
        headers = {"User-Agent": user_agent}
        if referrer:
            headers["Referer"] = referrer
        if not isinstance(url, Url):
            url = Url.parse(url)
        return cls(url=url, headers=headers, country=country)

    @property
    def referrer(self) -> str:
        return self.headers.get("Referer", "")

    @property
    def user_agent(self) -> str:
        return self.headers.get("User-Agent", "")


@dataclass
class HttpResponse:
    """A simulated HTTP response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: the URL this response was served for (after server-side handling)
    url: Optional[Url] = None

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307) and "Location" in self.headers

    @property
    def location(self) -> str:
        return self.headers.get("Location", "")

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "application/octet-stream")

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")

    @classmethod
    def html(cls, markup: str, status: int = 200, url: Optional[Url] = None) -> "HttpResponse":
        return cls(status=status, headers={"Content-Type": "text/html; charset=utf-8"},
                   body=markup.encode("utf-8"), url=url)

    @classmethod
    def redirect(cls, location: str, status: int = 302, url: Optional[Url] = None) -> "HttpResponse":
        return cls(status=status, headers={"Location": location}, url=url)

    @classmethod
    def not_found(cls, url: Optional[Url] = None) -> "HttpResponse":
        return cls.html("<html><body><h1>404 Not Found</h1></body></html>", status=404, url=url)
