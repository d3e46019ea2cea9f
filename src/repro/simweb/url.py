"""URL parsing, normalization, and manipulation.

The analysis pipeline in the paper operates on raw URL strings logged by
the crawler (via Firebug/NetExport).  This module provides a small,
dependency-free URL type with the operations the pipeline needs:

* parsing and serialization round-trips,
* normalization (case-folding scheme/host, default-port elision),
* query-string access,
* relative reference resolution (``join``),
* registrable-domain extraction (for per-domain statistics, Table II),
* top-level-domain extraction (for Figure 6).

It intentionally implements only the subset of RFC 3986 exercised by the
study; exotic inputs raise :class:`UrlError` rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

__all__ = ["Url", "UrlError", "UrlTable", "parse_query", "encode_query"]

_DEFAULT_PORTS = {"http": 80, "https": 443, "ftp": 21}

# Multi-label public suffixes relevant to the study's data set.  The live
# study used full URLs from the wild; our synthetic web only mints domains
# under these suffixes, so the list is exact for our purposes.
_MULTI_LABEL_SUFFIXES = {
    "co.uk",
    "com.br",
    "com.au",
    "co.in",
    "com.pk",
    "net.ru",
    "org.uk",
    "k12.or.us",
    "blogspot.com.br",
}

_SCHEME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789+-.")
_HEX = "0123456789ABCDEF"


class UrlError(ValueError):
    """Raised when a string cannot be interpreted as a URL."""


def _percent_encode(text: str, safe: str = "") -> str:
    out = []
    for ch in text:
        if ch.isalnum() or ch in "-._~" or ch in safe:
            out.append(ch)
        else:
            for byte in ch.encode("utf-8"):
                out.append("%" + _HEX[byte >> 4] + _HEX[byte & 0xF])
    return "".join(out)


def _percent_decode(text: str) -> str:
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%" and i + 2 < len(text) + 1 and i + 2 <= len(text) - 1 + 1:
            hex_pair = text[i + 1 : i + 3]
            if len(hex_pair) == 2 and all(c in "0123456789abcdefABCDEF" for c in hex_pair):
                out.append(int(hex_pair, 16))
                i += 3
                continue
        if ch == "+":
            out.append(0x20)
        else:
            out.extend(ch.encode("utf-8"))
        i += 1
    return out.decode("utf-8", errors="replace")


def parse_query(query: str) -> List[Tuple[str, str]]:
    """Parse a query string into an ordered list of (key, value) pairs."""
    pairs: List[Tuple[str, str]] = []
    if not query:
        return pairs
    for part in query.split("&"):
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
        else:
            key, value = part, ""
        pairs.append((_percent_decode(key), _percent_decode(value)))
    return pairs


def encode_query(pairs: List[Tuple[str, str]]) -> str:
    """Serialize (key, value) pairs into a query string."""
    return "&".join(
        "%s=%s" % (_percent_encode(k), _percent_encode(v)) if v else _percent_encode(k)
        for k, v in pairs
    )


@dataclass(frozen=True)
class Url:
    """An immutable parsed URL.

    Construct with :meth:`Url.parse` rather than directly; the constructor
    performs no validation.
    """

    scheme: str = "http"
    host: str = ""
    port: Optional[int] = None
    path: str = "/"
    query: str = ""
    fragment: str = ""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, raw: str) -> "Url":
        """Parse an absolute http(s)/ftp URL string.

        Raises :class:`UrlError` for strings without a scheme+authority.
        """
        if not isinstance(raw, str) or not raw.strip():
            raise UrlError("empty URL")
        text = raw.strip()

        scheme, sep, rest = text.partition("://")
        if not sep:
            raise UrlError("URL %r has no scheme" % raw)
        scheme = scheme.lower()
        if not scheme or any(c not in _SCHEME_CHARS for c in scheme):
            raise UrlError("URL %r has an invalid scheme" % raw)

        rest, _, fragment = rest.partition("#")
        rest, _, query = rest.partition("?")

        slash = rest.find("/")
        if slash == -1:
            authority, path = rest, "/"
        else:
            authority, path = rest[:slash], rest[slash:]
        if not authority:
            raise UrlError("URL %r has no host" % raw)
        if "@" in authority:  # drop userinfo; the study never uses it
            authority = authority.rpartition("@")[2]

        host, _, port_text = authority.partition(":")
        host = host.lower().rstrip(".")
        if not host:
            raise UrlError("URL %r has no host" % raw)
        port: Optional[int] = None
        if port_text:
            if not port_text.isdigit():
                raise UrlError("URL %r has a non-numeric port" % raw)
            port = int(port_text)
            if not 0 < port < 65536:
                raise UrlError("URL %r port out of range" % raw)
        return cls(scheme=scheme, host=host, port=port, path=path, query=query, fragment=fragment)

    @classmethod
    def try_parse(cls, raw: str) -> Optional["Url"]:
        """Like :meth:`parse` but returns ``None`` on failure."""
        try:
            return cls.parse(raw)
        except UrlError:
            return None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        out = ["%s://%s" % (self.scheme, self.host)]
        if self.port is not None and self.port != _DEFAULT_PORTS.get(self.scheme):
            out.append(":%d" % self.port)
        out.append(self.path or "/")
        if self.query:
            out.append("?" + self.query)
        if self.fragment:
            out.append("#" + self.fragment)
        return "".join(out)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def effective_port(self) -> int:
        """The port actually used for the connection."""
        if self.port is not None:
            return self.port
        return _DEFAULT_PORTS.get(self.scheme, 80)

    @property
    def origin(self) -> str:
        """scheme://host[:port] — the security origin."""
        port = self.effective_port
        if port == _DEFAULT_PORTS.get(self.scheme):
            return "%s://%s" % (self.scheme, self.host)
        return "%s://%s:%d" % (self.scheme, self.host, port)

    @property
    def tld(self) -> str:
        """The final DNS label (Figure 6 groups malicious URLs by this)."""
        return self.host.rpartition(".")[2]

    @property
    def registrable_domain(self) -> str:
        """The registrable ("pay-level") domain, e.g. ``example.co.uk``.

        Per-domain statistics (Table II) aggregate URLs by this value.
        IP-address hosts are returned unchanged.
        """
        labels = self.host.split(".")
        if len(labels) <= 2 or all(label.isdigit() for label in labels):
            return self.host
        # try longest matching multi-label suffix
        for take in (3, 2):
            if len(labels) > take:
                suffix = ".".join(labels[-take:])
                if suffix in _MULTI_LABEL_SUFFIXES:
                    return ".".join(labels[-(take + 1) :])
        return ".".join(labels[-2:])

    @property
    def query_pairs(self) -> List[Tuple[str, str]]:
        return parse_query(self.query)

    @property
    def query_dict(self) -> Dict[str, str]:
        """Query parameters as a dict (last value wins on duplicates)."""
        return dict(self.query_pairs)

    @property
    def filename(self) -> str:
        """The final path segment, e.g. ``a.swf`` for ``/x/a.swf``."""
        return self.path.rpartition("/")[2]

    @property
    def extension(self) -> str:
        """Lower-cased extension of :attr:`filename` (no dot), or ``""``."""
        name = self.filename
        if "." not in name:
            return ""
        return name.rpartition(".")[2].lower()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def normalized(self) -> "Url":
        """Return a canonical form: no default port, non-empty path."""
        return replace(
            self,
            port=None if self.port == _DEFAULT_PORTS.get(self.scheme) else self.port,
            path=self.path or "/",
            fragment="",
        )

    def join(self, reference: str) -> "Url":
        """Resolve ``reference`` against this URL (subset of RFC 3986 §5)."""
        reference = reference.strip()
        if not reference:
            return replace(self, fragment="")
        if "://" in reference.split("#")[0].split("?")[0]:
            return Url.parse(reference)
        if reference.startswith("//"):
            return Url.parse(self.scheme + ":" + reference)
        ref_path, _, fragment = reference.partition("#")
        ref_path, _, query = ref_path.partition("?")
        if not ref_path:
            return replace(self, query=query or self.query, fragment=fragment)
        if ref_path.startswith("/"):
            merged = ref_path
        else:
            base_dir = self.path.rpartition("/")[0]
            merged = base_dir + "/" + ref_path
        return replace(self, path=_remove_dot_segments(merged), query=query, fragment=fragment)

    def same_site(self, other: "Url") -> bool:
        """True when both URLs share a registrable domain."""
        return self.registrable_domain == other.registrable_domain


class UrlTable:
    """A run's ``str → Url | None`` memo: each distinct string parses once.

    The crawl logs every URL instance, and the HTTP client, the browser
    session, the scanners and the analysis passes all need the parsed
    form of the same few thousand strings — about a hundred times each
    on the standard web.  One table per pipeline (created beside its
    ``CompileCache``) makes :meth:`lookup` a dict hit after the first
    parse.

    * **results are never changed** — a miss stores exactly what
      :meth:`Url.try_parse` returns (``None`` for an invalid string, so
      a bad URL is also tried once), and :class:`Url` is frozen, so
      every reader may share the stored value,
    * **hermetic** — the table lives on the pipeline, never at module
      level: a second pipeline in the same process parses its URLs
      again and computes exactly what the first did,
    * **thread-tolerant without a lock** — crawl shards share their
      pipeline's table; two threads missing on one string at once both
      parse it and store equal frozen values, so the race costs one
      extra parse and changes no result.
    """

    __slots__ = ("_parsed",)

    def __init__(self) -> None:
        self._parsed: Dict[str, Optional[Url]] = {}

    def lookup(self, raw: str) -> Optional[Url]:
        """The parsed form of ``raw``, or ``None`` when it is no URL."""
        try:
            return self._parsed[raw]
        except KeyError:
            parsed = self._parsed[raw] = Url.try_parse(raw)
            return parsed


def _remove_dot_segments(path: str) -> str:
    output: List[str] = []
    for segment in path.split("/"):
        if segment == ".":
            continue
        if segment == "..":
            if len(output) > 1:
                output.pop()
            continue
        output.append(segment)
    if path.endswith(("/.", "/..")):
        output.append("")
    result = "/".join(output)
    if not result.startswith("/"):
        result = "/" + result
    return result
