"""Synthetic web substrate.

Replaces the live World Wide Web the paper crawled: URL machinery,
domains and TLD/content-category catalogs, site/page/resource models,
URL shortening services with public hit statistics, and the registry the
HTTP layer serves from.  The populated web is built by
:class:`repro.simweb.generator.WebGenerator` (which plants malware via
:mod:`repro.malware`).
"""

from .categories import (
    BENIGN_CATEGORY_WEIGHTS,
    CATEGORY_TOPICS,
    MALICIOUS_CATEGORY_WEIGHTS,
    ContentCategory,
)
from .naming import NameForge
from .popular import BENIGN_INFRA_DOMAINS, POPULAR_DOMAINS, is_popular_url, is_self_referral
from .registry import WebRegistry
from .shortener import SHORTENER_HOSTS, ShortenerDirectory, ShortenerService, ShortUrlStats
from .site import (
    GroundTruth,
    MalwareFamily,
    Page,
    RedirectHop,
    Resource,
    ServerBehavior,
    Site,
)
from .tlds import BENIGN_TLD_WEIGHTS, MALICIOUS_TLD_WEIGHTS, WeightedChoice
from .url import Url, UrlError, UrlTable, encode_query, parse_query

__all__ = [
    "BENIGN_CATEGORY_WEIGHTS",
    "BENIGN_INFRA_DOMAINS",
    "BENIGN_TLD_WEIGHTS",
    "CATEGORY_TOPICS",
    "ContentCategory",
    "GroundTruth",
    "MALICIOUS_CATEGORY_WEIGHTS",
    "MALICIOUS_TLD_WEIGHTS",
    "MalwareFamily",
    "NameForge",
    "POPULAR_DOMAINS",
    "Page",
    "RedirectHop",
    "Resource",
    "SHORTENER_HOSTS",
    "ServerBehavior",
    "ShortUrlStats",
    "ShortenerDirectory",
    "ShortenerService",
    "Site",
    "Url",
    "UrlError",
    "UrlTable",
    "WebRegistry",
    "WeightedChoice",
    "encode_query",
    "is_popular_url",
    "is_self_referral",
    "parse_query",
]
