"""Website content categories.

Figure 7 of the paper breaks malicious URLs down by content category as
reported by VirusTotal: business 58.6%, advertisement 21.8%,
entertainment 8.7%, information technology 8.6%, others 2.6%.  The
generator assigns every synthetic site a category; our simulated
VirusTotal reports it back (with a small labeling-noise rate), and the
analysis module rebuilds the histogram.
"""

from __future__ import annotations

import enum
from typing import Dict

from .tlds import WeightedChoice

__all__ = [
    "ContentCategory",
    "MALICIOUS_CATEGORY_WEIGHTS",
    "BENIGN_CATEGORY_WEIGHTS",
    "CATEGORY_TOPICS",
]


class ContentCategory(str, enum.Enum):
    """Content categories used in Figure 7 (plus web infrastructure)."""

    BUSINESS = "business"
    ADVERTISEMENT = "advertisement"
    ENTERTAINMENT = "entertainment"
    INFORMATION_TECHNOLOGY = "information technology"
    NEWS = "news"
    EDUCATION = "education"
    SOCIAL = "social"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Category mix for sites that end up hosting malware (Figure 7 shape).
MALICIOUS_CATEGORY_WEIGHTS: Dict[str, float] = {
    ContentCategory.BUSINESS.value: 58.6,
    ContentCategory.ADVERTISEMENT.value: 21.8,
    ContentCategory.ENTERTAINMENT.value: 8.7,
    ContentCategory.INFORMATION_TECHNOLOGY.value: 8.6,
    ContentCategory.NEWS.value: 1.0,
    ContentCategory.EDUCATION.value: 0.8,
    ContentCategory.SOCIAL.value: 0.8,
}

#: Category mix for the benign remainder of the synthetic web — flatter,
#: as members of traffic exchanges list all kinds of sites.
BENIGN_CATEGORY_WEIGHTS: Dict[str, float] = {
    ContentCategory.BUSINESS.value: 30.0,
    ContentCategory.ADVERTISEMENT.value: 8.0,
    ContentCategory.ENTERTAINMENT.value: 20.0,
    ContentCategory.INFORMATION_TECHNOLOGY.value: 14.0,
    ContentCategory.NEWS.value: 12.0,
    ContentCategory.EDUCATION.value: 8.0,
    ContentCategory.SOCIAL.value: 8.0,
}

#: Topic words for page content generation, per category.  The paper notes
#: the business category "contained URLs pointing to online shopping,
#: online payments, and financial services", entertainment offers "free
#: services, such as URL shorteners, video streaming, games", and IT
#: covers "hosting and free web proxy services".
CATEGORY_TOPICS: Dict[str, tuple] = {
    ContentCategory.BUSINESS.value: (
        "online shopping", "payments", "invoices", "forex trading",
        "insurance quotes", "loans", "credit score", "dropshipping",
    ),
    ContentCategory.ADVERTISEMENT.value: (
        "cpm network", "banner rotation", "ad impressions", "popunder",
        "interstitial", "affiliate offers", "ptc clicks",
    ),
    ContentCategory.ENTERTAINMENT.value: (
        "free streaming", "online games", "movie downloads", "anime",
        "music videos", "celebrity news", "url shortener",
    ),
    ContentCategory.INFORMATION_TECHNOLOGY.value: (
        "free hosting", "web proxy", "vps servers", "seo tools",
        "website templates", "dns tools", "speed test",
    ),
    ContentCategory.NEWS.value: (
        "breaking news", "local headlines", "weather", "politics",
    ),
    ContentCategory.EDUCATION.value: (
        "online courses", "tutorials", "exam preparation", "homework help",
    ),
    ContentCategory.SOCIAL.value: (
        "chat rooms", "forums", "photo sharing", "pen pals",
    ),
}


#: Pre-built samplers (building the cumulative table per call is wasteful
#: when generating tens of thousands of sites).
MALICIOUS_CATEGORY_SAMPLER = WeightedChoice(MALICIOUS_CATEGORY_WEIGHTS)
BENIGN_CATEGORY_SAMPLER = WeightedChoice(BENIGN_CATEGORY_WEIGHTS)
