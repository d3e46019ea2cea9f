"""The synthetic web: a registry of every site, resolvable by host.

The HTTP simulation layer (:mod:`repro.httpsim`) serves requests out of
this registry; the exchanges draw their member-site rosters from it; the
analysis layer queries it for ground truth when evaluating detectors.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

from .shortener import ShortenerDirectory
from .site import Site
from .url import Url

__all__ = ["WebRegistry"]


class WebRegistry:
    """All sites and shortening services of the synthetic web."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._sites: Dict[str, Site] = {}
        self.shorteners = ShortenerDirectory(rng or random.Random(0))

    # -- registration -----------------------------------------------------
    def add(self, site: Site) -> Site:
        if site.host in self._sites:
            raise ValueError("host %r already registered" % site.host)
        self._sites[site.host] = site
        return site

    # -- lookup --------------------------------------------------------------
    def site(self, host: str) -> Optional[Site]:
        return self._sites.get(host)

    def __contains__(self, host: str) -> bool:
        return host in self._sites

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[Site]:
        return iter(self._sites.values())

    @property
    def hosts(self) -> List[str]:
        return list(self._sites)

    def sites(self, malicious: Optional[bool] = None) -> List[Site]:
        """All sites, optionally filtered by ground-truth maliciousness."""
        if malicious is None:
            return list(self._sites.values())
        return [s for s in self._sites.values() if s.malicious == malicious]

    # -- ground truth helpers (evaluation/tests only) ------------------------
    def truth_for_url(self, url: Url) -> Optional[bool]:
        """Ground-truth verdict for a URL, or None for unknown hosts.

        A URL is malicious when its page/resource artifact is, or when the
        whole site is (blacklisted hosts poison everything they serve).
        """
        if self.shorteners.is_short_host(url.host):
            return None  # verdict depends on the destination
        site = self._sites.get(url.host)
        if site is None:
            return None
        if site.malicious and site.truth.family is not None and not site.pages:
            return True
        page, resource = site.lookup(url.path)
        if page is not None:
            return page.truth.malicious or site.malicious
        if resource is not None:
            return resource.truth.malicious or site.malicious
        return site.malicious
