"""Traffic exchange core engine.

Implements the mechanics common to auto-surf and manual-surf exchanges
(Section II-A): a rotation of member-listed sites with weights, a
minimum surf timer per page, self-referrals (the exchange opening its
own homepage in the surf iframe), popular referrals (pointing surfers at
Google/Facebook/YouTube for bogus content views), paid-campaign windows
that override the rotation, and credit accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .accounts import AccountPolicy, SessionHandle, sample_country
from .campaigns import Campaign, CampaignSchedule
from .economy import CreditLedger, PricingPlan

__all__ = ["ListedSite", "SurfStep", "StepKind", "TrafficExchange"]


class StepKind:
    """What a surf step pointed the member's browser at."""

    SELF_REFERRAL = "self_referral"
    POPULAR_REFERRAL = "popular_referral"
    MEMBER_SITE = "member_site"
    CAMPAIGN = "campaign"


@dataclass
class ListedSite:
    """A member-listed site in the rotation."""

    url: str
    weight: float = 1.0
    owner_id: str = ""


@dataclass
class SurfStep:
    """One delivered page view."""

    index: int
    url: str
    kind: str
    surf_seconds: float
    timestamp: float  # seconds since crawl start


class TrafficExchange:
    """Base class: the rotation engine.

    Subclasses (:class:`AutoSurfExchange`, :class:`ManualSurfExchange`)
    fix the surf modality; the rotation logic lives here.
    """

    kind = "abstract"

    def __init__(
        self,
        name: str,
        host: str,
        rng: random.Random,
        min_surf_seconds: float = 20.0,
        self_referral_rate: float = 0.07,
        popular_referral_rate: float = 0.10,
        popular_urls: Sequence[str] = (),
        pricing: Optional[PricingPlan] = None,
        allow_multiple_ips: bool = False,
    ) -> None:
        self.name = name
        self.host = host
        self.rng = rng
        self.min_surf_seconds = min_surf_seconds
        self.self_referral_rate = self_referral_rate
        self.popular_referral_rate = popular_referral_rate
        self.popular_urls: List[str] = list(popular_urls) or ["http://www.google.com/"]
        self.accounts = AccountPolicy(allow_multiple_ips=allow_multiple_ips)
        self.ledger = CreditLedger(pricing or PricingPlan())
        self.campaigns = CampaignSchedule()
        self.rotation: List[ListedSite] = []
        self._weights_dirty = True
        self._cumulative: List[float] = []
        self._step_counter = 0
        self._clock = 0.0

    # -- rotation management -----------------------------------------------
    @property
    def homepage_url(self) -> str:
        return "http://%s/" % self.host

    def list_site(self, url: str, weight: float = 1.0, owner_id: str = "") -> ListedSite:
        """Add a member's site to the rotation."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        listed = ListedSite(url=url, weight=weight, owner_id=owner_id)
        self.rotation.append(listed)
        self._weights_dirty = True
        return listed

    def purchase_campaign(
        self, target_url: str, visits: int, start_step: Optional[int] = None,
        intensity: float = 0.85,
    ) -> Campaign:
        """Buy a traffic burst for ``target_url`` (Figure 3 bursts)."""
        campaign = Campaign(
            target_url=target_url,
            start_step=self._step_counter if start_step is None else start_step,
            visits_purchased=visits,
            intensity=intensity,
        )
        self.campaigns.add(campaign)
        return campaign

    def _rebuild_weights(self) -> None:
        self._cumulative = []
        total = 0.0
        for listed in self.rotation:
            total += listed.weight
            self._cumulative.append(total)
        self._weights_dirty = False

    def _pick_member_site(self) -> Optional[ListedSite]:
        if not self.rotation:
            return None
        if self._weights_dirty:
            self._rebuild_weights()
        import bisect

        point = self.rng.random() * self._cumulative[-1]
        index = bisect.bisect_right(self._cumulative, point)
        return self.rotation[min(index, len(self.rotation) - 1)]

    # -- surfing -------------------------------------------------------------
    def register_member(self, member_id: str, ip_address: str,
                        country: Optional[str] = None):
        return self.accounts.register(
            member_id, ip_address, country or sample_country(self.rng)
        )

    def open_session(self, member_id: str) -> Optional[SessionHandle]:
        return self.accounts.open_session(member_id)

    def next_step(self, session: SessionHandle) -> SurfStep:
        """Produce the next page view for an open session."""
        index = self._step_counter
        self._step_counter += 1
        surf_seconds = self._surf_seconds()
        self._clock += surf_seconds

        campaign_url = self.campaigns.pick_url(index, self.rng)
        if campaign_url is not None:
            url, kind = campaign_url, StepKind.CAMPAIGN
        else:
            roll = self.rng.random()
            if roll < self.self_referral_rate:
                url, kind = self.homepage_url, StepKind.SELF_REFERRAL
            elif roll < self.self_referral_rate + self.popular_referral_rate:
                url, kind = self.rng.choice(self.popular_urls), StepKind.POPULAR_REFERRAL
            else:
                listed = self._pick_member_site()
                if listed is None:
                    url, kind = self.homepage_url, StepKind.SELF_REFERRAL
                else:
                    url, kind = listed.url, StepKind.MEMBER_SITE
                    if listed.owner_id:
                        self.ledger.charge_visit(listed.owner_id)

        self.ledger.earn_surf(session.member_id, surf_seconds, self.min_surf_seconds)
        return SurfStep(
            index=index, url=url, kind=kind, surf_seconds=surf_seconds, timestamp=self._clock
        )

    def _surf_seconds(self) -> float:
        """Dwell time for one page; subclasses refine."""
        return self.min_surf_seconds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "%s(%r, %d listed)" % (type(self).__name__, self.name, len(self.rotation))
