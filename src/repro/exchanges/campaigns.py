"""Paid traffic campaigns.

Section IV / Figure 3: the bursts of malicious URLs on manual-surf
exchanges "can be explained by paid campaigns of fix durations"; the
authors validated this by purchasing 2,500 visits for $5 and receiving
4,621 visits from 2,685 unique IP addresses in under an hour.  A
:class:`Campaign` is a window (in surf-step index space) during which
the campaign's target dominates the rotation; :class:`CampaignSchedule`
answers "which campaign is active at step N?".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["Campaign", "CampaignSchedule"]


@dataclass
class Campaign:
    """One purchased traffic campaign."""

    target_url: str
    start_step: int
    visits_purchased: int
    #: fraction of rotation slots inside the window the target receives
    intensity: float = 0.85
    #: exchanges over-deliver (the paper got 4,621 visits for 2,500 paid)
    overdelivery: float = 1.5

    @property
    def visits_to_deliver(self) -> int:
        return int(self.visits_purchased * self.overdelivery)

    @property
    def end_step(self) -> int:
        """Exclusive end of the delivery window in surf steps."""
        span = max(1, int(self.visits_to_deliver / max(self.intensity, 1e-9)))
        return self.start_step + span

    def active_at(self, step: int) -> bool:
        return self.start_step <= step < self.end_step


@dataclass
class CampaignSchedule:
    """All campaigns an exchange will deliver, by surf-step windows."""

    campaigns: List[Campaign] = field(default_factory=list)

    def add(self, campaign: Campaign) -> None:
        self.campaigns.append(campaign)
        self.campaigns.sort(key=lambda c: c.start_step)

    def active(self, step: int) -> Optional[Campaign]:
        for campaign in self.campaigns:
            if campaign.active_at(step):
                return campaign
        return None

    def pick_url(self, step: int, rng: random.Random) -> Optional[str]:
        """The campaign URL to serve at ``step``, if a campaign claims it."""
        campaign = self.active(step)
        if campaign is not None and rng.random() < campaign.intensity:
            return campaign.target_url
        return None
