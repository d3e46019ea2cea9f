"""Auto-surf and manual-surf crawlers.

Section III-A: "For auto-surf exchanges, we login with our account,
start the automatic surf process, and log URL and other page information
directly from the browser as new pages are loaded.  For manual-surf
exchanges, the data collection is manual and slow" — so manual crawls
cover far fewer pages.  Both crawlers register a brand-new account used
only for the crawl.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..exchanges import (
    AutoSurfExchange,
    HumanSolver,
    ManualSurfExchange,
    SessionHandle,
    StepKind,
    TrafficExchange,
)
from .session import BrowserSession
from .storage import RecordKind

__all__ = ["CrawlStats", "ExchangeCrawler"]

_STEP_TO_RECORD_KIND = {
    StepKind.SELF_REFERRAL: RecordKind.SELF_REFERRAL,
    StepKind.POPULAR_REFERRAL: RecordKind.POPULAR_REFERRAL,
    StepKind.MEMBER_SITE: RecordKind.REGULAR,
    StepKind.CAMPAIGN: RecordKind.REGULAR,
}


@dataclass
class CrawlStats:
    """Per-exchange crawl bookkeeping."""

    exchange: str
    steps: int = 0
    self_referrals: int = 0
    popular_referrals: int = 0
    member_visits: int = 0
    campaign_visits: int = 0


class ExchangeCrawler:
    """Drives one exchange with a fresh measurement account."""

    def __init__(
        self,
        exchange: TrafficExchange,
        browser: BrowserSession,
        rng: random.Random,
        account_id: str = "measurement-account",
        observer: Optional[object] = None,
    ) -> None:
        self.exchange = exchange
        self.browser = browser
        self.rng = rng
        self.account_id = account_id
        self._session: Optional[SessionHandle] = None
        #: optional :class:`repro.obs.RunObserver` (None = no-op hooks)
        self.observer = observer

    def login(self) -> SessionHandle:
        """Register the brand-new crawl account and open its session."""
        ip = "10.%d.%d.%d" % (
            self.rng.randrange(256), self.rng.randrange(256), self.rng.randrange(2, 255),
        )
        self.exchange.register_member(self.account_id, ip, country="US")
        session = self.exchange.open_session(self.account_id)
        if session is None:
            raise RuntimeError("exchange refused the crawl session")
        self._session = session
        return session

    def crawl(self, steps: int) -> CrawlStats:
        """Surf ``steps`` pages, logging everything."""
        if self._session is None:
            self.login()
        assert self._session is not None
        stats = CrawlStats(exchange=self.exchange.name)

        if isinstance(self.exchange, ManualSurfExchange):
            iterator = self.exchange.manual_surf(
                self._session, steps, solver=HumanSolver(rng=self.rng)
            )
        elif isinstance(self.exchange, AutoSurfExchange):
            iterator = self.exchange.auto_surf(self._session, steps)
        else:  # pragma: no cover - base class fallback
            iterator = (self.exchange.next_step(self._session) for _ in range(steps))

        for step in iterator:
            stats.steps += 1
            if step.kind == StepKind.SELF_REFERRAL:
                stats.self_referrals += 1
            elif step.kind == StepKind.POPULAR_REFERRAL:
                stats.popular_referrals += 1
            elif step.kind == StepKind.CAMPAIGN:
                stats.campaign_visits += 1
            else:
                stats.member_visits += 1
            self.browser.visit(
                step.url,
                kind=_STEP_TO_RECORD_KIND[step.kind],
                step_index=step.index,
                timestamp=step.timestamp,
            )
        observer = self.observer
        if observer is not None:
            # the per-kind step counts, added once per session: counts
            # are integral, so the sums equal one add per step
            for kind, count in ((StepKind.SELF_REFERRAL, stats.self_referrals),
                                (StepKind.POPULAR_REFERRAL, stats.popular_referrals),
                                (StepKind.MEMBER_SITE, stats.member_visits),
                                (StepKind.CAMPAIGN, stats.campaign_visits)):
                if count:
                    observer.metrics.counter("crawl.steps", exchange=self.exchange.name,
                                             kind=kind).value += count
            observer.event("crawl.exchange.done", exchange=self.exchange.name,
                           steps=stats.steps, member_visits=stats.member_visits,
                           campaign_visits=stats.campaign_visits)
            # one heartbeat per finished exchange: the one crawl-phase
            # point that coincides between the serial loop and the shard
            # replay (which re-advances the clock and merges the shard
            # registry first), so live series stay worker-count-invariant
            heartbeat = getattr(observer, "heartbeat", None)
            if heartbeat is not None:
                heartbeat("crawl", advance=1, exchange=self.exchange.name,
                          steps=stats.steps,
                          campaign_visits=stats.campaign_visits)
        return stats
