"""Auto-surf exchanges.

Auto-surf services "use automated procedures to browse target websites
without requiring any input from users" — new sites open automatically,
usually in an iframe, after a countdown (Figure 1(a): 10KHits' timer).
Traffic is therefore high-volume, steady, and "gradual and predictable"
(Figure 3(a)'s smooth near-linear curves).
"""

from __future__ import annotations

from typing import Iterator

from .accounts import SessionHandle
from .base import SurfStep, TrafficExchange

__all__ = ["AutoSurfExchange"]


class AutoSurfExchange(TrafficExchange):
    """An exchange that rotates sites automatically."""

    kind = "auto-surf"

    def _surf_seconds(self) -> float:
        # the timer counts down the exact minimum; small jitter for page load
        return self.min_surf_seconds + self.rng.random() * 2.0

    def auto_surf(self, session: SessionHandle, steps: int) -> Iterator[SurfStep]:
        """Yield ``steps`` automatic page views (the crawl's main loop)."""
        for _ in range(steps):
            yield self.next_step(session)
