"""Bounded structured event log.

A ring buffer of ``{seq, time, kind, **fields}`` dicts — the run's
flight recorder.  Old events are evicted (never an unbounded list: a
scale-0.5 crawl logs ~875k URL instances) and the eviction count is
kept so a report can say how much history was dropped.  Export is
JSON-lines, one event per line, append-friendly.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional

from .clock import Clock, SimClock

__all__ = ["EventLog"]


class EventLog:
    """Fixed-capacity structured event ring buffer."""

    def __init__(self, capacity: int = 2048, clock: Optional[Clock] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock if clock is not None else SimClock()
        self._events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._seq = 0

    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        event: Dict[str, object] = {
            "seq": self._seq,
            "time": self.clock.now(),
            "kind": kind,
        }
        for key, value in fields.items():
            event[key] = value
        self._seq += 1
        self._events.append(event)
        return event

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def total_emitted(self) -> int:
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self._seq - len(self._events)

    def tail(self, n: int = 20) -> List[Dict[str, object]]:
        if n <= 0:
            return []
        return list(self._events)[-n:]

    # -- export --------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(event, sort_keys=True) for event in self._events)
