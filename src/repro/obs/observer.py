"""The run observer: one object the pipeline threads everywhere.

Bundles a :class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.tracing.Tracer`, and an
:class:`~repro.obs.events.EventLog` on one shared clock, behind thin
convenience methods so instrumentation sites stay one-liners::

    if self.observer is not None:
        self.observer.count("crawl.steps", exchange=name)

``None`` is the disabled state: every hook in the pipeline guards with
a plain attribute test, so an unobserved run does no obs work at all.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import ContextManager, Optional

from .clock import Clock, SimClock
from .events import EventLog
from .metrics import MetricsRegistry
from .profile import WorkProfiler
from .tracing import Tracer

__all__ = ["RunObserver"]

#: shared reusable no-op context for the profiler-disabled ``frame`` path —
#: allocating nothing keeps the disabled profiler at one ``is None`` test
_NULL_FRAME: ContextManager[None] = nullcontext()


class RunObserver:
    """Metrics + tracing + events on a single clock.

    The registries are deliberately lock-free (a crawl-loop increment is
    one dict lookup plus a float add), which makes the observer
    **single-threaded by contract**: on the parallel scanexec path,
    worker threads write to a per-shard
    :class:`~repro.phasexec.recording.RecordingObserver` and the
    executor replays the buffers on the main thread.  ``thread_guard``
    (on by default) enforces the contract — the observer binds to the
    first thread that mutates it and raises on any other thread instead
    of silently corrupting counters.
    """

    def __init__(self, clock: Optional[Clock] = None, max_spans: int = 10_000,
                 event_capacity: int = 2048, thread_guard: bool = True,
                 profile: bool = False) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock, max_spans=max_spans)
        self.events = EventLog(capacity=event_capacity, clock=self.clock)
        self.thread_guard = thread_guard
        #: work-accounting profiler; ``None`` unless ``profile=True``, and
        #: every hook below degrades to a single ``is None`` test when off
        self.profiler: Optional[WorkProfiler] = WorkProfiler() if profile else None
        #: live telemetry (repro.obs.live.LiveTelemetry) when attached;
        #: ``None`` keeps heartbeat() a single attribute test
        self.live: Optional[object] = None
        #: the owning thread id, bound lazily on first mutation (not at
        #: construction, so building the observer on a setup thread and
        #: running the pipeline elsewhere stays legal)
        self._owner_thread: Optional[int] = None

    def __bool__(self) -> bool:
        return True

    def _check_thread(self) -> None:
        if not self.thread_guard:
            return
        ident = threading.get_ident()
        owner = self._owner_thread
        if owner is None:
            self._owner_thread = ident
        elif owner != ident:
            raise RuntimeError(
                "RunObserver is single-threaded (lock-free registries): it is "
                "owned by thread %d but was mutated from thread %d. On worker "
                "threads, buffer telemetry in a repro.scanexec.RecordingObserver "
                "and replay it after the join; or pass thread_guard=False to "
                "accept lost updates." % (owner, ident))

    # -- metrics conveniences ------------------------------------------------
    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        self._check_thread()
        self.metrics.counter(name, **labels).inc(amount)

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        self._check_thread()
        self.metrics.gauge(name, **labels).set(value)

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        self._check_thread()
        self.metrics.gauge(name, **labels).set_max(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self._check_thread()
        self.metrics.histogram(name, **labels).observe(value)

    def heartbeat(self, phase: str, **fields: object) -> None:
        """Forward a progress beat to the attached live telemetry, if any."""
        self._check_thread()
        live = self.live
        if live is not None:
            live.heartbeat(phase, **fields)  # type: ignore[attr-defined]

    # -- tracing / events ----------------------------------------------------
    def span(self, name: str, **attrs: object):
        self._check_thread()
        return self.tracer.span(name, **attrs)

    def event(self, kind: str, **fields: object) -> None:
        self._check_thread()
        self.events.emit(kind, **fields)

    # -- work profiling ------------------------------------------------------
    def work(self, kind: str, amount: float = 1.0) -> None:
        """Attribute ``amount`` work units of ``kind`` to the current frame."""
        if self.profiler is not None:
            self._check_thread()
            self.profiler.add(kind, amount)

    def frame(self, name: str) -> ContextManager[None]:
        """Push a profiler frame for the duration of the ``with`` body."""
        if self.profiler is None:
            return _NULL_FRAME
        self._check_thread()
        return self.profiler.frame(name)

    def frame_push(self, name: str) -> None:
        if self.profiler is not None:
            self._check_thread()
            self.profiler.push(name)

    def frame_pop(self) -> None:
        if self.profiler is not None:
            self._check_thread()
            self.profiler.pop()
