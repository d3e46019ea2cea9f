"""The phase-agnostic parallel executor template.

:class:`PhaseExecutor` captures the shape every deterministic fan-out
phase in this repo shares:

1. **prepare** (main thread) — partition the workload, run anything
   that must stay ordered against shared state, snapshot whatever the
   merge step needs,
2. **shard** (main thread) — split the parallelisable remainder along a
   state-isolation boundary (registrable domain for scans, exchange for
   crawls),
3. **fan out** — each shard runs on a worker from an injectable pool
   against shard-confined state built on the main thread, buffering
   telemetry into a :class:`~repro.phasexec.recording.RecordingObserver`,
4. **merge** (main thread) — fold shard results back in original
   workload order and replay telemetry buffers in shard-index order, so
   a parallel run is bit-identical to ``workers=1`` for a fixed seed.

Subclasses fill in the hooks; the template owns pool lifecycle, buffer
allocation, and future collection order.  The contract is parity, not
speed: the default pool is threads, which share the interpreter lock on
this CPU-bound simulation, so whether a width pays off is a wall-clock
question for perfbench's ``parallel`` workload.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple

from .recording import RecordingObserver

__all__ = ["InlineExecutor", "PhaseExecutor"]


class _ImmediateFuture:
    """The result of an :class:`InlineExecutor` submission."""

    def __init__(self, value: object = None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error

    def result(self) -> object:
        if self._error is not None:
            raise self._error
        return self._value


class InlineExecutor:
    """Pool-API-compatible executor that runs submissions inline.

    Injectable stand-in for :class:`ThreadPoolExecutor` when a test
    wants the parallel code path — sharding, per-shard state, buffer
    replay, merge — without any actual threads.
    """

    def __init__(self, max_workers: int = 1) -> None:
        self.max_workers = max_workers
        self.submitted = 0

    def submit(self, fn: Callable, *args: object, **kwargs: object) -> _ImmediateFuture:
        self.submitted += 1
        try:
            return _ImmediateFuture(value=fn(*args, **kwargs))
        except BaseException as error:  # re-raised from .result(), like a real pool
            return _ImmediateFuture(error=error)

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class PhaseExecutor:
    """Template method for a deterministic sharded phase executor.

    Parameters
    ----------
    workers:
        Worker-pool width.
    pool_factory:
        ``pool_factory(workers)`` must return a context manager with
        ``submit(fn, *args) -> future``; defaults to
        :class:`ThreadPoolExecutor`, with :class:`InlineExecutor` as the
        deterministic in-process alternative.
    """

    #: phase label on live-telemetry shard records (subclass override)
    phase_name = "phase"

    def __init__(self, workers: int = 4,
                 pool_factory: Optional[Callable[[int], object]] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1 (got %d)" % workers)
        self.workers = workers
        self.pool_factory = pool_factory

    # -- hooks (subclass responsibility) --------------------------------------
    def prepare(self, workload: object, context: object,
                observer: Optional[object]) -> object:
        """Main-thread setup before sharding; returns opaque state."""
        return None

    def shard(self, workload: object, context: object, state: object) -> List[object]:
        """Split the parallelisable workload into shard descriptors."""
        raise NotImplementedError

    def shard_state(self, shard: object, buffer: Optional[RecordingObserver],
                    context: object, state: object) -> object:
        """Build one shard's confined state (main thread, pre-submit)."""
        return None

    def run_shard(self, shard: object, shard_state: object) -> object:
        """Execute one shard (worker thread; touch only shard state)."""
        raise NotImplementedError

    def merge(self, workload: object, context: object, state: object,
              shards: List[object], results: List[object],
              buffers: List[Optional[RecordingObserver]],
              observer: Optional[object]) -> object:
        """Fold shard results back in order; returns the execution."""
        raise NotImplementedError

    def shard_label(self, shard: object) -> str:
        """Human label for one shard on live-telemetry records."""
        return str(getattr(shard, "index", ""))

    def shard_units(self, shard: object) -> int:
        """Work-unit count for one shard on live-telemetry records."""
        return 0

    # -- the template ---------------------------------------------------------
    def execute(self, workload: object, context: object,
                observer: Optional[object] = None) -> object:
        state = self.prepare(workload, context, observer)
        shards = self.shard(workload, context, state)
        buffers: List[Optional[RecordingObserver]] = []
        jobs = []
        for shard in shards:
            buffer = RecordingObserver() if observer is not None else None
            buffers.append(buffer)
            jobs.append((shard, self.shard_state(shard, buffer, context, state)))
        # shard lifecycle goes straight to live telemetry from the main
        # thread, bracketing the fan-out in index order: the shared clock
        # only advances after the join, so a healthy pool never trips the
        # stall watchdog, while a shard that outlives the run's simulated
        # progress shows up as still-running from its start timestamp
        live = getattr(observer, "live", None)
        if live is not None:
            for position, shard in enumerate(shards):
                live.shard_started(self.phase_name,
                                   index=getattr(shard, "index", position),
                                   label=self.shard_label(shard),
                                   units=self.shard_units(shard))
        results = self._fan_out(jobs)
        if live is not None:
            for position, shard in enumerate(shards):
                live.shard_finished(self.phase_name,
                                    index=getattr(shard, "index", position),
                                    label=self.shard_label(shard))
        return self.merge(workload, context, state, shards, results,
                          buffers, observer)

    def _fan_out(self, jobs: List[Tuple[object, object]]) -> List[object]:
        """Run every job on the pool; results in submission order."""
        if not jobs:
            return []
        factory = self.pool_factory or (lambda n: ThreadPoolExecutor(max_workers=n))
        with factory(self.workers) as pool:
            futures = [pool.submit(self.run_shard, shard, shard_state)
                       for shard, shard_state in jobs]
            return [future.result() for future in futures]
