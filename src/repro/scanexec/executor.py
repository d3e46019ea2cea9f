"""The parallel sharded scan executor.

Reproduces the paper's bottleneck phase — scanning every distinct URL
with VirusTotal + Quttera + blacklists — as a batched, fan-out workload
instead of a single-threaded loop.  Since PR 8 the executor is one
implementation of the phase-agnostic
:class:`~repro.phasexec.executor.PhaseExecutor` template; its hooks map
onto the template like so:

1. **prepare** — file submissions (the crawler's saved pages, the
   footnote-1 cloaking mitigation) are pure functions of their bytes
   and parallelise freely; URL submissions fetch through the stateful
   simulated server (rotating redirectors, shortener hit accounting)
   and run here, on an ordered serial lane against the shared service,
   so results match the serial path bit for bit,
2. **shard** — file tasks are sharded by registrable domain
   (:func:`~repro.scanexec.sharding.shard_tasks`), preserving the
   staticjs memoisation locality of same-domain pages,
3. **fan out** — each shard runs on a worker from an injectable pool
   against its own :meth:`~repro.detection.aggregate.UrlVerdictService.shard_clone`,
   buffering telemetry per shard,
4. **merge** — verdict maps are merged in original workload order and
   telemetry buffers replayed in shard-index order, so a parallel run
   is bit-identical to ``workers=1`` for a fixed seed.

Simulated verdicts are deterministic per artifact (:func:`stable_unit`
keying), which is what makes the merge trivially conflict-free.  The
executor also carries a :class:`ScanLatencyModel`: the real services
are API-quota/network bound, and the model prices each submission so
speedup is measured on the quantity a production deployment cares
about — scan-phase makespan with round-trips overlapped across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..detection.aggregate import UrlVerdict, UrlVerdictService
from ..detection.base import stable_unit
from ..phasexec.executor import InlineExecutor, PhaseExecutor
from .recording import RecordingObserver
from .sharding import ScanShard, ScanTask, shard_tasks

__all__ = [
    "ScanLatencyModel",
    "ShardStats",
    "ScanExecution",
    "InlineExecutor",
    "ParallelScanExecutor",
    "SerialScanExecutor",
]


class ScanLatencyModel:
    """Deterministic per-submission cost of the simulated scan services.

    The paper's scan phase was bound by service round-trips (VirusTotal
    API quotas dominate at 306,895 distinct URLs), not local CPU.  The
    model prices each task accordingly: URL submissions cost two
    scanner-side fetches plus the API round-trip; file submissions cost
    an upload priced per KiB on top of the report round-trip.  A ±15%
    jitter keyed on the URL keeps shards from being artificially
    uniform without losing determinism.
    """

    def __init__(self, url_scan_seconds: float = 0.45,
                 file_scan_seconds: float = 0.12,
                 per_kib_seconds: float = 0.004,
                 jitter: float = 0.15) -> None:
        self.url_scan_seconds = url_scan_seconds
        self.file_scan_seconds = file_scan_seconds
        self.per_kib_seconds = per_kib_seconds
        self.jitter = jitter

    def latency(self, task: ScanTask) -> float:
        if task.is_file_scan:
            base = self.file_scan_seconds
            base += self.per_kib_seconds * (len(task.content or b"") / 1024.0)
        else:
            base = self.url_scan_seconds
        spread = 1.0 + self.jitter * (2.0 * stable_unit("scanexec.latency", task.url) - 1.0)
        return base * spread


@dataclass
class ShardStats:
    """Post-run accounting for one shard."""

    index: int
    urls: int
    domains: int
    #: simulated service-seconds this shard kept one worker busy
    busy_seconds: float
    #: the shard's single most expensive task — the first suspect when a
    #: shard dominates the critical path (obs.export reads these)
    slowest_url: str = ""
    slowest_seconds: float = 0.0
    #: worker slot and start offset under deterministic list scheduling,
    #: filled in by the executor; they define the per-shard trace tracks
    worker: int = 0
    start_seconds: float = 0.0


@dataclass
class ScanExecution:
    """Everything one executor run produced."""

    #: merged verdict map in original workload order — bit-identical to
    #: the serial scan loop's dict for the same task list
    verdicts: "dict[str, UrlVerdict]"
    workers: int
    shard_stats: List[ShardStats] = field(default_factory=list)
    file_tasks: int = 0
    url_tasks: int = 0
    #: simulated cost of running the whole workload on one worker
    serial_seconds: float = 0.0
    #: simulated makespan with round-trips overlapped across ``workers``
    parallel_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.parallel_seconds if self.parallel_seconds else 1.0

    @property
    def utilisation(self) -> float:
        """Mean worker busy-fraction over the parallel phase."""
        if not self.parallel_seconds or not self.workers:
            return 1.0
        busy = sum(stats.busy_seconds for stats in self.shard_stats)
        return min(1.0, busy / (self.workers * self.parallel_seconds))


@dataclass
class _ScanPrep:
    """Main-thread state carried from :meth:`prepare` to :meth:`merge`."""

    parallel_tasks: List[ScanTask]
    verdicts_by_url: Dict[str, UrlVerdict]
    serial_lane_seconds: float


class ParallelScanExecutor(PhaseExecutor):
    """Shards the scan workload and fans it out over a worker pool.

    Parameters
    ----------
    workers:
        Worker-pool width; also the divisor for the simulated makespan.
    shards_per_worker:
        Shard granularity.  More shards than workers lets list
        scheduling smooth out uneven domains at a small batching cost.
    pool_factory:
        ``pool_factory(workers)`` must return a context manager with
        ``submit(fn, *args) -> future``; defaults to
        :class:`ThreadPoolExecutor`, with :class:`InlineExecutor` as the
        deterministic in-process alternative.
    latency:
        The :class:`ScanLatencyModel` pricing submissions.
    """

    phase_name = "scan"

    def __init__(self, workers: int = 4, shards_per_worker: int = 2,
                 pool_factory: Optional[Callable[[int], object]] = None,
                 latency: Optional[ScanLatencyModel] = None) -> None:
        super().__init__(workers=workers, shards_per_worker=shards_per_worker,
                         pool_factory=pool_factory)
        self.latency = latency if latency is not None else ScanLatencyModel()

    # ------------------------------------------------------------------
    def execute(self, tasks: Sequence[ScanTask], service: UrlVerdictService,
                observer: Optional[object] = None) -> ScanExecution:
        """Scan ``tasks`` and return the deterministic merged execution.

        ``service`` is the shared verdict service; shards run against
        :meth:`~repro.detection.aggregate.UrlVerdictService.shard_clone`
        of it, and URL submissions (plus everything, when the service
        has ``submit_files=False`` — the cloaking ablation) stay on the
        ordered serial lane of the shared instance.
        """
        return super().execute(tasks, service, observer)

    def shard_label(self, shard: object) -> str:
        domains = sorted(shard.domains)
        if not domains:
            return "shard-%d" % shard.index
        if len(domains) == 1:
            return domains[0]
        return "%s +%d" % (domains[0], len(domains) - 1)

    def shard_units(self, shard: object) -> int:
        return len(shard)

    # -- PhaseExecutor hooks -------------------------------------------------
    def prepare(self, tasks: Sequence[ScanTask], service: UrlVerdictService,
                observer: Optional[object]) -> _ScanPrep:
        submit_files = getattr(service, "submit_files", True)
        parallel_tasks = [t for t in tasks if t.is_file_scan and submit_files]
        serial_tasks = [t for t in tasks if not (t.is_file_scan and submit_files)]

        verdicts_by_url: Dict[str, UrlVerdict] = {}
        serial_lane_seconds = 0.0
        for task in serial_tasks:  # ordered: the simulated server is stateful
            verdicts_by_url[task.url] = self._scan_task(service, task)
            serial_lane_seconds += self.latency.latency(task)
        return _ScanPrep(parallel_tasks=parallel_tasks,
                         verdicts_by_url=verdicts_by_url,
                         serial_lane_seconds=serial_lane_seconds)

    def shard(self, tasks: Sequence[ScanTask], service: UrlVerdictService,
              state: _ScanPrep) -> List[ScanShard]:
        if not state.parallel_tasks:
            return []
        shard_count = max(1, min(len(state.parallel_tasks),
                                 self.workers * self.shards_per_worker))
        return shard_tasks(state.parallel_tasks, shard_count)

    def shard_state(self, shard: ScanShard, buffer: Optional[RecordingObserver],
                    service: UrlVerdictService, state: _ScanPrep) -> UrlVerdictService:
        return service.shard_clone(observer=buffer)

    def run_shard(
        self, shard: ScanShard, clone: UrlVerdictService,
    ) -> Tuple[List[Tuple[str, UrlVerdict]], float, Tuple[str, float]]:
        """One worker invocation: scan a shard's batch back-to-back."""
        results: List[Tuple[str, UrlVerdict]] = []
        busy = 0.0
        slowest_url, slowest_seconds = "", 0.0
        for task in shard.tasks:
            results.append((task.url, self._scan_task(clone, task)))
            seconds = self.latency.latency(task)
            busy += seconds
            if seconds > slowest_seconds:
                slowest_url, slowest_seconds = task.url, seconds
        return results, busy, (slowest_url, slowest_seconds)

    def merge(self, tasks: Sequence[ScanTask], service: UrlVerdictService,
              state: _ScanPrep, shards: List[ScanShard], results: List[object],
              buffers: List[Optional[RecordingObserver]],
              observer: Optional[object]) -> ScanExecution:
        verdicts_by_url = state.verdicts_by_url
        stats: List[ShardStats] = []
        for shard, result, buffer in zip(shards, results, buffers):
            shard_results, busy, slowest = result
            for url, verdict in shard_results:
                verdicts_by_url[url] = verdict
            if buffer is not None:
                buffer.replay(observer)
            slowest_url, slowest_seconds = slowest
            stats.append(ShardStats(index=shard.index, urls=len(shard),
                                    domains=len(shard.domains), busy_seconds=busy,
                                    slowest_url=slowest_url,
                                    slowest_seconds=slowest_seconds))

        execution = ScanExecution(
            # merge in original workload order: the verdict dict is then
            # bit-identical (values *and* iteration order) to serial
            verdicts={task.url: verdicts_by_url[task.url] for task in tasks},
            workers=self.workers,
            shard_stats=stats,
            file_tasks=len(state.parallel_tasks),
            url_tasks=len(tasks) - len(state.parallel_tasks),
            serial_seconds=state.serial_lane_seconds + sum(s.busy_seconds for s in stats),
            parallel_seconds=state.serial_lane_seconds + self.makespan(stats),
        )
        self._emit_metrics(execution, observer)
        return execution

    # ------------------------------------------------------------------
    @staticmethod
    def _scan_task(service: UrlVerdictService, task: ScanTask) -> UrlVerdict:
        if task.is_file_scan:
            return service.verdict(task.url, content=task.content,
                                   content_type=task.content_type,
                                   final_url=task.final_url)
        return service.verdict(task.url)

    def _emit_metrics(self, execution: ScanExecution, observer: Optional[object]) -> None:
        if observer is None:
            return
        observer.count("scanexec.tasks.file", execution.file_tasks)
        observer.count("scanexec.tasks.url", execution.url_tasks)
        observer.count("scanexec.shards", len(execution.shard_stats))
        observer.gauge_set("scanexec.workers", execution.workers)
        # every shard is enqueued before the first completes, so the
        # submission backlog itself is the queue-depth high-water mark
        observer.gauge_max("scanexec.queue.depth", len(execution.shard_stats))
        observer.gauge_set("scanexec.worker.utilisation", execution.utilisation)
        observer.gauge_set("scanexec.serial_seconds", execution.serial_seconds)
        observer.gauge_set("scanexec.parallel_seconds", execution.parallel_seconds)
        observer.gauge_set("scanexec.speedup", execution.speedup)
        for stats in execution.shard_stats:
            observer.observe("scanexec.shard.busy_seconds", stats.busy_seconds)
            observer.observe("scanexec.shard.urls", stats.urls)


class SerialScanExecutor(ParallelScanExecutor):
    """The serial reference: one worker, inline execution, no threads.

    Useful as an explicit ``PipelineOptions(scan_executor=...)`` when a
    caller wants executor accounting (shard stats, simulated makespan)
    with serial semantics.
    """

    def __init__(self, latency: Optional[ScanLatencyModel] = None) -> None:
        super().__init__(workers=1, shards_per_worker=1,
                         pool_factory=InlineExecutor, latency=latency)
