"""The parallel sharded scan executor.

Reproduces the paper's bottleneck phase — scanning every distinct URL
with VirusTotal + Quttera + blacklists — as a batched, fan-out workload
instead of a single-threaded loop.  The executor is one implementation
of the phase-agnostic :class:`~repro.phasexec.executor.PhaseExecutor`
template; its hooks map onto the template like so:

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

Simulated verdicts are deterministic per artifact (``stable_unit``
keying), which is what makes the merge trivially conflict-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..detection.aggregate import UrlVerdict, UrlVerdictService
from ..phasexec.executor import PhaseExecutor
from ..phasexec.recording import RecordingObserver
from .sharding import ScanShard, ScanTask, scan_task, shard_tasks

__all__ = [
    "ShardStats",
    "ScanExecution",
    "ParallelScanExecutor",
]


@dataclass
class ShardStats:
    """Post-run accounting for one shard."""

    index: int
    urls: int
    domains: int


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


@dataclass
class _ScanPrep:
    """Main-thread state carried from :meth:`prepare` to :meth:`merge`."""

    parallel_tasks: List[ScanTask]
    verdicts_by_url: Dict[str, UrlVerdict]


class ParallelScanExecutor(PhaseExecutor):
    """Shards the scan workload and fans it out over a worker pool.

    Takes :class:`~repro.phasexec.executor.PhaseExecutor`'s ``workers``
    and ``pool_factory``.
    """

    phase_name = "scan"
    #: shard granularity: more shards than workers evens out uneven
    #: domains at a small batching cost
    SHARDS_PER_WORKER = 2

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
        for task in serial_tasks:  # ordered: the simulated server is stateful
            verdicts_by_url[task.url] = scan_task(service, task)
        return _ScanPrep(parallel_tasks=parallel_tasks,
                         verdicts_by_url=verdicts_by_url)

    def shard(self, tasks: Sequence[ScanTask], service: UrlVerdictService,
              state: _ScanPrep) -> List[ScanShard]:
        if not state.parallel_tasks:
            return []
        shard_count = max(1, min(len(state.parallel_tasks),
                                 self.workers * self.SHARDS_PER_WORKER))
        return shard_tasks(state.parallel_tasks, shard_count)

    def shard_state(self, shard: ScanShard, buffer: Optional[RecordingObserver],
                    service: UrlVerdictService, state: _ScanPrep) -> UrlVerdictService:
        return service.shard_clone(observer=buffer)

    def run_shard(self, shard: ScanShard,
                  clone: UrlVerdictService) -> List[Tuple[str, UrlVerdict]]:
        """One worker invocation: scan a shard's batch back-to-back."""
        return [(task.url, scan_task(clone, task)) for task in shard.tasks]

    def merge(self, tasks: Sequence[ScanTask], service: UrlVerdictService,
              state: _ScanPrep, shards: List[ScanShard], results: List[object],
              buffers: List[Optional[RecordingObserver]],
              observer: Optional[object]) -> ScanExecution:
        verdicts_by_url = state.verdicts_by_url
        stats: List[ShardStats] = []
        for shard, shard_results, buffer in zip(shards, results, buffers):
            verdicts_by_url.update(shard_results)
            if buffer is not None:
                buffer.replay(observer)
            stats.append(ShardStats(index=shard.index, urls=len(shard),
                                    domains=len(shard.domains)))

        execution = ScanExecution(
            # merge in original workload order: the verdict dict is then
            # bit-identical (values *and* iteration order) to serial
            verdicts={task.url: verdicts_by_url[task.url] for task in tasks},
            workers=self.workers,
            shard_stats=stats,
            file_tasks=len(state.parallel_tasks),
            url_tasks=len(tasks) - len(state.parallel_tasks),
        )
        self._emit_metrics(execution, observer)
        return execution

    # ------------------------------------------------------------------
    def _emit_metrics(self, execution: ScanExecution, observer: Optional[object]) -> None:
        if observer is None:
            return
        observer.count("scanexec.tasks.file", execution.file_tasks)
        observer.count("scanexec.tasks.url", execution.url_tasks)
        observer.count("scanexec.shards", len(execution.shard_stats))
        observer.gauge_set("scanexec.workers", execution.workers)
        for stats in execution.shard_stats:
            observer.observe("scanexec.shard.urls", stats.urls)

