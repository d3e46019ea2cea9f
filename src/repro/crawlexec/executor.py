"""Exchange-sharded crawl execution on the :class:`PhaseExecutor` template.

See the package docstring for the sharding/merge contract.  The
executor is deliberately conservative: anything that could make the
parallel interleaving observable — a rotation key touched by two
exchanges, a non-simulated clock — triggers a bit-exact serial re-run
instead of an approximate merge.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..crawler.crawlers import CrawlStats, ExchangeCrawler
from ..crawler.session import BrowserSession
from ..crawler.storage import CrawlDataset
from ..httpsim.client import SimHttpClient
from ..httpsim.server import SimHttpServer
from ..obs.clock import SimClock
from ..phasexec.executor import PhaseExecutor
from ..phasexec.recording import RecordingObserver

__all__ = [
    "CrawlExecution",
    "CrawlSpec",
    "ParallelCrawlExecutor",
]


@dataclass
class CrawlSpec:
    """One exchange's surf session, fully determined before any crawling.

    The pipeline pre-draws ``seed`` from its own RNG in exchange order,
    so the serial loop and the executor consume identical draw
    sequences — the per-exchange crawler RNG streams match bit for bit.
    """

    index: int
    name: str
    exchange: object
    host: str
    steps: int
    seed: int


@dataclass
class CrawlExecution:
    """Everything one crawl-executor run produced."""

    stats: "Dict[str, CrawlStats]"
    workers: int
    #: the exchange specs that ran as shards, in exchange order (empty
    #: after the serial fallback)
    shard_stats: List[CrawlSpec] = field(default_factory=list)
    #: True when a shared-state overlap forced the bit-exact serial re-run
    fallback_serial: bool = False


class _ShardHttpServer(SimHttpServer):
    """Shard-confined server front-end over the shared registry.

    Rotation counters start fresh (summed into the main server after
    the conflict check); shortener resolutions are answered from a
    non-mutating peek and logged, so the merge can replay them through
    the shared directory in exchange order — the exact order the serial
    loop would have produced.
    """

    def __init__(self, registry: object, observer: Optional[object] = None) -> None:
        super().__init__(registry, observer=observer)
        #: deferred shortener accounting: (host, slug, referrer_domain, country)
        self.shortener_log: List[Tuple[str, str, str, str]] = []

    def _resolve_short_url(self, host: str, slug: str, referrer_domain: str,
                           country: str) -> Optional[str]:
        self.shortener_log.append((host, slug, referrer_domain, country))
        stats = self.registry.shorteners.service(host).stats(slug)
        return None if stats is None else stats.long_url


@dataclass
class _ShardJob:
    """One shard's confined runtime, built on the main thread."""

    server: _ShardHttpServer
    client: SimHttpClient
    dataset: CrawlDataset
    buffer: Optional[RecordingObserver]


@dataclass
class _ShardResult:
    """What one shard's worker hands back to the merge."""

    stats: CrawlStats
    dataset: CrawlDataset
    server: _ShardHttpServer


@dataclass
class _CrawlPrep:
    """Main-thread state carried from prepare to merge."""

    #: pre-crawl deep copies of every exchange, for the serial fallback
    snapshots: Dict[str, object]
    #: set when the shared clock is not simulated — skip sharding entirely
    force_serial: bool = False


class ParallelCrawlExecutor(PhaseExecutor):
    """Fans exchange surf sessions out over a worker pool.

    ``execute(specs, pipeline, observer)`` takes the pipeline itself as
    the phase context: shards read its registry, and the merge writes
    its dataset, crawl stats, server counters, and shared clock.
    """

    phase_name = "crawl"

    # -- PhaseExecutor hooks -------------------------------------------------
    def execute(self, specs: Sequence[CrawlSpec], pipeline: object,
                observer: Optional[object] = None) -> CrawlExecution:
        """Crawl every spec'd exchange; bit-identical to the serial loop."""
        return super().execute(specs, pipeline, observer)

    def prepare(self, specs: Sequence[CrawlSpec], pipeline: object,
                observer: Optional[object]) -> _CrawlPrep:
        # HAR/span timestamps can only be reconciled on a simulated
        # clock; a wall clock means serial semantics from the start
        force_serial = not isinstance(pipeline.client.clock, SimClock)
        snapshots = {} if force_serial else {
            spec.name: copy.deepcopy(spec.exchange) for spec in specs
        }
        return _CrawlPrep(snapshots=snapshots, force_serial=force_serial)

    def shard_label(self, shard: object) -> str:
        return shard.name

    def shard_units(self, shard: object) -> int:
        return shard.steps

    def shard(self, specs: Sequence[CrawlSpec], pipeline: object,
              state: _CrawlPrep) -> List[CrawlSpec]:
        # one shard per exchange: the exchange is the isolation boundary
        if state.force_serial:
            return []
        return list(specs)

    def shard_state(self, spec: CrawlSpec, buffer: Optional[RecordingObserver],
                    pipeline: object, state: _CrawlPrep) -> _ShardJob:
        server = _ShardHttpServer(pipeline.web.registry, observer=buffer)
        # every shard shares the pipeline's URL table (see UrlTable on
        # why concurrent misses are harmless)
        client = SimHttpClient(server, clock=SimClock(), observer=buffer,
                               url_table=pipeline.url_table)
        return _ShardJob(server=server, client=client,
                         dataset=CrawlDataset(url_table=pipeline.url_table),
                         buffer=buffer)

    def run_shard(self, spec: CrawlSpec, job: _ShardJob) -> _ShardResult:
        """One worker invocation: surf one exchange end to end."""
        browser = BrowserSession(
            client=job.client,
            dataset=job.dataset,
            exchange_name=spec.name,
            exchange_host=spec.host,
            observer=job.buffer,
        )
        crawler = ExchangeCrawler(
            spec.exchange, browser, random.Random(spec.seed),
            account_id="measurement-%s" % spec.name,
            observer=job.buffer,
        )
        stats = crawler.crawl(spec.steps)
        return _ShardResult(stats=stats, dataset=job.dataset,
                            server=job.server)

    def merge(self, specs: Sequence[CrawlSpec], pipeline: object,
              state: _CrawlPrep, shards: List[CrawlSpec],
              results: List[_ShardResult],
              buffers: List[Optional[RecordingObserver]],
              observer: Optional[object]) -> CrawlExecution:
        if state.force_serial or self._rotation_overlap(pipeline, results):
            return self._serial_fallback(specs, pipeline, state, observer)

        clock = pipeline.client.clock
        for spec, result, buffer in zip(shards, results, buffers):
            if observer is not None:
                with observer.span("crawl.exchange", exchange=spec.name,
                                   steps=spec.steps):
                    with observer.frame("exchange:%s" % spec.name):
                        self._merge_shard(pipeline, spec, result, buffer,
                                          observer, clock)
            else:
                self._merge_shard(pipeline, spec, result, None, None, clock)

        execution = CrawlExecution(
            stats=dict(pipeline.crawl_stats),
            workers=self.workers,
            shard_stats=shards,
        )
        self._emit_metrics(execution, observer)
        return execution

    # ------------------------------------------------------------------
    def _merge_shard(self, pipeline: object, spec: CrawlSpec,
                     result: _ShardResult, buffer: Optional[RecordingObserver],
                     observer: Optional[object], clock: SimClock) -> None:
        """Fold one shard back exactly as the serial loop would have.

        Runs inside the exchange's span/frame.  The shared clock is
        *replayed*, not shifted: every crawl-phase advance is the
        client's per-request ``REQUEST_SECONDS``, one per record that
        holds a request, so re-advancing per such record and restamping
        its ``started`` performs the identical float-accumulation
        sequence the serial loop did — offset-adding a shard-local sum
        would round differently in the last ulp.  The telemetry buffer
        replays *after*, so the ``crawl.exchange.done`` event lands on
        the session-end instant.
        """
        pipeline.crawl_stats[spec.name] = result.stats
        for record in result.dataset.records_for(spec.name):
            if record.transaction is not None:
                clock.advance(SimHttpClient.REQUEST_SECONDS)
                record.started = clock.now()
        pipeline.dataset.merge_records(result.dataset)
        # first capture wins across exchanges, in exchange order — the
        # same winner the serial loop picks
        pipeline.dataset.merge_content(result.dataset)
        # server-side accounting continues into the scan phase, so the
        # main server must hold the post-crawl totals
        rotation = pipeline.server._rotation_counters
        for key, count in result.server._rotation_counters.items():
            rotation[key] = rotation.get(key, 0) + count
        # replay deferred shortener accounting through the shared
        # directory (hit counts, referrer/country Counters feeding
        # Table IV insert in exactly the serial order)
        shorteners = pipeline.web.registry.shorteners
        for host, slug, referrer_domain, country in result.server.shortener_log:
            shorteners.service(host).resolve(slug, referrer=referrer_domain,
                                             country=country)
        if buffer is not None:
            buffer.replay(observer)

    def _rotation_overlap(self, pipeline: object,
                          results: List[_ShardResult]) -> bool:
        """True when summing rotation counters would change semantics.

        Each rotating redirector hands out targets round-robin; if two
        exchanges hit the same one, the interleaving matters and only
        the serial loop reproduces it.
        """
        seen: Dict[str, int] = {}
        for result in results:
            for key in result.server._rotation_counters:
                if key in seen or pipeline.server._rotation_counters.get(key):
                    return True
                seen[key] = 1
        return False

    def _serial_fallback(self, specs: Sequence[CrawlSpec], pipeline: object,
                         state: _CrawlPrep,
                         observer: Optional[object]) -> CrawlExecution:
        """Restore pre-crawl state and run the reference serial loop."""
        run_specs = list(specs)
        if not state.force_serial:
            # shards mutated the exchanges (members, credits, campaign
            # cursors, RNG streams); restore the pre-crawl deep copies
            run_specs = [replace(spec, exchange=state.snapshots[spec.name])
                         for spec in specs]
            for spec in run_specs:
                pipeline.exchanges[spec.name] = spec.exchange
        pipeline._crawl_serial(run_specs)
        execution = CrawlExecution(
            stats=dict(pipeline.crawl_stats),
            workers=self.workers,
            fallback_serial=True,
        )
        self._emit_metrics(execution, observer)
        return execution

    def _emit_metrics(self, execution: CrawlExecution,
                      observer: Optional[object]) -> None:
        if observer is None:
            return
        observer.count("crawlexec.shards", len(execution.shard_stats))
        observer.gauge_set("crawlexec.workers", execution.workers)
        if execution.fallback_serial:
            observer.count("crawlexec.fallback.serial")
        for spec in execution.shard_stats:
            observer.observe("crawlexec.shard.steps", spec.steps)

