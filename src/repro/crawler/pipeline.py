"""The end-to-end crawl-and-scan pipeline.

Wires the generated web, the HTTP layer, the nine exchanges, the
crawlers, and the detection tools into the measurement the paper ran:

1. build exchange instances from the generated pools, listing member
   sites with weights calibrated so each exchange's true malware
   prevalence matches its Table I profile,
2. schedule paid campaigns (the Figure 3 burst mechanism, plus
   SendSurf's boosted rotation),
3. register measurement accounts and crawl,
4. scan every distinct URL with VirusTotal + Quttera + blacklists,
   submitting the crawler's saved page files (cloaking mitigation).

The pipeline never reads ground truth during measurement; truth is used
only in step 1 (the world-builder arranging prevalence) and by
evaluation utilities.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from ..detection import (
    BlacklistSet,
    QutteraSim,
    UrlVerdict,
    UrlVerdictService,
    VirusTotalSim,
    build_blacklists,
)
from ..exchanges import AutoSurfExchange, ManualSurfExchange, TrafficExchange
from ..exchanges.roster import ExchangeProfile
from ..httpsim import SimHttpClient, SimHttpServer
from ..jsengine import CompileCache
from ..obs.provenance import (
    STAGE_CRAWL,
    STAGE_REDIRECT,
    ProvenanceStore,
    StageRecord,
)
from ..scanexec import ParallelScanExecutor, ScanExecution, build_scan_tasks, scan_task
from ..simweb import ContentCategory, GroundTruth, MalwareFamily, Page, Site
from ..simweb.generator import ExchangePool, GeneratedWeb
from ..simweb.url import UrlError, UrlTable
from .crawlers import CrawlStats, ExchangeCrawler
from .options import PipelineOptions
from .session import BrowserSession
from .storage import CrawlDataset

__all__ = [
    "ScanOutcome",
    "CrawlPipeline",
    "PipelineOptions",
    "workers_from_env",
    "WORKERS_ENV",
]

#: environment override for the default worker count of BOTH phases
#: (crawl shards by exchange, scan shards by domain) — lets CI run the
#: whole suite through the parallel executors without code changes
WORKERS_ENV = "REPRO_WORKERS"

#: live-telemetry scan heartbeat cadence (one beat per N verdicts); the
#: serial loop and the executor merge iterate the same workload order,
#: so the beats coincide at any worker count
_SCAN_HEARTBEAT_EVERY = 64


def workers_from_env() -> int:
    """Default worker count from ``$REPRO_WORKERS`` (1 when unset).

    Raises :class:`ValueError` naming the variable when it is set to
    anything but a positive integer.
    """
    raw = os.environ.get(WORKERS_ENV) or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError("$%s must be a positive integer (got %r)"
                         % (WORKERS_ENV, raw))
    return workers


class ScanOutcome:
    """Everything the scan phase produced.

    Safe to share across threads: the unscanned-query counter sits
    behind a lock, so parallel consumers (report builders, analysis
    passes fanned out over an executor) can query verdicts concurrently
    without losing counts.
    """

    def __init__(self, verdicts: Optional[Dict[str, UrlVerdict]] = None,
                 unscanned_queries: int = 0) -> None:
        self.verdicts: Dict[str, UrlVerdict] = dict(verdicts) if verdicts else {}
        self._unscanned_queries = unscanned_queries
        self._unscanned_by_url: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: the per-URL flight recorder, populated by the pipeline when it
        #: runs with ``record_provenance=True`` (None otherwise)
        self.provenance: Optional[ProvenanceStore] = None

    @property
    def unscanned_queries(self) -> int:
        """How many queries hit a URL the scan phase never saw.

        In a healthy run this stays 0, and a nonzero value means
        "missing verdict", which is *not* the same as "benign".
        """
        return self._unscanned_queries

    def record_unscanned_query(self, url: str) -> None:
        """Explicitly account one query for a never-scanned URL."""
        with self._lock:
            self._unscanned_queries += 1
            self._unscanned_by_url[url] = self._unscanned_by_url.get(url, 0) + 1

    def unscanned_by_url(self) -> Dict[str, int]:
        """Per-URL counts of queries against never-scanned URLs (a copy)."""
        with self._lock:
            return dict(self._unscanned_by_url)

    def unscanned_top(self, n: int = 5) -> List[Tuple[str, int]]:
        """The ``n`` worst never-scanned offenders, most-queried first.

        Ties break alphabetically so the report order is deterministic.
        """
        with self._lock:
            items = sorted(self._unscanned_by_url.items(),
                           key=lambda kv: (-kv[1], kv[0]))
        return items[:n]

    def scanned(self, url: str) -> bool:
        """True when the scan phase produced a verdict for ``url``."""
        return url in self.verdicts

    def is_malicious(self, url: str) -> bool:
        verdict = self.verdicts.get(url)
        if verdict is None:
            # never-scanned is counted, not silently folded into benign
            self.record_unscanned_query(url)
            return False
        return verdict.malicious

    def verdict(self, url: str) -> Optional[UrlVerdict]:
        return self.verdicts.get(url)


class CrawlPipeline:
    """Runs the full measurement."""

    def __init__(self, web: GeneratedWeb,
                 options: Optional[PipelineOptions] = None) -> None:
        if options is None:
            options = PipelineOptions()
        elif not isinstance(options, PipelineOptions):
            raise TypeError("CrawlPipeline options must be a PipelineOptions, not %s"
                            % type(options).__name__)
        #: the resolved configuration value object (never None)
        self.options = options
        self.web = web
        self.rng = random.Random(options.seed)
        #: record a per-URL VerdictProvenance decision chain during the
        #: scan phase (the flight recorder behind `repro explain`); the
        #: resulting store is deterministic and bit-identical across
        #: worker counts for a fixed seed
        self.record_provenance = options.record_provenance
        #: optional JSON-lines sink for the flight recorder: records are
        #: written through (and flushed) as verdicts land, so a crash
        #: mid-scan still leaves every completed chain on disk
        self.provenance_path = options.provenance_path
        if options.provenance_path is not None:
            self.record_provenance = True
        self.provenance_store: Optional[ProvenanceStore] = None
        #: optional per-phase tracemalloc accounting (see repro.obs.profile)
        self.memory_ledger = options.memory_ledger
        #: first crawl record per URL, built at scan start so provenance
        #: chains can be completed (crawl stages prepended) incrementally
        self._first_record: Dict[str, object] = {}
        #: run the repro.staticjs pass before sandboxing and skip dynamic
        #: execution for pages whose every inline script is provably
        #: side-effect-free; set False to force dynamic-only scanning
        self.static_prefilter = options.static_prefilter
        workers = options.workers
        if workers is None:
            workers = workers_from_env()
        elif workers < 1:
            raise ValueError("workers must be >= 1 (got %d)" % workers)
        #: worker count for BOTH phases; 1 keeps the serial reference loops
        self.workers = workers
        #: the scan-phase executor: a ThreadPoolExecutor-backed
        #: ParallelScanExecutor when ``workers > 1``, None (the serial
        #: loop) at ``workers=1``; tests may swap in another executor
        #: before the scan
        self.scan_executor: Optional[ParallelScanExecutor] = None
        #: the crawl-phase executor — same contract as the scan one but
        #: sharding by exchange (see repro.crawlexec)
        self.crawl_executor: Optional[object] = None
        if workers > 1:
            from ..crawlexec.executor import ParallelCrawlExecutor

            self.scan_executor = ParallelScanExecutor(workers=workers)
            self.crawl_executor = ParallelCrawlExecutor(workers=workers)
        #: accounting from the last executor-backed scan (None after a
        #: serial scan) — verdicts, shard stats, task counts
        self.last_scan_execution: Optional[ScanExecution] = None
        #: accounting from the last executor-backed crawl (None after a
        #: serial crawl) — see :class:`repro.crawlexec.CrawlExecution`
        self.last_crawl_execution: Optional[object] = None
        #: opt-in telemetry; with None every hook below is a skipped
        #: attribute test and pipeline outputs are identical to seed
        self.observer = options.observer
        observer = options.observer
        #: streaming telemetry (repro.obs.live) — attached when a status
        #: sink or a watchdog is requested.  It is a pure side channel:
        #: it reads the metric stream at heartbeat instants and writes
        #: only to its own state/sink, so every pipeline output (verdict
        #: map, report, provenance) is bit-identical with it on or off
        self.live = None
        if options.status_path is not None or options.watchdog is not None:
            if observer is None:
                # live telemetry needs the observer's metric stream and
                # clock; observers never change pipeline outputs, so an
                # internal one is safe to create on demand
                from ..obs.observer import RunObserver

                observer = RunObserver()
                self.observer = observer
            from ..obs.live import LiveTelemetry

            self.live = LiveTelemetry(
                clock=observer.clock,
                status_path=options.status_path,
                watchdog=options.watchdog,
            ).attach(observer)
        #: pipeline-scoped parsed-program cache shared by every sandbox
        #: run (and every scan-shard clone): each distinct script source
        #: is tokenized/parsed once, then re-run from the cached AST
        self.compile_cache = CompileCache()
        #: pipeline-scoped ``str → Url`` memo shared by every HTTP client
        #: (crawl shards and scanners too), the browser sessions, the
        #: calibration and the dataset's analysis passes: each distinct
        #: URL string is parsed once per run
        self.url_table = UrlTable()
        self.server = SimHttpServer(web.registry, observer=observer)
        # the client's HAR capture shares the observer's clock so span
        # and HAR timestamps never drift apart
        self.client = SimHttpClient(
            self.server,
            clock=observer.clock if observer is not None else None,
            observer=observer,
            url_table=self.url_table,
        )
        self.dataset = CrawlDataset(url_table=self.url_table)
        self.exchanges: Dict[str, TrafficExchange] = {}
        self.crawl_stats: Dict[str, CrawlStats] = {}
        self.submit_files = options.submit_files
        self.blacklists: Optional[BlacklistSet] = None
        self.verdict_service: Optional[UrlVerdictService] = None
        self._build_exchange_sites()
        self._build_exchanges()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_exchange_sites(self) -> None:
        """Register a homepage site for each exchange (self-referrals)."""
        for pool in self.web.pools.values():
            host = pool.profile.host
            if host in self.web.registry:
                continue
            site = Site(host, ContentCategory.ADVERTISEMENT, GroundTruth(False))
            site.add_page(Page(
                "/", pool.profile.name,
                "<html><head><title>%s</title></head><body><h1>%s</h1>"
                "<p>earn traffic by surfing member sites</p></body></html>"
                % (pool.profile.name, pool.profile.name),
            ))
            self.web.registry.add(site)

    def _build_exchanges(self) -> None:
        for name, pool in self.web.pools.items():
            self.exchanges[name] = self._build_exchange(pool)

    def _build_exchange(self, pool: ExchangePool) -> TrafficExchange:
        prof = pool.profile
        cls = AutoSurfExchange if prof.is_auto else ManualSurfExchange
        exchange = cls(
            name=prof.name,
            host=prof.host,
            rng=random.Random(self.rng.randrange(2**32)),
            min_surf_seconds=prof.min_surf_seconds,
            self_referral_rate=prof.self_referral_rate,
            popular_referral_rate=prof.popular_referral_rate,
            popular_urls=self.web.popular_urls,
            allow_multiple_ips=prof.allow_multiple_ips,
        )
        self._list_pool(exchange, pool)
        return exchange

    # -- calibration ---------------------------------------------------------
    #: estimated probability that the scanners flag the *page URL* of a
    #: malicious member site (the page itself, not its sub-resources).
    #: Sites whose malware lives entirely in a remote script or SWF have
    #: clean-looking pages — the paper's footnote 1 explains the same
    #: asymmetry for cloaked pages.
    _PAGE_DETECTABILITY: Dict[MalwareFamily, float] = {
        MalwareFamily.IFRAME_TINY: 0.97,
        MalwareFamily.IFRAME_INVISIBLE: 0.97,
        MalwareFamily.IFRAME_JS_INJECTED: 0.97,
        MalwareFamily.DECEPTIVE_DOWNLOAD: 0.97,
        MalwareFamily.FINGERPRINTING: 0.90,
        MalwareFamily.BLACKLISTED_HOST: 0.97,
        MalwareFamily.MALICIOUS_JS_FILE: 0.05,
        MalwareFamily.SUSPICIOUS_REDIRECT: 0.10,
        MalwareFamily.MALICIOUS_SHORTENED: 0.95,
        MalwareFamily.MALICIOUS_FLASH: 0.08,
    }

    def _visit_yield(self, site: Site) -> Tuple[float, float]:
        """(urls logged per visit, expected *detected* urls per visit).

        Estimated from the site's own structure — the world-builder's
        calibration step, not part of the measurement.
        """
        page = site.pages.get("/") or (next(iter(site.pages.values())) if site.pages else None)
        total = 1.0
        malicious = 0.0
        if site.malicious and page is not None and page.truth.malicious:
            family = site.truth.family or page.truth.family
            malicious = self._PAGE_DETECTABILITY.get(family, 0.9) if family else 0.9
        if page is None:
            return total, malicious
        for sub in page.subresource_urls:
            parsed = self.url_table.lookup(sub)
            if parsed is None:
                continue
            truth = self.web.registry.truth_for_url(parsed)
            chain_extra = 0.0
            owner = self.web.registry.site(parsed.host)
            if owner is not None and parsed.path in owner.behavior.redirects:
                # redirect chains log every hop; estimate average length
                chain_extra = 2.0
            total += 1.0 + chain_extra
            if truth:
                malicious += (1.0 + chain_extra) * 0.93
        return total, malicious

    def _list_pool(self, exchange: TrafficExchange, pool: ExchangePool) -> None:
        prof = pool.profile
        if not pool.malicious:
            for site in pool.benign:
                exchange.list_site(site.url("/"), weight=1.0, owner_id="member-" + site.host)
            return

        ben_total, ben_urls = 0.0, 0.0
        for site in pool.benign:
            urls, _mal = self._visit_yield(site)
            ben_urls += urls
            ben_total += 1
        mal_total, mal_urls, mal_mal = 0.0, 0.0, 0.0
        for site in pool.malicious:
            urls, mal = self._visit_yield(site)
            mal_urls += urls
            mal_mal += mal
            mal_total += 1
        t_benign = ben_urls / max(ben_total, 1)
        t_mal = mal_urls / max(mal_total, 1)
        m_mal = mal_mal / max(mal_total, 1)

        target = prof.malicious_url_rate
        # solve p (malicious-visit probability among member visits) from
        # target = p*m_mal / (p*t_mal + (1-p)*t_benign)
        denominator = m_mal - target * t_mal + target * t_benign
        p_visit = min(0.95, max(0.01, target * t_benign / max(denominator, 1e-9)))

        campaign_share = prof.campaign_share if self._campaigns_feasible(prof, p_visit) else 0.0
        rotation_p = self._solve_rotation_probability(prof, p_visit, campaign_share)
        # rotation weights: benign sites weight ~1 (mild popularity skew),
        # malicious sites share w_total solving the rotation probability
        benign_weight_total = 0.0
        for site in pool.benign:
            weight = 0.5 + self.rng.random()
            benign_weight_total += weight
            exchange.list_site(site.url("/"), weight=weight, owner_id="member-" + site.host)
        if rotation_p >= 0.999:
            malicious_weight_total = benign_weight_total * 99.0
        else:
            malicious_weight_total = benign_weight_total * rotation_p / max(1e-9, 1.0 - rotation_p)
        #: rare families list at reduced weight — their sites exist on the
        #: exchange (Table IV / Figure 5 need them observed) but a single
        #: one must not claim an outsized slice of a small pool's traffic
        rare_weight = {
            MalwareFamily.MALICIOUS_SHORTENED: 0.35,
            MalwareFamily.MALICIOUS_FLASH: 0.15,
            MalwareFamily.SUSPICIOUS_REDIRECT: 0.5,
        }
        scaled = [
            (site, rare_weight.get(site.truth.family, 1.0) * (0.5 + self.rng.random()))
            for site in pool.malicious
        ]
        scale_norm = malicious_weight_total / max(sum(w for _s, w in scaled), 1e-9)
        for site, weight in scaled:
            exchange.list_site(self._listed_url(site), weight=max(weight * scale_norm, 1e-6),
                               owner_id="member-" + site.host)

        if campaign_share > 0:
            self._schedule_campaigns(exchange, pool, p_visit)

    def _campaign_visit_budget(self, prof: ExchangeProfile, p_visit: float) -> int:
        steps_total = prof.scaled_urls(self.web.config.scale)
        member_fraction = 1.0 - prof.self_referral_rate - prof.popular_referral_rate
        return int(steps_total * member_fraction * p_visit * prof.campaign_share)

    def _campaigns_feasible(self, prof: ExchangeProfile, p_visit: float) -> bool:
        """Bursts need enough volume to schedule meaningful windows."""
        return prof.campaign_share > 0 and self._campaign_visit_budget(prof, p_visit) >= 8

    @staticmethod
    def _solve_rotation_probability(prof: ExchangeProfile, p_visit: float,
                                    campaign_share: float, intensity: float = 0.85) -> float:
        """Rotation malicious-visit probability that, combined with the
        scheduled campaign windows, yields ``p_visit`` overall.

        Campaign windows claim whole steps (including would-be
        self/popular referrals), so the naive ``p*(1-share)`` split
        under-delivers; we solve the balance numerically.
        """
        if campaign_share <= 0:
            return max(0.0, min(0.99, p_visit))
        member_frac = 1.0 - prof.self_referral_rate - prof.popular_referral_rate
        window_frac = min(0.9, p_visit * campaign_share * member_frac / intensity)
        visits_window = intensity + (1.0 - intensity) * member_frac
        lo, hi = 0.0, 0.99
        for _ in range(40):
            rotation = (lo + hi) / 2
            malicious_window = intensity + (1.0 - intensity) * member_frac * rotation
            member_visits = window_frac * visits_window + (1.0 - window_frac) * member_frac
            malicious_visits = (
                window_frac * malicious_window + (1.0 - window_frac) * member_frac * rotation
            )
            if malicious_visits / max(member_visits, 1e-9) < p_visit:
                lo = rotation
            else:
                hi = rotation
        return (lo + hi) / 2

    def _schedule_campaigns(self, exchange: TrafficExchange, pool: ExchangePool,
                            p_visit: float) -> None:
        prof = pool.profile
        if not pool.malicious:
            return
        steps_total = prof.scaled_urls(self.web.config.scale)
        # campaign visits to deliver = share of malicious member visits
        campaign_visits = self._campaign_visit_budget(prof, p_visit)
        if campaign_visits < 8:
            return
        campaign_count = max(2, min(5, campaign_visits // 25))
        visits_each = campaign_visits // campaign_count
        previous_end = 0
        # campaigns push page-level malware (the bursty listings the paper
        # attributes to paid campaigns), not the rare subresource families
        page_families = {
            MalwareFamily.IFRAME_TINY, MalwareFamily.IFRAME_INVISIBLE,
            MalwareFamily.IFRAME_JS_INJECTED, MalwareFamily.DECEPTIVE_DOWNLOAD,
            MalwareFamily.FINGERPRINTING, MalwareFamily.BLACKLISTED_HOST,
        }
        candidates = [s for s in pool.malicious if s.truth.family in page_families]
        if not candidates:
            candidates = pool.malicious
        for index in range(campaign_count):
            target_site = candidates[self.rng.randrange(len(candidates))]
            start = int(steps_total * (index + 0.5 + self.rng.random() * 0.3) / (campaign_count + 1))
            start = max(start, previous_end + 1)  # windows must not overlap
            campaign = exchange.purchase_campaign(
                self._listed_url(target_site),
                visits=max(2, int(visits_each / 1.5)),  # overdelivery restores total
                start_step=start,
                intensity=0.85,
            )
            previous_end = campaign.end_step

    @staticmethod
    def _listed_url(site: Site) -> str:
        """The URL a member lists: the short URL for shortened-family sites."""
        if (
            site.truth.family is MalwareFamily.MALICIOUS_SHORTENED
            and site.truth.detail.startswith("http")
        ):
            return site.truth.detail
        return site.url("/")

    # ------------------------------------------------------------------
    # Crawl
    # ------------------------------------------------------------------
    def crawl(self, scale: Optional[float] = None) -> Dict[str, CrawlStats]:
        """Crawl every exchange at ``scale`` (defaults to web config).

        At ``workers > 1`` the crawl fans out one shard per exchange
        through :class:`repro.crawlexec.ParallelCrawlExecutor`; the
        merge is deterministic, so stats, dataset, HAR logs, and
        telemetry are bit-identical to the serial loop.
        """
        scale = scale if scale is not None else self.web.config.scale
        observer = self.observer
        memory = self.memory_ledger
        specs = self._build_crawl_specs(scale)
        live = self.live
        if live is not None:
            live.run_started(seed=self.options.seed, scale=scale,
                             workers=self.workers)
            live.phase_started("crawl", total_units=len(specs),
                               unit="exchanges")
        with (memory.phase("crawl") if memory is not None else nullcontext()):
            with (observer.frame("crawl") if observer is not None
                  else nullcontext()):
                if self.crawl_executor is not None:
                    self.last_crawl_execution = self.crawl_executor.execute(
                        specs, self, observer=observer)
                else:
                    self._crawl_serial(specs)
        if live is not None:
            live.phase_finished("crawl")
        if memory is not None:
            memory.count_objects("crawl.records", len(self.dataset.records))
            memory.count_objects("crawl.cached_urls", len(self.dataset.content))
            memory.count_objects("simweb.sites", len(self.web.registry))
            memory.count_objects(
                "simweb.pages",
                sum(len(site.pages) for site in self.web.registry))
        return self.crawl_stats

    def _build_crawl_specs(self, scale: float) -> List[object]:
        """One :class:`~repro.crawlexec.CrawlSpec` per exchange.

        Seeds are pre-drawn from the pipeline RNG in exchange order —
        the exact draw sequence the serial loop used to make inline —
        so serial and sharded crawls hand each exchange's crawler the
        same :class:`random.Random` stream.
        """
        from ..crawlexec.executor import CrawlSpec

        specs: List[object] = []
        for index, (name, exchange) in enumerate(self.exchanges.items()):
            prof = self.web.pools[name].profile
            specs.append(CrawlSpec(
                index=index,
                name=name,
                exchange=exchange,
                host=prof.host,
                steps=prof.scaled_urls(scale),
                seed=self.rng.randrange(2**32),
            ))
        return specs

    def _crawl_serial(self, specs: List[object]) -> Dict[str, CrawlStats]:
        """The serial reference loop: one exchange after another on the
        shared client/clock/dataset.  Also the executor's fallback path
        when sharding cannot reproduce the serial interleaving."""
        observer = self.observer
        for spec in specs:
            browser = BrowserSession(
                client=self.client,
                dataset=self.dataset,
                exchange_name=spec.name,
                exchange_host=spec.host,
                observer=observer,
            )
            crawler = ExchangeCrawler(
                spec.exchange, browser, random.Random(spec.seed),
                account_id="measurement-%s" % spec.name,
                observer=observer,
            )
            if observer is not None:
                with observer.span("crawl.exchange", exchange=spec.name,
                                   steps=spec.steps):
                    with observer.frame("exchange:%s" % spec.name):
                        self.crawl_stats[spec.name] = crawler.crawl(spec.steps)
            else:
                self.crawl_stats[spec.name] = crawler.crawl(spec.steps)
        return self.crawl_stats

    # ------------------------------------------------------------------
    # Scan
    # ------------------------------------------------------------------
    def build_detection(self) -> UrlVerdictService:
        """Assemble the detection stack (VT, Quttera, blacklists)."""
        if self.verdict_service is not None:
            return self.verdict_service
        self.blacklists = build_blacklists(
            known_bad_domains=self._registrable_domains(self.web.known_bad_domains),
            benign_domains=self._registrable_domains(self.web.benign_domains),
            rng=random.Random(self.rng.randrange(2**32)),
            guaranteed_multi_listed=self._registrable_domains(self.web.notorious_domains),
        )
        self.verdict_service = UrlVerdictService(
            virustotal=VirusTotalSim(client=SimHttpClient(self.server,
                                                          url_table=self.url_table),
                                     observer=self.observer,
                                     static_prefilter=self.static_prefilter,
                                     compile_cache=self.compile_cache),
            quttera=QutteraSim(client=SimHttpClient(self.server,
                                                    url_table=self.url_table),
                               observer=self.observer,
                               static_prefilter=self.static_prefilter,
                               compile_cache=self.compile_cache),
            blacklists=self.blacklists,
            submit_files=self.submit_files,
            observer=self.observer,
            static_prefilter=self.static_prefilter,
            record_provenance=self.record_provenance,
            compile_cache=self.compile_cache,
            url_table=self.url_table,
        )
        return self.verdict_service

    def _registrable_domains(self, hosts: List[str]) -> List[str]:
        """Each host's registrable domain, read through the URL table
        (the crawl has parsed most of these site roots already)."""
        domains = []
        for host in hosts:
            parsed = self.url_table.lookup("http://%s/" % host)
            if parsed is None:
                raise UrlError("host %r makes no URL" % host)
            domains.append(parsed.registrable_domain)
        return domains

    def scan(self) -> ScanOutcome:
        """Scan every distinct crawled URL once."""
        service = self.build_detection()
        outcome = ScanOutcome()
        observer = self.observer
        memory = self.memory_ledger
        live = self.live
        if live is not None:
            live.phase_started("scan",
                               total_units=len(self.dataset.distinct_urls()),
                               unit="urls")
        if self.record_provenance:
            # open the store (and its optional JSON-lines sink) *before*
            # scanning: verdicts write through as they land, so a raise
            # mid-scan still leaves every completed chain flushed
            self._first_record = {}
            for record in self.dataset.records:
                if record.url not in self._first_record:
                    self._first_record[record.url] = record
            self.provenance_store = ProvenanceStore(path=self.provenance_path)
            outcome.provenance = self.provenance_store
        try:
            with (memory.phase("scan") if memory is not None else nullcontext()):
                if observer is not None:
                    with observer.span("scan",
                                       urls=len(self.dataset.distinct_urls())):
                        with observer.frame("scan"):
                            self._scan_all(service, outcome)
                    observer.event("scan.done", urls=len(outcome.verdicts),
                                   malicious=sum(1 for v in outcome.verdicts.values()
                                                 if v.malicious))
                else:
                    self._scan_all(service, outcome)
            if live is not None:
                live.phase_finished("scan")
                live.run_finished(
                    urls=len(outcome.verdicts),
                    malicious=sum(1 for v in outcome.verdicts.values()
                                  if v.malicious))
        finally:
            if self.provenance_store is not None:
                self.provenance_store.close()
            if live is not None:
                # the status sink must survive a crash mid-scan with every
                # completed record flushed, same contract as provenance
                live.close()
        if memory is not None:
            memory.count_objects("scan.verdicts", len(outcome.verdicts))
            if self.provenance_store is not None:
                memory.count_objects("provenance.records",
                                     len(self.provenance_store))
        return outcome

    def _record_verdict_provenance(self, url: str, verdict: UrlVerdict) -> None:
        """Complete one verdict's chain and write it through the store.

        The scanners recorded the scan-side stages; the crawl-side
        stages (fetch + redirect chain) are prepended from the dataset,
        which both the serial loop and the executor share.  Both paths
        call this in workload order, so the store serializes identically
        at any worker count.
        """
        store = self.provenance_store
        provenance = verdict.provenance
        if store is None or provenance is None:
            return
        record = self._first_record.get(url)
        if record is not None:
            crawl_stages = [StageRecord(
                name=STAGE_CRAWL,
                outcome=record.role,
                # the simulated client charges 50 ms per request
                duration=0.05,
                evidence={
                    "exchange": record.exchange,
                    "kind": record.kind,
                    "role": record.role,
                    "step_index": record.step_index,
                    "timestamp": record.timestamp,
                },
            )]
            if record.redirect_count or (record.final_url
                                         and record.final_url != url):
                crawl_stages.append(StageRecord(
                    name=STAGE_REDIRECT,
                    outcome="followed" if record.redirect_count else "none",
                    duration=0.05 * record.redirect_count,
                    evidence={
                        "hops": record.redirect_count,
                        "final_url": record.final_url,
                    },
                ))
            provenance.stages[:0] = crawl_stages
        store.add(provenance)

    def _scan_all(self, service: UrlVerdictService, outcome: ScanOutcome) -> None:
        """Scan the workload and fold each verdict into ``outcome``.

        The serial loop scans lazily inside the fold; an executor's merge
        is deterministic (original workload order, shard telemetry
        replayed in index order).  Either way verdicts arrive in
        workload order with the same counters landing before each
        heartbeat, so the outcome, every ``scan.*`` counter and the
        status stream are worker-count-invariant (shard records aside).
        """
        observer = self.observer
        live = self.live
        tasks = build_scan_tasks(self.dataset)
        if self.scan_executor is not None:
            execution = self.scan_executor.execute(tasks, service,
                                                   observer=observer)
            self.last_scan_execution = execution
            verdicts = execution.verdicts.items()
        else:
            verdicts = ((task.url, scan_task(service, task)) for task in tasks)
        done = 0
        for url, verdict in verdicts:
            outcome.verdicts[url] = verdict
            self._record_verdict_provenance(url, verdict)
            if observer is not None:
                observer.count("scan.urls")
                observer.count("scan.verdict.malicious" if verdict.malicious
                               else "scan.verdict.benign")
            done += 1
            if live is not None and done % _SCAN_HEARTBEAT_EVERY == 0:
                live.heartbeat("scan", units_done=done)
        if live is not None and done % _SCAN_HEARTBEAT_EVERY:
            live.heartbeat("scan", units_done=done)

    # ------------------------------------------------------------------
    def run(self, scale: Optional[float] = None) -> ScanOutcome:
        """Crawl then scan — the full measurement."""
        self.crawl(scale)
        return self.scan()
