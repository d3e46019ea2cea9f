"""Outside-in layer spans for the traced benchmark run.

:meth:`Tracer.install` wraps the public entry point of every layer named
in :data:`TARGETS`, from outside the program: the wrapper replaces the
function on its owner (module or class) *and* every module-level binding
of it in any ``repro.*`` module (``from .parser import parse`` copies
the function into five modules), then :meth:`Tracer.verify` fails if any
module global or class attribute still references an unwrapped target.

Each call records one span: name, start, end, parent span and, under
``UrlVerdictService.verdict``, the index of the URL being scanned.
Every thread keeps its own span stack and buffer (scan and crawl shards
run on pool threads); spans stay in compact arrays until the run ends.
A span's self time is its duration minus that of its wrapped children
on the same thread.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import threading
import types
from array import array
from time import perf_counter_ns, thread_time_ns
from typing import Dict, List, Optional, Tuple

#: (span name, module, attribute path, wrapper kind).  Kinds: ``span``
#: (plain), ``verdict`` (tags child spans with the URL index), ``scan``
#: (builds the URL index), ``fanout`` (records pool width), ``shard``
#: (also records thread CPU time: shards share the interpreter lock, so
#: their wall time includes waiting for it).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("simweb.generate", "repro.simweb.generator", "WebGenerator.build", "span"),
    ("simweb.url_parse", "repro.simweb.url", "Url.parse", "span"),
    ("crawler.setup", "repro.crawler.pipeline", "CrawlPipeline.__init__", "span"),
    ("crawler.crawl", "repro.crawler.pipeline", "CrawlPipeline.crawl", "span"),
    ("crawler.scan", "repro.crawler.pipeline", "CrawlPipeline.scan", "scan"),
    ("httpsim.fetch", "repro.httpsim.client", "SimHttpClient.fetch", "span"),
    ("detection.verdict", "repro.detection.aggregate", "UrlVerdictService.verdict", "verdict"),
    ("detection.analyze", "repro.detection.heuristics", "analyze_content", "span"),
    ("detection.engines", "repro.detection.virustotal", "VirusTotalSim.scan", "span"),
    ("detection.engines", "repro.detection.quttera", "QutteraSim.scan", "span"),
    ("detection.blacklists", "repro.detection.blacklists", "BlacklistSet.hits", "span"),
    ("detection.blacklists", "repro.detection.blacklists", "build_blacklists", "span"),
    ("htmlparse.parse", "repro.htmlparse.parser", "parse", "span"),
    ("jsengine.tokenize", "repro.jsengine.lexer", "tokenize", "span"),
    # parse() and the compile cache's miss path are the two callers of
    # parse_tokens; each lexes first, so their self time is the parser's
    ("jsengine.parse", "repro.jsengine.parser", "parse", "span"),
    ("jsengine.parse", "repro.jsengine.compilecache", "CompileCache._compile", "span"),
    ("jsengine.deobfuscate", "repro.jsengine.deobfuscate", "deobfuscate", "span"),
    ("jsengine.features", "repro.jsengine.features", "extract_features", "span"),
    ("jsengine.sandbox", "repro.jsengine.hostenv", "run_script_in_page", "span"),
    ("staticjs.analyze", "repro.staticjs.rules", "analyze_script", "span"),
    ("staticjs.absint", "repro.staticjs.absint", "interpret_script", "span"),
    ("analysis", "repro.analysis.exchange_stats", "compute_exchange_stats", "span"),
    ("analysis", "repro.analysis.domains", "compute_domain_stats", "span"),
    ("analysis", "repro.analysis.categorize", "categorize_dataset", "span"),
    ("analysis", "repro.analysis.shortener_stats", "compute_shortener_stats", "span"),
    ("analysis", "repro.analysis.timeseries", "compute_timeseries", "span"),
    ("analysis", "repro.analysis.redirects", "example_chain", "span"),
    ("analysis", "repro.analysis.redirects", "redirect_count_distribution", "span"),
    ("analysis", "repro.analysis.tld", "compute_tld_distribution", "span"),
    ("analysis", "repro.analysis.content_categories", "compute_content_categories", "span"),
    ("analysis", "repro.analysis.casestudies", "identify_false_positives", "span"),
    ("analysis", "repro.analysis.exchange_stats", "overall_malicious_fraction", "span"),
    ("analysis", "repro.core.results", "Figure2Data.from_stats", "span"),
    ("crawlexec.execute", "repro.crawlexec.executor", "ParallelCrawlExecutor.execute", "span"),
    ("scanexec.execute", "repro.scanexec.executor", "ParallelScanExecutor.execute", "span"),
    ("phasexec.fan_out", "repro.phasexec.executor", "PhaseExecutor._fan_out", "fanout"),
    ("phasexec.shard", "repro.crawlexec.executor", "ParallelCrawlExecutor.run_shard", "shard"),
    ("phasexec.shard", "repro.scanexec.executor", "ParallelScanExecutor.run_shard", "shard"),
)

#: the root span the child opens around ``MalwareSlumsStudy.run()``
STUDY = "study"
#: spans shorter than this stay out of the Chrome trace file (they are
#: still in every table); ``simweb.url_parse`` alone makes ~455k spans a study
TRACE_MIN_NS = 50_000


class _Buffer:
    """One thread's spans as parallel arrays, plus its open-span stack."""

    def __init__(self, slot: int, thread_name: str) -> None:
        self.slot = slot
        self.thread_name = thread_name
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.urls = array("i")
        self.stack: List[int] = []
        self.url = -1
        #: (local span index) -> thread CPU ns, for shard spans only
        self.cpu: Dict[int, int] = {}
        #: (local span index) -> (slot, index) of a parent on another thread
        self.remote_parent: Dict[int, Tuple[int, int]] = {}


class Tracer:
    """Installs the layer wrappers and turns their spans into metrics."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        #: id(original function) -> (original, wrapper)
        self._wrapped: Dict[int, Tuple[object, object]] = {}
        self.url_index: Dict[str, int] = {}
        #: (slot, index) of the open fan-out span; shards parent to it
        self._fanout: Optional[Tuple[int, int]] = None
        #: (slot, index) of a fan-out span -> pool width
        self.fanout_workers: Dict[Tuple[int, int], int] = {}
        self.study_span: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # recording
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers), threading.current_thread().name)
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _open(self, buf: _Buffer, name_id: int) -> int:
        index = len(buf.names)
        stack = buf.stack
        buf.names.append(name_id)
        buf.parents.append(stack[-1] if stack else -1)
        buf.urls.append(buf.url)
        buf.ends.append(0)
        stack.append(index)
        buf.starts.append(perf_counter_ns())
        return index

    def _close(self, buf: _Buffer, index: int) -> None:
        buf.ends[index] = perf_counter_ns()
        buf.stack.pop()

    def begin_study(self) -> None:
        buf = self._buffer()
        self.study_span = (buf.slot, self._open(buf, self._name_id(STUDY)))

    def end_study(self) -> None:
        assert self.study_span is not None
        self._close(self._buffer(), self.study_span[1])

    # ------------------------------------------------------------------
    # wrappers (kept flat: the plain one runs ~10^6 times per study)
    def _wrap(self, name: str, kind: str, func):
        name_id = self._name_id(name)
        tracer = self
        local = self._local
        clock = perf_counter_ns

        if kind == "span":
            def wrapper(*args, **kwargs):
                try:
                    buf = local.buf
                except AttributeError:
                    buf = tracer._buffer()
                index = len(buf.names)
                stack = buf.stack
                buf.names.append(name_id)
                buf.parents.append(stack[-1] if stack else -1)
                buf.urls.append(buf.url)
                buf.ends.append(0)
                stack.append(index)
                buf.starts.append(clock())
                try:
                    return func(*args, **kwargs)
                finally:
                    buf.ends[index] = clock()
                    stack.pop()

        elif kind == "verdict":
            def wrapper(service, url, *args, **kwargs):
                buf = tracer._buffer()
                outer = buf.url
                buf.url = tracer.url_index.get(url, -1)
                index = tracer._open(buf, name_id)
                try:
                    return func(service, url, *args, **kwargs)
                finally:
                    tracer._close(buf, index)
                    buf.url = outer

        elif kind == "scan":
            def wrapper(pipeline, *args, **kwargs):
                tracer.url_index = {
                    url: i for i, url in enumerate(pipeline.dataset.distinct_urls())}
                buf = tracer._buffer()
                index = tracer._open(buf, name_id)
                try:
                    return func(pipeline, *args, **kwargs)
                finally:
                    tracer._close(buf, index)

        elif kind == "fanout":
            def wrapper(executor, *args, **kwargs):
                buf = tracer._buffer()
                index = tracer._open(buf, name_id)
                outer = tracer._fanout
                tracer._fanout = (buf.slot, index)
                tracer.fanout_workers[(buf.slot, index)] = executor.workers
                try:
                    return func(executor, *args, **kwargs)
                finally:
                    tracer._fanout = outer
                    tracer._close(buf, index)

        elif kind == "shard":
            def wrapper(*args, **kwargs):
                buf = tracer._buffer()
                if not buf.stack and tracer._fanout is not None:
                    buf.remote_parent[len(buf.names)] = tracer._fanout
                index = tracer._open(buf, name_id)
                cpu = thread_time_ns()
                try:
                    return func(*args, **kwargs)
                finally:
                    buf.cpu[index] = thread_time_ns() - cpu
                    tracer._close(buf, index)

        else:
            raise ValueError("unknown wrapper kind %r" % kind)
        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        return wrapper

    # ------------------------------------------------------------------
    # installation
    @staticmethod
    def _repro_modules() -> List[types.ModuleType]:
        return [module for name, module in sorted(sys.modules.items())
                if (name == "repro" or name.startswith("repro."))
                and isinstance(module, types.ModuleType)]

    def install(self) -> None:
        """Wrap every target and rebind every module-level copy of it."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for name, module_name, path, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if id(func) in self._wrapped:
                raise RuntimeError("%s is listed twice in TARGETS" % path)
            wrapper = self._wrap(name, kind, func)
            setattr(owner, attr, type(raw)(wrapper)
                    if isinstance(raw, (classmethod, staticmethod)) else wrapper)
            self._wrapped[id(func)] = (func, wrapper)
        for module in self._repro_modules():
            for key, value in list(vars(module).items()):
                pair = self._wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, key, pair[1])
        self.verify()

    def verify(self) -> None:
        """Fail if a ``repro.*`` global or class attribute still holds a
        target unwrapped (a copy the rebinding pass missed)."""
        def unwrapped(value: object) -> bool:
            if isinstance(value, (classmethod, staticmethod, types.MethodType)):
                value = value.__func__
            pair = self._wrapped.get(id(value))
            return pair is not None and pair[0] is value

        stale = []
        for module in self._repro_modules():
            for key, value in vars(module).items():
                if unwrapped(value):
                    stale.append("%s.%s" % (module.__name__, key))
                if isinstance(value, type) and value.__module__ == module.__name__:
                    stale.extend("%s.%s.%s" % (module.__name__, key, attr)
                                 for attr, member in vars(value).items()
                                 if unwrapped(member))
        if stale:
            raise RuntimeError("unwrapped layer functions: " + ", ".join(stale))

    # ------------------------------------------------------------------
    # analysis
    def spans(self):
        """Yield ``(buf, index, name, start, end, self_ns)`` for every span."""
        for buf in self._buffers:
            count = len(buf.names)
            child_ns = [0] * count
            for index in range(count):
                parent = buf.parents[index]
                if parent >= 0:
                    child_ns[parent] += buf.ends[index] - buf.starts[index]
            for index in range(count):
                start, end = buf.starts[index], buf.ends[index]
                yield (buf, index, self.names[buf.names[index]], start, end,
                       end - start - child_ns[index])

    def layer_table(self, pipeline, distinct_urls: int, contention: float) -> dict:
        """``{"layers": per-layer metrics, "shares": ..., "calls": ...}``.

        Seconds are normalised by the study's ``contention`` factor.
        ``shares`` split all self time inside the study, on every thread,
        by span name: for serial workloads the total is the study wall; at
        ``workers=2`` it also counts shard threads and the main thread's
        wait in ``phasexec.fan_out``.
        """
        calls: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        study_self: Dict[str, int] = {}
        verdict_ns: List[int] = []
        outside_analysis_staticjs = 0
        study_start = self._span_start(self.study_span)
        study_end = self._span_end(self.study_span)
        analysis_id = self._name_ids.get("analysis", -2)
        for buf, index, name, start, end, own in self.spans():
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            if name == "detection.verdict":
                verdict_ns.append(end - start)
            # every span inside the study's interval belongs to it: the
            # study span stays open on the main thread's stack throughout
            if study_start <= start and end <= study_end:
                study_self[name] = study_self.get(name, 0) + own
            if name.startswith("staticjs.") and not _has_ancestor(buf, index, analysis_id):
                outside_analysis_staticjs += 1

        def seconds(name: str) -> float:
            return self_ns.get(name, 0) / 1e9 / contention

        study_wall = study_end - study_start
        busy_ns = sum(sum(buf.cpu.values()) for buf in self._buffers)
        fanout_ns = 0
        skew = 0.0
        for (slot, index), workers in self.fanout_workers.items():
            buf = self._buffers[slot]
            fanout_ns += workers * (buf.ends[index] - buf.starts[index])
            shard_cpu = [cpu for other in self._buffers
                         for local, cpu in other.cpu.items()
                         if other.remote_parent.get(local) == (slot, index)]
            if shard_cpu:
                mean = sum(shard_cpu) / len(shard_cpu)
                skew = max(skew, max(shard_cpu) / mean if mean else 0.0)
        hits, misses = pipeline.compile_cache.hits, pipeline.compile_cache.misses
        verdict_ns.sort()
        metrics = {
            "simweb.generate.self_s": seconds("simweb.generate"),
            "simweb.url_parse.calls": calls.get("simweb.url_parse", 0),
            "simweb.url_parse.self_s": seconds("simweb.url_parse"),
            "crawler.setup.self_s": seconds("crawler.setup"),
            "crawler.crawl.self_s": seconds("crawler.crawl"),
            "crawler.scan.self_s": seconds("crawler.scan"),
            "crawler.records": len(pipeline.dataset.records),
            "httpsim.fetch.calls": calls.get("httpsim.fetch", 0),
            "httpsim.fetch.self_s": seconds("httpsim.fetch"),
            "detection.verdict.calls": calls.get("detection.verdict", 0),
            "detection.verdict.self_s": seconds("detection.verdict"),
            "detection.verdict.p50_ms": _percentile(verdict_ns, 0.50) / 1e6 / contention,
            "detection.verdict.p99_ms": _percentile(verdict_ns, 0.99) / 1e6 / contention,
            "detection.analyze.self_s": seconds("detection.analyze"),
            "detection.engines.self_s": seconds("detection.engines"),
            "detection.blacklists.self_s": seconds("detection.blacklists"),
            "htmlparse.parse.calls": calls.get("htmlparse.parse", 0),
            "htmlparse.parse.self_s": seconds("htmlparse.parse"),
            "htmlparse.parse.per_url": calls.get("htmlparse.parse", 0) / distinct_urls,
            "jsengine.tokenize.calls": calls.get("jsengine.tokenize", 0),
            "jsengine.tokenize.self_s": seconds("jsengine.tokenize"),
            "jsengine.tokenize.per_source": (
                calls.get("jsengine.tokenize", 0) / misses if misses else 0.0),
            "jsengine.parse.self_s": seconds("jsengine.parse"),
            "jsengine.compile_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "jsengine.deobfuscate.self_s": seconds("jsengine.deobfuscate"),
            "jsengine.features.self_s": seconds("jsengine.features"),
            "jsengine.sandbox.calls": calls.get("jsengine.sandbox", 0),
            "jsengine.sandbox.self_s": seconds("jsengine.sandbox"),
            "jsengine.sandbox.per_url": calls.get("jsengine.sandbox", 0) / distinct_urls,
            "staticjs.analyze.calls": calls.get("staticjs.analyze", 0),
            "staticjs.analyze.self_s": seconds("staticjs.analyze"),
            "staticjs.absint.self_s": seconds("staticjs.absint"),
            "staticjs.outside_analysis.spans": outside_analysis_staticjs,
            "analysis.self_s": seconds("analysis"),
            "crawlexec.execute.self_s": seconds("crawlexec.execute"),
            "scanexec.execute.self_s": seconds("scanexec.execute"),
            "phasexec.shard.busy_s": busy_ns / 1e9 / contention,
            "phasexec.utilisation": busy_ns / fanout_ns if fanout_ns else 0.0,
            "phasexec.shard_skew": skew,
            "bench.span_coverage": (
                1.0 - study_self.get(STUDY, 0) / study_wall if study_wall else 0.0),
        }
        total = sum(study_self.values())
        return {"layers": metrics, "calls": calls,
                "shares": {name: own / total for name, own in sorted(study_self.items())}}

    def _span_start(self, ref: Optional[Tuple[int, int]]) -> int:
        return self._buffers[ref[0]].starts[ref[1]] if ref else 0

    def _span_end(self, ref: Optional[Tuple[int, int]]) -> int:
        return self._buffers[ref[0]].ends[ref[1]] if ref else 0

    def write_chrome_trace(self, path: str, table: dict) -> None:
        """Chrome-trace JSON (the ``repro obs-report --trace-out`` shape),
        with the per-layer ``table`` under ``otherData``."""
        origin = min((buf.starts[0] for buf in self._buffers if len(buf.starts)), default=0)
        events: List[dict] = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                               "args": {"name": "perfbench traced study"}}]
        for buf in self._buffers:
            events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": buf.slot,
                           "args": {"name": buf.thread_name}})
        omitted: Dict[str, int] = {}
        for buf, index, name, start, end, own in self.spans():
            if end - start < TRACE_MIN_NS and name != STUDY:
                omitted[name] = omitted.get(name, 0) + 1
                continue
            args = {"span": index, "parent": buf.parents[index], "self_us": own / 1e3}
            if buf.urls[index] >= 0:
                args["url_index"] = buf.urls[index]
            if index in buf.remote_parent:
                args["parent_thread"], args["parent"] = buf.remote_parent[index]
            if index in buf.cpu:
                args["cpu_us"] = buf.cpu[index] / 1e3
            events.append({"name": name, "cat": name.partition(".")[0], "ph": "X",
                           "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                           "pid": 1, "tid": buf.slot, "args": args})
        trace = {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"clock": "perf_counter_ns",
                               "spans": sum(len(buf.names) for buf in self._buffers),
                               "omitted_under_50us": omitted,
                               "layers": table}}
        with open(path, "w") as handle:
            json.dump(trace, handle)


def _has_ancestor(buf: _Buffer, index: int, name_id: int) -> bool:
    index = buf.parents[index]
    while index >= 0:
        if buf.names[index] == name_id:
            return True
        index = buf.parents[index]
    return False


def _percentile(ordered: List[int], q: float) -> float:
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])
