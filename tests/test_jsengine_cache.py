"""Tests for the jsengine CompileCache (PR 8).

The cache must be a pure speed win: identical interpreter results and
``js.interp.steps`` accounting with or without it, misses equal to the
number of distinct sources at any thread count, and compile errors
replayed exactly.
"""

from __future__ import annotations

import threading

import pytest

from repro.jsengine import CompileCache, Interpreter, compilecache
from repro.jsengine.compilecache import parse_reusing
from repro.jsengine.lexer import LexError
from repro.jsengine.parser import ParseError, parse
from repro.obs import RunObserver

SCRIPTS = [
    "var total = 0; for (var i = 0; i < 10; i++) { total += i; } total;",
    "function f(n) { return n < 2 ? n : f(n - 1) + f(n - 2); } f(9);",
    "var s = 'slum'; s + '-' + s.length;",
]


def _ledger_totals(observer):
    assert observer.profiler is not None
    return observer.profiler.ledger.totals_by_kind()


class TestResultInvariance:
    def test_results_and_steps_identical_with_cache(self):
        plain = [Interpreter().run(src) for src in SCRIPTS]
        cache = CompileCache()
        # run every script twice through one cache: second pass is all hits
        for _ in range(2):
            cached = [Interpreter(compile_cache=cache).run(src)
                      for src in SCRIPTS]
            assert cached == plain
        assert cache.misses == len(SCRIPTS)
        assert cache.hits == len(SCRIPTS)

    def test_interp_steps_accounting_invariant(self):
        def run_all(compile_cache):
            observer = RunObserver(profile=True)
            for src in SCRIPTS:
                Interpreter(observer=observer,
                            compile_cache=compile_cache).run(src)
            return _ledger_totals(observer)

        plain = run_all(None)
        cached = run_all(CompileCache())
        assert cached["js.interp.steps"] == plain["js.interp.steps"]
        assert cached["js.tokens"] == plain["js.tokens"]

    def test_hit_charges_same_tokens_as_miss(self):
        cache = CompileCache()
        observers = [RunObserver(profile=True) for _ in range(2)]
        for observer in observers:
            cache.compile(SCRIPTS[0], observer=observer)
        miss, hit = (_ledger_totals(o) for o in observers)
        assert hit["js.tokens"] == miss["js.tokens"] > 0

    def test_charge_tokens_opt_out(self):
        # the staticjs boundary path never charged js.tokens uncached,
        # so its cache accesses must not start charging them
        cache = CompileCache()
        observer = RunObserver(profile=True)
        cache.compile(SCRIPTS[0], observer=observer, charge_tokens=False)
        totals = _ledger_totals(observer)
        assert "js.tokens" not in totals
        assert totals["jsengine.cache.misses"] == 1

    def test_hit_returns_identical_program(self):
        cache = CompileCache()
        assert cache.compile(SCRIPTS[0]) is cache.compile(SCRIPTS[0])


class TestHitRate:
    def test_high_reuse_workload_exceeds_90_percent(self):
        # the ISSUE's acceptance mechanism: on a workload that re-scans
        # the same scripts (template-generated exchange pages), hits
        # dominate.  30 pages sharing 3 scripts -> 87/90 accesses hit.
        cache = CompileCache()
        for _ in range(30):
            for src in SCRIPTS:
                cache.compile(src)
        assert cache.misses == len(SCRIPTS)
        assert cache.hit_rate > 0.9

    def test_misses_equal_distinct_sources_under_threads(self):
        cache = CompileCache()
        workers = [threading.Thread(
            target=lambda: [cache.compile(src) for src in SCRIPTS * 10])
            for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert cache.misses == len(SCRIPTS)
        assert cache.hits + cache.misses == 4 * 10 * len(SCRIPTS)


class TestErrorReplay:
    def test_parse_error_replays_with_token_charge(self):
        cache = CompileCache()
        observer = RunObserver(profile=True)
        with pytest.raises(ParseError):
            cache.compile("var x = ;", observer=observer)
        first = _ledger_totals(observer)["js.tokens"]
        assert first > 0  # lexing succeeded; the uncached path charges it
        with pytest.raises(ParseError):
            cache.compile("var x = ;", observer=observer)
        assert _ledger_totals(observer)["js.tokens"] == 2 * first
        assert cache.hits == 1 and cache.misses == 1

    def test_lex_error_replays_without_token_charge(self):
        cache = CompileCache()
        observer = RunObserver(profile=True)
        for _ in range(2):
            with pytest.raises(LexError):
                cache.compile("var x = 1 §", observer=observer)
        totals = _ledger_totals(observer)
        assert "js.tokens" not in totals
        assert totals["jsengine.cache.hits"] == 1
        assert totals["jsengine.cache.misses"] == 1


class TestSharedAst:
    """parse_reusing / memo: the reuse-only side of the cache."""

    def test_reuse_never_counts_or_inserts(self):
        cache = CompileCache()
        fresh = parse_reusing(SCRIPTS[0], cache)
        assert len(cache) == 0 and cache.hits == cache.misses == 0
        # so the first counted call is still the miss it would have been
        program = cache.compile(SCRIPTS[0])
        assert cache.misses == 1 and cache.hits == 0
        assert fresh is not program
        assert parse_reusing(SCRIPTS[0], cache) is program
        assert cache.hits == 0 and cache.misses == 1
        assert parse_reusing(SCRIPTS[0]) is not program  # no cache: parse

    def test_reuse_raises_the_stored_error(self):
        cache = CompileCache()
        for source, error in (("var x = ;", ParseError), ('"\\xZZ"', LexError)):
            with pytest.raises(error) as fresh:
                parse(source)
            with pytest.raises(error) as compiled:
                cache.compile(source)
            stored = cache._entries[source].error
            for _ in range(3):
                try:
                    raise KeyError("the reader's own handled exception")
                except KeyError:
                    with pytest.raises(error) as reused:
                        parse_reusing(source, cache)
                assert reused.value is not stored
                assert reused.value is not compiled.value
                for seen in (compiled.value, reused.value):
                    assert str(seen) == str(fresh.value)
                    assert vars(seen) == vars(fresh.value)
            # every read raised a copy: the stored error holds no reader's
            # frames and no exception a reader was handling
            assert stored.__traceback__ is None
            assert stored.__context__ is None and stored.__cause__ is None

    def test_static_report_memoised_on_the_entry(self):
        cache = CompileCache()
        calls = []

        def analyze():
            calls.append(1)
            return object()

        # no entry yet: computed afresh, nothing stored or inserted
        assert cache.memo(SCRIPTS[0], "report", analyze) is not cache.memo(
            SCRIPTS[0], "report", analyze)
        assert len(calls) == 2 and len(cache) == 0
        cache.compile(SCRIPTS[0])
        first = cache.memo(SCRIPTS[0], "report", analyze)
        assert cache.memo(SCRIPTS[0], "report", analyze) is first
        assert len(calls) == 3
        assert cache.hits == 0 and cache.misses == 1

    def test_memo_without_store_reuses_but_keeps_nothing(self):
        cache = CompileCache()
        cache.compile(SCRIPTS[0])
        calls = []

        def build():
            calls.append(1)
            return object()

        # a reader that may not store computes afresh while nothing is stored
        first = cache.memo(SCRIPTS[0], "index", build, store=False)
        assert cache.memo(SCRIPTS[0], "index", build, store=False) is not first
        assert cache._entries[SCRIPTS[0]].index is None
        # and reuses what a storing reader left
        stored = cache.memo(SCRIPTS[0], "index", build)
        assert cache.memo(SCRIPTS[0], "index", build, store=False) is stored
        assert len(calls) == 3
        # each slot is its own value
        assert cache.memo(SCRIPTS[0], "merge", lambda: (1, 0.0, 0.0, 0)) == (1, 0.0, 0.0, 0)
        assert cache._entries[SCRIPTS[0]].report is None

    def test_analyze_script_reads_the_counted_entry(self, monkeypatch):
        from repro.staticjs import absint, rules

        parses = []
        monkeypatch.setattr(compilecache, "parse",
                            lambda source: parses.append(source) or parse(source))
        cache = CompileCache()
        observer = RunObserver(profile=True)
        for _ in range(2):
            rules.analyze_script(SCRIPTS[1], observer=observer, compile_cache=cache)
            absint.interpret_script(SCRIPTS[1], compile_cache=cache)
        # one counted compile per analyze_script call, no other parse
        assert parses == []
        assert cache.misses == 1 and cache.hits == 1
        totals = _ledger_totals(observer)
        assert totals["jsengine.cache.misses"] == 1
        assert "js.tokens" not in totals

    def test_stored_errors_reach_rules_and_absint_as_parsed(self):
        from repro.staticjs import analyze_script, interpret_script

        for source in ("var x = ;", 'var a = "\\xZZ";', "(" * 500 + ")" * 500):
            cache = CompileCache()
            shared = analyze_script(source, compile_cache=cache)
            fresh = analyze_script(source)
            assert shared.parse_failed and fresh.parse_failed
            assert shared.capabilities == fresh.capabilities == ["parse-failure"]
            errors = interpret_script(source, compile_cache=cache).phases[0].errors
            assert errors == interpret_script(source).phases[0].errors
            assert len(errors) == 1 and errors[0].startswith(("ParseError: ", "LexError: "))


class TestHermeticity:
    def test_two_pipelines_compute_the_same_static_reports(self, monkeypatch):
        # a process-global memo made the second pipeline in a process
        # compute (almost) no reports; the pipeline-scoped cache does not
        from repro import MalwareSlumsStudy, StudyConfig
        from repro.crawler import CrawlPipeline, PipelineOptions
        from repro.staticjs import rules

        computed = []
        original = rules._analyze_script_uncached

        def counting(source, depth, compile_cache):
            if depth == 0:
                computed.append(source)
            return original(source, depth, compile_cache)

        monkeypatch.setattr(rules, "_analyze_script_uncached", counting)
        web = MalwareSlumsStudy(StudyConfig(seed=7, scale=0.002)).generate_web()
        counts = []
        for _ in range(2):
            computed.clear()
            # serial: concurrent shards may both compute a first report
            pipeline = CrawlPipeline(web, PipelineOptions(seed=3, workers=1))
            pipeline.run()
            counts.append(len(computed))
            # one report per distinct analyzed source
            assert len(computed) == len(set(computed)) > 20
        assert counts[0] == counts[1]
