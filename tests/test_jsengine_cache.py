"""Tests for the jsengine CompileCache (PR 8).

The cache must be a pure speed win: identical interpreter results and
``js.interp.steps`` accounting with or without it, misses equal to the
number of distinct sources at any thread count, and compile errors
replayed exactly.
"""

from __future__ import annotations

import threading

import pytest

from repro.jsengine import CompileCache, Interpreter
from repro.jsengine.lexer import LexError
from repro.jsengine.parser import ParseError
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
