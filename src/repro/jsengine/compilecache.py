"""Per-source memo of compiled JavaScript and what is derived from it.

Exchange pages are template-generated: the same rotator snippets,
obfuscation stubs, and event-handler bodies recur across thousands of
pages.  ``parse()`` is a pure function of its source string (the
parser's nesting bound makes it independent of the caller's stack), so
a pipeline-scoped :class:`CompileCache` keyed on the source makes the
JS front end once-per-distinct-script.  It is the one per-source memo
on the scan path: the sandbox, the staticjs rules pass, the abstract
interpreter and the feature extractor all read an entry's ``Program``.
Three values derived from the source are stored on its entry too, each
computed on first request through :meth:`CompileCache.memo`:

* ``index`` — the program's :class:`~repro.jsengine.astindex.AstIndex`,
  the one traversal every static consumer iterates,
* ``report`` — the staticjs :class:`~repro.staticjs.report.ScriptReport`,
* ``merge`` — the content heuristics' per-script outputs
  (``repro.detection.heuristics._merge_script_analysis``: deobfuscation
  layers, the obfuscation and injection scores, the eval count).

Exactly two calls *count* — tick ``hits``/``misses`` and the
``jsengine.cache.*`` telemetry, and charge ``js.tokens`` — both through
:meth:`CompileCache.compile`: the sandbox's ``Interpreter._compile`` and
``staticjs.analyze_script``'s top-level call (which passes
``charge_tokens=False``; the uncached static pass never charged tokens).
Everything else goes through :func:`parse_reusing` and
:meth:`CompileCache.memo`, which neither count nor insert: a source the
cache has not compiled is parsed (and analyzed) as an uncached caller
would, so work-ledger totals and the perf budget are invariant under
caching.

* **results are never changed** — a hit returns the same immutable AST
  the miss produced; no consumer mutates AST nodes (closures capture
  environments, hoisting writes environments), so sharing one
  ``Program`` across scripts, pages, consumers and shard threads is safe,
* **accounting is preserved** — every counted call (hit or miss)
  charges the stored token count, exactly what the uncached path
  charged per parse,
* **errors replay** — a stored :class:`~repro.jsengine.parser.ParseError`
  or :class:`~repro.jsengine.lexer.LexError` is raised to every reader
  as its own parse would have raised it, as a new copy (a raised
  exception keeps the frames of the reader that caught it, so the
  stored one is never raised and holds no frames); ParseError entries
  keep their token count (lexing succeeded before the parse failed, and
  the uncached path charges for it), LexError entries charge nothing,
* **concurrency-invariant** — the lock is held across the compile, so
  the miss count equals the number of distinct sources at any worker
  count and the ``jsengine.cache.*`` counters stay bit-identical
  between serial and sharded runs.

Hits and misses surface both as unlabeled counters and as
``jsengine.cache.hits`` / ``jsengine.cache.misses`` work kinds; the obs
report derives the hit rate from them.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, Dict, Optional, TypeVar

from . import nodes as N
from .lexer import LexError, tokenize
from .parser import ParseError, parse, parse_tokens

__all__ = ["CompileCache", "parse_reusing"]

_T = TypeVar("_T")


class _Entry:
    """One compiled source: the program, its cost, or its failure, plus
    the values derived from it (each once, on first request)."""

    __slots__ = ("program", "token_count", "error", "index", "report", "merge")

    def __init__(self, program: Optional[N.Program], token_count: int,
                 error: Optional[BaseException]) -> None:
        self.program = program
        self.token_count = token_count
        self.error = error
        self.index: Any = None
        self.report: Any = None
        self.merge: Any = None

    def result(self) -> N.Program:
        """The program, or a copy of the stored compile error raised."""
        if self.error is not None:
            raise copy.copy(self.error)
        return self.program  # type: ignore[return-value]


class CompileCache:
    """Thread-safe source → compiled ``Program`` cache.

    One instance is scoped to a pipeline run and shared by the scan
    service and every :meth:`shard_clone` of it, so the hit rate (and
    the compile work saved) is the same whether the scan phase runs
    serial or sharded.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def compile(self, source: str, observer: Optional[Any] = None,
                charge_tokens: bool = True) -> N.Program:
        """Return the compiled program for ``source``, caching by source.

        Charges ``js.tokens`` and the ``jsengine.cache.*`` telemetry on
        every call, then re-raises the original compile error for
        sources that never compiled — callers cannot tell a hit from a
        miss except by speed.  Callers whose uncached path never charged
        tokens (the staticjs pre-filter parses without an observer) pass
        ``charge_tokens=False`` so the work ledger stays invariant.
        """
        with self._lock:
            entry, hit = self._lookup(source)
        self._charge(entry, hit, observer, charge_tokens)
        return entry.result()

    def memo(self, source: str, slot: str, compute: Callable[[], _T],
             store: bool = True) -> _T:
        """``source``'s derived value ``slot`` (``"index"``, ``"report"``
        or ``"merge"``), computed by ``compute`` once.

        The value is stored on ``source``'s entry, unless ``store`` is
        off, when a stored value is reused but a new one is not kept.
        Like :func:`parse_reusing`, this neither counts nor inserts: a
        source that was never compiled here gets a fresh, unstored
        value.  Every value is a pure function of the source, and
        callers treat it as immutable; concurrent first requests may
        both run ``compute``, and either result is the value.
        """
        entry = self._entries.get(source)
        if entry is None:
            return compute()
        value = getattr(entry, slot)
        if value is None:
            value = compute()
            if store:
                setattr(entry, slot, value)
        return value

    def _lookup(self, source: str) -> "tuple[_Entry, bool]":
        """Find-or-create the entry for ``source``; caller holds the lock."""
        entry = self._entries.get(source)
        if entry is None:
            entry = self._compile(source)
            self._entries[source] = entry
            self.misses += 1
            return entry, False
        self.hits += 1
        return entry, True

    @staticmethod
    def _charge(entry: _Entry, hit: bool, observer: Optional[Any],
                charge_tokens: bool) -> None:
        if observer is not None:
            if charge_tokens and entry.token_count:
                observer.work("js.tokens", entry.token_count)
            name = "jsengine.cache.hits" if hit else "jsengine.cache.misses"
            observer.count(name)
            observer.work(name, 1)

    @staticmethod
    def _compile(source: str) -> _Entry:
        # stored errors drop their traceback, which would keep this
        # frame (and its token list) alive for the whole run
        try:
            tokens = tokenize(source)
        except LexError as error:
            return _Entry(None, 0, error.with_traceback(None))
        try:
            return _Entry(parse_tokens(tokens), len(tokens), None)
        except ParseError as error:
            # lexing succeeded: the uncached path charges these tokens
            return _Entry(None, len(tokens), error.with_traceback(None))


def parse_reusing(source: str,
                  compile_cache: Optional[CompileCache] = None) -> N.Program:
    """``parse(source)``, reusing ``compile_cache``'s AST for ``source``.

    The lookup neither counts, charges nor inserts, so it never moves
    the ``jsengine.cache.*`` counters or ``js.tokens``, and a later
    counted :meth:`CompileCache.compile` of the same source is still the
    miss it would have been.  A stored compile error is raised as
    ``parse`` raised it; a source the cache has not compiled (or no
    cache) is parsed afresh.
    """
    entry = compile_cache._entries.get(source) if compile_cache is not None else None
    if entry is None:
        return parse(source)
    return entry.result()
