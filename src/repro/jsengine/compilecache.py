"""Per-source compiled-program cache for the tree-walking interpreter.

Exchange pages are template-generated: the same rotator snippets,
obfuscation stubs, and event-handler bodies recur across thousands of
pages, and before PR 8 the sandbox re-lexed and re-parsed every copy.
``parse()`` is a pure function of its source string, so a pipeline-
scoped :class:`CompileCache` keyed on the source (the dict hashes the
string; equal sources share one entry, colliding hashes still compare
full keys) makes compilation once-per-distinct-script:

* **results are never changed** — a hit returns the same immutable AST
  the miss produced; the interpreter never mutates AST nodes (closures
  capture environments, hoisting writes environments), so sharing one
  ``Program`` across scripts, pages, and shard threads is safe,
* **accounting is preserved** — every call (hit or miss) charges the
  stored token count as ``js.tokens``, exactly what the uncached path
  charged per parse, so work-ledger totals and the perf budget are
  invariant under caching,
* **errors replay** — :class:`~repro.jsengine.parser.ParseError`
  entries keep their token count (lexing succeeded before the parse
  failed, and the uncached path charges for it);
  :class:`~repro.jsengine.lexer.LexError` entries charge nothing,
* **concurrency-invariant** — the lock is held across the compile, so
  the miss count equals the number of distinct sources at any worker
  count and the ``jsengine.cache.*`` counters stay bit-identical
  between serial and sharded runs.

Hits and misses surface both as unlabeled counters and as
``jsengine.cache.hits`` / ``jsengine.cache.misses`` work kinds; the obs
report derives the hit rate from them.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from . import nodes as N
from .lexer import LexError, tokenize
from .parser import ParseError, parse_tokens

__all__ = ["CompileCache"]


class _Entry:
    """One compiled source: the program, its cost, or its failure."""

    __slots__ = ("program", "token_count", "error")

    def __init__(self, program: Optional[N.Program], token_count: int,
                 error: Optional[BaseException]) -> None:
        self.program = program
        self.token_count = token_count
        self.error = error


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
        if entry.error is not None:
            raise entry.error
        return entry.program  # type: ignore[return-value]

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
        try:
            tokens = tokenize(source)
        except LexError as error:
            return _Entry(None, 0, error)
        try:
            return _Entry(parse_tokens(tokens), len(tokens), None)
        except ParseError as error:
            # lexing succeeded: the uncached path charges these tokens
            return _Entry(None, len(tokens), error)
