"""Phase-agnostic deterministic fan-out machinery.

``repro.scanexec`` proved out a recipe for making a pipeline phase
parallel *without* giving up bit-reproducibility: shard the
workload along a state-isolation boundary, run each shard on a worker
with thread-confined telemetry, then merge results and replay telemetry
in original workload order on the main thread.  This package hoists the
recipe into one reusable layer so every phase executor — scan
(``repro.scanexec``) and crawl (``repro.crawlexec``) — implements the
same :class:`PhaseExecutor` protocol instead of a bespoke code path:

* :class:`PhaseExecutor` — the template method: ``prepare`` →
  ``shard`` → fan out over an injectable pool → ``merge``,
* :class:`RecordingObserver` — the per-shard telemetry buffer replayed
  in shard-index order (op log plus a real metrics registry for
  handle-resolved counters),
* :class:`InlineExecutor` — the pool-API-compatible inline stand-in for
  deterministic no-thread testing.
"""

from .executor import InlineExecutor, PhaseExecutor
from .recording import RecordingObserver

__all__ = [
    "InlineExecutor",
    "PhaseExecutor",
    "RecordingObserver",
]
