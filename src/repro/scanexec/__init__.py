"""repro.scanexec — the parallel sharded scan executor.

Turns the scan phase (every distinct crawled URL through VirusTotal +
Quttera + blacklists) from a single-threaded loop into a domain-sharded
fan-out over a configurable worker pool, with a deterministic merge
that keeps parallel output bit-identical to the serial path.  See
:mod:`repro.scanexec.executor` for the phase-by-phase design.
"""

from .executor import ParallelScanExecutor, ScanExecution, ShardStats
from .sharding import ScanShard, ScanTask, build_scan_tasks, scan_task, shard_tasks, task_domain

__all__ = [
    "ParallelScanExecutor",
    "ScanExecution",
    "ScanShard",
    "ScanTask",
    "ShardStats",
    "build_scan_tasks",
    "scan_task",
    "shard_tasks",
    "task_domain",
]
