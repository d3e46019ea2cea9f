"""Scan-executor benchmark: parity of the sharded scan on the study web.

On the standard generated web (session ``study`` fixture, scale 0.05)
the parallel executor at ``workers=4`` must produce a verdict map that
is bit-identical to a one-worker inline run of the same executor
(values *and* iteration order) and to the study's own scan outcome.

File submissions are pure functions of their bytes, so the benchmark
runs the sharded file workload through client-free ``shard_clone``
services — re-running URL submissions would advance the stateful
simulated server other session benchmarks share.
"""

from __future__ import annotations

from repro.phasexec import InlineExecutor
from repro.scanexec import ParallelScanExecutor, build_scan_tasks


def test_scan_executor_parity(benchmark, study, dataset, outcome):
    tasks = [task for task in build_scan_tasks(dataset) if task.is_file_scan]
    assert len(tasks) > 100  # the workload must be big enough to matter
    base = study.pipeline.build_detection()

    serial = ParallelScanExecutor(workers=1, pool_factory=InlineExecutor).execute(
        tasks, base.shard_clone())

    def run_parallel():
        return ParallelScanExecutor(workers=4).execute(tasks, base.shard_clone())

    execution = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    assert execution.workers == 4

    # -- determinism: parallel == serial, bit for bit -------------------
    assert list(execution.verdicts) == list(serial.verdicts)
    assert execution.verdicts == serial.verdicts

    # -- and both match what the real pipeline's scan phase recorded ----
    for url, verdict in execution.verdicts.items():
        assert verdict.malicious == outcome.verdicts[url].malicious
        assert verdict.labels == outcome.verdicts[url].labels
