"""Schema of the committed wall-clock trajectory, ``benchmarks/BENCH_wall.json``.

Each perf change appends one row of perfbench medians, parent → change;
a malformed row would make the trajectory unreadable for the next one.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = json.loads((ROOT / "benchmarks" / "BENCH_wall.json").read_text())["rows"]
WORKLOADS = {entry["name"] for entry in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
METRICS = ("study_s", "peak_rss_mb", "study_wall_s", "contention")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_pair(pair: object) -> None:
    """A metric is null or a ``{"parent", "change"}`` pair of numbers or nulls."""
    if pair is None:
        return
    assert isinstance(pair, dict) and set(pair) == {"parent", "change"}, pair
    for value in pair.values():
        assert value is None or _is_number(value), pair


def test_rows_are_ordered_by_pr():
    numbers = [row["pr"] for row in ROWS]
    assert numbers and all(isinstance(n, int) for n in numbers)
    assert numbers == sorted(set(numbers))


def test_rows_name_their_commits():
    """Only the newest row may lack its commit: it is the change that
    has not landed yet, and the next one fills it in."""
    for row in ROWS:
        assert isinstance(row["parent_commit"], str), row["pr"]
    for row in ROWS[:-1]:
        assert isinstance(row["commit"], str), row["pr"]
    assert ROWS[-1]["commit"] is None or isinstance(ROWS[-1]["commit"], str)


def test_medians_are_numeric_or_null():
    for row in ROWS:
        assert row["workloads"], row["pr"]
        for workload, metrics in row["workloads"].items():
            assert set(metrics) == set(METRICS) | {"pairs"}, (row["pr"], workload)
            for name in METRICS:
                _check_pair(metrics[name])
            pairs = metrics["pairs"]
            assert pairs is None or (isinstance(pairs, int) and pairs > 0)


def test_workload_names_are_known():
    for row in ROWS:
        assert set(row["workloads"]) <= WORKLOADS, row["pr"]
        assert set(row["layers_self_s"] or {}) <= WORKLOADS, row["pr"]


def test_layer_tables_hold_numeric_pairs():
    for row in ROWS:
        for layers in (row["layers_self_s"] or {}).values():
            assert layers, row["pr"]
            for pair in layers.values():
                assert pair is not None
                _check_pair(pair)
