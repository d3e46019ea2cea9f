"""Process-local metrics: counters, gauges, log-bucket histograms.

The registry is deliberately boring: plain Python objects, no locks, no
background threads — a crawl-loop increment is one dict lookup plus one
float add, and when no observer is attached the pipeline never touches
this module at all (the disabled path is an attribute test at the call
site).  Histograms use fixed log-scale buckets so percentile summaries
(p50/p95/p99) cost O(buckets), never O(samples).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_latency_buckets", "default_count_buckets"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    items = [(k, str(v)) for k, v in labels.items()]
    if len(items) > 1:  # single-label calls skip the sort
        items.sort()
    return tuple(items)


def _render_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % kv for kv in labels))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        self.value += amount


class Gauge:
    """A value that can move both ways (plus a high-water helper)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (eval depth, op count, queue peak)."""
        if value > self.value:
            self.value = float(value)


def default_latency_buckets() -> List[float]:
    """Log-scale bounds from 1 ms to ~67 s (doubling): 18 buckets."""
    return [0.001 * (2.0 ** i) for i in range(17)]


def default_count_buckets() -> List[float]:
    """Log-scale bounds from 1 to ~1M (doubling): 21 buckets.

    The right scale for unit-count observations (interpreter steps per
    script, URLs per shard) — latency buckets top out at ~67, pushing
    every real count into the overflow slot and collapsing percentiles.
    """
    return [float(2 ** i) for i in range(21)]


class Histogram:
    """Fixed-bucket histogram with log-scale bounds and percentiles.

    ``bounds[i]`` is the *inclusive upper* edge of bucket ``i``; one
    overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total",
                 "min_value", "max_value", "observations", "_last_value",
                 "_last_index")

    def __init__(self, name: str, bounds: Optional[Iterable[float]] = None,
                 labels: LabelKey = (),
                 record_observations: bool = False) -> None:
        self.name = name
        self.labels = labels
        self.bounds = sorted(bounds) if bounds is not None else default_latency_buckets()
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        #: raw values, kept only in shard-buffer registries so the merge
        #: can *replay* them — re-running the exact float-accumulation
        #: sequence the serial loop would have, instead of adding a
        #: shard-local partial sum whose rounding differs in the last ulp
        self.observations: Optional[List[float]] = [] if record_observations else None
        #: the previous observation and its bucket: a value equal to it
        #: is already within [min, max] and needs no bucket search.  A
        #: simulated fetch lasts (requests x unit cost), so nearly every
        #: fetch-duration observation repeats the one before it; a
        #: wall-clock value misses and pays one comparison
        self._last_value: Optional[float] = None
        self._last_index = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value != self._last_value:
            if value < self.min_value:
                self.min_value = value
            if value > self.max_value:
                self.max_value = value
            # bisect_left on bounds gives the first bound >= value, i.e.
            # the inclusive-upper-edge bucket; values past the last bound
            # land in the overflow slot len(bounds)
            self._last_index = bisect_left(self.bounds, value)
            self._last_value = value
        self.bucket_counts[self._last_index] += 1
        if self.observations is not None:
            self.observations.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate quantile ``q`` in [0, 1] from bucket edges.

        Returns the upper bound of the bucket holding the q-th sample
        (clamped to the observed max) — the standard fixed-bucket
        estimate; exact when samples sit on bucket edges.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                edge = self.bounds[index] if index < len(self.bounds) else self.max_value
                return min(edge, self.max_value)
        return self.max_value

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Creates-on-first-use registry of named, optionally labeled metrics."""

    def __init__(self, record_observations: bool = False) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        #: shard-buffer mode: histograms keep raw values so merge_from
        #: can replay them observation by observation (bit-exact totals)
        self._record_observations = record_observations

    # -- accessors (create on first use) ------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, bounds: Optional[Iterable[float]] = None,
                  **labels: object) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            if bounds is None:
                # repo-wide naming convention: *.seconds histograms hold
                # latencies, everything else holds unit counts
                bounds = (default_latency_buckets() if name.endswith("seconds")
                          else default_count_buckets())
            metric = self._histograms[key] = Histogram(
                name, bounds, key[1],
                record_observations=self._record_observations)
        return metric

    # -- merging -------------------------------------------------------------
    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's totals into this one.

        The shard-merge primitive: worker threads accumulate into their
        own registry (handles resolved against a per-shard buffer) and
        the main thread folds each buffer back in original shard order.
        Counters add, gauges keep the high-water mark (the only gauges
        written off the main thread are ``gauge_max`` semantics), and
        histograms *replay* their recorded observations when the source
        registry kept them (shard buffers do) — re-running the serial
        float-accumulation sequence exactly — falling back to a
        field-wise merge otherwise.  All readers sort by key, so
        creation order never leaks into output.
        """
        for key, counter in sorted(other._counters.items()):
            mine = self._counters.get(key)
            if mine is None:
                mine = self._counters[key] = Counter(key[0], key[1])
            mine.value += counter.value
        for key, gauge in sorted(other._gauges.items()):
            mine_g = self._gauges.get(key)
            if mine_g is None:
                mine_g = self._gauges[key] = Gauge(key[0], key[1])
            mine_g.set_max(gauge.value)
        for key, histogram in sorted(other._histograms.items()):
            mine_h = self._histograms.get(key)
            if mine_h is None:
                mine_h = self._histograms[key] = Histogram(
                    key[0], histogram.bounds, key[1])
            if mine_h.bounds != histogram.bounds:
                raise ValueError(
                    "histogram %r bucket bounds differ between registries"
                    % key[0])
            if histogram.observations is not None:
                for value in histogram.observations:
                    mine_h.observe(value)
                continue
            for index, bucket_count in enumerate(histogram.bucket_counts):
                mine_h.bucket_counts[index] += bucket_count
            mine_h.count += histogram.count
            mine_h.total += histogram.total
            if histogram.min_value < mine_h.min_value:
                mine_h.min_value = histogram.min_value
            if histogram.max_value > mine_h.max_value:
                mine_h.max_value = histogram.max_value

    # -- reading -------------------------------------------------------------
    def counters_named(self, name: str) -> List[Counter]:
        return [c for (n, _), c in sorted(self._counters.items()) if n == name]

    def counter_total(self, name: str) -> float:
        return sum(c.value for c in self.counters_named(name))

    def gauges_named(self, name: str) -> List[Gauge]:
        return [g for (n, _), g in sorted(self._gauges.items()) if n == name]

    def histograms_named(self, name: str) -> List[Histogram]:
        return [h for (n, _), h in sorted(self._histograms.items()) if n == name]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything, rendered with ``name{label=value}`` keys."""
        return {
            "counters": {
                _render_key(name, labels): counter.value
                for (name, labels), counter in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(name, labels): gauge.value
                for (name, labels), gauge in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(name, labels): histogram.summary()
                for (name, labels), histogram in sorted(self._histograms.items())
            },
        }
