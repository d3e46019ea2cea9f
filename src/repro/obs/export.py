"""Span export: Chrome trace event format + OpenMetrics text.

Turns a run's :class:`~repro.obs.tracing.Tracer` spans into a
``chrome://tracing`` / Perfetto-loadable JSON object (the
`Trace Event Format`_):

* top-level spans become complete (``ph: "X"``) events with
  microsecond ``ts``/``dur``,
* nested spans become begin/end (``ph: "B"`` / ``ph: "E"``) pairs so
  the viewer reconstructs the stack exactly as the tracer saw it,
* ``ph: "M"`` metadata events name the process and the main track.

All timestamps come off the run's injected clock (simulated seconds),
so a seeded trace is byte-identical across machines.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .observer import RunObserver
from .tracing import Span

__all__ = ["build_chrome_trace", "render_openmetrics", "write_chrome_trace",
           "write_openmetrics"]

#: the synthetic pid and tid of the one pipeline track
TRACE_PID = 1
MAIN_TID = 0


def _microseconds(seconds: float) -> float:
    return seconds * 1_000_000.0


def _span_events(span: Span) -> List[Dict[str, Any]]:
    """One span as trace events: X when top-level, B/E pair when nested."""
    common: Dict[str, Any] = {
        "name": span.name,
        "cat": span.name.partition(".")[0] or "span",
        "pid": TRACE_PID,
        "tid": MAIN_TID,
        "args": dict(span.attrs),
    }
    if span.depth == 0:
        event = dict(common)
        event.update({"ph": "X", "ts": _microseconds(span.start),
                      "dur": _microseconds(span.duration)})
        return [event]
    begin = dict(common)
    begin.update({"ph": "B", "ts": _microseconds(span.start)})
    end = {"name": span.name, "cat": common["cat"], "ph": "E",
           "ts": _microseconds(span.end), "pid": TRACE_PID, "tid": MAIN_TID}
    return [begin, end]


def _metadata_event(name: str, label: str) -> Dict[str, Any]:
    return {"name": name, "ph": "M", "pid": TRACE_PID, "tid": MAIN_TID,
            "args": {"name": label}}


def build_chrome_trace(observer: RunObserver) -> Dict[str, Any]:
    """Assemble the Chrome-trace JSON object for an observed run."""
    events: List[Dict[str, Any]] = [
        _metadata_event("process_name", "repro pipeline"),
        _metadata_event("thread_name", "main"),
    ]
    for span in observer.tracer.finished:
        events.extend(_span_events(span))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": type(observer.clock).__name__,
            "spans": len(observer.tracer.finished),
            "spans_dropped": observer.tracer.dropped,
        },
    }


def write_chrome_trace(path: str, observer: RunObserver) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    trace = build_chrome_trace(observer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1, sort_keys=True)
    return len(trace["traceEvents"])


# ---------------------------------------------------------------------------
# OpenMetrics / Prometheus text export
# ---------------------------------------------------------------------------
def _om_name(name: str) -> str:
    """A metric name sanitized to the OpenMetrics charset, ``repro_``-prefixed."""
    safe = "".join(ch if (ch.isascii() and (ch.isalnum() or ch in "_:"))
                   else "_" for ch in name)
    return "repro_" + safe


def _om_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _om_labels(labels: Any, extra: Optional[List[Any]] = None) -> str:
    """Render a LabelKey (plus optional extra pairs) as ``{k="v",...}``."""
    pairs = list(labels) + (extra or [])
    if not pairs:
        return ""
    rendered = []
    for key, value in pairs:
        escaped = (str(value).replace("\\", "\\\\")
                   .replace('"', '\\"').replace("\n", "\\n"))
        rendered.append('%s="%s"' % (key, escaped))
    return "{%s}" % ",".join(rendered)


def render_openmetrics(registry: Any) -> str:
    """The registry in OpenMetrics text format, for external scrapers.

    ``registry`` is a :class:`~repro.obs.metrics.MetricsRegistry`.
    Counters get the mandatory ``_total`` sample suffix, histograms
    export cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``, gauges export as-is.  Families and samples render in
    sorted order, so a seeded run's export is byte-identical anywhere.
    """
    lines: List[str] = []
    by_family: Dict[str, List[Any]] = {}
    for (name, labels), counter in sorted(registry._counters.items()):
        by_family.setdefault(name, []).append((labels, counter))
    for name in sorted(by_family):
        family = _om_name(name)
        lines.append("# TYPE %s counter" % family)
        for labels, counter in by_family[name]:
            lines.append("%s_total%s %s"
                         % (family, _om_labels(labels), _om_value(counter.value)))
    by_family = {}
    for (name, labels), gauge in sorted(registry._gauges.items()):
        by_family.setdefault(name, []).append((labels, gauge))
    for name in sorted(by_family):
        family = _om_name(name)
        lines.append("# TYPE %s gauge" % family)
        for labels, gauge in by_family[name]:
            lines.append("%s%s %s"
                         % (family, _om_labels(labels), _om_value(gauge.value)))
    by_family = {}
    for (name, labels), histogram in sorted(registry._histograms.items()):
        by_family.setdefault(name, []).append((labels, histogram))
    for name in sorted(by_family):
        family = _om_name(name)
        lines.append("# TYPE %s histogram" % family)
        for labels, histogram in by_family[name]:
            cumulative = 0
            for index, bucket_count in enumerate(histogram.bucket_counts):
                cumulative += bucket_count
                edge = (_om_value(histogram.bounds[index])
                        if index < len(histogram.bounds) else "+Inf")
                lines.append("%s_bucket%s %d"
                             % (family,
                                _om_labels(labels, extra=[("le", edge)]),
                                cumulative))
            lines.append("%s_sum%s %s"
                         % (family, _om_labels(labels),
                            _om_value(histogram.total)))
            lines.append("%s_count%s %d"
                         % (family, _om_labels(labels), histogram.count))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str, registry: Any) -> int:
    """Write the OpenMetrics export to ``path``; returns the line count."""
    text = render_openmetrics(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")
