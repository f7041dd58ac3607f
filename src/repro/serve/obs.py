"""Request-lifecycle spans and a metrics registry for the serving stack.

Telemetry answers *what* the fleet did (percentiles, histograms, counters);
this module answers *where each request spent its time* and exposes both in
machine-readable form:

* :class:`SpanTracker` — per-request span records.  The serving layers stamp
  stage events through the server's injectable clock as a request moves
  ``queued → admitted/dispatched → exited → completed``; per-stage durations
  (queue wait, service, completion hand-off) come out as percentile
  summaries.  Stage times within one request are monotone by construction —
  every stamp comes from the same monotonic clock domain — and the test
  suite pins that under a fake clock.
* :class:`MetricsRegistry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — a minimal metrics surface with two export formats:
  Prometheus text exposition (``to_prometheus``) and JSON (``to_json``).
  :meth:`repro.serve.Telemetry.fill_registry` feeds it, so ``serve
  --stats-dump`` turns a serving run into a scrape-able artifact.

There is one writer: the serving parent records every completion and every
failure, in thread and replica mode alike, so nothing here crosses a process.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.lockorder import named_lock

__all__ = [
    "SPAN_STAGES",
    "RequestSpan",
    "SpanTracker",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# The span taxonomy, in lifecycle order (docs/OBSERVABILITY.md):
#   queued     — accepted into the admission queue (arrival_time)
#   dispatched — shipped to a replica process (replica mode only)
#   admitted   — occupying an engine slot (start of service)
#   exited     — satisfied the exit policy / hit the horizon
#   completed  — future resolved (telemetry recorded, client unblocked)
SPAN_STAGES = ("queued", "dispatched", "admitted", "exited", "completed")
_STAGE_ORDER = {stage: index for index, stage in enumerate(SPAN_STAGES)}


@dataclass
class RequestSpan:
    """Stage → timestamp map for one request (server clock domain).

    ``tags`` annotates the span with non-timing attributes (currently
    ``brownout=True`` for requests served under storm-degraded accuracy,
    plus the stamped threshold epoch).
    """

    request_id: int
    events: Dict[str, float] = field(default_factory=dict)
    tags: Dict[str, Any] = field(default_factory=dict)

    def duration(self, start: str, end: str) -> Optional[float]:
        if start in self.events and end in self.events:
            return self.events[end] - self.events[start]
        return None

    @property
    def monotone(self) -> bool:
        """Stage times never decrease in lifecycle order."""
        stamped = sorted(
            (_STAGE_ORDER[stage], t) for stage, t in self.events.items()
        )
        return all(a[1] <= b[1] for a, b in zip(stamped, stamped[1:]))


class SpanTracker:
    """Collects per-request lifecycle spans (thread-safe, bounded).

    ``capacity`` bounds memory on long-running servers: the tracker keeps
    the most recent ``capacity`` request spans (completed requests evict
    oldest-first once full), which is plenty for the percentile summaries
    while keeping the per-event cost O(1).
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = named_lock("serve.obs.spans")
        self._spans: OrderedDict[int, RequestSpan] = OrderedDict()

    def _span(self, request_id: int) -> RequestSpan:
        """Get or create a request's span, evicting the oldest when full;
        the caller holds the lock."""
        span = self._spans.get(request_id)
        if span is None:
            if len(self._spans) >= self.capacity:
                # Why an OrderedDict: a plain dict finds its oldest key by
                # walking every slot eviction ever emptied — 37 us a
                # completion once a 65,536-span tracker is full.
                self._spans.popitem(last=False)
            span = self._spans[request_id] = RequestSpan(request_id=request_id)
        return span

    def record(self, request_id: int, stage: str, timestamp: float) -> None:
        if stage not in _STAGE_ORDER:
            raise ValueError(f"unknown span stage {stage!r}")
        with self._lock:
            self._span(request_id).events[stage] = float(timestamp)

    def record_result(self, result, completed_at: float) -> None:
        """Stamp the whole lifecycle of a completed request from its result.

        One call per completion covers every stage the result's timestamps
        encode (arrival/admission/exit come straight off the
        :class:`~repro.serve.RequestResult`), so the hot-path cost of span
        tracking is a single lock acquisition per request.
        """
        with self._lock:
            span = self._span(result.request_id)
            span.events.setdefault("queued", float(result.arrival_time))
            span.events.setdefault("admitted", float(result.start_time))
            span.events.setdefault("exited", float(result.finish_time))
            span.events["completed"] = float(completed_at)
            if getattr(result, "brownout", False):
                span.tags["brownout"] = True
            epoch = getattr(result, "epoch", None)
            if epoch is not None:
                span.tags["epoch"] = int(epoch)

    def record_failure(
        self, request_id: int, failed_at: float, error: BaseException,
    ) -> None:
        """Stamp the terminal stage of a FAILED request.

        Every failure path (door refusal, deadline drop, admission
        rejection, replica crash, shutdown shed) lands here through
        :func:`~repro.serve.batcher.fail_round`: a request that already got a
        ``queued``/``dispatched`` stamp would otherwise sit in the tracker
        as a dangling open span until capacity eviction, and "no open spans
        after drain" is the invariant the conservation suite leans on.  The
        error type lands in the tags so traces can tell failure modes apart
        from genuine completions.
        """
        with self._lock:
            span = self._span(int(request_id))
            span.events["completed"] = float(failed_at)
            span.tags["error"] = type(error).__name__

    # ------------------------------------------------------------------ #
    def spans(self) -> List[RequestSpan]:
        with self._lock:
            return [RequestSpan(s.request_id, dict(s.events), dict(s.tags))
                    for s in self._spans.values()]

    def open_spans(self) -> List[RequestSpan]:
        """Spans with no terminal stage — empty after a clean drain."""
        with self._lock:
            return [
                RequestSpan(s.request_id, dict(s.events), dict(s.tags))
                for s in self._spans.values()
                if "completed" not in s.events
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # ------------------------------------------------------------------ #
    def stage_durations(self) -> Dict[str, List[float]]:
        """Raw per-stage durations over all tracked spans."""
        pairs = (
            ("queue_wait", "queued", "admitted"),
            ("dispatch", "queued", "dispatched"),
            ("service", "admitted", "exited"),
            ("completion", "exited", "completed"),
            ("total", "queued", "completed"),
        )
        out: Dict[str, List[float]] = {name: [] for name, _, _ in pairs}
        for span in self.spans():
            for name, start, end in pairs:
                duration = span.duration(start, end)
                if duration is not None:
                    out[name].append(duration)
        return {name: values for name, values in out.items() if values}

    def summary(self, percentiles: Sequence[float] = (50, 95, 99)) -> Dict[str, Dict[str, float]]:
        """Per-stage duration summaries (mean + requested percentiles)."""
        summary: Dict[str, Dict[str, float]] = {}
        for name, values in self.stage_durations().items():
            array = np.asarray(values, dtype=np.float64)  # dtype-ok: metrics percentile math is analysis-side float64
            entry = {"count": float(array.size), "mean": float(array.mean())}
            for p in percentiles:
                entry[f"p{p:g}"] = float(np.percentile(array, p))
            summary[name] = entry
        return summary


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_json(self) -> Dict[str, Any]:
        return {"type": "counter", "help": self.help, "value": self.value}

    def to_prometheus(self) -> str:
        return (f"# HELP {self.name} {self.help}\n"
                f"# TYPE {self.name} counter\n"
                f"{self.name} {_format_value(self.value)}\n")


@dataclass
class Gauge:
    """Peak value: ``set`` keeps the largest sample seen (queue depth,
    occupancy, storm severity — every gauge the serving stack exports)."""

    name: str
    help: str = ""
    value: Optional[float] = None

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value if self.value is None else max(self.value, value)

    def to_json(self) -> Dict[str, Any]:
        return {"type": "gauge", "help": self.help, "mode": "max",
                "value": self.value}

    def to_prometheus(self) -> str:
        value = 0.0 if self.value is None else self.value
        return (f"# HELP {self.name} {self.help}\n"
                f"# TYPE {self.name} gauge\n"
                f"{self.name} {_format_value(value)}\n")


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    # Latency-shaped default buckets (seconds).
    DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                       0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def add(self, counts: Sequence[int], total: float) -> None:
        """Fold in observations already bucketed over these same bounds."""
        self.counts = [mine + more for mine, more in zip(self.counts, counts)]
        self.total += total
        self.count += sum(counts)

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "help": self.help,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    def to_prometheus(self) -> str:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} histogram"]
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            lines.append(f'{self.name}_bucket{{le="{_format_value(bound)}"}} '
                         f"{cumulative}")
        cumulative += self.counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {_format_value(self.total)}")
        lines.append(f"{self.name}_count {self.count}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    # Integral values print without a trailing .0 (Prometheus-conventional).
    return str(int(value)) if float(value).is_integer() else repr(float(value))


class MetricsRegistry:
    """A named collection of counters/gauges/histograms with two exports.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create (idempotent),
    so feeders can address metrics by name without coordination.
    """

    def __init__(self):
        self._lock = named_lock("serve.obs.metrics")
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory, kind) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = Histogram.DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), Histogram
        )

    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._metrics)

    def to_json(self) -> Dict[str, Any]:
        return {name: metric.to_json()
                for name, metric in sorted(self.metrics().items())}

    def to_prometheus(self) -> str:
        return "".join(metric.to_prometheus()
                       for _, metric in sorted(self.metrics().items()))
