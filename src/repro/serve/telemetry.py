"""Serving telemetry: latency percentiles, exit histograms, energy, queues.

Everything the operator of a DT-SNN serving deployment looks at lives here:

* per-request end-to-end latency / queue delay / service time percentiles,
* the exit-timestep histogram (the serving-time mirror of the paper's Fig. 5
  pie charts — it shows where the continuous batcher gets its free slots),
* queue-depth and batch-occupancy gauges,
* per-request energy and energy-delay product priced through any
  :class:`repro.core.InferenceCostModel` (e.g. the Table-I IMC chip),
* a rolling latency window consumed by the SLA threshold controller.

The class is thread-safe: the batcher worker records completions while
submitter threads read snapshots.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..analysis.lockorder import named_lock
from .request import RequestResult

__all__ = ["Telemetry"]

#: Samples each gauge (queue depth, occupancy) keeps, newest last.
GAUGE_WINDOW = 4096


class Telemetry:
    """Accumulates per-request serving metrics."""

    def __init__(self, window: int = 256):
        if window < 1:
            raise ValueError("window must be >= 1")
        self._lock = named_lock("serve.telemetry")
        self._results: List[RequestResult] = []
        self._recent_latencies: Deque[float] = deque(maxlen=window)
        # Gauges are sampled on every batcher step; bound them so a
        # long-running server cannot grow memory without traffic.
        self._queue_depths: Deque[int] = deque(maxlen=GAUGE_WINDOW)
        self._occupancies: Deque[float] = deque(maxlen=GAUGE_WINDOW)
        self._first_arrival: Optional[float] = None
        self._last_finish: Optional[float] = None
        self._rejected = 0
        self._shed = 0
        # Storm-guard accounting (docs/RESILIENCE.md): sheds and deadline
        # drops keyed by priority class, the peak FSM severity code observed
        # (0=NORMAL, 1=WARN, 2=STORM), and the number of state transitions.
        self._storm_shed: Dict[int, int] = {}
        self._deadline_drops: Dict[int, int] = {}
        self._storm_peak = 0
        self._storm_transitions = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_completion(self, result: RequestResult) -> None:
        self.record_completions((result,))

    def record_completions(self, results: Sequence[RequestResult]) -> None:
        """A batcher round's completions under one lock acquisition."""
        with self._lock:
            for result in results:
                self._results.append(result)
                self._recent_latencies.append(result.latency)
                if self._first_arrival is None or result.arrival_time < self._first_arrival:
                    self._first_arrival = result.arrival_time
                if self._last_finish is None or result.finish_time > self._last_finish:
                    self._last_finish = result.finish_time

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depths.append(int(depth))

    def record_occupancy(self, active: int, width: int) -> None:
        with self._lock:
            self._occupancies.append(active / width if width else 0.0)

    def record_rejection(self) -> None:
        with self._lock:
            self._rejected += 1

    def record_shed(self, count: int = 1) -> None:
        """Requests failed *after* admission (abort/crash drain), as opposed
        to rejections shed at the door by queue backpressure."""
        with self._lock:
            self._shed += int(count)

    def record_storm_shed(self, priority: int) -> None:
        """A submission shed at the door by the storm guard, by class."""
        with self._lock:
            priority = int(priority)
            self._storm_shed[priority] = self._storm_shed.get(priority, 0) + 1

    def record_deadline_drop(self, priority: int) -> None:
        """A request dropped at dispatch because its deadline expired."""
        with self._lock:
            priority = int(priority)
            self._deadline_drops[priority] = (
                self._deadline_drops.get(priority, 0) + 1
            )

    def record_storm_state(self, code: int) -> None:
        """A storm-FSM transition to severity ``code`` (0/1/2)."""
        with self._lock:
            self._storm_transitions += 1
            if int(code) > self._storm_peak:
                self._storm_peak = int(code)

    def extend_occupancy(self, samples: Sequence[float]) -> None:
        """Adopt the occupancy samples a replica ships at drain — the one
        gauge only the process stepping the batch can sample.  Everything
        else about a replica-served request is recorded parent-side."""
        with self._lock:
            self._occupancies.extend(samples)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        with self._lock:
            return len(self._results)

    @property
    def rejected(self) -> int:
        with self._lock:
            return self._rejected

    @property
    def shed(self) -> int:
        with self._lock:
            return self._shed

    @property
    def storm_shed_by_class(self) -> Dict[int, int]:
        with self._lock:
            return dict(self._storm_shed)

    @property
    def deadline_drops_by_class(self) -> Dict[int, int]:
        with self._lock:
            return dict(self._deadline_drops)

    @property
    def storm_peak(self) -> int:
        with self._lock:
            return self._storm_peak

    @property
    def storm_transitions(self) -> int:
        with self._lock:
            return self._storm_transitions

    def occupancy_samples(self) -> List[float]:
        with self._lock:
            return list(self._occupancies)

    def recent_p95(self) -> Optional[float]:
        """p95 latency over the rolling window (None until data arrives)."""
        with self._lock:
            if not self._recent_latencies:
                return None
            return float(np.percentile(np.asarray(self._recent_latencies), 95))

    def exit_histogram(self, max_timesteps: int) -> np.ndarray:
        """Count of completed requests per exit timestep 1..T."""
        with self._lock:
            exits = np.array([r.exit_timestep for r in self._results], dtype=np.int64)
        return np.bincount(exits, minlength=max_timesteps + 1)[1:]

    def throughput(self) -> Optional[float]:
        """Completed requests per second over the observed serving interval."""
        with self._lock:
            count = len(self._results)
            first, last = self._first_arrival, self._last_finish
        if count == 0 or first is None or last is None or last <= first:
            return None
        return count / (last - first)

    def accuracy(self) -> Optional[float]:
        with self._lock:
            flags = [r.correct for r in self._results if r.correct is not None]
        if not flags:
            return None
        return float(np.mean(flags))

    def snapshot(self) -> Dict[str, float]:
        """One flat dict with every headline serving metric.

        Complete by construction: every counter (completed / rejected /
        shed) and every gauge family (queue depth, occupancy) the telemetry
        records is surfaced here, so ``serve --self-test`` and
        ``--stats-dump`` print the whole picture rather than a subset.
        """
        with self._lock:
            results = list(self._results)
            depths = list(self._queue_depths)
            occupancies = list(self._occupancies)
            rejected = self._rejected
            shed = self._shed
            storm_shed = dict(self._storm_shed)
            deadline_drops = dict(self._deadline_drops)
            storm_peak = self._storm_peak
            storm_transitions = self._storm_transitions
        stats: Dict[str, float] = {
            "completed": float(len(results)),
            "rejected": float(rejected),
            "shed": float(shed),
        }
        if storm_shed or deadline_drops or storm_transitions:
            names = {0: "high", 1: "normal", 2: "low"}
            for priority, count in sorted(storm_shed.items()):
                name = names.get(priority, str(priority))
                stats[f"storm_shed_{name}"] = float(count)
            stats["deadline_dropped"] = float(sum(deadline_drops.values()))
            stats["storm_state_peak"] = float(storm_peak)
            stats["storm_transitions"] = float(storm_transitions)
        if results:
            latencies = np.array([r.latency for r in results])
            delays = np.array([r.queue_delay for r in results])
            exits = np.array([r.exit_timestep for r in results], dtype=np.float64)  # dtype-ok: telemetry aggregation is analysis-side float64
            stats.update(
                {
                    "latency_p50": float(np.percentile(latencies, 50)),
                    "latency_p95": float(np.percentile(latencies, 95)),
                    "latency_p99": float(np.percentile(latencies, 99)),
                    "latency_mean": float(latencies.mean()),
                    "queue_delay_mean": float(delays.mean()),
                    "average_exit_timesteps": float(exits.mean()),
                }
            )
            throughput = self.throughput()
            if throughput is not None:
                stats["throughput_rps"] = throughput
            accuracy = self.accuracy()
            if accuracy is not None:
                stats["accuracy"] = accuracy
            energies = [r.energy for r in results if r.energy is not None]
            if energies:
                stats["energy_mean"] = float(np.mean(energies))
                stats["energy_total"] = float(np.sum(energies))
            edps = [r.edp for r in results if r.edp is not None]
            if edps:
                stats["edp_mean"] = float(np.mean(edps))
        if depths:
            stats["queue_depth_mean"] = float(np.mean(depths))
            stats["queue_depth_max"] = float(np.max(depths))
            stats["queue_depth_p95"] = float(np.percentile(np.asarray(depths), 95))
        if occupancies:
            stats["occupancy_mean"] = float(np.mean(occupancies))
            stats["occupancy_max"] = float(np.max(occupancies))
        return stats

    # ------------------------------------------------------------------ #
    # Metrics-registry export (repro.serve.obs)
    # ------------------------------------------------------------------ #
    def fill_registry(self, registry, max_timesteps: Optional[int] = None) -> None:
        """Feed a :class:`~repro.serve.obs.MetricsRegistry` from raw samples.

        Additive: counters increment and histograms observe on top of
        whatever the registry already holds, so feed a *fresh* registry per
        export.  Histogram metrics are built from the raw per-request
        samples, not from the snapshot's derived percentiles.
        """
        with self._lock:
            results = list(self._results)
            depths = list(self._queue_depths)
            occupancies = list(self._occupancies)
            rejected = self._rejected
            shed = self._shed
            storm_shed = dict(self._storm_shed)
            deadline_drops = dict(self._deadline_drops)
            storm_peak = self._storm_peak
            storm_transitions = self._storm_transitions
        registry.counter(
            "repro_requests_completed_total", "Requests completed"
        ).inc(len(results))
        registry.counter(
            "repro_requests_rejected_total", "Submissions shed at the door"
        ).inc(rejected)
        registry.counter(
            "repro_requests_shed_total", "Admitted requests failed by shutdown/crash"
        ).inc(shed)
        # The registry has no label support, so per-class storm counters use
        # one distinct metric name per priority class.
        names = {0: "high", 1: "normal", 2: "low"}
        for priority, count in sorted(storm_shed.items()):
            name = names.get(priority, str(priority))
            registry.counter(
                f"repro_storm_shed_{name}_total",
                f"Submissions shed by the storm guard ({name} priority)",
            ).inc(count)
        for priority, count in sorted(deadline_drops.items()):
            name = names.get(priority, str(priority))
            registry.counter(
                f"repro_deadline_dropped_{name}_total",
                f"Requests dropped at dispatch past their deadline ({name} priority)",
            ).inc(count)
        if storm_transitions:
            registry.counter(
                "repro_storm_transitions_total", "Storm-FSM state transitions"
            ).inc(storm_transitions)
            registry.gauge(
                "repro_storm_state_peak",
                "Peak storm-FSM severity (0=normal, 1=warn, 2=storm)",
            ).set(storm_peak)
        latency = registry.histogram(
            "repro_request_latency_seconds", "End-to-end request latency"
        )
        queue_delay = registry.histogram(
            "repro_request_queue_delay_seconds", "Arrival-to-admission wait"
        )
        horizon = max_timesteps or max(
            (r.exit_timestep for r in results), default=1
        )
        exits = registry.histogram(
            "repro_request_exit_timesteps", "Exit timestep per request",
            buckets=tuple(float(t) for t in range(1, horizon + 1)),
        )
        energy_total = registry.counter(
            "repro_request_energy_total", "Summed per-request energy (cost model units)"
        )
        for result in results:
            latency.observe(result.latency)
            queue_delay.observe(result.queue_delay)
            exits.observe(float(result.exit_timestep))
            if result.energy is not None:
                energy_total.inc(result.energy)
        depth_gauge = registry.gauge(
            "repro_queue_depth_max", "Peak admission-queue depth"
        )
        for depth in depths:
            depth_gauge.set(depth)
        occupancy_gauge = registry.gauge(
            "repro_occupancy_max", "Peak batch-slot occupancy fraction"
        )
        for occupancy in occupancies:
            occupancy_gauge.set(occupancy)
