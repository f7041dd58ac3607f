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
submitter threads read snapshots.  Each completion round is folded into a
fixed-size store, so memory and export cost do not grow with requests served.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..analysis.lockorder import named_lock
from .obs import Histogram
from .request import RequestResult

__all__ = ["Telemetry"]

#: Samples each gauge (queue depth, occupancy) and the snapshot's latency
#: percentiles keep, newest last.
GAUGE_WINDOW = 4096


class Telemetry:
    """Accumulates per-request serving metrics."""

    def __init__(self, window: int = 256):
        if window < 1:
            raise ValueError("window must be >= 1")
        self._lock = named_lock("serve.telemetry")
        # The completion store, exact over all history: the histograms carry
        # the latency / queue-delay sums and the completed count, _exits[t]
        # counts exits at timestep t, each (sum, count) pair the requests
        # that were priced / labelled.
        self._latency = Histogram(
            "repro_request_latency_seconds", "End-to-end request latency")
        self._queue_delay = Histogram(
            "repro_request_queue_delay_seconds", "Arrival-to-admission wait")
        self._exits: List[int] = []
        self._energy, self._priced = 0.0, 0
        self._edp, self._edp_priced = 0.0, 0
        self._correct, self._labelled = 0, 0
        # One latency window, newest last: the SLA controller's p95 reads the
        # last ``window`` entries, the snapshot's percentiles GAUGE_WINDOW.
        self._window = window
        self._latencies: Deque[float] = deque(maxlen=max(window, GAUGE_WINDOW))
        # Gauges are sampled on every batcher step; bound them so a
        # long-running server cannot grow memory without traffic.
        self._queue_depths: Deque[int] = deque(maxlen=GAUGE_WINDOW)
        self._occupancies: Deque[float] = deque(maxlen=GAUGE_WINDOW)
        self._first_arrival, self._last_finish = float("inf"), float("-inf")
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
        """Fold a batcher round's completions in under one lock acquisition."""
        with self._lock:
            latency, queue_delay, exits = self._latency, self._queue_delay, self._exits
            first, last = self._first_arrival, self._last_finish
            for result in results:
                arrival, finish = result.arrival_time, result.finish_time
                self._latencies.append(finish - arrival)
                latency.observe(finish - arrival)
                queue_delay.observe(result.start_time - arrival)
                timestep = result.exit_timestep
                if timestep >= len(exits):
                    exits.extend([0] * (timestep + 1 - len(exits)))
                exits[timestep] += 1
                if result.energy is not None:
                    self._energy += result.energy
                    self._priced += 1
                if result.edp is not None:
                    self._edp += result.edp
                    self._edp_priced += 1
                if result.label is not None:
                    self._correct += result.prediction == result.label
                    self._labelled += 1
                if arrival < first:
                    first = arrival
                if finish > last:
                    last = finish
            self._first_arrival, self._last_finish = first, last

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depths.append(int(depth))

    def record_occupancy(self, active: int, width: int) -> None:
        with self._lock:
            self._occupancies.append(active / width if width else 0.0)

    def record_rejection(self, count: int = 1) -> None:
        with self._lock:
            self._rejected += int(count)

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
            return self._latency.count

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
            recent = list(islice(reversed(self._latencies), self._window))
        return float(np.percentile(recent, 95)) if recent else None

    def exit_histogram(self, max_timesteps: int) -> np.ndarray:
        """Count of completed requests per exit timestep 1..T."""
        with self._lock:
            counts = self._exits + [0] * (max_timesteps + 1 - len(self._exits))
        return np.array(counts[1:], dtype=np.int64)

    def throughput(self) -> Optional[float]:
        """Completed requests per second over the observed serving interval."""
        return self.snapshot().get("throughput_rps")

    def accuracy(self) -> Optional[float]:
        return self.snapshot().get("accuracy")

    def snapshot(self) -> Dict[str, float]:
        """One flat dict with every headline serving metric.

        Complete by construction: every counter (completed / rejected /
        shed) and every gauge family (queue depth, occupancy) the telemetry
        records is surfaced here, so ``serve --self-test`` and
        ``--stats-dump`` print the whole picture rather than a subset.
        Everything is exact over all history except the three ``latency_p*``
        keys, which cover the most recent ``GAUGE_WINDOW`` completions.
        """
        with self._lock:
            completed = self._latency.count
            stats: Dict[str, float] = {
                "completed": float(completed),
                "rejected": float(self._rejected),
                "shed": float(self._shed),
            }
            if self._storm_shed or self._deadline_drops or self._storm_transitions:
                names = {0: "high", 1: "normal", 2: "low"}
                for priority, count in sorted(self._storm_shed.items()):
                    name = names.get(priority, str(priority))
                    stats[f"storm_shed_{name}"] = float(count)
                stats["deadline_dropped"] = float(sum(self._deadline_drops.values()))
                stats["storm_state_peak"] = float(self._storm_peak)
                stats["storm_transitions"] = float(self._storm_transitions)
            if completed:
                exits = sum(t * count for t, count in enumerate(self._exits))
                stats["latency_mean"] = self._latency.total / completed
                stats["queue_delay_mean"] = self._queue_delay.total / completed
                stats["average_exit_timesteps"] = exits / completed
                if self._last_finish > self._first_arrival:
                    stats["throughput_rps"] = completed / (
                        self._last_finish - self._first_arrival)
                if self._labelled:
                    stats["accuracy"] = self._correct / self._labelled
                if self._priced:
                    stats["energy_mean"] = self._energy / self._priced
                    stats["energy_total"] = self._energy
                if self._edp_priced:
                    stats["edp_mean"] = self._edp / self._edp_priced
            latencies = list(self._latencies)[-GAUGE_WINDOW:]
            depths = list(self._queue_depths)
            occupancies = list(self._occupancies)
        # The O(window) reductions run outside the lock.
        if completed:
            p50, p95, p99 = np.percentile(latencies, (50, 95, 99)).tolist()
            stats.update(latency_p50=p50, latency_p95=p95, latency_p99=p99)
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
        """Feed a :class:`~repro.serve.obs.MetricsRegistry` from the store.

        Additive: counters increment and histograms add on top of whatever
        the registry already holds, so feed a *fresh* registry per export.
        Exact over all history, but for the two gauges: peaks over the last
        ``GAUGE_WINDOW`` batcher steps.
        """
        latency = registry.histogram(self._latency.name, self._latency.help)
        queue_delay = registry.histogram(self._queue_delay.name, self._queue_delay.help)
        with self._lock:
            latency.add(self._latency.counts, self._latency.total)
            queue_delay.add(self._queue_delay.counts, self._queue_delay.total)
            exit_counts = list(self._exits)
            depths, occupancies = list(self._queue_depths), list(self._occupancies)
            storm_shed, deadline_drops = dict(self._storm_shed), dict(self._deadline_drops)
            storm_peak, storm_transitions = self._storm_peak, self._storm_transitions
            completed, energy = self._latency.count, self._energy
            rejected, shed = self._rejected, self._shed
        registry.counter("repro_requests_completed_total", "Requests completed").inc(completed)
        registry.counter(
            "repro_requests_rejected_total", "Submissions shed at the door").inc(rejected)
        registry.counter(
            "repro_requests_shed_total", "Admitted requests failed by shutdown/crash").inc(shed)
        registry.counter(
            "repro_request_energy_total", "Summed per-request energy (cost model units)"
        ).inc(energy)
        # The registry has no label support, so per-class storm counters use
        # one distinct metric name per priority class.
        names = {0: "high", 1: "normal", 2: "low"}
        for family, what, by_class in (
            ("repro_storm_shed", "Submissions shed by the storm guard", storm_shed),
            ("repro_deadline_dropped", "Requests dropped at dispatch past their deadline",
             deadline_drops),
        ):
            for priority, count in sorted(by_class.items()):
                name = names.get(priority, str(priority))
                registry.counter(f"{family}_{name}_total", f"{what} ({name} priority)").inc(count)
        if storm_transitions:
            registry.counter(
                "repro_storm_transitions_total", "Storm-FSM state transitions"
            ).inc(storm_transitions)
            registry.gauge(
                "repro_storm_state_peak",
                "Peak storm-FSM severity (0=normal, 1=warn, 2=storm)",
            ).set(storm_peak)
        # Bucket le=t holds the exits at t, +Inf those past the horizon.
        horizon = max_timesteps or max(len(exit_counts) - 1, 1)
        exit_counts += [0] * (horizon + 1 - len(exit_counts))
        registry.histogram(
            "repro_request_exit_timesteps", "Exit timestep per request",
            buckets=tuple(float(t) for t in range(1, horizon + 1)),
        ).add(
            exit_counts[1:horizon + 1] + [sum(exit_counts[horizon + 1:])],
            float(sum(t * count for t, count in enumerate(exit_counts))),
        )
        for name, what, samples in (
            ("repro_queue_depth_max", "Peak admission-queue depth", depths),
            ("repro_occupancy_max", "Peak batch-slot occupancy fraction", occupancies),
        ):
            gauge = registry.gauge(name, what)
            if samples:
                gauge.set(max(samples))
