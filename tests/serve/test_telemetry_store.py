"""``Telemetry`` is a fixed-size streaming store, not a list of results.

``record_completions`` folds each round into counters, running sums, two
online histograms, per-exit-timestep counts and bounded windows; ``snapshot``
/ ``fill_registry`` / ``exit_histogram`` / ``throughput`` / ``accuracy`` read
that store.  Pinned here:

* **referee** — the exports equal what the previous design computed by
  re-reducing a list of every ``RequestResult`` (that algorithm lives on in
  this file as the reference): Prometheus text byte for byte;
* **memory / export cost** — neither grows with the requests served;
* **window semantics** — the three ``latency_p*`` keys cover the last
  ``GAUGE_WINDOW`` completions, everything else all of history;
* **concurrent reader** — every export is one consistent cut of the store.
"""

from __future__ import annotations

import gc
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.serve import MetricsRegistry, RequestResult, Telemetry
from repro.serve.server import _release_free_heap
from repro.serve.telemetry import GAUGE_WINDOW

TIMESTEPS = 4


def _rounds(count, seed=0, width=5, start=0):
    """``count`` seeded results in completion rounds of ``width``; about half
    unpriced, a third unlabelled, arrivals not monotone across rounds."""
    rng = random.Random(seed)
    for base in range(start, start + count, width):
        now = 10.0 + base * 1e-4
        results = []
        for request_id in range(base, min(base + width, start + count)):
            arrival = now - rng.random() * 5e-3
            started = arrival + rng.random() * 2e-3
            priced = rng.random() < 0.5
            results.append(RequestResult(
                request_id=request_id,
                prediction=rng.randrange(3),
                exit_timestep=rng.randrange(1, TIMESTEPS + 2),  # some past T
                score=rng.random(),
                label=rng.randrange(3) if rng.random() < 0.67 else None,
                arrival_time=arrival,
                start_time=started,
                finish_time=started + rng.random() * 0.02,
                energy=rng.random() * 3.0 if priced else None,
                edp=rng.random() * 1e-2 if priced else None,
            ))
        yield results


def _record(telemetry, count, **kwargs):
    """Fold ``count`` results in without retaining any of them."""
    for results in _rounds(count, **kwargs):
        telemetry.record_completions(results)


def _export_seconds(telemetry):
    best = float("inf")
    for _ in range(7):
        started = time.perf_counter()
        telemetry.snapshot()
        telemetry.fill_registry(MetricsRegistry(), max_timesteps=TIMESTEPS)
        best = min(best, time.perf_counter() - started)
    return best


# --------------------------------------------------------------------------- #
# The reference: the list-of-results algorithm the store replaced.
# --------------------------------------------------------------------------- #
def _reference_registry(results, max_timesteps, depths, occupancies, storm):
    registry = MetricsRegistry()
    registry.counter("repro_requests_completed_total", "Requests completed").inc(len(results))
    registry.counter("repro_requests_rejected_total", "Submissions shed at the door").inc(2)
    registry.counter(
        "repro_requests_shed_total", "Admitted requests failed by shutdown/crash").inc(3)
    if storm:  # two low-priority sheds + one unnamed class, one deadline drop, WARN -> STORM
        registry.counter(
            "repro_storm_shed_low_total",
            "Submissions shed by the storm guard (low priority)").inc(2)
        registry.counter(
            "repro_storm_shed_7_total",
            "Submissions shed by the storm guard (7 priority)").inc(1)
        registry.counter(
            "repro_deadline_dropped_normal_total",
            "Requests dropped at dispatch past their deadline (normal priority)").inc(1)
        registry.counter(
            "repro_storm_transitions_total", "Storm-FSM state transitions").inc(2)
        registry.gauge(
            "repro_storm_state_peak",
            "Peak storm-FSM severity (0=normal, 1=warn, 2=storm)").set(2)
    latency = registry.histogram(
        "repro_request_latency_seconds", "End-to-end request latency")
    queue_delay = registry.histogram(
        "repro_request_queue_delay_seconds", "Arrival-to-admission wait")
    horizon = max_timesteps or max((r.exit_timestep for r in results), default=1)
    exits = registry.histogram(
        "repro_request_exit_timesteps", "Exit timestep per request",
        buckets=tuple(float(t) for t in range(1, horizon + 1)),
    )
    energy_total = registry.counter(
        "repro_request_energy_total", "Summed per-request energy (cost model units)")
    for result in results:  # every raw result, in completion order
        latency.observe(result.latency)
        queue_delay.observe(result.queue_delay)
        exits.observe(float(result.exit_timestep))
        if result.energy is not None:
            energy_total.inc(result.energy)
    depth_gauge = registry.gauge("repro_queue_depth_max", "Peak admission-queue depth")
    for depth in depths:
        depth_gauge.set(depth)
    occupancy_gauge = registry.gauge(
        "repro_occupancy_max", "Peak batch-slot occupancy fraction")
    for occupancy in occupancies:
        occupancy_gauge.set(occupancy)
    return registry


def _reference_snapshot(results, depths, occupancies, storm):
    stats = {"completed": float(len(results)), "rejected": 2.0, "shed": 3.0}
    if storm:
        stats.update({
            "storm_shed_low": 2.0, "storm_shed_7": 1.0, "deadline_dropped": 1.0,
            "storm_state_peak": 2.0, "storm_transitions": 2.0,
        })
    if results:
        latencies = np.array([r.latency for r in results])
        stats.update({
            "latency_p50": float(np.percentile(latencies, 50)),
            "latency_p95": float(np.percentile(latencies, 95)),
            "latency_p99": float(np.percentile(latencies, 99)),
            "latency_mean": float(latencies.mean()),
            "queue_delay_mean": float(np.mean([r.queue_delay for r in results])),
            "average_exit_timesteps": float(np.mean([r.exit_timestep for r in results])),
        })
        first = min(r.arrival_time for r in results)
        last = max(r.finish_time for r in results)
        if last > first:
            stats["throughput_rps"] = len(results) / (last - first)
        flags = [r.correct for r in results if r.correct is not None]
        if flags:
            stats["accuracy"] = float(np.mean(flags))
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


EXACT_KEYS = {
    "completed", "rejected", "shed", "latency_p50", "latency_p95", "latency_p99",
    "storm_shed_low", "storm_shed_7", "deadline_dropped", "storm_state_peak",
    "storm_transitions",
    "average_exit_timesteps", "throughput_rps", "accuracy",
    "queue_depth_mean", "queue_depth_max", "queue_depth_p95",
    "occupancy_mean", "occupancy_max",
}


class TestReferee:
    @pytest.mark.parametrize("count", [0, 1, 7, 503, GAUGE_WINDOW])
    @pytest.mark.parametrize("max_timesteps", [TIMESTEPS, None])
    def test_exports_match_the_list_of_results_algorithm(self, count, max_timesteps):
        rounds = list(_rounds(count, seed=count))
        results = [result for round_ in rounds for result in round_]
        depths = [3, 9, 1] if count else []
        occupancies = [0.25, 0.875] if count else []

        telemetry = Telemetry()
        for round_ in rounds:
            telemetry.record_completions(round_)
        for depth in depths:
            telemetry.record_queue_depth(depth)
        for occupancy in occupancies:
            telemetry.record_occupancy(int(occupancy * 8), 8)
        telemetry.record_rejection()
        telemetry.record_rejection()
        telemetry.record_shed(3)
        storm = count % 2 == 1
        if storm:
            for priority in (2, 7, 2):
                telemetry.record_storm_shed(priority)
            telemetry.record_deadline_drop(1)
            telemetry.record_storm_state(1)
            telemetry.record_storm_state(2)

        registry = MetricsRegistry()
        telemetry.fill_registry(registry, max_timesteps=max_timesteps)
        reference = _reference_registry(results, max_timesteps, depths, occupancies, storm)
        assert registry.to_prometheus() == reference.to_prometheus()
        assert registry.to_json() == reference.to_json()

        snapshot = telemetry.snapshot()
        expected = _reference_snapshot(results, depths, occupancies, storm)
        assert set(snapshot) == set(expected)
        for key, value in expected.items():
            if key in EXACT_KEYS:
                assert snapshot[key] == value, key
            else:  # a running sum against numpy's pairwise one
                assert snapshot[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

        assert telemetry.completed == len(results)
        assert telemetry.throughput() == expected.get("throughput_rps")
        assert telemetry.accuracy() == expected.get("accuracy")
        horizon = max([TIMESTEPS] + [r.exit_timestep for r in results])
        assert telemetry.exit_histogram(TIMESTEPS).tolist() == [
            sum(r.exit_timestep == t for r in results) for t in range(1, horizon + 1)
        ]

    def test_storm_counters_and_additive_fill(self):
        telemetry = Telemetry()
        _record(telemetry, 40)
        telemetry.record_storm_shed(2)
        telemetry.record_deadline_drop(1)
        telemetry.record_storm_state(2)
        registry = MetricsRegistry()
        telemetry.fill_registry(registry, max_timesteps=TIMESTEPS)
        once = registry.to_json()
        telemetry.fill_registry(registry, max_timesteps=TIMESTEPS)
        twice = registry.to_json()
        assert once["repro_storm_shed_low_total"]["value"] == 1.0
        assert once["repro_deadline_dropped_normal_total"]["value"] == 1.0
        assert once["repro_storm_state_peak"]["value"] == 2.0
        assert twice["repro_requests_completed_total"]["value"] == 80.0
        for name in ("repro_request_latency_seconds", "repro_request_exit_timesteps"):
            assert twice[name]["count"] == 2 * once[name]["count"] == 80
            assert twice[name]["counts"] == [2 * c for c in once[name]["counts"]]
            assert twice[name]["sum"] == pytest.approx(2 * once[name]["sum"])


class TestFixedSize:
    def test_recording_does_not_grow_memory(self):
        """200k completions the caller does not keep: the store keeps none
        either (the list-of-results design retained ~65 MB here)."""
        telemetry = Telemetry()
        _record(telemetry, GAUGE_WINDOW)  # the latency window fills once
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _record(telemetry, 200_000, start=GAUGE_WINDOW)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert telemetry.completed == 200_000 + GAUGE_WINDOW
        assert grown < 64 * 1024, f"telemetry grew {grown} B over 200k completions"

    def test_export_cost_is_independent_of_requests_served(self):
        small, large = Telemetry(), Telemetry()
        _record(small, 2_000)
        _record(large, 200_000)
        for telemetry in (small, large):
            for depth in range(GAUGE_WINDOW):
                telemetry.record_queue_depth(depth % 17)
                telemetry.record_occupancy(depth % 9, 8)
        after_2k, after_200k = _export_seconds(small), _export_seconds(large)
        assert after_200k < 0.010, f"snapshot + fill_registry took {after_200k * 1e3:.2f} ms"
        assert after_200k < 3 * after_2k, (after_2k, after_200k)

    @pytest.mark.slow
    def test_rss_flat_over_a_million_completions(self):
        """ROADMAP 3(a)'s gate; the tracemalloc case above is its fast twin."""
        def rss_bytes():
            """Median of seven collected, trimmed reads: glibc keeps freed
            heap resident until trimmed, and one read is at the mercy of
            allocator and page-cache noise."""
            reads = []
            for _ in range(7):
                gc.collect()
                _release_free_heap()
                with open("/proc/self/statm", encoding="ascii") as handle:
                    reads.append(int(handle.read().split()[1]) * 4096)
            return sorted(reads)[len(reads) // 2]

        telemetry = Telemetry()
        _record(telemetry, 100_000)
        at_100k = rss_bytes()
        _record(telemetry, 900_000, start=100_000)
        moved = rss_bytes() - at_100k
        assert telemetry.completed == 1_000_000
        assert moved < 1 << 20, f"RSS moved {moved} B between 100k and 1M completions"


class TestWindowSemantics:
    def test_percentiles_cover_the_window_everything_else_all_history(self):
        telemetry = Telemetry()
        total = GAUGE_WINDOW + 1000
        results = [result for round_ in _rounds(total, seed=5) for result in round_]
        for index in range(0, total, 5):
            telemetry.record_completions(results[index:index + 5])
        snapshot = telemetry.snapshot()
        latencies = np.array([r.latency for r in results])
        for p in (50, 95, 99):
            assert snapshot[f"latency_p{p}"] == float(
                np.percentile(latencies[-GAUGE_WINDOW:], p))
        assert snapshot["latency_p50"] != float(np.percentile(latencies, 50))
        assert snapshot["completed"] == total == telemetry.completed
        assert snapshot["latency_mean"] == pytest.approx(latencies.mean(), rel=1e-12)
        assert snapshot["accuracy"] == np.mean(
            [r.correct for r in results if r.correct is not None])
        registry = MetricsRegistry()
        telemetry.fill_registry(registry, max_timesteps=TIMESTEPS)
        assert f"repro_request_latency_seconds_count {total}\n" in registry.to_prometheus()
        assert int(telemetry.exit_histogram(TIMESTEPS).sum()) == total


class TestConcurrentReader:
    def test_every_export_is_one_consistent_cut(self):
        telemetry = Telemetry()
        total, seen, failures = 20_000, [], []

        def read():
            while not seen or seen[-1] < total:
                registry = MetricsRegistry()
                telemetry.fill_registry(registry, max_timesteps=TIMESTEPS)
                metrics = registry.to_json()
                completed = int(metrics["repro_requests_completed_total"]["value"])
                counts = {
                    metrics[name]["count"] for name in (
                        "repro_request_latency_seconds",
                        "repro_request_queue_delay_seconds",
                        "repro_request_exit_timesteps",
                    )
                }
                snapshot = telemetry.snapshot()
                after = int(telemetry.exit_histogram(TIMESTEPS).sum())
                if counts != {completed}:
                    failures.append(("torn registry", completed, counts))
                if not completed <= snapshot["completed"] <= after:
                    failures.append(("went backwards", completed, snapshot["completed"], after))
                if snapshot["completed"] and not (
                    1.0 <= snapshot["average_exit_timesteps"] <= TIMESTEPS + 1
                    and 0.0 <= snapshot.get("accuracy", 0.0) <= 1.0
                ):
                    failures.append(("torn snapshot", snapshot))
                if seen and completed < seen[-1]:
                    failures.append(("not monotone", seen[-1], completed))
                seen.append(after)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            _record(telemetry, total)
        finally:
            reader.join(timeout=30.0)
        assert not reader.is_alive()
        assert not failures, failures[:3]
        assert seen[-1] == total
