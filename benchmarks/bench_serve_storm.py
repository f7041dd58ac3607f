"""Overload resilience under a load storm — guarded vs. unguarded serving.

The storm guard (docs/RESILIENCE.md) turns overload from a failure mode into
a policy: WARN sheds low-priority traffic at the door, STORM admits only the
high class and browns accuracy out (aggressive threshold + capped horizon)
so the backlog drains instead of queueing to death.  This benchmark offers
the *same* calm → 4x-capacity storm → calm profile, with the same priority
mix and per-request deadlines, to two servers:

* unguarded — the pre-storm-guard stack: a bounded queue is the only
  defence, so overload shows up as indiscriminate queue-full drops and
  deadline expiries that cost engine work before being dropped;
* guarded   — the storm-guard FSM over the identical stack.

Reported per configuration: accepted-high-priority p95/p99, outcome split
(completed / shed / queue-full / expired), sheds by class, brown-out
completions and the storm-state arc.  Asserted (timing-free): outcome
conservation, shed-by-class monotonicity under the uniform mix (the guard
never sheds the high class at the door), and FSM recovery to NORMAL.  The
high-class answer rate of guarded vs. unguarded is reported, not asserted —
wall-clock scheduling jitter decides individual queue-full races.
"""

import numpy as np

from _bench_utils import SMOKE, emit, emit_bench_json, print_section
from repro.core import EntropyExitPolicy
from repro.imc import format_table
from repro.serve import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    LoadGenerator,
    Server,
    StormConfig,
    StormState,
    priority_cycle,
    request_stream,
    storm_phases,
)

NUM_REQUESTS = 90 if SMOKE else 180
BATCH_WIDTH = 2  # narrow on purpose: capacity must sit below the offerable rate
QUEUE_CAPACITY = 32
STREAM_SEED = 31
MIX = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)


def _server(experiment, threshold, storm=None):
    return Server(
        experiment.model,
        EntropyExitPolicy(threshold),
        max_timesteps=experiment.timesteps,
        batch_width=BATCH_WIDTH,
        queue_capacity=QUEUE_CAPACITY,
        storm=storm,
    ).start()


def _storm_run(experiment, threshold, stream, capacity, deadline, storm=None):
    server = _server(experiment, threshold, storm=storm)
    base_rate = 0.5 * capacity  # the storm phase offers 8x that: 4x capacity
    generator = LoadGenerator(
        server,
        block=False,
        phases=storm_phases(
            base_rate, storm_multiplier=8.0,
            warmup=(len(stream) // 6) / base_rate,
            storm=(7 * len(stream) // 12) / (8.0 * base_rate),
            recovery=(len(stream) // 4) / base_rate,
        ),
        priorities=priority_cycle({p: 1 for p in MIX}),
        deadline=deadline,
    )
    report = generator.run(iter(stream))
    if server.storm is not None:
        # The stream is drained; let the FSM walk home on calm evaluations.
        for _ in range(10 * server.storm.config.cooldown):
            if server.storm.observe() == StormState.NORMAL:
                break
    server.shutdown(drain=True)
    return report, server


def _high_priority_latencies(report):
    return [
        result.latency
        for result, index in zip(report.results, report.accepted_indices)
        if MIX[index % len(MIX)] == PRIORITY_HIGH
    ]


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def test_serve_storm_resilience(benchmark, suite):
    experiment = suite.get("vgg", "cifar10")
    point = experiment.calibrated_point()
    stream = list(
        request_stream(experiment.test_dataset, NUM_REQUESTS, seed=STREAM_SEED)
    )

    def run():
        # Capacity calibration: closed-loop over the same stream and knobs.
        server = _server(experiment, point.threshold)
        calibration = LoadGenerator(server).run(iter(stream))
        server.shutdown(drain=True)
        capacity = max(calibration.throughput_rps, 1.0)
        deadline = max(4.0 * calibration.stats.get("latency_p95", 0.0), 0.1)

        unguarded_report, unguarded_server = _storm_run(
            experiment, point.threshold, stream, capacity, deadline)
        guard_config = StormConfig(
            queue_warn=0.4,
            queue_storm=0.65,
            horizon_cap=max(1, experiment.timesteps - 1),
            brownout_threshold=min(1.0, 2.0 * float(point.threshold)),
        )
        guarded_report, guarded_server = _storm_run(
            experiment, point.threshold, stream, capacity, deadline,
            storm=guard_config)
        return (capacity, deadline, unguarded_report, unguarded_server,
                guarded_report, guarded_server)

    (capacity, deadline, unguarded_report, unguarded_server,
     guarded_report, guarded_server) = benchmark.pedantic(
        run, rounds=1, iterations=1)

    # ---- invariants (timing-free) --------------------------------------- #
    for report in (unguarded_report, guarded_report):
        assert (report.completed + report.dropped + report.expired
                == report.offered)
    sheds = guarded_server.telemetry.storm_shed_by_class
    assert sheds.get(PRIORITY_HIGH, 0) == 0
    assert (sheds.get(PRIORITY_LOW, 0) >= sheds.get(PRIORITY_NORMAL, 0)
            >= sheds.get(PRIORITY_HIGH, 0))
    assert guarded_server.storm.state == StormState.NORMAL

    offered_high = sum(1 for i in range(len(stream))
                       if MIX[i % len(MIX)] == PRIORITY_HIGH)
    high_answered = {
        name: len(_high_priority_latencies(report))
        for name, report in (("unguarded", unguarded_report),
                             ("guarded", guarded_report))
    }

    # ---- report ---------------------------------------------------------- #
    print_section("Load-storm resilience: storm-guard admission + brown-out")
    emit(f"capacity {capacity:.1f} req/s; storm offers 4x; "
         f"deadline {1000.0 * deadline:.1f} ms; "
         f"{NUM_REQUESTS} requests, uniform high/normal/low mix")
    rows = []
    for name, report, server in (
        ("unguarded", unguarded_report, unguarded_server),
        ("guarded", guarded_report, guarded_server),
    ):
        high = _high_priority_latencies(report)
        class_sheds = server.telemetry.storm_shed_by_class
        rows.append([
            name,
            float(report.completed),
            float(report.dropped),
            float(report.expired),
            float(class_sheds.get(PRIORITY_LOW, 0)
                  + class_sheds.get(PRIORITY_NORMAL, 0)),
            float(len(high)),
            1000.0 * _percentile(high, 95),
            1000.0 * _percentile(high, 99),
        ])
    emit(format_table(
        ["configuration", "completed", "dropped", "expired",
         "storm sheds", "high done", "high p95 (ms)", "high p99 (ms)"],
        rows, float_format="{:.1f}"))
    browned = sum(1 for r in guarded_report.results if r.brownout)
    emit(f"\nguarded arc: peak state "
         f"{guarded_server.telemetry.storm_peak} "
         f"(2=STORM), {guarded_server.telemetry.storm_transitions} "
         f"transition(s), {browned} brown-out completion(s), "
         f"final state {guarded_server.storm.state}")

    emit_bench_json("serve_storm", {
        "num_requests": NUM_REQUESTS,
        "capacity_rps": capacity,
        "deadline_ms": 1000.0 * deadline,
        "offered_high": offered_high,
        "unguarded": {
            "completed": unguarded_report.completed,
            "dropped": unguarded_report.dropped,
            "expired": unguarded_report.expired,
            "high_answered": high_answered["unguarded"],
            "high_p99_ms": 1000.0 * _percentile(
                _high_priority_latencies(unguarded_report), 99),
        },
        "guarded": {
            "completed": guarded_report.completed,
            "dropped": guarded_report.dropped,
            "expired": guarded_report.expired,
            "high_answered": high_answered["guarded"],
            "high_p99_ms": 1000.0 * _percentile(
                _high_priority_latencies(guarded_report), 99),
            "storm_sheds_by_class": {
                str(k): v for k, v in sorted(
                    guarded_server.telemetry.storm_shed_by_class.items())},
            "brownout_completions": browned,
            "storm_peak": guarded_server.telemetry.storm_peak,
            "storm_transitions": guarded_server.telemetry.storm_transitions,
            "recovered": guarded_server.storm.state == StormState.NORMAL,
        },
    })
