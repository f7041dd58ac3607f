"""Run ONE workload in this process and print one JSON document.

``perf/run.py`` starts this file once per workload so that ``peak_rss_mb``
and the cold plan registry are per workload and fixture training never
shares a process with a measurement.  Replicas use ``spawn`` and re-import
this file as ``__mp_main__``: everything below the imports is definitions,
and all work happens under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np  # noqa: E402

from repro.core import EntropyExitPolicy, StaticExitPolicy  # noqa: E402
from repro.imc import IMCChip  # noqa: E402
from repro.runtime import plan_for, plan_registry  # noqa: E402
from repro.serve import (  # noqa: E402
    MetricsRegistry,
    Server,
    SpanTracker,
    TraceRecorder,
    load_trace,
)

from perf import declared, fixtures, layers, loadgen  # noqa: E402
from perf.tracer import Tracer, aggregate, thread_coverage  # noqa: E402
from perf.workloads import (  # noqa: E402
    BATCH_WIDTH,
    COMMON_PREFIX,
    DISTURBED_LAG_MS,
    QUICK_REQUESTS,
    QUICK_WARMUP_REQUESTS,
    WARMUP_REQUESTS,
    WORKLOADS,
    Workload,
)

WORKER_THREAD = "repro-serve-0"


def _child_cpu_seconds(pid: int) -> float:
    """CPU seconds a *live* child process has used so far.

    ``RUSAGE_CHILDREN`` only counts children already reaped, which would
    fold interpreter start-up and warm-up into the measured round.  Linux
    exposes every process's CPU-time clock under a clock id derived from its
    pid (``clock_getcpuclockid(3)``: ``(~pid << 3) | 2``).
    """
    return time.clock_gettime((~pid << 3) | 2)


def _peak_rss_mib(pid: int) -> float:
    """High-water resident set of a live process (``VmHWM``).

    Not ``ru_maxrss``: across fork+exec Linux carries the *parent's*
    high-water mark into the child, so a worker started by a process that
    has just trained a model, or a replica spawned by a warm worker, would
    report its parent's memory.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _pin_process(pid: int, cpu: int) -> None:
    """Every thread of a live process onto one processor."""
    for task in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(task), {cpu})


def _digest(predictions: np.ndarray, exits: np.ndarray) -> str:
    pairs = np.stack([predictions, exits], axis=1).astype(np.int32)
    return hashlib.blake2b(pairs.tobytes(), digest_size=16).hexdigest()


@dataclass
class Round:
    traced: bool
    sent: int
    #: refused + errored + timed out + decision mismatches
    failed: int
    measured_s: float
    child_rss_mib: float
    digest: str
    prefix_digest: str
    metrics: Dict[str, float]
    violations: List[str] = field(default_factory=list)
    disturbed: bool = False


@dataclass
class Context:
    """Everything a round needs that is built once per process."""

    workload: Workload
    fixture: fixtures.Fixture
    measured: loadgen.Requests
    warm: loadgen.Requests
    expected_predictions: np.ndarray
    expected_exits: np.ndarray
    chip: IMCChip
    #: EDP of a request by exit timestep (index 0 unused) — all the cost
    #: model looks at, and the last entry is the static baseline.
    edp_by_exit: np.ndarray
    scratch: Path
    #: The processor the model runs on — this process's own, or the replica's
    #: (``run_workload`` pins them) — and so the one whose speed is read.
    model_cpu: Optional[int] = None

    def policy(self):
        return make_policy(self.workload, self.fixture)


def make_policy(workload: Workload, fixture: fixtures.Fixture):
    """A fresh policy object per server: θ at iso-accuracy, or static T."""
    if workload.dynamic:
        return EntropyExitPolicy(threshold=fixture.threshold)
    return StaticExitPolicy()


def build_context(workload: Workload, scratch: Path, seed: int, quick: bool) -> Context:
    """``scratch`` holds the fixture checkpoints and receives the WAL files."""
    fixture = fixtures.load_fixture(fixtures.FIXTURES[workload.fixture], scratch)
    count = QUICK_REQUESTS if quick else workload.requests
    warmup = QUICK_WARMUP_REQUESTS if quick else WARMUP_REQUESTS
    stream = fixtures.build_stream(fixture, count, seed, workload.fresh_odd)
    predictions, exits = fixtures.oracle_decisions(
        fixture, make_policy(workload, fixture), stream)
    chip = IMCChip.from_network(
        fixture.model, fixture.test.inputs[:4],
        num_classes=fixture.test.num_classes, trace_timesteps=2,
    )
    return Context(
        workload=workload, fixture=fixture, measured=stream.requests(),
        # Its own seed: warm-up must not pre-answer the measured requests'
        # fresh-clip memo lookups.
        warm=fixtures.build_stream(fixture, warmup, seed + 1, workload.fresh_odd).requests(),
        expected_predictions=predictions, expected_exits=exits, chip=chip,
        edp_by_exit=np.array([0.0] + [
            float(chip.energy(t)) * float(chip.latency(t))
            for t in range(1, fixture.timesteps + 1)
        ]),
        scratch=scratch,
    )


# --------------------------------------------------------------------------- #
# One round
# --------------------------------------------------------------------------- #
def run_round(context: Context, index: int, tracer: Optional[Tracer]) -> Round:
    """cold plan registry → fresh server → warm-up → measured requests → drain."""
    workload, fixture = context.workload, context.fixture
    model, horizon = fixture.model, fixture.timesteps
    measured, warm = context.measured, context.warm
    wal_path = context.scratch / f"wal-{index}.jsonl"
    recorder = spans = None

    if tracer is not None:
        tracer.install(layers.targets())
    try:
        plan_registry.invalidate(model)
        # The box's slowness before set-up, after it, and after each segment.
        slowness = [loadgen.box_slowness(context.model_cpu)]
        setup_began = time.perf_counter()
        sinks = {}
        if workload.observed:
            recorder = TraceRecorder(str(wal_path), store_clips=True)
            spans = SpanTracker()
            sinks = dict(trace=recorder, spans=spans, cost_model=context.chip)
        server = Server(
            model, context.policy(), max_timesteps=horizon,
            batch_width=BATCH_WIDTH, queue_capacity=workload.queue_capacity,
            num_workers=1, num_replicas=workload.replicas, **sinks,
        )
        server.start()
        if workload.replicas and context.model_cpu is not None:
            _pin_process(server.replicas.processes[0].pid, context.model_cpu)
        ready_s = time.perf_counter() - setup_began
        try:
            warmed = loadgen.closed_loop(server, warm)
            setup_s = time.perf_counter() - setup_began
            slowness.append(loadgen.box_slowness(context.model_cpu))

            engine = server.batchers[0].engine if server.batchers else None
            memo = plan_for(model).stem_cache if engine is not None else None
            child_pid = server.replicas.processes[0].pid if workload.replicas else None
            steps0, rows0 = (
                (engine.total_steps, engine.total_sample_timesteps) if engine else (0, 0)
            )
            lookups0, hits0 = (memo.hits + memo.misses, memo.hits) if memo else (0, 0)

            def cpu_clocks():
                return (time.process_time(),
                        _child_cpu_seconds(child_pid) if child_pid else 0.0)

            window_began = time.perf_counter()
            segments = []
            for start in range(0, len(measured), workload.segment):
                chunk = measured[start:start + workload.segment]
                if workload.open_loop:
                    segments.append(loadgen.open_loop(
                        server, chunk, workload.rate, workload.burst, mark=cpu_clocks))
                else:
                    segments.append(loadgen.closed_loop(server, chunk, mark=cpu_clocks))
                slowness.append(loadgen.box_slowness(context.model_cpu))
            window = (window_began, time.perf_counter())
            outcome = loadgen.merge(segments)
            parent_cpu, child_cpu = np.sum(
                [segment.cpu_seconds() for segment in segments], axis=0)
            child_rss_mib = _peak_rss_mib(child_pid) if child_pid else 0.0
        except BaseException:
            server.shutdown(drain=False)
            raise
        drain_began = time.perf_counter()
        server.shutdown(drain=True)
        drain_s = time.perf_counter() - drain_began
        if workload.observed:
            # What an operator does after a drain: one stats() and one
            # registry export (telemetry.export_ms).
            server.stats()
            registry = MetricsRegistry()
            server.telemetry.fill_registry(registry, max_timesteps=horizon)
            registry.to_json()
            registry.to_prometheus()
    finally:
        if tracer is not None:
            tracer.uninstall()
    gauges = server.telemetry.snapshot()
    completed = outcome.completed()
    done = len(completed)
    served = len(warm) + done

    # ---- correctness and conservation ---------------------------------- #
    # A request that was refused or whose future failed keeps the -1
    # placeholders and therefore counts as a decision mismatch too.
    predictions = np.array([-1 if r is None else r.prediction for r in outcome.results])
    exits = np.array([-1 if r is None else r.exit_timestep for r in outcome.results])
    failed = int(np.sum(
        (predictions != context.expected_predictions) | (exits != context.expected_exits)
    ))
    violations = list(outcome.errors[:5])
    if len(warmed.completed()) != len(warm):
        violations.append(f"warm-up completed {len(warmed.completed())} of {len(warm)}")
    if server.telemetry.completed != served:
        violations.append(
            f"telemetry counts {server.telemetry.completed} completions, clients saw {served}"
        )
    if server.telemetry.rejected + server.telemetry.shed != outcome.sent - done:
        violations.append("server-side rejected+shed disagrees with the clients' count")
    metrics: Dict[str, float] = {}
    if recorder is not None:
        recorder.close()
        recorded = load_trace(str(wal_path), load_clips=False)
        if recorded.truncated or len(recorded.records) != served:
            violations.append(f"WAL holds {len(recorded.records)} records for {served} completions")
        metrics["wal.bytes_per_request"] = wal_path.stat().st_size / served
        for leftover in (wal_path, Path(recorder.clips_path)):
            leftover.unlink()
        if spans.open_spans():
            violations.append(f"{len(spans.open_spans())} spans still open after drain")

    # ---- end-to-end metrics -------------------------------------------- #
    latency_ms = 1e3 * outcome.latencies()
    exit_steps = np.array([r.exit_timestep for r in completed])
    # The server prices requests only on the observed workload; the others
    # are priced here, the same way, from the exit timesteps they served.
    edp = (np.array([r.edp for r in completed]) if workload.observed
           else context.edp_by_exit[exit_steps])
    # Timing metrics: each segment's best window at the reference box's speed
    # (its slowness is the mean of the readings before and after it), then the
    # median segment.  around[0] brackets set-up, around[1:] the segments.
    around = np.add(slowness[:-1], slowness[1:]) / 2.0
    per_segment = [loadgen.segment_stats(segment, workload.slo_ms, slow)
                   for segment, slow in zip(segments, around[1:])]
    timing = {key: np.median([stats[key] for stats in per_segment]) for key in per_segment[0]}
    metrics.update({
        # An open loop completes what it is offered whatever the box's speed,
        # so its rate is the whole round's, as measured.
        "throughput_rps": done / outcome.wall() if workload.open_loop else timing["rps"],
        "cpu_us_per_request": timing["cpu_us"],
        "latency_p50_ms": timing["p50_ms"],
        "latency_p90_ms": timing["p90_ms"],
        "slo_ok_share": timing["slo_ok"],
        "avg_exit_timesteps": exit_steps.mean(),
        "accuracy": np.mean([r.correct for r in completed]),
        "edp_ratio_vs_static": edp.mean() / context.edp_by_exit[-1],
        "setup_s": setup_s / around[0],
    })

    # ---- per-layer metrics from public counters and results ------------- #
    metrics["server.refused"] = outcome.refused
    wait_ms = [1e3 * r.queue_delay for r in completed]
    metrics["queue.wait_p50_ms"] = np.percentile(wait_ms, 50)
    metrics["queue.wait_p90_ms"] = np.percentile(wait_ms, 90)
    metrics["engine.service_p50_ms"] = np.percentile(
        [1e3 * r.service_time for r in completed], 50)
    if "queue_depth_mean" in gauges:
        metrics["queue.depth_mean"] = gauges["queue_depth_mean"]
    if "occupancy_mean" in gauges:
        metrics["batcher.occupancy_mean"] = gauges["occupancy_mean"]
    if engine is not None:
        steps = engine.total_steps - steps0
        rows = engine.total_sample_timesteps - rows0
        metrics["engine.steps"] = steps
        metrics["engine.sample_timesteps"] = rows
        metrics["engine.rows_per_step"] = rows / steps
    if memo is not None and memo.hits + memo.misses > lookups0:
        metrics["stem_memo.hit_share"] = (
            (memo.hits - hits0) / (memo.hits + memo.misses - lookups0))
        metrics["stem_memo.entries"] = len(memo)
    if workload.replicas:
        metrics["arena.bytes"] = server.replicas.arena.spec.size
        metrics["replica.ready_s"] = ready_s
        metrics["replica.drain_s"] = drain_s
        metrics["replica.parent_cpu_us_per_request"] = 1e6 * parent_cpu / done
        metrics["replica.child_cpu_us_per_request"] = 1e6 * child_cpu / done
    metrics["loadgen.box_slowness"] = np.median(slowness)
    metrics["loadgen.round_rps"] = done / outcome.wall()
    metrics["loadgen.round_cpu_us_per_request"] = 1e6 * (parent_cpu + child_cpu) / done
    metrics["loadgen.round_latency_p50_ms"] = np.percentile(latency_ms, 50)
    metrics["loadgen.round_latency_p90_ms"] = np.percentile(latency_ms, 90)
    metrics["loadgen.round_slo_ok_share"] = np.sum(latency_ms <= workload.slo_ms) / outcome.sent
    disturbed = False
    if workload.open_loop:
        lag_p99 = np.percentile(1e3 * outcome.lags(), 99)
        disturbed = bool(lag_p99 > DISTURBED_LAG_MS)
        metrics["loadgen.lag_p99_ms"] = lag_p99
        metrics["loadgen.offered_rps"] = (
            sum(segment.sent - 1 for segment in segments)
            / sum(segment.due[-1] - segment.due[0] for segment in segments))
        metrics["loadgen.latency_p95_ms"] = np.percentile(latency_ms, 95)
        metrics["loadgen.latency_p99_ms"] = np.percentile(latency_ms, 99)

    # ---- per-layer metrics from spans ---------------------------------- #
    if tracer is not None:
        recorded_spans = tracer.take()
        in_window = aggregate(recorded_spans, window)
        metrics.update(layers.traced_metrics(in_window, aggregate(recorded_spans), done))
        metrics["trace.spans"] = sum(stat.calls for stat in in_window.values())
        if engine is not None:
            metrics["trace.coverage_share"] = thread_coverage(
                recorded_spans, WORKER_THREAD, window)

    prefix = min(len(measured), COMMON_PREFIX)
    return Round(
        traced=tracer is not None, sent=outcome.sent, failed=failed,
        measured_s=window[1] - window[0], child_rss_mib=child_rss_mib, digest=_digest(predictions, exits),
        prefix_digest=_digest(predictions[:prefix], exits[:prefix]),
        metrics={name: float(value) for name, value in metrics.items()},
        violations=violations, disturbed=disturbed,
    )


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def run_workload(workload: Workload, scratch: Path, seed: int,
                 seconds: float, trace: bool, quick: bool) -> dict:
    """Rounds until ``seconds`` of measured time have passed (at least three;
    one when quick), then medians.  A traced run alternates traced and
    untraced rounds so the tracing overhead is measured in the same process.

    The calling thread, and with it every server thread, is pinned to one
    processor for the duration, and a replica to another if there is one: on
    a shared host each vCPU changes speed on its own, by up to 1.6x for
    seconds at a time, and a server whose threads wander between them
    measures where the scheduler put it.
    """
    declaration = declared.load()
    context = build_context(workload, scratch, seed, quick)
    allowed = sorted(os.sched_getaffinity(0))
    context.model_cpu = allowed[-1] if workload.replicas else allowed[0]
    tracer = Tracer() if trace else None
    minimum = (2 if trace else 1) if quick else 3
    rounds: List[Round] = []
    measured_s = 0.0
    os.sched_setaffinity(0, {allowed[0]})
    try:
        while len(rounds) < minimum or (not quick and measured_s < seconds):
            traced = trace and len(rounds) % 2 == 0
            rounds.append(run_round(context, len(rounds), tracer if traced else None))
            measured_s += rounds[-1].measured_s
    finally:
        os.sched_setaffinity(0, allowed)

    violations = [v for r in rounds for v in r.violations]
    if len({r.digest for r in rounds}) != 1:
        violations.append("decision digest differs between rounds")

    plain = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    section = "per_layer" if trace else "end_to_end"
    values: Dict[str, List[float]] = {}
    for entry in declaration[section]:
        # Untraced rounds first: a number available without tracing is not
        # taken from a round that tracing slowed down.
        for source in (plain, traced_rounds):
            samples = [r.metrics[entry["name"]] for r in source if entry["name"] in r.metrics]
            if samples:
                values[entry["name"]] = samples
                break
    if trace:
        values["fixture.train_s"] = [context.fixture.train_s]
        values["fixture.calibrate_s"] = [context.fixture.calibrate_s]
        values["trace.overhead_share"] = [
            1.0 - statistics.median(r.metrics["loadgen.round_rps"] for r in traced_rounds)
            / statistics.median(r.metrics["loadgen.round_rps"] for r in plain)
        ]
    else:
        values["peak_rss_mb"] = [
            _peak_rss_mib(os.getpid()) + max(r.child_rss_mib for r in rounds)
        ]

    units = {entry["name"]: entry["unit"] for entry in declaration[section]}
    sent = sum(r.sent for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": trace,
        "quick": quick,
        "rounds": len(rounds),
        "requests_sent": sent,
        "requests_ok": sent - failed,
        "requests_failed": failed,
        "violations": violations,
        "disturbed_rounds": sum(r.disturbed for r in rounds),
        "decision_digest": rounds[0].digest,
        "prefix_digest": rounds[0].prefix_digest,
        "metrics": {
            name: {**declared.summarize(samples), "unit": units[name]}
            for name, samples in values.items()
        },
        "absent": sorted(set(units) - set(values)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--fixtures", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    document = run_workload(
        WORKLOADS[args.workload], args.fixtures, args.seed,
        args.seconds, bool(args.trace), args.quick,
    )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
