"""Serve throughput scaling with process replicas over the shared plan arena.

Thread workers (``--workers N``) stop scaling at roughly one core of Python:
the GEMMs release the GIL, the op-dispatch loop does not.  Process replicas
(``--replicas N``) remove the GIL while the :class:`repro.runtime.PlanArena`
keeps the memory story flat — one shared-memory segment holds the plan
constants (weights, running stats, folded conv+norm GEMM arrays) for every
replica, so the constants' resident cost is O(1) in the replica count rather
than O(N).

Method — the canonical-trace workload (docs/OBSERVABILITY.md):

1. one live single-worker serve run records its traffic to a WAL trace
   (:class:`repro.serve.TraceRecorder`) — clips, arrival order, threshold,
   and every recorded decision;
2. every composition (1 worker baseline, N thread workers, N process
   replicas) then replays *that same trace* through
   :class:`repro.serve.TraceReplayer` (median of ``ROUNDS`` replays), so all
   rows measure the identical workload through the identical submission
   machinery — apples to apples by construction;
3. decision-exactness is asserted per replay: every composition must
   reproduce the recorded predictions and exit timesteps bitwise
   (``ReplayReport.exact``), which is the trace-replay regression gate
   doing double duty as the correctness check;
4. the headline single-core ratio lands in ``BENCH_serve_replicas.json``
   as structured data (machine, cores, req/s per composition, arena bytes,
   replica PSS) instead of prose.  Schema v3 drops v2's pipe-transport
   composition and ``dispatch_cost`` block: there is one replica transport,
   and its per-request dispatch cost is ``perf/``'s
   ``replica1_dynamic_closed`` workload.

Scaling assertion: with >= 4 usable cores and full (non-smoke) scale, N=4
replicas must reach >= 2x the single-worker baseline throughput.  On fewer
cores there is no parallel hardware for replicas to use — the run reports
the measured ratio and notes why the gate is skipped (this keeps the bench
honest on 1- and 2-core CI boxes; the 2x criterion is a multi-core claim).
"""

import os
import statistics

from _bench_utils import SMOKE, emit, emit_bench_json, print_section
from repro.core import EntropyExitPolicy
from repro.imc import format_table
from repro.serve import (
    Server,
    TraceRecorder,
    TraceReplayer,
    load_trace,
    request_stream,
)

REPLICAS = 4
ROUNDS = 3
NUM_REQUESTS = 120 if SMOKE else 240
BATCH_WIDTH = 8
STREAM_SEED = 29


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _replica_pss_kb(server) -> float:
    """Total proportional-set-size of the replica processes (Linux)."""
    total = 0.0
    for process in server.replicas.processes:
        try:
            with open(f"/proc/{process.pid}/smaps_rollup", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total += float(line.split()[1])
                        break
        except OSError:  # pragma: no cover - process already gone
            pass
    return total


def _build_server(experiment, threshold, *, num_workers=1, num_replicas=0,
                  trace=None):
    return Server(
        experiment.model,
        EntropyExitPolicy(threshold),
        max_timesteps=experiment.timesteps,
        batch_width=BATCH_WIDTH,
        queue_capacity=max(64, NUM_REQUESTS),
        num_workers=num_workers,
        num_replicas=num_replicas,
        trace=trace,
    )


def _record_canonical_trace(experiment, threshold, stream, path):
    """One live single-worker serve run, recorded to the WAL at ``path``."""
    recorder = TraceRecorder(path, meta={
        "bench": "serve_replicas",
        "threshold": float(threshold),
        "max_timesteps": experiment.timesteps,
        "batch_width": BATCH_WIDTH,
    })
    server = _build_server(experiment, threshold, num_workers=1, trace=recorder)
    server.start()
    try:
        futures = [server.submit(inputs, label=label) for inputs, label in stream]
        for future in futures:
            future.result(timeout=300.0)
    finally:
        server.shutdown(drain=True)
        recorder.close()
    return load_trace(path)


def _replay_once(experiment, threshold, trace, *, num_workers=1, num_replicas=0):
    server = _build_server(
        experiment, threshold, num_workers=num_workers, num_replicas=num_replicas,
    ).start()
    pss_kb = None
    try:
        if num_replicas:
            pss_kb = _replica_pss_kb(server)
        replayer = TraceReplayer(trace, verify=True)
        report = replayer.replay(server)
        replayer.assert_exact(report)
    finally:
        server.shutdown(drain=True)
    arena_bytes = (
        server.replicas.arena.spec.size if server.replicas is not None else None
    )
    return report.throughput_rps, arena_bytes, pss_kb


def _median_rps(experiment, threshold, trace, **kwargs):
    runs = [
        _replay_once(experiment, threshold, trace, **kwargs) for _ in range(ROUNDS)
    ]
    rps = statistics.median(run[0] for run in runs)
    return rps, runs[0][1], runs[0][2]


def test_replica_scaling(benchmark, suite, tmp_path):
    # Width-doubled model: per-request compute must outweigh the ~0.1 ms
    # per-request IPC cost for process scaling to mean anything — the
    # shared tiny model serves at ~0.12 ms/request in-process, a regime
    # where no dispatch mechanism beats staying in-process.
    experiment = suite.get("vgg", "cifar10", width_multiplier=2.0)
    experiment.model.eval()
    point = experiment.calibrated_point(tolerance=0.0)
    stream = list(
        request_stream(experiment.test_dataset, NUM_REQUESTS, seed=STREAM_SEED)
    )
    trace_path = str(tmp_path / "canonical_trace.jsonl")
    trace = _record_canonical_trace(experiment, point.threshold, stream, trace_path)
    assert len(trace.records) == NUM_REQUESTS and not trace.truncated

    def run():
        baseline = _median_rps(experiment, point.threshold, trace, num_workers=1)
        threads = _median_rps(
            experiment, point.threshold, trace, num_workers=REPLICAS
        )
        replicas = _median_rps(
            experiment, point.threshold, trace, num_replicas=REPLICAS
        )
        return baseline, threads, replicas

    baseline, threads, replicas = benchmark.pedantic(run, rounds=1, iterations=1)
    base_rps, _, _ = baseline
    thread_rps, _, _ = threads
    replica_rps, arena_bytes, pss_kb = replicas

    cores = _cores()
    print_section(
        f"Serve scaling: 1 worker vs {REPLICAS} threads vs {REPLICAS} process "
        f"replicas ({cores} core(s), canonical trace of {NUM_REQUESTS} requests, "
        f"median of {ROUNDS} replays)"
    )
    emit(format_table(
        ["configuration", "req/s", "vs baseline"],
        [
            ["1 thread worker (baseline)", base_rps, 1.0],
            [f"{REPLICAS} thread workers (GIL-bound)", thread_rps,
             thread_rps / base_rps],
            [f"{REPLICAS} process replicas", replica_rps, replica_rps / base_rps],
        ],
        float_format="{:.2f}",
    ))
    emit(f"\nplan arena: one shared segment of {arena_bytes} bytes serves all "
         f"{REPLICAS} replicas ({arena_bytes // REPLICAS} bytes/replica amortized; "
         "constants are exported once, attached zero-copy, so the arena cost is "
         "O(1) in the replica count)")
    if pss_kb:
        emit(f"replica private memory: {pss_kb:.0f} kB PSS total across "
             f"{REPLICAS} processes at start of serving (interpreter + executor "
             "state; the weights live in the shared segment above)")
    emit("\nall compositions replayed the canonical trace decision-exact "
         f"({NUM_REQUESTS}/{NUM_REQUESTS} requests bitwise vs the recording)")

    emit_bench_json("serve_replicas", {
        # v3: the pipe-transport composition and the dispatch_cost block
        # of v2 are gone with the transport they measured.
        "schema_version": 3,
        "workload": {
            "kind": "trace_replay",
            "num_requests": NUM_REQUESTS,
            "batch_width": BATCH_WIDTH,
            "threshold": float(point.threshold),
            "rounds": ROUNDS,
        },
        "cores": cores,
        "compositions": {
            "baseline_1_worker": {"throughput_rps": base_rps, "ratio": 1.0},
            f"{REPLICAS}_thread_workers": {
                "throughput_rps": thread_rps, "ratio": thread_rps / base_rps,
            },
            f"{REPLICAS}_process_replicas": {
                "throughput_rps": replica_rps, "ratio": replica_rps / base_rps,
                "arena_bytes": arena_bytes,
                "replica_pss_kb": pss_kb,
            },
        },
        "single_core_ratio": replica_rps / base_rps if cores < 4 else None,
        "multicore_ratio": replica_rps / base_rps if cores >= 4 else None,
        "decision_exact": True,
    })

    if SMOKE:
        emit("smoke mode: throughput gate skipped")
        return
    if cores < 4:
        emit(f"only {cores} core(s) visible: the >=2x replica gate needs >=4 "
             f"cores of real parallelism; measured ratio {replica_rps / base_rps:.2f}x "
             "recorded in BENCH_serve_replicas.json")
        return
    assert replica_rps >= 2.0 * base_rps, (
        f"{REPLICAS} replicas reached only {replica_rps / base_rps:.2f}x the "
        "single-worker baseline"
    )
