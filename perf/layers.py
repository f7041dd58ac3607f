"""Which methods the traced run wraps, and the per-layer metrics they yield.

Layer names are this repository's module names.  A metric whose layer did no
work in a round is simply not produced; ``perf/worker.py`` reports it as
absent rather than as 0.0.

Replica mode runs batcher, engine, executor and plan ops in a *spawned child
process*: class-level wrappers installed here exist in the parent only, so on
``replica1_dynamic_closed`` those layers are absent and the parent/child CPU
split (``replica.*_cpu_us_per_request``) stands in for them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.core import policies
from repro.imc import IMCChip
from repro.runtime import arena, executor, plan, rings
from repro.serve import batcher, engine, obs, replica, request, server, telemetry, trace
from repro.snn import encoding

from .tracer import Stat, Target

OP_GROUPS = {
    "ConvOp": "conv", "FoldedConvNormOp": "conv", "NormOp": "norm",
    "LIFOp": "lif", "LinearOp": "linear",
    "AvgPoolOp": "pool", "MaxPoolOp": "pool", "AdaptiveAvgPoolOp": "pool",
}


def _is_some(args, result) -> int:
    return 0 if result is None else 1


def _gemm_flops(args, result) -> int:
    """2·(output elements)·(reduction length) of a conv or linear op, from
    the output register and the weight shape — computed, not measured."""
    op, registers = args[0], args[1]
    module = op.conv if isinstance(op, plan.FoldedConvNormOp) else op.module
    return 2 * registers[op.dst].size * math.prod(module.weight.data.shape[1:])


def targets() -> List[Target]:
    """Every public layer-boundary method, with the work count it reports."""
    def method(layer, cls, attr, measure=None):
        return Target(cls, attr, f"{layer}:{cls.__name__}.{attr}", measure)

    found = [
        method("serve.server", server.Server, "submit"),
        method("serve.request", request.AdmissionQueue, "put"),
        method("serve.request", request.AdmissionQueue, "get", _is_some),
        method("serve.request", request.AdmissionQueue, "get_nowait", _is_some),
        method("serve.request", request.Response, "set_result"),
        method("serve.request", request.Response, "set_exception"),
        method("serve.batcher", batcher.ContinuousBatcher, "run_once",
               lambda args, result: len(result)),
        method("serve.engine", engine.InferenceEngine, "admit_batch",
               lambda args, result: len(args[1])),
        method("serve.engine", engine.InferenceEngine, "step"),
        method("snn.encoding", encoding.DirectEncoder, "__call__"),
        method("snn.encoding", encoding.EventFrameEncoder, "__call__"),
        method("runtime.executor", executor.PlanExecutor, "step"),
        method("runtime.executor", executor.PlanExecutor, "extend_rows"),
        method("runtime.executor", executor.PlanExecutor, "compact_rows"),
        method("runtime.plan", plan.StemCache, "lookup_many",
               lambda args, result: len(args[1])),
        method("runtime.plan", plan.StemCache, "store_many",
               lambda args, result: len(args[1])),
        Target(plan, "compile_network", "runtime.plan:compile_network"),
        method("serve.telemetry", telemetry.Telemetry, "record_completion"),
        method("serve.telemetry", telemetry.Telemetry, "record_queue_depth"),
        method("serve.telemetry", telemetry.Telemetry, "record_occupancy"),
        method("serve.telemetry", telemetry.Telemetry, "snapshot"),
        method("serve.telemetry", telemetry.Telemetry, "fill_registry"),
        method("serve.trace", trace.TraceRecorder, "record_request"),
        method("serve.trace", trace.TraceRecorder, "flush"),
        method("serve.obs", obs.SpanTracker, "record"),
        method("serve.obs", obs.SpanTracker, "record_result"),
        method("imc", IMCChip, "energy"),
        method("imc", IMCChip, "latency"),
        method("runtime.rings", rings.RequestRingWriter, "try_write", _is_some),
        method("runtime.rings", rings.RequestRingWriter, "release"),
        method("runtime.rings", rings.CompletionReader, "read",
               lambda args, result: len(result)),
        method("runtime.arena", arena.PlanArena, "export"),
        method("serve.replica", replica.ReplicaPool, "start"),
        method("serve.replica", replica.ReplicaPool, "wait_ready"),
        method("serve.replica", replica.ReplicaPool, "drain"),
    ]
    for policy in (policies.EntropyExitPolicy, policies.StaticExitPolicy):
        found.append(method("core.policies", policy, "should_exit"))
        found.append(method("core.policies", policy, "score"))
    for cls in vars(plan).values():
        if (isinstance(cls, type) and issubclass(cls, plan.PlanOp)
                and "run" in vars(cls) and cls is not plan.PlanOp):
            gemm = OP_GROUPS.get(cls.__name__) in ("conv", "linear")
            found.append(method("runtime.plan", cls, "run",
                                _gemm_flops if gemm else None))
    return found


# --------------------------------------------------------------------------- #
# Spans -> per-layer metrics
# --------------------------------------------------------------------------- #
def _sum(stats: Dict[str, Stat], names: Iterable[str]) -> Optional[Stat]:
    present = [stats[name] for name in names if name in stats]
    if not present:
        return None
    total = Stat()
    for stat in present:
        total = total + stat
    return total


def _layer(stats: Dict[str, Stat], prefix: str) -> Optional[Stat]:
    return _sum(stats, [name for name in stats if name.startswith(prefix)])


US, MS = 1e6, 1e3


def traced_metrics(window: Dict[str, Stat], round_: Dict[str, Stat],
                   requests: int) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``window`` holds the spans of the measured phase, ``round_`` those of the
    whole round (set-up and teardown included — where plans compile, arenas
    export and sinks flush).  ``*_us`` are means per call unless named
    ``_per_request`` / ``_per_step``.
    """
    out: Dict[str, float] = {}

    def per_call(metric, stat, field="busy", calls="calls"):
        if stat is not None and getattr(stat, calls):
            out[metric] = US * getattr(stat, field) / getattr(stat, calls)

    def per(metric, stat, denominator, field="busy", scale=US):
        if stat is not None and denominator:
            out[metric] = scale * getattr(stat, field) / denominator

    submit = window.get("serve.server:Server.submit")
    if submit is not None:
        per_call("server.submit_us", submit)
        per_call("server.submit_self_us", submit, "self_time")
        out["server.submit_calls"] = submit.calls

    gets = _sum(window, ["serve.request:AdmissionQueue.get",
                         "serve.request:AdmissionQueue.get_nowait"])
    if gets is not None:
        per_call("queue.get_us", gets)
        out["queue.get_calls"] = gets.calls
        out["queue.empty_polls"] = gets.calls - gets.working_calls
    per_call("future.resolve_us", _sum(window, [
        "serve.request:Response.set_result", "serve.request:Response.set_exception"]))

    rounds = window.get("serve.batcher:ContinuousBatcher.run_once")
    step = window.get("serve.engine:InferenceEngine.step")
    admit = window.get("serve.engine:InferenceEngine.admit_batch")
    steps = step.calls if step is not None else 0
    if rounds is not None:
        out["batcher.rounds"] = rounds.calls
        out["batcher.idle_rounds"] = rounds.calls - steps
        per("batcher.completions_per_round", rounds, steps, "units", 1)
        per("batcher.admissions_per_round", admit, steps, "units", 1)
        per("batcher.self_us_per_request", rounds, requests, "self_time")
    if step is not None:
        per_call("engine.step_us", step)
        per_call("engine.step_self_us", step, "self_time")
    if admit is not None:
        out["engine.admit_calls"] = admit.working_calls
        per_call("engine.admit_us", admit, "working_busy", "working_calls")
        per_call("engine.admit_self_us", admit, "working_self", "working_calls")

    encoder = _layer(window, "snn.encoding:")
    per("encoder.us_per_step", encoder, steps)
    per("encoder.calls_per_step", encoder, steps, "calls", 1)
    policy = _layer(window, "core.policies:")
    # Entries only: should_exit calls score internally, and that nested call
    # is the same evaluation, not a second one.
    per("policy.us_per_step", policy, steps, "entry_busy")
    per("policy.evals_per_step", policy, steps, "entry_calls", 1)

    run = window.get("runtime.executor:PlanExecutor.step")
    per_call("executor.step_us", run)
    per_call("executor.step_self_us", run, "self_time")
    for short in ("extend", "compact"):
        stat = window.get(f"runtime.executor:PlanExecutor.{short}_rows")
        per_call(f"executor.{short}_us", stat)
        if stat is not None:
            out[f"executor.{short}_calls"] = stat.calls

    ops = {name: stat for name, stat in window.items()
           if name.startswith("runtime.plan:") and name.endswith(".run")}
    if ops and steps:
        groups: Dict[str, float] = {}
        flops = 0
        for name, stat in ops.items():
            cls = name.partition(":")[2].partition(".")[0]
            group = OP_GROUPS.get(cls, "other")
            groups[group] = groups.get(group, 0.0) + stat.busy
            if group in ("conv", "linear"):
                flops += stat.units
        for group, busy in groups.items():
            out[f"ops.{group}_us_per_step"] = US * busy / steps
        out["ops.calls_per_step"] = sum(stat.calls for stat in ops.values()) / steps
        if requests:
            out["ops.gemm_mflop_per_request"] = flops / 1e6 / requests
    per("stem_memo.lookup_us_per_step",
        window.get("runtime.plan:StemCache.lookup_many"), steps)
    per("stem_memo.store_us_per_step",
        window.get("runtime.plan:StemCache.store_many"), steps)
    per("plan.compile_ms", round_.get("runtime.plan:compile_network"), 1, scale=MS)

    per("telemetry.record_us_per_request", _sum(window, [
        "serve.telemetry:Telemetry.record_completion",
        "serve.telemetry:Telemetry.record_queue_depth",
        "serve.telemetry:Telemetry.record_occupancy"]), requests)
    per("telemetry.export_ms", _sum(round_, [
        "serve.telemetry:Telemetry.snapshot",
        "serve.telemetry:Telemetry.fill_registry"]), 1, scale=MS)
    per("wal.record_us_per_request",
        window.get("serve.trace:TraceRecorder.record_request"), requests)
    per("wal.flush_ms", round_.get("serve.trace:TraceRecorder.flush"), 1, scale=MS)
    per("spans.record_us_per_request", _layer(window, "serve.obs:"), requests)
    per("pricing.us_per_request", _layer(window, "imc:"), requests)

    write = window.get("runtime.rings:RequestRingWriter.try_write")
    if write is not None:
        per_call("rings.write_us", write)
        out["rings.writes"] = write.working_calls
        out["rings.inline_fallbacks"] = write.calls - write.working_calls
    read = window.get("runtime.rings:CompletionReader.read")
    if read is not None:
        per_call("rings.read_us", read)
        per("rings.records_per_read", read, read.calls, "units", 1)
    per("arena.export_ms", round_.get("runtime.arena:PlanArena.export"), 1, scale=MS)
    return out
