"""repro.serve — a continuous-batching inference runtime for DT-SNN.

The paper shows that input-aware dynamic timesteps save compute per sample;
this package turns that saving into *throughput*.  The pieces, front to back:

* :class:`Request` / :class:`Response` / :class:`AdmissionQueue` — a bounded
  admission queue with blocking or fail-fast backpressure.
* :class:`InferenceEngine` — slot-based dynamic-timestep inference over a
  :class:`~repro.snn.SpikingNetwork`: one batched forward per timestep at a
  width equal to the number of live requests, with per-slot membrane state,
  local timestep counters and running logit sums.  Steps execute through the
  :mod:`repro.runtime` compiled-plan fast path by default (bitwise identical
  to the Tensor path, which stays available via ``use_runtime=False``).
* :class:`ContinuousBatcher` — refills slots freed by early exits from the
  queue *mid-horizon* in one batched admission round per refill, so the SNN
  always runs at full occupancy and a burst of B arrivals costs one state
  extension + one stem GEMM, not B of each.
* :class:`Server` — workers, futures, graceful drain.  With
  ``num_workers=N`` the workers are threads serving one model through one
  *shared* compiled plan (``repro.runtime.plan_registry``) with per-worker
  executor state; with ``num_replicas=N`` they are processes sharing the
  plan constants zero-copy through a shared-memory arena
  (:class:`~repro.serve.ReplicaPool`, ``repro.runtime.PlanArena``) — the
  GIL-free scaling axis, with typed crash isolation
  (:class:`ReplicaCrashError`).
* :class:`Telemetry` — latency percentiles, exit-timestep histograms, queue
  depth, occupancy and per-request energy/EDP via ``repro.imc``.
* :class:`AdaptiveThresholdController` — holds a p95 latency SLA by nudging
  the entropy threshold between calibrated accuracy bounds.
* :class:`StormGuard` — a load-storm FSM (NORMAL → WARN → STORM with
  hysteresis) over the admission queue: sheds by priority class, drops
  deadline-expired requests, and browns accuracy out gracefully under
  sustained overload (docs/RESILIENCE.md).  Threshold/horizon knobs are
  versioned :class:`ThresholdEpoch` stamps fixed at admission, so every
  recorded decision names the exact knob values its engine slot evaluated.
* :class:`LoadGenerator` / :func:`request_stream` — deterministic open- and
  closed-loop load for benchmarks and tests.
* :class:`TraceRecorder` — a WAL-style traffic trace (every admitted
  request with its clip digest, arrival offset, threshold and recorded
  decision, plus a content-addressed clip store; docs/OBSERVABILITY.md).
* :class:`SpanTracker` / :class:`MetricsRegistry` — per-request lifecycle
  spans (queued → dispatched → admitted → exited → completed) and a
  Prometheus/JSON-exportable metrics registry fed by :class:`Telemetry`.
* :class:`Backtester` / :class:`BacktestSweep` — the one trace driver.
  Its recorded baseline (:meth:`Backtester.replay`) re-serves a trace under
  the knobs it was recorded with against any server composition and diffs
  every decision bitwise; a sweep replays it under *candidate*
  :class:`ThresholdSchedule` knobs instead, scores each candidate against
  the full-horizon oracle, and emits a Pareto frontier (agreement vs. EDP
  vs. modeled p99) whose decisions are bitwise-identical across server
  compositions (docs/OBSERVABILITY.md §2, §5).

Quickstart::

    from repro.serve import Server, request_stream, LoadGenerator
    from repro.core import EntropyExitPolicy

    server = Server(model, EntropyExitPolicy(0.2), batch_width=8).start()
    report = LoadGenerator(server).run(request_stream(test_set, 256, seed=0))
    server.shutdown()
    print(report.throughput_rps, server.stats()["latency_p95"])
"""

from .backtest import (
    BACKTEST_SCHEMA_VERSION,
    Backtester,
    BacktestSweep,
    CandidateResult,
    RecordedSchedule,
    ScheduleSegment,
    SweepResult,
    ThresholdSchedule,
    decision_digest,
    pareto_frontier,
)
from .batcher import ContinuousBatcher
from .controller import AdaptiveThresholdController, calibrated_threshold_bounds
from .engine import AdmissionRejectedError, CompletedSample, InferenceEngine
from .loadgen import (
    LoadGenerator,
    LoadReport,
    StormPhase,
    priority_cycle,
    request_stream,
    storm_phases,
)
from .obs import (
    SPAN_STAGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RequestSpan,
    SpanTracker,
)
from .replica import ReplicaCrashError, ReplicaPool
from .request import (
    AdmissionQueue,
    EpochLedger,
    QueueClosedError,
    QueueFullError,
    Request,
    RequestResult,
    Response,
    ThresholdEpoch,
    clip_digest,
)
from .server import Server, ServerClosedError
from .storm import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    DeadlineExceededError,
    StormConfig,
    StormGuard,
    StormShedError,
    StormState,
)
from .telemetry import Telemetry
from .trace import Trace, TraceRecord, TraceRecorder, load_trace

__all__ = [
    "Request",
    "RequestResult",
    "Response",
    "AdmissionQueue",
    "QueueFullError",
    "QueueClosedError",
    "InferenceEngine",
    "CompletedSample",
    "AdmissionRejectedError",
    "ContinuousBatcher",
    "ReplicaCrashError",
    "ReplicaPool",
    "Server",
    "ServerClosedError",
    "Telemetry",
    "AdaptiveThresholdController",
    "calibrated_threshold_bounds",
    "LoadGenerator",
    "LoadReport",
    "request_stream",
    "StormPhase",
    "storm_phases",
    "priority_cycle",
    "StormGuard",
    "StormConfig",
    "StormState",
    "StormShedError",
    "DeadlineExceededError",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "ThresholdEpoch",
    "EpochLedger",
    "Trace",
    "TraceRecord",
    "TraceRecorder",
    "clip_digest",
    "load_trace",
    "BACKTEST_SCHEMA_VERSION",
    "Backtester",
    "BacktestSweep",
    "CandidateResult",
    "RecordedSchedule",
    "ScheduleSegment",
    "SweepResult",
    "ThresholdSchedule",
    "decision_digest",
    "pareto_frontier",
    "SpanTracker",
    "RequestSpan",
    "SPAN_STAGES",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
]
