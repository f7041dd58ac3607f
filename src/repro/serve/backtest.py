"""Offline SLA backtesting: what-if threshold schedules over recorded traces.

The serving stack's single inference-time knob is the exit threshold (plus
its storm-mode companions, horizon cap and brown-out), and the live SLA
controller moves it under feedback.  Choosing the *right* schedule — one
constant θ?  a peak-hours/off-hours piecewise split?  a harsher brown-out? —
is a question you want answered **offline**, against traffic you actually
served, before any knob moves in production.

This module is that engine.  It leans on two invariants the serving layer
already proves:

* **Per-sample batch invariance** — a request's prediction and exit timestep
  depend only on its own clip and its own (threshold, horizon) knobs, never
  on batch packing, worker count, or replica placement
  (``tests/serve/test_multi_engine.py``).
* **Threshold-epoch pinning** — ``Server.submit(threshold=..., horizon=...)``
  stamps a frozen :class:`~repro.serve.ThresholdEpoch` and the engine
  evaluates the slot under exactly those knobs (docs/RESILIENCE.md).

Together they make a backtest *decision-exact*: replaying a recorded trace
(:mod:`repro.serve.trace`) through a live server with per-request pinned
candidate knobs produces, for each candidate, the same bitwise decisions on
every composition — {1, 2 worker threads} × {1, 2 process replicas} — so the
sweep can fan candidates across the multi-worker stack for speed without the
parallelism touching a single decision.

Scoring is split into two strictly separated families:

* **Decision-derived scores** (deterministic, composition-invariant):
  agreement against the full-horizon oracle (each unique clip run once with
  ``threshold=0.0`` — normalized entropy is never below zero, so the exit
  rule never fires and the prediction is the paper's static-SNN answer),
  label accuracy when the trace recorded labels, the exit histogram, mean
  exit timesteps, and energy / EDP / modeled latency priced per request
  through the same :func:`~repro.serve.batcher.price_request` path the live
  server uses.  These are the Pareto axes.
* **Measured wall-clock stats** (informational, composition-dependent):
  latency percentiles and throughput of the backtest run itself.  Useful
  for sizing, never part of the determinism contract.

The :func:`pareto_frontier` over (maximize agreement, minimize EDP, minimize
modeled p99) is emitted as a schema-v1 JSON artifact
(:meth:`SweepResult.to_json`) rendered by ``tools/backtest_report.py`` and
produced end to end by the ``backtest`` CLI subcommand, which rebuilds the
model from the trace header exactly like ``replay`` does.
"""

from __future__ import annotations

import hashlib
import json
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.accounting import InferenceCostModel
from .batcher import price_request
from .server import Server
from .trace import Trace, TraceRecord, load_trace

__all__ = [
    "BACKTEST_SCHEMA_VERSION",
    "ThresholdSchedule",
    "RecordedSchedule",
    "ScheduleSegment",
    "CandidateResult",
    "SweepResult",
    "Backtester",
    "BacktestSweep",
    "pareto_frontier",
    "decision_digest",
]

BACKTEST_SCHEMA_VERSION = 1

#: The threshold that provably never fires the entropy exit rule: normalized
#: entropy is >= 0 and the policy exits on ``score < threshold``, so pinning
#: θ = 0.0 runs every clip to the full horizon — the static-SNN oracle.
ORACLE_THRESHOLD = 0.0


# --------------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScheduleSegment:
    """One piecewise-constant segment: knobs in force from ``start`` onward.

    ``start`` is an arrival offset in trace time (seconds since the trace's
    first recorded arrival).  ``horizon`` of ``None`` means the server's full
    ``max_timesteps``.
    """

    start: float
    threshold: float
    horizon: Optional[int] = None


class ThresholdSchedule:
    """A piecewise-constant (threshold, horizon) schedule over trace time.

    Segments partition trace time into half-open intervals: segment *i*
    covers ``[start_i, start_{i+1})`` and the last segment is open-ended, so
    every arrival offset — including every segment boundary — belongs to
    **exactly one** segment (``tests/property`` pins this algebra).  The
    first segment must start at 0.0 and also absorbs negative offsets
    (WAL arrival offsets are relative to the first *completed* request, so
    requests that arrived earlier carry small negative offsets): a schedule
    is total over any trace span by construction, never partial.
    """

    def __init__(self, segments: Sequence[ScheduleSegment]):
        if not segments:
            raise ValueError("a schedule needs at least one segment")
        segments = [
            seg if isinstance(seg, ScheduleSegment) else ScheduleSegment(*seg)
            for seg in segments
        ]
        if float(segments[0].start) != 0.0:
            raise ValueError(
                "the first segment must start at offset 0.0 so the schedule "
                "is total over the trace span"
            )
        for earlier, later in zip(segments, segments[1:]):
            if not float(later.start) > float(earlier.start):
                raise ValueError(
                    "segment starts must be strictly increasing "
                    f"({earlier.start} then {later.start})"
                )
        for seg in segments:
            if not 0.0 <= float(seg.threshold) <= 1.0:
                raise ValueError(
                    f"threshold {seg.threshold} outside [0, 1] (normalized "
                    "entropy)"
                )
            if seg.horizon is not None and int(seg.horizon) < 1:
                raise ValueError("segment horizon must be >= 1")
        self.segments: Tuple[ScheduleSegment, ...] = tuple(segments)
        self._starts = [float(seg.start) for seg in self.segments]

    # ------------------------------------------------------------------ #
    @classmethod
    def constant(
        cls, threshold: float, horizon: Optional[int] = None
    ) -> "ThresholdSchedule":
        """A single-segment schedule: one θ (and horizon) for the whole trace."""
        return cls([ScheduleSegment(0.0, float(threshold), horizon)])

    @classmethod
    def piecewise(
        cls, points: Sequence[Tuple[float, float]], horizon: Optional[int] = None
    ) -> "ThresholdSchedule":
        """Build from ``(start_offset, threshold)`` pairs sharing one horizon."""
        return cls([ScheduleSegment(float(s), float(t), horizon)
                    for s, t in points])

    @classmethod
    def from_trace(cls, trace: Trace) -> "ThresholdSchedule":
        """The recorded knob trajectory as a piecewise schedule.

        Starts a new segment at the arrival offset of the first record whose
        (threshold, horizon) differ from the previous record's — a lossless
        reconstruction when knob changes happen *between* arrivals (the
        epoch-stamped common case).  For per-request pinning that is exact
        even under same-offset knob changes, use :class:`RecordedSchedule`.
        """
        records = sorted(trace.records,
                         key=lambda r: (r.arrival_offset, r.request_id))
        if not records:
            raise ValueError("trace holds no records to build a schedule from")
        segments: List[ScheduleSegment] = []
        previous: Optional[Tuple[Optional[float], Optional[int]]] = None
        for record in records:
            knobs = (record.threshold, record.horizon)
            if knobs != previous:
                if record.threshold is None:
                    raise ValueError(
                        "trace records carry no thresholds; cannot derive a "
                        "schedule"
                    )
                start = 0.0 if not segments else float(record.arrival_offset)
                segments.append(ScheduleSegment(
                    start, float(record.threshold), record.horizon
                ))
                previous = knobs
        return cls(segments)

    # ------------------------------------------------------------------ #
    def segment_index(self, offset: float) -> int:
        """The index of the single segment covering ``offset``.

        Recorded arrival offsets are measured from the *first completed*
        request, so requests that arrived earlier than it carry small
        negative offsets — those belong to the opening segment, which
        covers everything before the second segment's start.
        """
        offset = float(offset)
        if offset < 0.0:
            return 0
        # bisect_right on the starts: boundary offsets land in the segment
        # that *begins* there ([start_i, start_{i+1}) semantics).
        return bisect_right(self._starts, offset) - 1

    def knobs_at(self, offset: float) -> Tuple[float, Optional[int]]:
        """The (threshold, horizon) in force at arrival offset ``offset``."""
        segment = self.segments[self.segment_index(offset)]
        return segment.threshold, segment.horizon

    def knobs_for(self, record: TraceRecord) -> Tuple[Optional[float], Optional[int]]:
        """Candidate knobs for one recorded request (by its arrival offset)."""
        return self.knobs_at(record.arrival_offset)

    # ------------------------------------------------------------------ #
    def spec(self) -> Dict[str, Any]:
        """JSON-able description (stored verbatim in the sweep artifact)."""
        return {
            "kind": "piecewise",
            "segments": [
                {"start": seg.start, "threshold": seg.threshold,
                 "horizon": seg.horizon}
                for seg in self.segments
            ],
        }

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ThresholdSchedule)
                and self.segments == other.segments)

    def __hash__(self) -> int:
        return hash(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"[{seg.start:g}s: θ={seg.threshold:g}"
            + (f", T<={seg.horizon}" if seg.horizon is not None else "")
            + ")"
            for seg in self.segments
        )
        return f"ThresholdSchedule({parts})"


class RecordedSchedule:
    """The baseline candidate: each request re-runs under its *recorded* knobs.

    Unlike :meth:`ThresholdSchedule.from_trace` this pins per request rather
    than per time segment, so it is exact even when two requests share an
    arrival offset across a knob change.  Backtesting it must reproduce the
    trace's own decisions bitwise — the sweep's built-in honesty check.
    """

    def knobs_for(self, record: TraceRecord) -> Tuple[Optional[float], Optional[int]]:
        return record.threshold, record.horizon

    def spec(self) -> Dict[str, Any]:
        return {"kind": "recorded"}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RecordedSchedule()"


# --------------------------------------------------------------------------- #
# Pareto
# --------------------------------------------------------------------------- #
def _axis_values(point: Any, axis: str) -> Optional[float]:
    if isinstance(point, Mapping):
        value = point.get(axis)
    else:
        value = getattr(point, axis, None)
    return None if value is None else float(value)


def pareto_frontier(
    points: Sequence[Any],
    maximize: Sequence[str] = ("agreement",),
    minimize: Sequence[str] = ("edp_mean", "model_latency_p99"),
) -> List[Any]:
    """The non-dominated subset of ``points`` under the named axes.

    ``points`` may be mappings or objects; axes whose value is ``None`` on
    *every* point are dropped (e.g. ``edp_mean`` without a cost model), and a
    point missing a value on a live axis is treated as worst-possible there.
    A point is dominated when some other point is at least as good on every
    axis and strictly better on at least one.  The result preserves every
    kept point (identity) and is returned in a canonical order — sorted by
    the axis tuple — so the frontier is invariant under permutation of the
    input (``tests/property`` pins all three laws).
    """
    points = list(points)
    if not points:
        return []
    axes: List[Tuple[str, float]] = []  # (name, sign): lower-is-better form
    for name in maximize:
        if any(_axis_values(p, name) is not None for p in points):
            axes.append((name, -1.0))
    for name in minimize:
        if any(_axis_values(p, name) is not None for p in points):
            axes.append((name, 1.0))
    if not axes:
        return list(points)

    def key(point: Any) -> Tuple[float, ...]:
        values = []
        for name, sign in axes:
            value = _axis_values(point, name)
            values.append(float("inf") if value is None else sign * value)
        return tuple(values)

    keyed = [(key(p), p) for p in points]

    def dominated(mine: Tuple[float, ...]) -> bool:
        for theirs, _ in keyed:
            if theirs == mine:
                continue
            if all(t <= m for t, m in zip(theirs, mine)) and any(
                t < m for t, m in zip(theirs, mine)
            ):
                return True
        return False

    def tiebreak(point: Any) -> str:
        # Equal axis tuples must still order deterministically, else the
        # frontier's order would leak input order under permutation.
        name = getattr(point, "name", None)
        if name is not None:
            return str(name)
        try:
            return json.dumps(point, sort_keys=True, default=str)
        except TypeError:
            return repr(point)

    frontier = [(k, p) for k, p in keyed if not dominated(k)]
    frontier.sort(key=lambda item: (item[0], tiebreak(item[1])))
    return [p for _, p in frontier]


# --------------------------------------------------------------------------- #
# Scoring
# --------------------------------------------------------------------------- #
def decision_digest(decisions: Sequence[Tuple[int, int, int]]) -> str:
    """128-bit hex digest over per-request decisions — the cheap handle the
    determinism matrix compares across compositions."""
    canonical = json.dumps([[int(a), int(b), int(c)] for a, b, c in decisions],
                           separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class CandidateResult:
    """One scored candidate schedule.

    ``decisions`` is the bitwise contract object: per recorded request (in
    record-id order), the prediction and exit timestep produced under the
    candidate knobs.  Everything in the *decision-derived* block is a pure
    function of ``decisions`` (+ the cost model), hence
    composition-invariant; ``measured`` is wall-clock truth about this
    particular run and deliberately excluded from determinism comparisons.
    """

    name: str
    schedule_spec: Dict[str, Any]
    decisions: List[Tuple[int, int, int]]  # (record_id, prediction, exit_t)
    # Decision-derived scores (deterministic):
    agreement: float
    accuracy: Optional[float]
    mean_exit: float
    exit_histogram: List[int]
    energy_mean: Optional[float]
    energy_total: Optional[float]
    edp_mean: Optional[float]
    model_latency_p50: float
    model_latency_p99: float
    # Wall-clock truth (informational, composition-dependent):
    measured: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return decision_digest(self.decisions)

    def score_row(self) -> Dict[str, Any]:
        """The deterministic block, as stored in the artifact."""
        return {
            "agreement": self.agreement,
            "accuracy": self.accuracy,
            "mean_exit": self.mean_exit,
            "exit_histogram": list(self.exit_histogram),
            "energy_mean": self.energy_mean,
            "energy_total": self.energy_total,
            "edp_mean": self.edp_mean,
            "model_latency_p50": self.model_latency_p50,
            "model_latency_p99": self.model_latency_p99,
        }


def _score_decisions(
    name: str,
    schedule_spec: Dict[str, Any],
    rows: Sequence[Tuple[TraceRecord, int, int]],  # (record, prediction, exit)
    oracle: Mapping[str, int],
    max_timesteps: int,
    cost_model: Optional[InferenceCostModel],
    measured: Optional[Dict[str, float]] = None,
) -> CandidateResult:
    """Deterministic scores from per-request decisions (one rule for the
    backtester's live runs AND the trace's own telemetry, so the baseline
    comparison is exact by construction)."""
    decisions = [(record.request_id, int(prediction), int(exit_t))
                 for record, prediction, exit_t in rows]
    exits = np.array([exit_t for _, _, exit_t in decisions], dtype=np.int64)
    histogram = np.bincount(exits, minlength=max_timesteps + 1)[1:]
    agree = [int(prediction == oracle[record.digest])
             for record, prediction, _ in rows if record.digest in oracle]
    labelled = [(record.label, prediction)
                for record, prediction, _ in rows if record.label is not None]
    energies, edps = [], []
    latencies = []
    for _, _, exit_t in decisions:
        energy, edp = price_request(cost_model, exit_t)
        if energy is not None:
            energies.append(energy)
            edps.append(edp)
        # The deterministic latency axis: the cost model's per-inference
        # latency at the exit timestep when available, the exit timestep
        # itself otherwise — either way a pure function of the decision.
        latencies.append(
            float(cost_model.latency(exit_t)) if cost_model is not None
            else float(exit_t)
        )
    latency_array = np.asarray(latencies, dtype=np.float64)  # dtype-ok: latency bookkeeping is decision-side float64 (docs/NUMERICS.md)
    return CandidateResult(
        name=name,
        schedule_spec=dict(schedule_spec),
        decisions=decisions,
        agreement=float(np.mean(agree)) if agree else 0.0,
        accuracy=(float(np.mean([p == l for l, p in labelled]))
                  if labelled else None),
        mean_exit=float(exits.mean()) if exits.size else 0.0,
        exit_histogram=[int(c) for c in histogram],
        energy_mean=float(np.mean(energies)) if energies else None,
        energy_total=float(np.sum(energies)) if energies else None,
        edp_mean=float(np.mean(edps)) if edps else None,
        model_latency_p50=float(np.percentile(latency_array, 50))
        if latency_array.size else 0.0,
        model_latency_p99=float(np.percentile(latency_array, 99))
        if latency_array.size else 0.0,
        measured=dict(measured or {}),
    )


# --------------------------------------------------------------------------- #
# The engines
# --------------------------------------------------------------------------- #
class Backtester:
    """Replays one recorded trace under *candidate* knobs and scores it.

    Parameters
    ----------
    trace:
        A replayable :class:`~repro.serve.Trace` (or path): records plus the
        content-addressed clip store.
    cost_model:
        Optional per-inference pricer (e.g. ``IMCChip``); enables the
        energy/EDP axes and the modeled-latency axis in physical units.

    The backtester never reads or mutates the server's live policy knob: it
    submits every request with explicit ``threshold=`` / ``horizon=`` pins,
    so any server built from the trace header works and the SLA controller
    (if one is attached) cannot perturb a candidate mid-run.
    """

    def __init__(
        self,
        trace,
        cost_model: Optional[InferenceCostModel] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if isinstance(trace, str):
            trace = load_trace(trace)
        if not isinstance(trace, Trace):
            raise TypeError("trace must be a Trace or a path to one")
        if not trace.records:
            raise ValueError("trace holds no request records to backtest")
        missing = [r.request_id for r in trace.records
                   if r.digest not in trace.clips]
        if missing:
            raise ValueError(
                f"trace cannot be backtested: {len(missing)} record(s) "
                "reference clips missing from the clip store (recorded with "
                "store_clips=False or truncated)"
            )
        self.trace = trace
        self.cost_model = cost_model
        self.clock = clock
        self.records: List[TraceRecord] = sorted(
            trace.records, key=lambda r: (r.arrival_offset, r.request_id)
        )
        self._oracle: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ #
    def oracle(self, server: Server, result_timeout: float = 300.0) -> Dict[str, int]:
        """Full-horizon predictions per unique clip digest (computed once).

        Each unique clip is submitted with ``threshold=0.0`` pinned — the
        entropy rule never fires, the slot runs to ``server.max_timesteps``,
        and the prediction is the static-SNN answer the paper's accuracy
        numbers are measured against.  This is the accuracy-proxy reference
        every candidate's ``agreement`` is scored on.
        """
        if self._oracle is not None:
            return self._oracle
        unique: Dict[str, np.ndarray] = {}
        for record in self.records:
            unique.setdefault(record.digest, self.trace.clips[record.digest])
        pending = [
            (digest, server.submit(clip, block=True,
                                   threshold=ORACLE_THRESHOLD))
            for digest, clip in unique.items()
        ]
        self._oracle = {
            digest: int(response.result(timeout=result_timeout).prediction)
            for digest, response in pending
        }
        return self._oracle

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        server: Server,
        schedule,
        name: str = "candidate",
        result_timeout: float = 300.0,
    ) -> CandidateResult:
        """Run every recorded request under ``schedule``'s knobs; score it.

        ``schedule`` is anything with ``knobs_for(record) -> (θ, horizon)``
        and ``spec()`` — a :class:`ThresholdSchedule`, the
        :class:`RecordedSchedule` baseline, or a custom policy object.
        Submissions are pipelined (all submitted, then all resolved), so a
        multi-worker or multi-replica server overlaps the requests; epoch
        pinning guarantees the overlap cannot move a decision.
        """
        oracle = self.oracle(server, result_timeout=result_timeout)
        start = self.clock()
        pending = []
        for record in self.records:
            threshold, horizon = schedule.knobs_for(record)
            pending.append((record, server.submit(
                self.trace.clips[record.digest],
                label=record.label,
                block=True,
                threshold=threshold,
                horizon=horizon,
            )))
        rows = []
        wall_latencies = []
        for record, response in pending:
            result = response.result(timeout=result_timeout)
            rows.append((record, int(result.prediction),
                         int(result.exit_timestep)))
            wall_latencies.append(result.latency)
        duration = self.clock() - start
        wall = np.asarray(wall_latencies, dtype=np.float64)  # dtype-ok: latency bookkeeping is decision-side float64 (docs/NUMERICS.md)
        measured = {
            "duration_s": float(duration),
            "throughput_rps": (len(rows) / duration if duration > 0 else 0.0),
            "latency_p50_s": float(np.percentile(wall, 50)) if wall.size else 0.0,
            "latency_p99_s": float(np.percentile(wall, 99)) if wall.size else 0.0,
        }
        return _score_decisions(
            name, schedule.spec(), rows, oracle, server.max_timesteps,
            self.cost_model, measured,
        )

    # ------------------------------------------------------------------ #
    def trace_scores(self, oracle: Mapping[str, int],
                     max_timesteps: int) -> CandidateResult:
        """The trace's own telemetry, scored through the same rule as a live
        candidate — what the recorded baseline must match *exactly*."""
        rows = [(record, record.prediction, record.exit_timestep)
                for record in self.records]
        return _score_decisions(
            "trace", {"kind": "trace"}, rows, oracle, max_timesteps,
            self.cost_model,
        )


@dataclass
class SweepResult:
    """Outcome of one :class:`BacktestSweep` run against one composition."""

    candidates: List[CandidateResult]
    pareto: List[str]  # candidate names on the frontier, canonical order
    baseline_name: Optional[str]
    baseline_mismatches: List[str]
    composition: Dict[str, int]
    trace_info: Dict[str, Any]
    oracle_size: int

    @property
    def baseline_exact(self) -> bool:
        """The recorded schedule reproduced the trace's decisions and scores
        bitwise (vacuously true when the baseline was not requested)."""
        return not self.baseline_mismatches

    def candidate(self, name: str) -> CandidateResult:
        for candidate in self.candidates:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no candidate named {name!r}")

    # ------------------------------------------------------------------ #
    def decision_map(self) -> Dict[str, str]:
        """candidate name -> decision digest (the determinism handle)."""
        return {c.name: c.digest for c in self.candidates}

    def assert_decisions_equal(self, other: "SweepResult") -> None:
        """Raise unless both sweeps made identical decisions AND agree on
        the Pareto frontier — the cross-composition determinism gate."""
        mine, theirs = self.decision_map(), other.decision_map()
        if set(mine) != set(theirs):
            raise AssertionError(
                f"candidate sets differ: {sorted(mine)} vs {sorted(theirs)}"
            )
        moved = [name for name in sorted(mine) if mine[name] != theirs[name]]
        if moved:
            raise AssertionError(
                "backtest decisions moved across compositions for "
                f"candidate(s): {', '.join(moved)}"
            )
        if self.pareto != other.pareto:
            raise AssertionError(
                f"Pareto frontier moved across compositions: {self.pareto} "
                f"vs {other.pareto}"
            )

    # ------------------------------------------------------------------ #
    def to_document(self, include_decisions: bool = True) -> Dict[str, Any]:
        """The schema-v1 artifact (docs/OBSERVABILITY.md §5)."""
        return {
            "schema_version": BACKTEST_SCHEMA_VERSION,
            "kind": "backtest_sweep",
            "trace": dict(self.trace_info),
            "composition": dict(self.composition),
            "oracle": {
                "threshold": ORACLE_THRESHOLD,
                "unique_clips": self.oracle_size,
            },
            "baseline": {
                "name": self.baseline_name,
                "exact": self.baseline_exact,
                "mismatches": list(self.baseline_mismatches),
            },
            "pareto": list(self.pareto),
            "candidates": [
                {
                    "name": c.name,
                    "schedule": c.schedule_spec,
                    "scores": c.score_row(),
                    "measured": dict(c.measured),
                    "decision_digest": c.digest,
                    **({"decisions": [list(d) for d in c.decisions]}
                       if include_decisions else {}),
                }
                for c in self.candidates
            ],
        }

    def to_json(self, path: str, include_decisions: bool = True) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_document(include_decisions=include_decisions),
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


class BacktestSweep:
    """Evaluates a set of candidate schedules over one trace and ranks them.

    Parameters
    ----------
    trace:
        The recorded trace (or path) every candidate replays.
    candidates:
        ``{name: schedule}`` — the what-if set.  Names are the artifact keys.
    include_baseline:
        Add the :class:`RecordedSchedule` under ``baseline_name`` and check
        it reproduces the trace's own decisions and decision-derived scores
        exactly (:attr:`SweepResult.baseline_exact`).  This is the sweep's
        self-calibration: if the recorded knobs do not reproduce the
        recording, no what-if number can be trusted.
    cost_model:
        Optional pricer enabling the energy/EDP Pareto axes.
    """

    BASELINE_NAME = "recorded"

    def __init__(
        self,
        trace,
        candidates: Mapping[str, Any],
        include_baseline: bool = True,
        cost_model: Optional[InferenceCostModel] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.backtester = Backtester(trace, cost_model=cost_model, clock=clock)
        if include_baseline and self.BASELINE_NAME in candidates:
            raise ValueError(
                f"candidate name {self.BASELINE_NAME!r} is reserved for the "
                "recorded baseline"
            )
        self.candidates = dict(candidates)
        self.include_baseline = bool(include_baseline)
        if not self.candidates and not self.include_baseline:
            raise ValueError("sweep needs at least one candidate")

    # ------------------------------------------------------------------ #
    def run(self, server: Server, result_timeout: float = 300.0) -> SweepResult:
        """Evaluate every candidate (+ baseline) against ``server``."""
        backtester = self.backtester
        oracle = backtester.oracle(server, result_timeout=result_timeout)
        results: List[CandidateResult] = []
        baseline_mismatches: List[str] = []
        baseline_name = None
        if self.include_baseline:
            baseline_name = self.BASELINE_NAME
            baseline = backtester.evaluate(
                server, RecordedSchedule(), name=baseline_name,
                result_timeout=result_timeout,
            )
            results.append(baseline)
            reference = backtester.trace_scores(oracle, server.max_timesteps)
            baseline_mismatches = self._diff_baseline(baseline, reference)
        for name in sorted(self.candidates):
            results.append(backtester.evaluate(
                server, self.candidates[name], name=name,
                result_timeout=result_timeout,
            ))
        frontier = pareto_frontier(results)
        trace_header = backtester.trace.header
        return SweepResult(
            candidates=results,
            pareto=[c.name for c in frontier],
            baseline_name=baseline_name,
            baseline_mismatches=baseline_mismatches,
            composition={
                "workers": len(server.batchers),
                "replicas": (server.replicas.num_replicas
                             if server.replicas is not None else 0),
                "max_timesteps": int(server.max_timesteps),
            },
            trace_info={
                "records": len(backtester.records),
                "threshold": trace_header.get("threshold"),
                "max_timesteps": trace_header.get("max_timesteps"),
                "dataset": trace_header.get("dataset"),
                "preset": trace_header.get("preset"),
            },
            oracle_size=len(oracle),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _diff_baseline(baseline: CandidateResult,
                       reference: CandidateResult) -> List[str]:
        """Exact-match diff between the re-served baseline and the trace's
        own telemetry (decision-derived block only — wall clock is a new
        measurement by definition)."""
        mismatches: List[str] = []
        recorded = {(rid, pred, exit_t)
                    for rid, pred, exit_t in reference.decisions}
        for rid, pred, exit_t in baseline.decisions:
            if (rid, pred, exit_t) not in recorded:
                mismatches.append(
                    f"request {rid}: replayed (prediction={pred}, "
                    f"exit_t={exit_t}) not in the recording"
                )
                if len(mismatches) >= 10:
                    mismatches.append("... (further mismatches elided)")
                    return mismatches
        for axis, mine, theirs in (
            ("agreement", baseline.agreement, reference.agreement),
            ("accuracy", baseline.accuracy, reference.accuracy),
            ("mean_exit", baseline.mean_exit, reference.mean_exit),
            ("exit_histogram", baseline.exit_histogram,
             reference.exit_histogram),
            ("energy_total", baseline.energy_total, reference.energy_total),
            ("edp_mean", baseline.edp_mean, reference.edp_mean),
        ):
            if mine != theirs:
                mismatches.append(
                    f"baseline {axis} {mine!r} != trace telemetry {theirs!r}"
                )
        return mismatches
