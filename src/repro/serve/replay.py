"""Deterministic replay of recorded traffic against any server composition.

A trace (:mod:`repro.serve.trace`) is a schedule plus an expectation: *these*
clips arrived at *these* offsets under *this* threshold, and each one exited
at *this* timestep with *this* prediction.  :class:`TraceReplayer` feeds the
schedule into a live :class:`~repro.serve.Server` — any composition of
worker threads, process replicas and arrival pacing — and checks the
decisions bitwise against the recorded exits.

Why this works across compositions: per-sample batch invariance (the serving
layer's core contract, pinned by ``tests/serve/test_multi_engine.py``) makes
every request's prediction and exit timestep independent of how the batcher
packs it, which worker serves it, and when its neighbours arrive.  The only
serving-side knob that can move a decision is the exit threshold, so the
replayer refuses traces whose threshold moved mid-run (an SLA-controller
recording) unless explicitly told to skip verification.

Two pacing modes:

* **compressed** (default) — submit as fast as backpressure allows; measures
  capacity (the apples-to-apples perf number for ``BENCH_*.json``).
* **honored** (``honor_arrivals=True``) — sleep each request to its recorded
  arrival offset (optionally divided by ``speed``); reproduces the recorded
  load shape for latency studies.

This is the canonical regression gate: CI records a short trace, replays it
against a different composition, and a single moved decision fails the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .server import Server
from .trace import Trace, TraceRecord, load_trace

__all__ = ["ReplayMismatch", "ReplayReport", "TraceReplayer"]


@dataclass
class ReplayMismatch:
    """One replayed request whose decision diverged from the trace."""

    request_id: int
    recorded_prediction: int
    recorded_exit: int
    replayed_prediction: int
    replayed_exit: int
    recorded_threshold: Optional[float] = None
    replayed_threshold: Optional[float] = None

    def __str__(self) -> str:
        text = (f"request {self.request_id}: recorded "
                f"(prediction={self.recorded_prediction}, "
                f"exit_t={self.recorded_exit}) vs replayed "
                f"(prediction={self.replayed_prediction}, "
                f"exit_t={self.replayed_exit})")
        if (self.recorded_threshold is not None
                or self.replayed_threshold is not None):
            text += (f" [threshold recorded={self.recorded_threshold} "
                     f"replayed={self.replayed_threshold}]")
        return text


@dataclass
class ReplayReport:
    """Outcome of one replay run.

    ``exit_histogram``, ``mean_exit`` and the energy/EDP aggregates are
    computed from *this replay's own results* — not the server's cumulative
    telemetry — and are filled on every run, including ``verify=False``
    load-source replays.  Energy fields stay ``None`` when the serving
    results carry no energy (no cost model attached).
    """

    offered: int
    completed: int
    duration: float
    mismatches: List[ReplayMismatch] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    exit_histogram: List[int] = field(default_factory=list)
    mean_exit: float = 0.0
    energy_mean: Optional[float] = None
    energy_total: Optional[float] = None
    edp_mean: Optional[float] = None

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def exact(self) -> bool:
        """Every replayed decision matched the recorded one bitwise."""
        return not self.mismatches and self.completed == self.offered


class TraceReplayer:
    """Replays a recorded trace against a started server.

    Parameters
    ----------
    trace:
        A :class:`~repro.serve.trace.Trace` (or a path to one, loaded on
        the spot).  Must carry its clip store — a trace recorded with
        ``store_clips=False`` is audit-only and cannot be replayed.
    honor_arrivals:
        Pace submissions to the recorded arrival offsets instead of
        submitting closed-loop.
    speed:
        Time-compression factor for honored arrivals (2.0 = twice as fast).
    verify:
        Compare each replayed decision against the recorded one.  On by
        default — an exact replay is the point; disable only to use the
        replayer as a load source (e.g. replaying a controller trace whose
        threshold moved, where bitwise equality is undefined).
    """

    def __init__(
        self,
        trace,
        honor_arrivals: bool = False,
        speed: float = 1.0,
        verify: bool = True,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if isinstance(trace, str):
            trace = load_trace(trace)
        if not isinstance(trace, Trace):
            raise TypeError("trace must be a Trace or a path to one")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.trace = trace
        self.honor_arrivals = bool(honor_arrivals)
        self.speed = float(speed)
        self.verify = bool(verify)
        self.clock = clock
        self.sleep = sleep
        if not trace.records:
            raise ValueError("trace holds no request records to replay")
        missing = [r.request_id for r in trace.records
                   if r.digest not in trace.clips]
        if missing:
            raise ValueError(
                f"trace cannot be replayed: {len(missing)} record(s) "
                f"reference clips missing from the clip store (first: "
                f"request {missing[0]}) — recorded with store_clips=False "
                "or a truncated .clips file"
            )
        # A moving threshold is only un-replayable when the records do not
        # say which threshold each request ran under.  Epoch-stamped traces
        # (PR 7) do: every record carries the threshold its engine slot
        # evaluated, so the replayer pins each request to its recorded knobs
        # via submit(threshold=..., horizon=...) and bitwise verification is
        # defined again.
        self._pin_epochs = trace.fixed_threshold() is None and trace.epoch_stamped()
        if self.verify and trace.fixed_threshold() is None and not self._pin_epochs:
            raise ValueError(
                "trace was recorded under a moving threshold (SLA "
                "controller) without epoch stamps; bitwise verification is "
                "undefined — replay with verify=False, against a "
                "fixed-threshold trace, or re-record with an epoch-stamping "
                "server"
            )

    # ------------------------------------------------------------------ #
    def check_server(self, server: Server) -> None:
        """Refuse a server whose knobs cannot reproduce the trace."""
        threshold = self.trace.fixed_threshold()
        live = getattr(server.policy, "threshold", None)
        if threshold is not None and live is not None and (
            float(live) != float(threshold)
        ):
            raise ValueError(
                f"server threshold {float(live)} != trace threshold "
                f"{threshold}; decisions cannot match — build the policy "
                "from the trace header"
            )
        recorded_t = self.trace.max_timesteps
        if recorded_t is not None and server.max_timesteps != recorded_t:
            raise ValueError(
                f"server max_timesteps {server.max_timesteps} != trace "
                f"horizon {recorded_t}"
            )

    def replay(self, server: Server, result_timeout: float = 300.0) -> ReplayReport:
        """Submit every recorded request; verify decisions; return the report."""
        if self.verify:
            self.check_server(server)
        records = sorted(self.trace.records,
                         key=lambda r: (r.arrival_offset, r.request_id))
        clips = self.trace.clips
        start = self.clock()
        pending: List[Tuple[TraceRecord, object]] = []
        for record in records:
            if self.honor_arrivals:
                scheduled = start + record.arrival_offset / self.speed
                delay = scheduled - self.clock()
                if delay > 0:
                    self.sleep(delay)
            if self._pin_epochs:
                # Pin each request to its recorded epoch: the engine
                # evaluates the slot under exactly the recorded threshold /
                # horizon, independent of the replay server's live knob.
                response = server.submit(
                    clips[record.digest],
                    label=record.label,
                    block=True,
                    threshold=record.threshold,
                    horizon=record.horizon,
                )
            else:
                response = server.submit(
                    clips[record.digest],
                    label=record.label,
                    block=True,
                )
            pending.append((record, response))
        results = [(record, response.result(timeout=result_timeout))
                   for record, response in pending]
        duration = self.clock() - start
        mismatches: List[ReplayMismatch] = []
        if self.verify:
            for record, result in results:
                threshold_moved = (
                    record.threshold is not None
                    and result.threshold is not None
                    and float(result.threshold) != float(record.threshold)
                )
                if (result.prediction != record.prediction
                        or result.exit_timestep != record.exit_timestep
                        or threshold_moved):
                    mismatches.append(ReplayMismatch(
                        request_id=record.request_id,
                        recorded_prediction=record.prediction,
                        recorded_exit=record.exit_timestep,
                        replayed_prediction=result.prediction,
                        replayed_exit=result.exit_timestep,
                        recorded_threshold=record.threshold,
                        replayed_threshold=result.threshold,
                    ))
        exits = np.array([result.exit_timestep for _, result in results],
                         dtype=np.int64)
        histogram = (np.bincount(exits, minlength=server.max_timesteps + 1)[1:]
                     if exits.size else np.zeros(server.max_timesteps,
                                                 dtype=np.int64))
        energies = np.array([result.energy for _, result in results
                             if result.energy is not None])
        edps = np.array([result.edp for _, result in results
                         if result.edp is not None])
        return ReplayReport(
            offered=len(records),
            completed=len(results),
            duration=duration,
            mismatches=mismatches,
            stats=server.stats(),
            exit_histogram=[int(c) for c in histogram],
            mean_exit=float(exits.mean()) if exits.size else 0.0,
            energy_mean=float(energies.mean()) if energies.size else None,
            energy_total=float(energies.sum()) if energies.size else None,
            edp_mean=float(edps.mean()) if edps.size else None,
        )

    def assert_exact(self, report: ReplayReport) -> None:
        """Raise with a readable diff if the replay moved any decision."""
        if report.exact:
            return
        preview = "; ".join(str(m) for m in report.mismatches[:5])
        raise AssertionError(
            f"replay diverged from trace: {len(report.mismatches)} of "
            f"{report.offered} decisions moved ({preview})"
        )
