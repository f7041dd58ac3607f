"""Continuous batching: keep the SNN forward pass at full occupancy.

A static batcher waits for a whole batch, runs it to completion, then starts
the next one — every early exit leaves a dead slot for the rest of the
horizon.  The :class:`ContinuousBatcher` instead treats the timestep loop as
the scheduling quantum: after every engine step it refills the slots freed by
early-exiting samples from the admission queue, splicing new requests in
*mid-horizon* with fresh membrane state.  The effect is that the compute the
exit policy saves is immediately reinvested in queued traffic, which is how
DT-SNN's average-timestep reduction turns into requests/second.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.accounting import InferenceCostModel
from .controller import AdaptiveThresholdController
from .engine import AdmissionRejectedError, CompletedSample, InferenceEngine
from .request import AdmissionQueue, Request, RequestResult, Response, clone_exception
from .storm import DeadlineExceededError
from .telemetry import Telemetry

__all__ = ["ContinuousBatcher", "complete_round", "fail_round", "price_request"]


def price_request(
    cost_model: Optional[InferenceCostModel], exit_timestep: int
) -> tuple:
    """Energy / EDP for one completed request (``(None, None)`` without a
    cost model) — the single pricing rule, for :func:`complete_round` and
    the backtester alike."""
    if cost_model is None:
        return None, None
    energy = float(cost_model.energy(exit_timestep))
    return energy, energy * float(cost_model.latency(exit_timestep))


def complete_round(
    finished: Sequence[CompletedSample],
    clock: Callable[[], float],
    telemetry: Telemetry,
    cost_model: Optional[InferenceCostModel] = None,
    controller: Optional[AdaptiveThresholdController] = None,
    trace=None,
    spans=None,
) -> List[RequestResult]:
    """Price, record and resolve one round of completions — THE completion
    chain, called by a thread batcher with the samples one ``engine.step()``
    retired and by the replica collector with one completion-ring read.

    The order is fixed here and nowhere else: price → one ``finish`` clock
    read → results → WAL lines → ONE WAL flush → telemetry (one lock) →
    controller → ``completed_at`` clock read → spans → futures LAST.  Hence
    the rule every consumer may lean on: *a resolved future's telemetry,
    span and (flushed) WAL line already exist* — and a crash loses at most
    the round in flight, none of whose futures had resolved.  ``completed``
    is read after the sinks ran, so the span's ``completion`` stage measures
    them.  A sink that is ``None`` costs nothing: the bare round is one
    clock read, one telemetry lock and the futures.
    """
    if not finished:
        return []
    # A price is a function of the exit timestep alone: one per distinct
    # timestep of the round (at most the horizon), not one per request.
    prices = {}
    if cost_model is not None:
        for exit_timestep in {sample.exit_timestep for sample in finished}:
            prices[exit_timestep] = price_request(cost_model, exit_timestep)
    energy = edp = None
    now = clock()
    results: List[RequestResult] = []
    for sample in finished:
        request = sample.request
        if prices:
            energy, edp = prices[sample.exit_timestep]
        start_time = sample.start_time
        if sample.finish_time is not None:
            # Retired on another process's clock: only the service duration
            # crosses the boundary; ``now`` is the honest finish, since no
            # client can observe the result before this round resolves it.
            start_time = now - max(0.0, sample.finish_time - start_time)
        # Positional, in RequestResult's field order: 14 keywords cost 0.6 us
        # a request in the call alone.
        results.append(RequestResult(
            request.request_id, sample.prediction, sample.exit_timestep,
            sample.score, request.label, sample.threshold,
            request.arrival_time, start_time, now, energy, edp,
            sample.epoch, sample.brownout, sample.horizon,
        ))
    if trace is not None:
        for sample, result in zip(finished, results):
            trace.record_request(sample.request, result)
        trace.flush()
    telemetry.record_completions(results)
    if controller is not None:
        for result in results:
            controller.on_completion(result, telemetry)
    if spans is not None:
        completed_at = clock()
        for result in results:
            spans.record_result(result, completed_at)
    for sample, result in zip(finished, results):
        sample.response.set_result(result)
    return results


def fail_round(
    failed: Sequence[Tuple[Request, Optional[Response]]],
    error: BaseException,
    reason: str,
    clock: Callable[[], float],
    telemetry: Telemetry,
    trace=None,
    spans=None,
) -> None:
    """Count, record and fail one round of requests — THE failure chain,
    beside :func:`complete_round` and called by every path that fails a
    request: the door, the dispatch rounds, the replica pool, shutdown.

    The order is fixed here and nowhere else: one clock read → the
    telemetry writer ``reason`` names → a WAL ``reject`` line per request →
    ``spans.record_failure`` → futures LAST, each with its own clone of
    ``error`` (concurrent waiters must not re-raise one shared instance).
    So the completion rule holds for failures too: *a failed future's
    counter, span and flushed WAL line already exist*.  A pair whose
    response is ``None`` is a door refusal: the caller raises to the client.

    ``reason`` is one of ``"rejected"`` (queue full, engine rejection,
    oversize ring frame, relayed or ring-integrity error; its WAL line
    carries no ``reason`` key), ``"storm"``, ``"deadline"`` or ``"shed"``
    (abort, worker or replica crash, failed start: accepted work nobody
    will serve).  Callers hold no named lock.
    """
    if not failed:
        return
    now = clock()
    if reason == "rejected":
        telemetry.record_rejection(len(failed))
    elif reason == "shed":
        telemetry.record_shed(len(failed))
    else:
        by_class = {"storm": telemetry.record_storm_shed,
                    "deadline": telemetry.record_deadline_drop}[reason]
        for request, _ in failed:
            by_class(request.priority)
    if trace is not None:
        logged = None if reason == "rejected" else reason
        for request, _ in failed:
            trace.record_rejection(request, now, logged)
    if spans is not None:
        for request, _ in failed:
            spans.record_failure(request.request_id, now, error)
    for _, response in failed:
        if response is not None:
            response.set_exception(clone_exception(error))


class ContinuousBatcher:
    """Runs one engine at a fixed maximum width against an admission queue.

    Parameters
    ----------
    engine:
        The slot-based inference engine (owns the model and exit policy).
    queue:
        Bounded admission queue shared with the server front-end.
    batch_width:
        Maximum number of concurrently active slots.
    telemetry:
        Metric sink; one is created when omitted.
    cost_model:
        Optional per-inference cost model (e.g. :class:`repro.imc.IMCChip`);
        when present every completed request is priced at its own exit
        timestep, exactly like :func:`repro.core.account_result`.
    controller:
        Optional SLA threshold controller, consulted after completions.
    trace:
        Optional :class:`repro.serve.trace.TraceRecorder`; a round's
        completions are appended to the WAL and flushed before any of their
        futures resolves.
    spans:
        Optional :class:`repro.serve.obs.SpanTracker`; each completion
        stamps the request's lifecycle stages in one call.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        queue: AdmissionQueue,
        batch_width: int = 8,
        telemetry: Optional[Telemetry] = None,
        cost_model: Optional[InferenceCostModel] = None,
        controller: Optional[AdaptiveThresholdController] = None,
        clock: Callable[[], float] = time.monotonic,
        trace=None,
        spans=None,
    ):
        if batch_width < 1:
            raise ValueError("batch_width must be >= 1")
        self.engine = engine
        self.queue = queue
        self.batch_width = int(batch_width)
        self.telemetry = telemetry or Telemetry()
        self.cost_model = cost_model
        self.controller = controller
        self.clock = clock
        self.trace = trace
        self.spans = spans
        # Admission rounds rejected by engine validation (e.g. a malformed
        # request co-drained with the round); their futures were failed but
        # the worker kept serving.
        self.rejected_rounds = 0

    # ------------------------------------------------------------------ #
    def _fill_slots(self, wait_timeout: Optional[float] = None) -> int:
        """Splice queued requests into free slots; returns admissions.

        The whole round is drained from the queue in one critical section
        and admitted through :meth:`InferenceEngine.admit_batch` in one go,
        so a burst of B arrivals costs one queue lock, one state extension
        and (under direct encoding) one batched stem GEMM instead of B of
        each — admission work per request stays flat in the burst size.
        Only an idle engine waits for traffic.
        """
        free = self.batch_width - self.engine.active_count
        if free <= 0:
            return 0
        if wait_timeout and self.engine.idle:
            drained = self.queue.get(timeout=wait_timeout, limit=free)
        else:
            drained = self.queue.get_nowait(limit=free)
        if drained is None:
            return 0
        # The round's one clock reading: the instant deadlines are compared
        # against, the one a drop records, and every admission's start time.
        now = self.clock()
        admissions, expired = [], []
        for request, response in drained:
            # Deadline enforcement happens here, at dispatch: a request that
            # waited out its deadline in the queue is dropped before it can
            # occupy an engine slot — spending timesteps on an answer whose
            # client already gave up only deepens the backlog.
            if request.deadline is not None and now > request.deadline:
                expired.append((request, response))
                continue
            admissions.append((request, response, now))
        if expired:
            self._fail(expired, DeadlineExceededError(
                "request missed its deadline before dispatch"), "deadline", now)
        try:
            self.engine.admit_batch(admissions)
        except AdmissionRejectedError as error:
            # The engine rejected the round before mutating any state, so
            # one malformed request costs its own round — not the worker,
            # the in-flight neighbours, or the server's admission queue.
            # These requests already left the queue: failing them here is
            # the only way their clients ever hear about it.
            self.rejected_rounds += 1
            self._fail([admission[:2] for admission in admissions], error,
                       "rejected", now)
            return 0
        return len(admissions)

    def _fail(self, failed, error: BaseException, reason: str, now: float) -> None:
        # Recorded at the fill round's one reading, not a second one.
        fail_round(failed, error, reason, lambda: now, self.telemetry,
                   self.trace, self.spans)

    # ------------------------------------------------------------------ #
    def advance(self, wait_timeout: Optional[float] = None) -> List[CompletedSample]:
        """Refill slots, sample the two gauges, advance one timestep; returns
        the samples the step retired and records nothing about them — all a
        replica child runs of a round (the parent's sink completes them)."""
        self._fill_slots(wait_timeout=wait_timeout)
        if self.engine.idle:
            # Idle poll: nothing admitted, nothing to step — don't let gauge
            # samples accumulate (or skew toward idle periods) while waiting.
            return []
        self.telemetry.record_queue_depth(self.queue.depth())
        self.telemetry.record_occupancy(self.engine.active_count, self.batch_width)
        return self.engine.step()

    def run_once(self, wait_timeout: Optional[float] = None) -> List[RequestResult]:
        """Refill slots, advance one timestep, resolve completions."""
        return complete_round(
            self.advance(wait_timeout), self.clock, self.telemetry,
            self.cost_model, self.controller, self.trace, self.spans,
        )

    def run_until_drained(self, wait_timeout: float = 0.05) -> int:
        """Serve until the queue is closed-and-empty and all slots finished.

        This is the graceful-drain loop: with the queue still open it keeps
        waiting for traffic; once :meth:`AdmissionQueue.close` is called it
        finishes the backlog and every in-flight sample, then returns the
        number of requests completed.
        """
        completed = 0
        while True:
            completed += len(self.run_once(wait_timeout=wait_timeout))
            if self.engine.idle and self.queue.depth() == 0 and self.queue.closed:
                return completed
