"""The benchmark's own load generators (one thread, the caller's).

*Closed loop*: one client that submits the next request as soon as
backpressure lets it (``block=True``) — a slow server receives less load, so
the loop measures capacity.  *Open loop*: requests are due on a fixed
schedule regardless of how the server is doing (``block=False``; a full
queue refuses), so its queue can grow and queueing shows up as latency.

On a shared box interference only ever *slows* the server, in episodes from
tens of milliseconds to minutes, and whole-round numbers move ±10-20 %
between identical runs.  Two things answer that (perf/README.md,
"Steadiness").  ``window_stats`` cuts a stretch of traffic into windows of
``WINDOW`` consecutive requests so that it can report its *best* window —
what the code does when the box leaves it alone for 30 ms.  And a round is
served in *segments* of a few windows with ``box_slowness`` read between
them — the time of a fixed kernel of the benchmark's own, over its time on
the quiet reference box — so that ``segment_stats`` can state every timing at
the reference box's speed: an episode that outlasts a whole run slows the
kernel as it slows the server.

Latency is timed from each request's **due** time — for the closed loop the
instant the client turned to it, for the open loop its slot in the schedule
— to ``RequestResult.finish_time``, so a stall is charged to every request it
delays, not only to the one being sent.  Due times are ``start + k·period``
(multiplicative): accumulating ``+= period`` drifts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve import QueueFullError, RequestResult

Requests = Sequence[Tuple[np.ndarray, int]]
Mark = Callable[[], tuple]
RESULT_TIMEOUT_S = 60.0
#: Requests per window: ~30-100 ms of work, short enough to fit between
#: interference episodes, long enough for a p90 with 20 samples beyond it.
WINDOW = 200
#: About the fastest ``reference_kernel()`` on the reference box (2-vCPU Xeon 2.1 GHz,
#: Python 3.11, NumPy 2.4 / OpenBLAS, one BLAS thread) when nothing disturbs
#: it.  Only a scale: it makes a slowness of 1.0 mean "that box, quiet".
REFERENCE_KERNEL_S = 0.0030

_KERNEL_COLUMNS = np.random.default_rng(0).standard_normal((800, 144)).astype(np.float32)
_KERNEL_WEIGHTS = np.random.default_rng(1).standard_normal((144, 16)).astype(np.float32)
_KERNEL_INPUT = np.random.default_rng(2).standard_normal((800, 16)).astype(np.float32)


def reference_kernel() -> int:
    """Fixed work shaped like the serving path, none of it the program's:
    interpreter bookkeeping (dict stores, integer arithmetic) and the small
    matrix product + threshold/leak/reset arithmetic of a 16-channel spiking
    layer at batch width 8."""
    slots: Dict[int, int] = {}
    total = 0
    for index in range(10000):
        slots[index & 255] = total
        total += index ^ (total >> 3)
    product = np.empty_like(_KERNEL_INPUT)
    membrane = np.zeros_like(_KERNEL_INPUT)
    for _ in range(20):
        np.matmul(_KERNEL_COLUMNS, _KERNEL_WEIGHTS, out=product)
        membrane += _KERNEL_INPUT
        spikes = membrane >= 1.0
        membrane *= 0.5
        np.subtract(membrane, spikes, out=membrane)
    return total


def box_slowness(cpu: Optional[int] = None, repeats: int = 7,
                 clock: Callable[[], float] = time.perf_counter) -> float:
    """How slow the box is right now: the fastest of ``repeats`` executions
    of the reference kernel (~3 ms each) ÷ ``REFERENCE_KERNEL_S``.  Called
    only while the server is idle.  With ``cpu`` the calling thread moves to
    that processor for the reading — the vCPUs of a shared host change speed
    independently of each other."""
    if cpu is not None:
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    try:
        fastest = float("inf")
        for _ in range(repeats):
            began = clock()
            reference_kernel()
            fastest = min(fastest, clock() - began)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, home)
    return fastest / REFERENCE_KERNEL_S


@dataclass
class LoadOutcome:
    """What happened to each request, by stream position."""

    due: List[float]
    sent_at: List[float]
    results: List[Optional[RequestResult]]
    refused: int = 0
    errors: List[str] = field(default_factory=list)
    #: ``mark()`` readings (CPU clocks) taken as the generator reached stream
    #: positions 0, WINDOW, 2·WINDOW, ... and once more after the last future.
    marks: List[tuple] = field(default_factory=list)
    #: Seconds the generator paused between segments (``merge``); not traffic.
    paused_s: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.due)

    def completed(self) -> List[RequestResult]:
        return [result for result in self.results if result is not None]

    def latencies(self) -> np.ndarray:
        """Seconds from due to finish, completed requests only."""
        return np.array([
            result.finish_time - due
            for result, due in zip(self.results, self.due) if result is not None
        ])

    def lags(self) -> np.ndarray:
        """How late the generator ran: send time minus due time."""
        return np.asarray(self.sent_at) - np.asarray(self.due)

    def wall(self) -> float:
        """First due time to the last future resolved, pauses left out."""
        finished = [result.finish_time for result in self.completed()]
        return (max(finished) - self.due[0] - self.paused_s) if finished else 0.0

    def cpu_seconds(self) -> np.ndarray:
        """What each CPU clock of ``mark`` advanced from first send to last future."""
        return np.subtract(self.marks[-1], self.marks[0])


def window_stats(outcome: LoadOutcome, slo_ms: float) -> Dict[str, np.ndarray]:
    """Rate, CPU µs/request, latency p50/p90 (ms) and the share of requests
    finished within ``slo_ms`` of their due time, for each window.

    The first window (ramp-up) and the last (drain tail) are left out.  CPU
    comes from ``outcome.marks`` — the CPU clocks read as the generator
    reached each window's first request.
    """
    count = outcome.sent // WINDOW
    finish = np.array([
        np.nan if result is None else result.finish_time
        for result in outcome.results[:count * WINDOW]
    ]).reshape(count, WINDOW)
    latency_ms = 1e3 * (finish - np.reshape(outcome.due[:count * WINDOW], (count, WINDOW)))
    ends = np.nanmax(finish, axis=1)
    cpu = np.diff(np.sum(outcome.marks[:count + 1], axis=1))
    p50, p90 = np.nanpercentile(latency_ms, [50, 90], axis=1)
    inner = slice(1, count - 1)
    return {
        "rps": (WINDOW / np.diff(ends))[:count - 2],  # diff[k-1] is window k
        "cpu_us": 1e6 * cpu[inner] / WINDOW,
        "p50_ms": p50[inner],
        "p90_ms": p90[inner],
        # NaN (refused or failed) compares false: a miss.
        "slo_ok": np.mean(latency_ms <= slo_ms, axis=1)[inner],
    }


def segment_stats(outcome: LoadOutcome, slo_ms: float, slowness: float) -> Dict[str, float]:
    """One segment's timing numbers at the reference box's speed.

    Rate, CPU and latency are the segment's *best* window (the SLO share its
    median window: the best window's share is 1), with rates multiplied and
    times divided by ``slowness``, the box's slowness around the segment.
    """
    windows = window_stats(outcome, slo_ms)
    return {
        "rps": windows["rps"].max() * slowness,
        "cpu_us": windows["cpu_us"].min() / slowness,
        "p50_ms": windows["p50_ms"].min() / slowness,
        "p90_ms": windows["p90_ms"].min() / slowness,
        "slo_ok": float(np.median(windows["slo_ok"])),
    }


def merge(segments: Sequence[LoadOutcome]) -> LoadOutcome:
    """A round's segments as one outcome, by stream position, for the
    whole-round numbers and the decision check.  ``marks`` stay with the
    segments: CPU spent between them is the benchmark's, not the server's."""
    ends = [segment.due[0] + segment.wall() for segment in segments]
    return LoadOutcome(
        due=[due for segment in segments for due in segment.due],
        sent_at=[sent for segment in segments for sent in segment.sent_at],
        results=[result for segment in segments for result in segment.results],
        refused=sum(segment.refused for segment in segments),
        errors=[error for segment in segments for error in segment.errors],
        paused_s=sum(later.due[0] - end for later, end in zip(segments[1:], ends)),
    )


def _gather(outcome: LoadOutcome, pending: List[Tuple[int, object]], mark: Mark) -> LoadOutcome:
    for position, response in pending:
        try:
            outcome.results[position] = response.result(timeout=RESULT_TIMEOUT_S)
        except Exception as error:  # a failed future is a failed request, not a crash
            outcome.errors.append(f"request {position}: {type(error).__name__}: {error}")
    outcome.marks.append(mark())
    return outcome


def closed_loop(server, requests: Requests, clock: Callable[[], float] = time.monotonic,
                mark: Mark = tuple) -> LoadOutcome:
    outcome = LoadOutcome(due=[], sent_at=[], results=[None] * len(requests))
    pending = []
    for position, (inputs, label) in enumerate(requests):
        if position % WINDOW == 0:
            outcome.marks.append(mark())
        now = clock()
        outcome.due.append(now)
        outcome.sent_at.append(now)
        pending.append((position, server.submit(inputs, label, block=True, timeout=30.0)))
    return _gather(outcome, pending, mark)


def open_loop(server, requests: Requests, rate: float, burst: int,
              clock: Callable[[], float] = time.monotonic,
              sleep: Callable[[float], None] = time.sleep,
              mark: Mark = tuple) -> LoadOutcome:
    """``rate`` requests/second on average, ``burst`` at a time."""
    outcome = LoadOutcome(due=[], sent_at=[], results=[None] * len(requests))
    pending = []
    period = burst / rate
    start = clock()
    for position, (inputs, label) in enumerate(requests):
        if position % WINDOW == 0:
            outcome.marks.append(mark())
        due = start + (position // burst) * period
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        outcome.due.append(due)
        outcome.sent_at.append(clock())
        try:
            pending.append((position, server.submit(inputs, label, block=False)))
        except QueueFullError:
            outcome.refused += 1
    return _gather(outcome, pending, mark)
