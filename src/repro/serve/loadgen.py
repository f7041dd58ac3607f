"""Deterministic load generation for the serving runtime.

The generator replays a seeded stream of single-sample requests against a
:class:`repro.serve.Server`, either *closed-loop* (submit as fast as
backpressure allows — measures capacity) or *open-loop* at a fixed arrival
rate (measures latency under a given offered load).  Streams are derived from
a dataset with a seeded permutation, so two runs — e.g. a static-T baseline
and a DT-SNN run, or a test and its reference — see byte-identical inputs in
identical order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..data.datasets import ArrayDataset
from .request import QueueFullError, RequestResult
from .server import Server
from .storm import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    DeadlineExceededError,
    StormShedError,
)

__all__ = [
    "request_stream",
    "LoadReport",
    "LoadGenerator",
    "StormPhase",
    "storm_phases",
    "priority_cycle",
]


def request_stream(
    dataset: ArrayDataset,
    num_requests: int,
    seed: int = 0,
    shuffle: bool = True,
) -> Iterator[Tuple[np.ndarray, int]]:
    """Yield ``num_requests`` deterministic ``(input, label)`` pairs.

    The stream walks seeded permutations of the dataset, wrapping around with
    a fresh permutation when it runs past the end, so arbitrarily long runs
    stay deterministic and balanced.
    """
    if num_requests < 0:
        raise ValueError("num_requests must be non-negative")
    rng = np.random.default_rng(seed)
    emitted = 0
    while emitted < num_requests:
        order = rng.permutation(len(dataset)) if shuffle else np.arange(len(dataset))
        for index in order:
            if emitted >= num_requests:
                return
            yield dataset.inputs[index], int(dataset.labels[index])
            emitted += 1


@dataclass(frozen=True)
class StormPhase:
    """One piecewise-constant segment of an offered-load profile."""

    duration: float  # seconds of this phase
    rate: float  # offered requests/second during it

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")
        if self.rate <= 0:
            raise ValueError("phase rate must be positive")


def storm_phases(
    base_rate: float,
    storm_multiplier: float = 4.0,
    warmup: float = 1.0,
    storm: float = 2.0,
    recovery: float = 2.0,
) -> List[StormPhase]:
    """The overload profile: calm → storm → calm.

    ``base_rate`` should be at or below the measured serving capacity so the
    warmup and recovery segments are genuinely calm; the storm segment
    offers ``storm_multiplier`` times that (``bench_serve_storm.py`` runs
    half capacity → 8x that, i.e. 4x capacity).
    Give recovery at least the storm's length so the FSM's cooldown
    hysteresis has room to walk the guard back to NORMAL inside the run.
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if storm_multiplier <= 1.0:
        raise ValueError("storm_multiplier must exceed 1 (it is a storm)")
    return [
        StormPhase(duration=warmup, rate=base_rate),
        StormPhase(duration=storm, rate=base_rate * storm_multiplier),
        StormPhase(duration=recovery, rate=base_rate),
    ]


def priority_cycle(
    mix: Dict[int, int] = None,
) -> Iterator[int]:
    """Deterministic priority-class pattern with the given integer mix.

    ``mix`` maps priority class to its per-cycle count (default
    ``{high: 1, normal: 2, low: 1}``); the generator emits classes
    round-robin within each cycle, forever.  Deterministic by construction —
    two runs see identical priority sequences, which is what makes the
    monotone shed-by-class assertion reproducible.
    """
    if mix is None:
        mix = {PRIORITY_HIGH: 1, PRIORITY_NORMAL: 2, PRIORITY_LOW: 1}
    if not mix or any(count < 0 for count in mix.values()) or not any(
        count > 0 for count in mix.values()
    ):
        raise ValueError("mix must contain at least one positive class count")
    cycle = [
        priority
        for priority in sorted(mix)
        for _ in range(mix[priority])
    ]
    while True:
        for priority in cycle:
            yield priority


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    offered: int
    completed: int
    dropped: int
    duration: float
    results: List[RequestResult] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    # Storm-profile bookkeeping (defaults keep positional construction
    # compatible): requests dropped past their deadline, drops split by
    # priority class, and the stream index of each accepted-and-completed
    # request (aligned with ``results``) so callers can re-derive which
    # inputs the completions correspond to.
    expired: int = 0
    dropped_by_class: Dict[int, int] = field(default_factory=dict)
    accepted_indices: List[int] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    def accuracy(self) -> Optional[float]:
        flags = [r.correct for r in self.results if r.correct is not None]
        if not flags:
            return None
        return float(np.mean(flags))

    def average_exit_timesteps(self) -> float:
        if not self.results:
            return 0.0
        return float(np.mean([r.exit_timestep for r in self.results]))


class LoadGenerator:
    """Submits a request stream to a server and gathers the outcome.

    Parameters
    ----------
    server:
        A started :class:`Server`.
    rate:
        Offered load in requests/second; ``None`` means closed-loop.
    burst:
        Arrival burstiness: requests arrive in back-to-back groups of this
        size (the *average* offered rate is unchanged — each burst is
        followed by a proportionally longer gap).  This is the bursty-
        admission profile: a burst of B requests lands in the queue at one
        instant, so a well-batched server admits all B in a single fill
        round.  Only meaningful with ``rate``; closed-loop submission is
        already maximally bursty.
    block:
        Closed-loop runs block on backpressure (True); open-loop runs
        typically use ``block=False`` so overload shows up as drops rather
        than as a silently throttled arrival process.
    phases:
        Optional piecewise-constant rate schedule (:class:`StormPhase`
        list, e.g. from :func:`storm_phases`).  Mutually exclusive with
        ``rate``; past the end of the schedule arrivals continue at the
        final phase's rate.  Phase pacing ignores ``burst``.
    priorities:
        Optional iterable/iterator of priority classes consumed one per
        request (e.g. :func:`priority_cycle`); ``None`` submits everything
        at normal priority.
    deadline:
        Optional relative deadline (seconds from submission) attached to
        every request; expired requests count as ``expired`` in the report.
    """

    def __init__(
        self,
        server: Server,
        rate: Optional[float] = None,
        burst: int = 1,
        block: bool = True,
        submit_timeout: Optional[float] = 30.0,
        result_timeout: Optional[float] = 60.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        phases: Optional[List[StormPhase]] = None,
        priorities: Optional[Iterable[int]] = None,
        deadline: Optional[float] = None,
    ):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None for closed-loop)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        if phases is not None:
            if rate is not None:
                raise ValueError("pass either rate or phases, not both")
            phases = list(phases)
            if not phases:
                raise ValueError("phases must be a non-empty list")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive seconds")
        self.server = server
        self.rate = rate
        self.burst = int(burst)
        self.block = block
        self.submit_timeout = submit_timeout
        self.result_timeout = result_timeout
        self.clock = clock
        self.sleep = sleep
        self.phases = phases
        self.priorities = priorities
        self.deadline = deadline

    def _arrival_offsets(self) -> Iterator[float]:
        """Arrival offsets (seconds from run start) under the phase schedule.

        Each phase contributes arrivals at its own constant spacing; past the
        last phase boundary the final rate continues indefinitely, so the
        offered stream length — not the schedule — decides when the run ends.
        """
        start = end = 0.0
        for phase in self.phases:
            end = start + phase.duration
            spacing = 1.0 / phase.rate
            # Multiplicative (not accumulated) offsets: repeated `+= spacing`
            # drifts enough to spill an extra arrival across the boundary.
            arrival = 0
            while start + arrival * spacing < end:
                yield start + arrival * spacing
                arrival += 1
            start = end
        spacing = 1.0 / self.phases[-1].rate
        arrival = 0
        while True:
            yield end + arrival * spacing
            arrival += 1

    def run(self, stream: Iterable[Tuple[np.ndarray, Optional[int]]]) -> LoadReport:
        """Drive the whole stream, wait for every accepted request."""
        start = self.clock()
        pending: List[Tuple[int, object]] = []
        offered = dropped = 0
        dropped_by_class: Dict[int, int] = {}
        priorities = iter(self.priorities) if self.priorities is not None else None
        offsets = self._arrival_offsets() if self.phases is not None else None
        for index, (inputs, label) in enumerate(stream):
            if offsets is not None:
                scheduled = start + next(offsets)
                delay = scheduled - self.clock()
                if delay > 0:
                    self.sleep(delay)
            elif self.rate is not None:
                # Quantize arrival times to burst boundaries: requests
                # [k*burst, (k+1)*burst) all fire at the k-th burst instant.
                scheduled = start + (index // self.burst) * self.burst / self.rate
                delay = scheduled - self.clock()
                if delay > 0:
                    self.sleep(delay)
            offered += 1
            priority = PRIORITY_NORMAL if priorities is None else next(priorities)
            try:
                response = self.server.submit(
                    inputs,
                    label,
                    block=self.block,
                    timeout=self.submit_timeout,
                    priority=priority,
                    deadline=self.deadline,
                )
            except QueueFullError:
                # StormShedError is a QueueFullError: shed-by-class and
                # queue-full backpressure are both "the server refused this
                # arrival", split by class for the monotonicity assertions.
                dropped += 1
                dropped_by_class[priority] = dropped_by_class.get(priority, 0) + 1
            else:
                pending.append((index, response))
        results: List[RequestResult] = []
        accepted_indices: List[int] = []
        expired = 0
        for index, response in pending:
            try:
                result = response.result(timeout=self.result_timeout)
            except DeadlineExceededError:
                expired += 1
            else:
                results.append(result)
                accepted_indices.append(index)
        duration = self.clock() - start
        return LoadReport(
            offered=offered,
            completed=len(results),
            dropped=dropped,
            duration=duration,
            results=results,
            stats=self.server.stats(),
            expired=expired,
            dropped_by_class=dropped_by_class,
            accepted_indices=accepted_indices,
        )
