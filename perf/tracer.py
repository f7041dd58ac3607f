"""Span tracing installed from outside the program.

The benchmark wraps the public methods of each layer *at class level* for the
duration of a traced round and removes the wrappers afterwards, so the
program under ``src/`` carries no tracing code and an untraced round runs the
original methods.  Each call records one span — name, the span that caused
it (its parent on the same thread), start, duration, self time and a work
count — into an in-memory, per-thread list; nothing is written or reduced
until the round is over.

*Self time* is the span's duration minus the part its child spans cover.
Parent stacks are per thread: a call made on another thread is never a
child.  A span's duration includes any wait inside it (a blocked queue
``put``, a wait for the interpreter lock), which is what "time work waited
for a layer" means here.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    thread: str
    name: str
    parent: Optional[str]
    start: float
    duration: float
    self_time: float
    #: Work done by the call (rows admitted, records read, ...); 1 unless the
    #: target declares a ``measure``.  0 marks a call that did nothing, e.g.
    #: an empty queue poll.
    units: int


@dataclass(frozen=True)
class Target:
    """One method (or module function) to wrap.

    ``measure(args, result)`` returns the call's work count; ``args``
    includes ``self``.
    """

    owner: Any
    attr: str
    name: str
    measure: Optional[Callable[[tuple, Any], int]] = None


class _ThreadLog:
    __slots__ = ("thread", "stack", "spans")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack: List[list] = []  # open spans: [name, child-cover seconds]
        self.spans: List[tuple] = []


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: List[_ThreadLog] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, function: Callable, name: str,
             measure: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        clock = self.clock
        get_log = self._log

        @functools.wraps(function)
        def traced(*args, **kwargs):
            log = get_log()
            stack = log.stack
            frame = [name, 0.0]
            stack.append(frame)
            units = 1
            start = clock()
            try:
                result = function(*args, **kwargs)
                if measure is not None:
                    units = measure(args, result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                log.spans.append(
                    (name, parent, start, duration, duration - frame[1], units)
                )

        return traced

    # ------------------------------------------------------------------ #
    def install(self, targets: Iterable[Target]) -> None:
        """Replace each target attribute with its traced wrapper."""
        for target in targets:
            original = vars(target.owner)[target.attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(
                    self.wrap(original.__func__, target.name, target.measure)
                )
            else:
                wrapped = self.wrap(original, target.name, target.measure)
            setattr(target.owner, target.attr, wrapped)
            self._installed.append((target.owner, target.attr, original))

    def uninstall(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """All spans recorded so far, every thread; the tracer forgets them."""
        with self._lock:
            logs = list(self._logs)
        spans: List[Span] = []
        for log in logs:
            recorded, log.spans = log.spans, []
            spans.extend(Span(log.thread, *fields) for fields in recorded)
        return spans


# --------------------------------------------------------------------------- #
# Reduction (after the round, outside any timed region)
# --------------------------------------------------------------------------- #
@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    units: int = 0
    #: calls that did work (``units > 0``) and their time
    working_calls: int = 0
    working_busy: float = 0.0
    working_self: float = 0.0
    #: calls whose parent belongs to another layer (or that have no parent):
    #: a layer's *entries*, as opposed to its internal re-entry
    entry_calls: int = 0
    entry_busy: float = 0.0

    def __add__(self, other: "Stat") -> "Stat":
        return Stat(*(a + b for a, b in zip(astuple(self), astuple(other))))


def layer_of(name: str) -> str:
    """Span names are ``<layer>:<Class>.<method>``."""
    return name.partition(":")[0]


def aggregate(spans: Iterable[Span],
              window: Optional[Tuple[float, float]] = None) -> Dict[str, Stat]:
    """Per-name totals of the spans that *started* inside ``window``."""
    stats: Dict[str, Stat] = {}
    for span in spans:
        if window is not None and not window[0] <= span.start < window[1]:
            continue
        stat = stats.get(span.name)
        if stat is None:
            stat = stats[span.name] = Stat()
        stat.calls += 1
        stat.busy += span.duration
        stat.self_time += span.self_time
        stat.units += span.units
        if span.units > 0:
            stat.working_calls += 1
            stat.working_busy += span.duration
            stat.working_self += span.self_time
        if span.parent is None or layer_of(span.parent) != layer_of(span.name):
            stat.entry_calls += 1
            stat.entry_busy += span.duration
    return stats


def thread_coverage(spans: Iterable[Span], thread: str,
                    window: Tuple[float, float]) -> float:
    """Share of ``window`` that ``thread`` spent inside some span.

    The self times of a thread's spans sum to the durations of its
    parentless spans, so this is Σ self ÷ wall for that thread.
    """
    covered = sum(
        span.duration for span in spans
        if span.thread == thread and span.parent is None
        and window[0] <= span.start < window[1]
    )
    return covered / (window[1] - window[0])
