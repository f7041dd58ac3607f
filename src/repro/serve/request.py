"""Request / response primitives and the bounded admission queue.

A serving front-end accepts single-sample inference requests and returns
futures.  The admission queue is the backpressure point: it has a hard
capacity, and a submitter either blocks (optionally with a timeout) or gets
an immediate :class:`QueueFullError`, so an overloaded server sheds load at
the door instead of accumulating unbounded latency.

All timestamps are taken from an injectable monotonic clock so that tests and
the load generator can reason about latency deterministically.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.lockorder import named_lock

__all__ = [
    "Request",
    "RequestResult",
    "Response",
    "AdmissionQueue",
    "QueueFullError",
    "QueueClosedError",
    "ServerClosedError",
    "ThresholdEpoch",
    "EpochLedger",
    "clip_digest",
    "clone_exception",
]


# shape -> the bytes clip_digest hashes ahead of the clip's own.  A server
# sees one shape; the cap only keeps a shape-fuzzing caller from growing it.
_DIGEST_PREFIXES: Dict[Tuple[int, ...], bytes] = {}
_DIGEST_PREFIX_LIMIT = 64


def clip_digest(inputs: np.ndarray) -> bytes:
    """128-bit BLAKE2b content digest of one clip (shape/dtype-prefixed).

    THE identity of a request's payload: the serving engine interns it as
    the stem-memo key prefix and the trace WAL content-addresses its clip
    store by it — one function, so a trace deduplicates replayed traffic
    exactly the way the stem memo does.  Its value is frozen (recorded clip
    stores are keyed by it; tests/serve/test_stem_key_interning.py holds the
    goldens); :meth:`Request.clip_digest` is the once-per-request form.
    """
    array = np.ascontiguousarray(inputs, dtype=np.float32)
    shape = array.shape
    prefix = _DIGEST_PREFIXES.get(shape)
    if prefix is None:
        if len(_DIGEST_PREFIXES) >= _DIGEST_PREFIX_LIMIT:
            _DIGEST_PREFIXES.clear()
        prefix = _DIGEST_PREFIXES[shape] = repr((shape, array.dtype.str)).encode()
    digest = hashlib.blake2b(prefix, digest_size=16)
    # The array's own buffer, not tobytes(): that would re-copy the whole clip.
    digest.update(array)
    return digest.digest()


def clone_exception(error: BaseException) -> BaseException:
    """A fresh exception instance equivalent to ``error``.

    Failure paths that fan one error out to many futures must NOT set the
    same instance on all of them: every ``Response.result()`` caller
    re-raises its stored exception, and CPython's ``raise`` mutates the
    instance's ``__traceback__`` — concurrent waiters would race on one
    shared object (and a traceback chain would grow across unrelated
    callers).  Cloning per future keeps each waiter's raise private.

    Falls back to the original instance when the exception type has a
    non-standard constructor — a shared instance is still better than
    masking the real failure with a ``TypeError``.
    """
    try:
        clone = type(error)(*error.args)
    except Exception:
        return error
    clone.__cause__ = error.__cause__
    return clone


class QueueFullError(RuntimeError):
    """Raised when the admission queue is at capacity and blocking is off."""


class QueueClosedError(RuntimeError):
    """Raised when submitting to a queue that has been closed (draining server)."""


class ServerClosedError(RuntimeError):
    """Raised when submitting to a server that is not accepting requests.

    Defined here beside its sibling exceptions so lower layers (the replica
    pool's shutdown paths) can raise it without importing the server.
    """


@dataclass(frozen=True)
class ThresholdEpoch:
    """An immutable snapshot of the serving knobs one request runs under.

    The PR 5 caveat was a torn read: the engine recorded ``policy.threshold``
    *after* deciding exits with it, and replicas learned of changes through
    one-way messages — so a recorded threshold was not provably the one the
    decision used.  Epochs close that hole: the server stamps the live knobs
    into a frozen epoch at admission, the engine *evaluates* each slot under
    its stamped epoch, and the recorded threshold is the stamped value by
    construction.  ``epoch`` is a monotone version number so traces can prove
    ordering; ``brownout`` marks storm-degraded service (docs/RESILIENCE.md).
    """

    epoch: int
    threshold: Optional[float]
    horizon: Optional[int] = None
    brownout: bool = False

    def as_tuple(self) -> Tuple[int, Optional[float], Optional[int], bool]:
        """Picklable wire form for replica dispatch."""
        return (self.epoch, self.threshold, self.horizon, self.brownout)


class EpochLedger:
    """Versions the (threshold, horizon, brownout) triple across a server.

    ``stamp()`` returns the current epoch, bumping the version only when the
    knobs actually changed — so a steady-state server stamps one epoch into
    millions of requests and a moving-threshold trace records exactly one
    epoch per distinct operating point.
    """

    def __init__(self):
        self._lock = named_lock("serve.epochs")
        self._current: Optional[ThresholdEpoch] = None

    def stamp(
        self,
        threshold: Optional[float],
        horizon: Optional[int] = None,
        brownout: bool = False,
    ) -> ThresholdEpoch:
        with self._lock:
            current = self._current
            if (
                current is not None
                and current.threshold == threshold
                and current.horizon == horizon
                and current.brownout == brownout
            ):
                return current
            number = 0 if current is None else current.epoch + 1
            self._current = ThresholdEpoch(
                epoch=number, threshold=threshold, horizon=horizon,
                brownout=brownout,
            )
            return self._current

    @property
    def current(self) -> Optional[ThresholdEpoch]:
        with self._lock:
            return self._current


@dataclass(slots=True)
class Request:
    """A single-sample inference request.

    ``inputs`` holds one sample *without* the batch axis (shape equal to the
    dataset's ``sample_shape``); the batcher stacks requests into batches.

    ``priority`` is a storm-guard admission class (0=high, 1=normal, 2=low;
    see :mod:`repro.serve.storm`); ``deadline`` is an *absolute* time in the
    server's clock domain after which dispatch drops the request instead of
    serving it; ``epoch`` is the threshold epoch stamped at admission;
    ``digest`` is the clip's content digest once somebody asked for it.
    """

    request_id: int
    inputs: np.ndarray
    label: Optional[int] = None
    arrival_time: float = 0.0
    priority: int = 1
    deadline: Optional[float] = None
    epoch: Optional[ThresholdEpoch] = None
    digest: Optional[bytes] = field(default=None, repr=False, compare=False)

    def clip_digest(self) -> bytes:
        """:func:`clip_digest` of ``inputs``, computed by whoever asks first
        (the engine's stem-key interning or the trace recorder) and carried
        from then on — ``inputs`` is never rewritten after submission."""
        digest = self.digest
        if digest is None:
            digest = self.digest = clip_digest(self.inputs)
        return digest


@dataclass(slots=True)
class RequestResult:
    """Everything the server knows about one completed request."""

    request_id: int
    prediction: int
    exit_timestep: int
    score: float
    label: Optional[int] = None
    threshold: Optional[float] = None
    arrival_time: float = 0.0
    start_time: float = 0.0
    finish_time: float = 0.0
    energy: Optional[float] = None
    edp: Optional[float] = None
    epoch: Optional[int] = None
    brownout: bool = False
    horizon: Optional[int] = None

    @property
    def latency(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.finish_time - self.arrival_time

    @property
    def queue_delay(self) -> float:
        """Time spent waiting for a batch slot."""
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Time spent occupying a batch slot."""
        return self.finish_time - self.start_time

    @property
    def correct(self) -> Optional[bool]:
        if self.label is None:
            return None
        return bool(self.prediction == self.label)


class Response:
    """The future of one request: a one-shot latch plus the outcome it guards.

    The latch is a raw lock, taken at construction by the submitter and
    released exactly once by whichever thread resolves the future; a waiter
    acquires it and hands it straight on, so any number of concurrent
    ``result()`` callers pass it hand to hand.  It is not a mutex — nothing
    runs under it, it is never entered with ``with`` and it is not in the
    lock hierarchy (docs/ANALYSIS.md) — and not a ``threading.Event``, whose
    ``Condition`` + lock + waiter deque cost 11 allocations per request that
    almost never has more than one waiter (docs/ARCHITECTURE.md, "The
    request lifecycle").
    """

    __slots__ = ("_latch", "_result", "_exception")

    def __init__(self):
        self._latch = threading.Lock()
        self._latch.acquire()
        self._result: Optional[RequestResult] = None
        self._exception: Optional[BaseException] = None

    def done(self) -> bool:
        # The outcome, not ``not locked()``: a waiter handing the latch on
        # holds it for an instant after resolution.
        return self._result is not None or self._exception is not None

    def _open(self) -> None:
        try:
            self._latch.release()
        except RuntimeError:
            # Already open: a second resolution, or one that landed while a
            # waiter held the latch (whose own release then lands here).
            pass

    def set_result(self, result: RequestResult) -> None:
        self._result = result
        self._open()

    def set_exception(self, exception: BaseException) -> None:
        self._exception = exception
        self._open()

    def result(self, timeout: Optional[float] = None) -> RequestResult:
        """Block until the request completes; raise its failure if it failed."""
        if not self._latch.acquire(True, -1 if timeout is None else max(0.0, timeout)):
            raise TimeoutError("request did not complete within the timeout")
        self._open()
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result


class AdmissionQueue:
    """Bounded FIFO of ``(Request, Response)`` pairs with blocking semantics.

    ``close()`` rejects further submissions while letting the worker drain
    what is already queued — the graceful-shutdown half of backpressure.
    """

    def __init__(self, capacity: int = 64, clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = int(capacity)
        self.clock = clock
        self._items: Deque[Tuple[Request, Response]] = deque()
        self._lock = named_lock("serve.queue")
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # Dual-condition hygiene (docs/ANALYSIS.md): both conditions MUST
        # wrap the one queue lock — put() notifies _not_empty while holding
        # _not_full and vice versa, which is only sound because they are the
        # same mutex.  A condition constructed with its own implicit lock
        # here would turn every notify into a silent lost-wakeup bug.
        if not (
            self._not_full._lock is self._lock
            and self._not_empty._lock is self._lock
        ):
            raise AssertionError(
                "AdmissionQueue conditions must share the queue lock"
            )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def depth(self) -> int:
        return len(self)

    # ------------------------------------------------------------------ #
    def put(
        self,
        request: Request,
        response: Response,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> None:
        """Enqueue a request, blocking for a slot or raising on backpressure."""
        with self._not_full:
            if self._closed:
                raise QueueClosedError("admission queue is closed")
            if len(self._items) >= self.capacity:
                if not block:
                    raise QueueFullError(
                        f"admission queue is at capacity ({self.capacity})"
                    )
                deadline = None if timeout is None else self.clock() + timeout
                while len(self._items) >= self.capacity and not self._closed:
                    remaining = None if deadline is None else deadline - self.clock()
                    if remaining is not None and remaining <= 0:
                        raise QueueFullError(
                            f"admission queue stayed full for {timeout:.3f}s"
                        )
                    self._not_full.wait(remaining)
                if self._closed:
                    raise QueueClosedError("admission queue closed while waiting")
            request.arrival_time = self.clock()
            self._items.append((request, response))
            self._not_empty.notify()

    def put_many(self, items: Sequence[Tuple[Request, Response]]) -> None:
        """Enqueue a whole round without waiting: one critical section, one
        clock reading, one consumer wake-up — :meth:`get`'s ``limit``, from
        the producer's side.  All or nothing: a round that does not fit
        raises :class:`QueueFullError` and enqueues none of it."""
        with self._lock:
            if self._closed:
                raise QueueClosedError("admission queue is closed")
            if len(self._items) + len(items) > self.capacity:
                raise QueueFullError(
                    f"admission queue has no room for a round of {len(items)} "
                    f"(capacity {self.capacity})"
                )
            now = self.clock()
            for request, _ in items:
                request.arrival_time = now
            self._items.extend(items)
            self._not_empty.notify(len(items))

    def _take(self, limit: Optional[int]):
        """Pop the oldest request (``limit`` None) or up to ``limit`` of them,
        oldest first; ``None`` when the queue is empty.  Lock held."""
        items = self._items
        if not items:
            return None
        if limit is None:
            self._not_full.notify()
            return items.popleft()
        taken = [items.popleft() for _ in range(min(limit, len(items)))]
        self._not_full.notify(len(taken))
        return taken

    def get(self, timeout: Optional[float] = None, limit: Optional[int] = None):
        """Dequeue the oldest request, or None on timeout / closed-and-empty.

        With ``limit`` the call returns a *list* of up to that many requests
        (still ``None`` when nothing arrived): the batcher's fill round takes
        everything it has room for in one critical section with one producer
        wake-up, instead of one of each per request.

        The wait is a predicate loop, mirroring :meth:`put`: a spurious
        ``Condition.wait()`` wakeup (or a ``notify`` raced away by another
        consumer) re-waits for the *remaining* deadline instead of returning
        ``None`` early — with ``timeout=None`` the old single-wait version
        could return ``None`` from a spurious wakeup and the batcher would
        misread an occupied queue as an idle poll.
        """
        with self._not_empty:
            deadline = None if timeout is None else self.clock() + timeout
            while not self._items:
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            return self._take(limit)

    def get_nowait(self, limit: Optional[int] = None):
        """:meth:`get` without waiting: ``None`` when the queue is empty."""
        with self._lock:
            return self._take(limit)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Reject new submissions; already-queued requests remain drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def drain_pending(self) -> List[Tuple[Request, Response]]:
        """Remove every queued request (non-graceful shutdown) and return
        the ``(request, response)`` pairs, futures untouched: the caller
        fails them (:func:`~repro.serve.batcher.fail_round`) outside the
        queue lock, with the error that says *why* the queue died."""
        with self._lock:
            drained = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
        return drained
