"""Serving front-end around the continuous batcher (threads or processes).

:class:`Server` owns the admission queue and the lifecycle: ``start()`` →
``submit()`` futures → ``drain()`` (finish all accepted work, reject new) or
``shutdown(drain=False)`` (abort in-flight).  Two scaling axes share that
front-end:

* ``num_workers=N`` — worker *threads* over one shared compiled plan.
  Cheap, but GIL-bound: the op-dispatch loop serializes, so N threads
  saturate about one core of Python.
* ``num_replicas=N`` — worker *processes* over one shared-memory plan arena
  (:mod:`repro.serve.replica`).  Each replica runs the same engine/batcher
  stack in its own interpreter; the constants are zero-copy views into one
  ``/dev/shm`` segment, so memory grows sub-linearly in N.

Either way the workers share the queue, telemetry and — when adaptive — the
exit policy, so the SLA controller steers the whole fleet with one knob, and
per-sample batch invariance keeps every request's decisions identical to the
sequential oracle regardless of which worker served it.
"""

from __future__ import annotations

import ctypes
import itertools
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.accounting import InferenceCostModel
from ..core.policies import ExitPolicy
from ..snn.network import SpikingNetwork
from .batcher import ContinuousBatcher, fail_round
from .controller import AdaptiveThresholdController
from .engine import InferenceEngine
from .replica import ReplicaPool
from .request import (
    AdmissionQueue,
    EpochLedger,
    QueueClosedError,
    QueueFullError,
    Request,
    Response,
    ServerClosedError,
)
from .storm import PRIORITY_NORMAL, StormConfig, StormGuard, StormShedError
from .telemetry import Telemetry

__all__ = ["Server", "ServerClosedError"]


def _release_free_heap() -> None:
    """Hand the allocator's free pages back to the OS before serving starts.

    A server is usually started right after something allocation-heavy —
    training, calibration, a checkpoint load — and glibc keeps that freed
    heap resident (its trim threshold rises with the largest block ever
    freed).  The small objects a serving loop allocates per request come
    from separate arenas, so they land *on top of* the idle heap instead of
    reusing it: measured on the event fixture, the same serve run sits at
    86 or at 117 MiB resident depending only on whether the allocator
    happened to trim.  ``malloc_trim`` makes it the former; a no-op where
    the C library has no such call.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError, TypeError):
        pass


class Server:
    """In-process DT-SNN inference server with continuous batching.

    Parameters
    ----------
    model:
        The spiking network served by the primary worker(s).
    policy:
        Exit policy shared by all workers (and mutated by the controller).
    num_workers:
        Worker threads serving ``model`` itself.  With ``num_workers > 1``
        the replicas *share one compiled plan* (weights are read-only at
        serve time, so the lowered op list and folded constants are compiled
        once via the :data:`repro.runtime.plan_registry` and reused), while
        every worker keeps its own executor state — membranes, scratch,
        slots.  This requires the compiled-plan fast path: on the Tensor
        oracle the LIF membrane state lives *inside* the shared model and
        replicas would corrupt each other.
    num_replicas:
        Worker *processes* serving ``model`` (mutually exclusive with
        ``num_workers > 1``).  The plan constants are
        exported once into a shared-memory arena
        (:class:`repro.runtime.PlanArena`) and every replica attaches
        zero-copy views, so N replicas hold one copy of the weights; unlike
        thread workers they do not share a GIL, which is what makes this
        the CPU scaling axis.  Decisions stay identical to the sequential
        oracle.  Frames and completions move through preallocated
        shared-memory rings (:mod:`repro.runtime.rings`) with only tickets
        and cursors on the pipes; a frame larger than a ring slot is refused
        with :class:`~repro.serve.AdmissionRejectedError`.  Each replica
        holds at most ``2 * batch_width`` requests (one width stepping, one
        staged), which is also what a replica crash can lose: exactly those
        fail with :class:`~repro.serve.ReplicaCrashError` while the
        survivors keep serving.  After an in-place weight reload on
        ``model``, call :meth:`refresh_replicas` to propagate.
    batch_width:
        Maximum concurrent slots per worker.
    queue_capacity:
        Admission-queue bound (the backpressure limit).
    cost_model:
        Optional per-request energy/latency pricer (e.g. ``IMCChip``).
    controller:
        Optional :class:`AdaptiveThresholdController` holding a latency SLA.
    use_runtime:
        Per-engine execution path: ``None`` (default) lets the
        ``REPRO_RUNTIME`` gate pick the compiled-plan fast path when the
        model lowers; ``False`` pins the define-by-run Tensor oracle.  Both
        paths produce bitwise-identical predictions and exit timesteps, so
        the oracle switch is a pure speed/debuggability trade.

    Dtype guarantees
    ----------------
    All served inference runs weak-scalar float32 (docs/NUMERICS.md): input
    frames are encoded to float32, every activation / membrane / logit the
    workers produce is float32, and frozen conv+norm pairs execute as folded
    single GEMMs on both paths.  Only decision-side score bookkeeping
    (entropy values reported in telemetry) uses float64.
    """

    def __init__(
        self,
        model: SpikingNetwork,
        policy: ExitPolicy,
        max_timesteps: Optional[int] = None,
        batch_width: int = 8,
        queue_capacity: int = 64,
        num_workers: int = 1,
        num_replicas: int = 0,
        cost_model: Optional[InferenceCostModel] = None,
        controller: Optional[AdaptiveThresholdController] = None,
        clock: Callable[[], float] = time.monotonic,
        use_runtime: Optional[bool] = None,
        trace=None,
        spans=None,
        storm=None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_replicas < 0:
            raise ValueError("num_replicas must be >= 0")
        self.clock = clock
        self.telemetry = Telemetry()
        # Observability sinks (both optional, both None-cost when absent):
        # ``trace`` is a repro.serve.trace.TraceRecorder appending one WAL
        # record per completion/rejection; ``spans`` is a
        # repro.serve.obs.SpanTracker stamping request lifecycle stages.
        self.trace = trace
        self.spans = spans
        self.queue = AdmissionQueue(capacity=queue_capacity, clock=clock)
        self.policy = policy
        # Every submission is stamped with a ThresholdEpoch — the frozen
        # (threshold, horizon, brownout) triple its engine slot will evaluate
        # under — so the recorded threshold is provably the deciding one on
        # every composition (docs/RESILIENCE.md).
        self.epochs = EpochLedger()
        # Overload resilience (docs/RESILIENCE.md): ``storm`` may be a
        # StormConfig, or any truthy value for the default watermarks.
        self.storm: Optional[StormGuard] = None
        if storm:
            config = storm if isinstance(storm, StormConfig) else None
            self.storm = StormGuard(
                self.queue,
                self.telemetry,
                config=config,
                clock=clock,
                controller=controller,
                policy=policy,
            )
        self._ids = itertools.count()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        #: What killed a worker thread, if one died (its futures were failed
        #: and admissions closed; see ``_worker``).
        self.worker_error: Optional[BaseException] = None
        if num_replicas:
            if num_workers > 1:
                raise ValueError(
                    "num_replicas is a process-level alternative to thread "
                    "workers: do not combine it with num_workers > 1"
                )
            self.batchers: List[ContinuousBatcher] = []
            self.replicas: Optional[ReplicaPool] = ReplicaPool(
                model,
                policy,
                num_replicas=num_replicas,
                queue=self.queue,
                telemetry=self.telemetry,
                max_timesteps=max_timesteps,
                batch_width=batch_width,
                use_runtime=use_runtime,
                cost_model=cost_model,
                controller=controller,
                clock=clock,
                trace=trace,
                spans=spans,
            )
            self.max_timesteps = self.replicas.max_timesteps
            return
        self.replicas = None
        engines = [
            InferenceEngine(
                model,
                policy,
                max_timesteps=max_timesteps,
                use_runtime=use_runtime,
            )
            for _ in range(num_workers)
        ]
        if num_workers > 1:
            stragglers = [engine for engine in engines if not engine.fast_path]
            if stragglers:
                raise ValueError(
                    "num_workers > 1 shares one model across workers, which "
                    "requires the compiled-plan runtime (per-executor state); "
                    "this model runs on the Tensor oracle — serve it with "
                    "num_workers=1"
                )
        self.batchers: List[ContinuousBatcher] = [
            ContinuousBatcher(
                engine,
                self.queue,
                batch_width=batch_width,
                telemetry=self.telemetry,
                cost_model=cost_model,
                controller=controller,
                clock=clock,
                trace=trace,
                spans=spans,
            )
            for engine in engines
        ]
        self.max_timesteps = self.batchers[0].engine.max_timesteps

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Server":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        _release_free_heap()
        if self.replicas is not None:
            # Block until the replicas are actually serving: a "started"
            # server accepts traffic at its steady-state latency instead of
            # hiding N interpreter startups behind the first futures.  A
            # failed start must not leak half a fleet (or the arena).
            try:
                self.replicas.start()
                if self.replicas.wait_ready() == 0:
                    # Every replica died during startup (rebuild/attach
                    # failure in the spawn interpreter): surface it HERE,
                    # not as ServerClosedError on some later submit with
                    # only child stderr as the root-cause signal.
                    raise ServerClosedError(
                        "no serving replica became ready; see the replica "
                        "process tracebacks on stderr"
                    )
            except BaseException:
                # abort() also fails what a concurrent submitter slipped
                # into the queue after _started flipped, shed like any
                # other shutdown casualty.
                self.queue.close()
                self.replicas.abort()
                raise
            return self
        for index, batcher in enumerate(self.batchers):
            thread = threading.Thread(
                target=self._worker, args=(batcher,), name=f"repro-serve-{index}", daemon=True
            )
            self._threads.append(thread)
            thread.start()
        return self

    def _worker(self, batcher: ContinuousBatcher) -> None:
        try:
            while not self._stop.is_set():
                batcher.run_once(wait_timeout=0.02)
                if batcher.engine.idle and self.queue.closed and self.queue.depth() == 0:
                    break
        except BaseException as error:  # noqa: BLE001 - a dead worker must not
            # strand futures: fail everything it owned and stop admissions so
            # clients see the error instead of hanging until their timeout.
            failure = ServerClosedError(f"serving worker crashed: {error!r}")
            failure.__cause__ = error
            casualties = batcher.engine.fail_active()
            self.queue.close()
            self._fail(casualties + self.queue.drain_pending(), failure, "shed")
            # Visible without raising out of the thread: the traceback goes
            # to stderr and the error stays readable on the server.
            traceback.print_exc()
            self.worker_error = error
            if not isinstance(error, Exception):
                raise

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop admissions, finish every accepted request, stop the workers.

        With replicas this also retires the worker processes and unlinks the
        shared-memory arena: a drained server leaves no ``/dev/shm`` entry.
        """
        self.queue.close()
        if self.replicas is not None:
            self.replicas.drain(timeout)
        else:
            for thread in self._threads:
                thread.join(timeout)
        if self.trace is not None:
            # Drain is the orderly exit: make the WAL durable while the
            # process is still healthy (crash recovery is the *other* path).
            self.trace.flush()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the server; with ``drain=False`` abort queued/in-flight work."""
        if drain:
            self.drain(timeout=timeout)
            return
        self.queue.close()
        if self.replicas is not None:
            self.replicas.abort()
            return
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        casualties = self.queue.drain_pending()
        for batcher in self.batchers:
            casualties += batcher.engine.fail_active()
        self._fail(casualties, ServerClosedError("server shut down"), "shed")

    def _fail(self, failed, error: BaseException, reason: str) -> None:
        fail_round(failed, error, reason, self.clock, self.telemetry,
                   self.trace, self.spans)

    def refresh_replicas(self) -> int:
        """Propagate an in-place weight reload (``load_state_dict``) to the
        replica processes through the arena; returns changed slots.  Thread
        workers read the live parameter objects and need no call."""
        if self.replicas is None:
            return 0
        return self.replicas.refresh_weights()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        inputs: np.ndarray,
        label: Optional[int] = None,
        block: bool = True,
        timeout: Optional[float] = None,
        *,
        priority: int = PRIORITY_NORMAL,
        deadline: Optional[float] = None,
        threshold: Optional[float] = None,
        horizon: Optional[int] = None,
    ) -> Response:
        """Enqueue one sample; returns a future.

        With ``block=False`` a full queue raises :class:`QueueFullError`
        immediately (load shedding); otherwise the caller waits for a slot,
        up to ``timeout`` seconds.

        ``priority`` is the storm-guard admission class (0=high, 1=normal,
        2=low); under WARN/STORM lower classes are shed at the door with
        :class:`~repro.serve.StormShedError`.  ``deadline`` is a *relative*
        budget in seconds: a request still undispatched after it is dropped
        with :class:`~repro.serve.DeadlineExceededError`.  ``threshold`` /
        ``horizon`` pin this request's exit knobs explicitly (the trace
        replayer uses this to re-run each request under its recorded epoch);
        when omitted, the live policy knob — possibly brown-out-escalated by
        the storm guard — is stamped instead.
        """
        if not self._started:
            raise ServerClosedError("server not started")
        request = Request(
            request_id=next(self._ids),
            inputs=np.asarray(inputs, dtype=np.float32),
            label=None if label is None else int(label),
            priority=int(priority),
        )
        if deadline is not None:
            request.deadline = self.clock() + float(deadline)
        response = Response()
        if self.storm is not None:
            self.storm.observe()
            try:
                self.storm.admit(request.priority)
            except StormShedError as error:
                self._fail([(request, None)], error, "storm")
                raise
        # Stamp the epoch AFTER the admission gate: the stamped knobs are the
        # ones in force at the instant this request enters the system.
        live = getattr(self.policy, "threshold", None)
        if live is not None:
            live = float(live)
        if threshold is not None or horizon is not None:
            effective_threshold = live if threshold is None else float(threshold)
            effective_horizon = None if horizon is None else int(horizon)
            brownout = False
        elif self.storm is not None:
            effective_threshold, effective_horizon, brownout = (
                self.storm.effective(live)
            )
        else:
            effective_threshold, effective_horizon, brownout = live, None, False
        request.epoch = self.epochs.stamp(
            effective_threshold, effective_horizon, brownout
        )
        try:
            self.queue.put(request, response, block=block, timeout=timeout)
        except QueueFullError as error:
            self._fail([(request, None)], error, "rejected")
            raise
        except QueueClosedError as error:
            raise ServerClosedError(str(error)) from error
        return response

    def predict(self, inputs: np.ndarray, timeout: Optional[float] = None) -> int:
        """Convenience wrapper: submit one sample and wait for its prediction."""
        return self.submit(inputs).result(timeout=timeout).prediction

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Telemetry snapshot plus live queue / threshold gauges."""
        stats = self.telemetry.snapshot()
        stats["queue_depth"] = float(self.queue.depth())
        if self.replicas is not None:
            stats["num_workers"] = float(self.replicas.num_replicas)
            stats["live_replicas"] = float(self.replicas.live_replicas)
        else:
            stats["num_workers"] = float(len(self.batchers))
        threshold = getattr(self.policy, "threshold", None)
        if threshold is not None:
            stats["threshold"] = float(threshold)
        if self.storm is not None:
            stats["storm_state"] = float(self.storm.state_code)
        current = self.epochs.current
        if current is not None:
            stats["threshold_epoch"] = float(current.epoch)
        return stats
