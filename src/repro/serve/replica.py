"""Process-level serve replicas over a shared-memory plan arena.

``Server(num_workers=N)`` scales until the GIL does not: the GEMMs release
it, the op-dispatch loop does not, so N thread workers saturate roughly one
core's worth of Python.  :class:`ReplicaPool` is the process-level
counterpart — N worker *processes*, each running the unchanged serving stack
(:class:`~repro.serve.InferenceEngine` + :class:`~repro.serve.ContinuousBatcher`)
over a private :class:`~repro.runtime.PlanExecutor` whose constants are
zero-copy views into one :class:`~repro.runtime.PlanArena` segment.

Data flow, front to back:

* **Dispatch** — requests enter the server's single
  :class:`~repro.serve.AdmissionQueue` exactly as in thread mode.  One
  *forwarder* thread per replica competes for queued requests, copies each
  frame **once** into the replica's shared-memory request slab
  (:mod:`repro.runtime.rings`), and ships only a CRC/sequence-guarded
  *ticket* per request over that replica's work queue — holding at most
  ``inflight_window`` requests (default: one batch width) inside the
  replica at a time, which bounds both what a crash can take down and how
  many slab slots a replica can occupy.
* **Serving** — the replica process validates each ticket against its slot
  header, binds a zero-copy read-only view over the slab, pumps it into a
  local admission queue and runs the continuous batcher exactly like a
  thread worker; per-sample batch invariance makes its decisions identical
  to the sequential oracle no matter how the dispatcher splits traffic.
* **Completion** — finished rounds are written as fixed-width records into
  the replica's completion ring; only the ``(start, count)`` cursor range
  travels over its *per-replica* response pipe (single writer each: a
  replica killed mid-message can corrupt only its own channel, never block
  a survivor's completions behind a dead lock holder — and a torn record
  fails CRC validation instead of resolving a future with garbage).  A
  *collector* thread multiplexes the pipes, decodes each cursor range and
  hands it, as one round, to the completion sink it shares with the thread
  batcher (:func:`~repro.serve.batcher.complete_round`: pricing, WAL, the
  server's single :class:`~repro.serve.Telemetry`, SLA controller, spans,
  parent-side futures last; the replica ships its occupancy gauges at
  drain, merged via :meth:`Telemetry.merge_state`).  Pickled inline
  payloads remain as the per-message fallback and as the wholesale
  ``transport="pipe"`` baseline.
* **Failure** — a *monitor* thread owns each replica's exit.  A clean exit
  (drain) releases its arena reference; a crash fails exactly the crashed
  replica's in-flight requests with :class:`ReplicaCrashError`, returns any
  undispatched request to the shared pool, and leaves the survivors serving.
  When the last replica dies the queue is closed and drained so no client
  ever blocks on a future nobody will resolve.

Weight reloads: after ``load_state_dict`` on the parent's model, call
:meth:`ReplicaPool.refresh_weights`.  The arena writes the changed constants
into its *inactive* generation and flips — a transactional hot-swap — and
every replica rebinds to the complete new generation at its next round
boundary, acking the version back so a later refresh never overwrites a
generation a straggler still reads (see
:meth:`~repro.runtime.ArenaAttachment.reattach` for the identity-flip that
makes the folded caches, stem signature and stem memo converge).

Replica processes use the ``spawn`` start method: it is immune to
fork-vs-threads lock inheritance and forces every byte a replica shares to
flow through the arena — which is the point.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import multiprocessing
from collections import deque
from multiprocessing import connection

from ..analysis.lockorder import named_lock
from ..core.accounting import InferenceCostModel
from ..core.policies import ExitPolicy
from ..runtime import plan_for, runtime_enabled
from ..runtime.arena import ArenaSpec, PlanArena, attach_arena
from ..runtime.rings import (
    PoolRings,
    RingIntegrityError,
    RingSpec,
    attach_rings,
)
from ..snn.network import SpikingNetwork
from .batcher import ContinuousBatcher, complete_round
from .controller import AdaptiveThresholdController
from .engine import AdmissionRejectedError, CompletedSample, InferenceEngine
from .request import (
    AdmissionQueue,
    Request,
    Response,
    ServerClosedError,
    ThresholdEpoch,
    clone_exception,
)
from .storm import DeadlineExceededError
from .telemetry import Telemetry

__all__ = ["ReplicaCrashError", "ReplicaPool"]


class ReplicaCrashError(RuntimeError):
    """A replica process died while requests it owned were in flight.

    Raised through the futures of exactly the crashed replica's in-flight
    round: requests still in the shared admission queue (or popped but not
    yet dispatched) are re-served by the surviving replicas, so a crash
    loses at most ``inflight_window`` requests.  If the *last* replica dies
    the queue is closed and every queued future fails with this error
    instead of stranding its client.
    """


@dataclass(frozen=True)
class _ReplicaConfig:
    """Picklable per-replica serving parameters (ships at spawn)."""

    index: int
    policy: ExitPolicy
    max_timesteps: int
    batch_width: int
    window: int
    use_runtime: Optional[bool]
    poll_interval: float = 0.01


# Work-queue message kinds (parent -> replica).  Requests and completions
# travel as *batches* — one pickle + one pipe wakeup per dispatch round or
# step round, not per request — which is what keeps the IPC cost per request
# flat in the window size (the same argument as batched admission).
# Under the ring transport (the default) the batch entries carry TICKETS —
# (slot, seq, crc, shape, dtype) cursors into the shared-memory request
# slab — instead of pickled frames, and completions come back as a cursor
# range over the replica's completion ring (_MSG_DONE_RING); the pipes and
# queues then move only control-plane bytes.  The inline-payload forms
# remain as the per-message fallback (oversized frame, ring momentarily
# full) and as the wholesale ``transport="pipe"`` baseline.
# Threshold changes need no control message: every request carries its
# ThresholdEpoch stamp, and the replica engine evaluates each slot under its
# stamped knobs — the recorded threshold is the deciding one by construction
# (the PR 5 one-way-message caveat, closed; docs/RESILIENCE.md).
_MSG_REQUEST = "reqs"
_MSG_DRAIN = "drain"
# Result-pipe message kinds (replica -> parent).
_MSG_READY = "ready"
_MSG_DONE = "done"
_MSG_DONE_RING = "donr"
_MSG_ERROR = "error"
_MSG_BYE = "bye"
# Rebind acknowledgement: the replica observed an arena refresh and rebound
# to the flipped generation; carries the arena version it now serves.
_MSG_REBOUND = "rebound"


# --------------------------------------------------------------------------- #
# Replica process
# --------------------------------------------------------------------------- #
class _RelayResponse(Response):
    """Replica-local future that forwards its resolution to an outbox.

    The batcher resolves futures; in a replica the real future lives in the
    parent, so the local stand-in records what happened and the main loop
    relays it.  Successful completions already come back through
    ``run_once``'s return value, so only failures (admission rejections) are
    captured here.
    """

    def __init__(self, request_id: int, outbox: List[Tuple]):
        super().__init__()
        self._request_id = request_id
        self._outbox = outbox

    def set_exception(self, exception: BaseException) -> None:
        super().set_exception(exception)
        self._outbox.append(
            (self._request_id, f"{type(exception).__name__}: {exception}")
        )


def _replica_main(spec: ArenaSpec, skeleton: bytes, config: _ReplicaConfig,
                  work_queue, result_conn,
                  ring_spec: Optional[RingSpec] = None) -> None:
    """Entry point of one replica process (spawn target; must be top-level).

    The loop interleaves three duties: pump the work queue into the local
    admission queue, honor arena weight-reload versions at round boundaries,
    and run the continuous batcher one timestep at a time, relaying every
    completion.  On the drain sentinel it finishes all local work, ships its
    telemetry gauges and exits 0; any exception escapes (exit code != 0) and
    the parent's monitor converts it into typed in-flight failures.

    ``result_conn`` is this replica's *private* pipe to the collector: with
    one writer per pipe there is no cross-process write lock, so a replica
    killed mid-message can corrupt only its own channel — a survivor's
    completions can never block behind a dead neighbour's lock (the failure
    mode a shared result queue would have).

    With ``ring_spec`` set (the default transport) dispatched frames are
    consumed as zero-copy read-only views over the shared request slab and
    completions are written as fixed-width records into the completion
    ring — the pipe then carries a cursor range per round instead of a
    pickled result list.
    """
    index = config.index
    attachment = None
    rings = None
    try:
        attachment = attach_arena(spec, skeleton)
        model = attachment.model
        engine = InferenceEngine(
            model,
            config.policy,
            max_timesteps=config.max_timesteps,
            use_runtime=config.use_runtime,
            # The constants are shared but this process's model object is
            # private, so statistics would be safe — they are disabled for
            # parity with thread workers (nobody reads them in a replica).
            collect_statistics=False,
        )
        local_queue = AdmissionQueue(capacity=max(1, config.window))
        telemetry = Telemetry()
        batcher = ContinuousBatcher(
            engine, local_queue, batch_width=config.batch_width, telemetry=telemetry
        )
        if ring_spec is not None:
            rings = attach_rings(ring_spec, index)
        outbox: List[Tuple] = []
        draining = False
        # Readiness handshake: interpreter up, arena attached, plan compiled.
        # The parent's start() blocks on this so a "started" server is one
        # whose replicas are actually serving (and whose benchmarked
        # throughput excludes spawn/import cost).  The arena version seeds
        # the parent's rebind ledger (refresh_weights waits on it).
        result_conn.send((index, _MSG_READY, attachment.version))
        while True:
            # Pump the work queue: block only when fully idle, otherwise
            # drain whatever is ready and get back to stepping.
            block = engine.idle and local_queue.depth() == 0 and not draining
            try:
                message = (
                    work_queue.get(timeout=config.poll_interval)
                    if block
                    else work_queue.get_nowait()
                )
                while True:
                    kind = message[0]
                    if kind == _MSG_REQUEST:
                        for request_id, ticket, inline, label, epoch in message[1]:
                            if ticket is not None:
                                try:
                                    inputs = rings.request_view(ticket)
                                except RingIntegrityError as error:
                                    # Corrupted/stale slot: never serve the
                                    # bytes.  Relayed like an admission
                                    # failure; the parent accounts it as a
                                    # rejection.
                                    outbox.append((
                                        request_id,
                                        f"{type(error).__name__}: {error}",
                                    ))
                                    continue
                            else:
                                inputs = inline
                            local_queue.put(
                                Request(
                                    request_id=request_id, inputs=inputs,
                                    label=label,
                                    epoch=(None if epoch is None
                                           else ThresholdEpoch(*epoch)),
                                ),
                                _RelayResponse(request_id, outbox),
                            )
                    elif kind == _MSG_DRAIN:
                        draining = True
                    message = work_queue.get_nowait()
            except queue_module.Empty:
                pass
            # Weight-reload propagation: rebind at the round boundary so a
            # refreshed arena serves coherent constants from the next step.
            # The ack tells the parent this replica no longer reads the
            # retired generation, so the NEXT refresh may overwrite it.
            if attachment.stale():
                attachment.reattach()
                engine.invalidate_stem()
                result_conn.send((index, _MSG_REBOUND, attachment.version))
            results = batcher.run_once()
            if results:
                wire = [
                    (result.request_id, result.prediction, result.exit_timestep,
                     result.score, result.threshold, result.start_time,
                     result.finish_time, result.epoch, result.brownout,
                     result.horizon)
                    for result in results
                ]
                cursor = None if rings is None else rings.write_completions(wire)
                if cursor is not None:
                    result_conn.send((index, _MSG_DONE_RING, cursor))
                else:
                    result_conn.send((index, _MSG_DONE, wire))
            if outbox:
                result_conn.send((index, _MSG_ERROR, list(outbox)))
                outbox.clear()
            if draining and engine.idle and local_queue.depth() == 0:
                # Gauges only (include_results=False drops the per-request
                # and clock-domain fields): completions were already
                # recorded by the parent's collector.  The local queue
                # depth is additionally blanked — it is window-bounded
                # noise next to the parent's admission-queue backpressure
                # gauge, which the collector samples parent-side.  The
                # rejection/deadline counters are blanked too: every relayed
                # failure is recorded once by the PARENT (the _MSG_ERROR
                # handler), so merging the replica-local copies at BYE would
                # double-count and break request conservation.
                state = telemetry.export_state(include_results=False)
                state["queue_depths"] = []
                state["rejected"] = 0
                state["deadline_drops"] = {}
                result_conn.send((index, _MSG_BYE, state))
                break
    except BaseException:
        traceback.print_exc()
        raise
    finally:
        if attachment is not None:
            attachment.close()
        if rings is not None:
            rings.close()
        result_conn.close()


# --------------------------------------------------------------------------- #
# Parent-side pool
# --------------------------------------------------------------------------- #
class ReplicaPool:
    """Owns N replica processes, their arena, and the dispatch plumbing.

    Constructed (and drained) by :class:`~repro.serve.Server` when
    ``num_replicas > 0``; the public surface a user touches is the server's.
    Tests reach in for :attr:`processes` (fault injection) and
    :attr:`arena` (sharing/lifecycle assertions).
    """

    def __init__(
        self,
        model: SpikingNetwork,
        policy: ExitPolicy,
        *,
        num_replicas: int,
        queue: AdmissionQueue,
        telemetry: Telemetry,
        max_timesteps: Optional[int] = None,
        batch_width: int = 8,
        use_runtime: Optional[bool] = None,
        cost_model: Optional[InferenceCostModel] = None,
        controller: Optional[AdaptiveThresholdController] = None,
        clock: Callable[[], float] = time.monotonic,
        inflight_window: Optional[int] = None,
        blas_threads: int = 1,
        trace=None,
        spans=None,
        transport: str = "ring",
        ring_slot_bytes: Optional[int] = None,
    ):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if transport not in ("ring", "pipe"):
            raise ValueError(
                f"transport must be 'ring' or 'pipe', got {transport!r}"
            )
        if max_timesteps is None:
            max_timesteps = model.default_timesteps
        if max_timesteps < 1:
            raise ValueError("max_timesteps must be a positive integer")
        if runtime_enabled(use_runtime) and plan_for(model) is None:
            raise ValueError(
                "replica serving shares plan constants through the arena, "
                "which requires a model the compiled-plan runtime can lower; "
                "this model does not lower — pass use_runtime=False to run "
                "replicas on the Tensor oracle"
            )
        self.model = model
        self.policy = policy
        self.queue = queue
        self.telemetry = telemetry
        self.num_replicas = int(num_replicas)
        self.max_timesteps = int(max_timesteps)
        self.batch_width = int(batch_width)
        self.window = (
            int(inflight_window) if inflight_window is not None else self.batch_width
        )
        if self.window < 1:
            raise ValueError("inflight_window must be >= 1")
        self.cost_model = cost_model
        self.controller = controller
        self.clock = clock
        self.use_runtime = use_runtime
        # Observability sinks live parent-side only: the trace recorder and
        # span tracker see completions in the collector (one clock domain),
        # so replicas ship no extra bytes for them.
        self.trace = trace
        self.spans = spans
        self.blas_threads = int(blas_threads)
        # Export before anything serves: the arena copies the constants and
        # the skeleton captures the structure exactly once for all replicas.
        # eval() + reset_state() is the same serving precondition
        # InferenceEngine applies to thread workers' models; gradients are
        # left on the caller's model (the skeleton drops them in transit).
        model.eval()
        model.reset_state()
        self.arena = PlanArena.export(model)
        self._skeleton = self.arena.skeleton()
        # Ring transport: one shared segment for the whole fleet, sized at
        # construction (the Allocator Law: every slot the steady state will
        # ever use exists before the first request).  ``window`` request
        # slots per replica exactly cover the in-flight bound the window
        # semaphore enforces — a slot is freed strictly before its permit
        # is released, so try_write can only miss when a frame exceeds
        # slot_bytes (falls back to the inline pipe payload).
        self.transport = transport
        self.rings: Optional[PoolRings] = None
        self._ring_writers = None
        self._ring_readers = None
        if transport == "ring":
            kwargs = {}
            if ring_slot_bytes is not None:
                kwargs["slot_bytes"] = ring_slot_bytes
            self.rings = PoolRings.create(
                self.num_replicas, slots=self.window, **kwargs
            )
            self._ring_writers = [
                self.rings.writer(i) for i in range(self.num_replicas)
            ]
            self._ring_readers = [
                self.rings.reader(i) for i in range(self.num_replicas)
            ]

        self._ctx = multiprocessing.get_context("spawn")
        # One result pipe per replica (single writer each): a shared queue
        # would funnel every completion through one cross-process write
        # lock, and a replica SIGKILLed while holding it would deadlock the
        # survivors' completions.  The work queues have one writer (this
        # process) and one reader each, so they keep the convenient Queue
        # API without that failure mode.
        pipes = [self._ctx.Pipe(duplex=False) for _ in range(self.num_replicas)]
        self._result_readers = [reader for reader, _ in pipes]
        self._result_writers = [writer for _, writer in pipes]
        self._work_queues = [self._ctx.Queue() for _ in range(self.num_replicas)]
        self.processes: List[multiprocessing.Process] = []
        self._forwarders: List[threading.Thread] = []
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

        self._lock = named_lock("serve.replica.pool")
        # request_id -> (request, response, ring slot or None); the slot is
        # freed when the entry pops (completion, relayed error, or crash).
        self._inflight: List[Dict[int, Tuple[Request, Response, Optional[int]]]] = [
            {} for _ in range(self.num_replicas)
        ]
        # Arena version each replica last (re)bound, from READY/_MSG_REBOUND
        # acks; refresh_weights waits on it before reusing a generation.
        self._rebound: Dict[int, int] = {}
        self._overflow: Deque[Tuple[Request, Response]] = deque()
        self._window_sems = [
            threading.Semaphore(self.window) for _ in range(self.num_replicas)
        ]
        self._dead = [False] * self.num_replicas
        self._ready = [threading.Event() for _ in range(self.num_replicas)]
        # Set by the collector when a replica's result pipe hits EOF — i.e.
        # every message the replica ever sent has been processed.
        self._pipe_drained = [threading.Event() for _ in range(self.num_replicas)]
        self._live = self.num_replicas
        self._crashed = False
        self._aborting = False
        self._finished = threading.Event()
        self._started = False
        # Set once teardown (channel close + arena destroy) has run; makes
        # drain()/abort() idempotent — a double shutdown must no-op like
        # thread mode, not trip over close()d Process objects.
        self._retired = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    #: Serializes the os.environ pin/spawn/restore window below: two pools
    #: starting concurrently must not interleave their snapshots.
    _spawn_env_lock = named_lock("serve.replica.spawn_env")

    def start(self) -> "ReplicaPool":
        if self._started:
            raise RuntimeError("replica pool already started")
        self._started = True
        # Pin BLAS threading inside the replicas: the serving GEMMs are
        # small-batch, so intra-op threads only fight the replica-level
        # parallelism.  The knobs must be in the child's *exec* environment
        # (OpenBLAS/MKL read them at library load, which happens during the
        # spawn bootstrap, before any code of ours runs), so the parent
        # briefly pins os.environ around the spawns — under a class-level
        # lock, since os.environ is process-global.
        saved = {}
        pinned = {}
        if self.blas_threads > 0:
            pinned = {
                name: str(self.blas_threads)
                for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")
            }
        self._spawn_env_lock.acquire()
        try:
            for name, value in pinned.items():
                saved[name] = os.environ.get(name)
                os.environ[name] = value
            for index in range(self.num_replicas):
                config = _ReplicaConfig(
                    index=index,
                    policy=self.policy,
                    max_timesteps=self.max_timesteps,
                    batch_width=self.batch_width,
                    window=self.window,
                    use_runtime=self.use_runtime,
                )
                process = self._ctx.Process(
                    target=_replica_main,
                    args=(self.arena.spec, self._skeleton, config,
                          self._work_queues[index], self._result_writers[index],
                          None if self.rings is None else self.rings.spec),
                    name=f"repro-replica-{index}",
                    daemon=True,
                )
                self.arena.acquire()
                try:
                    process.start()
                except BaseException:
                    # A failed spawn never releases its reference from the
                    # monitor (there is no process to exit), so give it
                    # back here or the segment outlives drain.
                    self.arena.release()
                    raise
                # Drop the parent's copy of the write end: once the replica
                # exits, its reader then raises EOF instead of idling on a
                # half-open pipe.
                self._result_writers[index].close()
                self.processes.append(process)
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            self._spawn_env_lock.release()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-replica-monitor", daemon=True
        )
        self._monitor.start()
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-replica-collector", daemon=True
        )
        self._collector.start()
        for index in range(self.num_replicas):
            thread = threading.Thread(
                target=self._forward_loop, args=(index,),
                name=f"repro-replica-forward-{index}", daemon=True,
            )
            self._forwarders.append(thread)
            thread.start()
        return self

    def wait_ready(self, timeout: Optional[float] = 120.0) -> int:
        """Block until every replica reports ready (or died trying).

        A replica is ready once its interpreter is up, the arena is attached
        and its engine is built — i.e. it is polling for work.  Returns the
        number of ready replicas; a replica that crashed during startup is
        simply not counted (its failure is handled by the monitor like any
        other crash).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        ready = 0
        for index in range(self.num_replicas):
            while True:
                if self._ready[index].is_set():
                    ready += 1
                    break
                if self._dead[index]:
                    break
                remaining = 0.05 if deadline is None else min(
                    0.05, deadline - time.monotonic()
                )
                if remaining <= 0:
                    raise TimeoutError(
                        f"replica {index} not ready within {timeout}s"
                    )
                self._ready[index].wait(remaining)
        return ready

    def drain(self, timeout: Optional[float] = None) -> None:
        """Finish every accepted request, then retire processes and arena.

        The caller must have closed the admission queue first (the server
        does); each forwarder observes closed-and-empty, sends its replica
        the drain sentinel, and the replica exits once its slots empty.

        Matches thread-mode semantics on both edges: a ``timeout`` that
        expires with work still in flight just stops waiting (everything
        keeps running and a later drain/abort can finish the job — nothing
        is torn down under a live dispatcher), and calling drain again
        after a completed retirement is a no-op.
        """
        if self._retired:
            return
        for thread in self._forwarders:
            thread.join(timeout)
        if any(thread.is_alive() for thread in self._forwarders):
            return  # timed out mid-drain; resources stay live
        if self._monitor is not None:
            # The monitor is the ONE thread that reaps the processes.  A
            # second waitpid() racing it makes Process.join() return early
            # and is_alive() report an already-reaped child as running —
            # which ended a clean drain right here, "timed out", with the
            # arena and ring segments still linked in /dev/shm.
            self._monitor.join(timeout)
            if self._monitor.is_alive():
                return
        else:
            for process in self.processes:
                process.join(timeout)
            if any(process.is_alive() for process in self.processes):
                return
        self._finished.set()
        if self._collector is not None:
            self._collector.join(timeout)
            if self._collector.is_alive():
                return
        self._close_channels()
        self.arena.destroy()
        if self.rings is not None:
            self.rings.destroy()
        self._retired = True

    def _close_channels(self) -> None:
        """Release the IPC fds and Queue feeder threads at retirement.

        Like the arena's unlink, resource release belongs to drain/abort,
        not to whenever the pool object happens to be garbage-collected —
        a parent that keeps a drained server around for telemetry must not
        hold ~3 fds and a feeder thread per replica.  Runs strictly after
        the collector joined (nobody reads the pipes anymore).
        """
        for work in self._work_queues:
            # cancel_join_thread, not join_thread: a queue whose (dead)
            # consumer left buffered items behind would block the flush.
            work.cancel_join_thread()
            work.close()
            try:
                # The parent never reads its work queues; the reader fd
                # only existed to be inherited by the replica.
                work._reader.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for connection_end in self._result_readers + self._result_writers:
            # Writers are normally closed per successful spawn; a partial
            # spawn failure leaves the tail ones open, which would keep
            # their readers from ever reaching EOF.
            try:
                connection_end.close()
            except OSError:  # pragma: no cover - already closed at EOF
                pass
        for process in self.processes:
            if process.exitcode is not None:
                # Releases the sentinel fd now instead of at GC.  The
                # Process object becomes inert afterwards; everything the
                # pool reports post-drain (live_replicas, telemetry) reads
                # pool state, not Process attributes.
                process.close()

    def abort(self) -> None:
        """Non-graceful stop: kill the replicas, fail their in-flight work."""
        if self._retired:
            return
        self._aborting = True
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(5.0)
        for thread in self._forwarders:
            thread.join(5.0)
        if self._monitor is not None:
            self._monitor.join(5.0)
        # Close any still-open parent-side writer ends now (no-ops for
        # successfully spawned replicas): after a partial spawn failure the
        # never-spawned replicas' readers can only reach EOF — and the
        # collector can only finish — once these drop.
        for writer in self._result_writers:
            try:
                writer.close()
            except OSError:
                pass
        self._finished.set()
        if self._collector is not None:
            self._collector.join(5.0)
        with self._lock:
            self._fail_stranded_locked()
        if self._monitor is None:
            # Aborting a fleet whose monitor never started (spawn failure
            # mid-start): nobody else will release the spawned processes'
            # arena references, and destroy() cannot unlink while they are
            # held.
            for _ in self.processes:
                self.arena.release()
        self._close_channels()
        self.arena.destroy()
        if self.rings is not None:
            self.rings.destroy()
        self._retired = True

    @property
    def live_replicas(self) -> int:
        with self._lock:
            return self._live

    def refresh_weights(self, rebind_timeout: float = 5.0) -> int:
        """Propagate an in-place weight reload to every replica.

        Call after ``load_state_dict`` on the served model; returns the
        number of constant slots that changed.  The arena writes the
        INACTIVE constant generation and flips, so replicas keep serving a
        complete old generation until they rebind at their next round
        boundary — requests admitted after this call are served under the
        new weights, and no request ever runs over a half-copied segment.

        Before writing, wait (bounded) until every live replica has acked
        the arena's current version: a back-to-back refresh must not
        scribble the generation a straggler still reads — that would
        reintroduce the exact torn-read hazard the double buffer removes.
        The timeout is a parachute against a wedged replica; replicas poll
        staleness every round (<= ``poll_interval``), so in practice the
        wait is one scheduling quantum.
        """
        target = self.arena.version
        deadline = time.monotonic() + max(0.0, rebind_timeout)
        while True:
            with self._lock:
                lagging = [
                    i for i in range(self.num_replicas)
                    if not self._dead[i] and self._rebound.get(i, 0) < target
                ]
            if not lagging or time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        return self.arena.refresh()

    # ------------------------------------------------------------------ #
    # Dispatch (one forwarder thread per replica)
    # ------------------------------------------------------------------ #
    def _next_item(self, block: bool) -> Optional[Tuple[Request, Response]]:
        with self._lock:
            if self._overflow:
                return self._overflow.popleft()
        if block:
            return self.queue.get(timeout=0.05)
        return self.queue.get_nowait()

    def _backlog_empty(self) -> bool:
        with self._lock:
            if self._overflow:
                return False
        return self.queue.depth() == 0

    def _forward_loop(self, index: int) -> None:
        work = self._work_queues[index]
        sem = self._window_sems[index]
        while not self._dead[index] and not self._aborting:
            if self.queue.closed and self._backlog_empty():
                work.put((_MSG_DRAIN,))
                return
            if not sem.acquire(timeout=0.05):
                continue
            # Grab every free window slot, fill as many as the queue can
            # satisfy right now, and ship the round as ONE message: under a
            # burst the replica pays one wakeup and one pickle per round,
            # not per request.
            permits = 1
            while permits < self.window and sem.acquire(blocking=False):
                permits += 1
            batch: List[Tuple[Request, Response]] = []
            item = self._next_item(block=True)
            while item is not None:
                batch.append(item)
                if len(batch) >= permits:
                    break
                item = self._next_item(block=False)
            for _ in range(permits - len(batch)):
                sem.release()
            if batch:
                # Deadline enforcement stays parent-side (one clock domain):
                # a request that waited out its deadline in the shared queue
                # is dropped here, before it costs a window slot and a
                # cross-process round trip.
                kept: List[Tuple[Request, Response]] = []
                now = self.clock()
                for request, response in batch:
                    if request.deadline is not None and now > request.deadline:
                        error = DeadlineExceededError(
                            f"request {request.request_id} missed its "
                            f"deadline before dispatch"
                        )
                        response.set_exception(error)
                        self.telemetry.record_deadline_drop(request.priority)
                        if self.trace is not None:
                            self.trace.record_rejection(
                                request, now, reason="deadline"
                            )
                        if self.spans is not None:
                            self.spans.record_failure(
                                request.request_id, now, error
                            )
                        sem.release()
                    else:
                        kept.append((request, response))
                batch = kept
            if not batch:
                continue
            # Write each frame into the request slab BEFORE taking the pool
            # lock (the copy is the expensive part; the slab is per-replica
            # and this forwarder is its only writer).  A request that gets
            # no ticket (oversized frame) ships inline instead.
            writer = (
                None if self._ring_writers is None else self._ring_writers[index]
            )
            tickets: Dict[int, Tuple] = {}
            if writer is not None:
                for request, _ in batch:
                    ticket = writer.try_write(request.inputs)
                    if ticket is not None:
                        tickets[request.request_id] = ticket
            with self._lock:
                if self._dead[index]:
                    if writer is not None:
                        # The round never ships; give its slots back.
                        for ticket in tickets.values():
                            writer.release(ticket[0])
                    if self.queue.closed:
                        # Crash during drain: the surviving forwarders have
                        # (or soon will have) sent their drain sentinels and
                        # exited, so nobody is left to pop a re-pooled batch
                        # — fail it typed instead of stranding it.  The
                        # batch holds this replica's own window permits, so
                        # the total loss stays within its in-flight window.
                        error = ReplicaCrashError(
                            f"replica {index} crashed during drain before "
                            f"its last round was dispatched"
                        )
                        now = self.clock()
                        for request, response in batch:
                            response.set_exception(clone_exception(error))
                            if self.spans is not None:
                                self.spans.record_failure(
                                    request.request_id, now, error
                                )
                        self.telemetry.record_shed(len(batch))
                    else:
                        # Lost the race with a crash mid-traffic: hand the
                        # requests back to the pool so a surviving replica
                        # serves them.  If the monitor's last-replica
                        # cleanup already ran (or runs concurrently),
                        # nobody will ever pop the pool again — re-check
                        # and fail the strays ourselves.
                        self._overflow.extend(batch)
                        if self._live == 0 or self._aborting:
                            self._fail_stranded_locked()
                    return
                for request, response in batch:
                    ticket = tickets.get(request.request_id)
                    self._inflight[index][request.request_id] = (
                        request, response,
                        None if ticket is None else ticket[0],
                    )
            # Each request ships its ThresholdEpoch stamp: the replica engine
            # evaluates the slot under exactly these knobs, so no control
            # message (and no ordering argument about one) is needed — a
            # request can never run under knobs other than the ones stamped
            # at its submission.  Ticketed entries carry NO frame bytes —
            # the ticket is the cursor into the slab written above.
            work.put((_MSG_REQUEST, [
                (request.request_id,
                 tickets.get(request.request_id),
                 None if request.request_id in tickets else request.inputs,
                 request.label,
                 None if request.epoch is None else request.epoch.as_tuple())
                for request, _ in batch
            ]))
            if self.spans is not None:
                # The one lifecycle stage only replica mode can observe live:
                # the moment a request leaves the parent for a worker
                # process.  Stamped after the put so dispatched >= queued and
                # the span stays monotone in the parent's clock domain.
                dispatched_at = self.clock()
                for request, _ in batch:
                    self.spans.record(
                        request.request_id, "dispatched", dispatched_at
                    )

    # ------------------------------------------------------------------ #
    # Completion (single collector thread)
    # ------------------------------------------------------------------ #
    def _collect_loop(self) -> None:
        indices = {id(reader): index
                   for index, reader in enumerate(self._result_readers)}
        active = list(self._result_readers)
        while active or not self._finished.is_set():
            if not active:
                self._finished.wait(0.05)
                continue
            try:
                ready = connection.wait(active, timeout=0.05)
            except OSError:
                # A teardown path closed a handle under us (abort after a
                # partial spawn failure); prune and carry on.
                active = [reader for reader in active if not reader.closed]
                continue
            for reader in ready:
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    # Replica gone (clean exit or crash) AND its channel is
                    # fully drained — EOF cannot fire before every buffered
                    # message was read, because the parent closed its own
                    # write end at spawn.  The monitor waits on this flag
                    # before deciding what the crash actually lost.
                    active.remove(reader)
                    self._pipe_drained[indices[id(reader)]].set()
                    continue
                except Exception:  # pragma: no cover - defensive: a partial
                    # message from a replica killed mid-send corrupts only
                    # its own channel; drop the channel, keep collecting.
                    traceback.print_exc()
                    active.remove(reader)
                    self._pipe_drained[indices[id(reader)]].set()
                    continue
                try:
                    self._handle_result(message)
                except Exception:  # pragma: no cover - a malformed message
                    # must not take down the collector with everyone's
                    # futures.
                    traceback.print_exc()

    def _handle_result(self, message: Tuple) -> None:
        index, kind = message[0], message[1]
        if kind == _MSG_READY:
            with self._lock:
                self._rebound[index] = int(message[2]) if len(message) > 2 else 0
            self._ready[index].set()
        elif kind == _MSG_REBOUND:
            with self._lock:
                self._rebound[index] = int(message[2])
        elif kind == _MSG_BYE:
            self.telemetry.merge_state(message[2])
        elif kind == _MSG_ERROR:
            for request_id, text in message[2]:
                entry = self._pop_inflight(index, request_id)
                if entry is None:
                    continue
                request, response = entry
                error = AdmissionRejectedError(text)
                # Account the relayed failure exactly like the thread-mode
                # door (Server.submit's rejection path): without these
                # records replica mode under-counts vs. thread mode and
                # request conservation (submitted == completed + rejected +
                # shed + deadline_drops) silently breaks.
                now = self.clock()
                self.telemetry.record_rejection()
                if self.trace is not None:
                    self.trace.record_rejection(request, now)
                if self.spans is not None:
                    self.spans.record_failure(request_id, now, error)
                response.set_exception(error)
        else:
            # The backpressure gauge must sample the *shared* admission
            # queue (a replica's local queue is window-bounded and says
            # nothing about overload); one sample per completion round
            # mirrors the thread batcher's per-step sampling cadence.
            self.telemetry.record_queue_depth(self.queue.depth())
            completions = (
                self._ring_readers[index].read(*message[2])
                if kind == _MSG_DONE_RING
                else message[2]
            )
            # One message = one round through the shared completion sink:
            # the same chain, in the same order, as a thread batcher's step.
            finished = []
            for (request_id, prediction, exit_timestep, score, threshold,
                 start_t, finish_t, epoch, brownout, horizon) in completions:
                entry = self._pop_inflight(index, request_id)
                if entry is None:
                    continue
                request, response = entry
                # start_t/finish_t are on the replica's clock; the sink keeps
                # their difference and stamps the server's own.
                finished.append(CompletedSample(
                    request=request, response=response, prediction=prediction,
                    exit_timestep=exit_timestep, score=score,
                    threshold=threshold, start_time=start_t, epoch=epoch,
                    brownout=brownout, horizon=horizon, finish_time=finish_t,
                ))
            complete_round(
                finished, self.clock, self.telemetry, self.cost_model,
                self.controller, self.trace, self.spans,
            )

    def _pop_inflight(self, index: int, request_id: int):
        with self._lock:
            entry = self._inflight[index].pop(request_id, None)
        if entry is None:
            return None  # already failed by the crash monitor
        request, response, slot = entry
        # Free the ring slot BEFORE the window permit: the permit is what
        # admits the next dispatch, so a new round can never race a
        # still-occupied slab slot.
        if slot is not None and self._ring_writers is not None:
            self._ring_writers[index].release(slot)
        self._window_sems[index].release()
        return request, response

    # ------------------------------------------------------------------ #
    # Failure (single monitor thread)
    # ------------------------------------------------------------------ #
    def _monitor_loop(self) -> None:
        sentinels = {process.sentinel: index
                     for index, process in enumerate(self.processes)}
        pending = set(sentinels)
        while pending:
            for sentinel in connection.wait(list(pending), timeout=0.2):
                pending.discard(sentinel)
                self._on_replica_exit(sentinels[sentinel])

    def _on_replica_exit(self, index: int) -> None:
        process = self.processes[index]
        process.join()
        graceful = process.exitcode == 0
        # Let the collector drain the replica's pipe to EOF first: messages
        # the replica sent before dying — including completions buffered
        # right up to a SIGKILL — must resolve as the results they are, not
        # be misreported as crash casualties.  EOF is guaranteed promptly
        # (the process is dead and the parent holds no write end), the
        # timeout is only a parachute against collector stalls.
        self._pipe_drained[index].wait(5.0)
        with self._lock:
            self._dead[index] = True
            inflight = list(self._inflight[index].values())
            self._inflight[index].clear()
            self._live -= 1
            live = self._live
            if not graceful and not self._aborting:
                self._crashed = True
        if inflight:
            if self._aborting:
                error: BaseException = ServerClosedError("server shut down")
            else:
                error = ReplicaCrashError(
                    f"replica {index} exited with code {process.exitcode} "
                    f"while {len(inflight)} request(s) were in flight"
                )
            now = self.clock()
            for request, response, slot in inflight:
                # The replica is gone, so its slab slots are safe to reuse
                # (moot for a dead replica, but the free list must balance
                # for the bookkeeping invariants).
                if slot is not None and self._ring_writers is not None:
                    self._ring_writers[index].release(slot)
                # Per-future clone: the crashed round's waiters re-raise
                # concurrently and must not share one traceback.
                response.set_exception(clone_exception(error))
                if self.spans is not None:
                    self.spans.record_failure(request.request_id, now, error)
            self.telemetry.record_shed(len(inflight))
        # Unblock the forwarder so it can observe the dead flag and exit.
        for _ in range(self.window):
            self._window_sems[index].release()
        self.arena.release()
        if live == 0 and not self._aborting:
            # Nobody left to serve: close the door and resolve every queued
            # future so no client blocks forever.  On a graceful drain the
            # queue is already closed and empty and both calls no-op.
            self.queue.close()
            with self._lock:
                self._fail_stranded_locked()
            failed = self.queue.drain_pending(
                ReplicaCrashError("all serving replicas exited while work was queued")
                if self._crashed
                else None
            )
            if failed:
                self.telemetry.record_shed(failed)

    def _stranded_error(self) -> BaseException:
        if self._aborting:
            return ServerClosedError("server shut down")
        if self._crashed:
            return ReplicaCrashError(
                "all serving replicas exited while work was queued"
            )
        return ServerClosedError("server shut down before serving")

    def _fail_stranded_locked(self) -> None:
        """Resolve every re-pooled request nobody is left to serve.

        Caller holds ``self._lock``.  Runs from whichever side loses the
        crash race last — the monitor's last-replica cleanup or a forwarder
        re-pooling a popped batch after its replica died — and from
        :meth:`abort`; popping under the lock makes the duplicate calls
        safe.
        """
        if not self._overflow:
            return
        error = self._stranded_error()
        stranded = list(self._overflow)
        self._overflow.clear()
        now = self.clock()
        for request, response in stranded:
            response.set_exception(clone_exception(error))
            if self.spans is not None:
                self.spans.record_failure(request.request_id, now, error)
        self.telemetry.record_shed(len(stranded))
