"""Process-level serve replicas over a shared-memory plan arena.

``Server(num_workers=N)`` scales until the GIL does not: the GEMMs release
it, the op-dispatch loop does not, so N thread workers saturate roughly one
core's worth of Python.  :class:`ReplicaPool` is the process-level
counterpart — N worker *processes*, each running the unchanged serving stack
(:class:`~repro.serve.InferenceEngine` + :class:`~repro.serve.ContinuousBatcher`)
over a private :class:`~repro.runtime.PlanExecutor` whose constants are
zero-copy views into one :class:`~repro.runtime.PlanArena` segment.

Data flow, front to back — every hop is shaped like a *round*, never like a
request (docs/ARCHITECTURE.md, "Ring dispatch"):

* **Dispatch** — requests enter the server's single
  :class:`~repro.serve.AdmissionQueue` exactly as in thread mode.  One
  *forwarder* thread per replica takes every free permit of the replica's
  in-flight window, drains that many requests in ONE ``queue.get``, copies
  each frame **once** into the replica's shared-memory request slab
  (:mod:`repro.runtime.rings`), registers the round in one lock section and
  ships its CRC/sequence-guarded *tickets* as fixed-width binary entries in
  one ``send_bytes`` over a plain pipe.  The window is ``2 * batch_width``
  — one width stepping, one staged — so the replica refills from its own
  staging queue the moment rows exit instead of idling out a round trip
  through the parent; it bounds both what a crash can take down and how
  many slab slots a replica can occupy.  A frame the ring cannot carry
  (larger than a slot, or of rank above ``MAX_FRAME_RANK``) is refused typed
  and costs only itself: there is no second payload path.
* **Serving** — per message, the replica decodes the round's entries,
  validates their tickets, binds zero-copy read-only views over the slab,
  stages the round in its local admission queue in one critical section and
  advances the continuous batcher
  (:meth:`~repro.serve.ContinuousBatcher.advance`: fill, step, retire — no
  completion chain); per-sample batch invariance makes its decisions
  identical to the sequential oracle no matter how the dispatcher splits
  traffic.
* **Completion** — the samples a step retires are packed, record by
  record, into the replica's completion ring; only the ``(start, count)``
  cursor range travels over its *per-replica* response pipe (single writer
  each: a replica killed mid-message can corrupt only its own channel, and a
  torn record fails CRC validation instead of resolving a future with
  garbage — a message the collector cannot decode kills its replica).
  A *collector* thread multiplexes the pipes, decodes each range from one
  copy, pops the round's entries in one lock section, returns its permits
  in one release and hands it, as one round, to the completion sink it
  shares with the thread batcher
  (:func:`~repro.serve.batcher.complete_round`).  Only the parent records;
  the one thing it cannot sample — the replica's batch occupancy — arrives
  as a list of floats in the drain message.
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
import select
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
from ..runtime import plan_for
from ..runtime.arena import ArenaSpec, PlanArena, attach_arena
from ..runtime.rings import (
    DEFAULT_SLOT_BYTES,
    MAX_FRAME_RANK,
    PoolRings,
    ReplicaRings,
    RingIntegrityError,
    RingSpec,
    RingTicket,
    attach_rings,
    decode_work,
    encode_work,
)
from ..snn.network import SpikingNetwork
from .batcher import ContinuousBatcher, complete_round, fail_round
from .controller import AdaptiveThresholdController
from .engine import AdmissionRejectedError, CompletedSample, InferenceEngine
from .request import (
    AdmissionQueue,
    Request,
    Response,
    ServerClosedError,
    ThresholdEpoch,
)
from .storm import DeadlineExceededError
from .telemetry import Telemetry

__all__ = ["ReplicaCrashError", "ReplicaPool"]


class ReplicaCrashError(RuntimeError):
    """A replica process died while requests it owned were in flight.

    Raised through the futures of exactly the crashed replica's in-flight
    window: requests still in the shared admission queue (or popped but not
    yet dispatched) are re-served by the surviving replicas, so a crash
    loses at most ``ReplicaPool.window == 2 * batch_width`` requests, none
    of whose futures had resolved.  If the *last* replica dies the queue is
    closed and every queued future fails with this error instead of
    stranding its client.
    """


@dataclass(frozen=True)
class _ReplicaConfig:
    """Picklable per-replica serving parameters (ships at spawn)."""

    index: int
    policy: ExitPolicy
    max_timesteps: int
    batch_width: int
    window: int
    use_runtime: bool


# Work-pipe messages (parent -> replica) are bytes: one ``encode_work`` round
# per dispatch round — slab tickets, never frame bytes — or the empty drain
# sentinel.  Threshold changes need no control message: every request carries
# its ThresholdEpoch stamp, and the replica engine evaluates each slot under
# its stamped knobs — the recorded threshold is the deciding one by
# construction (docs/RESILIENCE.md).
_MSG_DRAIN = b""
# Result-pipe message kinds (replica -> parent).
_MSG_READY = "ready"
_MSG_DONE_RING = "donr"
_MSG_ERROR = "error"
_MSG_BYE = "bye"
# Rebind acknowledgement: the replica observed an arena refresh and rebound
# to the flipped generation; carries the arena version it now serves.
_MSG_REBOUND = "rebound"

#: Longest an idle replica waits on its work pipe before re-checking the
#: arena version, in milliseconds.
_IDLE_POLL_MS = 10


# --------------------------------------------------------------------------- #
# Replica process
# --------------------------------------------------------------------------- #
class _RelayResponse:
    """Replica-local stand-in for a future that lives in the parent.

    In a replica nobody waits on a future and nothing resolves one: retired
    samples leave through the completion ring for the parent's sink.  Only
    failures (admission rejections, through the child batcher's
    ``fail_round``) land here, captured for the main loop to relay.
    """

    __slots__ = ("_request_id", "_outbox")

    def __init__(self, request_id: int, outbox: List[Tuple[int, str]]):
        self._request_id = request_id
        self._outbox = outbox

    def set_exception(self, exception: BaseException) -> None:
        # The parent re-raises whatever is relayed as AdmissionRejectedError
        # (``_reject``): a failure already of that type travels as its bare
        # message, so ``str(error)`` reads the same on thread and replica
        # compositions; any other failure keeps its type in the text.
        text = str(exception)
        if not isinstance(exception, AdmissionRejectedError):
            text = f"{type(exception).__name__}: {text}"
        self._outbox.append((self._request_id, text))


def _stage_round(message: bytes, rings: ReplicaRings,
                 local_queue: AdmissionQueue, outbox: List[Tuple[int, str]],
                 epochs: Dict[tuple, ThresholdEpoch]) -> None:
    """Decode one dispatch round (or raise out of the replica), validate
    its tickets and enqueue it, whole, in one local-queue critical section.

    ``epochs`` interns one :class:`ThresholdEpoch` per wire stamp for the
    child's lifetime, as the parent stamps one object until a knob moves:
    ``admit_batch`` resolves knobs once per epoch *object*.  Epochs are
    monotone, so it keeps the last stamp only.
    """
    staged = []
    for request_id, ticket, label, stamp in decode_work(message):
        try:
            inputs = rings.request_view(ticket)
        except RingIntegrityError as error:
            # Corrupted/stale slot: never serve the bytes.  Relayed like an
            # admission failure; the parent accounts it as a rejection.
            outbox.append((request_id, f"{type(error).__name__}: {error}"))
            continue
        epoch = epochs.get(stamp)
        if epoch is None and stamp is not None:
            epochs.clear()
            epoch = epochs[stamp] = ThresholdEpoch(*stamp)
        staged.append((
            Request(request_id=request_id, inputs=inputs, label=label, epoch=epoch),
            _RelayResponse(request_id, outbox),
        ))
    local_queue.put_many(staged)


def _replica_main(spec: ArenaSpec, skeleton: bytes, config: _ReplicaConfig,
                  work_conn, result_conn, ring_spec: RingSpec) -> None:
    """Entry point of one replica process (spawn target; must be top-level).

    The loop interleaves three duties: pump the work pipe into the local
    admission queue, honor arena weight-reload versions at round boundaries,
    and advance the continuous batcher one timestep at a time, shipping the
    samples each step retires (the parent records; nothing per-request stays
    here).  On the drain sentinel it finishes all local work, ships its
    occupancy samples and exits 0; any exception escapes (exit code != 0)
    and the parent's monitor converts it into typed in-flight failures.

    ``work_conn`` and ``result_conn`` are this replica's *private* pipes:
    with one writer per pipe there is no cross-process write lock, so a
    replica killed mid-message can corrupt only its own channel — a
    survivor's completions can never block behind a dead neighbour's lock
    (the failure mode a shared result queue would have).  They carry one
    work round or one cursor range per round; the bytes are in the rings.
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
        )
        # The staging queue: the parent never has more than ``window``
        # requests inside this replica, so a round always fits.
        local_queue = AdmissionQueue(capacity=config.window)
        telemetry = Telemetry()
        batcher = ContinuousBatcher(
            engine, local_queue, batch_width=config.batch_width, telemetry=telemetry
        )
        rings = attach_rings(ring_spec, index)
        outbox: List[Tuple[int, str]] = []
        epochs: Dict[tuple, ThresholdEpoch] = {}
        draining = False
        work_ready = select.poll()
        work_ready.register(work_conn.fileno(), select.POLLIN)
        # Readiness handshake: interpreter up, arena attached, plan compiled.
        # The parent's start() blocks on this so a "started" server is one
        # whose replicas are actually serving (and whose benchmarked
        # throughput excludes spawn/import cost).  The arena version seeds
        # the parent's rebind ledger (refresh_weights waits on it).
        result_conn.send((index, _MSG_READY, attachment.version))
        while True:
            # Pump the work pipe: wait only when fully idle, otherwise take
            # whatever is ready and get back to stepping — on a poller built
            # once (``Connection.poll`` builds a selector per call).  EOF
            # means the parent is gone; it escapes like any other failure.
            idle = engine.idle and local_queue.depth() == 0 and not draining
            timeout = _IDLE_POLL_MS if idle else 0
            while work_ready.poll(timeout):
                timeout = 0
                message = work_conn.recv_bytes()
                if message == _MSG_DRAIN:
                    draining = True
                else:
                    _stage_round(message, rings, local_queue, outbox, epochs)
            # Weight-reload propagation: rebind at the round boundary so a
            # refreshed arena serves coherent constants from the next step.
            # The ack tells the parent this replica no longer reads the
            # retired generation, so the NEXT refresh may overwrite it.
            if attachment.stale():
                attachment.reattach()
                engine.invalidate_stem()
                result_conn.send((index, _MSG_REBOUND, attachment.version))
            retired = batcher.advance()
            if retired:
                # One reading of this process's clock per round: the parent's
                # sink keeps only ``finish - start`` of each record.
                finish = batcher.clock()
                cursor = rings.write_completions([
                    (sample.request.request_id, sample.prediction,
                     sample.exit_timestep, sample.score, sample.threshold,
                     sample.start_time, finish, sample.epoch, sample.brownout,
                     sample.horizon)
                    for sample in retired
                ])
                result_conn.send((index, _MSG_DONE_RING, cursor))
            if outbox:
                result_conn.send((index, _MSG_ERROR, list(outbox)))
                outbox.clear()
            if draining and engine.idle and local_queue.depth() == 0:
                # Occupancy is the one gauge only this process can sample;
                # completions and relayed failures were recorded parent-side.
                result_conn.send(
                    (index, _MSG_BYE, telemetry.occupancy_samples()))
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
        work_conn.close()


# --------------------------------------------------------------------------- #
# Parent-side pool
# --------------------------------------------------------------------------- #
class ReplicaPool:
    """Owns N replica processes, their arena, and the dispatch plumbing.

    Constructed (and drained) by :class:`~repro.serve.Server` when
    ``num_replicas > 0``; the public surface a user touches is the server's.
    Tests reach in for :attr:`processes` (fault injection), :attr:`arena`
    (sharing/lifecycle assertions) and :attr:`window` (the crash bound).
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
        use_runtime: bool = True,
        cost_model: Optional[InferenceCostModel] = None,
        controller: Optional[AdaptiveThresholdController] = None,
        clock: Callable[[], float] = time.monotonic,
        trace=None,
        spans=None,
        ring_slot_bytes: int = DEFAULT_SLOT_BYTES,
    ):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if batch_width < 1:
            raise ValueError("batch_width must be >= 1")
        if max_timesteps is None:
            max_timesteps = model.default_timesteps
        if max_timesteps < 1:
            raise ValueError("max_timesteps must be a positive integer")
        # InferenceEngine's serving precondition, applied BEFORE lowering:
        # the plan verifier refuses folded conv+norm ops on a model still in
        # training mode (every model right after ``fit()``).  Gradients stay
        # on the caller's model; the skeleton drops them in transit.
        model.eval()
        model.reset_state()
        if use_runtime and plan_for(model) is None:
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
        # Requests resident in one replica at a time — the crash-loss bound
        # and the slab slot count: one width stepping, one staged behind it.
        # With a single width the replica cannot be refilled until a
        # completion's whole round trip through the parent is done, and
        # steps half-empty.  Derived, not a knob: returning credits at
        # admission would bound the same two widths with more messages.
        self.window = 2 * self.batch_width
        self.cost_model = cost_model
        self.controller = controller
        self.clock = clock
        self.use_runtime = use_runtime
        # Observability sinks live parent-side only: the trace recorder and
        # span tracker see completions in the collector (one clock domain),
        # so replicas ship no extra bytes for them.
        self.trace = trace
        self.spans = spans
        # Export before anything serves: the arena copies the constants and
        # the skeleton captures the structure exactly once for all replicas.
        self.arena = PlanArena.export(model)
        self._skeleton = self.arena.skeleton()
        # One shared ring segment for the whole fleet, sized at construction
        # (the Allocator Law: every slot the steady state will ever use
        # exists before the first request).  ``window`` request slots per
        # replica exactly cover the in-flight bound the window semaphore
        # enforces — a slot is freed strictly before its permit is released,
        # so try_write can only miss when a frame exceeds slot_bytes.
        self.rings = PoolRings.create(
            self.num_replicas, slots=self.window, slot_bytes=ring_slot_bytes
        )
        self._ring_writers = [self.rings.writer(i) for i in range(self.num_replicas)]
        self._ring_readers = [self.rings.reader(i) for i in range(self.num_replicas)]

        self._ctx = multiprocessing.get_context("spawn")
        # Two plain pipes per replica, one writer each: work (parent ->
        # replica) and results (replica -> parent).  A shared queue would
        # funnel every message through one cross-process write lock, and a
        # replica SIGKILLed while holding it would deadlock the survivors; a
        # queue per replica would add a feeder thread (one more GIL
        # contender, closing fds on its own schedule).  ``_child_ends[i]``
        # is the (work reader, result writer) pair replica i inherits.
        work = [self._ctx.Pipe(duplex=False) for _ in range(self.num_replicas)]
        results = [self._ctx.Pipe(duplex=False) for _ in range(self.num_replicas)]
        self._work_writers = [writer for _, writer in work]
        self._result_readers = [reader for reader, _ in results]
        self._child_ends = [
            (reader, writer) for (reader, _), (_, writer) in zip(work, results)
        ]
        self.processes: List[multiprocessing.Process] = []
        self._forwarders: List[threading.Thread] = []
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

        self._lock = named_lock("serve.replica.pool")
        # request_id -> (request, response, ring slot); the slot is freed
        # when the entry pops (completion, relayed error, or crash).
        self._inflight: List[Dict[int, Tuple[Request, Response, int]]] = [
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
        self._spawn_env_lock.acquire()
        try:
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS"):
                saved[name] = os.environ.get(name)
                os.environ[name] = "1"
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
                          *self._child_ends[index], self.rings.spec),
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
                # Drop the parent's copies of the replica's pipe ends: once
                # the replica exits, its result reader then raises EOF
                # instead of idling on a half-open pipe, and a send into its
                # work pipe raises instead of filling a buffer nobody reads.
                _close_ends(self._child_ends[index])
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
        self._retire()

    def _retire(self) -> None:
        """Release the IPC fds and unlink both segments.

        Like the arena's unlink, resource release belongs to drain/abort,
        not to whenever the pool object happens to be garbage-collected —
        a parent that keeps a drained server around for telemetry must not
        hold fds per replica.  Runs strictly after the forwarders and the
        collector joined: nobody touches a pipe anymore, and a plain pipe
        has no thread of its own to race the close.
        """
        _close_ends(self._work_writers + self._result_readers)
        for ends in self._child_ends:
            # No-ops for spawned replicas; a partial spawn failure leaves
            # the tail ones open.
            _close_ends(ends)
        for process in self.processes:
            if process.exitcode is not None:
                # Releases the sentinel fd now instead of at GC.  The
                # Process object becomes inert afterwards; everything the
                # pool reports post-drain (live_replicas, telemetry) reads
                # pool state, not Process attributes.
                process.close()
        self.arena.destroy()
        self.rings.destroy()
        self._retired = True

    def abort(self) -> None:
        """Non-graceful stop: kill the replicas, fail their in-flight work
        and everything still queued (:class:`ServerClosedError`, shed)."""
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
        # Close any still-open replica-side ends now (no-ops for
        # successfully spawned replicas): after a partial spawn failure the
        # never-spawned replicas' readers can only reach EOF — and the
        # collector can only finish — once these drop.
        for ends in self._child_ends:
            _close_ends(ends)
        self._finished.set()
        if self._collector is not None:
            self._collector.join(5.0)
        self._fail_stranded()
        if self._monitor is None:
            # Aborting a fleet whose monitor never started (spawn failure
            # mid-start): nobody else will release the spawned processes'
            # arena references, and destroy() cannot unlink while they are
            # held.
            for _ in self.processes:
                self.arena.release()
        self._retire()

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
        staleness every round (an idle one every 10 ms), so in practice the
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
    def _backlog_empty(self) -> bool:
        with self._lock:
            if self._overflow:
                return False
        return self.queue.depth() == 0

    def _forward_loop(self, index: int) -> None:
        """One dispatch round per iteration: take every free window permit,
        gather that many requests, drop the expired, publish the rest as ONE
        message — under a burst the replica pays one wakeup and one pickle
        per round, not per request.  Each stage returns the permits of the
        requests it does not pass on."""
        sem = self._window_sems[index]
        while not self._dead[index] and not self._aborting:
            if self.queue.closed and self._backlog_empty():
                try:
                    self._work_writers[index].send_bytes(_MSG_DRAIN)
                except OSError:
                    pass  # already dead: the monitor owns its exit
                return
            if not sem.acquire(timeout=0.05):
                continue
            permits = 1
            while permits < self.window and sem.acquire(blocking=False):
                permits += 1
            batch = self._drop_expired(index, self._gather(index, permits))
            if batch and not self._publish(index, batch):
                return

    def _gather(self, index: int, permits: int) -> List[Tuple[Request, Response]]:
        """Up to ``permits`` requests: the re-pooled ones a crash handed
        back first, else whatever ONE ``queue.get`` finds (waiting briefly
        for the first)."""
        with self._lock:
            overflow = self._overflow
            batch = [overflow.popleft() for _ in range(min(permits, len(overflow)))]
        if not batch:
            batch = self.queue.get(timeout=0.05, limit=permits) or []
        if len(batch) < permits:
            self._window_sems[index].release(permits - len(batch))
        return batch

    def _drop_expired(self, index: int, batch: List[Tuple[Request, Response]]
                      ) -> List[Tuple[Request, Response]]:
        """Deadline enforcement stays parent-side (one clock domain): a
        request that waited out its deadline in the shared queue is dropped
        here, before it costs a slab slot and a cross-process round trip."""
        kept, expired = [], []
        now = self.clock()
        for pair in batch:
            deadline = pair[0].deadline
            if deadline is None or now <= deadline:
                kept.append(pair)
            else:
                expired.append(pair)
        if expired:
            self._fail(expired, DeadlineExceededError(
                "request missed its deadline before dispatch"), "deadline")
            self._window_sems[index].release(len(expired))
        return kept

    def _fail(self, failed, error: BaseException, reason: str) -> None:
        """:func:`~repro.serve.batcher.fail_round` with this pool's sinks —
        never under ``self._lock``: casualties leave the pool-lock section
        first, so no sink's lock is ever taken inside it."""
        fail_round(failed, error, reason, self.clock, self.telemetry,
                   self.trace, self.spans)

    def _publish(self, index: int, batch: List[Tuple[Request, Response]]) -> bool:
        """Write the round's frames, register it, ship its tickets.  False
        when the replica died under the round (which was then re-pooled or
        failed typed): the forwarder has nothing left to forward to."""
        writer = self._ring_writers[index]
        # Frames go into the slab BEFORE the pool lock is taken (the copy is
        # the expensive part; the slab is per-replica and this forwarder is
        # its only writer).  A permit implies a free slot, so no ticket
        # means a frame the ring cannot carry: refused typed, costing itself.
        entries: List[Tuple[Request, Response, RingTicket]] = []
        for request, response in batch:
            ticket = writer.try_write(request.inputs)
            if ticket is None:
                self._fail([(request, response)], AdmissionRejectedError(
                    f"request {request.request_id} frame {request.inputs.shape} "
                    f"of {request.inputs.nbytes} bytes does not fit the replica "
                    f"ring's {writer.spec.slot_bytes}-byte slots and "
                    f"{MAX_FRAME_RANK}-dimension entries",
                ), "rejected")
                self._window_sems[index].release()
            else:
                entries.append((request, response, ticket))
        if not entries:
            return True
        with self._lock:
            alive = not self._dead[index]
            if alive:
                inflight = self._inflight[index]
                for request, response, ticket in entries:
                    inflight[request.request_id] = (request, response, ticket[0])
        if alive:
            # ``dispatched`` (the stage only replica mode observes) is read
            # BEFORE the send: a forwarder descheduled after it could stamp
            # it after the replica admitted, or even completed, the round.
            dispatched_at = self.clock() if self.spans is not None else None
            try:
                # Each request ships its ThresholdEpoch stamp: the replica
                # engine evaluates the slot under exactly these knobs, so a
                # request can never run under knobs other than the ones
                # stamped at its submission.  Tickets only — a round is at
                # most ``window`` 123-byte entries (about 2 KB at width 8
                # against a 64 KB pipe buffer) and at most ``window`` are
                # ever unread, so this send never blocks on a live replica;
                # on a dead one (nobody holds the read end) it raises.
                self._work_writers[index].send_bytes(encode_work([
                    (request.request_id, ticket, request.label,
                     None if request.epoch is None else request.epoch.as_tuple())
                    for request, _, ticket in entries
                ]))
            except OSError:
                # BrokenPipeError: the replica died between gather and send.
                # What its monitor has not already failed is ours to place.
                alive = False
                with self._lock:
                    inflight = self._inflight[index]
                    entries = [
                        entry for entry in entries
                        if inflight.pop(entry[0].request_id, None) is not None
                    ]
        if not alive:
            self._abandon_round(index, entries)
            return False
        if self.spans is not None:
            for request, _, _ in entries:
                self.spans.record(request.request_id, "dispatched", dispatched_at)
        return True

    def _abandon_round(self, index: int,
                       entries: List[Tuple[Request, Response, RingTicket]]) -> None:
        """A round popped from the queue whose replica died before it
        shipped: give its slots back, then hand the requests to a survivor —
        or, during drain, fail them typed."""
        for _, _, ticket in entries:
            self._ring_writers[index].release(ticket[0])
        pairs = [entry[:2] for entry in entries]
        with self._lock:
            draining = self.queue.closed and not self._aborting
            if not draining:
                # Lost the race with a crash mid-traffic (or with an abort):
                # hand the requests back to the pool so a surviving replica
                # serves them — or the abort fails them with its own error.
                self._overflow.extend(pairs)
                stranded = self._live == 0 or self._aborting
        if draining:
            # Crash during drain: the surviving forwarders have (or soon
            # will have) sent their drain sentinels and exited, so nobody
            # is left to pop a re-pooled round — fail it typed instead of
            # stranding it.  The round holds this replica's own window
            # permits, so the total loss stays within its in-flight window.
            self._fail(pairs, ReplicaCrashError(
                f"replica {index} crashed during drain before its last round "
                f"was dispatched"), "shed")
        elif stranded:
            # The monitor's last-replica cleanup already ran (or runs
            # concurrently): nobody will ever pop the pool again, so fail
            # the strays ourselves.
            self._fail_stranded()

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
                    self._handle_result(indices[id(reader)], message)
                except Exception:  # pragma: no cover - a failing sink must
                    # not take down the collector with everyone's futures.
                    traceback.print_exc()

    def _handle_result(self, index: int, message) -> None:
        # A message the collector cannot decode (wrong arity, unknown kind, a
        # range that fails validation) is its replica's failure: killed, so
        # its monitor fails its window typed; none of it reaches a sink.
        try:
            _, kind, payload = message
            if kind == _MSG_DONE_RING:
                completions = self._ring_readers[index].read(*payload)
            elif kind not in (_MSG_ERROR, _MSG_READY, _MSG_REBOUND, _MSG_BYE):
                raise ValueError(f"unknown result message kind {kind!r}")
        except Exception:
            traceback.print_exc()
            self.processes[index].kill()
            return
        if kind == _MSG_DONE_RING:
            # The backpressure gauge must sample the *shared* admission
            # queue (a replica's local queue is window-bounded and says
            # nothing about overload); one sample per completion round
            # mirrors the thread batcher's per-step sampling cadence.
            self.telemetry.record_queue_depth(self.queue.depth())
            # One message = one ring read = one round through the shared
            # completion sink: the same chain, in the same order, as a
            # thread batcher's step.
            entries = self._pop_round(
                index, [completion[0] for completion in completions]
            )
            # start_t/finish_t are on the replica's clock; the sink keeps
            # their difference and stamps the server's own.
            complete_round(
                [
                    CompletedSample(
                        request=entry[0], response=entry[1], prediction=prediction,
                        exit_timestep=exit_timestep, score=score,
                        threshold=threshold, start_time=start_t, epoch=epoch,
                        brownout=brownout, horizon=horizon, finish_time=finish_t,
                    )
                    for entry, (_, prediction, exit_timestep, score, threshold,
                                start_t, finish_t, epoch, brownout, horizon)
                    in zip(entries, completions)
                    if entry is not None
                ],
                self.clock, self.telemetry, self.cost_model,
                self.controller, self.trace, self.spans,
            )
        elif kind == _MSG_ERROR:
            entries = self._pop_round(index, [request_id for request_id, _ in payload])
            for entry, (_, text) in zip(entries, payload):
                # Accounted exactly like a thread-mode engine rejection.
                if entry is not None:
                    self._fail([entry[:2]], AdmissionRejectedError(text), "rejected")
        elif kind == _MSG_READY:
            with self._lock:
                self._rebound[index] = int(payload)
            self._ready[index].set()
        elif kind == _MSG_REBOUND:
            with self._lock:
                self._rebound[index] = int(payload)
        elif kind == _MSG_BYE:
            self.telemetry.extend_occupancy(payload)

    def _pop_round(self, index: int, request_ids: List[int]) -> List[Optional[tuple]]:
        """Pop one round's in-flight entries in one lock section, free their
        slab slots, then return their window permits in one release.  An
        entry is ``None`` where the crash monitor already failed the
        request."""
        with self._lock:
            inflight = self._inflight[index]
            entries = [inflight.pop(request_id, None) for request_id in request_ids]
        # Slots BEFORE permits: the permit is what admits the next dispatch,
        # so a new round can never race a still-occupied slab slot.
        release = self._ring_writers[index].release
        freed = 0
        for entry in entries:
            if entry is not None:
                release(entry[2])
                freed += 1
        if freed:
            self._window_sems[index].release(freed)
        return entries

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
            for _, _, slot in inflight:
                # The replica is gone, so its slab slots are safe to reuse
                # (moot for a dead replica, but the free list must balance
                # for the bookkeeping invariants).
                self._ring_writers[index].release(slot)
            self._fail([entry[:2] for entry in inflight], error, "shed")
        # Unblock the forwarder so it can observe the dead flag and exit.
        self._window_sems[index].release(self.window)
        self.arena.release()
        if live == 0 and not self._aborting:
            # Nobody left to serve: close the door and fail every queued
            # future so no client blocks forever.  On a graceful drain the
            # queue is already closed and empty and this no-ops.
            self.queue.close()
            self._fail_stranded()

    def _fail_stranded(self) -> None:
        """Fail every re-pooled or queued request nobody is left to serve.

        Runs from whichever side loses the crash race last — the monitor's
        last-replica cleanup or a forwarder re-pooling a popped batch after
        its replica died — and from :meth:`abort`.  The casualties are
        popped (under the pool lock, then the queue's), so the duplicate
        calls are safe, and failed after both sections are left.
        """
        with self._lock:
            stranded = list(self._overflow)
            self._overflow.clear()
        stranded += self.queue.drain_pending()
        if self._crashed and not self._aborting:
            error: BaseException = ReplicaCrashError(
                "all serving replicas exited while work was queued")
        else:
            error = ServerClosedError("server shut down")
        self._fail(stranded, error, "shed")


def _close_ends(ends) -> None:
    """Close pipe ends; closing an already-closed ``Connection`` is a no-op."""
    for end in ends:
        try:
            end.close()
        except OSError:  # pragma: no cover - the fd went away under us
            pass
