"""Request conservation and failure accounting across serving compositions.

The invariant under test: every submitted request lands in **exactly one**
terminal counter, so

    submitted == completed + rejected + shed + deadline_drops

holds on every composition — thread workers and process replicas alike —
under a mixed success / shed-at-the-door / deadline-drop / crash workload.
The client-side outcome tally must equal the telemetry counters (no silent
under- or over-counting on either side), and every span a request ever
opened must be terminal after drain.

These tests pin three bugs fixed together with the ring-transport change:

* relayed admission rejections in replica mode resolved the client future
  but recorded nothing — replica mode under-counted ``rejected`` versus
  thread mode and broke conservation;
* failed requests (deadline drops, rejections, crash casualties) left their
  spans dangling open — ``open_spans()`` never converged to empty;
* one shared exception instance resolved many futures, racing concurrent
  ``result()`` re-raises on ``__traceback__`` mutation — each future now
  owns a distinct clone.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    AdmissionQueue,
    AdmissionRejectedError,
    DeadlineExceededError,
    InferenceEngine,
    QueueFullError,
    ReplicaCrashError,
    Request,
    Response,
    Server,
    ServerClosedError,
    SpanTracker,
    Telemetry,
    TraceRecorder,
    load_trace,
)
from repro.serve.batcher import fail_round
from repro.serve.replica import ReplicaPool
from repro.serve.request import clone_exception
from repro.serve.telemetry import GAUGE_WINDOW
from repro.snn import spiking_vgg
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _model(seed=47):
    seed_everything(seed)
    model = spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS,
    ).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(batch, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _deadline_total(telemetry):
    return sum(telemetry.deadline_drops_by_class.values())


def _assert_conserved(submitted, telemetry):
    total = (
        telemetry.completed + telemetry.rejected + telemetry.shed
        + _deadline_total(telemetry)
    )
    assert submitted == total, (
        f"conservation broken: {submitted} submitted vs "
        f"{telemetry.completed} completed + {telemetry.rejected} rejected + "
        f"{telemetry.shed} shed + {_deadline_total(telemetry)} deadline drops"
    )


# --------------------------------------------------------------------- #
# The conservation matrix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "num_workers,num_replicas",
    [(1, 0), (2, 0), (0, 1), (0, 2)],
    ids=["1-worker", "2-workers", "1-replica", "2-replicas"],
)
def test_request_conservation_across_compositions(num_workers, num_replicas):
    """Mixed success / queue-full / guaranteed-deadline workload: the
    client-visible outcome of every future matches the telemetry counter it
    incremented, the conservation sum is exact, and no span stays open."""
    model = _model()
    spans = SpanTracker()
    kwargs = dict(num_replicas=num_replicas) if num_replicas else dict(
        num_workers=num_workers
    )
    # threshold 0: nothing exits early, so the backlog builds and the tiny
    # queue actually sheds — the workload genuinely mixes all three fates.
    server = Server(
        model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS,
        batch_width=2, queue_capacity=6, spans=spans, **kwargs,
    ).start()
    xs = _inputs(36)
    outcomes = {"completed": 0, "rejected": 0, "deadline": 0}
    futures = []
    try:
        for index in range(xs.shape[0]):
            # Every fifth request carries an already-expired deadline: if it
            # clears the door it MUST become a deadline drop, never a result.
            deadline = -1.0 if index % 5 == 3 else None
            try:
                futures.append(
                    server.submit(xs[index], block=False, deadline=deadline)
                )
            except QueueFullError:
                outcomes["rejected"] += 1
        for future in futures:
            try:
                future.result(timeout=60.0)
                outcomes["completed"] += 1
            except DeadlineExceededError:
                outcomes["deadline"] += 1
    finally:
        server.shutdown(drain=True)

    telemetry = server.telemetry
    # The workload exercised all three fates, not just completions.
    assert outcomes["completed"] > 0
    assert outcomes["rejected"] > 0
    assert outcomes["deadline"] > 0
    # Client-side tallies equal the server-side counters exactly.
    assert outcomes["completed"] == telemetry.completed
    assert outcomes["rejected"] == telemetry.rejected
    assert outcomes["deadline"] == _deadline_total(telemetry)
    assert telemetry.shed == 0
    _assert_conserved(xs.shape[0], telemetry)
    # Span terminality: nothing a worker ever touched is left open.
    assert spans.open_spans() == []


@pytest.mark.slow
def test_conservation_holds_through_replica_crash():
    """SIGKILL mid-traffic: crash casualties land in ``shed`` (and nowhere
    else), each carries its own exception instance, and the sum stays exact."""
    model = _model()
    spans = SpanTracker()
    xs = _inputs(40, seed=9)
    server = Server(
        model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS,
        batch_width=3, queue_capacity=len(xs), num_replicas=2,
        spans=spans,
    ).start()
    # The crash bound is the in-flight window: two batch widths.
    window = server.replicas.window
    assert window == 2 * 3
    victim = server.replicas.processes[0]
    try:
        futures = [server.submit(x) for x in xs]
        deadline = time.monotonic() + 30.0
        while server.telemetry.completed < 2:
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail("no completions before fault injection")
            time.sleep(0.005)
        os.kill(victim.pid, signal.SIGKILL)
        completed = 0
        crash_errors = []
        for future in futures:
            try:
                future.result(timeout=60.0)
                completed += 1
            except ReplicaCrashError as error:
                crash_errors.append(error)
    finally:
        server.shutdown(drain=True)

    telemetry = server.telemetry
    assert completed == telemetry.completed
    assert len(crash_errors) == telemetry.shed
    assert len(crash_errors) <= window
    assert _deadline_total(telemetry) == 0
    _assert_conserved(len(xs), telemetry)
    # Concurrent waiters re-raise concurrently: one shared instance would
    # race on __traceback__; every future must own a distinct clone.
    assert len({id(error) for error in crash_errors}) == len(crash_errors)
    assert spans.open_spans() == []


# --------------------------------------------------------------------- #
# Relayed rejections are accounted (replica mode) — and thread mode agrees
# --------------------------------------------------------------------- #
def _rejection_accounting(tmp_path, **server_kwargs):
    model = _model()
    spans = SpanTracker()
    recorder = TraceRecorder(
        str(tmp_path / "wal.jsonl"),
        meta={"threshold": 0.5, "max_timesteps": TIMESTEPS},
    )
    server = Server(
        model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
        batch_width=2, spans=spans, trace=recorder, **server_kwargs,
    ).start()
    xs = _inputs(2)
    try:
        # One good request first: the engine pins the served sample shape,
        # so the malformed one is deterministically rejected at admission.
        server.submit(xs[0]).result(timeout=60.0)
        malformed = np.zeros(
            (3, IMAGE_SIZE + 2, IMAGE_SIZE + 2), dtype=np.float32
        )
        with pytest.raises(AdmissionRejectedError):
            server.submit(malformed).result(timeout=60.0)
    finally:
        server.shutdown(drain=True)
        recorder.close()
    telemetry = server.telemetry
    assert telemetry.completed == 1
    assert telemetry.rejected == 1, (
        "an engine rejection resolved the future without incrementing the "
        "rejected counter"
    )
    _assert_conserved(2, telemetry)
    assert spans.open_spans() == []
    trace = load_trace(str(tmp_path / "wal.jsonl"))
    assert len(trace.records) == 1
    assert len(trace.rejections) == 1, "rejection never reached the trace WAL"


def test_replica_relayed_rejection_is_recorded(tmp_path):
    """The ``_MSG_ERROR`` relay path: a rejection that happened inside the
    replica process must be recorded by the parent exactly like the
    thread-mode door records its own."""
    _rejection_accounting(tmp_path, num_replicas=1)


def test_thread_mode_engine_rejection_is_recorded(tmp_path):
    _rejection_accounting(tmp_path, num_workers=1)


def test_replica_drain_ships_occupancy_and_only_the_parent_counts_failures():
    """Only the parent records.  With queue-full sheds, deadline drops and
    RELAYED admission rejections in one replica run, each parent counter
    equals the client-side tally of failed futures (nothing a replica saw is
    counted a second time at drain), and what the drain message does carry —
    the occupancy samples — lands in the parent's window-bounded gauge."""
    server = Server(
        _model(), EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS,
        batch_width=2, queue_capacity=6, num_replicas=1,
    ).start()
    xs = _inputs(36)
    malformed = np.zeros((3, IMAGE_SIZE + 2, IMAGE_SIZE + 2), dtype=np.float32)
    failed = {"rejected": 0, "relayed": 0, "deadline": 0}
    futures = []
    try:
        # Pins the served sample shape, so a malformed frame is refused by
        # the replica's engine and comes back over the error relay.
        server.submit(xs[0]).result(timeout=60.0)
        for index in range(1, xs.shape[0]):
            inputs = malformed if index % 7 == 2 else xs[index]
            deadline = -1.0 if index % 5 == 3 else None
            try:
                futures.append(server.submit(inputs, block=False, deadline=deadline))
            except QueueFullError:
                failed["rejected"] += 1
        for future in futures:
            try:
                future.result(timeout=60.0)
            except AdmissionRejectedError:
                failed["relayed"] += 1
            except DeadlineExceededError:
                failed["deadline"] += 1
    finally:
        server.shutdown(drain=True)
    telemetry = server.telemetry
    snapshot = telemetry.snapshot()
    assert min(failed.values()) > 0, failed
    assert snapshot["rejected"] == failed["rejected"] + failed["relayed"]
    assert snapshot["deadline_dropped"] == failed["deadline"]
    assert snapshot["shed"] == 0
    _assert_conserved(xs.shape[0], telemetry)
    # The parent steps no batch: every occupancy sample came from the drain.
    assert 0 < len(telemetry.occupancy_samples()) <= GAUGE_WINDOW
    assert 0.0 < snapshot["occupancy_mean"] <= 1.0
    telemetry.extend_occupancy([1.0] * GAUGE_WINDOW)
    assert len(telemetry.occupancy_samples()) == GAUGE_WINDOW


def test_a_failed_start_counts_what_it_drains(monkeypatch):
    """A request a concurrent client queued while the replicas were coming
    up is shed — typed like every other shutdown casualty and counted —
    when no replica becomes ready, instead of vanishing from every counter
    behind a ``QueueClosedError``."""
    server = Server(
        _model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
        batch_width=2, num_replicas=1,
    )
    futures = []

    def none_ready(self, timeout=None):
        futures.append(server.submit(_inputs(1)[0]))
        return 0

    monkeypatch.setattr(ReplicaPool, "start", lambda self: self)
    monkeypatch.setattr(ReplicaPool, "wait_ready", none_ready)
    with pytest.raises(ServerClosedError, match="no serving replica"):
        server.start()
    (future,) = futures
    with pytest.raises(ServerClosedError):
        future.result(timeout=1.0)
    assert server.telemetry.shed == 1
    _assert_conserved(1, server.telemetry)


# --------------------------------------------------------------------- #
# Per-future exception instances (unit pins)
# --------------------------------------------------------------------- #
def test_clone_exception_preserves_type_args_and_cause():
    cause = ValueError("root")
    error = ReplicaCrashError("replica 0 crashed")
    error.__cause__ = cause
    clone = clone_exception(error)
    assert clone is not error
    assert type(clone) is ReplicaCrashError
    assert clone.args == error.args
    assert clone.__cause__ is cause


def test_drain_pending_gives_each_future_its_own_exception():
    """The queue hands its casualties out untouched; ``fail_round`` gives
    each one its own instance."""
    queue = AdmissionQueue(capacity=8)
    responses = [Response() for _ in range(3)]
    for index, response in enumerate(responses):
        queue.put(Request(request_id=index, inputs=np.zeros(1)), response)
    queue.close()
    drained = queue.drain_pending()
    assert [response for _, response in drained] == responses
    assert not any(response.done() for response in responses)
    telemetry = Telemetry()
    fail_round(drained, RuntimeError("shutting down"), "shed", lambda: 0.0, telemetry)
    assert telemetry.shed == 3
    errors = []
    for response in responses:
        with pytest.raises(RuntimeError, match="shutting down"):
            response.result(timeout=1.0)
        try:
            response.result(timeout=1.0)
        except RuntimeError as error:
            errors.append(error)
    assert len({id(error) for error in errors}) == len(errors)


def test_admit_batch_rejection_gives_each_future_its_own_exception():
    model = _model()
    engine = InferenceEngine(
        model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS
    )
    good = _inputs(1)[0]
    bad = np.zeros((3, IMAGE_SIZE + 2, IMAGE_SIZE + 2), dtype=np.float32)
    admissions = [
        (Request(request_id=0, inputs=good), Response(), 0.0),
        (Request(request_id=1, inputs=bad), Response(), 0.0),
    ]
    with pytest.raises(AdmissionRejectedError) as rejection:
        engine.admit_batch(admissions)
    # The engine resolves no future; the batcher's fail_round does.
    assert not any(response.done() for _, response, _ in admissions)
    fail_round([admission[:2] for admission in admissions], rejection.value,
               "rejected", lambda: 0.0, Telemetry())
    errors = []
    for _, response, _ in admissions:
        try:
            response.result(timeout=1.0)
        except AdmissionRejectedError as error:
            errors.append(error)
    assert len(errors) == 2
    assert len({id(error) for error in errors}) == len(errors)
    # Each clone keeps the validation error that caused the rejection.
    assert all(error.__cause__ is rejection.value.__cause__ for error in errors)
    assert isinstance(rejection.value.__cause__, ValueError)
