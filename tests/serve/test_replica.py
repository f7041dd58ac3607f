"""Process-replica serving: lifecycle, arena sharing, reloads, fault injection.

The contract under test, in increasing order of violence:

* replicas serve decision-exact results versus the single-worker oracle
  while sharing exactly one ``/dev/shm`` arena segment between them;
* a drained server leaves no shared-memory segment behind;
* an in-place weight reload (``load_state_dict`` + ``refresh_replicas``)
  propagates to live replicas, whose subsequent decisions match a fresh
  oracle of the new weights;
* ``SIGKILL`` of a replica mid-traffic fails *at most its in-flight window*
  with the typed :class:`ReplicaCrashError`, strands no client, leaves the
  surviving replicas serving, and still releases the arena on drain;
* when every replica is gone, queued clients fail typed instead of blocking
  forever.

Fault-injection tests are ``-m slow`` (they kill processes and ride out the
recovery timeouts); the lifecycle tests stay in the fast tier.
"""

from __future__ import annotations

import contextlib
import glob
import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.runtime import plan_registry
from repro.serve import (
    AdmissionQueue,
    AdmissionRejectedError,
    InferenceEngine,
    ReplicaCrashError,
    Request,
    Response,
    Server,
    ServerClosedError,
    ThresholdEpoch,
    TraceRecorder,
    load_trace,
)
from repro.runtime.rings import MAX_FRAME_RANK, attach_rings, encode_work
from repro.serve.replica import _MSG_DONE_RING, _stage_round
from repro.snn import spiking_vgg
from repro.snn.encoding import EventFrameEncoder
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _model(seed=47, encoder=None):
    seed_everything(seed)
    model = spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS,
        **({"encoder": encoder} if encoder is not None else {}),
    ).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(batch, seed=3, event=False):
    rng = np.random.default_rng(seed)
    if event:
        return rng.random(
            (batch, TIMESTEPS + 1, 3, IMAGE_SIZE, IMAGE_SIZE)
        ).astype(np.float32)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _arena_segments():
    return set(glob.glob("/dev/shm/repro-arena-*"))


def _ring_segments():
    return set(glob.glob("/dev/shm/repro-rings-*"))


def _oracle_decisions(model, xs, threshold=0.5):
    """Sequential single-engine reference (one request at a time)."""
    engine = InferenceEngine(
        model, EntropyExitPolicy(threshold), max_timesteps=TIMESTEPS
    )
    outcomes = {}
    for index in range(xs.shape[0]):
        engine.admit(Request(request_id=index, inputs=xs[index]), Response(), 0.0)
        while not engine.idle:
            for sample in engine.step():
                outcomes[sample.request.request_id] = (
                    sample.prediction, sample.exit_timestep,
                )
    return outcomes


def _replica_server(model, threshold=0.5, num_replicas=2, batch_width=3,
                    queue_capacity=64, **kwargs):
    return Server(
        model, EntropyExitPolicy(threshold), max_timesteps=TIMESTEPS,
        batch_width=batch_width, queue_capacity=queue_capacity,
        num_replicas=num_replicas, **kwargs,
    )


@contextlib.contextmanager
def _thread_exceptions():
    """Collect what any thread raises past its ``run`` (instead of letting
    pytest turn it into a warning some later test gets blamed for)."""
    raised = []
    previous = threading.excepthook
    threading.excepthook = raised.append
    try:
        yield raised
    finally:
        threading.excepthook = previous


def _pool_threads():
    return [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith(("QueueFeederThread", "repro-replica-"))
    ]


class TestReplicaServing:
    def test_replicas_match_oracle_and_share_one_segment(self):
        model = _model()
        xs = _inputs(24)
        reference = _oracle_decisions(model, xs)
        before = _arena_segments()
        server = _replica_server(model, num_replicas=2).start()
        try:
            during = _arena_segments() - before
            assert len(during) == 1, (
                f"expected exactly one arena segment for 2 replicas, got {during}"
            )
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
        decisions = {r.request_id: (r.prediction, r.exit_timestep) for r in results}
        assert decisions == reference
        assert _arena_segments() <= before, "arena leaked past drain"
        stats = server.stats()
        assert stats["completed"] == len(xs)
        assert stats["num_workers"] == 2.0
        # Gauges shipped at drain and merged into the parent telemetry.
        assert "occupancy_mean" in stats

    def test_event_stream_replicas_match_oracle(self):
        """The interned stem-memo keys must survive the process boundary:
        clips are digested in the replica after pickling (layout/dtype
        normalization included), each process fills its own memo, and the
        decisions still match the sequential oracle — including on replay
        traffic after an arena-backed fleet has been serving a while."""
        model = _model(encoder=EventFrameEncoder())
        xs = _inputs(16, seed=29, event=True)
        reference = _oracle_decisions(model, xs)
        server = _replica_server(model, num_replicas=2).start()
        try:
            first = [server.submit(x) for x in xs]
            [future.result(timeout=60.0) for future in first]
            # Replay pass: per-replica memos are warm now.
            replay = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in replay]
        finally:
            server.shutdown(drain=True)
        decisions = {
            r.request_id % len(xs): (r.prediction, r.exit_timestep) for r in results
        }
        assert decisions == reference

    def test_shutdown_is_idempotent_and_timed_drain_does_not_tear_down(self):
        """Thread-mode lifecycle contract, kept: explicit drain() followed
        by the context-manager/second shutdown must no-op, and a drain whose
        timeout expires mid-traffic just stops waiting — it must not close
        channels under a live dispatcher or strand the backlog."""
        model = _model()
        xs = _inputs(30, seed=31)
        server = _replica_server(
            model, threshold=0.0, num_replicas=1, batch_width=2,
            queue_capacity=len(xs),
        ).start()
        futures = [server.submit(x) for x in xs]
        server.drain(timeout=0.01)  # expires with most of the backlog queued
        results = [future.result(timeout=60.0) for future in futures]
        assert len(results) == len(xs)
        server.drain()          # completes the retirement
        server.shutdown(drain=True)   # second shutdown: no-op, no ValueError
        server.shutdown(drain=False)  # and the abort path no-ops too

    def test_replica_server_rejects_mixed_scaling_axes(self):
        with pytest.raises(ValueError, match="num_replicas"):
            Server(_model(), EntropyExitPolicy(0.5), num_workers=2, num_replicas=2)

    def test_weight_reload_propagates_to_live_replicas(self):
        model = _model()
        donor = _model(seed=99)
        xs = _inputs(8, seed=21)
        reference_new = _oracle_decisions(donor, xs)
        server = _replica_server(model, num_replicas=1).start()
        try:
            # Warm the replica on the original weights first.
            [server.submit(x) for x in xs][-1].result(timeout=60.0)
            model.load_state_dict(donor.state_dict())
            assert server.refresh_replicas() > 0
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
        decisions = {
            r.request_id % len(xs): (r.prediction, r.exit_timestep) for r in results
        }
        assert decisions == reference_new

    def test_threshold_mutation_propagates_without_controller(self):
        """Thread workers see ``server.policy.threshold`` mutations through
        the shared policy object; replicas must follow the same knob (the
        forwarder sends the control message before its next dispatch on the
        same FIFO, so propagation is deterministic)."""
        model = _model()
        xs = _inputs(4, seed=23)
        server = _replica_server(model, threshold=0.0, num_replicas=1).start()
        try:
            first = server.submit(xs[0]).result(timeout=60.0)
            assert first.exit_timestep == TIMESTEPS  # never exits early
            server.policy.threshold = 0.999  # exit as soon as possible
            second = server.submit(xs[0]).result(timeout=60.0)
        finally:
            server.shutdown(drain=True)
        assert second.threshold == 0.999
        assert second.exit_timestep < TIMESTEPS

    def test_ring_segment_lifecycle_and_oracle_parity(self):
        """The one transport: decisions are bitwise-identical to the
        sequential oracle, a fleet owns exactly one ``/dev/shm`` ring segment
        sized for a two-width window per replica, and a drained server
        leaves none behind."""
        model = _model()
        xs = _inputs(16, seed=41)
        reference = _oracle_decisions(model, xs)
        before = _ring_segments()
        server = _replica_server(model, num_replicas=2).start()
        try:
            during = _ring_segments() - before
            assert len(during) == 1, (
                f"expected one ring segment for the fleet, got {during}"
            )
            assert server.replicas.window == 2 * 3
            assert server.replicas.rings.spec.slots == server.replicas.window
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
        decisions = {
            r.request_id: (r.prediction, r.exit_timestep) for r in results
        }
        assert decisions == reference
        assert _ring_segments() <= before, "ring segment leaked past drain"

    def test_oversized_frame_is_refused_typed(self, tmp_path):
        """There is no inline payload path: a frame larger than a slab slot
        is refused with ``AdmissionRejectedError`` naming both sizes, and one
        of higher rank than a work entry carries naming its shape; each is
        accounted like any other rejection (telemetry, WAL reject line,
        terminal span), the requests gathered into the same dispatch round
        are served decision-exact, conservation holds and no segment leaks.
        The whole workload is queued before the pool starts, so the refused
        frames sit mid-round by construction."""
        from repro.serve import AdmissionQueue, SpanTracker, Telemetry
        from repro.serve.replica import ReplicaPool

        model = _model()
        xs = _inputs(8, seed=43)
        reference = _oracle_decisions(model, xs)
        oversize = np.zeros((3, IMAGE_SIZE + 2, IMAGE_SIZE + 2), dtype=np.float32)
        deep = np.zeros((1,) * (MAX_FRAME_RANK + 1), dtype=np.float32)
        queue = AdmissionQueue(capacity=64)
        telemetry = Telemetry()
        spans = SpanTracker()
        recorder = TraceRecorder(
            str(tmp_path / "wal.jsonl"),
            meta={"threshold": 0.5, "max_timesteps": TIMESTEPS},
        )
        before = _ring_segments()
        pool = ReplicaPool(
            model, EntropyExitPolicy(0.5), num_replicas=1, queue=queue,
            telemetry=telemetry, max_timesteps=TIMESTEPS, batch_width=3,
            trace=recorder, spans=spans,
            ring_slot_bytes=xs[0].nbytes,  # a served frame fits exactly
        )
        responses = []
        for index in range(xs.shape[0]):
            responses.append(Response())
            queue.put(Request(request_id=index, inputs=xs[index]), responses[-1])
            if index == 1:
                refused = Response()
                queue.put(Request(request_id=100, inputs=oversize), refused)
            if index == 4:
                too_deep = Response()
                queue.put(Request(request_id=101, inputs=deep), too_deep)
        pool.start()
        try:
            assert pool.wait_ready() == 1
            results = [r.result(timeout=60.0) for r in responses]
            with pytest.raises(AdmissionRejectedError) as raised:
                refused.result(timeout=60.0)
            with pytest.raises(AdmissionRejectedError) as raised_deep:
                too_deep.result(timeout=60.0)
        finally:
            queue.close()
            pool.drain()
            recorder.close()
        message = str(raised.value)
        assert str(oversize.nbytes) in message
        assert str(pool.rings.spec.slot_bytes) in message
        message = str(raised_deep.value)
        assert str(deep.shape) in message
        assert f"{MAX_FRAME_RANK}-dimension entries" in message
        decisions = {
            r.request_id: (r.prediction, r.exit_timestep) for r in results
        }
        assert decisions == reference
        assert telemetry.completed == len(responses)
        assert telemetry.rejected == 2 and telemetry.shed == 0
        assert spans.open_spans() == []
        trace = load_trace(str(tmp_path / "wal.jsonl"))
        assert len(trace.records) == len(responses)
        assert [line["id"] for line in trace.rejections] == [100, 101]
        assert _ring_segments() <= before, "ring segment leaked past pool drain"

    def test_retirement_is_thread_clean(self):
        """The work channel is a plain pipe: no feeder thread exists to
        raise ``OSError: [Errno 9]`` / "released too many times" when the
        pool closes its fds, and every pool thread is joined by drain."""
        model = _model()
        xs = _inputs(24, seed=53)
        with _thread_exceptions() as raised:
            server = _replica_server(model, num_replicas=2).start()
            try:
                assert "QueueFeederThread" not in _pool_threads()
                for future in [server.submit(x) for x in xs]:
                    future.result(timeout=60.0)
            finally:
                server.shutdown(drain=True)
            assert _pool_threads() == []
        assert raised == []

    def test_two_width_window_keeps_one_replica_fed(self):
        """The starvation gate.  With the admission queue never empty, one
        replica must step (nearly) full: a window of one batch width cannot
        be refilled until a completion's round trip through the parent is
        done (occupancy 0.54); two widths keep a round staged.  And dispatch
        is round-shaped: the forwarder drains the queue once per round, not
        once per request."""
        model = _model()
        xs = _inputs(480, seed=59)
        reference = _oracle_decisions(model, xs)
        assert len({exit_t for _, exit_t in reference.values()}) > 1  # mixed exits
        server = _replica_server(
            model, num_replicas=1, batch_width=8, queue_capacity=len(xs)
        ).start()
        calls = {"get": 0}
        for name in ("get", "get_nowait"):
            def counted(*args, _real=getattr(server.queue, name), **kwargs):
                calls["get"] += 1
                return _real(*args, **kwargs)
            setattr(server.queue, name, counted)
        try:
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
            polls = calls["get"]
        finally:
            server.shutdown(drain=True)
        decisions = {r.request_id: (r.prediction, r.exit_timestep) for r in results}
        assert decisions == reference
        assert server.stats()["occupancy_mean"] >= 0.85
        assert polls <= len(xs) / 2

    def test_unlowerable_model_is_refused_up_front(self):
        from repro.nn.module import Module

        class Mystery(Module):
            def forward(self, x):
                return x

        model = _model()
        model.features = Mystery()  # the lowerer rejects unknown modules
        with pytest.raises(ValueError, match="lower"):
            _replica_server(model, num_replicas=1)


def test_staged_rounds_intern_one_epoch_object_per_stamp():
    """A replica child rebuilds ``ThresholdEpoch`` objects from wire stamps
    once per distinct stamp, across rounds, so ``admit_batch`` resolves the
    knobs once per epoch as in thread mode — and the decisions are those of
    the same requests carrying one fresh epoch object each.  (Replica
    decisions under stamped epochs against the oracle: TestReplicaServing.)"""

    xs = _inputs(6, seed=5)

    class FrameRings:
        def request_view(self, ticket):
            return xs[ticket[0]]  # the ticket's slot indexes the frames

    first = ThresholdEpoch(epoch=1, threshold=0.5).as_tuple()
    second = ThresholdEpoch(epoch=2, threshold=0.8, horizon=3).as_tuple()
    stamps = [first, first, first, first, None, second]
    queue, outbox, epochs = AdmissionQueue(capacity=8), [], {}
    for round_ in ((0, 1, 2), (3, 4, 5)):
        tickets = [(i, 1, 0, xs[i].nbytes, xs[i].shape, xs[i].dtype.str)
                   for i in round_]
        _stage_round(encode_work([(i, ticket, None, stamps[i])
                                  for i, ticket in zip(round_, tickets)]),
                     FrameRings(), queue, outbox, epochs)
    staged = queue.get_nowait(limit=8)
    assert outbox == [] and len(staged) == 6
    interned = [request.epoch for request, _ in staged]
    assert all(epoch is interned[0] for epoch in interned[:4])
    assert interned[4] is None
    assert interned[5] is not interned[0] and interned[5].as_tuple() == second

    def decide(requests):
        engine = InferenceEngine(
            _model(), EntropyExitPolicy(0.3), max_timesteps=TIMESTEPS)
        engine.admit_batch([(request, Response(), 0.0) for request in requests])
        outcomes = {}
        while not engine.idle:
            for sample in engine.step():
                outcomes[sample.request.request_id] = (
                    sample.prediction, sample.exit_timestep, sample.threshold)
        return outcomes

    fresh = [Request(request_id=i, inputs=xs[i],
                     epoch=None if stamp is None else ThresholdEpoch(*stamp))
             for i, stamp in enumerate(stamps)]
    assert decide([request for request, _ in staged]) == decide(fresh)


def test_training_mode_model_is_served_like_thread_mode():
    """A fresh or just-trained model is still in training mode, where the
    plan verifier refuses folded conv+norm ops: the pool must freeze the
    model BEFORE its lowering check, as a thread worker's engine does — not
    lean on someone else having cached the plan under ``eval()``."""
    model = _model()
    xs = _inputs(8, seed=43)
    reference = _oracle_decisions(model, xs)
    before = _arena_segments() | _ring_segments()
    for composition in ({"num_workers": 1}, {"num_replicas": 1}):
        plan_registry.invalidate(model)  # cold registry: lowering happens HERE
        model.train()
        server = Server(
            model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            batch_width=3, **composition,
        ).start()
        try:
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
        assert {
            r.request_id: (r.prediction, r.exit_timestep) for r in results
        } == reference, composition
    assert _arena_segments() | _ring_segments() <= before


@pytest.mark.slow
class TestReplicaFaultInjection:
    def test_sigkill_mid_traffic_loses_at_most_the_inflight_window(self):
        model = _model()
        xs = _inputs(60, seed=7)
        # threshold 0: nothing exits early, every request runs the full
        # horizon — a long, deterministic backlog to crash into.
        reference = _oracle_decisions(model, xs, threshold=0.0)
        before = _arena_segments() | _ring_segments()
        server = _replica_server(
            model, threshold=0.0, num_replicas=2, batch_width=3,
            queue_capacity=len(xs),
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

            completed, crashed = {}, []
            for index, future in enumerate(futures):
                try:
                    result = future.result(timeout=60.0)
                    completed[index] = (result.prediction, result.exit_timestep)
                except ReplicaCrashError:
                    crashed.append(index)
        finally:
            server.shutdown(drain=True)

        # Every client got an answer (no stranded futures) and the blast
        # radius is bounded by the victim's in-flight window.
        assert len(completed) + len(crashed) == len(xs)
        assert len(crashed) <= window
        # The survivor kept serving the backlog...
        assert len(completed) >= len(xs) - window
        # ...decision-exact versus the sequential oracle.
        for index, decision in completed.items():
            assert decision == reference[index], f"request {index}"
        # And the crash pinned neither the arena nor the victim's rings.
        assert _arena_segments() | _ring_segments() <= before, "segment leaked"
        assert server.stats()["live_replicas"] == 0.0

    def test_an_undecodable_completion_range_fails_its_replica_window_typed(self):
        """A result message the collector cannot decode is its replica's
        failure, not a line to print and skip: a DONE_RING cursor over a
        record with one flipped byte gets the (SIGSTOPped) replica killed,
        so every request of its window fails with ``ReplicaCrashError``
        (reason ``shed``) instead of stranding with its window permit, and
        the survivor serves the rest decision-exact."""
        model = _model()
        xs = _inputs(120, seed=71)
        reference = _oracle_decisions(model, xs, threshold=0.0)
        before = _arena_segments() | _ring_segments()
        server = _replica_server(
            model, threshold=0.0, num_replicas=2, batch_width=3,
            queue_capacity=len(xs),
        ).start()
        pool = server.replicas
        try:
            futures = [server.submit(x) for x in xs]
            deadline = time.monotonic() + 30.0
            while server.telemetry.completed < 2:
                assert time.monotonic() < deadline, "no completions"
                time.sleep(0.005)
            os.kill(pool.processes[0].pid, signal.SIGSTOP)
            # Its window is settled once no buffered completion and no
            # refill moves it for a while.
            held, settled = None, 0
            while settled < 5:
                assert time.monotonic() < deadline, "victim's window never settled"
                with pool._lock:
                    window = sorted(pool._inflight[0])
                settled = settled + 1 if window == held else 0
                held = window
                time.sleep(0.02)
            assert 0 < len(held) <= pool.window
            forged = attach_rings(pool.rings.spec, 0)
            cursor = forged.write_completions(
                [(held[0], 0, 1, 0.5, None, 0.0, 0.0, None, False, None)])
            forged.close()
            assert cursor == (0, 1)
            pool._ring_readers[0]._ring[16] ^= 0x01  # its prediction's low byte
            pool._handle_result(0, (0, _MSG_DONE_RING, cursor))

            completed, crashed = {}, []
            for index, future in enumerate(futures):
                try:
                    result = future.result(timeout=60.0)
                    completed[index] = (result.prediction, result.exit_timestep)
                except ReplicaCrashError:
                    crashed.append(index)
        finally:
            # A no-op once the collector killed it; otherwise the stopped
            # victim would hold the drain forever.
            pool.processes[0].kill()
            server.shutdown(drain=True)
        assert crashed == held
        for index, decision in completed.items():
            assert decision == reference[index], f"request {index}"
        telemetry = server.telemetry
        assert telemetry.completed == len(completed) == len(xs) - len(held)
        assert telemetry.shed == len(crashed)
        assert len(xs) == (
            telemetry.completed + telemetry.rejected + telemetry.shed
            + sum(telemetry.deadline_drops_by_class.values())
        )
        assert _arena_segments() | _ring_segments() <= before, "segment leaked"

    def test_all_replicas_dead_fails_queued_clients_typed(self):
        model = _model()
        xs = _inputs(32, seed=13)
        server = _replica_server(
            model, threshold=0.0, num_replicas=2, batch_width=2,
            queue_capacity=len(xs),
        ).start()
        try:
            futures = [server.submit(x) for x in xs]
            for process in server.replicas.processes:
                os.kill(process.pid, signal.SIGKILL)
            outcomes = []
            for future in futures:
                try:
                    future.result(timeout=60.0)
                    outcomes.append("done")
                except ReplicaCrashError:
                    outcomes.append("crash")
                except ServerClosedError:  # pragma: no cover - unexpected here
                    outcomes.append("closed")
            # Nobody hangs; the queue was closed and drained with the typed
            # error, so everything not already served reports the crash.
            assert len(outcomes) == len(xs)
            assert "crash" in outcomes
            assert all(outcome in ("done", "crash") for outcome in outcomes)
            # New submissions are refused instead of queueing into the void.
            with pytest.raises(ServerClosedError):
                server.submit(xs[0])
        finally:
            server.shutdown(drain=True)
        assert server.replicas.live_replicas == 0

    def test_crash_during_drain_still_releases_arena(self):
        model = _model()
        xs = _inputs(30, seed=17)
        before = _arena_segments()
        server = _replica_server(
            model, threshold=0.0, num_replicas=2, batch_width=3,
            queue_capacity=len(xs),
        ).start()
        futures = [server.submit(x) for x in xs]
        os.kill(server.replicas.processes[1].pid, signal.SIGKILL)
        server.shutdown(drain=True)
        resolved = 0
        for future in futures:
            try:
                future.result(timeout=10.0)
                resolved += 1
            except (ReplicaCrashError, ServerClosedError):
                resolved += 1
        assert resolved == len(xs)
        assert _arena_segments() <= before, "arena leaked past drain"

    def test_sigkill_retirement_is_thread_clean(self):
        model = _model()
        xs = _inputs(30, seed=61)
        with _thread_exceptions() as raised:
            server = _replica_server(
                model, threshold=0.0, num_replicas=2, batch_width=3,
                queue_capacity=len(xs),
            ).start()
            futures = [server.submit(x) for x in xs]
            os.kill(server.replicas.processes[0].pid, signal.SIGKILL)
            for future in futures:
                try:
                    future.result(timeout=60.0)
                except ReplicaCrashError:
                    pass
            server.shutdown(drain=True)
            assert _pool_threads() == []
        assert raised == []

    def test_sigkill_before_send_is_a_dead_replica(self):
        """The victim dies after its forwarder popped a round from the queue
        and before the round's tickets are sent: the failed ``send`` is
        "replica dead" — slots released, the round re-pooled to the survivor
        (or, if the monitor got to it first, failed typed within the window)
        — never a blocked or crashed forwarder, and every request lands in
        exactly one counter."""
        model = _model()
        xs = _inputs(40, seed=67)
        reference = _oracle_decisions(model, xs, threshold=0.0)
        before = _arena_segments() | _ring_segments()
        server = _replica_server(
            model, threshold=0.0, num_replicas=2, batch_width=3,
            queue_capacity=len(xs),
        ).start()
        pool = server.replicas
        victim = pool.processes[0]

        class KillThenSend:
            """The victim's work pipe, with a SIGKILL (and the wait for the
            kernel to close the dead process's pipe ends) spliced in ahead
            of the first round's send."""

            def __init__(self, pipe):
                self.pipe = pipe
                self.broken = 0

            def send_bytes(self, message):
                if message and not self.broken:  # a round, not the drain
                    os.kill(victim.pid, signal.SIGKILL)
                    # A write end whose last reader is gone polls POLLERR.
                    closed = select.poll()
                    closed.register(self.pipe.fileno(), 0)
                    assert closed.poll(30_000), "victim's pipe end never closed"
                try:
                    self.pipe.send_bytes(message)
                except OSError:
                    self.broken += 1
                    raise

            def close(self):
                self.pipe.close()

        hooked = pool._work_writers[0] = KillThenSend(pool._work_writers[0])
        with _thread_exceptions() as raised:
            try:
                futures = [server.submit(x) for x in xs]
                completed, crashed = {}, []
                for index, future in enumerate(futures):
                    try:
                        result = future.result(timeout=60.0)
                        completed[index] = (result.prediction, result.exit_timestep)
                    except ReplicaCrashError:
                        crashed.append(index)
            finally:
                server.shutdown(drain=True)
        assert raised == []
        assert hooked.broken == 1, "the send into the dead replica did not raise"
        assert not any(thread.is_alive() for thread in pool._forwarders)
        assert len(completed) + len(crashed) == len(xs)
        assert len(crashed) <= pool.window
        for index, decision in completed.items():
            assert decision == reference[index], f"request {index}"
        telemetry = server.telemetry
        assert telemetry.completed == len(completed)
        assert telemetry.shed == len(crashed)
        assert len(xs) == (
            telemetry.completed + telemetry.rejected + telemetry.shed
            + sum(telemetry.deadline_drops_by_class.values())
        )
        assert _arena_segments() | _ring_segments() <= before, "segment leaked"
