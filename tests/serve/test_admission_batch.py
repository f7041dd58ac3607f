"""Batched admission: bitwise equivalence and flat per-request cost.

``ContinuousBatcher._fill_slots`` drains a whole round of queued requests and
admits them through :meth:`InferenceEngine.admit_batch` in one go: one state
extension, one batched stem GEMM (direct encoding).  The contract is twofold:

1. *Bitwise equivalence* — admitting a burst of B requests at once produces
   exactly the per-sample trajectories of admitting them one at a time (and
   of the define-by-run Tensor oracle), for any burst size, splice point and
   deterministic encoder.  This is per-sample batch invariance at the
   admission boundary.
2. *Flat cost* — the number of state-surgery operations (executor row
   extensions, admission-time encoder invocations) per fill round is O(1) in
   the burst size, closing the seed's O(n^2) growth pattern (one
   ``np.concatenate`` of every membrane and of the running sum per request).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.runtime import PlanExecutor
from repro.serve import (
    AdmissionQueue,
    AdmissionRejectedError,
    ContinuousBatcher,
    InferenceEngine,
    Request,
    Response,
    Telemetry,
)
from repro.serve.batcher import fail_round
from repro.snn import SpikingNetwork, spiking_vgg
from repro.snn.encoding import DirectEncoder, EventFrameEncoder
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _build(encoder_name: str, seed: int = 47) -> SpikingNetwork:
    seed_everything(seed)
    encoder = EventFrameEncoder() if encoder_name == "event" else None
    model = spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS,
        **({"encoder": encoder} if encoder else {}),
    )
    model.eval()
    # Sharpen the head so exit timesteps spread out (mixed-exit coverage).
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(encoder_name: str, batch: int, seed: int = 31) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if encoder_name == "event":
        return rng.random(
            (batch, TIMESTEPS + 1, 3, IMAGE_SIZE, IMAGE_SIZE)
        ).astype(np.float32)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _drain(engine: InferenceEngine, outcomes: dict) -> None:
    for sample in engine.step():
        outcomes[sample.request.request_id] = (
            sample.prediction, sample.exit_timestep, sample.score,
        )


def _drive(engine: InferenceEngine, inputs: np.ndarray, chunks, batched: bool):
    """Admit ``chunks[i]`` requests before step i (burst or one-by-one)."""
    stream = [Request(request_id=i, inputs=inputs[i]) for i in range(inputs.shape[0])]
    outcomes: dict = {}
    cursor = 0
    for chunk in chunks:
        take = stream[cursor:cursor + chunk]
        cursor += len(take)
        if batched:
            engine.admit_batch([(request, Response(), 0.0) for request in take])
        else:
            for request in take:
                engine.admit(request, Response(), start_time=0.0)
        _drain(engine, outcomes)
    while not engine.idle or cursor < len(stream):
        if cursor < len(stream):
            engine.admit(stream[cursor], Response(), start_time=0.0)
            cursor += 1
        _drain(engine, outcomes)
    assert len(outcomes) == len(stream)
    return outcomes


class TestBatchedAdmissionEquivalence:
    @pytest.mark.parametrize("encoder_name", ["direct", "event"])
    @pytest.mark.parametrize("burst", [1, 2, 8])
    def test_burst_bitwise_matches_sequential_and_oracle(self, encoder_name, burst):
        """A burst admission round is bitwise-invisible to every sample."""
        inputs = _inputs(encoder_name, batch=12)
        # Mid-horizon splices: a leading group, then bursts landing while
        # earlier slots are partway through their horizons.
        chunks = [max(1, burst // 2), burst, burst]

        reference = None
        for use_runtime, batched in ((True, True), (True, False), (False, True)):
            engine = InferenceEngine(
                _build(encoder_name), EntropyExitPolicy(0.5),
                max_timesteps=TIMESTEPS, use_runtime=use_runtime,
            )
            outcome = _drive(engine, inputs, chunks, batched=batched)
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference

    def test_empty_batch_is_a_no_op(self):
        engine = InferenceEngine(
            _build("direct"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS
        )
        engine.admit_batch([])
        assert engine.idle
        assert engine.step() == []

    def test_batcher_fill_round_matches_per_request_engine(self):
        """The batcher's drained fill round equals per-request admission."""
        inputs = _inputs("direct", batch=10)
        queue = AdmissionQueue(capacity=16)
        responses = []
        for index in range(inputs.shape[0]):
            response = Response()
            queue.put(Request(request_id=index, inputs=inputs[index]), response)
            responses.append(response)
        queue.close()
        engine = InferenceEngine(
            _build("direct"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS
        )
        batcher = ContinuousBatcher(engine, queue, batch_width=4)
        batcher.run_until_drained()
        served = {
            index: (response.result(1.0).prediction, response.result(1.0).exit_timestep)
            for index, response in enumerate(responses)
        }

        solo = InferenceEngine(
            _build("direct"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS
        )
        expected = {}
        for index in range(inputs.shape[0]):
            solo.admit(Request(request_id=index, inputs=inputs[index]), Response(), 0.0)
            while not solo.idle:
                _drain(solo, expected)
        assert served == {
            index: value[:2] for index, value in expected.items()
        }


class TestBatcherSurvivesBadRequest:
    def test_malformed_request_costs_its_round_not_the_batcher(self):
        """A shape-mismatched request fails its own admission round; the
        batcher, its in-flight neighbours and later traffic keep serving."""
        inputs = _inputs("direct", batch=6)
        queue = AdmissionQueue(capacity=16)
        engine = InferenceEngine(
            _build("direct"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS
        )
        batcher = ContinuousBatcher(engine, queue, batch_width=8)

        live = [Response() for _ in range(3)]
        for index, response in enumerate(live):
            queue.put(Request(request_id=index, inputs=inputs[index]), response)
        batcher.run_once()  # the live batch is mid-horizon now
        survivors_before = engine.active_count

        bad = Response()
        co_drained = Response()
        queue.put(Request(request_id=90, inputs=np.zeros((3, 3), np.float32)), bad)
        queue.put(Request(request_id=91, inputs=inputs[3]), co_drained)
        batcher.run_once()

        assert batcher.rejected_rounds == 1
        # The whole drained round fails together (documented semantics)…
        for response in (bad, co_drained):
            with pytest.raises(AdmissionRejectedError):
                response.result(timeout=1.0)
        # …while the live batch was untouched and keeps serving, as does
        # fresh well-formed traffic afterwards.
        assert engine.active_count == survivors_before
        late = Response()
        queue.put(Request(request_id=92, inputs=inputs[4]), late)
        queue.close()
        batcher.run_until_drained()
        for response in live:
            assert response.result(timeout=1.0).exit_timestep >= 1
        assert late.result(timeout=1.0).exit_timestep >= 1


class _CountingDirectEncoder(DirectEncoder):
    """DirectEncoder that counts invocations (admission-time stem encodes)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x, timestep):
        self.calls += 1
        return super().__call__(x, timestep)


class TestAdmissionCostRegression:
    @pytest.mark.parametrize("burst", [1, 2, 8, 32])
    def test_state_surgery_per_fill_round_is_constant(self, burst, monkeypatch):
        """Admission cost per request is flat: a burst of B requests costs ONE
        executor row extension and ONE encoder invocation, not B of each."""
        extension_rounds = []
        original = PlanExecutor.extend_rows

        def counting_extend(self, count, frames=None, recycle=None):
            extension_rounds.append(count)
            return original(self, count, frames=frames, recycle=recycle)

        monkeypatch.setattr(PlanExecutor, "extend_rows", counting_extend)

        model = _build("direct")
        encoder = _CountingDirectEncoder()
        model.encoder = encoder
        engine = InferenceEngine(model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS,
                                 use_runtime=True)
        assert engine.fast_path

        queue = AdmissionQueue(capacity=max(burst, 1))
        inputs = _inputs("direct", batch=burst, seed=5)
        for index in range(burst):
            queue.put(Request(request_id=index, inputs=inputs[index]), Response())
        batcher = ContinuousBatcher(engine, queue, batch_width=burst)

        # Prime: one full session so running sums / membranes / stem rows
        # exist — the worst case for per-admission concatenation growth.
        batcher.run_once()
        while not engine.idle:
            engine.step()
        encoder_calls_before = encoder.calls
        extension_rounds.clear()

        # A fresh burst mid-session: one fill round admits all of it.
        for index in range(burst):
            queue.put(
                Request(request_id=burst + index, inputs=inputs[index]), Response()
            )
        batcher.run_once()

        assert extension_rounds == [burst]
        # run_once = one admission-time stem encode for the whole burst; the
        # step that follows reads the cached stem rows, not the inputs.
        assert encoder.calls - encoder_calls_before == 1


class TestAlignedStemPrecondition:
    def test_time_varying_encoder_rejected_by_aligned_cache(self):
        """The aligned stem cache must refuse non-direct encoders instead of
        silently caching a t=0 frame (the old latent bug)."""
        model = _build("direct")
        engine = InferenceEngine(model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
                                 use_runtime=True)
        assert engine.fast_path and engine._executor.stem_enabled
        # Simulate the misuse: the encoder changes under an engine whose
        # executor was built for direct encoding.
        model.encoder = EventFrameEncoder()
        clip = _inputs("event", batch=1)[0]
        with pytest.raises(RuntimeError, match="direct encoding"):
            engine.admit(Request(request_id=0, inputs=clip), Response(), 0.0)
        # The guard fires before any state mutation: no orphan slots, and the
        # engine keeps serving once the precondition holds again.
        assert engine.idle and engine.active_count == 0
        model.encoder = DirectEncoder()
        engine.admit(
            Request(request_id=1, inputs=_inputs("direct", batch=1)[0]),
            Response(), 0.0,
        )
        while not engine.idle:
            engine.step()

    def test_failed_admission_round_resolves_every_future(self):
        """A raise during admission validation rejects the whole drained
        round and leaves its futures to the caller; the batcher's
        ``fail_round`` then fails every one of them — those requests already
        left the queue, so leaving them pending would strand their clients
        until timeout."""
        engine = InferenceEngine(
            _build("direct"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            use_runtime=True,
        )
        good = Response()
        bad = Response()
        admissions = [
            (Request(request_id=0, inputs=_inputs("direct", batch=1)[0]), good, 0.0),
            # Malformed shape: np.stack over the round raises.
            (Request(request_id=1, inputs=np.zeros((3, 3), dtype=np.float32)), bad, 0.0),
        ]
        with pytest.raises(AdmissionRejectedError) as rejection:
            engine.admit_batch(admissions)
        assert engine.idle and engine.active_count == 0  # no orphan state
        assert not good.done() and not bad.done()  # the engine resolves nothing
        telemetry = Telemetry()
        fail_round([admission[:2] for admission in admissions], rejection.value,
                   "rejected", lambda: 0.0, telemetry)
        assert telemetry.rejected == 2
        for response in (good, bad):
            assert response.done()
            with pytest.raises(AdmissionRejectedError):
                response.result(timeout=0.1)

    @pytest.mark.parametrize("encoder_name,use_runtime", [
        ("event", True),   # keyed-memo fast path: no admission-time stack
        ("direct", False), # Tensor oracle: no admission-time stack either
    ])
    def test_shape_mismatch_rejected_at_admission_on_every_path(
        self, encoder_name, use_runtime
    ):
        """A malformed request must fail at ITS OWN admission round on every
        execution path — not crash a later step() and take the live batch
        (admitted neighbours included) down with it."""
        engine = InferenceEngine(
            _build(encoder_name), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            use_runtime=use_runtime,
        )
        good = _inputs(encoder_name, batch=2)
        engine.admit(Request(request_id=0, inputs=good[0]), Response(), 0.0)
        engine.step()  # neighbour is mid-horizon

        bad_response = Response()
        with pytest.raises(AdmissionRejectedError, match="does not match the served"):
            engine.admit(
                Request(request_id=1, inputs=np.zeros((3, 3), dtype=np.float32)),
                bad_response, 0.0,
            )
        # Its client hears about it from the caller's fail_round, not here.
        assert not bad_response.done()
        # The neighbour is untouched and finishes normally.
        assert engine.active_count == 1
        outcomes: dict = {}
        while not engine.idle:
            _drain(engine, outcomes)
        assert 0 in outcomes and 1 not in outcomes

    @pytest.mark.parametrize("use_runtime", [True, False])
    def test_shape_mismatch_rejected_on_an_idle_engine(self, use_runtime):
        """An IDLE engine must reject a wrong-shaped round too, not adopt
        its shape: the executor still holds residual stem/scratch arrays of
        the real shape, so an escaped mismatch would blow up inside
        extend_rows/step — outside the typed-rejection guard — and take the
        worker (or replica process) down."""
        engine = InferenceEngine(
            _build("direct"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            use_runtime=use_runtime,
        )
        good = _inputs("direct", batch=2)
        engine.admit(Request(request_id=0, inputs=good[0]), Response(), 0.0)
        outcomes: dict = {}
        while not engine.idle:
            _drain(engine, outcomes)
        assert 0 in outcomes  # engine is now idle, shape pinned

        bad_response = Response()
        with pytest.raises(AdmissionRejectedError, match="does not match the served"):
            engine.admit(
                Request(request_id=1, inputs=np.zeros((3, 5, 5), dtype=np.float32)),
                bad_response, 0.0,
            )
        assert not bad_response.done()  # the caller's to fail
        # The engine survives and keeps serving correctly shaped traffic.
        engine.admit(Request(request_id=2, inputs=good[1]), Response(), 0.0)
        while not engine.idle:
            _drain(engine, outcomes)
        assert 2 in outcomes
        # fail_active wipes the residual arrays the pin protects, so the
        # pin resets with them: a recovered engine is not chained to a
        # shape adopted before any request ever met the model.
        assert engine.fail_active() == []
        assert engine._sample_shape is None

    def test_event_engine_uses_keyed_memo_not_aligned_cache(self):
        engine = InferenceEngine(
            _build("event"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            use_runtime=True,
        )
        assert engine.fast_path
        assert not engine._executor.stem_enabled
        assert engine._executor.memo_enabled


class _CountingLock:
    """A lock that counts how often it is taken (``with`` or ``acquire``)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        acquired = self._lock.acquire(*args, **kwargs)
        self.acquisitions += bool(acquired)
        return acquired

    def release(self):
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


class TestFillRoundEnvelope:
    @pytest.mark.parametrize("burst", [1, 5, 8])
    def test_fill_round_takes_the_queue_lock_once(self, burst):
        """A fill round drains everything it has room for in ONE critical
        section (it used to take the queue lock once per request, plus once
        more to discover the queue had run dry)."""
        queue = AdmissionQueue(capacity=16)
        lock = _CountingLock()
        queue._lock = lock
        queue._not_full = threading.Condition(lock)
        queue._not_empty = threading.Condition(lock)
        inputs = _inputs("direct", batch=burst)
        for index in range(burst):
            queue.put(Request(request_id=index, inputs=inputs[index]), Response())
        engine = InferenceEngine(
            _build("direct"), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS
        )
        batcher = ContinuousBatcher(engine, queue, batch_width=8)
        before = lock.acquisitions
        assert batcher._fill_slots() == burst
        assert lock.acquisitions - before == 1
        assert engine.active_count == burst

    @pytest.mark.parametrize("use_runtime", [True, False], ids=["plan", "oracle"])
    @pytest.mark.parametrize("encoder_name", ["direct", "event"])
    def test_serve_step_reads_no_environment(self, encoder_name, use_runtime, monkeypatch):
        """Every environment switch is resolved when an engine is built:
        admitting and stepping must not look at ``os.environ`` at all, on
        the compiled plan or on the Tensor oracle."""
        engine = InferenceEngine(
            _build(encoder_name), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            use_runtime=use_runtime,
        )
        assert engine.fast_path is use_runtime
        inputs = _inputs(encoder_name, batch=8)
        stream = [
            (Request(request_id=index, inputs=inputs[index]), Response(), 0.0)
            for index in range(8)
        ]
        engine.admit_batch(stream[:5])
        engine.step()

        reads = []
        environ_type = type(os.environ)
        original = environ_type.__getitem__

        def counting(self, key):
            reads.append(key)
            return original(self, key)

        # Mapping.get() goes through __getitem__, so this sees both spellings.
        monkeypatch.setattr(environ_type, "__getitem__", counting)
        os.environ.get("HOME")
        assert reads == ["HOME"]  # the counter works
        reads.clear()
        engine.admit_batch(stream[5:])
        while not engine.idle:
            engine.step()
        assert reads == []
