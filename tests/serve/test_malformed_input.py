"""A malformed request costs only itself — also as the FIRST request.

Until an engine has served a request it has no pinned sample shape to compare
against, so a wrong-rank / wrong-channel / wrong-spatial array submitted to a
fresh ``Server`` used to reach ``extend_rows`` or the first ``step``, raise a
kernel error outside the admission guard and kill the worker (every later
submit: ``ServerClosedError``).  On the compiled-plan path the engine now
proves the first round's encoded frame servable with
``planverify.verify_plan(plan, input_shape=...)`` inside the admission
``try``, so the round is a typed rejection and its neighbours are served
bit-exact.  The Tensor oracle (``use_runtime=False``) borrows the model's
plan for the same proof, and a replica relays its engine's rejection with the
text thread mode produces.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    AdmissionRejectedError,
    InferenceEngine,
    Request,
    Response,
    Server,
    SpanTracker,
)
from repro.snn import EventFrameEncoder, spiking_vgg
from repro.utils import seed_everything

TIMESTEPS = 4
IMAGE_SIZE = 10
MALFORMED = {
    "rank": (IMAGE_SIZE, IMAGE_SIZE),
    "channels": (4, IMAGE_SIZE, IMAGE_SIZE),
    "spatial": (3, IMAGE_SIZE + 2, IMAGE_SIZE + 2),
}


def _model(encoder=None):
    seed_everything(47)
    model = spiking_vgg(
        "tiny", num_classes=6, input_size=IMAGE_SIZE, default_timesteps=TIMESTEPS,
        encoder=encoder,
    ).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(batch=12):
    rng = np.random.default_rng(3)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _oracle(model, xs, threshold):
    """(prediction, exit timestep, score) per sample from the Tensor oracle,
    one request at a time."""
    engine = InferenceEngine(
        model, EntropyExitPolicy(threshold), max_timesteps=TIMESTEPS, use_runtime=False,
    )
    decisions = []
    for index, inputs in enumerate(xs):
        engine.admit(Request(request_id=index, inputs=inputs), Response(), 0.0)
        while not engine.idle:
            for sample in engine.step():
                decisions.append((sample.prediction, sample.exit_timestep, sample.score))
    return decisions


def _decision(result):
    return (result.prediction, result.exit_timestep, result.score)


class GatedPolicy(EntropyExitPolicy):
    """Holds the worker inside its first step until the test lets go, so the
    next admission round provably finds a request in flight."""

    def __init__(self, threshold):
        super().__init__(threshold=threshold)
        self.entered = threading.Event()
        self.release = threading.Event()

    def score(self, cumulative_logits):
        self.entered.set()
        assert self.release.wait(30.0)
        return super().score(cumulative_logits)


def _first_request_rejection(shape, **server_kwargs):
    """A malformed FIRST request on an idle server, then the well-formed
    stream one request at a time (served alone, like the oracle's rows, so
    scores are bitwise too); returns the rejection it raised."""
    model, xs = _model(), _inputs()
    server = Server(
        model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS, batch_width=2,
        **server_kwargs,
    ).start()
    try:
        first = server.submit(np.zeros(shape, dtype=np.float32))
        with pytest.raises(AdmissionRejectedError) as rejection:
            first.result(timeout=30.0)
        assert server.worker_error is None
        assert server.telemetry.snapshot()["rejected"] == 1
        served = [
            _decision(server.submit(inputs).result(timeout=30.0)) for inputs in xs
        ]
    finally:
        server.shutdown(drain=True)
    assert served == _oracle(model, xs, 0.5)
    assert server.worker_error is None
    assert server.telemetry.completed == len(xs)
    assert server.telemetry.rejected == 1 and server.telemetry.shed == 0
    return rejection.value


@pytest.mark.parametrize("shape", MALFORMED.values(), ids=MALFORMED.keys())
class TestMalformedRequestOnOneWorker:
    def test_first_request_on_an_idle_server(self, shape):
        spans = SpanTracker()
        _first_request_rejection(shape, spans=spans)
        assert spans.open_spans() == []
        failed = [span for span in spans.spans() if "error" in span.tags]
        assert [span.tags["error"] for span in failed] == ["AdmissionRejectedError"]

    def test_with_a_neighbour_in_flight(self, shape):
        model, xs = _model(), _inputs()
        oracle = _oracle(model, xs, 0.5)
        # A neighbour the oracle keeps past its first step, so it is still
        # in its slot when the malformed round is admitted.
        slow = next(i for i, (_, exit_t, _) in enumerate(oracle) if exit_t > 1)
        policy = GatedPolicy(0.5)
        server = Server(
            model, policy, max_timesteps=TIMESTEPS, batch_width=2,
        ).start()
        try:
            neighbour = server.submit(xs[slow])
            assert policy.entered.wait(30.0)  # worker is inside step 1
            bad = server.submit(np.zeros(shape, dtype=np.float32))
            policy.release.set()
            with pytest.raises(AdmissionRejectedError):
                bad.result(timeout=30.0)
            assert _decision(neighbour.result(timeout=30.0))[:2] == oracle[slow][:2]
            after = [server.submit(inputs).result(timeout=30.0) for inputs in xs]
        finally:
            policy.release.set()
            server.shutdown(drain=True)
        assert [_decision(r) for r in after] == oracle
        assert server.worker_error is None
        assert server.telemetry.rejected == 1
        assert server.telemetry.completed == len(xs) + 1


@pytest.mark.parametrize("composition", [{"use_runtime": False}, {"num_replicas": 1}],
                         ids=["tensor-oracle", "one-replica"])
@pytest.mark.parametrize("shape", MALFORMED.values(), ids=MALFORMED.keys())
def test_first_request_on_the_other_compositions(shape, composition):
    """The rows the thread-mode fast path left open: the Tensor oracle proves
    the shape on the model's plan, and a replica relays its engine's
    rejection under thread mode's text (not a type name inside the type)."""
    error = _first_request_rejection(shape, **composition)
    assert str(error) == str(_first_request_rejection(shape))


@pytest.mark.parametrize("encoder,shape", [
    (None, MALFORMED["rank"]),
    (None, MALFORMED["channels"]),
    (None, MALFORMED["spatial"]),
    (EventFrameEncoder, (3, IMAGE_SIZE, IMAGE_SIZE)),  # a frame, not a clip
    (EventFrameEncoder, (TIMESTEPS, 4, IMAGE_SIZE, IMAGE_SIZE)),
    (EventFrameEncoder, (TIMESTEPS, 3, IMAGE_SIZE + 2, IMAGE_SIZE + 2)),
], ids=["direct-rank", "direct-channels", "direct-spatial",
        "event-rank", "event-channels", "event-spatial"])
def test_unpinned_engine_rejects_before_any_state_exists(encoder, shape):
    """The engine-level contract, for direct users and for both fast-path
    encoders: typed rejection, no slot, no pin, the future left to the
    caller (``fail_round`` fails it) — then it serves."""
    engine = InferenceEngine(
        _model(encoder and encoder()), EntropyExitPolicy(0.5),
        max_timesteps=TIMESTEPS, use_runtime=True,
    )
    response = Response()
    with pytest.raises(AdmissionRejectedError):
        engine.admit(Request(request_id=0, inputs=np.zeros(shape, dtype=np.float32)),
                     response, 0.0)
    assert not response.done()
    assert engine.idle and engine._sample_shape is None
    good = _inputs(1)[0] if encoder is None else np.stack([_inputs(1)[0]] * TIMESTEPS)
    engine.admit(Request(request_id=1, inputs=good), Response(), 0.0)
    while not engine.idle:
        engine.step()
    assert engine._sample_shape == good.shape
