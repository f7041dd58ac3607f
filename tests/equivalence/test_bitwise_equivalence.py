"""Randomized bitwise-equivalence sweeps: compiled-plan runtime vs Tensor oracle.

The fast path's contract is not "numerically close" — it is *bitwise
identical*: same logits, same exit timesteps, same predictions, same policy
scores, same spike statistics.  These tests sweep architectures (VGG /
ResNet, bn / tdbn / no norm, residual projections, hidden-LIF classifiers,
pooling variants, a strided padding-0 stem on a non-square frame — every
op class the lowerer emits, run channels-last), encoders (direct and
event-frame), batch sizes and exit policies, always building the model
twice from the same seed and running one copy through the runtime and one
through the define-by-run oracle.

Nothing here needs a trained model: equivalence must hold for any weights,
so random initialization gives the cheapest possible coverage.  Classifier
weights are deliberately sharpened (scaled up) so the entropy/confidence
policies produce *mixed* exit timesteps — that is what exercises batch
compaction, state surgery and the stem cache under row removal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.core import DynamicTimestepInference
from repro.core.policies import (
    ConfidenceExitPolicy,
    EntropyExitPolicy,
    MarginExitPolicy,
    StaticExitPolicy,
)
from repro.nn import AdaptiveAvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, Sequential
from repro.nn.layers import Dropout, ReLU
from repro.runtime import executor_for, run_cumulative_logits
from repro.serve import InferenceEngine, Request, Response
from repro.snn import SpikingNetwork, spiking_resnet, spiking_vgg
from repro.snn.encoding import EventFrameEncoder, PoissonEncoder
from repro.snn.neurons import LIFNeuron
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _sharpen(model: SpikingNetwork, factor: float = 25.0) -> SpikingNetwork:
    """Scale the classifier head so softmax confidence varies across samples.

    Untrained logits are nearly uniform (entropy ~ 1 for every sample), which
    would make every exit policy fire for all samples at the same timestep.
    Sharpening produces a per-sample spread — and therefore *mixed* exit
    timesteps, the case that exercises compaction.
    """
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(factor)
    return model


def _custom_stack() -> SpikingNetwork:
    """Coverage for the ops the standard builders never combine: MaxPool,
    AdaptiveAvgPool, ReLU, eval-mode Dropout and a hidden-LIF classifier."""
    features = Sequential(
        Conv2d(3, 12, 3, stride=1, padding=1),
        LIFNeuron(tau=0.7, v_threshold=0.8),
        MaxPool2d(2),
        Conv2d(12, 16, 3, stride=1, padding=1),
        ReLU(),
        LIFNeuron(tau=1.0, v_threshold=1.1, reset="soft"),
        AdaptiveAvgPool2d(1),
    )
    classifier = Sequential(
        Flatten(),
        Linear(16, 24),
        Dropout(0.5),
        LIFNeuron(tau=0.5),
        Linear(24, NUM_CLASSES),
    )
    return SpikingNetwork(features, classifier, default_timesteps=TIMESTEPS)


def _strided_stack() -> SpikingNetwork:
    """Layout coverage on a non-square frame: a stride-2 padding-0 stem conv
    (the channels-first frame staged channels-last), an adaptive pool
    reading a non-square map, a padding-0 conv gathering a contiguous
    register in place, and a non-square flatten."""
    features = Sequential(
        Conv2d(3, 8, 3, stride=2, padding=0),   # (3, 10, 14) -> (8, 4, 6)
        LIFNeuron(tau=0.6, v_threshold=0.4),
        AdaptiveAvgPool2d(2),                   # -> (8, 2, 3)
        Conv2d(8, 12, 2, stride=1, padding=0),  # -> (12, 1, 2)
        LIFNeuron(v_threshold=0.2),
    )
    head = Linear(24, NUM_CLASSES)
    for parameter in head.parameters():
        # Softened so that, sharpened, exits still spread over timesteps.
        parameter.data = parameter.data * np.float32(0.1)
    classifier = Sequential(Flatten(), head)
    return SpikingNetwork(features, classifier, default_timesteps=TIMESTEPS)


MODEL_BUILDERS = {
    "vgg-bn": lambda: spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE, default_timesteps=TIMESTEPS
    ),
    "vgg-tdbn": lambda: spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, norm="tdbn",
    ),
    "vgg-nonorm": lambda: spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, norm="none",
    ),
    "resnet-bn": lambda: spiking_resnet(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE, default_timesteps=TIMESTEPS
    ),
    "resnet-tdbn": lambda: spiking_resnet(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, norm="tdbn",
    ),
    "vgg-event": lambda: spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, encoder=EventFrameEncoder(),
    ),
    "custom-stack": _custom_stack,
    "strided-stack": _strided_stack,
}
# Frame shape (C, H, W) where a builder does not take the square default.
INPUT_SHAPES = {"strided-stack": (3, 10, 14)}

# The Poisson encoder draws from its own seeded RNG, so two *fresh* models
# built from the same seed produce identical spike trains — but a second
# sweep through the same encoder object would not.  It therefore joins only
# the tests that rebuild the model per execution path (stem caching is
# disabled for it; the full batch is re-encoded every timestep).
STATEFUL_ENCODER_BUILDERS = {
    "vgg-poisson": lambda: spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, encoder=PoissonEncoder(seed=99),
    ),
}
MODEL_BUILDERS.update(STATEFUL_ENCODER_BUILDERS)

POLICIES = {
    "entropy-tight": lambda: EntropyExitPolicy(0.35),
    "entropy-loose": lambda: EntropyExitPolicy(0.9),
    "confidence": lambda: ConfidenceExitPolicy(0.6),
    "margin": lambda: MarginExitPolicy(0.3),
    "static": lambda: StaticExitPolicy(),
}


def _build(name: str, seed: int) -> SpikingNetwork:
    """Deterministic fresh model: same seed → bitwise-identical weights."""
    seed_everything(seed)
    model = MODEL_BUILDERS[name]()
    model.eval()
    return _sharpen(model)


def _inputs(name: str, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if name == "vgg-event":
        return rng.random((batch, TIMESTEPS + 1, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)
    shape = INPUT_SHAPES.get(name, (3, IMAGE_SIZE, IMAGE_SIZE))
    return rng.random((batch, *shape)).astype(np.float32)


# --------------------------------------------------------------------------- #
# 1. Accumulated logits: runtime horizon sweep vs Tensor forward
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name", sorted(set(MODEL_BUILDERS) - set(STATEFUL_ENCODER_BUILDERS))
)
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_cumulative_logits_bitwise(name, batch):
    model = _build(name, seed=11)
    x = _inputs(name, batch, seed=batch)
    with no_grad():
        reference = model.forward(x, TIMESTEPS).cumulative_numpy()
    executor = executor_for(model, use_runtime=True)
    assert executor is not None, f"{name} failed to lower into the fast path"
    fast = run_cumulative_logits(model, executor, x, TIMESTEPS)
    assert fast.dtype == reference.dtype
    assert np.array_equal(reference, fast)
    # A second pass through the same executor reuses every scratch buffer and
    # the stem cache; reuse must not perturb a single bit.
    again = run_cumulative_logits(model, executor, x, TIMESTEPS)
    assert np.array_equal(reference, again)


# --------------------------------------------------------------------------- #
# 2. Sequential early exit: infer() on both paths
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_infer_bitwise(name, policy_name):
    x = _inputs(name, batch=9, seed=7)

    results = {}
    statistics = {}
    for use_runtime in (True, False):
        model = _build(name, seed=23)
        model.reset_spike_statistics()
        engine = DynamicTimestepInference(
            model, POLICIES[policy_name](), max_timesteps=TIMESTEPS, use_runtime=use_runtime
        )
        results[use_runtime] = engine.infer(x)
        statistics[use_runtime] = model.spike_statistics()

    fast, reference = results[True], results[False]
    assert np.array_equal(fast.exit_timesteps, reference.exit_timesteps)
    assert np.array_equal(fast.predictions, reference.predictions)
    assert np.array_equal(fast.scores, reference.scores)
    # The runtime updates the per-layer spike counters with the exact same
    # float accumulation order, so the IMC activity model sees no difference.
    assert statistics[True] == statistics[False]


def test_sweep_produces_mixed_exits():
    """Guard the sweep's coverage: these configs must compact mid-run.

    If sharpening ever stops producing a spread of exit timesteps, the
    compaction/stem-surgery branches above would silently stop being tested.
    """
    for name in ("vgg-bn", "strided-stack"):
        model = _build(name, seed=23)
        engine = DynamicTimestepInference(
            model, EntropyExitPolicy(0.35), max_timesteps=TIMESTEPS
        )
        result = engine.infer(_inputs(name, batch=9, seed=7))
        assert len(np.unique(result.exit_timesteps)) >= 2, name


# --------------------------------------------------------------------------- #
# 3. Serving engine: mid-horizon admissions + slot compaction on both paths
# --------------------------------------------------------------------------- #
def _drive_engine(engine: InferenceEngine, stream, admit_chunks):
    """Admit requests per the schedule, stepping between chunks; return
    {request_id: (prediction, exit_timestep, score)} after full drain."""
    outcomes = {}
    queue = list(stream)
    for chunk in admit_chunks:
        for _ in range(chunk):
            if queue:
                request = queue.pop(0)
                engine.admit(request, Response(), start_time=0.0)
        for sample in engine.step():
            outcomes[sample.request.request_id] = (
                sample.prediction, sample.exit_timestep, sample.score,
            )
    while not engine.idle or queue:
        if queue:
            request = queue.pop(0)
            engine.admit(request, Response(), start_time=0.0)
        for sample in engine.step():
            outcomes[sample.request.request_id] = (
                sample.prediction, sample.exit_timestep, sample.score,
            )
    return outcomes


@pytest.mark.parametrize(
    "name", ["vgg-bn", "resnet-bn", "vgg-event", "custom-stack", "strided-stack"])
def test_engine_mid_horizon_equivalence(name):
    inputs = _inputs(name, batch=12, seed=31)
    # Mid-horizon splicing: 5 requests up front, then 2 per step, then a
    # trailing drain — freed slots are refilled while others are mid-stream.
    admit_chunks = [5, 2, 2, 2, 1]

    outcomes = {}
    for use_runtime in (True, False):
        model = _build(name, seed=47)
        engine = InferenceEngine(
            model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS, use_runtime=use_runtime
        )
        assert engine.fast_path is use_runtime
        stream = [
            Request(request_id=i, inputs=inputs[i]) for i in range(inputs.shape[0])
        ]
        outcomes[use_runtime] = _drive_engine(engine, stream, admit_chunks)

    assert outcomes[True].keys() == outcomes[False].keys()
    assert len(outcomes[True]) == inputs.shape[0]
    for request_id in outcomes[True]:
        assert outcomes[True][request_id] == outcomes[False][request_id], (
            f"request {request_id} diverged between fast path and oracle"
        )


# --------------------------------------------------------------------------- #
# 4. Randomized fuzz: seeds x thresholds, single architecture, full pipeline
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [101, 202, 303, 404])
def test_randomized_threshold_fuzz(seed):
    rng = np.random.default_rng(seed)
    threshold = float(rng.uniform(0.05, 0.95))
    batch = int(rng.integers(1, 11))
    x = rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)

    results = {}
    for use_runtime in (True, False):
        model = _build("vgg-bn", seed=seed)
        engine = DynamicTimestepInference(
            model, EntropyExitPolicy(threshold), max_timesteps=TIMESTEPS,
            use_runtime=use_runtime,
        )
        results[use_runtime] = engine.infer(x)
    assert np.array_equal(results[True].exit_timesteps, results[False].exit_timesteps)
    assert np.array_equal(results[True].predictions, results[False].predictions)
    assert np.array_equal(results[True].scores, results[False].scores)
