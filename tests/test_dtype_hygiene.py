"""Dtype hygiene: no float64 array anywhere in the stack's dataflow.

The policy (docs/NUMERICS.md) is weak-scalar float32: scalars adopt the
dtype of the array they combine with, so nothing downstream of a norm layer,
a LIF update or the cumulative ``1/t`` averaging may promote to float64.
These tests sweep every tensor a forward/backward pass produces (by walking
the recorded autograd graph), every parameter, buffer and membrane, and
every scratch buffer / register / stem row inside a compiled-plan executor —
and assert float32 throughout.

The seed-era ``REPRO_FLOAT64=1`` mode is gone; setting it must fail the
import loudly rather than silently compute float32 (asserted below).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.autograd import Tensor, no_grad
from repro.core import DynamicTimestepInference, EntropyExitPolicy
from repro.runtime import executor_for, run_cumulative_logits
from repro.serve import InferenceEngine, Request, Response
from repro.snn import SpikingNetwork, spiking_resnet, spiking_vgg
from repro.snn.neurons import LIFNeuron
from repro.training import build_loss
from repro.utils import seed_everything

IMAGE_SIZE = 8
TIMESTEPS = 3


def _build(kind: str) -> SpikingNetwork:
    seed_everything(17)
    if kind == "vgg-bn":
        return spiking_vgg("tiny", num_classes=5, input_size=IMAGE_SIZE,
                           default_timesteps=TIMESTEPS)
    if kind == "resnet-tdbn":
        return spiking_resnet("tiny", num_classes=5, input_size=IMAGE_SIZE,
                              default_timesteps=TIMESTEPS, norm="tdbn")
    raise KeyError(kind)


def _inputs(batch: int = 4) -> np.ndarray:
    rng = np.random.default_rng(3)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _walk_graph(roots) -> list:
    """Every Tensor reachable through the autograd graph from ``roots``."""
    seen: dict = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    return list(seen.values())


def _assert_float32(label: str, array: np.ndarray) -> None:
    assert array.dtype == np.float32, f"{label} is {array.dtype}, expected float32"


def _assert_model_state_float32(model: SpikingNetwork) -> None:
    for name, param in model.named_parameters():
        _assert_float32(f"parameter {name}", param.data)
        if param.grad is not None:
            _assert_float32(f"grad of {name}", param.grad)
    for name, buffer in model.named_buffers():
        _assert_float32(f"buffer {name}", buffer)
    for layer in model.lif_layers():
        if layer.membrane is not None:
            _assert_float32("LIF membrane", layer.membrane.data)


@pytest.mark.parametrize("kind", ["vgg-bn", "resnet-tdbn"])
def test_training_forward_backward_is_float32(kind):
    """Every op output and every gradient of a train-mode pass is float32."""
    model = _build(kind)
    model.train(True)
    x = _inputs()
    labels = np.array([0, 1, 2, 3], dtype=np.int64)
    output = model.forward(x, TIMESTEPS)
    loss = build_loss("per_timestep")(output, labels)
    loss.backward()

    for tensor in _walk_graph([loss, *output.per_timestep]):
        _assert_float32("graph tensor", tensor.data)
        if tensor.grad is not None:
            _assert_float32("graph tensor grad", tensor.grad)
    _assert_model_state_float32(model)


@pytest.mark.parametrize("kind", ["vgg-bn", "resnet-tdbn"])
def test_eval_forward_is_float32_on_both_paths(kind):
    """Frozen inference (folded conv+norm) stays float32, Tensor and plan."""
    model = _build(kind).eval()
    x = _inputs()
    with no_grad():
        output = model.forward(x, TIMESTEPS)
        for tensor in _walk_graph(output.per_timestep):
            _assert_float32("eval graph tensor", tensor.data)
        _assert_float32("cumulative logits", output.cumulative_numpy())
    _assert_model_state_float32(model)

    executor = executor_for(model, use_runtime=True)
    assert executor is not None
    logits = run_cumulative_logits(model, executor, x, TIMESTEPS)
    _assert_float32("fast-path cumulative logits", logits)


def test_executor_internals_are_float32(executor_state):
    """Scratch buffers, registers, membranes and stem rows stay float32
    (and the activations C-contiguous)."""
    model = _build("vgg-bn").eval()
    executor = executor_for(model, use_runtime=True)
    run_cumulative_logits(model, executor, _inputs(), TIMESTEPS)

    membranes, stem = executor_state(executor)
    for membrane in membranes:
        if membrane is not None:
            _assert_float32("executor membrane", membrane)
    for register in executor._registers:
        if register is not None:
            _assert_float32("executor register", register)
    scratches = executor._scratch + [executor._row_scratch]
    assert any(op_scratch.buffers for op_scratch in scratches)
    for op_scratch in scratches:
        for key, buffer in op_scratch.buffers.items():
            if buffer.dtype == np.bool_:  # fire/relu masks are boolean
                continue
            _assert_float32(f"scratch buffer {key!r}", buffer)
    for register, value in stem.items():
        _assert_float32(f"stem register r{register}", value)


def test_serve_engine_running_state_is_float32():
    model = _build("vgg-bn").eval()
    engine = InferenceEngine(model, EntropyExitPolicy(0.2), max_timesteps=TIMESTEPS)
    x = _inputs(3)
    for index in range(3):
        engine.admit(Request(request_id=index, inputs=x[index]), Response(), start_time=0.0)
    while not engine.idle:
        engine.step()
        if engine._running_sum is not None:
            _assert_float32("engine running sum", engine._running_sum)


def test_sequential_inference_is_float32():
    model = _build("vgg-bn").eval()
    engine = DynamicTimestepInference(model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS)
    result = engine.infer(_inputs())
    assert result.predictions.dtype == np.int64
    # The decision-side score vector is deliberately float64 (it is not part
    # of the network dataflow; see docs/NUMERICS.md).
    assert result.exit_timesteps.dtype == np.int64


# --------------------------------------------------------------------------- #
# The removed REPRO_FLOAT64 mode
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("value, ok", [(None, True), ("0", True), ("1", False)])
def test_removed_float64_mode_fails_the_import(value, ok):
    """A removed numerics mode must fail loudly, not compute something else."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FLOAT64"}
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if value is not None:
        env["REPRO_FLOAT64"] = value
    done = subprocess.run(
        [sys.executable, "-c", "import repro"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if ok:
        assert done.returncode == 0, done.stderr
    else:
        assert done.returncode != 0
        assert "RemovedNumericsModeError" in done.stderr
        assert "5a6e8495aec799ea966ed475b7d8f84024968229" in done.stderr


def test_float64_checkpoint_buffers_are_coerced_and_paths_agree():
    """A checkpoint whose buffers arrive as float64 must not smuggle float64
    into the dataflow: register/update_buffer coerce to the policy dtype, so
    the folded conv+norm cache (fed by running stats) stays float32 and the
    fast path stays bitwise-equal to the oracle."""
    model = _build("vgg-bn").eval()
    state = {
        key: value.astype(np.float64) for key, value in model.state_dict().items()
    }
    model.load_state_dict(state)
    for name, buffer in model.named_buffers():
        _assert_float32(f"loaded buffer {name}", buffer)
    for name, param in model.named_parameters():
        _assert_float32(f"loaded parameter {name}", param.data)

    x = _inputs()
    with no_grad():
        reference = model.forward(x, TIMESTEPS).cumulative_numpy()
    _assert_float32("post-load cumulative logits", reference)
    fast = run_cumulative_logits(model, executor_for(model, use_runtime=True), x, TIMESTEPS)
    assert np.array_equal(reference, fast)


def test_lif_membrane_stays_float32_across_timesteps():
    """The membrane trajectory itself (the paper's Eq. 2 state) is float32."""
    layer = LIFNeuron(tau=0.5, v_threshold=1.0)
    current = Tensor(np.full((2, 3), 0.6, dtype=np.float32))
    for _ in range(4):
        spikes = layer(current)
        assert spikes.dtype == np.float32
        assert layer.membrane.dtype == np.float32
