"""Bind-once/replay contracts of the compiled plan (docs/ARCHITECTURE.md).

A plan op resolves its buffers, dtypes and views once per input shape and
replays them; these tests pin what that must not change and what it buys:

* a scripted walk through batch widths (compaction and admission, the
  serving engine's moves) stays bitwise on the Tensor oracle — logits,
  every membrane, the aligned stem rows, the LIF counters — on the VGG and
  ResNet families, and a replaced weight or running statistic is seen on
  the very next step (the executor's channels-last state is compared
  through its channels-first view, and must be C-contiguous);
* a step whose statistics nobody reads performs no reduction;
* a steady-state step allocates its logits and nothing else, and the
  bindings an op keeps are capped however many widths a session walks.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.nn import Conv2d
from repro.runtime import executor_for
from repro.runtime import kernels
from repro.runtime.plan import LIFOp
from repro.snn import spiking_resnet, spiking_vgg
from repro.snn.architectures import ConvSpikeBlock, _conv_norm_forward
from repro.utils import seed_everything

IMAGE_SIZE = 10
NUM_CLASSES = 6

BUILDERS = {
    "vgg-bn": lambda: spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE, norm="bn"),
    "vgg-tdbn": lambda: spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE, norm="tdbn"),
    # AddOp, a strided 1x1 projection shortcut (padding 0) and the 5x5
    # global average pool (the im2col + mean form).
    "resnet-bn": lambda: spiking_resnet(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE, norm="bn"),
}


def _build(kind: str):
    """The same network every call: executor and oracle run on twins."""
    seed_everything(23)
    model = BUILDERS[kind]()
    # Untrained kaiming conv outputs rarely cross the firing threshold;
    # boost them so membranes, spikes and counters are not vacuously zero.
    for module in model.features.modules():
        if isinstance(module, Conv2d):
            module.weight.data = module.weight.data * np.float32(4.0)
    return model.eval()


class _Oracle:
    """The define-by-run model driven one timestep at a time."""

    def __init__(self, model):
        self.model = model
        model.reset_state()
        model.reset_spike_statistics()

    def step(self, x: np.ndarray) -> np.ndarray:
        model = self.model
        with no_grad():
            return model.classifier(model.features(model.encoder(x, 0))).data

    def stem(self, x: np.ndarray) -> np.ndarray:
        """Output of the stateless prefix (first conv + norm) for ``x``."""
        block = self.model.features[0]
        assert isinstance(block, ConvSpikeBlock)
        with no_grad():
            return _conv_norm_forward(
                block.conv, block.norm, block.folded, Tensor(x), False
            ).data


def _assert_same_state(executor, oracle: _Oracle, live: np.ndarray, where: str,
                       executor_state):
    plan = executor.plan
    fast_layers = [op.module for op in plan.ops if isinstance(op, LIFOp)]
    slow_layers = oracle.model.lif_layers()
    assert len(fast_layers) == len(slow_layers) == plan.num_lif
    membranes, stem = executor_state(executor)
    for index, (fast, slow) in enumerate(zip(fast_layers, slow_layers)):
        membrane = membranes[index]
        assert membrane.dtype == slow.membrane.data.dtype, where
        assert np.array_equal(membrane, slow.membrane.data), f"{where}: membrane {index}"
        for counter in ("total_spikes", "total_neuron_updates", "last_spike_rate"):
            assert getattr(fast, counter) == getattr(slow, counter), (
                f"{where}: LIF {index} {counter}"
            )
    (register,) = plan.stem_registers
    expected = oracle.stem(live)
    assert stem[register].dtype == expected.dtype, where
    assert np.array_equal(stem[register], expected), f"{where}: stem rows"


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_width_walk_is_bitwise_on_the_oracle(kind, executor_state):
    """8 -> 3 -> 8 -> 1 -> 6 rows by compaction and admission, two steps at
    each width, a conv weight and a running_var replaced on the way."""
    model, twin = _build(kind), _build(kind)
    executor = executor_for(model)
    assert executor.stem_enabled
    oracle = _Oracle(twin)
    model.reset_spike_statistics()
    rng = np.random.default_rng(11)

    def fresh(count: int) -> np.ndarray:
        return rng.random((count, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)

    def both_step(where: str) -> None:
        fast = executor.step(None if not executor.needs_frame else live)
        slow = oracle.step(live)
        assert fast.dtype == slow.dtype, where
        assert np.array_equal(fast, slow), f"{where}: logits"
        _assert_same_state(executor, oracle, live, where, executor_state)

    def compact(keep_rows) -> np.ndarray:
        keep = np.zeros(live.shape[0], dtype=bool)
        keep[list(keep_rows)] = True
        executor.compact_rows(keep)
        twin.compact_state(keep)
        return live[keep]

    def admit(count: int) -> np.ndarray:
        frames = fresh(count)
        executor.extend_rows(count, frames)
        twin.extend_state(count)
        return np.concatenate([live, frames])

    def replace(path: str, attribute: str) -> None:
        """Swap one source array for a scaled copy on both twins."""
        for net in (model, twin):
            module = net
            for name in path.split("."):
                module = getattr(module, name) if not name.isdigit() else module[int(name)]
            if attribute == "weight":
                module.weight.data = module.weight.data * np.float32(1.25)
            else:
                module.update_buffer(attribute, getattr(module, attribute) * np.float32(0.5))

    executor.reset_state()
    live = fresh(8)
    executor.extend_rows(8, live)
    for step in range(2):
        both_step(f"width 8, step {step}")
    live = compact([1, 4, 6])
    for step in range(2):
        both_step(f"width 3, step {step}")
    # A post-stem conv weight and norm statistic, replaced between steps:
    # seen on the next step, with no recompile and no stem invalidation.
    before = executor.step(None).copy()
    oracle.step(live)
    second = "1" if kind == "resnet-bn" else "2"
    conv, norm = ("conv1", "norm1") if kind == "resnet-bn" else ("conv", "norm")
    replace(f"features.{second}.{conv}", "weight")
    replace(f"features.{second}.{norm}", "running_var")
    both_step("width 3, after weight + running_var replacement")
    assert not np.array_equal(before, executor.step(None))
    oracle.step(live)
    live = admit(5)
    for step in range(2):
        both_step(f"width 8 again, step {step}")
    live = compact([7])
    for step in range(2):
        both_step(f"width 1, step {step}")
    live = admit(5)
    for step in range(2):
        both_step(f"width 6, step {step}")
    assert all(layer.total_spikes > 0.0 for layer in model.lif_layers())
    assert all(np.any(membrane != 0.0) for membrane in executor._membranes)


def test_unread_statistics_cost_no_reduction(monkeypatch):
    """``collect_statistics=False`` (every replica child, every shared-plan
    worker): the LIF counters stay untouched *and* no spike count is taken."""
    model = _build("vgg-bn")
    model.reset_spike_statistics()
    x = np.random.default_rng(2).random((4, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    reductions = []
    real_count, real_sum = np.count_nonzero, np.sum

    def counting(real):
        def wrapper(*args, **kwargs):
            reductions.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    silent = executor_for(model, collect_statistics=False)
    silent.reset_state()
    silent.step(x)  # bind outside the patched region
    monkeypatch.setattr(np, "count_nonzero", counting(real_count))
    monkeypatch.setattr(np, "sum", counting(real_sum))
    monkeypatch.setattr(kernels, "spike_count", counting(kernels.spike_count))
    for _ in range(3):
        silent.step(x)
    assert reductions == []
    for layer in model.lif_layers():
        assert layer.total_spikes == 0.0
        assert layer.total_neuron_updates == 0.0

    counted = executor_for(model, collect_statistics=True)
    counted.reset_state()
    counted.step(x)
    assert reductions == ["spike_count", "count_nonzero"] * len(model.lif_layers())
    assert all(layer.total_neuron_updates > 0.0 for layer in model.lif_layers())


def test_spike_count_matches_the_float32_sum_and_keeps_it_beyond_2_24(monkeypatch):
    scratch = kernels.Scratch()
    current = np.linspace(0.0, 2.0, 4 * 3 * 5 * 5, dtype=np.float32).reshape(4, 3, 5, 5)
    tau = np.asarray(0.5, dtype=np.float32)
    v_th = np.asarray(1.0, dtype=np.float32)
    bound = kernels.bind_lif(scratch, current, "hard")
    kernels.lif_step(bound, current, None, tau, 1.0, v_th)
    assert bound.count_exact
    assert kernels.spike_count(bound) == float(bound.spikes.sum()) > 0.0
    # Past 2**24 elements a float32 sum of 0/1 rounds; the kernel then takes
    # the same sum as the layer instead of the (exact) count.
    bound.count_exact = False
    monkeypatch.setattr(np, "count_nonzero", None)
    assert kernels.spike_count(bound) == float(bound.spikes.sum())


def test_steady_state_step_allocates_only_its_logits():
    """200 steps at a constant width, every returned array kept (callers
    build running sums from them): traced memory grows by those arrays and
    peaks within one NumPy iterator buffer of that — NumPy sets a fixed
    ~27 KB transient aside whenever a ufunc operand is strided or broadcast
    (the pool taps, the GEMM bias).  One per-step allocation of a patch
    matrix, GEMM or LIF buffer (100-350 KB each at this width) would
    overshoot the slack on its own."""
    model = _build("vgg-bn")
    executor = executor_for(model)
    width, steps, slack = 32, 200, 64 * 1024
    x = np.random.default_rng(4).random((width, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    executor.reset_state()
    executor.extend_rows(width, x)
    for _ in range(5):
        logits = executor.step(None)
    kept = []
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(steps):
            kept.append(executor.step(None))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = steps * (logits.nbytes + 256)  # data + ndarray header + list slot
    assert current - baseline <= held
    assert peak - baseline <= held + slack


def test_bindings_are_capped_through_a_shrink_across_every_width():
    """An offline batch shrinking 512 -> 1 one row at a time visits 512
    widths; each op keeps at most MAX_BINDINGS sets of views, and the
    capacity buffers stay those of the widest batch."""
    model = _build("vgg-bn")
    executor = executor_for(model)
    width = 512
    x = np.random.default_rng(6).random((width, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    executor.reset_state()
    executor.extend_rows(width, x)
    executor.step(None)
    resident = sum(
        buffer.nbytes for scratch in executor._scratch for buffer in scratch.buffers.values()
    )
    while width > 1:
        keep = np.ones(width, dtype=bool)
        keep[-1] = False
        executor.compact_rows(keep)
        width -= 1
        executor.step(None)
    for scratch in executor._scratch:
        assert len(scratch.bindings) <= kernels.MAX_BINDINGS
    assert any(len(scratch.bindings) == kernels.MAX_BINDINGS for scratch in executor._scratch)
    assert resident == sum(
        buffer.nbytes for scratch in executor._scratch for buffer in scratch.buffers.values()
    )
