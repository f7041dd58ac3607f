"""Unit tests for the compiled plan: lowering, caching, gating, state surgery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DynamicTimestepInference, EntropyExitPolicy
from repro.nn import BatchNorm2d, Conv2d, Flatten, Linear, Sequential
from repro.nn.module import Module
from repro.runtime import (
    PlanExecutor,
    UnsupportedModuleError,
    compile_network,
    executor_for,
    plan_for,
    plan_registry,
    run_cumulative_logits,
)
from repro.runtime.plan import FoldedConvNormOp, LIFOp, LinearOp
from repro.serve import InferenceEngine, Request, Response
from repro.snn import SpikingNetwork, spiking_resnet, spiking_vgg
from repro.snn.encoding import EventFrameEncoder, PoissonEncoder
from repro.snn.neurons import LIFNeuron
from repro.utils import seed_everything


def _tiny_vgg():
    seed_everything(1)
    model = spiking_vgg("tiny", num_classes=5, input_size=8, default_timesteps=3)
    # Untrained kaiming conv outputs rarely cross the firing threshold, which
    # would make every state/logit comparison vacuously zero; boost the
    # feature weights so the network actually spikes.
    for module in model.features.modules():
        if isinstance(module, Conv2d):
            module.weight.data = module.weight.data * np.float32(4.0)
    return model.eval()


class _Opaque(Module):
    """A module the lowerer has never heard of."""

    def forward(self, x):
        return x * 2.0


class TestLowering:
    def test_vgg_op_sequence_and_stem(self):
        plan = compile_network(_tiny_vgg())
        kinds = [type(op).__name__ for op in plan.ops]
        # Block-level conv->norm pairs fold into single GEMM ops.
        assert kinds == [
            "FoldedConvNormOp", "LIFOp", "AvgPoolOp",
            "FoldedConvNormOp", "LIFOp", "AvgPoolOp",
            "FlattenOp", "LinearOp",
        ]
        # Everything before the first LIF is the cacheable stem: the folded
        # conv1+bn1 GEMM.
        assert plan.stem_len == 1
        assert isinstance(plan.ops[0], FoldedConvNormOp)
        assert isinstance(plan.ops[plan.stem_len], LIFOp)
        # Only the folded conv output crosses the stem boundary.
        assert plan.stem_registers == (plan.ops[0].dst,)
        assert isinstance(plan.ops[-1], LinearOp)
        assert plan.output_register == plan.ops[-1].dst
        assert plan.num_lif == 2
        assert "FoldedConvNormOp" in plan.describe()

    def test_resnet_residual_lowering(self):
        seed_everything(2)
        model = spiking_resnet("tiny", num_classes=5, input_size=8).eval()
        plan = compile_network(model)
        kinds = [type(op).__name__ for op in plan.ops]
        assert "AddOp" in kinds  # the residual sums survived lowering
        # tiny resnet: stem block + 2 residual blocks (each 2 LIF).
        assert plan.num_lif == 1 + 2 * 2

    def test_unsupported_module_raises(self):
        model = SpikingNetwork(
            Sequential(Conv2d(3, 4, 3, padding=1), _Opaque()),
            Sequential(Flatten(), Linear(4 * 8 * 8, 5)),
            default_timesteps=2,
        )
        with pytest.raises(UnsupportedModuleError):
            compile_network(model)
        # the convenience wrappers report "use the Tensor path" instead
        assert plan_for(model) is None
        assert executor_for(model) is None

    @pytest.mark.parametrize("use_runtime", [None, True])
    def test_bare_norm_takes_the_oracle_fallback(self, use_runtime):
        """There is no unfused norm op: a norm layer outside a conv→norm
        block does not lower, and the model serves through the oracle."""
        seed_everything(4)
        model = SpikingNetwork(
            Sequential(Conv2d(3, 4, 3, padding=1), BatchNorm2d(4), LIFNeuron()),
            Sequential(Flatten(), Linear(4 * 8 * 8, 5)),
            default_timesteps=3,
        ).eval()
        model.features[0].weight.data = model.features[0].weight.data * np.float32(4.0)
        with pytest.raises(UnsupportedModuleError, match="BatchNorm2d"):
            compile_network(model)
        assert plan_for(model) is None
        assert plan_registry.invalidate(model) is True  # negatively cached
        x = np.random.default_rng(6).random((5, 3, 8, 8)).astype(np.float32)

        def decisions(flag):
            engine = InferenceEngine(model, EntropyExitPolicy(0.9), use_runtime=flag)
            assert engine.fast_path is False
            for index, row in enumerate(x):
                engine.admit(Request(request_id=index, inputs=row), Response(), 0.0)
            done = []
            while not engine.idle:
                done.extend(engine.step())
            return sorted(
                (c.request.request_id, c.prediction, c.exit_timestep) for c in done
            )

        found = decisions(use_runtime)
        assert found == decisions(False)
        assert len({t for _, _, t in found}) > 1  # exits actually differ

    def test_plan_cache_returns_same_object(self):
        model = _tiny_vgg()
        assert plan_for(model) is plan_for(model)


class TestGating:
    def test_use_runtime_false_returns_no_executor(self):
        model = _tiny_vgg()
        assert executor_for(model, use_runtime=False) is None
        assert executor_for(model) is not None

    @pytest.mark.parametrize(
        "name, value", [("REPRO_RUNTIME", "0"), ("REPRO_TRACE_OPS", "1")]
    )
    def test_retired_env_flags_change_nothing(self, name, value, monkeypatch):
        """The oracle switch and the per-op timer were environment flags once;
        a deployment that still sets them gets the plan's own ops unwrapped."""
        monkeypatch.setenv(name, value)
        model = _tiny_vgg()
        engine = InferenceEngine(model, EntropyExitPolicy(0.9))
        assert engine.fast_path is True
        executor = engine._executor
        program = executor._stem_program + executor._body_program
        assert [op for op, _ in program] == list(plan_for(model).ops)

    def test_stem_cache_requires_direct_encoder(self):
        model = _tiny_vgg()
        assert executor_for(model).stem_enabled
        seed_everything(1)
        event = spiking_vgg(
            "tiny", num_classes=5, input_size=8, default_timesteps=3,
            encoder=EventFrameEncoder(),
        ).eval()
        assert executor_for(event).stem_enabled is False
        seed_everything(1)
        poisson = spiking_vgg(
            "tiny", num_classes=5, input_size=8, default_timesteps=3,
            encoder=PoissonEncoder(seed=0),
        ).eval()
        assert executor_for(poisson).stem_enabled is False

    def test_training_mode_guard(self):
        model = _tiny_vgg()
        executor = executor_for(model)
        model.train()
        frame = np.zeros((2, 3, 8, 8), dtype=np.float32)
        with pytest.raises(RuntimeError, match="inference-only"):
            executor.step(frame)

    def test_infer_falls_back_for_unsupported_model(self):
        seed_everything(3)
        model = SpikingNetwork(
            Sequential(Conv2d(3, 4, 3, padding=1), _Opaque(), LIFNeuron()),
            Sequential(Flatten(), Linear(4 * 8 * 8, 5)),
            default_timesteps=2,
        ).eval()
        engine = DynamicTimestepInference(model, EntropyExitPolicy(0.9), max_timesteps=2)
        x = np.random.default_rng(0).random((4, 3, 8, 8)).astype(np.float32)
        result = engine.infer(x)  # silently uses the Tensor path
        assert result.predictions.shape == (4,)
        serve_engine = InferenceEngine(model, EntropyExitPolicy(0.9), max_timesteps=2)
        assert serve_engine.fast_path is False


class TestStateSurgery:
    def _executor_and_inputs(self):
        model = _tiny_vgg()
        executor = executor_for(model)
        x = np.random.default_rng(5).random((6, 3, 8, 8)).astype(np.float32)
        return model, executor, x

    def test_compact_matches_fresh_subset_stream(self):
        """Dropping rows mid-stream must equal never having had them at all."""
        model, executor, x = self._executor_and_inputs()
        keep = np.array([True, False, True, True, False, True])

        executor.reset_state()
        executor.step(x)
        executor.compact_rows(keep)
        logits_after_compact = executor.step(x[keep]).copy()

        solo = executor_for(model)
        solo.reset_state()
        solo.step(x[keep])
        logits_solo = solo.step(x[keep]).copy()
        assert np.array_equal(logits_after_compact, logits_solo)

    def test_extend_rows_matches_fresh_admission(self):
        """A spliced-in row behaves exactly like a batch-of-one fresh stream."""
        model, executor, x = self._executor_and_inputs()
        executor.reset_state()
        executor.step(x[:4])
        executor.extend_rows(2, frames=x[4:6])
        combined = executor.step(x).copy()

        solo = executor_for(model)
        solo.reset_state()
        fresh = solo.step(x[4:6]).copy()
        assert np.array_equal(combined[4:6], fresh)

    def test_extend_without_frames_invalidates_stem_but_stays_correct(self):
        model, executor, x = self._executor_and_inputs()
        executor.reset_state()
        executor.step(x[:4])
        executor.extend_rows(2)  # no frames: stem cache dropped, then rebuilt
        combined = executor.step(x).copy()

        reference = executor_for(model)
        reference.reset_state()
        reference.step(x[:4])
        reference.extend_rows(2, frames=x[4:6])
        expected = reference.step(x).copy()
        assert np.array_equal(combined, expected)

    def test_reset_rows_zeroes_membranes(self):
        model, executor, x = self._executor_and_inputs()
        executor.reset_state()
        executor.step(x)
        executor.reset_rows(np.array([0, 2]))
        for membrane in executor._membranes:
            assert membrane is not None
            assert np.all(membrane[0] == 0.0)
            assert np.all(membrane[2] == 0.0)

    def test_batch_rows_tracks_state_width(self):
        model, executor, x = self._executor_and_inputs()
        executor.reset_state()
        assert executor.batch_rows is None
        executor.step(x)
        assert executor.batch_rows == 6
        executor.compact_rows(np.array([True, True, False, False, False, False]))
        assert executor.batch_rows == 2


class TestOutputFreshness:
    def test_non_linear_head_logits_are_not_aliased(self):
        """A classifier whose last op reuses scratch (here a LIF head) must
        still hand back a fresh array: callers alias the logits as running
        sums across timesteps, and a reused buffer would be overwritten in
        place by the next step (regression test for exactly that bug)."""
        seed_everything(13)
        model = SpikingNetwork(
            Sequential(Conv2d(3, 6, 3, padding=1), LIFNeuron()),
            Sequential(Flatten(), Linear(6 * 8 * 8, 5), LIFNeuron()),
            default_timesteps=3,
        ).eval()
        for module in model.modules():
            if isinstance(module, Conv2d):
                module.weight.data = module.weight.data * np.float32(4.0)
        plan = plan_for(model)
        assert plan.output_needs_copy
        x = np.random.default_rng(3).random((4, 3, 8, 8)).astype(np.float32)
        from repro.autograd import no_grad
        with no_grad():
            reference = model.forward(x, 3).cumulative_numpy()
        executor = executor_for(model)
        fast = run_cumulative_logits(model, executor, x, 3)
        assert np.array_equal(reference, fast)
        # and two consecutive step() results must be distinct arrays
        executor.reset_state()
        first = executor.step(x)
        second = executor.step(x)
        assert first is not second
        assert not np.shares_memory(first, second)

    def test_linear_head_output_allocates(self):
        plan = plan_for(_tiny_vgg())
        assert plan.output_needs_copy is False


class TestPlanCacheLifetime:
    def test_cached_plan_does_not_pin_the_model(self):
        """plan_for caches in a WeakKeyDictionary; the plan must not hold a
        strong reference back to its key or no model is ever collected."""
        import gc
        import weakref

        model = _tiny_vgg()
        plan = plan_for(model)
        model_ref = weakref.ref(model)
        del model, plan
        gc.collect()
        assert model_ref() is None, "compiled plan kept the model alive"


class TestWeightLiveness:
    def test_plan_sees_updated_weights_and_stats(self):
        """Plans hold live parameter references: load_state_dict after
        compilation must be reflected without recompiling."""
        model = _tiny_vgg()
        plan = plan_for(model)
        executor = PlanExecutor(plan, stem_cache=False)
        x = np.random.default_rng(9).random((3, 3, 8, 8)).astype(np.float32)
        before = run_cumulative_logits(model, executor, x, 2).copy()
        assert np.any(before != 0.0)  # the network must actually spike

        state = model.state_dict()
        state["classifier.1.weight"] = state["classifier.1.weight"] * 2.0
        model.load_state_dict(state)
        after = run_cumulative_logits(model, executor, x, 2)
        assert not np.array_equal(before, after)

        from repro.autograd import no_grad
        with no_grad():
            reference = model.forward(x, 2).cumulative_numpy()
        assert np.array_equal(after, reference)
