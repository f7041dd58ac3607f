"""Error-path tests for the plan-IR verifier.

Every test compiles a *valid* plan, mutates exactly one contract, and
asserts that :func:`verify_plan` pinpoints the violation — right error,
right op index, right register — instead of merely raising something.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.planverify import (
    PlanVerificationError,
    verify_gather_index,
    verify_plan,
)
from repro.runtime import PlanExecutor, compile_network, kernels
from repro.runtime.kernels import gather_index
from repro.runtime.plan import FoldedConvNormOp, LIFOp, LinearOp
from repro.snn import spiking_resnet, spiking_vgg
from repro.utils import seed_everything


def _vgg_plan():
    """A freshly compiled (and therefore already verified) tiny VGG plan."""
    seed_everything(1)
    model = spiking_vgg("tiny", num_classes=5, input_size=8, default_timesteps=3)
    plan = compile_network(model.eval())
    # CompiledPlan holds only a weak reference to its model; pin it so
    # plan.model stays resolvable for the lifetime of each test.
    plan.test_keepalive_model = model
    return plan


class TestCleanPlans:
    def test_vgg_verifies_clean_with_concrete_shape(self):
        plan = _vgg_plan()
        assert verify_plan(plan, input_shape=(3, 8, 8)) is plan

    def test_resnet_verifies_clean_with_concrete_shape(self):
        seed_everything(2)
        model = spiking_resnet("tiny", num_classes=5, input_size=8).eval()
        plan = compile_network(model)
        assert verify_plan(plan, input_shape=(3, 8, 8)) is plan

    def test_bad_input_shape_arity_rejected(self):
        with pytest.raises(ValueError, match="channels, height, width"):
            verify_plan(_vgg_plan(), input_shape=(3, 8))


class TestRegisterDiscipline:
    def test_double_write_names_both_ops(self):
        plan = _vgg_plan()
        # Make op[2] clobber op[0]'s destination: single assignment breaks.
        plan.ops[2].dst = plan.ops[0].dst
        with pytest.raises(PlanVerificationError, match="written twice") as info:
            verify_plan(plan)
        assert info.value.op_index == 2
        assert info.value.register == plan.ops[0].dst
        assert "first write at op[0]" in str(info.value)

    def test_read_before_write(self):
        plan = _vgg_plan()
        # op[1] now reads a register only op[3] will write.
        plan.ops[1].src = plan.ops[3].dst
        with pytest.raises(
            PlanVerificationError, match="read-before-write"
        ) as info:
            verify_plan(plan)
        assert info.value.op_index == 1
        assert info.value.register == plan.ops[3].dst

    def test_write_to_input_register_rejected(self):
        plan = _vgg_plan()
        plan.ops[2].dst = 0
        with pytest.raises(
            PlanVerificationError, match="register 0 is the input frame"
        ) as info:
            verify_plan(plan)
        assert info.value.op_index == 2

    def test_register_out_of_range(self):
        plan = _vgg_plan()
        plan.ops[2].dst = plan.num_registers
        with pytest.raises(PlanVerificationError, match="out of range") as info:
            verify_plan(plan)
        assert info.value.op_index == 2
        assert info.value.found == plan.num_registers

    def test_output_register_never_written(self):
        plan = _vgg_plan()
        # Drop the classifier op: nothing produces the logits register.
        plan.ops.pop()
        with pytest.raises(
            PlanVerificationError, match="output register is never written"
        ) as info:
            verify_plan(plan)
        assert info.value.register == plan.output_register


class TestShapeAndDtypePropagation:
    def test_channel_mismatch_at_first_conv(self):
        plan = _vgg_plan()
        with pytest.raises(
            PlanVerificationError, match="channels disagree"
        ) as info:
            verify_plan(plan, input_shape=(4, 8, 8))
        assert info.value.op_index == 0
        assert info.value.register == 0

    def test_spatial_mismatch_surfaces_at_the_linear_op(self):
        plan = _vgg_plan()
        linear_index = next(
            i for i, op in enumerate(plan.ops) if isinstance(op, LinearOp)
        )
        # 12x12 input flows fine through convs/pools but flattens to a
        # width the classifier's fan-in (built for 8x8) cannot accept.
        with pytest.raises(
            PlanVerificationError, match="fan-in disagrees"
        ) as info:
            verify_plan(plan, input_shape=(3, 12, 12))
        assert info.value.op_index == linear_index

    def test_degenerate_spatial_dim_rejected(self):
        plan = _vgg_plan()
        with pytest.raises(PlanVerificationError) as info:
            verify_plan(plan, input_shape=(3, 1, 1))
        # The 2x2 pool over a 1x1 map is the eventual contradiction.
        assert info.value.op_index is not None

    def test_float64_constant_violates_weak_scalar_policy(self):
        plan = _vgg_plan()
        linear = next(op for op in plan.ops if isinstance(op, LinearOp))
        linear.module.weight.data = linear.module.weight.data.astype(
            np.float64  # dtype-ok: deliberately corrupting a constant to exercise the verifier
        )
        with pytest.raises(
            PlanVerificationError, match="weak-scalar float32 policy"
        ):
            verify_plan(plan)


class TestFoldInvariants:
    def test_folded_op_in_training_mode(self):
        plan = _vgg_plan()
        fold_index = next(
            i for i, op in enumerate(plan.ops)
            if isinstance(op, FoldedConvNormOp)
        )
        plan.model.train()
        with pytest.raises(
            PlanVerificationError, match="training"
        ) as info:
            verify_plan(plan)
        assert info.value.op_index == fold_index

    @pytest.mark.parametrize("smuggled", ["conv weight", "conv bias", "LIF constant 'tau'"])
    def test_float64_smuggled_into_a_compiled_plan_names_the_op(self, smuggled):
        """The float32 closure is unconditional: a float64 conv weight,
        folded bias or LIF scalar is refused at the op that holds it."""
        plan = _vgg_plan()
        wide = np.float64  # dtype-ok: deliberately corrupting a constant to exercise the verifier
        fold_index, fold = next(
            (i, op) for i, op in enumerate(plan.ops) if isinstance(op, FoldedConvNormOp)
        )
        lif_index, lif = next(
            (i, op) for i, op in enumerate(plan.ops) if isinstance(op, LIFOp)
        )
        if smuggled == "conv weight":
            fold.conv.weight.data = fold.conv.weight.data.astype(wide)
        elif smuggled == "conv bias":
            # Only the fold's bias term promotes; its weight stays float32.
            fold.folded.norm.bias.data = fold.folded.norm.bias.data.astype(wide)
        else:
            lif.tau = lif.tau.astype(wide)
        with pytest.raises(PlanVerificationError, match=smuggled) as info:
            verify_plan(plan)
        assert info.value.op_index == (lif_index if "LIF" in smuggled else fold_index)
        assert info.value.found == "float64"

    def test_folded_op_over_instrumented_module(self):
        plan = _vgg_plan()
        fold = next(op for op in plan.ops if isinstance(op, FoldedConvNormOp))
        fold.conv.__dict__["forward"] = lambda x: x
        try:
            with pytest.raises(
                PlanVerificationError, match="instrumented"
            ):
                verify_plan(plan)
        finally:
            del fold.conv.__dict__["forward"]


class TestStemAndStateMetadata:
    def test_tampered_stem_len(self):
        plan = _vgg_plan()
        assert plan.stem_len > 0
        plan.stem_len = 0
        with pytest.raises(PlanVerificationError, match="stem_len disagrees"):
            verify_plan(plan)

    def test_dropped_stem_register_is_a_liveness_violation(self):
        plan = _vgg_plan()
        assert plan.stem_registers
        missing = plan.stem_registers[0]
        plan.stem_registers = ()
        with pytest.raises(
            PlanVerificationError, match="scratch-liveness"
        ) as info:
            verify_plan(plan)
        assert info.value.register == missing
        # The first post-stem op is the one that reads the unrestored value.
        assert info.value.op_index == plan.stem_len

    def test_tampered_output_needs_copy(self):
        plan = _vgg_plan()
        plan.output_needs_copy = not plan.output_needs_copy
        with pytest.raises(
            PlanVerificationError, match="output_needs_copy"
        ):
            verify_plan(plan)

    def test_tampered_num_lif(self):
        plan = _vgg_plan()
        plan.num_lif += 1
        with pytest.raises(PlanVerificationError, match="num_lif"):
            verify_plan(plan)

    def test_duplicate_lif_state_slot(self):
        plan = _vgg_plan()
        lif_ops = [op for op in plan.ops if isinstance(op, LIFOp)]
        assert len(lif_ops) >= 2
        lif_ops[1].state_index = lif_ops[0].state_index
        with pytest.raises(
            PlanVerificationError, match="share one membrane state slot"
        ):
            verify_plan(plan)


class TestCompileIntegration:
    def test_compile_network_returns_a_verified_plan(self):
        # compile_network runs verify_plan internally; a second explicit
        # verification of the same object must agree.
        plan = _vgg_plan()
        assert verify_plan(plan) is plan

    def test_error_message_carries_location_and_evidence(self):
        plan = _vgg_plan()
        plan.ops[2].dst = plan.ops[0].dst
        with pytest.raises(PlanVerificationError) as info:
            verify_plan(plan)
        message = str(info.value)
        assert message.startswith("plan verification failed: op[2]")
        assert f"r{plan.ops[0].dst}" in message


class TestGatherIndex:
    """The im2col gather index is checked where it is built: the kernels
    gather with a non-raising ``np.take`` mode, so a wrong entry would read
    the wrong pixel silently."""

    GEOMETRY = dict(input_shape=(3, 6, 5), kernel=3, stride=2, padding=1)

    def _index(self):
        channels, height, width = self.GEOMETRY["input_shape"]
        return gather_index(channels, height, width, 3, 2, 1)

    def test_built_index_verifies_and_is_returned(self):
        index = self._index()
        assert verify_gather_index(index, **self.GEOMETRY) is index

    def test_out_of_range_entry_rejected(self):
        index = self._index()
        index[7] = 3 * (6 + 2) * (5 + 2)  # one past the padded sample
        with pytest.raises(PlanVerificationError, match="outside the padded sample"):
            verify_gather_index(index, **self.GEOMETRY)
        index[7] = -1
        with pytest.raises(PlanVerificationError, match="outside the padded sample"):
            verify_gather_index(index, **self.GEOMETRY)

    def test_wrong_length_or_dtype_rejected(self):
        index = self._index()
        with pytest.raises(PlanVerificationError, match="out_h\\*out_w\\*C\\*k\\*k"):
            verify_gather_index(index[:-1], **self.GEOMETRY)
        with pytest.raises(PlanVerificationError, match="intp"):
            verify_gather_index(index.astype(np.int32), **self.GEOMETRY)

    def test_in_range_but_misplaced_entry_names_the_position(self):
        index = self._index()
        middle = index.size // 2  # a window over real pixels, not padding
        index[[middle, middle + 1]] = index[[middle + 1, middle]]  # in range, wrong order
        with pytest.raises(PlanVerificationError) as info:
            verify_gather_index(index, **self.GEOMETRY)
        assert f"disagrees with autograd.ops.im2col at entry {middle}" in str(info.value)

    def test_doctored_index_fails_the_first_step_and_names_the_op(self, monkeypatch):
        """End to end: an executor whose conv would gather through a bad
        index never runs it — building it raises, naming the op."""
        plan = _vgg_plan()
        executor = PlanExecutor(plan)
        real = kernels.gather_index

        def doctored(*geometry):
            index = real(*geometry)
            middle = index.size // 2
            index[[middle, middle + 1]] = index[[middle + 1, middle]]
            return index

        monkeypatch.setattr(kernels, "gather_index", doctored)
        frame = np.zeros((2, 3, 8, 8), dtype=np.float32)
        with pytest.raises(PlanVerificationError) as info:
            executor.step(frame)
        assert plan.ops[0].describe() in str(info.value)
        assert plan.ops[0]._gather is None  # nothing cached, nothing bound
        monkeypatch.undo()
        assert executor.step(frame).shape == (2, 5)
