"""Unit tests for the shared-memory plan arena (same-process attach).

Cross-process behaviour (spawned replicas, crash recovery) is covered by
``tests/serve/test_replica.py``; these tests pin the arena mechanics that do
not need a second process: export/attach round trips are bitwise, skeletons
carry no weight bytes, views are read-only, refresh propagates exactly the
replaced slots and flips every identity-keyed cache, and the refcounted
lifecycle unlinks ``/dev/shm`` exactly once.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.runtime import executor_for, plan_for, run_cumulative_logits
from repro.runtime.arena import PlanArena, _constant_slots, attach_arena
from repro.snn import spiking_resnet, spiking_vgg
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _model(seed=47, builder=spiking_vgg):
    seed_everything(seed)
    model = builder(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS,
    ).eval()
    model.reset_state()
    return model


def _inputs(batch=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


@pytest.fixture
def arena_model():
    model = _model()
    arena = PlanArena.export(model)
    yield arena, model
    if not arena.destroyed:
        arena.destroy()


def _shm_path(arena) -> str:
    return f"/dev/shm/{arena.spec.name}"


class TestExportAttach:
    def test_attached_model_is_bitwise_identical(self, arena_model):
        arena, model = arena_model
        attachment = attach_arena(arena.spec, arena.skeleton())
        clone = attachment.model
        xs = _inputs()
        reference = model.forward(xs, TIMESTEPS).cumulative_numpy()
        np.testing.assert_array_equal(
            clone.forward(xs, TIMESTEPS).cumulative_numpy(), reference
        )
        executor = executor_for(clone, True)
        assert executor is not None, "attached model must lower"
        np.testing.assert_array_equal(
            run_cumulative_logits(clone, executor, xs, TIMESTEPS), reference
        )
        attachment.close()

    def test_attached_constants_are_readonly_views(self, arena_model):
        arena, model = arena_model
        attachment = attach_arena(arena.spec, arena.skeleton())
        clone = attachment.model
        for name, parameter in clone.named_parameters():
            assert not parameter.data.flags.writeable, name
            assert not parameter.data.flags.owndata, name
        # The folded conv+norm caches must serve arena views too, not
        # recompute private per-process copies of every conv weight.
        folded_slots = [
            (kind, owner) for kind, owner, _ in _constant_slots(clone)
            if kind == "folded_weight"
        ]
        assert folded_slots, "expected foldable conv+norm pairs in the model"
        for _, folded in folded_slots:
            weight, bias = folded.arrays()
            assert not weight.flags.writeable and not bias.flags.writeable
        attachment.close()

    def test_skeleton_carries_no_weight_bytes(self, arena_model):
        arena, model = arena_model
        skeleton = arena.skeleton()
        # A straight pickle embeds every float32 weight; the skeleton
        # tokenizes them away, so it must be drastically smaller than the
        # arena payload it references.
        full = len(pickle.dumps(model))
        assert len(skeleton) < full / 4
        assert len(skeleton) < arena.spec.size / 4

    def test_resnet_model_exports_too(self):
        model = _model(seed=11, builder=spiking_resnet)
        arena = PlanArena.export(model)
        try:
            attachment = attach_arena(arena.spec, arena.skeleton())
            xs = _inputs(batch=2, seed=5)
            np.testing.assert_array_equal(
                attachment.model.forward(xs, TIMESTEPS).cumulative_numpy(),
                model.forward(xs, TIMESTEPS).cumulative_numpy(),
            )
            attachment.close()
        finally:
            arena.destroy()


class TestRefresh:
    def test_refresh_propagates_reloaded_weights(self, arena_model):
        arena, model = arena_model
        attachment = attach_arena(arena.spec, arena.skeleton())
        clone = attachment.model
        xs = _inputs(seed=9)
        before = clone.forward(xs, TIMESTEPS).cumulative_numpy()

        donor = _model(seed=99)
        model.load_state_dict(donor.state_dict())
        assert not attachment.stale()
        changed = arena.refresh()
        assert changed > 0
        assert attachment.stale()
        attachment.reattach()
        assert not attachment.stale()

        reference = model.forward(xs, TIMESTEPS).cumulative_numpy()
        after = clone.forward(xs, TIMESTEPS).cumulative_numpy()
        np.testing.assert_array_equal(after, reference)
        assert not np.array_equal(after, before)
        # The fast path converges too: the reattach flipped every source
        # identity, so folded caches and plan constants refresh themselves.
        executor = executor_for(clone, True)
        np.testing.assert_array_equal(
            run_cumulative_logits(clone, executor, xs, TIMESTEPS), reference
        )
        attachment.close()

    def test_refresh_flips_the_active_generation(self, arena_model):
        arena, model = arena_model
        attachment = attach_arena(arena.spec, arena.skeleton())
        assert arena.spec.generation_stride > 0
        assert arena.active_generation == 0
        xs = _inputs(seed=13)

        model.load_state_dict(_model(seed=101).state_dict())
        assert arena.refresh() > 0
        assert arena.active_generation == 1
        attachment.reattach()
        assert attachment.generation == 1
        np.testing.assert_array_equal(
            attachment.model.forward(xs, TIMESTEPS).cumulative_numpy(),
            model.forward(xs, TIMESTEPS).cumulative_numpy(),
        )

        # A second reload flips back; the previously-active generation is
        # resynced in full even though it missed the intermediate flip.
        model.load_state_dict(_model(seed=103).state_dict())
        assert arena.refresh() > 0
        assert arena.active_generation == 0
        attachment.reattach()
        np.testing.assert_array_equal(
            attachment.model.forward(xs, TIMESTEPS).cumulative_numpy(),
            model.forward(xs, TIMESTEPS).cumulative_numpy(),
        )
        attachment.close()

    def test_refresh_never_writes_the_generation_replicas_read(self, arena_model):
        """The flip is transactional: a straggler still bound to the old
        generation keeps serving the OLD weights bit-for-bit until it
        rebinds — refresh never scribbles the generation replicas read."""
        arena, model = arena_model
        attachment = attach_arena(arena.spec, arena.skeleton())
        xs = _inputs(seed=17)
        before = attachment.model.forward(xs, TIMESTEPS).cumulative_numpy()
        model.load_state_dict(_model(seed=107).state_dict())
        assert arena.refresh() > 0
        assert attachment.stale()
        # No reattach: the old views must still serve the old generation.
        np.testing.assert_array_equal(
            attachment.model.forward(xs, TIMESTEPS).cumulative_numpy(), before
        )
        attachment.close()

    def test_refresh_without_reload_is_a_noop(self, arena_model):
        arena, model = arena_model
        version = arena.version
        assert arena.refresh() == 0
        assert arena.version == version

    def test_refresh_rejects_shape_changes_atomically(self, arena_model):
        """A rejected refresh must copy NOTHING and bump nothing — a
        half-updated segment with no version signal would leave replicas
        silently serving mixed weight generations."""
        arena, model = arena_model
        attachment = attach_arena(arena.spec, arena.skeleton())
        version = arena.version
        parameters = list(model.parameters())
        # A valid change on an early slot...
        parameters[0].data = parameters[0].data * np.float32(2.0)
        valid_value = parameters[0].data.copy()
        # ...and an invalid one on a later slot.
        bad = parameters[-1]
        bad.data = np.zeros((bad.data.shape[0] + 1,) + bad.data.shape[1:],
                            dtype=np.float32)
        with pytest.raises(ValueError, match="re-export"):
            arena.refresh()
        assert arena.version == version
        assert not attachment.stale()
        clone_first = next(iter(attachment.model.parameters()))
        assert not np.array_equal(clone_first.data, valid_value)
        attachment.close()


class TestLifecycle:
    def test_destroy_unlinks_after_last_release(self, arena_model):
        arena, model = arena_model
        path = _shm_path(arena)
        assert os.path.exists(path)
        arena.acquire()
        arena.acquire()
        arena.destroy()  # pending: two references still held
        assert os.path.exists(path)
        arena.release()
        assert os.path.exists(path)
        arena.release()
        assert not os.path.exists(path)
        assert arena.destroyed

    def test_destroy_with_no_references_unlinks_immediately(self, arena_model):
        arena, model = arena_model
        path = _shm_path(arena)
        arena.destroy()
        assert not os.path.exists(path)
        # Idempotent.
        arena.destroy()
        arena.release()

    def test_acquire_after_destroy_raises(self, arena_model):
        arena, model = arena_model
        arena.destroy()
        with pytest.raises(RuntimeError, match="destroyed"):
            arena.acquire()

    def test_dropped_arena_unlinks_at_gc(self):
        """An arena exported but never drained (a server constructed and
        discarded without start()) must not leak its segment."""
        import gc

        model = _model(seed=21)
        arena = PlanArena.export(model)
        path = _shm_path(arena)
        assert os.path.exists(path)
        del arena
        gc.collect()
        assert not os.path.exists(path)

    def test_skeleton_drops_gradients_without_touching_the_model(self):
        model = _model(seed=23)
        parameter = next(iter(model.parameters()))
        parameter.grad = np.ones_like(parameter.data)
        arena = PlanArena.export(model)
        try:
            baseline = len(arena.skeleton())
            assert parameter.grad is not None  # caller's model untouched
            attachment = attach_arena(arena.spec, arena.skeleton())
            clone_parameter = next(iter(attachment.model.parameters()))
            assert clone_parameter.grad is None  # dropped in transit
            # ...and dropped means dropped: the skeleton must not grow by
            # a weights-worth of gradient bytes.
            assert baseline < arena.spec.size / 4
            attachment.close()
        finally:
            arena.destroy()
