"""Shared-plan registry and content-keyed stem memo.

Plans are immutable after lowering (ops hold only parameter references and
idempotent derived-constant caches), so N executors — including N serving
workers on N threads — share one :class:`CompiledPlan` through the
process-wide :data:`repro.runtime.plan_registry`.  These tests pin the
registry contract (identity, negative caching, thread safety), the
immutability property that makes sharing safe (per-executor statistics
toggles no longer mutate plan ops), and the :class:`StemCache` memo semantics (bitwise assembly from mixed hit/miss batches, LRU bounds).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import Conv2d, Flatten, Linear, Sequential
from repro.nn.module import Module
from repro.runtime import (
    PlanExecutor,
    PlanRegistry,
    StemCache,
    executor_for,
    plan_for,
    plan_registry,
)
from repro.runtime.plan import STEM_CACHE_CAPACITY
from repro.snn import SpikingNetwork, spiking_vgg
from repro.snn.encoding import EventFrameEncoder
from repro.snn.neurons import LIFNeuron
from repro.utils import seed_everything


def _tiny_vgg(encoder=None):
    seed_everything(11)
    kwargs = {"encoder": encoder} if encoder is not None else {}
    return spiking_vgg(
        "tiny", num_classes=5, input_size=8, default_timesteps=3, **kwargs
    ).eval()


class _Opaque(Module):
    def forward(self, x):  # pragma: no cover - never runs
        return x


class TestPlanRegistry:
    def test_same_model_same_plan_object(self):
        model = _tiny_vgg()
        assert plan_registry.get(model) is plan_registry.get(model)
        assert plan_for(model) is plan_registry.get(model)

    def test_distinct_models_distinct_plans(self):
        a, b = _tiny_vgg(), _tiny_vgg()
        assert plan_registry.get(a) is not plan_registry.get(b)

    def test_invalidate_forces_recompile(self):
        model = _tiny_vgg()
        first = plan_registry.get(model)
        assert plan_registry.invalidate(model) is True
        assert plan_registry.invalidate(model) is False  # already gone
        second = plan_registry.get(model)
        assert second is not first

    def test_unsupported_model_negative_cached(self):
        model = SpikingNetwork(
            Sequential(Conv2d(3, 4, 3, padding=1), _Opaque(), LIFNeuron()),
            Sequential(Flatten(), Linear(4 * 8 * 8, 5)),
            default_timesteps=2,
        ).eval()
        registry = PlanRegistry()
        assert registry.get(model) is None
        assert registry.get(model) is None  # negative entry, no re-lowering
        assert registry.invalidate(model) is True

    def test_concurrent_lookups_share_one_plan(self):
        model = _tiny_vgg()
        registry = PlanRegistry()
        plans, barrier = [], threading.Barrier(8)

        def lookup():
            barrier.wait()
            plans.append(registry.get(model))

        threads = [threading.Thread(target=lookup) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(plans) == 8
        assert all(plan is plans[0] for plan in plans)


class TestPlanImmutability:
    def test_statistics_toggle_is_per_executor_not_per_plan(self):
        """Two executors of ONE shared plan with opposite statistics settings
        must not interfere — the old implementation flipped a flag on the
        shared LIF ops, so the last-built executor silently won."""
        model = _tiny_vgg()
        silent = executor_for(model, use_runtime=True, collect_statistics=False)
        loud = executor_for(model, use_runtime=True, collect_statistics=True)
        assert silent.plan is loud.plan

        model.reset_spike_statistics()
        x = np.random.default_rng(3).random((2, 3, 8, 8)).astype(np.float32)
        silent.step(x)
        assert model.mean_spike_rate() == 0.0  # silent executor left counters alone
        loud.step(x)
        assert model.mean_spike_rate() > 0.0  # loud one still collects

    def test_plan_ops_expose_no_mutable_statistics_attribute(self):
        plan = plan_for(_tiny_vgg())
        for op in plan.ops:
            assert not hasattr(op, "collect_statistics")


class TestStemCache:
    def _rows(self, value: float):
        return (np.full((4, 3, 3), value, dtype=np.float32),)

    def test_hit_miss_accounting_and_lru_eviction(self):
        cache = StemCache(capacity=2)
        assert cache.lookup(b"a") is None
        cache.store(b"a", self._rows(1.0))
        cache.store(b"b", self._rows(2.0))
        assert cache.lookup(b"a") is not None  # refreshes a's recency
        cache.store(b"c", self._rows(3.0))    # evicts b (LRU)
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"a") is not None
        assert cache.lookup(b"c") is not None
        assert len(cache) == 2
        assert cache.hits == 3 and cache.misses == 2

    def test_clear_resets_entries_and_counters(self):
        cache = StemCache()
        cache.store(b"k", self._rows(1.0))
        cache.lookup(b"k")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            StemCache(capacity=0)

    def test_store_under_stale_signature_is_dropped(self):
        """Rows computed under old weights must not land after a concurrent
        reload flushed the cache: store_many re-checks the signature the
        rows were computed under inside the lock."""
        cache = StemCache()
        old_signature, new_signature = (object(),), (object(),)
        cache.validate(old_signature)
        cache.store_many([(b"k", self._rows(1.0))], signature=old_signature)
        assert len(cache) == 1
        cache.validate(new_signature)  # the reload, from another worker
        assert len(cache) == 0
        cache.store_many([(b"stale", self._rows(2.0))], signature=old_signature)
        assert len(cache) == 0  # dropped, never served
        cache.store_many([(b"fresh", self._rows(3.0))], signature=new_signature)
        assert len(cache) == 1


class TestKeyedStemMemo:
    def _setup(self):
        model = _tiny_vgg(encoder=EventFrameEncoder())
        executor = executor_for(model, use_runtime=True)
        assert executor.memo_enabled and not executor.stem_enabled
        rng = np.random.default_rng(9)
        frames = rng.random((6, 3, 8, 8)).astype(np.float32)
        keys = [frames[i].tobytes() for i in range(frames.shape[0])]
        return model, executor, frames, keys

    def test_mixed_hit_miss_assembly_is_bitwise(self):
        """Rows assembled from memo hits + a batched miss pass must equal an
        uncached full-width stem run, bit for bit."""
        model, executor, frames, keys = self._setup()
        reference = PlanExecutor(executor.plan)  # no memo at all
        expected_cold = reference.step(frames).copy()

        # Warm the memo with a subset (rows 0, 2, 4), fresh state after.
        executor.step(frames[[0, 2, 4]], stem_keys=[keys[i] for i in (0, 2, 4)])
        executor.reset_state()

        mixed = executor.step(frames, stem_keys=keys).copy()
        assert np.array_equal(mixed, expected_cold)
        memo = executor.stem_memo
        assert memo.hits == 3 and len(memo) == 6

    def test_fully_cached_batch_is_bitwise(self):
        model, executor, frames, keys = self._setup()
        reference = PlanExecutor(executor.plan)
        expected = reference.step(frames).copy()
        executor.step(frames, stem_keys=keys)
        executor.reset_state()
        replay = executor.step(frames, stem_keys=keys).copy()
        assert np.array_equal(replay, expected)

    def test_without_keys_memo_is_bypassed(self):
        model, executor, frames, keys = self._setup()
        executor.step(frames)  # no keys -> ordinary full stem run
        assert len(executor.stem_memo) == 0

    def test_key_length_mismatch_raises(self):
        model, executor, frames, keys = self._setup()
        with pytest.raises(ValueError, match="stem_keys"):
            executor.step(frames, stem_keys=keys[:2])

    def test_aligned_and_memo_modes_are_exclusive(self):
        model = _tiny_vgg()
        plan = plan_for(model)
        with pytest.raises(ValueError, match="mutually exclusive"):
            PlanExecutor(plan, stem_cache=True, stem_memo=plan.stem_cache)

    def test_memo_shared_across_executors_of_one_plan(self):
        model = _tiny_vgg(encoder=EventFrameEncoder())
        first = executor_for(model, use_runtime=True)
        second = executor_for(model, use_runtime=True)
        assert first.plan is second.plan
        assert first.stem_memo is second.stem_memo is first.plan.stem_cache

    def test_weight_replacement_flushes_memo(self):
        """Entries are functions of the stem weights: replacing a stem
        parameter (optimizer step / checkpoint load into a live model) must
        flush the memo, or replays would serve stale stem rows."""
        model, executor, frames, keys = self._setup()
        executor.step(frames, stem_keys=keys)
        assert len(executor.stem_memo) == 6

        conv1 = next(p for p in model.features.parameters())
        conv1.data = conv1.data * np.float32(1.5)
        executor.reset_state()
        updated = executor.step(frames, stem_keys=keys).copy()

        oracle_out = PlanExecutor(executor.plan).step(frames).copy()  # memo-free
        assert np.array_equal(updated, oracle_out)
        # Memo was flushed and refilled under the new signature, not reused.
        assert executor.stem_memo.hits == 0

    def test_plan_memo_capacity_is_the_constant(self):
        plan = plan_for(_tiny_vgg(encoder=EventFrameEncoder()))
        assert plan.stem_cache.capacity == STEM_CACHE_CAPACITY
