"""Multi-worker serving over one shared compiled plan — and the full
cross-composition matrix.

``Server(num_workers=N)`` runs N engines against the *same* model: the
lowered plan (op list, folded constants, stem memo) is compiled once through
the plan registry and shared read-only, while every worker keeps its own
executor state.  The tests pin the sharing itself, bitwise per-request
equivalence under real thread concurrency, the Tensor-oracle refusal, and the
abort-consistency contract: a replica failing mid-horizon must not disturb
its neighbours' trajectories, the shared registry, or the stem memo.

:class:`TestCrossCompositionMatrix` closes the loop over every scaling axis:
{1 thread, N threads, 1 process replica, N process replicas} x {burst,
steady} arrivals must all be decision-exact against the sequential oracle —
the per-sample batch invariance contract is composition-blind, so neither
the worker count, the worker *kind*, nor the arrival pattern may move a
prediction or an exit timestep (scores carry the one cross-composition
tolerance, owned by docs/NUMERICS.md "The one tolerance").
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.runtime import plan_for
from repro.serve import (
    InferenceEngine,
    Request,
    Response,
    Server,
    ServerClosedError,
    Telemetry,
)
from repro.serve.batcher import fail_round
from repro.snn import spiking_vgg
from repro.snn.encoding import EventFrameEncoder
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _model(encoder=None, seed=47):
    seed_everything(seed)
    kwargs = {"encoder": encoder} if encoder is not None else {}
    model = spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, **kwargs,
    ).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(batch, event=False, seed=3):
    rng = np.random.default_rng(seed)
    if event:
        return rng.random(
            (batch, TIMESTEPS + 1, 3, IMAGE_SIZE, IMAGE_SIZE)
        ).astype(np.float32)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _serve(model, xs, num_workers, batch_width=3, num_replicas=0, profile="burst"):
    server = Server(
        model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
        batch_width=batch_width, queue_capacity=len(xs),
        num_workers=num_workers, num_replicas=num_replicas,
        use_runtime=True,
    ).start()
    try:
        futures = []
        for x in xs:
            futures.append(server.submit(x))
            if profile == "steady":
                # Trickled arrivals: slots refill one by one, so every
                # worker sees constantly shifting batch compositions.
                time.sleep(0.002)
        results = [future.result(timeout=60.0) for future in futures]
    finally:
        server.shutdown(drain=True)
    return server, results


class TestSharedPlanServing:
    def test_workers_share_one_plan_with_private_state(self):
        model = _model()
        server = Server(
            model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS, num_workers=3,
            use_runtime=True,
        )
        engines = [batcher.engine for batcher in server.batchers]
        assert len(engines) == 3
        plans = {id(engine._executor.plan) for engine in engines}
        assert len(plans) == 1  # one compiled plan…
        assert engines[0]._executor.plan is plan_for(model)
        executors = {id(engine._executor) for engine in engines}
        assert len(executors) == 3  # …but per-worker executor state

    def test_two_workers_match_single_worker(self):
        """Concurrent workers stealing from one queue must not perturb any
        sample's *decisions*.  Worker assignment changes each step's batch
        composition, so scores get the cross-composition tolerance
        (docs/NUMERICS.md, "The one tolerance"); predictions and exit
        timesteps stay exact."""
        model = _model()
        xs = _inputs(48)
        _, reference = _serve(model, xs, num_workers=1)
        _, concurrent = _serve(model, xs, num_workers=2)
        decisions = lambda rs: {
            r.request_id: (r.prediction, r.exit_timestep) for r in rs
        }
        assert decisions(concurrent) == decisions(reference)
        order = lambda rs: [r.score for r in sorted(rs, key=lambda r: r.request_id)]
        np.testing.assert_allclose(
            order(concurrent), order(reference), rtol=1e-6, atol=1e-7
        )

    def test_event_stream_workers_share_the_stem_memo(self):
        model = _model(encoder=EventFrameEncoder())
        xs = _inputs(24, event=True)
        # Two passes over the same clips: the second is pure replay and must
        # hit the memo that the first pass (across BOTH workers) filled.
        _, first = _serve(model, xs, num_workers=2)
        memo = plan_for(model).stem_cache
        assert len(memo) > 0
        hits_before = memo.hits
        _, second = _serve(model, xs, num_workers=2)
        assert memo.hits > hits_before
        by_id = lambda rs: {
            r.request_id % len(xs): (r.prediction, r.exit_timestep) for r in rs
        }
        assert by_id(first) == by_id(second)

    def test_oracle_path_refuses_shared_model(self):
        with pytest.raises(ValueError, match="Tensor oracle"):
            Server(_model(), EntropyExitPolicy(0.5), num_workers=2, use_runtime=False)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="num_workers"):
            Server(_model(), EntropyExitPolicy(0.5), num_workers=0)


@pytest.mark.parametrize(
    "num_workers, num_replicas", [(1, 0), (2, 0), (1, 1)],
    ids=["1-worker", "2-workers", "1-replica"],
)
def test_serving_never_touches_spike_counters(num_workers, num_replicas):
    """Spike statistics are an offline feature (``DynamicTimestepInference``,
    ``IMCChip.from_network``): no serving composition writes the counters on
    the served model's LIF modules, so every composition leaves the same
    all-zero statistics an offline caller reset."""
    model = _model()
    model.reset_spike_statistics()
    untouched = model.spike_statistics()
    server, results = _serve(model, _inputs(32), num_workers=num_workers,
                             num_replicas=num_replicas)
    assert len(results) == 32
    assert all(batcher.engine.fast_path for batcher in server.batchers)
    statistics = model.spike_statistics()
    assert statistics == untouched
    assert all(layer["total_spikes"] == 0 and layer["total_updates"] == 0
               for layer in statistics.values())


class TestCrossCompositionMatrix:
    COMPOSITIONS = (
        ("threads", 1),
        ("threads", 2),
        ("replicas", 1),
        ("replicas", 2),
    )
    PROFILES = ("burst", "steady")

    def test_every_composition_is_decision_exact(self):
        model = _model()
        xs = _inputs(24)
        policy = EntropyExitPolicy(0.5)

        # Sequential oracle: one engine, one request at a time.
        engine = InferenceEngine(model, policy, max_timesteps=TIMESTEPS,
                                 use_runtime=True)
        oracle = {}
        for index in range(xs.shape[0]):
            engine.admit(Request(request_id=index, inputs=xs[index]), Response(), 0.0)
            while not engine.idle:
                for sample in engine.step():
                    oracle[sample.request.request_id] = (
                        sample.prediction, sample.exit_timestep,
                    )

        reference_scores = None
        for mode, count in self.COMPOSITIONS:
            for profile in self.PROFILES:
                cell = f"{count} {mode} / {profile}"
                _, results = _serve(
                    model, xs,
                    num_workers=count if mode == "threads" else 1,
                    num_replicas=count if mode == "replicas" else 0,
                    profile=profile,
                )
                decisions = {
                    r.request_id % len(xs): (r.prediction, r.exit_timestep)
                    for r in results
                }
                assert decisions == oracle, f"decisions diverged at {cell}"
                scores = [
                    r.score
                    for r in sorted(results, key=lambda r: r.request_id % len(xs))
                ]
                if reference_scores is None:
                    reference_scores = scores
                else:
                    np.testing.assert_allclose(
                        scores, reference_scores, rtol=1e-6, atol=1e-7,
                        err_msg=f"scores drifted past tolerance at {cell}",
                    )


class TestReplicaAbortConsistency:
    def test_fail_active_leaves_neighbour_trajectories_intact(self):
        """Engine B aborting mid-horizon must not touch engine A's membranes
        (they share the model object) nor the shared plan registry."""
        model = _model()
        xs = _inputs(6)
        policy = EntropyExitPolicy(0.5)

        def run_alone():
            engine = InferenceEngine(model, policy, max_timesteps=TIMESTEPS,
                                     use_runtime=True)
            outcomes = {}
            for index in range(xs.shape[0]):
                engine.admit(Request(request_id=index, inputs=xs[index]), Response(), 0.0)
            while not engine.idle:
                for sample in engine.step():
                    outcomes[sample.request.request_id] = (
                        sample.prediction, sample.exit_timestep, sample.score,
                    )
            return outcomes

        reference = run_alone()
        plan_before = plan_for(model)

        survivor = InferenceEngine(model, policy, max_timesteps=TIMESTEPS,
                                   use_runtime=True)
        doomed = InferenceEngine(model, policy, max_timesteps=TIMESTEPS,
                                 use_runtime=True)
        for index in range(xs.shape[0]):
            survivor.admit(Request(request_id=index, inputs=xs[index]), Response(), 0.0)
        doomed_responses = [Response() for _ in range(3)]
        for index, response in enumerate(doomed_responses):
            doomed.admit(Request(request_id=100 + index, inputs=xs[index]), response, 0.0)

        survivor.step()  # survivor is mid-horizon…
        doomed.step()
        failed = doomed.fail_active()
        assert [response for _, response in failed] == doomed_responses
        assert not any(response.done() for response in doomed_responses)
        fail_round(failed, ServerClosedError("replica abort"), "shed",
                   lambda: 0.0, Telemetry())
        for response in doomed_responses:
            with pytest.raises(ServerClosedError):
                response.result(timeout=0.1)
        assert doomed.idle and doomed.active_count == 0

        # …and finishes bitwise-identically despite the neighbour's abort.
        outcomes = {}
        while not survivor.idle:
            for sample in survivor.step():
                outcomes[sample.request.request_id] = (
                    sample.prediction, sample.exit_timestep, sample.score,
                )
        assert outcomes == reference
        assert plan_for(model) is plan_before  # registry untouched

    def test_fail_active_preserves_stem_memo_and_reuse_is_bitwise(self):
        """Aborts drop slot rows, not memo entries (pure content-keyed
        values), and a fresh session over the same clips still matches the
        Tensor oracle bit for bit."""
        model = _model(encoder=EventFrameEncoder())
        xs = _inputs(4, event=True)
        policy = EntropyExitPolicy(0.5)

        engine = InferenceEngine(model, policy, max_timesteps=TIMESTEPS,
                                 use_runtime=True)
        for index in range(xs.shape[0]):
            engine.admit(Request(request_id=index, inputs=xs[index]), Response(), 0.0)
        engine.step()
        memo = plan_for(model).stem_cache
        entries_before = len(memo)
        assert entries_before > 0
        live = engine.active_count
        assert len(engine.fail_active()) == live
        assert len(memo) == entries_before  # no stale-row scrubbing needed

        def outcomes_for(use_runtime):
            fresh = InferenceEngine(
                model, policy, max_timesteps=TIMESTEPS, use_runtime=use_runtime
            )
            collected = {}
            for index in range(xs.shape[0]):
                fresh.admit(Request(request_id=index, inputs=xs[index]), Response(), 0.0)
            while not fresh.idle:
                for sample in fresh.step():
                    collected[sample.request.request_id] = (
                        sample.prediction, sample.exit_timestep, sample.score,
                    )
            return collected

        assert outcomes_for(True) == outcomes_for(False)

    def test_oracle_engine_abort_still_resets_model_state(self):
        """On the Tensor path the engine owns the model's LIF state, so the
        abort must clear it (fresh sessions start from zero membranes)."""
        model = _model()
        engine = InferenceEngine(
            model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS, use_runtime=False
        )
        xs = _inputs(2)
        engine.admit(Request(request_id=0, inputs=xs[0]), Response(), 0.0)
        engine.step()
        assert any(
            layer.membrane is not None for layer in model.lif_layers()
        )
        live = engine.active_count
        assert len(engine.fail_active()) == live
        assert all(layer.membrane is None for layer in model.lif_layers())
