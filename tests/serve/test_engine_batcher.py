"""Continuous-batching engine: equivalence, mid-horizon splicing, occupancy.

The load-bearing property is that serving a stream through the continuous
batcher — slots freed by early exits refilled mid-horizon with fresh membrane
state — produces *bitwise* the same predictions and exit timesteps as the
cached-logits fast path (:meth:`DynamicTimestepInference.infer_from_logits`)
for every sample, because per-sample SNN dynamics are independent of batch
composition.
"""

import numpy as np
import pytest

from repro.core import DynamicTimestepInference, EntropyExitPolicy, StaticExitPolicy
from repro.data import SyntheticDVSConfig, make_dvs_like
from repro.serve import (
    AdmissionQueue,
    CompletedSample,
    ContinuousBatcher,
    InferenceEngine,
    Request,
    Response,
)
from repro.serve.batcher import complete_round
from repro.snn import EventFrameEncoder, spiking_vgg
from repro.utils import seed_everything


def enqueue_dataset(dataset, count=None):
    queue = AdmissionQueue(capacity=len(dataset))
    responses = []
    for index in range(count or len(dataset)):
        response = Response()
        queue.put(
            Request(request_id=index, inputs=dataset.inputs[index],
                    label=int(dataset.labels[index])),
            response,
        )
        responses.append(response)
    queue.close()
    return queue, responses


def serve_results(model, policy, dataset, batch_width, max_timesteps=4, count=None):
    queue, responses = enqueue_dataset(dataset, count=count)
    engine = InferenceEngine(model, policy, max_timesteps=max_timesteps)
    batcher = ContinuousBatcher(engine, queue, batch_width=batch_width)
    completed = batcher.run_until_drained()
    assert completed == len(responses)
    return [response.result(timeout=1.0) for response in responses], engine


class TestServeEquivalence:
    @pytest.mark.parametrize("batch_width", [1, 3, 8])
    def test_bitwise_match_with_fast_path(
        self, trained_model, tiny_dataset, cumulative_logits, batch_width
    ):
        _, test = tiny_dataset
        threshold = 0.2
        results, _ = serve_results(
            trained_model, EntropyExitPolicy(threshold), test, batch_width
        )
        reference = DynamicTimestepInference(
            policy=EntropyExitPolicy(threshold), max_timesteps=4
        ).infer_from_logits(cumulative_logits["logits"], cumulative_logits["labels"])
        assert np.array_equal(
            [r.prediction for r in results], reference.predictions
        )
        assert np.array_equal(
            [r.exit_timestep for r in results], reference.exit_timesteps
        )
        # Serve-vs-offline batch composition: docs/NUMERICS.md, "The one tolerance".
        np.testing.assert_allclose(
            [r.score for r in results], reference.scores, rtol=1e-6, atol=1e-7
        )

    def test_static_policy_runs_full_horizon(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        results, engine = serve_results(
            trained_model, StaticExitPolicy(), test, batch_width=4, count=12
        )
        assert all(r.exit_timestep == 4 for r in results)
        assert engine.total_sample_timesteps == 12 * 4

    def test_early_exit_reduces_forward_work(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        results, engine = serve_results(
            trained_model, EntropyExitPolicy(0.9), test, batch_width=4
        )
        horizon_work = len(results) * 4
        assert engine.total_sample_timesteps == sum(r.exit_timestep for r in results)
        assert engine.total_sample_timesteps < horizon_work

    def test_event_encoder_slots_use_their_own_timestep(self):
        """Mid-horizon splices must index the event stream per-slot, not globally."""
        seed_everything(21)
        dataset = make_dvs_like(
            SyntheticDVSConfig(
                num_classes=4, num_samples=18, num_frames=4, image_size=8, seed=13
            )
        )
        model = spiking_vgg(
            "tiny", num_classes=4, in_channels=dataset.sample_shape[-3],
            input_size=8, default_timesteps=4, encoder=EventFrameEncoder(),
        )
        policy = EntropyExitPolicy(0.85)
        results, _ = serve_results(model, policy, dataset, batch_width=3)
        chunks = [
            model.forward(dataset.inputs[start:start + 8], 4).cumulative_numpy()
            for start in range(0, len(dataset), 8)
        ]
        reference = DynamicTimestepInference(
            policy=EntropyExitPolicy(0.85), max_timesteps=4
        ).infer_from_logits(np.concatenate(chunks, axis=1))
        assert np.array_equal([r.prediction for r in results], reference.predictions)
        assert np.array_equal([r.exit_timestep for r in results], reference.exit_timesteps)


class TestContinuousBatching:
    def test_slots_refilled_mid_horizon(self, trained_model, tiny_dataset):
        """With width < stream length the batcher must splice requests in while
        earlier ones are still mid-horizon (full occupancy until the tail)."""
        _, test = tiny_dataset
        queue, responses = enqueue_dataset(test, count=20)
        engine = InferenceEngine(trained_model, EntropyExitPolicy(0.9), max_timesteps=4)
        batcher = ContinuousBatcher(engine, queue, batch_width=4)

        occupancies = []
        while queue.depth() or not engine.idle:
            batcher.run_once()
            occupancies.append(engine.active_count)
        assert all(response.done() for response in responses)
        # Full occupancy except while the tail drains.
        drained_tail = [o for o in occupancies if o < 4]
        assert occupancies[: len(occupancies) - len(drained_tail)] == [4] * (
            len(occupancies) - len(drained_tail)
        )
        # Strictly fewer steps than serial batches would need: with early exit
        # at threshold 0.9 most samples leave after 1-2 timesteps.
        assert engine.total_sample_timesteps < 20 * 4

    def test_batcher_prices_requests_on_cost_model(self, trained_model, tiny_dataset):
        class UnitCost:
            def energy(self, timesteps):
                return 2.0 * timesteps

            def latency(self, timesteps):
                return 0.5 * timesteps

        _, test = tiny_dataset
        queue, responses = enqueue_dataset(test, count=6)
        engine = InferenceEngine(trained_model, EntropyExitPolicy(0.5), max_timesteps=4)
        batcher = ContinuousBatcher(engine, queue, batch_width=3, cost_model=UnitCost())
        batcher.run_until_drained()
        for response in responses:
            result = response.result(timeout=1.0)
            assert result.energy == pytest.approx(2.0 * result.exit_timestep)
            assert result.edp == pytest.approx(result.energy * 0.5 * result.exit_timestep)

    def test_telemetry_histogram_matches_results(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        queue, responses = enqueue_dataset(test, count=16)
        engine = InferenceEngine(trained_model, EntropyExitPolicy(0.7), max_timesteps=4)
        batcher = ContinuousBatcher(engine, queue, batch_width=4)
        batcher.run_until_drained()
        results = [r.result(timeout=1.0) for r in responses]
        histogram = batcher.telemetry.exit_histogram(4)
        expected = np.bincount([r.exit_timestep for r in results], minlength=5)[1:]
        assert np.array_equal(histogram, expected)
        assert batcher.telemetry.snapshot()["completed"] == 16.0


def test_advance_retires_samples_and_records_nothing(trained_model, tiny_dataset):
    """``advance()`` is the deciding half of a round — fill, sample the
    gauges, step — and ``complete_round`` the recording half; ``run_once``
    is exactly their composition.  A replica child runs only the first."""
    _, test = tiny_dataset

    def batcher_over(count):
        queue, responses = enqueue_dataset(test, count=count)
        engine = InferenceEngine(trained_model, EntropyExitPolicy(0.9), max_timesteps=4)
        return ContinuousBatcher(engine, queue, batch_width=4), responses

    batcher, responses = batcher_over(12)
    telemetry = batcher.telemetry
    split, rounds = [], 0
    while batcher.queue.depth() or not batcher.engine.idle:
        done_before = sum(response.done() for response in responses)
        retired = batcher.advance()
        rounds += 1
        assert all(isinstance(sample, CompletedSample) for sample in retired)
        # Nothing was recorded or resolved: the samples are all there is.
        assert telemetry.completed == done_before
        assert sum(response.done() for response in responses) == done_before
        assert not any(sample.response.done() for sample in retired)
        assert len(telemetry.occupancy_samples()) == rounds  # one sample a round
        results = complete_round(retired, batcher.clock, telemetry)
        assert all(sample.response.result(timeout=0) is result
                   for sample, result in zip(retired, results))
        assert telemetry.completed == done_before + len(retired)
        split.extend((r.request_id, r.prediction, r.exit_timestep) for r in results)
    assert len(split) == 12 and all(response.done() for response in responses)

    twin, _ = batcher_over(12)
    fused = []
    while twin.queue.depth() or not twin.engine.idle:
        fused.extend((r.request_id, r.prediction, r.exit_timestep)
                     for r in twin.run_once())
    assert fused == split
    assert twin.telemetry.occupancy_samples() == telemetry.occupancy_samples()
