"""Stem-memo key interning: hash once per request, not per row per step.

The event-stream stem memo used to build its keys from ``tobytes()`` of every
slot's encoded frame on every timestep — a full frame copy per row per step.
Keys are now interned at admission: one 128-bit content digest of the whole
clip, combined per step with the encoder's recorded-frame index.  These tests
pin the three things that must hold:

* the micro-regression itself — exactly ONE digest per admitted request,
  regardless of horizon length, burst size or batch composition;
* cache semantics survive the key change — replayed clips still hit across
  requests/engines, padded tail frames still dedupe within a clip;
* decisions and scores stay bitwise-identical to the Tensor oracle (the memo
  contract: caching may never cost a bit).
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import EntropyExitPolicy
from repro.runtime import plan_for
from repro.serve import (
    InferenceEngine,
    Request,
    Response,
    Telemetry,
    TraceRecorder,
    clip_digest,
    load_trace,
)
from repro.serve.batcher import complete_round
from repro.snn import spiking_vgg
from repro.snn.encoding import EventFrameEncoder
from repro.utils import seed_everything

TIMESTEPS = 5
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _model(seed=47):
    seed_everything(seed)
    return spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, encoder=EventFrameEncoder(),
    ).eval()


def _clips(batch, frames=TIMESTEPS, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random((batch, frames, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _run_all(engine, xs, policy_runs_full_horizon=True):
    outcomes = {}
    for index in range(xs.shape[0]):
        engine.admit(Request(request_id=index, inputs=xs[index]), Response(), 0.0)
    while not engine.idle:
        for sample in engine.step():
            outcomes[sample.request.request_id] = (
                sample.prediction, sample.exit_timestep, sample.score,
            )
    return outcomes


class TestKeyInterningRegression:
    def test_one_hash_per_request_regardless_of_horizon(self):
        model = _model()
        xs = _clips(6)
        # threshold 0 never exits early: every request runs all TIMESTEPS
        # steps, so per-step hashing would show up as count = N * T.
        engine = InferenceEngine(
            model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS, use_runtime=True
        )
        assert engine.stem_hash_count == 0
        _run_all(engine, xs)
        assert engine.stem_hash_count == xs.shape[0]

    def test_burst_admission_hashes_once_per_request_too(self):
        model = _model()
        xs = _clips(8, seed=11)
        engine = InferenceEngine(
            model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS, use_runtime=True
        )
        engine.admit_batch([
            (Request(request_id=index, inputs=xs[index]), Response(), 0.0)
            for index in range(xs.shape[0])
        ])
        while not engine.idle:
            engine.step()
        assert engine.stem_hash_count == xs.shape[0]

    def test_memo_key_clip_digest_and_wal_digest_are_one_value(self, tmp_path):
        """One digest function: what the engine interns as a slot's memo-key
        prefix is what ``clip_digest`` returns and what the WAL records for
        the same request — and the WAL's digest is the sink's own call, not a
        second one charged to the engine."""
        xs = _clips(3, seed=29)
        engine = InferenceEngine(
            _model(seed=23), EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS,
            use_runtime=True,
        )
        engine.admit_batch([
            (Request(request_id=index, inputs=xs[index]), Response(), 0.0)
            for index in range(xs.shape[0])
        ])
        interned = [slot.stem_key for slot in engine._slots]
        assert interned == [clip_digest(x) for x in xs]
        finished = []
        while not engine.idle:
            finished.extend(engine.step())
        path = str(tmp_path / "wal.jsonl")
        with TraceRecorder(path) as recorder:
            complete_round(finished, lambda: 1.0, Telemetry(), trace=recorder)
        recorded = {record.request_id: record.digest
                    for record in load_trace(path).records}
        assert recorded == {index: key.hex() for index, key in enumerate(interned)}
        assert engine.stem_hash_count == xs.shape[0]

    def test_padded_tail_frames_share_one_memo_entry(self):
        model = _model(seed=5)
        # 2 recorded frames under a 5-step horizon: steps 1..4 all replay
        # frame index 1, so after the two cold misses every later step hits.
        xs = _clips(1, frames=2, seed=9)
        memo = plan_for(model).stem_cache
        memo.clear()
        engine = InferenceEngine(
            model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS, use_runtime=True
        )
        _run_all(engine, xs)
        assert memo.misses == 2
        assert memo.hits == TIMESTEPS - 2

    def test_replayed_clips_hit_across_engines(self):
        model = _model(seed=7)
        xs = _clips(4, seed=13)
        memo = plan_for(model).stem_cache
        memo.clear()
        first = InferenceEngine(
            model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS, use_runtime=True
        )
        _run_all(first, xs)
        hits_before = memo.hits
        second = InferenceEngine(
            model, EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS, use_runtime=True
        )
        replay = _run_all(second, xs)
        # Pure replay: every step of every slot resolves from the memo.
        assert memo.hits == hits_before + xs.shape[0] * TIMESTEPS
        assert replay == _run_all(
            InferenceEngine(model, EntropyExitPolicy(0.0),
                            max_timesteps=TIMESTEPS, use_runtime=True),
            xs,
        )

    def test_interned_keys_stay_bitwise_equal_to_oracle(self):
        model = _model(seed=17)
        for parameter in model.classifier.parameters():
            parameter.data = parameter.data * np.float32(25.0)
        xs = _clips(6, seed=19)

        def outcomes(use_runtime):
            engine = InferenceEngine(
                model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
                use_runtime=use_runtime,
            )
            return _run_all(engine, xs)

        assert outcomes(True) == outcomes(False)
