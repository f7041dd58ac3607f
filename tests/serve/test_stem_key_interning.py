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
  contract: caching may never cost a bit);
* the digest is one *computation* as well as one value — a request carries it
  from the engine to the trace recorder — and its value is frozen: recorded
  clip stores are keyed by it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.policies import EntropyExitPolicy
from repro.runtime import plan_for
from repro.serve import (
    InferenceEngine,
    Request,
    Response,
    Server,
    Telemetry,
    TraceRecorder,
    clip_digest,
    load_trace,
)
from repro.serve import request as request_module
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


class TestOneDigestOneComputation:
    def test_an_event_server_with_a_wal_digests_each_clip_once(self, tmp_path,
                                                               monkeypatch):
        """Engine (stem-memo key) and recorder (clip-store key) want the same
        digest of the same clip: whoever asks first computes it, the request
        carries it, the other reads it."""
        computed = []
        original = request_module.clip_digest

        def counting(inputs):
            computed.append(inputs)
            return original(inputs)

        monkeypatch.setattr(request_module, "clip_digest", counting)
        xs = _clips(12, seed=31)
        path = str(tmp_path / "wal.jsonl")
        recorder = TraceRecorder(path)
        server = Server(_model(seed=37), EntropyExitPolicy(0.5),
                        max_timesteps=TIMESTEPS, batch_width=4,
                        use_runtime=True, trace=recorder).start()
        try:
            for future in [server.submit(x) for x in xs]:
                future.result(timeout=60.0)
        finally:
            server.shutdown(drain=True)
            recorder.close()
        assert server.batchers[0].engine.stem_hash_count == len(xs)
        assert len(computed) == len(xs)
        assert {record.digest for record in load_trace(path).records} == {
            original(x).hex() for x in xs}

    def test_a_carried_digest_is_not_charged_to_the_engine_again(self):
        xs = _clips(2, seed=41)
        requests = [Request(request_id=i, inputs=x) for i, x in enumerate(xs)]
        assert requests[0].clip_digest() == clip_digest(xs[0])  # asked first
        engine = InferenceEngine(_model(), EntropyExitPolicy(0.0),
                                 max_timesteps=TIMESTEPS, use_runtime=True)
        engine.admit_batch([(request, Response(), 0.0) for request in requests])
        assert engine.stem_hash_count == 1
        assert [slot.stem_key for slot in engine._slots] == [
            clip_digest(x) for x in xs]


class TestDigestIsFrozen:
    """A "cheaper digest" that changes one of these orphans every recorded
    clip store: the WAL's records name their clips by this value."""

    GOLDEN = {
        "e1c0ed77eb79827e600fd3e6dc1679c9":
            np.arange(300, dtype=np.float32).reshape(3, 10, 10),
        "2600e9baddf80dac05f49dc2fbc7b7e1":
            np.arange(1200, dtype=np.float64).reshape(6, 2, 10, 10) * 0.5,
        "f1fd674740659b6ddc37f6dcc670fe53": np.arange(7, dtype=np.int32),
        "0776ff6b6410dfa1275a4cb0820c40e9": np.float64(3.5),
    }

    def test_goldens(self):
        for golden, array in self.GOLDEN.items():
            assert clip_digest(array).hex() == golden
            # Twice: the second call takes the shape's remembered prefix.
            assert clip_digest(array).hex() == golden

    def test_the_prefix_table_stays_bounded_and_right(self):
        for size in range(1, 1001):
            array = np.full((size,), 0.25, dtype=np.float32)
            reference = hashlib.blake2b(digest_size=16)
            reference.update(repr(((size,), "<f4")).encode())
            reference.update(array.tobytes())
            assert clip_digest(array) == reference.digest()
            assert len(request_module._DIGEST_PREFIXES) <= (
                request_module._DIGEST_PREFIX_LIMIT)
