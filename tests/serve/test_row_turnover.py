"""Rows that stay: a retired row is refilled where it is, or closed.

A row's life in :class:`InferenceEngine` is admit → steps → *free* → recycled
(the next ``admit_batch`` writes a newcomer into it) or closed (``step()``
compacts out whatever nobody took).  These tests pin both ends of that rule:

* closed-loop traffic never compacts and never moves a survivor;
* leftovers are closed before they could be computed, so the stepped widths
  are exactly the live counts (what HEAD stepped before rows stayed);
* the compiled-plan path and the Tensor oracle place every request at the
  same row — scores are compared with ``==``, because a row's GEMM result
  depends on its position in the batch (docs/NUMERICS.md);
* free rows are invisible to everything but admission: a rejected round, an
  abort, a stem invalidation and the event encoder's frame gather.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import EntropyExitPolicy, StaticExitPolicy
from repro.runtime import PlanExecutor
from repro.serve import (
    AdmissionQueue,
    AdmissionRejectedError,
    ContinuousBatcher,
    InferenceEngine,
    Request,
    Response,
    Server,
    ServerClosedError,
    Telemetry,
    ThresholdEpoch,
)
from repro.serve.batcher import fail_round
from repro.snn import spiking_vgg
from repro.snn.encoding import EventFrameEncoder
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10
WIDTH = 8
# Where this model's exits spread over timesteps 2..4 on random inputs, so
# most steps retire some rows and keep others.
THRESHOLDS = {False: 0.8, True: 0.9}

_MODELS = {}


def _model(event: bool = False):
    if event not in _MODELS:
        seed_everything(47)
        kwargs = {"encoder": EventFrameEncoder()} if event else {}
        model = spiking_vgg(
            "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
            default_timesteps=TIMESTEPS, **kwargs,
        ).eval()
        for parameter in model.classifier.parameters():
            parameter.data = parameter.data * np.float32(25.0)
        _MODELS[event] = model
    return _MODELS[event]


def _inputs(batch: int, event: bool = False, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (batch, TIMESTEPS + 1, 3, IMAGE_SIZE, IMAGE_SIZE) if event else (
        batch, 3, IMAGE_SIZE, IMAGE_SIZE)
    return rng.random(shape).astype(np.float32)


def _engine(event: bool = False, use_runtime: bool = True, policy=None):
    return InferenceEngine(
        _model(event), policy or EntropyExitPolicy(THRESHOLDS[event]),
        max_timesteps=TIMESTEPS,
        use_runtime=use_runtime,
    )


def _round(inputs, ids, responses=None):
    return [
        (Request(request_id=index, inputs=inputs[index]),
         Response() if responses is None else responses.setdefault(index, Response()),
         0.0)
        for index in ids
    ]


def _outcome(sample):
    return (sample.prediction, sample.exit_timestep, sample.score)


def _row_ids(engine):
    """Request id per engine row, ``None`` where the row is free."""
    return [None if slot is None else slot.request.request_id
            for slot in engine._slots]


def _step_until_some_retire_and_some_survive(engine):
    """Step until a step leaves the engine with both free rows and live
    rows; returns that step's completions."""
    while True:
        done = engine.step()
        if done:
            assert engine._free and engine.active_count, (
                "fixture drift: the stream no longer splits a batch")
            return done


# --------------------------------------------------------------------------- #
# (a) closed-loop turnover
# --------------------------------------------------------------------------- #
class TestClosedLoopTurnover:
    STREAM = 64
    # engine.total_sample_timesteps for this stream at HEAD before rows
    # stayed (commit 114ebb0): the forward rows executed must not change.
    HEAD_SAMPLE_TIMESTEPS = 170

    def _batcher(self):
        engine = _engine()
        queue = AdmissionQueue(capacity=self.STREAM)
        inputs = _inputs(self.STREAM, seed=11)
        for index in range(self.STREAM):
            queue.put(Request(request_id=index, inputs=inputs[index]), Response())
        queue.close()
        return engine, queue, ContinuousBatcher(engine, queue, batch_width=WIDTH)

    def test_no_compaction_one_extension_per_round_and_survivors_stay(
            self, monkeypatch, executor_state):
        compactions, extensions = [], []
        compact, extend = PlanExecutor.compact_rows, PlanExecutor.extend_rows

        def counting_compact(self, keep):
            compactions.append(int(np.count_nonzero(keep)))
            return compact(self, keep)

        def counting_extend(self, count, frames=None, recycle=None):
            extensions.append((count, 0 if recycle is None else len(recycle)))
            return extend(self, count, frames=frames, recycle=recycle)

        monkeypatch.setattr(PlanExecutor, "compact_rows", counting_compact)
        monkeypatch.setattr(PlanExecutor, "extend_rows", counting_extend)
        engine, queue, batcher = self._batcher()
        executor = engine._executor

        batcher.run_once()  # the first round appends WIDTH rows
        assert extensions == [(WIDTH, 0)]
        admission_rounds = survivors_checked = 0
        # While the queue can refill every free row, the loop is closed.
        while queue.depth() >= WIDTH:
            free = list(engine._free)
            before = _row_ids(engine)
            membranes = [None if m is None else m.copy()
                         for m in executor_state(executor)[0]]
            calls = len(extensions)
            batcher._fill_slots()
            after = _row_ids(engine)
            refilled = executor_state(executor)[0]
            assert engine.active_count == WIDTH and not engine._free
            if free:
                admission_rounds += 1
                # ONE extension for the round, every newcomer into a free row.
                assert extensions[calls:] == [(len(free), len(free))]
            else:
                assert len(extensions) == calls
            for row, (was, now) in enumerate(zip(before, after)):
                if was is None:
                    assert now is not None and row in free
                    # A recycled row starts from fresh (zero) membranes.
                    assert all(m is None or not m[row].any() for m in refilled)
                else:
                    # A survivor keeps its row and its membrane bits while
                    # its neighbours are replaced.
                    assert now == was
                    for kept, membrane in zip(membranes, refilled):
                        if membrane is not None:
                            assert np.array_equal(kept[row], membrane[row])
                    survivors_checked += bool(free)
            assert executor.batch_rows == WIDTH
            engine.step()
            executor_state(executor)  # no op left a strided activation
        assert admission_rounds >= 5 and survivors_checked >= 5
        assert compactions == []
        assert len(extensions) == 1 + admission_rounds

        batcher.run_until_drained(wait_timeout=0.0)
        assert engine.idle
        assert engine.total_sample_timesteps == self.HEAD_SAMPLE_TIMESTEPS


# --------------------------------------------------------------------------- #
# (b) leftovers are closed, not computed
# --------------------------------------------------------------------------- #
class TestLeftoversAreClosed:
    # executor.step row counts of this burst at HEAD (commit 114ebb0).
    HEAD_WIDTHS = [8, 8, 4, 3]

    def test_a_burst_with_an_empty_queue_steps_the_live_widths(self, monkeypatch):
        widths = []
        step = PlanExecutor.step

        def recording_step(self, frame, stem_keys=None):
            widths.append(self.batch_rows)
            return step(self, frame, stem_keys)

        monkeypatch.setattr(PlanExecutor, "step", recording_step)
        engine = _engine()
        inputs = _inputs(WIDTH, seed=5)
        engine.admit_batch(_round(inputs, range(WIDTH)))
        exits = []
        while not engine.idle:
            exits.extend(sample.exit_timestep for sample in engine.step())
        # No dead row is ever computed: step k runs exactly the requests
        # still alive after k steps.
        assert widths == [sum(1 for t in exits if t > k) for k in range(max(exits))]
        assert widths == self.HEAD_WIDTHS
        assert engine.total_sample_timesteps == sum(widths)

    def test_a_static_round_is_recycled_whole(self, monkeypatch):
        """The static policy retires all rows at once: the next burst takes
        every row in place and nothing is compacted."""
        compactions = []
        compact = PlanExecutor.compact_rows
        monkeypatch.setattr(
            PlanExecutor, "compact_rows",
            lambda self, keep: compactions.append(1) or compact(self, keep))
        engine = _engine(policy=StaticExitPolicy())
        inputs = _inputs(2 * WIDTH, seed=9)
        outcomes = {}
        for burst in (range(WIDTH), range(WIDTH, 2 * WIDTH)):
            engine.admit_batch(_round(inputs, burst))
            assert _row_ids(engine) == list(burst)
            while not engine.idle:
                for sample in engine.step():
                    outcomes[sample.request.request_id] = _outcome(sample)
            assert engine._free == list(range(WIDTH))
        assert compactions == []
        oracle = _engine(policy=StaticExitPolicy(), use_runtime=False)
        for burst in (range(WIDTH), range(WIDTH, 2 * WIDTH)):
            oracle.admit_batch(_round(inputs, burst))
            while not oracle.idle:
                for sample in oracle.step():
                    assert outcomes[sample.request.request_id] == _outcome(sample)


# --------------------------------------------------------------------------- #
# (c) both engine paths share the placement rule — scores included
# --------------------------------------------------------------------------- #
_thresholds = st.floats(0.6, 0.97)
_knob = st.tuples(
    st.one_of(st.none(), _thresholds),
    st.one_of(st.none(), st.integers(1, TIMESTEPS + 1)),
)
_program = st.lists(
    st.one_of(st.just("step"), st.lists(_knob, min_size=1, max_size=WIDTH)),
    min_size=2, max_size=14,
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), _thresholds, _program,
       st.sampled_from([False, True]))
def test_fast_path_and_oracle_agree_bitwise_on_any_interleaving(
        seed, live, program, event):
    total = sum(len(op) for op in program if op != "step")
    inputs = _inputs(max(total, 1), event=event, seed=seed)

    def run(use_runtime):
        engine = _engine(event=event, use_runtime=use_runtime,
                         policy=EntropyExitPolicy(live))
        assert engine.fast_path == use_runtime
        outcomes, placements = {}, []
        admitted = completed = 0

        def drain(samples):
            nonlocal completed
            for sample in samples:
                outcomes[sample.request.request_id] = _outcome(sample)
            completed += len(samples)
            assert engine.active_count == admitted - completed
            assert engine.idle == (admitted == completed)

        for op in program:
            if op == "step":
                drain(engine.step())
                continue
            engine.admit_batch([
                (Request(
                    request_id=admitted + offset, inputs=inputs[admitted + offset],
                    epoch=(None if pin is None and cap is None else
                           ThresholdEpoch(epoch=offset, threshold=pin, horizon=cap)),
                ), Response(), 0.0)
                for offset, (pin, cap) in enumerate(op)
            ])
            admitted += len(op)
            assert engine.active_count == admitted - completed
            placements.append(_row_ids(engine))
        while not engine.idle:
            drain(engine.step())
        assert len(outcomes) == admitted
        return outcomes, placements

    fast, fast_rows = run(True)
    oracle, oracle_rows = run(False)
    assert fast_rows == oracle_rows  # every request at the same row
    assert fast == oracle  # predictions, exit timesteps AND scores, bitwise


# --------------------------------------------------------------------------- #
# (d) hostile moments with rows free
# --------------------------------------------------------------------------- #
class TestFreeRowsUnderHostileMoments:
    def _reference(self, inputs, first, second, event=False):
        """The same two rounds on an engine nothing hostile happens to."""
        engine = _engine(event=event)
        engine.admit_batch(_round(inputs, first))
        outcomes = {s.request.request_id: _outcome(s)
                    for s in _step_until_some_retire_and_some_survive(engine)}
        engine.admit_batch(_round(inputs, second[:len(engine._free)]))
        while not engine.idle:
            outcomes.update({s.request.request_id: _outcome(s) for s in engine.step()})
        return outcomes

    def test_a_rejected_round_leaves_free_rows_free_for_the_next_good_round(self):
        inputs = _inputs(2 * WIDTH, seed=13)
        first, second = list(range(WIDTH)), list(range(WIDTH, 2 * WIDTH))
        engine = _engine()
        engine.admit_batch(_round(inputs, first))
        outcomes = {s.request.request_id: _outcome(s)
                    for s in _step_until_some_retire_and_some_survive(engine)}
        free, rows = list(engine._free), _row_ids(engine)

        bad = Response()
        with pytest.raises(AdmissionRejectedError):
            engine.admit_batch([
                (Request(request_id=90, inputs=inputs[0]), Response(), 0.0),
                (Request(request_id=91, inputs=inputs[0][:, :5]), bad, 0.0),
            ])
        assert not bad.done()  # the caller's fail_round fails it
        assert engine._free == free and _row_ids(engine) == rows

        take = second[:len(free)]
        engine.admit_batch(_round(inputs, take))
        assert not engine._free
        assert [_row_ids(engine)[row] for row in free] == take
        while not engine.idle:
            outcomes.update({s.request.request_id: _outcome(s) for s in engine.step()})
        assert outcomes == self._reference(inputs, first, second)

    def test_fail_active_fails_exactly_the_live_requests_and_recovers(self):
        inputs = _inputs(2 * WIDTH, seed=13)
        responses = {}
        engine = _engine()
        engine.admit_batch(_round(inputs, range(WIDTH), responses))
        retired = {s.request.request_id
                   for s in _step_until_some_retire_and_some_survive(engine)}
        live = engine.active_count
        assert live == WIDTH - len(retired)

        failed = engine.fail_active()
        # Exactly the live requests, none resolved: the caller fails them.
        assert sorted(request.request_id for request, _ in failed) == sorted(
            set(responses) - retired)
        assert [response for _, response in failed] == [
            responses[request.request_id] for request, _ in failed]
        assert not any(response.done() for response in responses.values())
        fail_round(failed, ServerClosedError("abort"), "shed", lambda: 0.0, Telemetry())
        for index, response in responses.items():
            # A retired request's future belongs to the completion sink.
            assert response.done() == (index not in retired)
            if index not in retired:
                with pytest.raises(ServerClosedError):
                    response.result(timeout=0.0)
        assert engine.idle and engine.active_count == 0
        assert engine._slots == [] and engine._free == []

        fresh = _engine()
        for target in (engine, fresh):
            target.admit_batch(_round(inputs, range(WIDTH, 2 * WIDTH)))
        while not fresh.idle:
            assert ([(s.request.request_id, _outcome(s)) for s in engine.step()]
                    == [(s.request.request_id, _outcome(s)) for s in fresh.step()])
        assert engine.idle

    def test_invalidate_stem_between_retire_and_admit(self, executor_state):
        """A reload landing while rows are free: the refill must not write
        fresh stem rows next to stale ones — the stem stays invalidated and
        the next step recomputes it for every live row."""
        inputs = _inputs(2 * WIDTH, seed=13)
        first, second = list(range(WIDTH)), list(range(WIDTH, 2 * WIDTH))
        engine = _engine()
        executor = engine._executor
        assert executor.stem_enabled
        engine.admit_batch(_round(inputs, first))
        outcomes = {s.request.request_id: _outcome(s)
                    for s in _step_until_some_retire_and_some_survive(engine)}
        # Whatever the old stem rows held is garbage after a reload.
        for buffer in executor._row_scratch.buffers.values():
            buffer.fill(np.nan)
        engine.invalidate_stem()
        engine.admit_batch(_round(inputs, second[:len(engine._free)]))
        assert executor._stem is None and executor.needs_frame
        outcomes.update({s.request.request_id: _outcome(s) for s in engine.step()})
        assert executor._stem is not None and not executor.needs_frame
        for rows in executor_state(executor)[1].values():
            assert rows.shape[0] == executor.batch_rows and np.isfinite(rows).all()
        while not engine.idle:
            outcomes.update({s.request.request_id: _outcome(s) for s in engine.step()})
        assert outcomes == self._reference(inputs, first, second)

    def test_event_engine_never_gathers_a_frame_from_a_free_row(self, monkeypatch):
        frames = []
        step = PlanExecutor.step

        def recording_step(self, frame, stem_keys=None):
            frames.append((frame.shape[0], len(stem_keys)))
            return step(self, frame, stem_keys)

        monkeypatch.setattr(PlanExecutor, "step", recording_step)
        inputs = _inputs(2 * WIDTH, event=True, seed=17)
        engine = _engine(event=True)
        assert engine._executor.memo_enabled and engine._executor.needs_frame
        engine.admit_batch(_round(inputs, range(WIDTH)))
        outcomes = {s.request.request_id: _outcome(s)
                    for s in _step_until_some_retire_and_some_survive(engine)}
        # Refill only SOME of the free rows: the rest are closed before the
        # gather, so the frame holds live clips only.
        free = len(engine._free)
        assert free >= 2
        engine.admit_batch(_round(inputs, range(WIDTH, WIDTH + free - 1)))
        assert engine._free and None in engine._slots
        live = engine.active_count
        outcomes.update({s.request.request_id: _outcome(s) for s in engine.step()})
        assert frames[-1] == (live, live)
        while not engine.idle:
            live = engine.active_count
            outcomes.update({s.request.request_id: _outcome(s) for s in engine.step()})
            assert frames[-1] == (live, live)

        oracle = _engine(event=True, use_runtime=False)
        oracle.admit_batch(_round(inputs, range(WIDTH)))
        expected = {s.request.request_id: _outcome(s)
                    for s in _step_until_some_retire_and_some_survive(oracle)}
        oracle.admit_batch(_round(inputs, range(WIDTH, WIDTH + free - 1)))
        while not oracle.idle:
            expected.update({s.request.request_id: _outcome(s) for s in oracle.step()})
        assert outcomes == expected


def test_a_retired_request_is_not_pinned_by_an_idle_engine_with_free_rows():
    """Rows stay, references do not: once the completion is dropped, the
    request and its clip are collectable while the engine still holds the
    (free) rows they ran in."""
    engine = _engine(event=True)
    clips = [clip.copy() for clip in _inputs(WIDTH, event=True, seed=19)]
    requests = [Request(request_id=i, inputs=clip) for i, clip in enumerate(clips)]
    # A slotted Request takes no weakref, but it is the only holder of its
    # clip: a dead clip proves a dead Request.
    probes = [weakref.ref(clip) for clip in clips]
    engine.admit_batch([(request, Response(), 0.0) for request in requests])
    del requests, clips
    while not engine.idle:
        engine.step()  # completions dropped on the floor, like a client would
    assert engine.idle and engine._free and engine._executor.batch_rows
    gc.collect()
    assert all(probe() is None for probe in probes)


# --------------------------------------------------------------------------- #
# (e) compositions still decide like the single worker
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workers, replicas", [(2, 0), (1, 1)])
def test_compositions_match_the_single_worker_decisions(workers, replicas):
    """tests/serve/test_multi_engine.py's cross-composition stream (seed 3,
    24 requests, width 3): a second worker thread and a replica child run
    this same engine, so neither may move a decision."""
    xs = _inputs(24, seed=3)

    def serve(num_workers, num_replicas):
        server = Server(
            _model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=len(xs), num_workers=num_workers,
            num_replicas=num_replicas, use_runtime=True,
        ).start()
        try:
            results = [future.result(timeout=60.0)
                       for future in [server.submit(x) for x in xs]]
        finally:
            server.shutdown(drain=True)
        return {r.request_id: (r.prediction, r.exit_timestep) for r in results}

    assert serve(workers, replicas) == serve(1, 0)
