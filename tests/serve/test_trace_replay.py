"""Traffic WAL record/replay: format, crash recovery, and the bitwise gate.

Three contracts pinned here:

1. **WAL round trip** — a live serve run recorded through
   :class:`~repro.serve.TraceRecorder` loads back with every field intact,
   clips deduplicated by content digest, and rejections preserved.
2. **Crash recovery** — a trace whose tail was interrupted mid-append (torn
   record line, corrupt CRC, truncated clip frame) loads its longest valid
   prefix and flags ``Trace.truncated``; nothing before the tear is lost.
3. **Cross-composition replay** — the backtester's recorded baseline
   (:meth:`~repro.serve.Backtester.replay`) re-serves the same recorded
   trace decision-exact (bitwise predictions and exit timesteps) through
   thread workers and process replicas alike.  Per-sample batch invariance
   is what makes this well-defined; its refusal cases (missing clips,
   moving threshold, mismatched server knobs) keep it honest.
4. **Durability order** — the completion sink flushes a round's WAL lines
   once, before any of the round's futures resolves: a resolved future's
   line and clip are already readable through a second file handle, on the
   thread batcher and through the replica collector alike.
5. **Typed values and the clip window** — NumPy-typed request fields reach
   the WAL as the values they hold (they used to kill the worker with the
   round's futures unresolved), and the recorder's clip dedupe remembers a
   bounded window of digests: a clip that left it is framed again, which
   loads as the same clip.

The model, clip batches and the canonical recorded trace come from the
session-scoped fixtures in ``tests/serve/conftest.py`` (shared with the
storm and backtest suites).
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.imc import IMCChip
from repro.serve import (
    AdaptiveThresholdController,
    Backtester,
    RecordedSchedule,
    Request,
    RequestResult,
    Response,
    Server,
    SpanTracker,
    Telemetry,
    ThresholdEpoch,
    Trace,
    TraceRecord,
    TraceRecorder,
    clip_digest,
    load_trace,
)
from repro.serve import trace as trace_module
from repro.serve.batcher import complete_round
from repro.serve.engine import CompletedSample

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10
THRESHOLD = 0.5


def _server(model, *, num_workers=1, num_replicas=0, trace=None, capacity=64):
    return Server(
        model, EntropyExitPolicy(THRESHOLD), max_timesteps=TIMESTEPS,
        batch_width=3, queue_capacity=capacity,
        num_workers=num_workers, num_replicas=num_replicas,
        use_runtime=True, trace=trace,
    )


# --------------------------------------------------------------------------- #
class TestWalRoundTrip:
    def test_recorded_run_loads_back_intact(self, tmp_path, served_model,
                                            make_clips, record_trace):
        xs = make_clips(10)
        labels = list(range(10))
        trace = record_trace(served_model, xs, tmp_path / "t.jsonl",
                             labels=labels)

        assert not trace.truncated
        assert trace.header["version"] == 1
        assert trace.header["store_clips"] is True
        assert trace.threshold == THRESHOLD
        assert trace.max_timesteps == TIMESTEPS
        assert len(trace.records) == len(xs)
        assert trace.fixed_threshold() == THRESHOLD

        by_id = {record.request_id: record for record in trace.records}
        assert sorted(by_id) == list(range(10))
        for i, x in enumerate(xs):
            record = by_id[i]
            assert record.digest == clip_digest(x).hex()
            assert record.digest in trace.clips
            np.testing.assert_array_equal(
                trace.clips[record.digest], x.astype(np.float32)
            )
            assert 1 <= record.exit_timestep <= TIMESTEPS
            assert 0 <= record.prediction < NUM_CLASSES
            assert record.label == labels[i]
            assert record.threshold == THRESHOLD
            assert record.arrival_offset >= 0.0
            assert record.service_time >= 0.0

    def test_clip_store_dedupes_by_content(self, tmp_path, served_model,
                                           make_clips, record_trace):
        clip = make_clips(1)[0]
        xs = [clip.copy() for _ in range(6)]  # same bytes, 6 requests
        trace = record_trace(served_model, xs, tmp_path / "t.jsonl")
        assert len(trace.records) == 6
        assert len(trace.clips) == 1  # content-addressed: one stored frame

    def test_rejection_round_trip_and_close_idempotent(self, tmp_path,
                                                       make_clips):
        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(str(path), meta={"threshold": 0.7})
        clip = make_clips(1)[0]
        recorder.record_rejection(Request(request_id=5, inputs=clip), 12.5)
        recorder.record_rejection(Request(request_id=6, inputs=clip), 13.0)
        assert recorder.rejections_written == 2
        recorder.close()
        recorder.close()  # idempotent
        # Records after close are dropped, not written to a closed handle.
        recorder.record_rejection(Request(request_id=7, inputs=clip), 14.0)

        trace = load_trace(str(path))
        assert len(trace.rejections) == 2
        assert trace.rejections[0]["id"] == 5
        assert trace.rejections[0]["digest"] == clip_digest(clip).hex()
        # Offsets are relative to the first recorded event.
        assert trace.rejections[0]["arrival"] == 0.0
        assert trace.rejections[1]["arrival"] == pytest.approx(0.5)

    def test_store_clips_false_records_events_only(self, tmp_path, make_clips):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(str(path), store_clips=False) as recorder:
            recorder.record_rejection(
                Request(request_id=0, inputs=make_clips(1)[0]), 0.0
            )
        trace = load_trace(str(path))
        assert trace.header["store_clips"] is False
        assert trace.clips == {}
        assert not (tmp_path / "t.jsonl.clips").exists()


# --------------------------------------------------------------------------- #
class TestWalRecovery:
    def _recorded(self, tmp_path, served_model, make_clips, record_trace):
        path = tmp_path / "t.jsonl"
        return record_trace(served_model, make_clips(8), path), path

    def test_torn_tail_line_drops_only_the_tail(self, tmp_path, served_model,
                                                make_clips, record_trace):
        trace, path = self._recorded(tmp_path, served_model, make_clips,
                                     record_trace)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"request","id":99')  # crash mid-append
        recovered = load_trace(str(path))
        assert recovered.truncated
        assert len(recovered.records) == len(trace.records)
        assert [r.request_id for r in recovered.records] == [
            r.request_id for r in trace.records
        ]

    def test_corrupt_crc_ends_the_scan_at_the_bad_line(self, tmp_path,
                                                       served_model,
                                                       make_clips,
                                                       record_trace):
        _, path = self._recorded(tmp_path, served_model, make_clips,
                                 record_trace)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        # Flip payload bytes in the 4th line (header + 3 records survive).
        lines[4] = lines[4].replace('"kind":"request"', '"kind":"requesX"')
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        recovered = load_trace(str(path))
        assert recovered.truncated
        assert len(recovered.records) == 3  # longest valid prefix

    def test_truncated_clip_store_keeps_whole_frames(self, tmp_path,
                                                     served_model, make_clips,
                                                     record_trace):
        trace, path = self._recorded(tmp_path, served_model, make_clips,
                                     record_trace)
        clips_path = str(path) + ".clips"
        size = os.path.getsize(clips_path)
        with open(clips_path, "rb+") as handle:
            handle.truncate(size - 37)  # tear the last frame mid-payload
        recovered = load_trace(str(path))
        assert recovered.truncated
        assert len(recovered.clips) < len(trace.clips)
        # Every surviving clip is bitwise intact (CRC-validated frames).
        for digest, clip in recovered.clips.items():
            np.testing.assert_array_equal(clip, trace.clips[digest])
        # A replay over records whose clips were lost must refuse loudly.
        if any(r.digest not in recovered.clips for r in recovered.records):
            with pytest.raises(ValueError, match="missing from the clip store"):
                Backtester(recovered)


# --------------------------------------------------------------------------- #
def _fake_trace(records, clips=None, header=None):
    return Trace(header=header or {}, records=records, rejections=[],
                 clips=clips or {})


def _fake_record(request_id, digest="00" * 16, threshold=0.5, arrival=0.0):
    return TraceRecord(
        request_id=request_id, digest=digest, arrival_offset=arrival,
        exit_timestep=1, prediction=0, score=1.0, threshold=threshold,
    )


class _ScriptedServer:
    """Answers the i-th submission with the i-th ``(prediction, exit_t,
    threshold)`` of its script — a server whose every decision is chosen."""

    max_timesteps = TIMESTEPS
    policy = EntropyExitPolicy(THRESHOLD)

    def __init__(self, script):
        self.script = iter(script)

    def submit(self, inputs, label=None, block=True, threshold=None,
               horizon=None):
        prediction, exit_t, served = next(self.script)
        response = Response()
        response.set_result(RequestResult(
            request_id=0, prediction=prediction, exit_timestep=exit_t,
            score=0.5, threshold=served))
        return response


class TestReplayerRefusals:
    def test_empty_trace_refused(self):
        with pytest.raises(ValueError, match="no request records"):
            Backtester(_fake_trace([]))

    def test_missing_clips_refused(self):
        trace = _fake_trace([_fake_record(0)])  # no clip store at all
        with pytest.raises(ValueError, match="missing from the clip store"):
            Backtester(trace)

    def test_moving_threshold_refused_unless_unverified(self, make_clips):
        clip = make_clips(1)[0]
        digest = clip_digest(clip).hex()
        records = [
            _fake_record(0, digest=digest, threshold=0.4),
            _fake_record(1, digest=digest, threshold=0.6),
        ]
        trace = _fake_trace(records, clips={digest: clip})
        assert trace.fixed_threshold() is None
        backtester = Backtester(trace)
        with pytest.raises(ValueError, match="moving threshold"):
            backtester.replay(_ScriptedServer([]))
        # As a pure load source (no baseline diff) the same trace is fine.
        served = backtester.evaluate(
            _ScriptedServer([(0, 1, 0.4), (0, 1, 0.6)]), RecordedSchedule())
        assert served.decisions == [(0, 0, 1), (1, 0, 1)]

    def test_check_server_rejects_mismatched_knobs(self, canonical_trace):
        model, trace = canonical_trace
        replayer = Backtester(trace)

        wrong_threshold = Server(
            model, EntropyExitPolicy(0.9), max_timesteps=TIMESTEPS,
            use_runtime=True,
        )
        with pytest.raises(ValueError, match="threshold"):
            replayer.check_server(wrong_threshold)

        wrong_horizon = Server(
            model, EntropyExitPolicy(THRESHOLD), max_timesteps=TIMESTEPS + 2,
            use_runtime=True,
        )
        with pytest.raises(ValueError, match="max_timesteps"):
            replayer.check_server(wrong_horizon)


# --------------------------------------------------------------------------- #
class TestCrossCompositionReplay:
    """The canonical gate: one recorded trace, bitwise-exact everywhere."""

    @pytest.mark.parametrize(
        "num_workers,num_replicas",
        [(1, 0), (2, 0), (1, 1), (1, 2)],
        ids=["1-worker", "2-workers", "1-replica", "2-replicas"],
    )
    def test_replay_is_bitwise_exact(self, canonical_trace, num_workers,
                                     num_replicas):
        model, trace = canonical_trace
        server = _server(
            model, num_workers=num_workers, num_replicas=num_replicas
        ).start()
        try:
            baseline, mismatches = Backtester(trace).replay(
                server, result_timeout=60.0)
        finally:
            server.shutdown(drain=True)
        assert not mismatches, mismatches
        assert len(baseline.decisions) == len(trace.records)
        assert set(baseline.decisions) == {
            (r.request_id, r.prediction, r.exit_timestep) for r in trace.records}

    def test_baseline_carries_decision_aggregates(self, canonical_trace):
        """Exit-histogram and energy/EDP aggregates are computed from the
        replay's own results, with AND without the baseline diff."""
        model, trace = canonical_trace
        for diffed in (True, False):
            server = _server(model).start()
            try:
                backtester = Backtester(trace)
                if diffed:
                    baseline, _ = backtester.replay(server, result_timeout=60.0)
                else:
                    baseline = backtester.evaluate(
                        server, RecordedSchedule(), result_timeout=60.0)
            finally:
                server.shutdown(drain=True)
            assert len(baseline.exit_histogram) == TIMESTEPS
            assert sum(baseline.exit_histogram) == len(trace.records)
            recorded_exits = [r.exit_timestep for r in trace.records]
            expected = np.bincount(recorded_exits,
                                   minlength=TIMESTEPS + 1)[1:]
            assert baseline.exit_histogram == [int(c) for c in expected]
            assert baseline.mean_exit == pytest.approx(
                float(np.mean(recorded_exits)))
            # No cost model on this backtester: energy stays None, not 0.0.
            assert baseline.energy_mean is None
            assert baseline.energy_total is None
            assert baseline.edp_mean is None

    def test_baseline_energy_aggregates_with_cost_model(self, canonical_trace):
        model, trace = canonical_trace
        sample = np.stack([trace.clips[r.digest] for r in trace.records[:4]])
        chip = IMCChip.from_network(model, sample, num_classes=NUM_CLASSES)
        server = Server(
            model, EntropyExitPolicy(THRESHOLD), max_timesteps=TIMESTEPS,
            batch_width=3, use_runtime=True, cost_model=chip,
        ).start()
        try:
            baseline = Backtester(trace, cost_model=chip).evaluate(
                server, RecordedSchedule(), result_timeout=60.0)
        finally:
            server.shutdown(drain=True)
        # Energy is priced per request from the recorded exits; the replay
        # aggregates must match pricing the trace's own exit timesteps.
        expected = [chip.energy(r.exit_timestep) for r in trace.records]
        assert baseline.energy_total == pytest.approx(sum(expected))
        assert baseline.energy_mean == pytest.approx(
            sum(expected) / len(expected))
        assert baseline.edp_mean is not None and baseline.edp_mean > 0.0

    def test_the_diff_names_both_decisions_and_both_thresholds(self,
                                                               make_clips):
        clip = make_clips(1)[0]
        digest = clip_digest(clip).hex()
        trace = _fake_trace([_fake_record(7, digest=digest),
                             _fake_record(8, digest=digest, arrival=1.0)],
                            clips={digest: clip})
        # Request 7 keeps its decision but reports another threshold than
        # the recorded one; request 8 keeps the threshold but exits later.
        server = _ScriptedServer([(0, 1, 0.7), (0, 3, 0.5)])
        _, mismatches = Backtester(trace).replay(server)
        assert mismatches == [
            "request 7: recorded (prediction=0, exit_t=1) vs replayed "
            "(prediction=0, exit_t=1) [threshold recorded=0.5 replayed=0.7]",
            "request 8: recorded (prediction=0, exit_t=1) vs replayed "
            "(prediction=0, exit_t=3)",
        ]

    def test_honored_arrivals_pace_through_injectable_clock(self,
                                                            canonical_trace):
        model, trace = canonical_trace
        sleeps = []

        class FakeClock:
            def __init__(self):
                self.t = 0.0

            def __call__(self):
                return self.t

            def sleep(self, delay):
                sleeps.append(delay)
                self.t += delay

        clock = FakeClock()
        replayer = Backtester(trace, clock=clock, sleep=clock.sleep)
        server = _server(model).start()
        try:
            _, mismatches = replayer.replay(server, pace=2.0,
                                            result_timeout=60.0)
        finally:
            server.shutdown(drain=True)
        assert not mismatches, mismatches
        # The fake clock only advances inside sleep(): the total slept time
        # is exactly the last arrival offset, compressed by the pace factor.
        last_offset = max(r.arrival_offset for r in trace.records)
        assert sum(sleeps) == pytest.approx(last_offset / 2.0)

    def test_pace_must_be_positive(self, canonical_trace):
        _, trace = canonical_trace
        for pace in (0.0, -1.0):
            with pytest.raises(ValueError, match="pace must be positive"):
                Backtester(trace).evaluate(_ScriptedServer([]),
                                           RecordedSchedule(), pace=pace)


# --------------------------------------------------------------------------- #
class TestDurabilityOrder:
    @pytest.mark.parametrize("num_replicas", [0, 1], ids=["thread", "1-replica"])
    def test_a_resolved_future_is_already_in_the_wal(self, tmp_path, served_model,
                                                     make_clips, monkeypatch,
                                                     num_replicas):
        """At the instant each future resolves, a SECOND handle on the files
        already reads that request's line and its clip."""
        path = str(tmp_path / "t.jsonl")
        recorder = TraceRecorder(path)
        observed = []  # (request id, line durable, clip durable)
        original = Response.set_result

        def checking(self, result):
            durable = load_trace(path)
            digests = {r.request_id: r.digest for r in durable.records}
            digest = digests.get(result.request_id)
            observed.append((result.request_id, digest is not None,
                             digest in durable.clips))
            return original(self, result)

        monkeypatch.setattr(Response, "set_result", checking)
        xs = make_clips(20)
        server = _server(served_model, num_replicas=num_replicas,
                         trace=recorder).start()
        try:
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
            recorder.close()
        assert sorted(seen[0] for seen in observed) == sorted(
            result.request_id for result in results)
        assert all(line and clip for _, line, clip in observed), observed

    def test_the_wal_is_flushed_once_per_round_not_per_record(self, tmp_path,
                                                              served_model,
                                                              make_clips,
                                                              monkeypatch):
        rounds = []
        original = Telemetry.record_completions

        def counting(self, results):
            rounds.append(len(results))
            return original(self, results)

        monkeypatch.setattr(Telemetry, "record_completions", counting)
        recorder = TraceRecorder(str(tmp_path / "t.jsonl"))
        # Each flush with buffered bytes is one ``write`` syscall.
        handle = recorder._wal = mock.Mock(wraps=recorder._wal)
        xs = make_clips(200)
        server = Server(
            served_model, EntropyExitPolicy(THRESHOLD), max_timesteps=TIMESTEPS,
            batch_width=8, queue_capacity=len(xs), use_runtime=True,
            trace=recorder,
        ).start()
        try:
            for future in [server.submit(x) for x in xs]:
                future.result(timeout=60.0)
        finally:
            server.shutdown(drain=True)
        assert sum(rounds) == len(xs) == recorder.records_written
        # One flush per completion round, plus the server's own at drain.
        assert handle.flush.call_count <= len(rounds) + 2
        assert handle.flush.call_count < len(xs) // 2
        recorder.close()
        assert len(load_trace(recorder.path).records) == len(xs)

    def test_a_round_pays_only_for_the_sinks_attached(self, tmp_path, served_model,
                                                      make_clips, monkeypatch):
        """Bare round: one clock read, no WAL flush, no pricing, no span.
        Every sink attached: one flush per ROUND, two clock reads, one price
        per DISTINCT exit timestep of the round, the per-request sinks
        entered once per request — and futures last."""
        order = []
        for owner, name in ((TraceRecorder, "record_request"), (TraceRecorder, "flush"),
                            (IMCChip, "energy"), (IMCChip, "latency"),
                            (AdaptiveThresholdController, "on_completion"),
                            (SpanTracker, "record_result"), (Response, "set_result")):
            def logging(self, *args, _original=getattr(owner, name), _name=name):
                order.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(owner, name, logging)

        def clock():
            order.append("clock")
            return 10.0 + order.count("clock")

        def round_of(count):
            return [
                CompletedSample(
                    request=Request(request_id=i, inputs=clip, arrival_time=1.0),
                    response=Response(), prediction=1, exit_timestep=1 + i % 2,
                    score=0.25, threshold=THRESHOLD, start_time=2.0, epoch=0,
                    horizon=TIMESTEPS,
                )
                for i, clip in enumerate(make_clips(count))
            ]

        telemetry = Telemetry()
        bare = round_of(5)
        results = complete_round(bare, clock, telemetry)
        assert [sample.response.result(timeout=0) for sample in bare] == results
        assert order == ["clock"] + ["set_result"] * 5
        assert telemetry.completed == 5 and results[0].energy is None

        order.clear()
        chip = IMCChip.from_network(served_model, make_clips(2),
                                    num_classes=NUM_CLASSES)
        controller = AdaptiveThresholdController(
            EntropyExitPolicy(THRESHOLD), target_p95_latency=1.0,
            min_threshold=0.1, max_threshold=0.9)
        spans = SpanTracker()
        with TraceRecorder(str(tmp_path / "t.jsonl")) as recorder:
            results = complete_round(round_of(5), clock, telemetry, chip,
                                     controller, recorder, spans)
        assert order == (
            ["energy", "latency"] * 2 + ["clock"] + ["record_request"] * 5
            + ["flush"] + ["on_completion"] * 5 + ["clock"]
            + ["record_result"] * 5 + ["set_result"] * 5
        )
        assert all(r.energy == chip.energy(r.exit_timestep) and r.finish_time == 11.0
                   for r in results)
        assert {span.events["completed"] for span in spans.spans()} == {12.0}


# --------------------------------------------------------------------------- #
class TestTypedValuesReachTheWal:
    def test_numpy_typed_requests_complete_on_a_thread_server(self, tmp_path,
                                                              served_model,
                                                              make_clips):
        """``Server.submit`` casts, but ``Request`` / ``AdmissionQueue`` are
        public: a dataset's ``np.int64`` label, an ``np.int64`` epoch number
        and an ``np.float32`` threshold used to raise ``TypeError`` out of
        ``complete_round`` — the worker died before the round's futures
        resolved (sinks run before futures)."""
        path = str(tmp_path / "t.jsonl")
        recorder = TraceRecorder(path)
        server = _server(served_model, trace=recorder).start()
        epoch = ThresholdEpoch(epoch=np.int64(2), threshold=np.float32(0.5))
        xs = make_clips(6)
        try:
            futures = []
            for index, x in enumerate(xs):
                request = Request(request_id=100 + index, inputs=x,
                                  label=np.int64(index % NUM_CLASSES),
                                  priority=np.int8(1), epoch=epoch)
                futures.append(Response())
                server.queue.put(request, futures[-1])
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
            recorder.close()
        assert server.worker_error is None
        trace = load_trace(path)
        assert not trace.truncated
        assert [(r.request_id, r.label, r.epoch, r.threshold, r.priority)
                for r in sorted(trace.records, key=lambda r: r.request_id)] == [
            (100 + index, index % NUM_CLASSES, 2, 0.5, 1) for index in range(len(xs))]
        assert {r.request_id: r.exit_timestep for r in trace.records} == {
            r.request_id: r.exit_timestep for r in results}

    def test_a_typed_line_is_the_line_of_the_values_it_holds(self, tmp_path, make_clips):
        (clip,) = make_clips(1)

        def line(path, **fields):
            with TraceRecorder(str(path), store_clips=False) as recorder:
                recorder.record_request(
                    Request(request_id=1, inputs=clip, priority=fields.pop("priority")),
                    RequestResult(request_id=1, prediction=2, exit_timestep=3,
                                  score=0.25, arrival_time=1.0, start_time=1.5,
                                  finish_time=2.0, **fields))
            return path.read_text(encoding="utf-8").splitlines()[1]

        typed = line(tmp_path / "typed.jsonl", label=np.int64(3),
                     threshold=np.float32(0.1), energy=np.float64(1e4),
                     epoch=np.int64(2), horizon=np.uint8(4),
                     brownout=np.bool_(True), priority=np.int16(2))
        plain = line(tmp_path / "plain.jsonl", label=3,
                     threshold=float(np.float32(0.1)), energy=1e4, epoch=2,
                     horizon=4, brownout=True, priority=2)
        assert typed == plain and '"threshold":0.10000000149011612,' in typed


class TestClipDedupWindow:
    def test_a_clip_that_left_the_window_is_framed_again_and_loads_the_same(
            self, tmp_path, make_clips, monkeypatch):
        """The recorder remembers the newest ``CLIP_DEDUP_WINDOW`` distinct
        digests, not every digest it ever framed: the clip store is
        deduplicated within the window.  A second frame of a clip is the same
        digest and the same array; the loader keeps the later one."""
        window = 4
        monkeypatch.setattr(trace_module, "CLIP_DEDUP_WINDOW", window)
        xs = make_clips(window + 1)
        order = list(range(window + 1)) + [window, 0, 0]  # in-window, evicted, in-window
        path = str(tmp_path / "t.jsonl")
        with TraceRecorder(path) as recorder:
            for request_id, index in enumerate(order):
                recorder.record_request(
                    Request(request_id=request_id, inputs=xs[index]),
                    RequestResult(request_id=request_id, prediction=0,
                                  exit_timestep=1, score=0.5))
                assert len(recorder._framed) <= window
        frame_bytes = os.path.getsize(path + ".clips") / (window + 2)
        assert frame_bytes == int(frame_bytes) > xs[0].nbytes  # window + 1 clips, one twice
        trace = load_trace(path)
        assert not trace.truncated and len(trace.clips) == window + 1
        assert [record.digest for record in trace.records] == [
            clip_digest(xs[index]).hex() for index in order]
        for x in xs:
            np.testing.assert_array_equal(trace.clips[clip_digest(x).hex()], x)
