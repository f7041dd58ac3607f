"""Offline SLA backtesting: schedules, scoring, and the determinism matrix.

The contracts pinned here:

1. **Schedule algebra** — piecewise :class:`ThresholdSchedule` segments
   partition ``[0, ∞)`` into half-open intervals (boundary offsets belong to
   the segment that *starts* there), the first segment must start at 0, and
   ``from_trace`` losslessly reconstructs a recorded knob trajectory.
2. **Oracle & scoring** — the full-horizon oracle runs each unique clip once
   at θ=0 (the entropy rule never fires), the recorded baseline reproduces
   the trace's own decisions and decision-derived telemetry exactly, and a
   θ=0 candidate scores agreement 1.0 by construction.
3. **The determinism matrix** (tentpole acceptance) — one sweep over the
   canonical trace on {1,2 workers} × {1,2 replicas}: every candidate's
   per-request decisions are bitwise identical across all four compositions
   (same digests), the Pareto frontier is identical, and the artifact's
   deterministic block is byte-for-byte the same JSON.  Wall-clock
   ``measured`` blocks are explicitly excluded — they are the only thing
   allowed to differ.
4. **Artifacts** — schema-v1 JSON round-trips and the sweep refuses reserved
   candidate names and clip-less traces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    BACKTEST_SCHEMA_VERSION,
    Backtester,
    BacktestSweep,
    RecordedSchedule,
    ScheduleSegment,
    Server,
    SweepResult,
    ThresholdSchedule,
    Trace,
    TraceRecord,
    decision_digest,
)

TIMESTEPS = 4
THRESHOLD = 0.5


def _server(model, *, num_workers=1, num_replicas=0, threshold=THRESHOLD):
    return Server(
        model, EntropyExitPolicy(threshold), max_timesteps=TIMESTEPS,
        batch_width=3, queue_capacity=64,
        num_workers=num_workers, num_replicas=num_replicas, use_runtime=True,
    )


# --------------------------------------------------------------------------- #
class TestThresholdSchedule:
    def test_constant_covers_everything(self):
        schedule = ThresholdSchedule.constant(0.3, horizon=2)
        assert schedule.knobs_at(0.0) == (0.3, 2)
        assert schedule.knobs_at(1e9) == (0.3, 2)

    def test_piecewise_boundaries_are_half_open(self):
        schedule = ThresholdSchedule.piecewise([(0.0, 0.5), (2.0, 0.3),
                                                (5.0, 0.8)])
        assert schedule.knobs_at(0.0)[0] == 0.5
        assert schedule.knobs_at(1.999)[0] == 0.5
        assert schedule.knobs_at(2.0)[0] == 0.3  # boundary → new segment
        assert schedule.knobs_at(4.999)[0] == 0.3
        assert schedule.knobs_at(5.0)[0] == 0.8
        assert schedule.segment_index(2.0) == 1

    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at offset 0"):
            ThresholdSchedule([ScheduleSegment(1.0, 0.5)])

    def test_starts_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ThresholdSchedule.piecewise([(0.0, 0.5), (2.0, 0.3), (2.0, 0.8)])

    def test_threshold_range_and_horizon_validated(self):
        with pytest.raises(ValueError, match="outside"):
            ThresholdSchedule.constant(1.5)
        with pytest.raises(ValueError, match="horizon"):
            ThresholdSchedule.constant(0.5, horizon=0)
        with pytest.raises(ValueError, match="at least one segment"):
            ThresholdSchedule([])

    def test_negative_offset_lands_in_the_opening_segment(self):
        # WAL arrival offsets are relative to the first *completed* request,
        # so requests that arrived before it carry small negative offsets;
        # they get the opening segment's knobs, not an error.
        schedule = ThresholdSchedule.piecewise([(0.0, 0.5), (1.0, 0.2)])
        assert schedule.segment_index(-2e-5) == 0
        assert schedule.knobs_at(-0.1) == (0.5, None)

    def test_spec_round_trip(self):
        schedule = ThresholdSchedule.piecewise([(0.0, 0.5), (3.0, 0.2)],
                                               horizon=3)
        spec = schedule.spec()
        assert spec["kind"] == "piecewise"
        rebuilt = ThresholdSchedule([
            ScheduleSegment(s["start"], s["threshold"], s["horizon"])
            for s in spec["segments"]
        ])
        assert rebuilt == schedule

    def test_from_trace_reconstructs_knob_trajectory(self):
        records = [
            TraceRecord(request_id=i, digest="00", arrival_offset=offset,
                        exit_timestep=1, prediction=0, score=0.5,
                        threshold=threshold, horizon=4)
            for i, (offset, threshold) in enumerate(
                [(0.0, 0.3), (1.0, 0.3), (2.5, 0.9), (4.0, 0.9)])
        ]
        trace = Trace(header={}, records=records, rejections=[], clips={})
        schedule = ThresholdSchedule.from_trace(trace)
        assert len(schedule.segments) == 2
        assert schedule.knobs_at(1.0) == (0.3, 4)
        assert schedule.knobs_at(2.5) == (0.9, 4)
        # Per-record evaluation matches the recording everywhere.
        for record in records:
            assert schedule.knobs_for(record)[0] == record.threshold

    def test_recorded_schedule_pins_per_record(self):
        record = TraceRecord(request_id=0, digest="00", arrival_offset=0.0,
                             exit_timestep=1, prediction=0, score=0.5,
                             threshold=0.7, horizon=2)
        assert RecordedSchedule().knobs_for(record) == (0.7, 2)
        assert RecordedSchedule().spec() == {"kind": "recorded"}


# --------------------------------------------------------------------------- #
class TestBacktesterScoring:
    def test_refuses_clipless_and_empty_traces(self):
        empty = Trace(header={}, records=[], rejections=[], clips={})
        with pytest.raises(ValueError, match="no request records"):
            Backtester(empty)
        record = TraceRecord(request_id=0, digest="ff", arrival_offset=0.0,
                             exit_timestep=1, prediction=0, score=0.5,
                             threshold=0.5)
        clipless = Trace(header={}, records=[record], rejections=[], clips={})
        with pytest.raises(ValueError, match="missing from the clip store"):
            Backtester(clipless)

    def test_oracle_is_full_horizon_and_cached(self, canonical_trace):
        model, trace = canonical_trace
        backtester = Backtester(trace)
        server = _server(model).start()
        try:
            oracle = backtester.oracle(server)
            assert backtester.oracle(server) is oracle  # cached
        finally:
            server.shutdown(drain=True)
        assert set(oracle) == {r.digest for r in trace.records}
        # Reference: the Tensor-path full-horizon predictions per clip —
        # the argmax of the cumulative logits at the last timestep.
        digests = sorted(oracle)
        xs = np.stack([trace.clips[d] for d in digests])
        logits = model.forward(xs, TIMESTEPS).cumulative_numpy()
        full = logits[-1].argmax(axis=1)
        assert [oracle[d] for d in digests] == [int(p) for p in full]

    def test_baseline_reproduces_trace_exactly(self, canonical_trace):
        model, trace = canonical_trace
        sweep = BacktestSweep(trace, {}, include_baseline=True)
        server = _server(model).start()
        try:
            result = sweep.run(server)
        finally:
            server.shutdown(drain=True)
        assert result.baseline_exact, result.baseline_mismatches
        baseline = result.candidate("recorded")
        recorded = {(r.request_id, r.prediction, r.exit_timestep)
                    for r in trace.records}
        assert set(map(tuple, baseline.decisions)) == recorded
        # Decision-derived scores equal the trace's own telemetry.
        exits = [r.exit_timestep for r in trace.records]
        assert baseline.mean_exit == pytest.approx(float(np.mean(exits)))
        assert sum(baseline.exit_histogram) == len(trace.records)
        labelled = [r for r in trace.records if r.label is not None]
        expected_accuracy = (sum(1 for r in labelled
                                 if r.prediction == r.label) / len(labelled))
        assert baseline.accuracy == pytest.approx(expected_accuracy)

    def test_oracle_threshold_candidate_agrees_fully(self, canonical_trace):
        model, trace = canonical_trace
        backtester = Backtester(trace)
        server = _server(model).start()
        try:
            candidate = backtester.evaluate(
                server, ThresholdSchedule.constant(0.0), name="oracle-knob",
                oracle=backtester.oracle(server))
        finally:
            server.shutdown(drain=True)
        # θ=0 is the oracle's own knob: agreement 1.0, all exits at horizon.
        assert candidate.agreement == 1.0
        assert all(exit_t == TIMESTEPS for _, _, exit_t in candidate.decisions)
        assert candidate.exit_histogram[-1] == len(trace.records)

    def test_horizon_cap_bounds_exits(self, canonical_trace):
        model, trace = canonical_trace
        backtester = Backtester(trace)
        server = _server(model).start()
        try:
            capped = backtester.evaluate(
                server, ThresholdSchedule.constant(0.0, horizon=2),
                name="capped")
        finally:
            server.shutdown(drain=True)
        assert all(exit_t <= 2 for _, _, exit_t in capped.decisions)
        assert sum(capped.exit_histogram[2:]) == sum(
            1 for _, _, e in capped.decisions if e >= 3) == 0

    def test_reserved_baseline_name_refused(self, canonical_trace):
        _, trace = canonical_trace
        with pytest.raises(ValueError, match="reserved"):
            BacktestSweep(trace,
                          {"recorded": ThresholdSchedule.constant(0.5)})
        with pytest.raises(ValueError, match="at least one candidate"):
            BacktestSweep(trace, {}, include_baseline=False)


# --------------------------------------------------------------------------- #
class TestDeterminismMatrix:
    """Tentpole acceptance: same trace + same candidate schedules →
    bitwise-identical decisions and identical Pareto output on every
    composition."""

    CANDIDATES = {
        "tight": ThresholdSchedule.constant(0.05),
        "loose": ThresholdSchedule.constant(0.8),
        "capped": ThresholdSchedule.constant(0.5, horizon=2),
        "stepped": ThresholdSchedule.piecewise([(0.0, 0.2), (0.001, 0.6)]),
    }
    COMPOSITIONS = [(1, 0), (2, 0), (1, 1), (1, 2)]

    @pytest.fixture(scope="class")
    def matrix(self, canonical_trace):
        model, trace = canonical_trace
        results = {}
        for num_workers, num_replicas in self.COMPOSITIONS:
            sweep = BacktestSweep(trace, self.CANDIDATES)
            server = _server(model, num_workers=num_workers,
                             num_replicas=num_replicas).start()
            try:
                results[(num_workers, num_replicas)] = sweep.run(server)
            finally:
                server.shutdown(drain=True)
        return trace, results

    def test_decisions_bitwise_identical_across_compositions(self, matrix):
        _, results = matrix
        reference = results[(1, 0)]
        for composition, result in results.items():
            reference.assert_decisions_equal(result)
            assert result.decision_map() == reference.decision_map(), \
                composition

    def test_pareto_identical_across_compositions(self, matrix):
        _, results = matrix
        paretos = {tuple(result.pareto) for result in results.values()}
        assert len(paretos) == 1

    def test_deterministic_artifact_block_is_identical_json(self, matrix):
        """The artifact minus the wall-clock ``measured`` blocks must be
        byte-identical JSON across all four compositions."""
        _, results = matrix

        def deterministic_block(result):
            document = result.to_document()
            document.pop("composition")
            for candidate in document["candidates"]:
                candidate.pop("measured")
            return json.dumps(document, sort_keys=True)

        blocks = {deterministic_block(r) for r in results.values()}
        assert len(blocks) == 1

    def test_artifact_names_the_composition_that_ran(self, matrix):
        """Threads and processes are different axes: a replica sweep has no
        worker threads, and the artifact must not count its replicas twice
        (same keys as ever — ``schema_version`` stays put)."""
        _, results = matrix
        for (num_workers, num_replicas), result in results.items():
            composition = result.to_document()["composition"]
            assert (composition["workers"], composition["replicas"]) == (
                (0, num_replicas) if num_replicas else (num_workers, 0))
            assert result.to_document()["schema_version"] == 1

    def test_baseline_exact_on_every_composition(self, matrix):
        _, results = matrix
        for composition, result in results.items():
            assert result.baseline_exact, (composition,
                                           result.baseline_mismatches)

    def test_mismatch_is_reported_loudly(self, matrix):
        _, results = matrix
        reference = results[(1, 0)]
        tampered = results[(2, 0)]
        # Forge one moved decision and check the assert names the candidate.
        victim = tampered.candidates[1]
        original = victim.decisions[0]
        victim.decisions[0] = (original[0], original[1] + 1, original[2])
        try:
            with pytest.raises(AssertionError, match=victim.name):
                reference.assert_decisions_equal(tampered)
        finally:
            victim.decisions[0] = original

    def test_digest_tracks_decisions(self):
        a = [(0, 1, 2), (1, 3, 4)]
        assert decision_digest(a) == decision_digest(list(a))
        assert decision_digest(a) != decision_digest([(0, 1, 2), (1, 3, 1)])


# --------------------------------------------------------------------------- #
class TestSweepArtifact:
    def test_schema_v1_round_trip(self, canonical_trace, tmp_path):
        model, trace = canonical_trace
        sweep = BacktestSweep(trace, {"mid": ThresholdSchedule.constant(0.3)})
        server = _server(model).start()
        try:
            result = sweep.run(server)
        finally:
            server.shutdown(drain=True)
        path = tmp_path / "sweep.json"
        result.to_json(str(path))
        document = json.loads(path.read_text())
        assert document["schema_version"] == BACKTEST_SCHEMA_VERSION
        assert document["kind"] == "backtest_sweep"
        assert document["trace"]["records"] == len(trace.records)
        assert document["baseline"]["exact"] is True
        names = {c["name"] for c in document["candidates"]}
        assert names == {"recorded", "mid"}
        assert set(document["pareto"]) <= names
        for candidate in document["candidates"]:
            assert candidate["decision_digest"]
            assert len(candidate["decisions"]) == len(trace.records)
            assert set(candidate["scores"]) >= {
                "agreement", "mean_exit", "exit_histogram",
                "model_latency_p99"}
        # Decisions can be elided for compact artifacts; digests remain.
        result.to_json(str(path), include_decisions=False)
        compact = json.loads(path.read_text())
        assert all("decisions" not in c for c in compact["candidates"])
        assert all(c["decision_digest"] for c in compact["candidates"])

    def test_a_long_mismatch_list_is_elided_in_the_artifact(self):
        # A trace backtested against the wrong model mismatches on every
        # request; the artifact keeps the first lines and counts the rest.
        lines = [f"request {i}: moved" for i in range(25)]
        result = SweepResult(
            candidates=[], pareto=[], baseline_name="recorded",
            baseline_mismatches=lines, composition={}, trace_info={},
            oracle_size=0)
        baseline = result.to_document()["baseline"]
        assert baseline["exact"] is False
        assert baseline["mismatches"] == [
            *lines[:10], "... (15 further mismatches elided)"]
        assert len(result.baseline_mismatches) == 25
