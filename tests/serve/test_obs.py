"""Request-lifecycle spans and the metrics registry.

Pins the observability layer's contracts:

* span stamps share one (injectable) clock domain, so every span is monotone
  in lifecycle order — asserted under a fake ticking clock on a live server;
* counters/gauges/histograms merge exactly (fixed buckets) and export valid
  Prometheus text exposition;
* :meth:`Telemetry.fill_registry` surfaces every counter and gauge family
  from the raw samples.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    AdmissionQueue,
    ContinuousBatcher,
    Counter,
    DeadlineExceededError,
    Gauge,
    Histogram,
    InferenceEngine,
    MetricsRegistry,
    Request,
    RequestResult,
    Response,
    Server,
    SpanTracker,
    Telemetry,
)
from repro.runtime.rings import decode_work
from repro.snn import spiking_vgg
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10


def _model(seed=47):
    seed_everything(seed)
    model = spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS,
    ).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(batch, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _result(request_id, arrival=0.0, queue_delay=0.1, service=0.2,
            exit_timestep=2, energy=None):
    start = arrival + queue_delay
    return RequestResult(
        request_id=request_id, prediction=1, exit_timestep=exit_timestep,
        score=0.9, label=1, arrival_time=arrival, start_time=start,
        finish_time=start + service, energy=energy,
    )


class TickingClock:
    """Thread-safe fake clock: strictly increases on every read."""

    def __init__(self, step=1e-6):
        self._lock = threading.Lock()
        self._step = step
        self._t = 0.0

    def __call__(self):
        with self._lock:
            self._t += self._step
            return self._t


# --------------------------------------------------------------------------- #
class TestSpans:
    def test_manual_stamps_monotone_and_durations(self):
        tracker = SpanTracker()
        tracker.record(1, "queued", 1.0)
        tracker.record(1, "admitted", 2.0)
        tracker.record(1, "exited", 3.5)
        tracker.record(1, "completed", 3.6)
        (span,) = tracker.spans()
        assert span.monotone
        assert span.duration("queued", "admitted") == 1.0
        assert span.duration("admitted", "exited") == 1.5
        assert span.duration("queued", "dispatched") is None
        durations = tracker.stage_durations()
        assert durations["queue_wait"] == [1.0]
        assert durations["total"] == [pytest.approx(2.6)]

    def test_out_of_order_stamp_breaks_monotonicity(self):
        tracker = SpanTracker()
        tracker.record(1, "queued", 5.0)
        tracker.record(1, "admitted", 4.0)  # went backwards
        (span,) = tracker.spans()
        assert not span.monotone

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown span stage"):
            SpanTracker().record(1, "teleported", 0.0)

    def test_record_result_stamps_the_whole_lifecycle(self):
        tracker = SpanTracker()
        result = _result(3, arrival=10.0, queue_delay=0.5, service=1.5)
        tracker.record_result(result, completed_at=12.25)
        (span,) = tracker.spans()
        assert span.events == {
            "queued": 10.0, "admitted": 10.5, "exited": 12.0,
            "completed": 12.25,
        }
        assert span.monotone

    def test_capacity_evicts_oldest(self):
        tracker = SpanTracker(capacity=3)
        for request_id in range(5):
            tracker.record(request_id, "queued", float(request_id))
        assert len(tracker) == 3
        assert sorted(s.request_id for s in tracker.spans()) == [2, 3, 4]
        with pytest.raises(ValueError):
            SpanTracker(capacity=0)

    def test_a_full_tracker_evicts_at_the_price_of_an_insert(self):
        """Past capacity every new span evicts the oldest.  On a plain dict
        that was ``next(iter(...))`` over every slot eviction had emptied:
        37 us a completion on a full 65,536-span tracker, 15x the cost below
        capacity (6x at this test's size; 0.7x now).  A ratio of two loops of
        one run, so the box's speed cancels."""
        import time

        capacity = 30000
        tracker = SpanTracker(capacity=capacity)
        results = [_result(index, arrival=1.0, queue_delay=0.5, service=1.0)
                   for index in range(3 * capacity)]

        def seconds(batch):
            began = time.perf_counter()
            for result in batch:
                tracker.record_result(result, completed_at=3.0)
            return time.perf_counter() - began

        filling = seconds(results[:capacity])
        evicting = seconds(results[capacity:]) / 2
        assert len(tracker) == capacity
        assert evicting < 3.0 * filling

    def test_live_server_spans_monotone_under_injectable_clock(self):
        """Every stamp comes from the server's clock — so with a fake
        ticking clock, every span must come out monotone and complete."""
        model = _model()
        xs = _inputs(8)
        clock = TickingClock()
        spans = SpanTracker()
        server = Server(
            model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=len(xs), num_workers=2,
            use_runtime=True, clock=clock, spans=spans,
        ).start()
        try:
            futures = [server.submit(x) for x in xs]
            for future in futures:
                future.result(timeout=60.0)
        finally:
            server.shutdown(drain=True)
        tracked = spans.spans()
        assert len(tracked) == len(xs)
        for span in tracked:
            assert span.monotone, span
            for stage in ("queued", "admitted", "exited", "completed"):
                assert stage in span.events, (span.request_id, stage)
        summary = spans.summary()
        assert summary["total"]["count"] == float(len(xs))
        assert summary["service"]["p95"] >= 0.0

    def test_completion_stage_measures_the_sink_pass(self, monkeypatch):
        """``completed`` is stamped from a clock read taken after the round's
        pricing/telemetry pass, so under a ticking clock the ``completion``
        stage is strictly positive for every request — it used to reuse the
        ``exited`` reading and always read 0.0 — and each completion stamps
        its span exactly once."""
        stamped = []
        original = SpanTracker.record_result

        def counting(self, result, completed_at):
            stamped.append(result.request_id)
            return original(self, result, completed_at)

        monkeypatch.setattr(SpanTracker, "record_result", counting)
        xs = _inputs(8)
        spans = SpanTracker()
        server = Server(
            _model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=len(xs), use_runtime=True,
            clock=TickingClock(), spans=spans,
        ).start()
        try:
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
        assert sorted(stamped) == sorted(result.request_id for result in results)
        durations = spans.stage_durations()
        assert len(durations["completion"]) == len(xs)
        assert all(duration > 0.0 for duration in durations["completion"])
        for span in spans.spans():
            assert span.monotone, span
            events = span.events
            assert (events["queued"] < events["admitted"] < events["exited"]
                    < events["completed"]), span

    def test_completion_stage_is_measured_in_replica_mode_too(self, monkeypatch):
        """The replica collector completes through the same sink as the thread
        batcher, so its ``completion`` stage is the sink pass as well — it
        used to stamp ``completed`` with the result's own finish time, before
        any sink ran, and always read 0.0.  Real clock: the replica's service
        duration is measured on its own, and rebased onto the server's."""
        stamped = []
        original = SpanTracker.record_result

        def counting(self, result, completed_at):
            stamped.append(result.request_id)
            return original(self, result, completed_at)

        monkeypatch.setattr(SpanTracker, "record_result", counting)
        xs = _inputs(8)
        spans = SpanTracker()
        server = Server(
            _model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=len(xs), num_replicas=1,
            use_runtime=True, spans=spans,
        ).start()
        try:
            futures = [server.submit(x) for x in xs]
            results = [future.result(timeout=60.0) for future in futures]
        finally:
            server.shutdown(drain=True)
        assert sorted(stamped) == sorted(result.request_id for result in results)
        durations = spans.stage_durations()
        assert len(durations["completion"]) == len(xs)
        assert all(duration > 0.0 for duration in durations["completion"])
        for span in spans.spans():
            assert span.monotone, span
            events = span.events
            assert "dispatched" in events, span
            assert (events["queued"] < events["admitted"] < events["exited"]
                    < events["completed"]), span

    def test_dispatched_is_stamped_before_the_round_can_complete(self):
        """The forwarder reads the clock for ``dispatched`` before the work
        send.  Here every send returns only once its round's futures have
        resolved — a forwarder descheduled right after the send — and every
        span must still come out monotone: a stamp read after the send
        lands after ``completed``."""
        xs = _inputs(8)
        spans = SpanTracker()
        server = Server(
            _model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=len(xs), num_replicas=1,
            use_runtime=True, spans=spans,
        ).start()
        pool = server.replicas

        class SendThenWait:
            def __init__(self, pipe):
                self.pipe = pipe
                self.rounds = 0

            def send_bytes(self, message):
                # The round's requests are in flight before it is sent.
                futures = [pool._inflight[0][entry[0]][1]
                           for entry in (decode_work(message) if message else [])]
                self.pipe.send_bytes(message)
                for future in futures:
                    future.result(timeout=30.0)
                self.rounds += bool(futures)

            def close(self):
                self.pipe.close()

        hooked = pool._work_writers[0] = SendThenWait(pool._work_writers[0])
        try:
            for future in [server.submit(x) for x in xs]:
                future.result(timeout=60.0)
        finally:
            server.shutdown(drain=True)
        assert hooked.rounds >= 1
        tracked = spans.spans()
        assert len(tracked) == len(xs)
        for span in tracked:
            assert span.monotone, span
            assert span.events["dispatched"] <= span.events["admitted"], span

    def test_deadline_drop_records_the_instant_it_compared(self):
        """One clock reading decides the drop AND is the recorded drop time:
        a ticking clock must not be read a second time for the record."""
        clock = TickingClock(step=1.0)
        queue = AdmissionQueue(capacity=4, clock=clock)
        spans = SpanTracker()
        engine = InferenceEngine(_model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS)
        batcher = ContinuousBatcher(engine, queue, batch_width=2, clock=clock, spans=spans)
        response = Response()
        queue.put(Request(request_id=7, inputs=_inputs(1)[0], deadline=0.5), response)
        before = clock()
        batcher.run_once()
        with pytest.raises(DeadlineExceededError):
            response.result(timeout=1.0)
        (span,) = spans.spans()
        # The fill round's single reading, not a second one taken afterwards.
        assert span.events == {"completed": before + 1.0}


# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_semantics(self):
        counter = Counter("c", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_modes(self):
        # One mode is left: every exported gauge is a peak.
        peak = Gauge("g")
        peak.set(3)
        peak.set(1)
        assert peak.value == 3.0
        assert peak.to_json()["mode"] == "max"

    def test_histogram_buckets_and_exact_merge(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(106.0)

        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", buckets=(2.0, 1.0))

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_done_total", "Done").inc(3)
        registry.gauge("repro_depth", "Depth").set(7)
        histogram = registry.histogram("repro_lat", "Latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.to_prometheus()
        assert "# TYPE repro_done_total counter" in text
        assert "repro_done_total 3" in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 7" in text
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_registry_get_or_create_and_type_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", "help")
        assert registry.counter("x") is counter  # idempotent
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")
        json_dump = registry.to_json()
        assert json_dump["x"]["type"] == "counter"

    def test_fill_registry_surfaces_every_family(self):
        telemetry = Telemetry()
        for request_id in range(6):
            telemetry.record_completion(_result(
                request_id, exit_timestep=1 + request_id % TIMESTEPS,
                energy=2.0,
            ))
        telemetry.record_rejection()
        telemetry.record_shed(3)
        telemetry.record_queue_depth(2)
        telemetry.record_queue_depth(9)
        telemetry.record_occupancy(3, 4)

        registry = MetricsRegistry()
        telemetry.fill_registry(registry, max_timesteps=TIMESTEPS)
        metrics = registry.to_json()
        assert metrics["repro_requests_completed_total"]["value"] == 6.0
        assert metrics["repro_requests_rejected_total"]["value"] == 1.0
        assert metrics["repro_requests_shed_total"]["value"] == 3.0
        assert metrics["repro_request_latency_seconds"]["count"] == 6
        assert metrics["repro_request_energy_total"]["value"] == pytest.approx(12.0)
        exits = metrics["repro_request_exit_timesteps"]
        assert exits["buckets"] == [1.0, 2.0, 3.0, 4.0]
        # 6 requests cycling exit 1..4: two exits at t=1 and t=2, one each
        # at t=3 and t=4; nothing beyond the horizon.
        assert exits["counts"] == [2, 2, 1, 1, 0]
        assert metrics["repro_queue_depth_max"]["value"] == 9.0
        assert metrics["repro_occupancy_max"]["value"] == 0.75
