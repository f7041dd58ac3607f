"""Server front-end: futures, backpressure, graceful drain, shutdown."""

import time

import numpy as np
import pytest

from repro.core import EntropyExitPolicy
from repro.serve import (
    LoadGenerator,
    QueueFullError,
    Server,
    ServerClosedError,
    request_stream,
)


class SlowPolicy(EntropyExitPolicy):
    """Entropy policy with an artificial per-step delay (forces queue growth)."""

    def __init__(self, threshold=0.2, delay=0.02):
        super().__init__(threshold=threshold)
        self.delay = delay

    def score(self, cumulative_logits):
        # score() is the one policy evaluation the engine makes per step.
        time.sleep(self.delay)
        return super().score(cumulative_logits)


class TestServerLifecycle:
    def test_submit_before_start_rejected(self, trained_model):
        server = Server(trained_model, EntropyExitPolicy(0.2))
        with pytest.raises(ServerClosedError):
            server.submit(np.zeros((3, 10, 10), dtype=np.float32))

    def test_predict_roundtrip(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        with Server(trained_model, EntropyExitPolicy(0.5), batch_width=4) as server:
            prediction = server.predict(test.inputs[0], timeout=10.0)
        assert 0 <= prediction < test.num_classes

    def test_graceful_drain_completes_everything(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        server = Server(
            trained_model, EntropyExitPolicy(0.5), batch_width=4, queue_capacity=64
        ).start()
        responses = [
            server.submit(test.inputs[i], int(test.labels[i])) for i in range(24)
        ]
        server.shutdown(drain=True, timeout=30.0)
        assert all(response.done() for response in responses)
        results = [response.result(timeout=1.0) for response in responses]
        assert server.telemetry.completed == 24
        assert {r.request_id for r in results} == set(range(24))
        with pytest.raises(ServerClosedError):
            server.submit(test.inputs[0])

    def test_hard_shutdown_fails_pending_requests(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        server = Server(
            trained_model,
            SlowPolicy(threshold=0.0, delay=0.05),  # never exits early, slow steps
            batch_width=1,
            queue_capacity=32,
        ).start()
        responses = [server.submit(test.inputs[i]) for i in range(8)]
        server.shutdown(drain=False, timeout=5.0)
        # Every request either finished before the stop or was aborted.
        completed = failures = 0
        for response in responses:
            try:
                response.result(timeout=1.0)
                completed += 1
            except Exception:
                failures += 1
        assert completed + failures == 8
        assert failures >= 1

    def test_backpressure_rejects_when_queue_full(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        server = Server(
            trained_model,
            SlowPolicy(threshold=0.0, delay=0.05),
            batch_width=1,
            queue_capacity=1,
        ).start()
        try:
            rejected = 0
            for i in range(8):
                try:
                    server.submit(test.inputs[i % len(test)], block=False)
                except QueueFullError:
                    rejected += 1
            assert rejected >= 1
            assert server.telemetry.rejected == rejected
        finally:
            server.shutdown(drain=False, timeout=5.0)


class TestLoadGenerator:
    def test_closed_loop_serves_whole_stream(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        server = Server(trained_model, EntropyExitPolicy(0.5), batch_width=4).start()
        report = LoadGenerator(server).run(request_stream(test, 20, seed=3))
        server.shutdown(drain=True)
        assert report.offered == 20
        assert report.completed == 20
        assert report.dropped == 0
        assert report.throughput_rps > 0
        assert report.accuracy() is not None
        assert 1.0 <= report.average_exit_timesteps() <= 4.0

    def test_open_loop_paces_arrivals(self, trained_model, tiny_dataset):
        _, test = tiny_dataset
        server = Server(trained_model, EntropyExitPolicy(0.5), batch_width=4).start()
        report = LoadGenerator(server, rate=200.0).run(request_stream(test, 10, seed=3))
        server.shutdown(drain=True)
        assert report.completed == 10
        # 10 arrivals at 200 req/s occupy at least (10-1)/200 seconds.
        assert report.duration >= 9 / 200.0

    def test_request_stream_is_deterministic(self, tiny_dataset):
        _, test = tiny_dataset
        first = list(request_stream(test, 30, seed=9))
        second = list(request_stream(test, 30, seed=9))
        for (a_x, a_y), (b_x, b_y) in zip(first, second):
            assert np.array_equal(a_x, b_x)
            assert a_y == b_y
        # Wrap-around past the dataset size stays deterministic and covers data.
        long = list(request_stream(test, len(test) + 10, seed=9))
        assert len(long) == len(test) + 10


class TestWorkerCrash:
    def test_crashed_worker_fails_futures_and_closes_server(
        self, trained_model, tiny_dataset
    ):
        _, test = tiny_dataset
        server = Server(trained_model, EntropyExitPolicy(0.5), batch_width=2)

        def faulty_step():
            raise FloatingPointError("injected kernel fault")

        # A kernel fault inside the worker (a malformed input no longer
        # reaches one: it is a typed rejection, test_malformed_input.py).
        server.batchers[0].engine.step = faulty_step
        server.start()
        doomed = server.submit(test.inputs[0])
        with pytest.raises(ServerClosedError, match="injected kernel fault"):
            doomed.result(timeout=10.0)
        # The worker fail-stops: admissions close and later submits are refused
        # instead of hanging forever.
        deadline = time.monotonic() + 5.0
        while not server.queue.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.queue.closed
        with pytest.raises(ServerClosedError):
            server.submit(test.inputs[0])
        # The crash is recorded on the server, not re-raised out of the thread.
        server.drain(timeout=5.0)
        assert isinstance(server.worker_error, FloatingPointError)
