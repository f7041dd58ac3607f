"""Admission queue and future primitives: capacity, backpressure, close."""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AdmissionQueue,
    QueueClosedError,
    QueueFullError,
    Request,
    RequestResult,
    Response,
    ServerClosedError,
    Telemetry,
)
from repro.serve.batcher import fail_round


def make_item(request_id=0):
    return Request(request_id=request_id, inputs=np.zeros((3, 4, 4), dtype=np.float32)), Response()


class TestAdmissionQueue:
    def test_fifo_order(self):
        queue = AdmissionQueue(capacity=4)
        for i in range(3):
            queue.put(*make_item(i))
        assert [queue.get_nowait()[0].request_id for _ in range(3)] == [0, 1, 2]
        assert queue.get_nowait() is None

    def test_full_queue_raises_without_blocking(self):
        queue = AdmissionQueue(capacity=2)
        queue.put(*make_item(0))
        queue.put(*make_item(1))
        with pytest.raises(QueueFullError):
            queue.put(*make_item(2), block=False)
        assert queue.depth() == 2

    def test_full_queue_blocking_times_out(self):
        queue = AdmissionQueue(capacity=1)
        queue.put(*make_item(0))
        with pytest.raises(QueueFullError):
            queue.put(*make_item(1), block=True, timeout=0.02)

    def test_blocked_put_proceeds_when_slot_frees(self):
        queue = AdmissionQueue(capacity=1)
        queue.put(*make_item(0))
        done = threading.Event()

        def submit():
            queue.put(*make_item(1), block=True, timeout=5.0)
            done.set()

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        assert queue.get(timeout=1.0)[0].request_id == 0
        assert done.wait(1.0)
        assert queue.get(timeout=1.0)[0].request_id == 1

    def test_put_many_enqueues_a_round_whole_or_not_at_all(self):
        """One critical section, one clock reading, FIFO after what was
        already queued; a round that does not fit changes nothing."""
        ticks = iter([10.0, 20.0])
        queue = AdmissionQueue(capacity=4, clock=lambda: next(ticks))
        queue.put(*make_item(0))
        round_ = [make_item(1), make_item(2)]
        queue.put_many(round_)
        assert [request.arrival_time for request, _ in round_] == [20.0, 20.0]
        with pytest.raises(QueueFullError):
            queue.put_many([make_item(3), make_item(4)])
        assert queue.depth() == 3
        assert [request.request_id for request, _ in queue.get_nowait(limit=8)] == [0, 1, 2]
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put_many([make_item(5)])

    def test_arrival_time_stamped_at_admission(self):
        ticks = iter([10.0, 20.0])
        queue = AdmissionQueue(capacity=2, clock=lambda: next(ticks))
        request, response = make_item()
        queue.put(request, response)
        assert request.arrival_time == 10.0

    def test_closed_queue_rejects_submissions_but_drains(self):
        queue = AdmissionQueue(capacity=4)
        queue.put(*make_item(0))
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put(*make_item(1))
        assert queue.get(timeout=0.1)[0].request_id == 0
        assert queue.get(timeout=0.1) is None  # closed and empty: no blocking

    def test_drain_pending_fails_queued_futures(self):
        """The queue hands out what it held, futures untouched; the caller's
        ``fail_round`` fails them outside the queue lock."""
        queue = AdmissionQueue(capacity=4)
        _, response = make_item(0)
        request = Request(request_id=0, inputs=np.zeros(3, dtype=np.float32))
        queue.put(request, response)
        drained = queue.drain_pending()
        assert drained == [(request, response)] and queue.depth() == 0
        assert not response.done()
        fail_round(drained, ServerClosedError("server shut down"), "shed",
                   lambda: 0.0, Telemetry())
        with pytest.raises(ServerClosedError):
            response.result(timeout=0.1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)

    def test_dual_conditions_share_the_queue_lock(self):
        """Regression (docs/ANALYSIS.md): put() notifies _not_empty while
        holding _not_full's mutex and vice versa — sound only because both
        conditions wrap the one queue lock.  A condition with its own
        implicit lock would turn every notify into a silent lost wakeup."""
        queue = AdmissionQueue(capacity=2)
        assert queue._not_full._lock is queue._lock
        assert queue._not_empty._lock is queue._lock

    def test_cross_condition_wakeup_actually_wakes(self):
        # End-to-end proof of the invariant above: a consumer blocked on
        # _not_empty must be woken by a put() that entered via _not_full.
        queue = AdmissionQueue(capacity=1)
        got = []

        def consumer():
            got.append(queue.get(timeout=5))

        thread = threading.Thread(target=consumer)
        thread.start()
        queue.put(*make_item(7))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert got and got[0][0].request_id == 7


def _result():
    return RequestResult(request_id=1, prediction=3, exit_timestep=2, score=0.1)


class TestResponse:
    def test_result_blocks_until_resolved(self):
        response = Response()
        with pytest.raises(TimeoutError):
            response.result(timeout=0.01)
        response.set_result(_result())
        assert response.done()
        assert response.result(timeout=0.1).prediction == 3

    def test_exception_propagates(self):
        response = Response()
        response.set_exception(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            response.result(timeout=0.1)

    def test_done_before_and_after(self):
        for resolve in (
            lambda r: r.set_result(_result()),
            lambda r: r.set_exception(RuntimeError("boom")),
        ):
            response = Response()
            assert not response.done()
            resolve(response)
            assert response.done()

    def test_zero_timeout_polls(self):
        response = Response()
        start = time.monotonic()
        for timeout in (0, 0.0, -1.0):  # a spent budget polls, like Event.wait
            with pytest.raises(TimeoutError):
                response.result(timeout=timeout)
        assert time.monotonic() - start < 1.0
        response.set_result(_result())
        assert response.result(timeout=0).prediction == 3

    def test_resolved_before_wait_never_blocks(self):
        response = Response()
        result = _result()
        response.set_result(result)
        for timeout in (None, 0, 5.0):
            assert response.result(timeout=timeout) is result
        assert response.done()

    def test_no_timeout_blocks_until_another_thread_resolves(self):
        response = Response()
        result = _result()
        waiting = threading.Event()

        def resolve():
            assert waiting.wait(5.0)
            time.sleep(0.05)
            response.set_result(result)

        thread = threading.Thread(target=resolve, daemon=True)
        thread.start()
        waiting.set()
        assert response.result() is result  # timeout=None: parked until resolved
        thread.join(5.0)
        assert not thread.is_alive()

    def test_concurrent_waiters_all_get_the_same_result(self):
        response = Response()
        result = _result()
        got, parked = [], threading.Barrier(9)

        def wait():
            parked.wait(5.0)
            got.append(response.result(timeout=10.0))

        threads = [threading.Thread(target=wait, daemon=True) for _ in range(8)]
        for thread in threads:
            thread.start()
        parked.wait(5.0)
        time.sleep(0.05)  # let them park in result()
        assert got == []
        response.set_result(result)
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8 and all(item is result for item in got)
        assert response.done() and response.result(timeout=0) is result

    def test_concurrent_waiters_all_raise_the_failure(self):
        response = Response()
        raised = []

        def wait():
            try:
                response.result(timeout=10.0)
            except RuntimeError as error:
                raised.append(error)

        threads = [threading.Thread(target=wait, daemon=True) for _ in range(8)]
        for thread in threads:
            thread.start()
        response.set_exception(RuntimeError("boom"))
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(raised) == 8

    def test_a_second_resolution_does_not_raise(self):
        """Nothing in src/ resolves a future twice, but a late second
        resolution (a crash monitor racing a collector) must be harmless.
        The outcome is whatever ``result()`` always did: a stored exception
        wins over a stored result, the later of two like resolutions wins."""
        first, second = _result(), _result()

        response = Response()
        response.set_result(first)
        response.set_exception(RuntimeError("late"))
        with pytest.raises(RuntimeError, match="late"):
            response.result(timeout=0)

        response = Response()
        response.set_exception(RuntimeError("early"))
        response.set_result(first)
        with pytest.raises(RuntimeError, match="early"):
            response.result(timeout=0)

        response = Response()
        response.set_result(first)
        response.set_result(second)
        assert response.result(timeout=0) is second

        response = Response()
        response.set_exception(RuntimeError("one"))
        response.set_exception(RuntimeError("two"))
        with pytest.raises(RuntimeError, match="two"):
            response.result(timeout=0)
        assert response.done()

    def test_a_second_resolution_races_waiters_harmlessly(self):
        """Waiters pass the latch hand to hand; a second resolution landing
        while one of them holds it must neither raise nor strand anyone."""
        for _ in range(50):
            response = Response()
            result = _result()
            got, errors = [], []

            def wait():
                try:
                    got.append(response.result(timeout=10.0))
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [threading.Thread(target=wait, daemon=True) for _ in range(4)]
            for thread in threads:
                thread.start()
            response.set_result(result)
            response.set_result(result)
            for thread in threads:
                thread.join(5.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [] and len(got) == 4
            assert response.done() and response.result(timeout=0) is result


class TestRequestResult:
    def test_latency_decomposition(self):
        result = RequestResult(
            request_id=0, prediction=1, exit_timestep=2, score=0.0,
            arrival_time=1.0, start_time=1.5, finish_time=3.0, label=1,
        )
        assert result.queue_delay == pytest.approx(0.5)
        assert result.service_time == pytest.approx(1.5)
        assert result.latency == pytest.approx(2.0)
        assert result.correct is True
