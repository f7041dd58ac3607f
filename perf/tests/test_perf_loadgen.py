"""Load-generator unit tests on an injected clock."""

from repro.serve import QueueFullError, RequestResult

from perf.loadgen import (
    REFERENCE_KERNEL_S,
    WINDOW,
    box_slowness,
    closed_loop,
    merge,
    open_loop,
    segment_stats,
    window_stats,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


class FakeResponse:
    def __init__(self, result):
        self._result = result

    def result(self, timeout=None):
        return self._result


class FakeServer:
    """Sending takes ``send_cost``; service takes ``service`` after the send."""

    def __init__(self, clock, send_cost, service, refuse=()):
        self.clock, self.send_cost, self.service = clock, send_cost, service
        self.refuse = set(refuse)
        self.seen = 0

    def submit(self, inputs, label, block=True, timeout=None):
        position = self.seen
        self.seen += 1
        self.clock.now += self.send_cost
        if position in self.refuse:
            raise QueueFullError("full")
        return FakeResponse(RequestResult(
            request_id=position, prediction=0, exit_timestep=1, score=0.0,
            label=label, finish_time=self.clock.now + self.service,
        ))


def test_open_loop_due_times_are_multiplicative():
    clock = FakeClock()
    server = FakeServer(clock, send_cost=0.0, service=0.001)
    rate, burst, count = 3000.0, 8, 3000
    outcome = open_loop(server, [(None, 0)] * count, rate, burst, clock, clock.sleep)
    period = burst / rate
    assert outcome.due == [100.0 + (i // burst) * period for i in range(count)]
    # Accumulating `+= period` drifts away from the schedule; the generator must not.
    accumulated, drifted = 100.0, []
    for _ in range(count // burst):
        drifted.extend([accumulated] * burst)
        accumulated += period
    assert outcome.due != drifted
    assert outcome.sent == count and outcome.refused == 0
    assert max(outcome.lags()) == 0.0  # a free send on a fake clock is never late


def test_open_loop_latency_is_from_due_not_from_send():
    clock = FakeClock()
    # Each send costs 1 ms but a burst of 4 is due every 2 ms: the generator
    # falls behind, and the wait that imposes on later requests must be
    # charged to them.
    server = FakeServer(clock, send_cost=0.001, service=0.0005)
    outcome = open_loop(server, [(None, 0)] * 16, 2000.0, 4, clock, clock.sleep)
    latencies = outcome.latencies()
    lags = outcome.lags()
    assert lags[0] == 0.0 and lags[-1] > 0.005
    for latency, result, due, sent_at in zip(
            latencies, outcome.results, outcome.due, outcome.sent_at):
        assert latency == result.finish_time - due
        assert latency >= result.finish_time - sent_at
    assert latencies[-1] > 0.005  # dominated by the generator's lateness
    assert outcome.wall() == outcome.results[-1].finish_time - outcome.due[0]


def test_open_loop_counts_refusals_and_keeps_positions():
    clock = FakeClock()
    server = FakeServer(clock, send_cost=0.0, service=0.001, refuse={1, 5})
    outcome = open_loop(server, [(None, 0)] * 8, 1000.0, 2, clock, clock.sleep)
    assert outcome.refused == 2 and outcome.sent == 8
    assert [r is None for r in outcome.results] == [i in (1, 5) for i in range(8)]
    assert len(outcome.completed()) == 6 and len(outcome.latencies()) == 6


def test_closed_loop_is_due_when_the_client_turns_to_the_request():
    clock = FakeClock()
    server = FakeServer(clock, send_cost=0.002, service=0.001)
    outcome = closed_loop(server, [(None, 0)] * 5, clock)
    assert outcome.due == outcome.sent_at
    assert [round(due - 100.0, 6) for due in outcome.due] == [0.0, 0.002, 0.004, 0.006, 0.008]
    assert all(abs(latency - 0.003) < 1e-12 for latency in outcome.latencies())


def test_window_stats_skip_ramp_and_tail_and_use_the_cpu_marks():
    clock = FakeClock()
    server = FakeServer(clock, send_cost=0.001, service=0.004)
    # Parent and child CPU clocks that advance at 1/2 and 1/4 of wall time.
    outcome = closed_loop(server, [(None, 0)] * (5 * WINDOW), clock,
                          mark=lambda: (clock.now / 2, clock.now / 4))
    assert len(outcome.marks) == 5 + 1  # one per window start, one after the last future
    windows = window_stats(outcome, slo_ms=5.5)
    assert all(len(values) == 3 for values in windows.values())  # windows 1, 2, 3 of 0..4
    assert all(abs(rate - 1000.0) < 1e-6 for rate in windows["rps"])  # one send per ms
    assert all(abs(p50 - 5.0) < 1e-9 for p50 in windows["p50_ms"])  # send + service
    assert all(abs(p90 - 5.0) < 1e-9 for p90 in windows["p90_ms"])
    assert all(abs(us - 750.0) < 1e-6 for us in windows["cpu_us"])  # 3/4 of 1 ms each
    assert list(windows["slo_ok"]) == [1.0, 1.0, 1.0]
    assert list(window_stats(outcome, slo_ms=4.5)["slo_ok"]) == [0.0, 0.0, 0.0]


def test_segments_merge_by_position_and_leave_the_pauses_out():
    clock = FakeClock()
    server = FakeServer(clock, send_cost=0.001, service=0.004)
    first = closed_loop(server, [(None, 0)] * 10, clock)
    clock.now += 7.0  # the generator reads the box's speed between segments
    second = closed_loop(server, [(None, 1)] * 5, clock)
    whole = merge([first, second])
    assert whole.sent == 15 and whole.refused == 0
    assert [r.label for r in whole.results] == [0] * 10 + [1] * 5
    assert abs(whole.paused_s - (7.0 - 0.004)) < 1e-9  # from the last finish to the next send
    assert abs(whole.wall() - (first.wall() + second.wall())) < 1e-9
    assert list(whole.latencies()) == list(first.latencies()) + list(second.latencies())


def test_segment_stats_state_timings_at_the_reference_speed():
    clock = FakeClock()
    server = FakeServer(clock, send_cost=0.001, service=0.004)
    outcome = closed_loop(server, [(None, 0)] * (5 * WINDOW), clock,
                          mark=lambda: (clock.now / 2, clock.now / 4))
    quiet = segment_stats(outcome, slo_ms=5.5, slowness=1.0)
    assert abs(quiet["rps"] - 1000.0) < 1e-6 and abs(quiet["cpu_us"] - 750.0) < 1e-6
    # The same readings on a box running 1.6x slow: the code is 1.6x faster
    # than it looked.  Shares are not scaled.
    slow = segment_stats(outcome, slo_ms=5.5, slowness=1.6)
    assert abs(slow["rps"] - 1600.0) < 1e-6
    assert abs(slow["cpu_us"] - 750.0 / 1.6) < 1e-6
    assert abs(slow["p50_ms"] - 5.0 / 1.6) < 1e-9 and abs(slow["p90_ms"] - 5.0 / 1.6) < 1e-9
    assert slow["slo_ok"] == quiet["slo_ok"] == 1.0


def test_box_slowness_is_the_fastest_kernel_over_the_reference():
    ticks = iter([0.0, 0.009, 1.0, 1.0045, 2.0, 2.006])  # began/ended of three executions
    assert abs(box_slowness(repeats=3, clock=lambda: next(ticks)) - 0.0045 / REFERENCE_KERNEL_S) < 1e-12
