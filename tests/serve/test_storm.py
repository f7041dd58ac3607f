"""Overload resilience: storm-guard FSM, brown-out, deadlines, and epochs.

The contracts pinned here:

1. **FSM semantics** — immediate escalation (a vertical load edge may skip
   WARN), hysteretic stepwise recovery (``cooldown`` consecutive calm
   evaluations per level, calm = well below the *current* entry watermark),
   and priority-class admission (WARN sheds LOW, STORM admits only HIGH).
2. **Epoch stamping** — every submission carries a frozen
   :class:`ThresholdEpoch`; the engine evaluates each slot under its stamped
   knobs, so a completed request's recorded threshold is *provably* the one
   that made the decision, on threads and process replicas alike.  This
   closes the PR 5 caveat: moving-threshold traces are now replayable and
   bitwise-verifiable.
3. **Deterministic storm arc** — under a fake clock, a calm → flood → drain
   scenario walks NORMAL → STORM → NORMAL with monotone shed-by-class,
   brown-out-stamped completions bitwise-equal to the Tensor oracle under
   the aggressive knobs, deadline-bounded latency for everything accepted,
   and conservation of outcomes (no stranded futures).
4. **Queue regressions** — ``AdmissionQueue.get`` survives spurious wakeups
   (condition re-checked in a loop, remaining-deadline honored) and
   queue-full rejections are accounted exactly once (telemetry + WAL) on
   both the fail-fast and the blocking-timeout path.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import DynamicTimestepInference
from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    AdaptiveThresholdController,
    AdmissionQueue,
    Backtester,
    DeadlineExceededError,
    EpochLedger,
    LoadGenerator,
    QueueFullError,
    ReplicaCrashError,
    Server,
    StormConfig,
    StormPhase,
    StormShedError,
    StormState,
    TraceRecorder,
    load_trace,
    priority_cycle,
    request_stream,
    storm_phases,
)
from repro.serve.storm import StormGuard
from repro.snn import spiking_vgg
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10
THRESHOLD = 0.5


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


def _oracle(model, xs, threshold, horizon=TIMESTEPS):
    """Sequential Tensor-oracle decisions under explicit knobs."""
    logits = model.forward(xs, TIMESTEPS).cumulative_numpy()
    return DynamicTimestepInference(
        policy=EntropyExitPolicy(threshold), max_timesteps=horizon
    ).infer_from_logits(logits[:horizon])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class _StubQueue:
    def __init__(self, capacity=10, depth=0):
        self.capacity = capacity
        self._depth = depth

    def depth(self):
        return self._depth


class _StubTelemetry:
    def __init__(self, p95=None):
        self.p95 = p95
        self.states = []

    def recent_p95(self):
        return self.p95

    def record_storm_state(self, code):
        self.states.append(code)


def _guard(depth=0, capacity=10, p95=None, **config):
    clock = FakeClock()
    queue = _StubQueue(capacity=capacity, depth=depth)
    telemetry = _StubTelemetry(p95=p95)
    guard = StormGuard(queue, telemetry, config=StormConfig(**config),
                       clock=clock)
    return guard, queue, telemetry, clock


# --------------------------------------------------------------------------- #
class TestStormFSM:
    def test_vertical_load_edge_escalates_straight_to_storm(self):
        guard, queue, telemetry, _ = _guard(depth=0, capacity=10,
                                            queue_warn=0.3, queue_storm=0.8)
        assert guard.observe() == StormState.NORMAL
        queue._depth = 9  # 0.9 >= queue_storm: skip WARN entirely
        assert guard.observe() == StormState.STORM
        assert telemetry.states == [2]

    def test_recovery_is_stepwise_and_hysteretic(self):
        guard, queue, _, _ = _guard(depth=9, capacity=10, cooldown=3,
                                    queue_warn=0.3, queue_storm=0.8,
                                    exit_fraction=0.5)
        assert guard.observe() == StormState.STORM
        # Below storm entry but NOT below exit_fraction * entry (0.5*0.8=0.4):
        # pressure dropped, yet the evaluation is not calm — no countdown.
        queue._depth = 5
        for _ in range(10):
            assert guard.observe() == StormState.STORM
        # Calm (depth 0.1 < 0.4): cooldown evals step down ONE level only.
        queue._depth = 1
        assert guard.observe() == StormState.STORM
        assert guard.observe() == StormState.STORM
        assert guard.observe() == StormState.WARN
        # And the countdown restarts for WARN -> NORMAL (calm vs 0.5*0.3).
        assert guard.observe() == StormState.WARN
        assert guard.observe() == StormState.WARN
        assert guard.observe() == StormState.NORMAL

    def test_calm_counter_resets_on_a_pressure_blip(self):
        guard, queue, _, _ = _guard(depth=9, capacity=10, cooldown=2,
                                    queue_warn=0.3, queue_storm=0.8)
        assert guard.observe() == StormState.STORM
        queue._depth = 0
        guard.observe()  # calm #1
        queue._depth = 5  # blip above exit watermark resets the countdown
        guard.observe()
        queue._depth = 0
        guard.observe()  # calm #1 again
        assert guard.state == StormState.STORM
        guard.observe()  # calm #2 -> step down
        assert guard.state == StormState.WARN

    def test_min_interval_rate_limits_evaluations(self):
        guard, queue, _, clock = _guard(depth=9, capacity=10,
                                        min_interval=1.0)
        assert guard.observe() == StormState.STORM
        queue._depth = 0
        # Same instant: evaluation skipped, state frozen.
        for _ in range(5):
            guard.observe()
        assert guard.state == StormState.STORM
        clock.advance(1.5)
        guard.observe()
        assert guard._calm == 1  # the next eval actually ran

    def test_p95_signal_drives_the_fsm_when_a_target_is_known(self):
        guard, _, _, _ = _guard(depth=0, capacity=10, p95=0.4,
                                target_p95=0.1, p95_warn=1.5, p95_storm=3.0)
        assert guard.observe() == StormState.STORM  # ratio 4.0 >= 3.0
        guard2, _, _, _ = _guard(depth=0, capacity=10, p95=0.2,
                                 target_p95=0.1)
        assert guard2.observe() == StormState.WARN  # ratio 2.0 >= 1.5

    def test_admission_by_priority_class(self):
        guard, queue, _, _ = _guard(depth=0, capacity=10,
                                    queue_warn=0.3, queue_storm=0.8)
        for priority in (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW):
            guard.admit(priority)  # NORMAL admits everything
        queue._depth = 4
        guard.observe()
        assert guard.state == StormState.WARN
        guard.admit(PRIORITY_HIGH)
        guard.admit(PRIORITY_NORMAL)
        with pytest.raises(StormShedError) as info:
            guard.admit(PRIORITY_LOW)
        assert info.value.state == StormState.WARN
        assert info.value.priority == PRIORITY_LOW
        assert isinstance(info.value, QueueFullError)  # backpressure-compatible
        queue._depth = 9
        guard.observe()
        guard.admit(PRIORITY_HIGH)
        for priority in (PRIORITY_NORMAL, PRIORITY_LOW):
            with pytest.raises(StormShedError):
                guard.admit(priority)

    def test_effective_knobs_brown_out_only_under_storm(self):
        guard, queue, _, _ = _guard(depth=0, capacity=10,
                                    queue_storm=0.8, horizon_cap=2,
                                    brownout_threshold=0.9)
        assert guard.effective(0.5) == (0.5, None, False)
        queue._depth = 9
        guard.observe()
        assert guard.effective(0.5) == (0.9, 2, True)

    def test_brownout_threshold_falls_back_to_controller_bound(self):
        policy = EntropyExitPolicy(0.5)
        controller = AdaptiveThresholdController(
            policy=policy, target_p95_latency=0.1,
            min_threshold=0.2, max_threshold=0.8,
        )
        guard = StormGuard(_StubQueue(), _StubTelemetry(),
                           controller=controller, policy=policy)
        assert guard.brownout_threshold() == 0.8  # aggressive_is_higher
        controller.aggressive_is_higher = False
        assert guard.brownout_threshold() == 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StormConfig(queue_warn=0.9, queue_storm=0.5)
        with pytest.raises(ValueError):
            StormConfig(exit_fraction=0.0)
        with pytest.raises(ValueError):
            StormConfig(cooldown=0)
        with pytest.raises(ValueError):
            StormConfig(horizon_cap=0)


# --------------------------------------------------------------------------- #
class TestLoadgenStormProfile:
    def test_storm_phases_shape(self):
        phases = storm_phases(10.0, storm_multiplier=4.0, warmup=1.0,
                              storm=2.0, recovery=3.0)
        assert [p.rate for p in phases] == [10.0, 40.0, 10.0]
        assert [p.duration for p in phases] == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            storm_phases(0.0)
        with pytest.raises(ValueError):
            storm_phases(10.0, storm_multiplier=1.0)

    def test_arrival_offsets_are_piecewise_constant(self):
        generator = LoadGenerator(
            object.__new__(Server),  # offsets don't touch the server
            phases=[StormPhase(1.0, 10.0), StormPhase(0.5, 40.0)],
        )
        offsets = generator._arrival_offsets()
        first = [next(offsets) for _ in range(34)]
        assert sum(1 for t in first if t < 1.0) == 10
        assert sum(1 for t in first if 1.0 <= t < 1.5) == 20
        # Past the schedule the final rate continues: spacing 1/40.
        assert first[31] - first[30] == pytest.approx(0.025)
        assert all(b > a for a, b in zip(first, first[1:]))

    def test_priority_cycle_is_deterministic(self):
        import itertools
        a = list(itertools.islice(priority_cycle(), 12))
        b = list(itertools.islice(priority_cycle(), 12))
        assert a == b
        assert a[:4] == [PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_NORMAL,
                         PRIORITY_LOW]
        uniform = list(itertools.islice(
            priority_cycle({PRIORITY_HIGH: 1, PRIORITY_LOW: 1}), 4))
        assert uniform == [PRIORITY_HIGH, PRIORITY_LOW] * 2
        with pytest.raises(ValueError):
            next(priority_cycle({}))

    def test_generator_rejects_conflicting_pacing(self):
        with pytest.raises(ValueError):
            LoadGenerator(object.__new__(Server), rate=10.0,
                          phases=[StormPhase(1.0, 10.0)])
        with pytest.raises(ValueError):
            LoadGenerator(object.__new__(Server), phases=[])
        with pytest.raises(ValueError):
            LoadGenerator(object.__new__(Server), deadline=0.0)


# --------------------------------------------------------------------------- #
class TestQueueGetWaitLoop:
    """Regression: ``get`` used a single ``Condition.wait`` outside a loop, so
    a spurious wakeup (or a notify raced away by another consumer) returned
    None long before the timeout."""

    def test_spurious_wakeup_does_not_cut_the_timeout_short(self):
        queue = AdmissionQueue(capacity=2)

        def poke():
            time.sleep(0.05)
            with queue._not_empty:
                queue._not_empty.notify_all()  # wake without an item

        thread = threading.Thread(target=poke)
        thread.start()
        start = time.monotonic()
        assert queue.get(timeout=0.4) is None
        elapsed = time.monotonic() - start
        thread.join()
        # The whole timeout was honored despite the mid-wait wakeup.
        assert elapsed >= 0.3

    def test_item_arriving_after_spurious_wakeup_is_delivered(self):
        queue = AdmissionQueue(capacity=2)
        from repro.serve import Request, Response
        request = Request(request_id=1, inputs=np.zeros((1,), np.float32))

        def poke_then_put():
            with queue._not_empty:
                queue._not_empty.notify_all()
            time.sleep(0.05)
            queue.put(request, Response(), block=False)

        thread = threading.Thread(target=poke_then_put)
        thread.start()
        item = queue.get(timeout=2.0)
        thread.join()
        assert item is not None and item[0].request_id == 1

    def test_closed_queue_still_returns_none_immediately(self):
        queue = AdmissionQueue(capacity=2)
        queue.close()
        start = time.monotonic()
        assert queue.get(timeout=1.0) is None
        assert time.monotonic() - start < 0.5


# --------------------------------------------------------------------------- #
class TestControllerHistoryBound:
    def _controller(self, **kwargs):
        return AdaptiveThresholdController(
            policy=EntropyExitPolicy(0.5), target_p95_latency=0.1,
            min_threshold=0.1, max_threshold=0.9, **kwargs)

    def test_history_is_bounded_by_the_limit(self):
        controller = self._controller(history_limit=8)
        for _ in range(50):
            controller.observe_p95(0.2)
        assert len(controller.history) == 8
        # The retained tail is the most recent decisions.
        assert all(p95 == 0.2 for p95, _ in controller.history)

    def test_default_limit_caps_a_long_run(self):
        controller = self._controller()
        assert controller.history.maxlen == 4096

    def test_none_disables_the_cap(self):
        controller = self._controller(history_limit=None)
        for _ in range(5000):
            controller.observe_p95(0.2)
        assert len(controller.history) == 5000

    def test_invalid_limit_raises(self):
        with pytest.raises(ValueError):
            self._controller(history_limit=0)


# --------------------------------------------------------------------------- #
def _manual_server(model, *, clock=None, capacity=16, batch_width=2,
                   storm=None, trace=None, threshold=THRESHOLD):
    """A 1-worker server driven by hand (no threads): submissions go through
    the full admission path, service happens via ``batchers[0].run_once``."""
    server = Server(
        model, EntropyExitPolicy(threshold), max_timesteps=TIMESTEPS,
        batch_width=batch_width, queue_capacity=capacity, num_workers=1,
        use_runtime=True, clock=clock or time.monotonic, storm=storm,
        trace=trace,
    )
    server._started = True  # manual drive: no worker threads
    return server


class TestQueueFullShedAccounting:
    """Queue-full rejections reach the telemetry counter and the WAL reject
    line exactly once — on the fail-fast AND the blocking-timeout path."""

    def test_failfast_and_blocking_timeout_each_account_once(self, tmp_path):
        model = _model()
        clock = FakeClock()
        trace = TraceRecorder(str(tmp_path / "shed.trace"), meta={})
        server = _manual_server(model, clock=clock, capacity=2, trace=trace)
        xs = _inputs(4)
        server.submit(xs[0])
        server.submit(xs[1])  # queue now full
        with pytest.raises(QueueFullError):
            server.submit(xs[2], block=False)
        assert server.telemetry.snapshot()["rejected"] == 1.0
        assert trace.rejections_written == 1
        # Blocking path: the fake clock never advances inside wait(), so
        # pre-expire the deadline — put() must take the timeout branch.
        with pytest.raises(QueueFullError):
            server.submit(xs[3], block=True, timeout=-1.0)
        assert server.telemetry.snapshot()["rejected"] == 2.0
        assert trace.rejections_written == 2
        server.queue.close()
        server.queue.drain_pending()
        trace.close()
        loaded = load_trace(str(tmp_path / "shed.trace"))
        assert len(loaded.rejections) == 2


class TestDeadlineEnforcement:
    def test_expired_request_is_dropped_at_dispatch(self, tmp_path):
        model = _model()
        clock = FakeClock()
        trace = TraceRecorder(str(tmp_path / "deadline.trace"), meta={})
        server = _manual_server(model, clock=clock, trace=trace)
        xs = _inputs(2)
        fresh = server.submit(xs[0], deadline=10.0)
        doomed = server.submit(xs[1], deadline=0.5)
        clock.advance(1.0)  # past the second deadline, inside the first
        batcher = server.batchers[0]
        for _ in range(TIMESTEPS + 1):
            batcher.run_once()
        assert fresh.result(timeout=0) is not None
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=0)
        assert server.telemetry.deadline_drops_by_class == {PRIORITY_NORMAL: 1}
        assert server.telemetry.snapshot()["deadline_dropped"] == 1.0
        trace.close()
        loaded = load_trace(str(tmp_path / "deadline.trace"))
        assert [r.get("reason") for r in loaded.rejections] == ["deadline"]


# --------------------------------------------------------------------------- #
class TestEpochStamping:
    def test_ledger_bumps_only_on_knob_change(self):
        ledger = EpochLedger()
        first = ledger.stamp(0.5)
        again = ledger.stamp(0.5)
        assert first.epoch == again.epoch == 0
        moved = ledger.stamp(0.7)
        assert moved.epoch == 1
        capped = ledger.stamp(0.7, horizon=2)
        assert capped.epoch == 2
        assert ledger.stamp(0.7, horizon=2).epoch == 2

    def test_midrun_threshold_change_is_per_request_exact(self):
        """THE PR 5 regression: a threshold moved after submission must not
        retroactively change an in-flight request's decision or its recorded
        threshold."""
        model = _model()
        xs = _inputs(6)
        theta0, theta1 = 0.3, 0.9
        expected0 = _oracle(model, xs[:3], theta0)
        expected1 = _oracle(model, xs[3:], theta1)
        server = _manual_server(model, threshold=theta0, batch_width=6)
        early = [server.submit(x) for x in xs[:3]]
        # Knob moves while the first half is queued but unserved: the stamps
        # decide, not the live policy at service time.
        server.policy.threshold = theta1
        late = [server.submit(x) for x in xs[3:]]
        batcher = server.batchers[0]
        for _ in range(TIMESTEPS + 2):
            batcher.run_once()
        for i, response in enumerate(early):
            result = response.result(timeout=0)
            assert result.threshold == theta0
            assert result.epoch == 0
            assert (result.prediction, result.exit_timestep) == (
                int(expected0.predictions[i]), int(expected0.exit_timesteps[i]))
        for i, response in enumerate(late):
            result = response.result(timeout=0)
            assert result.threshold == theta1
            assert result.epoch == 1
            assert (result.prediction, result.exit_timestep) == (
                int(expected1.predictions[i]), int(expected1.exit_timesteps[i]))

    def test_explicit_pin_overrides_live_knob_and_horizon(self):
        model = _model()
        xs = _inputs(3)
        pinned = _oracle(model, xs, 0.05, horizon=2)
        server = _manual_server(model, threshold=0.9, batch_width=3)
        responses = [server.submit(x, threshold=0.05, horizon=2) for x in xs]
        batcher = server.batchers[0]
        for _ in range(TIMESTEPS + 1):
            batcher.run_once()
        for i, response in enumerate(responses):
            result = response.result(timeout=0)
            assert result.threshold == 0.05
            assert result.horizon == 2
            assert result.exit_timestep <= 2
            assert (result.prediction, result.exit_timestep) == (
                int(pinned.predictions[i]), int(pinned.exit_timesteps[i]))


def _record_moving_threshold(model, xs, path, *, num_workers=1,
                             num_replicas=0, theta0=0.3, theta1=0.9):
    """Record a trace while the live threshold moves mid-run; returns
    (trace, results keyed by request order)."""
    recorder = TraceRecorder(str(path), meta={
        "threshold": theta0, "max_timesteps": TIMESTEPS})
    policy = EntropyExitPolicy(theta0)
    server = Server(
        model, policy, max_timesteps=TIMESTEPS, batch_width=3,
        queue_capacity=len(xs), num_workers=num_workers,
        num_replicas=num_replicas, use_runtime=True, trace=recorder,
    ).start()
    try:
        half = len(xs) // 2
        first = [server.submit(x) for x in xs[:half]]
        results = [f.result(timeout=60.0) for f in first]
        policy.threshold = theta1
        second = [server.submit(x) for x in xs[half:]]
        results += [f.result(timeout=60.0) for f in second]
    finally:
        server.shutdown(drain=True)
        recorder.close()
    return load_trace(str(path)), results


class TestEpochConsistencyMatrix:
    """Acceptance: across {1,2 workers} x {1,2 replicas}, every completed
    request's recorded threshold bitwise-matches the epoch it executed
    under, and the replayer verifies the moving-threshold trace."""

    COMPOSITIONS = [
        dict(num_workers=1, num_replicas=0),
        dict(num_workers=2, num_replicas=0),
        dict(num_workers=1, num_replicas=1),
        dict(num_workers=1, num_replicas=2),
    ]

    @pytest.mark.parametrize("composition", COMPOSITIONS,
                             ids=["w1", "w2", "r1", "r2"])
    def test_moving_threshold_trace_is_epoch_exact_and_replayable(
            self, tmp_path, composition):
        model = _model()
        xs = _inputs(12)
        theta0, theta1 = 0.3, 0.9
        trace, results = _record_moving_threshold(
            model, xs, tmp_path / "moving.trace", theta0=theta0,
            theta1=theta1, **composition)
        # The recording itself: stamped, with both epochs represented, and
        # the recorded threshold equal to the stamped one per request.
        assert trace.fixed_threshold() is None
        assert trace.epoch_stamped()
        assert {r.threshold for r in trace.records} == {theta0, theta1}
        half = len(xs) // 2
        for i, result in enumerate(results):
            expected = theta0 if i < half else theta1
            assert result.threshold == expected, f"request {i}"
        by_id = {r.request_id: r for r in trace.records}
        for result in results:
            assert by_id[result.request_id].threshold == result.threshold
            assert by_id[result.request_id].epoch == result.epoch
        # Per-request oracle equality under the stamped knob: the engine
        # provably used the stamp, not whatever the live policy held.
        expected0 = _oracle(model, xs[:half], theta0)
        expected1 = _oracle(model, xs[half:], theta1)
        for i, result in enumerate(results):
            oracle, j = (expected0, i) if i < half else (expected1, i - half)
            assert (result.prediction, result.exit_timestep) == (
                int(oracle.predictions[j]), int(oracle.exit_timesteps[j])), \
                f"request {i}"
        # And the recorded baseline no longer refuses the moving-threshold
        # trace: it pins each request to its recorded epoch and diffs bitwise.
        replayer = Backtester(trace)
        replay_server = Server(
            model, EntropyExitPolicy(theta0), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=len(xs), use_runtime=True,
        ).start()
        try:
            baseline, mismatches = replayer.replay(replay_server)
        finally:
            replay_server.shutdown(drain=True)
        assert not mismatches, mismatches
        assert len(baseline.decisions) == len(trace.records)

    def test_unstamped_moving_trace_is_still_refused(self, tmp_path):
        model = _model()
        xs = _inputs(4)
        trace, _ = _record_moving_threshold(model, xs,
                                            tmp_path / "strip.trace")
        for record in trace.records:
            record.epoch = None  # simulate a pre-epoch recording
        assert not trace.epoch_stamped()
        unstarted = Server(model, EntropyExitPolicy(0.3),
                           max_timesteps=TIMESTEPS, use_runtime=True)
        with pytest.raises(ValueError, match="epoch"):
            Backtester(trace).replay(unstarted)


# --------------------------------------------------------------------------- #
class TestDeterministicStormArc:
    """Calm -> 4x flood -> drain under a fake clock: the full resilience
    story with zero wall-clock dependence."""

    def _run_arc(self):
        model = _model()
        clock = FakeClock()
        brownout_theta = 0.9
        config = StormConfig(
            queue_warn=0.25, queue_storm=0.5, cooldown=2,
            horizon_cap=TIMESTEPS - 1, brownout_threshold=brownout_theta,
        )
        server = _manual_server(model, clock=clock, capacity=16,
                                batch_width=2, storm=config)
        batcher = server.batchers[0]
        deadline = 6.0  # fake seconds; generous vs the service cadence below
        mix = [PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW]
        xs = _inputs(48, seed=11)
        outcomes = {"completed": [], "shed": [], "queue_full": 0,
                    "expired": 0}
        pending = []

        def submit(i):
            clock.advance(0.01)
            priority = mix[i % 3]
            try:
                response = server.submit(xs[i], block=False,
                                         priority=priority,
                                         deadline=deadline)
            except StormShedError as error:
                outcomes["shed"].append((priority, error.state))
            except QueueFullError:
                outcomes["queue_full"] += 1
            else:
                pending.append((i, priority, response))

        def serve_round():
            clock.advance(0.05)
            batcher.run_once()

        # Calm phase: arrivals at service pace keep the FSM quiet.
        for i in range(6):
            submit(i)
            serve_round()
        assert server.storm.state == StormState.NORMAL
        # Flood: 30 arrivals with no service at all — a vertical edge.
        for i in range(6, 36):
            submit(i)
        assert server.storm.state == StormState.STORM
        # Drain: service resumes at the calm cadence; remaining arrivals
        # trickle in and the FSM walks home through WARN.
        for i in range(36, 48):
            submit(i)
            serve_round()
        for _ in range(200):
            serve_round()
            if batcher.engine.idle and server.queue.depth() == 0:
                break
        for _ in range(5 * config.cooldown):
            if server.storm.observe() == StormState.NORMAL:
                break
        for i, priority, response in pending:
            try:
                result = response.result(timeout=0)
            except DeadlineExceededError:
                outcomes["expired"] += 1
            else:
                outcomes["completed"].append((i, priority, result))
        return model, server, config, outcomes, xs, brownout_theta

    def test_storm_arc_invariants(self):
        model, server, config, outcomes, xs, brownout_theta = self._run_arc()
        completed = outcomes["completed"]
        # 1. Conservation: every submission resolved somewhere.
        assert (len(completed) + len(outcomes["shed"])
                + outcomes["queue_full"] + outcomes["expired"]) == 48
        # 2. The FSM reached STORM and recovered to NORMAL.
        assert server.telemetry.storm_peak == StormState.CODES[StormState.STORM]
        assert server.storm.state == StormState.NORMAL
        assert server.telemetry.storm_transitions >= 3  # up, and back down
        # 3. Sheds are monotone by priority class (uniform mix).
        sheds = server.telemetry.storm_shed_by_class
        assert sheds.get(PRIORITY_HIGH, 0) == 0  # high is NEVER storm-shed
        assert (sheds.get(PRIORITY_LOW, 0) >= sheds.get(PRIORITY_NORMAL, 0)
                >= sheds.get(PRIORITY_HIGH, 0))
        assert sheds.get(PRIORITY_LOW, 0) > 0
        # 4. Brown-out engaged: STORM-admitted completions carry the
        #    aggressive stamp and respect the horizon cap...
        browned = [r for _, _, r in completed if r.brownout]
        assert browned, "no brown-out completion — STORM admitted nothing?"
        for result in browned:
            assert result.threshold == brownout_theta
            assert result.horizon == config.horizon_cap
            assert result.exit_timestep <= config.horizon_cap
        # ...and calm-phase completions kept the calibrated knob: recovery
        # is per-request exact, not a global mode flip.
        calm = [r for _, _, r in completed if not r.brownout]
        assert calm
        assert all(r.threshold == THRESHOLD for r in calm)
        # 5. Bitwise: every completion matches the Tensor oracle under its
        #    OWN stamped knobs.
        for index, _, result in completed:
            horizon = result.horizon or TIMESTEPS
            oracle = _oracle(model, xs[index:index + 1],
                             result.threshold, horizon=horizon)
            assert (result.prediction, result.exit_timestep) == (
                int(oracle.predictions[0]), int(oracle.exit_timesteps[0]))
        # 6. Deadline-bounded latency: dispatch drops anything that waited
        #    past its deadline, so accepted-request latency is bounded by
        #    deadline + service (fake-clock determinism makes this exact).
        service_bound = 0.05 * (TIMESTEPS + 1)
        for _, priority, result in completed:
            assert result.latency <= 6.0 + service_bound
        # 7. Expired requests were accounted.
        drops = server.telemetry.deadline_drops_by_class
        assert sum(drops.values()) == outcomes["expired"]


# --------------------------------------------------------------------------- #
class TestStormWithLoadGenerator:
    """Threaded end-to-end smoke: the LoadGenerator storm profile against a
    real server, in a worker thread and in a replica process.  Only
    timing-free invariants are asserted."""

    @pytest.mark.parametrize(
        "composition", [{"num_workers": 1}, {"num_replicas": 1}],
        ids=["1-worker", "1-replica"],
    )
    def test_phase_profile_conserves_outcomes_and_aligns_indices(self, composition):
        model = _model()
        server = Server(
            model, EntropyExitPolicy(THRESHOLD), max_timesteps=TIMESTEPS,
            batch_width=2, queue_capacity=8, use_runtime=True,
            storm=StormConfig(queue_warn=0.25, queue_storm=0.5, cooldown=2),
            **composition,
        ).start()
        try:
            xs = _inputs(36, seed=5)
            stream = [(x, None) for x in xs]
            generator = LoadGenerator(
                server, block=False,
                phases=[StormPhase(0.012, 250.0), StormPhase(0.008, 3000.0),
                        StormPhase(0.02, 250.0)],
                priorities=priority_cycle({p: 1 for p in
                                           (PRIORITY_HIGH, PRIORITY_NORMAL,
                                            PRIORITY_LOW)}),
                deadline=5.0,
            )
            report = generator.run(iter(stream))
        finally:
            server.shutdown(drain=True)
        assert report.offered == 36
        assert (report.completed + report.dropped + report.expired
                == report.offered)
        assert len(report.accepted_indices) == len(report.results)
        assert report.accepted_indices == sorted(report.accepted_indices)
        # Drops by class sum to the total and high is never storm-shed more
        # than low under the uniform mix.
        assert sum(report.dropped_by_class.values()) == report.dropped
        sheds = server.telemetry.storm_shed_by_class
        assert sheds.get(PRIORITY_HIGH, 0) <= sheds.get(PRIORITY_LOW, 0)
        # Every completion is oracle-exact under its stamped knobs.
        for result, index in zip(report.results, report.accepted_indices):
            horizon = result.horizon or TIMESTEPS
            oracle = _oracle(model, xs[index:index + 1], result.threshold,
                             horizon=horizon)
            assert (result.prediction, result.exit_timestep) == (
                int(oracle.predictions[0]), int(oracle.exit_timesteps[0]))


# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestStormFaultInjection:
    def test_replica_death_mid_storm_resolves_every_future(self):
        """A replica SIGKILLed while the guard is in STORM: no stranded
        futures, the survivor drains the high-priority backlog, and the FSM
        still recovers."""
        model = _model()
        config = StormConfig(queue_warn=0.2, queue_storm=0.4, cooldown=2,
                             brownout_threshold=0.9)
        server = Server(
            model, EntropyExitPolicy(0.0),  # full horizon: a real backlog
            max_timesteps=TIMESTEPS, batch_width=3, queue_capacity=20,
            num_replicas=2, use_runtime=True, storm=config,
        ).start()
        # The backlog must not depend on who wins the race between the
        # client thread and two replicas that swallow a burst faster than it
        # can be submitted (the more so under REPRO_LOCK_CHECK): pause the
        # replicas, fill their in-flight windows, and only then flood — every
        # flooded request now stays in the queue.
        resident = len(server.replicas.processes) * server.replicas.window
        xs = _inputs(resident + 40, seed=9)
        filled, flood, storm_traffic = (
            xs[:resident], xs[resident:resident + 24], xs[resident + 24:])
        outcomes = {"done": 0, "crashed": 0, "shed": 0, "rejected": 0}
        victim, survivor = (process.pid for process in server.replicas.processes)
        try:
            os.kill(victim, signal.SIGSTOP)
            os.kill(survivor, signal.SIGSTOP)
            try:
                pending = [server.submit(x, priority=PRIORITY_HIGH) for x in filled]
                deadline = time.monotonic() + 30.0
                while server.queue.depth():
                    assert time.monotonic() < deadline, "windows never filled"
                    time.sleep(0.002)
                # Flood to push the guard into STORM (observe runs per submit).
                for i, x in enumerate(flood):
                    try:
                        pending.append(server.submit(
                            x, block=False,
                            priority=[PRIORITY_HIGH, PRIORITY_NORMAL,
                                      PRIORITY_LOW][i % 3]))
                    except StormShedError:
                        outcomes["shed"] += 1
                    except QueueFullError:
                        outcomes["rejected"] += 1
                assert server.storm.state != StormState.NORMAL
            finally:
                os.kill(victim, signal.SIGKILL)
                os.kill(survivor, signal.SIGCONT)
            # Keep submitting high-priority traffic into the storm.
            for x in storm_traffic:
                try:
                    pending.append(server.submit(x, block=False,
                                                 priority=PRIORITY_HIGH))
                except (StormShedError, QueueFullError):
                    outcomes["shed"] += 1
            for response in pending:
                try:
                    response.result(timeout=60.0)
                    outcomes["done"] += 1
                except ReplicaCrashError:
                    outcomes["crashed"] += 1
        finally:
            server.shutdown(drain=True)
        total = sum(outcomes.values())
        assert total == len(xs)
        assert outcomes["done"] > 0  # the survivor kept serving
        # Post-drain the queue is empty: the guard can still walk home.
        for _ in range(5 * config.cooldown):
            if server.storm.observe() == StormState.NORMAL:
                break
        assert server.storm.state == StormState.NORMAL


# --------------------------------------------------------------------------- #
class TestStormGuardCanonicalReplay:
    """The session's canonical trace through a storm-*guarded* server: a calm
    guard (NORMAL throughout) must be decision-invisible — every replayed
    prediction and exit timestep bitwise equals the unguarded recording, and
    nothing is shed or browned out.  This is the admission-path analogue of
    the cross-composition gate: adding the guard to the stack cannot move a
    decision the guard never acted on."""

    def test_calm_guard_is_decision_invisible(self, canonical_trace):
        model, trace = canonical_trace
        config = StormConfig(queue_warn=0.9, queue_storm=0.95)
        server = Server(
            model, EntropyExitPolicy(THRESHOLD), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=64, use_runtime=True, storm=config,
        ).start()
        # The fixed-threshold baseline goes through the guard's knob path
        # (no pins), so a guard that moved θ or the horizon while calm would
        # show up in the diff below.
        knob_path = []
        effective = server.storm.effective
        server.storm.effective = (
            lambda live: knob_path.append(live) or effective(live))
        try:
            baseline, mismatches = Backtester(trace).replay(
                server, result_timeout=60.0)
        finally:
            server.shutdown(drain=True)
        assert not mismatches, mismatches
        assert knob_path == [THRESHOLD] * len(trace.records)
        assert server.storm.state == StormState.NORMAL
        assert server.telemetry.snapshot().get("shed", 0.0) == 0.0
        # The replay aggregates match the recording, guard or no guard.
        recorded = [r.exit_timestep for r in trace.records]
        assert baseline.mean_exit == pytest.approx(float(np.mean(recorded)))
        assert sum(baseline.exit_histogram) == len(trace.records)
