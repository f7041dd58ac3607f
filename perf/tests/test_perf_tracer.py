"""Tracer unit tests on synthetic spans (injected clock, no server)."""

import threading

from perf.tracer import Target, Tracer, aggregate, thread_coverage


class TickClock:
    """Every reading advances time by one tick, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_child_cover():
    tracer = Tracer(clock=TickClock())
    leaf = tracer.wrap(lambda: None, "plan:leaf")
    middle = tracer.wrap(lambda: (leaf(), leaf()), "engine:middle")
    outer = tracer.wrap(lambda: middle(), "batcher:outer")
    outer()
    recorded = tracer.take()
    spans = {span.name: span for span in recorded}
    # Clock readings: outer 1..8, middle 2..7, leaves 3..4 and 5..6.
    assert spans["plan:leaf"].duration == 1.0
    assert spans["engine:middle"].duration == 5.0
    assert spans["engine:middle"].self_time == 3.0  # 5 minus two leaves
    assert spans["batcher:outer"].duration == 7.0
    assert spans["batcher:outer"].self_time == 2.0  # 7 minus middle's 5
    assert spans["plan:leaf"].parent == "engine:middle"
    assert spans["engine:middle"].parent == "batcher:outer"
    assert spans["batcher:outer"].parent is None
    # Self times of a thread sum to its parentless durations.
    assert sum(span.self_time for span in recorded) == 7.0
    assert tracer.take() == []


def test_parent_stacks_are_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "engine:inner")

    def call_on_other_thread():
        worker = threading.Thread(target=inner, name="other")
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()

    outer = tracer.wrap(call_on_other_thread, "batcher:outer")
    outer()
    spans = {span.name: span for span in tracer.take()}
    assert spans["engine:inner"].parent is None
    assert spans["engine:inner"].thread == "other"
    # The other thread's span covers none of outer's time.
    assert spans["batcher:outer"].self_time == spans["batcher:outer"].duration


def test_exception_still_closes_the_span():
    tracer = Tracer(clock=TickClock())

    def boom():
        raise ValueError("x")

    try:
        tracer.wrap(boom, "engine:boom")()
    except ValueError:
        pass
    (span,) = tracer.take()
    assert span.name == "engine:boom" and span.duration == 1.0
    assert tracer.wrap(lambda: 1, "engine:after")() == 1
    assert tracer.take()[0].parent is None  # the stack was popped


class Layer:
    def method(self, items):
        return list(items)

    @classmethod
    def build(cls):
        return cls()


def test_install_wraps_at_class_level_and_uninstall_restores():
    original_method = vars(Layer)["method"]
    original_build = vars(Layer)["build"]
    tracer = Tracer()
    tracer.install([
        Target(Layer, "method", "layer:Layer.method", lambda args, result: len(result)),
        Target(Layer, "build", "layer:Layer.build"),
    ])
    instance = Layer.build()
    assert instance.method([1, 2, 3]) == [1, 2, 3]
    assert instance.method([]) == []
    spans = tracer.take()
    assert [span.name for span in spans] == [
        "layer:Layer.build", "layer:Layer.method", "layer:Layer.method"]
    assert [span.units for span in spans] == [1, 3, 0]
    tracer.uninstall()
    assert vars(Layer)["method"] is original_method
    assert vars(Layer)["build"] is original_build
    # An untraced call after a traced one runs the original method.
    Layer.build().method([1])
    assert tracer.take() == []
    tracer.uninstall()  # idempotent


def test_aggregate_window_entries_and_working_calls():
    tracer = Tracer(clock=TickClock())
    score = tracer.wrap(lambda: None, "core.policies:P.score")
    should_exit = tracer.wrap(lambda: score(), "core.policies:P.should_exit")
    poll = tracer.wrap(lambda hit: hit, "serve.request:Q.get",
                       lambda args, result: 1 if result else 0)
    step = tracer.wrap(lambda: (should_exit(), score(), poll(True), poll(False)),
                       "serve.engine:E.step")
    step()
    spans = tracer.take()
    stats = aggregate(spans)
    assert stats["core.policies:P.score"].calls == 2
    # The score nested in should_exit is the same evaluation, not an entry.
    assert stats["core.policies:P.score"].entry_calls == 1
    assert stats["core.policies:P.should_exit"].entry_calls == 1
    assert stats["serve.request:Q.get"].calls == 2
    assert stats["serve.request:Q.get"].working_calls == 1
    total = stats["core.policies:P.score"] + stats["core.policies:P.should_exit"]
    assert total.calls == 3 and total.entry_calls == 2
    # Only spans that START inside the window count.
    start = min(span.start for span in spans)
    assert aggregate(spans, (start, start + 0.5)).keys() == {"serve.engine:E.step"}
    me = threading.current_thread().name
    step_span = next(span for span in spans if span.name == "serve.engine:E.step")
    window = (step_span.start, step_span.start + 2 * step_span.duration)
    assert thread_coverage(spans, me, window) == 0.5
    assert thread_coverage(spans, "nobody", window) == 0.0
