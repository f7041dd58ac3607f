"""One failure chain: every failed request goes through ``fail_round``.

``repro.serve.batcher.fail_round`` is the failure twin of ``complete_round``:
one clock read → the telemetry writer the reason names → a WAL ``reject``
line per request → a terminal span per request → futures LAST, each with
its own exception clone.  These tests pin

* the order and the reason table (counter, WAL ``reason``, span tag);
* that an aborted server tells you why — on one worker and on one replica,
  with requests both queued and in flight, every casualty is counted, has a
  ``shed`` WAL line and a terminal span before its future fails;
* that no failure is recorded under the replica pool lock or the queue lock
  (lock-order tracking on, over the abort and crash scenarios);
* the design itself: under ``src/repro/serve`` the failure-recording calls
  appear only inside ``fail_round`` and ``set_result`` only inside
  ``complete_round``, so the next failure path cannot skip a step.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import pathlib
import signal
import threading
import time

import numpy as np
import pytest

import repro.serve
from repro.analysis import lockorder
from repro.analysis.lockorder import LockGraph
from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    AdmissionRejectedError,
    DeadlineExceededError,
    ReplicaCrashError,
    Request,
    RequestResult,
    Response,
    Server,
    ServerClosedError,
    SpanTracker,
    StormShedError,
    Telemetry,
    TraceRecorder,
    load_trace,
)
from repro.serve.batcher import fail_round
from repro.snn import spiking_vgg
from repro.utils import seed_everything

TIMESTEPS = 4
IMAGE_SIZE = 10


def _model():
    seed_everything(47)
    model = spiking_vgg(
        "tiny", num_classes=6, input_size=IMAGE_SIZE, default_timesteps=TIMESTEPS,
    ).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(batch):
    rng = np.random.default_rng(3)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _wait_for(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover - a hang, reported
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.002)


# --------------------------------------------------------------------------- #
# The chain itself
# --------------------------------------------------------------------------- #
#: reason -> (telemetry counter it moves, WAL ``reason`` key, an error it carries)
REASONS = {
    "rejected": (lambda t: t.rejected, None, AdmissionRejectedError("bad frame")),
    "storm": (lambda t: sum(t.storm_shed_by_class.values()), "storm",
              StormShedError("storm", state="storm", priority=2)),
    "deadline": (lambda t: sum(t.deadline_drops_by_class.values()), "deadline",
                 DeadlineExceededError("late")),
    "shed": (lambda t: t.shed, "shed", ServerClosedError("server shut down")),
}
_WRITERS = ("record_rejection", "record_storm_shed", "record_deadline_drop",
            "record_shed")


@pytest.mark.parametrize("reason", sorted(REASONS))
def test_fail_round_order_and_reason_table(reason, tmp_path, monkeypatch):
    """One clock read, the counter, a WAL line each, a span each, futures
    last with a clone each; a ``None`` response (door refusal) is recorded
    but has no future to fail."""
    counter, logged, error = REASONS[reason]
    order = []
    for owner, names in ((Telemetry, _WRITERS), (TraceRecorder, ("record_rejection",)),
                         (SpanTracker, ("record_failure",)), (Response, ("set_exception",))):
        for name in names:
            def logging(self, *args, _original=getattr(owner, name),
                        _name=f"{owner.__name__}.{name}"):
                order.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(owner, name, logging)

    def clock():
        order.append("clock")
        return 5.0

    telemetry, spans = Telemetry(), SpanTracker()
    recorder = TraceRecorder(str(tmp_path / "wal.jsonl"))
    failed = [(Request(request_id=i, inputs=_inputs(1)[0], priority=2), Response())
              for i in range(2)]
    failed.append((Request(request_id=2, inputs=_inputs(1)[0], priority=2), None))
    fail_round(failed, error, reason, clock, telemetry, recorder, spans)
    recorder.close()

    writer = {"rejected": "record_rejection", "shed": "record_shed",
              "storm": "record_storm_shed", "deadline": "record_deadline_drop"}[reason]
    # Rejections and sheds are counted per round, class-keyed counters per request.
    writes = 1 if reason in ("rejected", "shed") else 3
    assert order == (["clock"] + [f"Telemetry.{writer}"] * writes
                     + ["TraceRecorder.record_rejection"] * 3
                     + ["SpanTracker.record_failure"] * 3
                     + ["Response.set_exception"] * 2)
    assert counter(telemetry) == 3
    lines = load_trace(recorder.path).rejections
    assert [line["id"] for line in lines] == [0, 1, 2]
    if logged is None:
        assert all(set(line) == {"kind", "id", "digest", "arrival"} for line in lines)
    else:
        assert all(line["reason"] == logged and line["priority"] == 2 for line in lines)
    assert [(span.events, span.tags) for span in spans.spans()] == [
        ({"completed": 5.0}, {"error": type(error).__name__})] * 3
    raised = []
    for _, response in failed[:2]:
        with pytest.raises(type(error)) as caught:
            response.result(timeout=0.0)
        raised.append(caught.value)
    if reason != "storm":  # a storm shed is only ever a door refusal: no future
        assert len({id(value) for value in raised + [error]}) == 3  # a clone each


def test_fail_round_of_nothing_reads_no_clock():
    fail_round([], RuntimeError("x"), "shed", lambda: pytest.fail("clock read"),
               Telemetry())


def test_trace_report_breaks_failures_down_by_reason(tmp_path, capsys):
    """Why requests failed, offline, from the WAL alone."""
    recorder = TraceRecorder(str(tmp_path / "wal.jsonl"))
    ids = iter(range(100))
    for count, (reason, (_, _, error)) in enumerate(sorted(REASONS.items()), start=1):
        failed = [(Request(request_id=next(ids), inputs=_inputs(1)[0]), None)
                  for _ in range(count)]
        fail_round(failed, error, reason, lambda: 0.0, Telemetry(), recorder)
    recorder.close()
    assert _trace_report_tool().report(recorder.path) == 1  # no completions to summarise
    assert "failed: 10 (deadline 1, rejected 2, shed 3, storm 4)" in capsys.readouterr().out


def _trace_report_tool():
    path = pathlib.Path(__file__).resolve().parents[2] / "tools" / "trace_report.py"
    spec = importlib.util.spec_from_file_location("trace_report", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("stamped", [True, False], ids=["stamped", "unstamped"])
def test_trace_report_advises_no_verify_only_without_epoch_stamps(
        tmp_path, capsys, stamped):
    """A moving threshold replays with verification once every record
    carries its epoch stamp; only a pre-epoch trace needs --no-verify."""
    path = str(tmp_path / "wal.jsonl")
    with TraceRecorder(path, store_clips=False) as recorder:
        for request_id, threshold in enumerate((0.3, 0.3, 0.9)):
            recorder.record_request(
                Request(request_id=request_id, inputs=_inputs(1)[0]),
                RequestResult(request_id=request_id, prediction=0,
                              exit_timestep=1, score=0.1, threshold=threshold,
                              epoch=int(threshold > 0.5) if stamped else None))
    assert _trace_report_tool().report(path) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("threshold: moved over [0.3, 0.9]")]
    assert ("--no-verify" in line) is not stamped
    assert ("replayable with bitwise verification" in line) is stamped


# --------------------------------------------------------------------------- #
# An aborted server tells you why
# --------------------------------------------------------------------------- #
class GatedPolicy(EntropyExitPolicy):
    """Holds the worker inside its first step until the test lets go."""

    def __init__(self, threshold):
        super().__init__(threshold=threshold)
        self.entered = threading.Event()
        self.release = threading.Event()

    def score(self, cumulative_logits):
        self.entered.set()
        assert self.release.wait(30.0)
        return super().score(cumulative_logits)


@pytest.fixture
def lock_graph(monkeypatch):
    """Tracked locks for every lock constructed from here on, recorded into
    a graph of this test's own."""
    monkeypatch.setenv("REPRO_LOCK_CHECK", "1")
    graph = LockGraph()
    monkeypatch.setattr(lockorder, "_GRAPH", graph)
    return graph


def _assert_no_sink_under_pool_or_queue(graph):
    snapshot = graph.snapshot()
    assert {"serve.queue", "serve.telemetry", "serve.obs.spans",
            "serve.trace.wal"} <= set(snapshot["locks"])
    edges = {(edge["from"], edge["to"]) for edge in snapshot["edges"]}
    forbidden = {(outer, inner)
                 for outer in ("serve.replica.pool", "serve.queue")
                 for inner in ("serve.telemetry", "serve.trace.wal", "serve.obs.spans")}
    assert not edges & forbidden, snapshot["edges"]


def _pending_sigterm(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("ShdPnd:"):
                return bool(int(line.split()[1], 16) & (1 << (signal.SIGTERM - 1)))
    return False


def _abort_one_worker(server, xs, futures):
    """One request held inside the worker's first step, the rest queued
    behind it; the gate opens only once shutdown has stopped the worker."""
    futures.append(server.submit(xs[0]))
    assert server.policy.entered.wait(30.0)
    futures.extend(server.submit(x) for x in xs[1:])
    stopper = threading.Thread(target=server.shutdown,
                               kwargs={"drain": False, "timeout": 30.0})
    stopper.start()
    _wait_for(server._stop.is_set, "the stop flag")
    server.policy.release.set()
    stopper.join(60.0)
    return 1


def _abort_one_replica(server, xs, futures):
    """The replica is frozen (SIGSTOP) before anything reaches it, so the
    forwarder fills exactly its window and the rest stays queued; it is
    thawed only once the abort's SIGTERM is pending, so it never runs."""
    pool = server.replicas
    child = pool.processes[0]
    os.kill(child.pid, signal.SIGSTOP)
    try:
        futures.extend(server.submit(x) for x in xs)
        _wait_for(lambda: len(pool._inflight[0]) == pool.window, "a full window")
        stopper = threading.Thread(target=server.shutdown, kwargs={"drain": False})
        stopper.start()
        _wait_for(lambda: _pending_sigterm(child.pid), "the abort's SIGTERM")
    finally:
        os.kill(child.pid, signal.SIGCONT)
    stopper.join(60.0)
    return pool.window


@pytest.mark.parametrize("mode", ["1-worker", "1-replica"])
def test_an_aborted_server_tells_you_why(mode, tmp_path, monkeypatch, lock_graph):
    """``shutdown(drain=False)`` with requests queued and in flight: one
    ``shed`` WAL line and one terminal span per casualty, ``shed`` equal to
    the casualty count, no open span — and no casualty future resolved
    before its count landed (futures last)."""
    futures = []
    counted = []  # (count, futures already done when it landed)
    original = Telemetry.record_shed

    def watching(self, count=1):
        counted.append((count, sum(future.done() for future in futures)))
        return original(self, count)

    monkeypatch.setattr(Telemetry, "record_shed", watching)
    spans = SpanTracker()
    recorder = TraceRecorder(str(tmp_path / "wal.jsonl"))
    xs = _inputs(12)
    threshold = 0.0  # never exits early: nothing completes before the abort
    if mode == "1-worker":
        server = Server(_model(), GatedPolicy(threshold), max_timesteps=TIMESTEPS,
                        batch_width=2, queue_capacity=len(xs), trace=recorder,
                        spans=spans).start()
        in_flight = _abort_one_worker(server, xs[:6], futures)
    else:
        server = Server(_model(), EntropyExitPolicy(threshold), max_timesteps=TIMESTEPS,
                        batch_width=2, queue_capacity=len(xs), num_replicas=1,
                        trace=recorder, spans=spans).start()
        in_flight = _abort_one_replica(server, xs, futures)
    recorder.close()

    casualties = len(futures)
    assert in_flight < casualties  # both in flight and queued
    for future in futures:
        with pytest.raises(ServerClosedError):
            future.result(timeout=10.0)
    telemetry = server.telemetry
    assert telemetry.shed == casualties and telemetry.completed == 0
    assert [line.get("reason") for line in load_trace(recorder.path).rejections] == [
        "shed"] * casualties
    failed = [span for span in spans.spans() if "error" in span.tags]
    assert len(failed) == casualties
    assert {span.tags["error"] for span in failed} == {"ServerClosedError"}
    if mode == "1-replica":  # the window's casualties had left the parent
        assert sum("dispatched" in span.events for span in failed) == in_flight
    assert spans.open_spans() == []
    # Futures last: each count landed before any of its round's futures failed.
    assert sum(count for count, _ in counted) == casualties
    landed = 0
    for count, done in counted:
        assert done == landed
        landed += count
    _assert_no_sink_under_pool_or_queue(lock_graph)


# --------------------------------------------------------------------------- #
# Crash paths under lock-order tracking
# --------------------------------------------------------------------------- #
def test_crash_paths_record_no_failure_under_the_pool_or_queue_lock(lock_graph, tmp_path):
    """A worker crash, a replica crash with work queued behind it (the last
    replica's death) and an abort with re-pooled requests stranded: every
    casualty is shed typed, and no sink lock is taken inside the pool's or
    the queue's critical section."""
    xs = _inputs(12)
    spans = SpanTracker()

    # Thread worker crash.
    worker = Server(_model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
                    batch_width=2, spans=spans)

    def faulty_step():
        raise FloatingPointError("injected kernel fault")

    worker.batchers[0].engine.step = faulty_step
    worker.start()
    with pytest.raises(ServerClosedError, match="injected kernel fault"):
        worker.submit(xs[0]).result(timeout=30.0)
    worker.drain(timeout=10.0)
    assert worker.telemetry.shed == 1

    # The only replica SIGKILLed with its window in flight and work queued.
    recorder = TraceRecorder(str(tmp_path / "wal.jsonl"))
    fleet = Server(_model(), EntropyExitPolicy(0.0), max_timesteps=TIMESTEPS,
                   batch_width=2, queue_capacity=len(xs), num_replicas=1,
                   trace=recorder, spans=spans).start()
    pool = fleet.replicas
    child = pool.processes[0]
    os.kill(child.pid, signal.SIGSTOP)
    futures = [fleet.submit(x) for x in xs]
    _wait_for(lambda: len(pool._inflight[0]) == pool.window, "a full window")
    os.kill(child.pid, signal.SIGKILL)
    for future in futures:
        with pytest.raises(ReplicaCrashError):
            future.result(timeout=30.0)
    fleet.shutdown(drain=True)
    recorder.close()
    assert fleet.telemetry.shed == len(xs)
    assert [line.get("reason") for line in load_trace(recorder.path).rejections] == [
        "shed"] * len(xs)

    # Re-pooled requests nobody is left to serve, failed by the abort.
    idle = Server(_model(), EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
                  batch_width=2, num_replicas=1, spans=spans)
    stranded = Response()
    idle.replicas._overflow.append((Request(request_id=99, inputs=xs[0]), stranded))
    idle.shutdown(drain=False)
    with pytest.raises(ServerClosedError):
        stranded.result(timeout=0.0)
    assert idle.telemetry.shed == 1

    assert spans.open_spans() == []
    _assert_no_sink_under_pool_or_queue(lock_graph)


# --------------------------------------------------------------------------- #
# The design, pinned
# --------------------------------------------------------------------------- #
_FAILURE_CALLS = {"set_exception", "record_failure", "record_rejection",
                  "record_shed", "record_storm_shed", "record_deadline_drop"}


def _callers(attrs):
    """``{(module, enclosing function)}`` of every ``<x>.<attr>(...)`` call
    under ``src/repro/serve`` whose attribute is in ``attrs``."""
    found = set()
    root = pathlib.Path(repro.serve.__file__).parent

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in attrs):
            found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def test_only_fail_round_fails_and_only_complete_round_resolves():
    assert _callers(_FAILURE_CALLS) == {("batcher.py", "fail_round")}
    assert _callers({"set_result"}) == {("batcher.py", "complete_round")}
