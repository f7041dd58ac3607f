"""The request-lifecycle budget (docs/ARCHITECTURE.md, "The request lifecycle").

A request costs what it carries: the future is a one-shot latch (two
allocations, not a ``threading.Event``'s eleven), the five per-request
records are slotted, and a served request leaves behind the future and the
result its client holds — nothing else.  These are allocation *counts*, which
repeat exactly; the speed they buy is ``perf/``'s to measure.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    CompletedSample,
    InferenceEngine,
    Request,
    RequestResult,
    Response,
    Server,
    Telemetry,
    ThresholdEpoch,
)
from repro.serve.batcher import complete_round
from repro.serve.engine import _Slot


@pytest.fixture
def gc_paused():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _records():
    request = Request(request_id=0, inputs=np.zeros((3, 4, 4), dtype=np.float32))
    response = Response()
    sample = CompletedSample(
        request=request, response=response, prediction=1, exit_timestep=2,
        score=0.5, threshold=0.5, start_time=0.0,
    )
    result = RequestResult(request_id=0, prediction=1, exit_timestep=2, score=0.5)
    return request, response, sample, result, _Slot(request, response, 0.0)


def test_per_request_records_have_no_dict():
    for record in _records():
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.not_a_field = 1


def test_a_future_is_two_allocations(gc_paused):
    count = 2000
    kept = [None] * count
    Response()  # warm the type's free lists
    before = sys.getallocatedblocks()
    for index in range(count):
        kept[index] = Response()
    grown = sys.getallocatedblocks() - before
    # The slotted object and its raw lock (a threading.Event is 11), plus a
    # handful for the interpreter's own bookkeeping over the whole loop.
    assert grown <= 2 * count + 16, f"{grown / count:.2f} blocks per retained Response()"


def test_a_served_request_retains_its_future_and_result_only(
    served_model, make_clips, serve_constants, gc_paused,
):
    count = 2000
    clips = make_clips(16)
    server = Server(
        served_model, EntropyExitPolicy(serve_constants["threshold"]),
        max_timesteps=serve_constants["timesteps"], batch_width=8,
    ).start()
    futures = [None] * count
    results = [None] * count
    try:
        for index in range(200):  # bind scratch, fill the telemetry windows' first slots
            server.submit(clips[index % len(clips)]).result(timeout=30.0)
        tracked = len(gc.get_objects())
        blocks = sys.getallocatedblocks()
        for start in range(0, count, 40):
            for index in range(start, start + 40):
                futures[index] = server.submit(clips[index % len(clips)])
            for index in range(start, start + 40):
                results[index] = futures[index].result(timeout=30.0)
        tracked = (len(gc.get_objects()) - tracked) / count
        blocks = (sys.getallocatedblocks() - blocks) / count
    finally:
        server.shutdown(drain=True)
    assert server.worker_error is None
    # The future, its latch and the result (measured 3.00 tracked objects,
    # 8.8 blocks; an Event-backed future with dict-backed records reads 8.00
    # and 18.7); the slack is for the bounded telemetry windows still filling.
    assert tracked <= 4.0, f"{tracked:.2f} GC-tracked objects per served request"
    assert blocks <= 12.0, f"{blocks:.2f} allocated blocks per served request"


def test_positional_construction_matches_the_field_order(served_model):
    """``_retire`` and ``complete_round`` build their records positionally
    (keywords cost 0.4-0.6 us a request): every field must still land under
    its own name."""
    engine = InferenceEngine(served_model, EntropyExitPolicy(0.5), max_timesteps=4)
    request = Request(
        request_id=3, inputs=np.zeros((3, 10, 10), dtype=np.float32),
        epoch=ThresholdEpoch(epoch=9, threshold=-1.0, horizon=2, brownout=True),
    )
    response = Response()
    engine.admit(request, response, 2.5)
    assert engine.step() == []  # entropy is never below -1: runs to its horizon
    (sample,) = engine.step()
    assert sample == CompletedSample(
        request=request, response=response, prediction=sample.prediction,
        exit_timestep=2, score=sample.score, threshold=-1.0, start_time=2.5,
        epoch=9, brownout=True, horizon=2, finish_time=None,
    )
    assert type(sample.prediction) is int and type(sample.score) is float

    request = Request(
        request_id=7, inputs=np.zeros((3, 4, 4), dtype=np.float32), label=4,
        arrival_time=1.25, epoch=ThresholdEpoch(epoch=9, threshold=0.75),
    )
    response = Response()
    sample = CompletedSample(
        request=request, response=response, prediction=5, exit_timestep=3,
        score=0.125, threshold=0.75, start_time=2.5, epoch=9, brownout=True,
        horizon=6,
    )
    (result,) = complete_round([sample], lambda: 10.0, Telemetry())
    assert response.result(timeout=0) is result
    assert result == RequestResult(
        request_id=7, prediction=5, exit_timestep=3, score=0.125, label=4,
        threshold=0.75, arrival_time=1.25, start_time=2.5, finish_time=10.0,
        energy=None, edp=None, epoch=9, brownout=True, horizon=6,
    )
