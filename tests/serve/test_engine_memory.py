"""Resident-memory contract of the serving hot path (docs/ARCHITECTURE.md).

Every byte the engine, the executor and the plan keep between steps is
O(``batch_width``) — slot-state arrays, membranes, scratch — except the
content-keyed stem memo, which is bounded by its *capacity* because it keeps
owned row copies.  Nothing is O(requests) or O(distinct clips): no per-clip
digest/frame cache outlives the slot that uses it, and a completed request's
inputs are referenced by nobody on the serving side.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np

from repro.core.policies import EntropyExitPolicy
from repro.runtime import plan_for
from repro.serve import (
    AdmissionQueue,
    ContinuousBatcher,
    InferenceEngine,
    Request,
    Response,
)
from repro.snn import spiking_vgg
from repro.snn.encoding import EventFrameEncoder
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10
BATCH_WIDTH = 8
UNIQUE_CLIPS = 3000
WAVE = 60
HOT_CLIPS = 16
MIB = 1 << 20


def _clip(rng) -> np.ndarray:
    return rng.random((TIMESTEPS, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)


def _leading_rows(engine: InferenceEngine):
    """Leading dimension of every array the engine and its executor keep."""
    executor = engine._executor
    arrays = [engine._local_t, engine._stamped, engine._horizons]
    if engine._running_sum is not None:
        arrays.append(engine._running_sum)
    widths = []
    for scratch in executor._scratch + [executor._row_scratch]:
        # The capacity buffers are the only bytes an op's scratch owns; its
        # bindings are views of them, keyed by the input shape they serve.
        arrays.extend(scratch.buffers.values())
        widths.extend(shape[0] for shape in scratch.bindings)
    for membrane in executor._membranes:
        if membrane is not None:
            arrays.append(membrane if membrane.base is None else membrane.base)
    return widths + [array.shape[0] for array in arrays]


def test_resident_memory_is_bounded_by_batch_width_and_memo_capacity():
    seed_everything(47)
    model = spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS, encoder=EventFrameEncoder(),
    ).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    memo = plan_for(model).stem_cache
    memo.clear()
    engine = InferenceEngine(
        model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS, use_runtime=True
    )
    assert engine._executor.memo_enabled

    rng = np.random.default_rng(5)
    hot = [_clip(rng) for _ in range(HOT_CLIPS)]
    served = unique = 0
    probes = []

    def serve_wave():
        """``WAVE`` byte-unique clips with a replay of a hot clip after every
        third one, served to completion; the client keeps nothing."""
        nonlocal served, unique
        fresh = [_clip(rng) for _ in range(WAVE)]
        unique += WAVE
        probes.extend(weakref.ref(clip) for clip in fresh[:2])
        clips = []
        for index, clip in enumerate(fresh):
            clips.append(clip)
            if index % 3 == 2:
                clips.append(hot[(unique + index) % HOT_CLIPS])
        queue = AdmissionQueue(capacity=len(clips))
        responses = []
        for clip in clips:
            response = Response()
            queue.put(Request(request_id=served, inputs=clip), response)
            responses.append(response)
            served += 1
        queue.close()
        # A batcher (and its telemetry) per wave: the results it accumulates
        # are the client's to keep or drop, and this client drops them.
        batcher = ContinuousBatcher(engine, queue, batch_width=BATCH_WIDTH)
        assert batcher.run_until_drained() == len(clips)
        assert all(response.result(0.0).exit_timestep >= 1 for response in responses)
        assert max(_leading_rows(engine)) <= BATCH_WIDTH

    # One wave first, so the batch_width-sized buffers exist; the memo is
    # still nearly cold, and filling it is the only growth allowed below.
    serve_wave()
    gc.collect()
    row_bytes = sum(array.nbytes for array in next(iter(memo._entries.values())))
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        while unique < UNIQUE_CLIPS:
            serve_wave()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth <= memo.capacity * row_bytes + MIB

    # The memo holds owned row copies, exactly capacity-bounded: a row
    # *view* would pin the whole miss batch it was computed in.
    assert len(memo) == memo.capacity
    entries = list(memo._entries.values())
    assert all(array.base is None and array.flags.owndata
               for entry in entries for array in entry)
    assert sum(array.nbytes for entry in entries for array in entry) == (
        len(entries) * row_bytes
    )
    # Nobody on the serving side still references a completed request's inputs.
    assert engine.idle
    gc.collect()
    assert probes and all(probe() is None for probe in probes)
