"""Unit tests for the shared-memory request/completion rings (same process).

Cross-process behaviour (spawned replicas, SIGKILL mid-traffic) is covered
by ``tests/serve/test_replica.py`` and ``tests/serve/test_conservation.py``;
these tests pin the ring mechanics that do not need a second process:
ticket round trips are bitwise and zero-copy, sequence/CRC guards reject
stale or corrupted slots loudly, completion records survive the fixed-width
encode/decode including every ``None`` sentinel and are byte-identical to
golden records of the documented layout, slot accounting enforces
the window invariant, and ``destroy`` unlinks ``/dev/shm`` exactly once.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.runtime.rings import (
    COMPLETION_RECORD,
    MAX_FRAME_RANK,
    PoolRings,
    RingIntegrityError,
    RingSpec,
    _RECORD,
    attach_rings,
)


def _make_rings(slots=4, slot_bytes=4096, **kwargs):
    return PoolRings.create(1, slots=slots, slot_bytes=slot_bytes, **kwargs)


def _shm_path(spec):
    return os.path.join("/dev/shm", spec.name)


# --------------------------------------------------------------------- #
# Request slab
# --------------------------------------------------------------------- #
def test_request_round_trip_is_bitwise_and_readonly():
    rings = _make_rings()
    try:
        writer = rings.writer(0)
        replica = attach_rings(rings.spec, 0)
        frame = np.arange(24, dtype=np.float32).reshape(2, 3, 4) * 0.25
        ticket = writer.try_write(frame)
        assert ticket is not None
        slot, seq, crc, nbytes, shape, dtype_str = ticket
        assert seq == 1
        assert nbytes == frame.nbytes
        assert shape == frame.shape
        assert dtype_str == frame.dtype.str

        view = replica.request_view(ticket)
        assert view.shape == frame.shape
        assert view.dtype == frame.dtype
        np.testing.assert_array_equal(view, frame)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0
        del view  # release the exported pointer so the mapping can close
        replica.close()
    finally:
        rings.destroy()


def test_stale_ticket_fails_sequence_validation():
    rings = _make_rings(slots=1)
    try:
        writer = rings.writer(0)
        replica = attach_rings(rings.spec, 0)
        stale = writer.try_write(np.ones(4, dtype=np.float32))
        writer.release(stale[0])
        fresh = writer.try_write(np.zeros(4, dtype=np.float32))
        assert fresh[0] == stale[0] and fresh[1] != stale[1]
        # The reused slot serves the fresh ticket but rejects the stale one.
        np.testing.assert_array_equal(
            replica.request_view(fresh), np.zeros(4, dtype=np.float32))
        with pytest.raises(RingIntegrityError, match="sequence mismatch"):
            replica.request_view(stale)
        replica.close()
    finally:
        rings.destroy()


def test_corrupted_payload_fails_crc_validation():
    rings = _make_rings()
    try:
        writer = rings.writer(0)
        replica = attach_rings(rings.spec, 0)
        ticket = writer.try_write(np.arange(8, dtype=np.float32))
        # Flip one payload byte behind the writer's back.
        payload = writer._payloads[ticket[0]]
        payload[3] = payload[3] ^ 0xFF
        with pytest.raises(RingIntegrityError, match="CRC"):
            replica.request_view(ticket)
        del payload
        replica.close()
    finally:
        rings.destroy()


def test_oversized_payload_gets_no_ticket():
    """Nor does a frame a work entry cannot carry: rank above
    ``MAX_FRAME_RANK``, or a dtype string longer than its 8 bytes."""
    rings = _make_rings(slot_bytes=256)
    try:
        writer = rings.writer(0)
        assert writer.try_write(np.zeros(1024, dtype=np.float32)) is None
        assert writer.try_write(
            np.zeros((1,) * (MAX_FRAME_RANK + 1), dtype=np.float32)) is None
        assert writer.try_write(np.zeros(2, dtype="M8[100ns]")) is None
        # The refusals consumed no slot.
        assert writer.free_slots() == rings.spec.slots
    finally:
        rings.destroy()


def test_slot_exhaustion_release_and_double_release():
    rings = _make_rings(slots=2)
    try:
        writer = rings.writer(0)
        frame = np.zeros(4, dtype=np.float32)
        first = writer.try_write(frame)
        second = writer.try_write(frame)
        assert first is not None and second is not None
        assert writer.free_slots() == 0
        assert writer.try_write(frame) is None
        writer.release(first[0])
        assert writer.free_slots() == 1
        assert writer.try_write(frame) is not None
        with pytest.raises(RuntimeError, match="double-released"):
            writer.release(second[0])
            writer.release(second[0])
    finally:
        rings.destroy()


# --------------------------------------------------------------------- #
# Completion ring
# --------------------------------------------------------------------- #
_COMPLETIONS = [
    # (request_id, prediction, exit_timestep, score, threshold,
    #  start_time, finish_time, epoch, brownout, horizon)
    (7, 3, 2, 0.875, 0.9, 10.5, 11.25, 4, False, 8),
    (8, 1, 5, 0.5, None, 12.0, 12.5, None, True, None),
    (9, 0, 1, 1.0, 0.0, 0.0, 0.0, 0, False, 0),
]


def test_completion_round_trip_preserves_none_sentinels():
    rings = _make_rings()
    try:
        replica = attach_rings(rings.spec, 0)
        reader = rings.reader(0)
        cursor = replica.write_completions(_COMPLETIONS)
        assert cursor == (0, len(_COMPLETIONS))
        decoded = reader.read(*cursor)
        assert decoded == _COMPLETIONS
        # A second batch wraps the ring and keeps absolute sequencing.
        wrap = [_COMPLETIONS[1]] * rings.spec.completion_slots
        cursor = replica.write_completions(wrap)
        assert cursor == (len(_COMPLETIONS), len(wrap))
        assert reader.read(*cursor) == wrap
        replica.close()
    finally:
        rings.destroy()


def test_completion_round_larger_than_ring_is_a_value_error():
    """A served round is at most ``batch_width`` < ``completion_slots`` by
    construction; one that is not would overwrite its own head, so it is a
    programming error, not a fallback.  Nothing is written and the cursor
    does not move; an empty round is an empty range."""
    rings = _make_rings()
    try:
        replica = attach_rings(rings.spec, 0)
        reader = rings.reader(0)
        oversize = [_COMPLETIONS[0]] * (rings.spec.completion_slots + 1)
        with pytest.raises(ValueError, match="exceeds the completion ring"):
            replica.write_completions(oversize)
        assert replica.write_completions([]) == (0, 0)
        assert reader.read(0, 0) == []
        assert replica.write_completions(_COMPLETIONS) == (0, len(_COMPLETIONS))
        # The reader refuses such a range too: a position read twice
        # cannot carry both sequence numbers.
        with pytest.raises(RingIntegrityError, match="failed validation"):
            reader.read(0, rings.spec.completion_slots + 1)
        replica.close()
    finally:
        rings.destroy()


#: Records at cursors 3 and 4 as the structured ``COMPLETION_RECORD``
#: encoding wrote them (one ``np.ndarray`` store per round, before records
#: were packed with ``struct``): the documented layout, frozen.
_GOLDEN_RECORDS = {
    # Every optional field present, brown-out set.
    (7, 3, 2, 0.875, 0.9, 10.5, 11.25, 4, True, 8): (
        "0300000000000000070000000000000003000000000000000200000000000000"
        "04000000000000000800000000000000000000000000ec3fcdccccccccccec3f"
        "000000000000254000000000008026400f0000000000000000000000244dd2bd"),
    # Every optional field absent.
    (-9, 0, 4, -0.0, None, 0.0, 1e-3, None, False, None): (
        "0400000000000000f7ffffffffffffff00000000000000000400000000000000"
        "ffffffffffffffffffffffffffffffff00000000000000800000000000000000"
        "0000000000000000fca9f1d24d62503f000000000000000000000000718ee9b7"),
}


def test_completion_records_match_the_golden_bytes_and_the_documented_layout():
    rings = _make_rings()
    try:
        replica = attach_rings(rings.spec, 0)
        reader = rings.reader(0)
        replica.write_completions([_COMPLETIONS[2]] * 3)
        cursor = replica.write_completions(list(_GOLDEN_RECORDS))
        assert cursor == (3, 2)
        width = COMPLETION_RECORD.itemsize
        written = bytes(reader._ring[3 * width:5 * width])
        assert written.hex() == "".join(_GOLDEN_RECORDS.values())
        assert reader.read(*cursor) == list(_GOLDEN_RECORDS)
        # The codec's struct IS the dtype: same size, and every field it
        # unpacks sits at the dtype's offset with the dtype's value.
        assert _RECORD.size == width
        for record in (written[:width], written[width:]):
            through_dtype = np.frombuffer(record, dtype=COMPLETION_RECORD)[0]
            fields = [name for name in COMPLETION_RECORD.names if name != "_pad"]
            assert list(_RECORD.unpack(record)) == [
                through_dtype[name].item() for name in fields]
        replica.close()
    finally:
        rings.destroy()


def test_corrupted_completion_record_fails_validation():
    rings = _make_rings()
    try:
        replica = attach_rings(rings.spec, 0)
        reader = rings.reader(0)
        cursor = replica.write_completions(_COMPLETIONS[:1])
        prediction = COMPLETION_RECORD.fields["prediction"][1]
        reader._ring[prediction] ^= 1  # CRC now stale
        with pytest.raises(RingIntegrityError, match="failed validation"):
            reader.read(*cursor)
        # A never-written cursor range fails the sequence check too.
        with pytest.raises(RingIntegrityError):
            reader.read(100, 1)
        replica.close()
    finally:
        rings.destroy()


# --------------------------------------------------------------------- #
# Layout and lifecycle
# --------------------------------------------------------------------- #
def test_layout_isolates_replicas_and_aligns_slots():
    spec = RingSpec.layout(3, slots=4, slot_bytes=1000)
    assert spec.slot_bytes % 64 == 0 and spec.slot_bytes >= 1000
    assert spec.completion_slots == 6
    assert len(spec.request_offsets) == len(spec.completion_offsets) == 3
    spans = sorted(
        [(off, off + 4 * (64 + spec.slot_bytes)) for off in spec.request_offsets]
        + [(off, off + 6 * COMPLETION_RECORD.itemsize)
           for off in spec.completion_offsets]
    )
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start  # no overlap between regions
    assert spans[-1][1] <= spec.size


def test_replica_rings_do_not_interfere():
    rings = PoolRings.create(2, slots=2, slot_bytes=256)
    try:
        writers = [rings.writer(0), rings.writer(1)]
        replicas = [attach_rings(rings.spec, 0), attach_rings(rings.spec, 1)]
        frames = [np.full(8, i, dtype=np.float32) for i in range(2)]
        tickets = [writers[i].try_write(frames[i]) for i in range(2)]
        for i in range(2):
            np.testing.assert_array_equal(
                replicas[i].request_view(tickets[i]), frames[i])
        cursors = [replicas[i].write_completions([_COMPLETIONS[i]])
                   for i in range(2)]
        for i in range(2):
            assert rings.reader(i).read(*cursors[i]) == [_COMPLETIONS[i]]
        for replica in replicas:
            replica.close()
    finally:
        rings.destroy()


def test_destroy_unlinks_shm_and_is_idempotent():
    rings = _make_rings()
    path = _shm_path(rings.spec)
    assert os.path.exists(path)
    rings.writer(0)
    rings.reader(0)
    rings.destroy()
    assert not os.path.exists(path)
    assert rings.destroyed
    rings.destroy()  # idempotent
