"""Property and fuzz tests for the shared-memory ring decoders.

Three byte formats cross the replica process boundary, and every decoder is
hot-path code that was rewritten round-shaped:

1. **Completion rounds** (``ReplicaRings.write_completions`` →
   ``CompletionReader.read``) — whatever a round carries (``None``
   threshold/epoch/horizon, NaN/±inf/−0.0 scores, ids at ±2⁶³, the brown-out
   bit) and wherever its cursor range falls, including across the ring's
   wrap-around, it decodes to the same tuples bit for bit.  Damage is all or
   nothing: a single flipped byte, or a CRC-valid record left over from the
   previous ring revolution, anywhere in a multi-record range raises
   :class:`RingIntegrityError` for the whole range — never a differing
   tuple, never a partial round.
2. **Request tickets** (``RequestRingWriter.try_write`` →
   ``ReplicaRings.request_view``) — a round of frames binds back bitwise and
   read-only; a flipped header byte (``seq``/``nbytes``/``crc``), a flipped
   byte in the CRC-covered first or last 4 KiB of a payload, or a tampered
   ticket fails that ticket's validation and leaves its neighbours intact.
3. **Work rounds** (``encode_work`` → ``decode_work``, the work pipe) —
   any ids, labels, epoch stamps, ranks and dtypes decode to the entries
   written; arbitrary bytes, a truncated round or one flipped byte raise
   :class:`RingIntegrityError` and nothing else — never a partial round.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.runtime.rings import (
    COMPLETION_RECORD,
    MAX_FRAME_RANK,
    PoolRings,
    RingIntegrityError,
    attach_rings,
    decode_work,
    encode_work,
)

SLOTS = 4  # completion ring of SLOTS + 2 records: every few rounds wrap
any_float = st.floats(allow_nan=True, allow_infinity=True)
int64 = st.integers(-2**63, 2**63 - 1) | st.sampled_from(
    [-2**63, -2**63 + 1, -1, 0, 2**63 - 2, 2**63 - 1]
)
completion = st.tuples(
    int64,                      # request_id
    int64,                      # prediction
    int64,                      # exit_timestep
    any_float,                  # score
    st.none() | any_float,      # threshold
    any_float,                  # start_time
    any_float,                  # finish_time
    st.none() | int64,          # epoch
    st.booleans(),              # brownout
    st.none() | int64,          # horizon
)
rounds = st.lists(
    st.lists(completion, min_size=1, max_size=SLOTS + 2), min_size=1, max_size=6
)


def _bits(completions):
    """Tuples with every float replaced by its bit pattern: NaN compares
    equal to itself and −0.0 differs from 0.0."""
    return [
        tuple(struct.pack("<d", field) if isinstance(field, float) else field
              for field in record)
        for record in completions
    ]


class _Rings:
    """One single-replica ring segment with both ends attached."""

    def __init__(self, slots=SLOTS, slot_bytes=4096):
        self.pool = PoolRings.create(1, slots=slots, slot_bytes=slot_bytes)
        self.writer = self.pool.writer(0)
        self.reader = self.pool.reader(0)
        self.replica = attach_rings(self.pool.spec, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.replica.close()
        self.pool.destroy()

    def completion_bytes(self):
        """The completion ring as a writable byte matrix, one row a record."""
        return np.frombuffer(self.reader._ring, dtype=np.uint8).reshape(
            -1, COMPLETION_RECORD.itemsize)


# --------------------------------------------------------------------- #
# Completion rounds
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(rounds)
def test_completion_rounds_round_trip_bitwise_across_the_wrap(rounds):
    with _Rings() as rings:
        cursor = 0
        for completions in rounds:
            start, count = rings.replica.write_completions(completions)
            assert (start, count) == (cursor, len(completions))
            decoded = rings.reader.read(start, count)
            assert len(decoded) == count
            assert _bits(decoded) == _bits(completions)
            for written, read in zip(completions, decoded):
                assert [type(field) for field in read] == [
                    type(field) for field in written]
            cursor += count


def test_a_range_crossing_the_wrap_is_one_round():
    """The deterministic case behind the property: a cursor range that
    starts near the end of the ring and ends past its beginning."""
    with _Rings() as rings:
        slots = rings.pool.spec.completion_slots
        first = [(i, i, 1, 0.5, None, 0.0, 1.0, None, False, None)
                 for i in range(slots - 2)]
        second = [(100 + i, -i, 2, -0.0, float("nan"), 1.0, 2.0, i, True, 4)
                  for i in range(5)]
        rings.replica.write_completions(first)
        start, count = rings.replica.write_completions(second)
        assert start % slots + count > slots  # the range wraps
        assert _bits(rings.reader.read(start, count)) == _bits(second)


@settings(max_examples=150, deadline=None)
@given(st.lists(completion, min_size=2, max_size=SLOTS + 2),
       st.integers(0, SLOTS + 1), st.data())
def test_a_flipped_byte_anywhere_in_a_range_fails_the_whole_range(
        completions, priming, data):
    with _Rings() as rings:
        # Prime the cursor so the damaged range lands anywhere, wrap included.
        if priming:
            rings.replica.write_completions(completions[:1] * priming)
        start, count = rings.replica.write_completions(completions)
        slots = rings.pool.spec.completion_slots
        record = data.draw(st.integers(0, count - 1), label="record")
        byte = data.draw(st.integers(0, COMPLETION_RECORD.itemsize - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        rings.completion_bytes()[(start + record) % slots, byte] ^= 1 << bit
        with pytest.raises(RingIntegrityError, match="failed validation"):
            rings.reader.read(start, count)


@settings(max_examples=60, deadline=None)
@given(st.lists(completion, min_size=2, max_size=SLOTS + 2), st.data())
def test_a_record_one_revolution_stale_fails_the_whole_range(completions, data):
    """A CRC-valid record of the previous revolution, sitting where this
    round's record should be (the writer died before overwriting it), is
    caught by sequence continuity alone."""
    with _Rings() as rings:
        slots = rings.pool.spec.completion_slots
        rings.replica.write_completions((completions * slots)[:slots])
        previous = rings.completion_bytes().copy()
        start, count = rings.replica.write_completions(completions)
        assert start == slots
        assert _bits(rings.reader.read(start, count)) == _bits(completions)
        stale = data.draw(st.integers(0, count - 1), label="stale record")
        rings.completion_bytes()[stale] = previous[stale]
        with pytest.raises(RingIntegrityError, match=f"cursor {slots + stale}"):
            rings.reader.read(start, count)


# --------------------------------------------------------------------- #
# Request tickets
# --------------------------------------------------------------------- #
frame = st.tuples(
    st.sampled_from(["<f4", "<f8", "<i4", "|u1"]),
    st.lists(st.integers(1, 7), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
).map(lambda args: np.random.default_rng(args[2]).integers(
    0, 255, size=args[1]).astype(args[0]))


@settings(max_examples=100, deadline=None)
@given(st.lists(frame, min_size=1, max_size=SLOTS))
def test_a_round_of_tickets_binds_bitwise_read_only_views(frames):
    with _Rings() as rings:
        tickets = [rings.writer.try_write(array) for array in frames]
        assert None not in tickets
        assert rings.writer.free_slots() == SLOTS - len(frames)
        views = [rings.replica.request_view(ticket) for ticket in tickets]
        for array, view in zip(frames, views):
            assert view.dtype == array.dtype and view.shape == array.shape
            assert view.tobytes() == array.tobytes()
            assert not view.flags.writeable
        del views


#: Bytes of a slot header that a ticket is checked against: seq, nbytes, crc.
_GUARDED_HEADER_BYTES = 8 + 8 + 4


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12_000), st.integers(0, SLOTS - 1), st.data())
def test_header_and_guarded_payload_flips_fail_only_their_ticket(
        size, victim, data):
    """Frames up to 12 000 bytes: past 8 KiB the payload CRC covers only the
    first and last 4 KiB (the sequence number is the guard against reuse),
    so the flip is drawn from the covered bytes."""
    with _Rings(slot_bytes=12_032) as rings:
        frames = [np.random.default_rng(seed).integers(0, 255, size=size)
                  .astype(np.uint8) for seed in range(SLOTS)]
        tickets = [rings.writer.try_write(array) for array in frames]
        slot = tickets[victim][0]
        covered = st.integers(0, min(size, 4096) - 1) | st.integers(
            max(0, size - 4096), size - 1)
        if data.draw(st.booleans(), label="flip header"):
            target = rings.writer._headers[slot]
            offset = data.draw(st.integers(0, _GUARDED_HEADER_BYTES - 1))
        else:
            target = rings.writer._payloads[slot]
            offset = data.draw(covered, label="payload offset")
        target[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        del target
        for index, (array, ticket) in enumerate(zip(frames, tickets)):
            if index == victim:
                with pytest.raises(RingIntegrityError):
                    rings.replica.request_view(ticket)
            else:
                assert rings.replica.request_view(ticket).tobytes() == array.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 2**31))
def test_a_tampered_ticket_fails_validation(field, delta):
    """``seq`` (1), ``crc`` (2) or ``nbytes`` (3) of the ticket itself moved:
    the slot header no longer vouches for it."""
    with _Rings() as rings:
        ticket = list(rings.writer.try_write(np.arange(32, dtype=np.float32)))
        ticket[field] += delta
        with pytest.raises(RingIntegrityError):
            rings.replica.request_view(tuple(ticket))


# --------------------------------------------------------------------- #
# Work rounds
# --------------------------------------------------------------------- #
#: Every dtype a frame can have in the slab, in both byte orders.
DTYPES = sorted({np.dtype(code).newbyteorder(order).str
                 for code in "?bhilqBHILQefdgFDG" for order in "<>"})
uint32, uint64 = st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
ticket = st.tuples(
    uint32,                                                     # slot
    uint64,                                                     # seq
    uint32,                                                     # crc
    uint64,                                                     # nbytes
    st.lists(uint64, max_size=MAX_FRAME_RANK).map(tuple),       # shape
    st.sampled_from(DTYPES),                                    # dtype
)
stamp = st.none() | st.tuples(
    int64, st.none() | any_float, st.none() | int64, st.booleans())
work_entry = st.tuples(int64, ticket, st.none() | int64, stamp)
work_round = st.lists(work_entry, max_size=16)


def _entry_bits(entries):
    """Entries with the stamp's threshold as its bit pattern (NaN-safe)."""
    return [
        (request_id, ticket, label, None if stamp is None else (
            stamp[0], None if stamp[1] is None else struct.pack("<d", stamp[1]),
            *stamp[2:]))
        for request_id, ticket, label, stamp in entries
    ]


@settings(max_examples=100, deadline=None)
@given(work_round)
@example([])
@example([(0, (0, 1, 0, 0, (), "|b1"), None, None)])
@example([(-1, (2**32 - 1, 2**64 - 1, 2**32 - 1, 2**64 - 1,
                (2**64 - 1,) * MAX_FRAME_RANK, ">c16"),
            -2**63, (2**63 - 1, float("nan"), -2**63, True))])
def test_work_rounds_round_trip_exactly(entries):
    decoded = decode_work(encode_work(entries))
    assert _entry_bits(decoded) == _entry_bits(entries)
    for written, read in zip(entries, decoded):
        assert type(read[2]) is type(written[2])
        assert read[3] is None or [type(field) for field in read[3]] == [
            type(field) for field in written[3]]


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=600))
@example(b"")
@example(bytes(8))  # a CRC-valid empty round
@example(bytes(7))
def test_arbitrary_bytes_decode_whole_or_raise_ring_integrity_error(message):
    """The decoder's whole contract on any input: a list of well-formed
    entries, or RingIntegrityError — no other exception."""
    try:
        entries = decode_work(message)
    except RingIntegrityError:
        return
    for _, (_, _, _, _, shape, dtype), _, _ in entries:
        assert len(shape) <= MAX_FRAME_RANK and isinstance(dtype, str)


@settings(max_examples=100, deadline=None)
@given(work_round, st.data())
def test_a_truncated_or_flipped_work_round_is_refused_whole(entries, data):
    message = encode_work(entries)
    if data.draw(st.booleans(), label="truncate"):
        damaged = message[:data.draw(st.integers(0, len(message) - 1), label="length")]
    else:
        offset = data.draw(st.integers(0, len(message) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(message)
        damaged[offset] ^= flip
        damaged = bytes(damaged)
    with pytest.raises(RingIntegrityError):
        decode_work(damaged)
