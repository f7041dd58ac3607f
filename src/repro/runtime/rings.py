"""Fixed-slot shared-memory rings for replica dispatch (zero-copy IPC).

Pickling every input frame to a replica and every completion back is pure
overhead: the frame is already a contiguous ``float32`` array, and a
completion is ten scalars.  This module is the payload path — preallocated
shared memory — and the wire format the pool's pipes carry instead: one
message of fixed-width binary *work entries* per dispatch round, one
*cursor range* per completion round.  Every per-round byte is packed and
unpacked by a precompiled :class:`struct.Struct`.

* **Request slab** (parent writer, replica reader) — ``slots`` fixed-width
  slots per replica, each a 64-byte header (sequence, byte count, CRC32)
  followed by ``slot_bytes`` of payload capacity.  The forwarder copies the
  frame into a free slot exactly once at dispatch and ships its *ticket*
  (slot index, sequence, CRC, shape, dtype) in a work entry
  (:func:`encode_work`); the replica validates the header against the
  ticket and binds a read-only ``np.ndarray`` view — zero copies on the
  consume side.
* **Completion ring** (replica writer, parent reader) — fixed-width
  96-byte records (:data:`COMPLETION_RECORD`), each sequence- and
  CRC-guarded.  The replica packs a finished round straight into the ring,
  record by record, and sends only the ``(start, count)`` cursor range over
  its result pipe; the pipe write is the cross-process memory barrier, so
  the ring itself needs no shared cursors or atomics.  The parent copies
  the range out once and validates and decodes *the copy*.

Safety model: slots are parent-owned.  A request slot is allocated before
dispatch and freed only after its completion (or failure) resolves, and the
window semaphore bounds in-flight work per replica — so ``slots >= window``
guarantees the writer never reuses a slot a replica may still read, and
``completion_slots > window`` guarantees the replica never overwrites an
unread record.  Sequence numbers make reuse *detectable* anyway: a stale
ticket (or a torn/corrupted record or work round) fails validation loudly
with :class:`RingIntegrityError` instead of serving wrong bytes.

Everything is preallocated at pool construction (one segment for the whole
fleet); steady-state dispatch performs no allocation in shared memory.  A
frame a slot or a work entry cannot carry gets no ticket, and the pool
refuses that request typed — there is no second payload path.
"""

from __future__ import annotations

import os
import secrets
import struct
import weakref
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.lockorder import named_lock

__all__ = [
    "COMPLETION_RECORD",
    "CompletionReader",
    "MAX_FRAME_RANK",
    "PoolRings",
    "ReplicaRings",
    "RequestRingWriter",
    "RingIntegrityError",
    "RingSpec",
    "RingTicket",
    "attach_rings",
    "decode_work",
    "encode_work",
]

_ALIGNMENT = 64
DEFAULT_SLOT_BYTES = 1 << 18  # 256 KiB of payload capacity per request slot.

# Request-slot header: (seq, nbytes, crc) at the head of one cache line
# ahead of the payload; the other 44 bytes stay zero.
_SLOT_HEADER = struct.Struct("<QQI")

# One completed request, fixed width.  Optional fields collapse onto
# sentinels (``-1`` for absent epoch/horizon) plus presence bits in
# ``flags`` so ``None`` survives the round trip exactly.  The CRC is the
# last field and covers every byte before it.  ``_RECORD`` is its codec.
COMPLETION_RECORD = np.dtype([
    ("seq", "<u8"),
    ("request_id", "<i8"),
    ("prediction", "<i8"),
    ("exit_timestep", "<i8"),
    ("epoch", "<i8"),
    ("horizon", "<i8"),
    ("score", "<f8"),
    ("threshold", "<f8"),
    ("start_time", "<f8"),
    ("finish_time", "<f8"),
    ("flags", "<u2"),
    ("_pad", "V10"),
    ("crc", "<u4"),
])
_RECORD = struct.Struct("<QqqqqqddddH10xI")
_RECORD_CRC = struct.Struct("<I")
_RECORD_BODY = _RECORD.size - _RECORD_CRC.size  # the bytes the CRC covers
assert _RECORD.size == COMPLETION_RECORD.itemsize == 96

_FLAG_BROWNOUT = 1 << 0
_FLAG_HAS_THRESHOLD = 1 << 1
_FLAG_HAS_EPOCH = 1 << 2
_FLAG_HAS_HORIZON = 1 << 3


def _flags(epoch, threshold, horizon, brownout) -> int:
    """Presence bits of an epoch's optional fields, in both codecs."""
    flags = _FLAG_BROWNOUT if brownout else 0
    if threshold is not None:
        flags |= _FLAG_HAS_THRESHOLD
    if epoch is not None:
        flags |= _FLAG_HAS_EPOCH
    if horizon is not None:
        flags |= _FLAG_HAS_HORIZON
    return flags


# A ticket travels over the work pipe in place of the payload:
# (slot, seq, crc, nbytes, shape, dtype string).
RingTicket = Tuple[int, int, int, int, Tuple[int, ...], str]
#: Most dimensions a work entry carries; a frame of higher rank gets no
#: ticket and is refused at dispatch.
MAX_FRAME_RANK = 6
_DTYPE_BYTES = 8  # longest ``np.dtype.str`` an entry carries
# A work entry: request id, slot, seq, crc, nbytes, has-label, label, then
# what a server repeats for every request as one raw *tail* the decoder
# memoizes: the stamp (the record's sentinels and flags), rank, dims, dtype.
_TAIL = struct.Struct(f"<qdqBB{MAX_FRAME_RANK}Q{_DTYPE_BYTES}s")
_ENTRY = struct.Struct(f"<qIQIQ?q{_TAIL.size}s")
_WORK_HEADER = struct.Struct("<II")  # entry count, CRC32 of the entries
_TAILS: Dict[bytes, tuple] = {}  # tail -> (stamp, shape, dtype), 64 at most


class RingIntegrityError(RuntimeError):
    """A ring record failed sequence or CRC validation.

    Raised replica-side when a ticket no longer matches its slot header
    (stale reuse) or the payload bytes fail CRC, and parent-side when a
    completion record is torn or corrupted.  Both are protocol violations,
    never expected in normal operation — the caller surfaces them as a
    rejected request rather than serving wrong bytes.
    """


# Payload CRCs cover a bounded span — the first and last ``_CRC_SPAN``
# bytes — not the whole frame: crc32 runs at ~1 GB/s, so a full-payload
# checksum on both ends would cost more than the pickle copies the ring
# exists to remove.  The *sequence* number is the guard against the only
# systematic hazard (stale slot reuse); the bounded CRC adds torn-write
# detection at both ends of the payload at O(1) cost in the frame size.
_CRC_SPAN = 4096


def _payload_crc(payload, nbytes: int) -> int:
    if nbytes <= 2 * _CRC_SPAN:
        return zlib.crc32(payload[:nbytes]) & 0xFFFFFFFF
    crc = zlib.crc32(payload[:_CRC_SPAN])
    return zlib.crc32(payload[nbytes - _CRC_SPAN:nbytes], crc) & 0xFFFFFFFF


def _align(value: int) -> int:
    return (value + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def encode_work(entries: Sequence[tuple]) -> bytes:
    """A count + CRC32 header, then one fixed-width entry per ``(request_id,
    ticket from try_write, label, ThresholdEpoch.as_tuple() or None)``."""
    parts = []
    for request_id, (slot, seq, crc, nbytes, shape, dtype), label, stamp in entries:
        epoch, threshold, horizon, brownout = stamp or (None, None, None, False)
        tail = _TAIL.pack(
            -1 if epoch is None else epoch, 0.0 if threshold is None else threshold,
            -1 if horizon is None else horizon,
            _flags(epoch, threshold, horizon, brownout), len(shape), *shape,
            *(0,) * (MAX_FRAME_RANK - len(shape)), dtype.encode(),
        )
        parts.append(_ENTRY.pack(request_id, slot, seq, crc, nbytes,
                                 label is not None, label or 0, tail))
    body = b"".join(parts)
    return _WORK_HEADER.pack(len(parts), zlib.crc32(body)) + body


def decode_work(message: bytes) -> List[tuple]:
    """The entries :func:`encode_work` wrote — or, for a message that is
    truncated, padded or fails its CRC, :class:`RingIntegrityError` and
    none of them."""
    body = memoryview(message)[_WORK_HEADER.size:]
    count, crc = (_WORK_HEADER.unpack_from(message)
                  if len(message) >= _WORK_HEADER.size else (-1, None))
    if len(body) != count * _ENTRY.size or zlib.crc32(body) != crc:
        raise RingIntegrityError(
            f"work round of {len(message)} bytes failed validation")
    entries = []
    for request_id, slot, seq, crc, nbytes, has_label, label, tail in (
            _ENTRY.iter_unpack(body)):
        decoded = _TAILS.get(tail)
        if decoded is None:
            epoch, threshold, horizon, flags, rank, *dims, dtype = _TAIL.unpack(tail)
            if len(_TAILS) >= 64:
                _TAILS.clear()
            decoded = _TAILS[tail] = (
                (epoch, threshold if flags & _FLAG_HAS_THRESHOLD else None,
                 horizon if flags & _FLAG_HAS_HORIZON else None,
                 bool(flags & _FLAG_BROWNOUT)) if flags & _FLAG_HAS_EPOCH else None,
                tuple(dims[:rank]), dtype.rstrip(b"\0").decode("latin-1"),
            )
        stamp, shape, dtype = decoded
        entries.append((request_id, (slot, seq, crc, nbytes, shape, dtype),
                        label if has_label else None, stamp))
    return entries


@dataclass(frozen=True)
class RingSpec:
    """Picklable layout of one fleet's ring segment.

    One shared-memory segment holds, for each replica, a request slab
    (``slots`` x (header + ``slot_bytes``)) and a completion ring
    (``completion_slots`` x :data:`COMPLETION_RECORD`).  Offsets are
    precomputed parent-side so both ends bind views without negotiation.
    """

    name: str
    size: int
    num_replicas: int
    slots: int
    slot_bytes: int
    completion_slots: int
    request_offsets: Tuple[int, ...]
    completion_offsets: Tuple[int, ...]
    owner_pid: int = 0

    @classmethod
    def layout(
        cls,
        num_replicas: int,
        *,
        slots: int,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "RingSpec":
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        slot_bytes = _align(int(slot_bytes))
        # The window bound keeps written-unread <= slots; the margin is
        # pure paranoia against off-by-one at the boundary.
        completion_slots = slots + 2
        slot_stride = _ALIGNMENT + slot_bytes
        request_bytes = _align(slots * slot_stride)
        completion_bytes = _align(completion_slots * COMPLETION_RECORD.itemsize)
        request_offsets: List[int] = []
        completion_offsets: List[int] = []
        offset = 0
        for _ in range(num_replicas):
            request_offsets.append(offset)
            offset += request_bytes
            completion_offsets.append(offset)
            offset += completion_bytes
        name = f"repro-rings-{os.getpid()}-{secrets.token_hex(4)}"
        return cls(
            name=name,
            size=offset,
            num_replicas=num_replicas,
            slots=slots,
            slot_bytes=slot_bytes,
            completion_slots=completion_slots,
            request_offsets=tuple(request_offsets),
            completion_offsets=tuple(completion_offsets),
            owner_pid=os.getpid(),
        )


def _slab_views(spec: RingSpec, buffer: memoryview, index: int):
    """One replica's request slab as ``(headers, payloads)``: one memoryview
    per slot's 64-byte header and one per slot's payload capacity.  Both
    ends bind the same layout."""
    base = spec.request_offsets[index]
    stride = _ALIGNMENT + spec.slot_bytes
    starts = [base + slot * stride for slot in range(spec.slots)]
    headers = [buffer[start:start + _ALIGNMENT] for start in starts]
    payloads = [buffer[start + _ALIGNMENT:start + stride] for start in starts]
    return headers, payloads


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
class RequestRingWriter:
    """Parent-side writer over one replica's request slab.

    Single logical producer (the replica's forwarder thread), but slot
    *release* happens from collector and monitor threads, so the free list
    is lock-protected.  ``try_write`` either copies the frame into a free
    slot and returns a ticket, or returns ``None`` (the payload exceeds slot
    capacity, a work entry cannot carry its rank or dtype string, or no slot
    is free — which the window invariant rules out) and the caller refuses
    the request.
    """

    def __init__(self, spec: RingSpec, buffer: memoryview, index: int):
        self.spec = spec
        self._headers, self._payloads = _slab_views(spec, buffer, index)
        self._lock = named_lock(f"runtime.rings.writer{index}")
        self._free: List[int] = list(range(spec.slots))
        self._seq = 0

    def close(self) -> None:
        """Drop the buffer views so the owner's mapping can close."""
        self._headers = []
        self._payloads = []

    def try_write(self, array: np.ndarray) -> Optional[RingTicket]:
        data = np.ascontiguousarray(array)
        nbytes = data.nbytes
        dtype = data.dtype.str
        if (nbytes > self.spec.slot_bytes or data.ndim > MAX_FRAME_RANK
                or len(dtype) > _DTYPE_BYTES):
            return None
        with self._lock:
            if not self._free:
                return None
            slot = self._free.pop()
            self._seq += 1
            seq = self._seq
        payload = self._payloads[slot]
        dest = np.ndarray(data.shape, dtype=data.dtype, buffer=payload)
        dest[...] = data
        crc = _payload_crc(payload, nbytes)
        _SLOT_HEADER.pack_into(self._headers[slot], 0, seq, nbytes, crc)
        return (slot, seq, crc, nbytes, data.shape, dtype)

    def release(self, slot: int) -> None:
        """Return a slot to the free list once its request resolved."""
        with self._lock:
            if slot in self._free:
                raise RuntimeError(f"request slot {slot} double-released")
            self._free.append(slot)

    def free_slots(self) -> int:
        with self._lock:
            return len(self._free)


class CompletionReader:
    """Parent-side reader over one replica's completion ring.

    The replica sends ``(start, count)`` cursor ranges over its result pipe;
    :meth:`read` decodes one range back into the 10-tuple wire form the
    collector speaks — all of it or, if any record fails sequence continuity
    or its CRC, none of it.
    """

    def __init__(self, spec: RingSpec, buffer: memoryview, index: int):
        self.spec = spec
        self._ring = buffer[spec.completion_offsets[index]:][
            :spec.completion_slots * _RECORD.size]

    def close(self) -> None:
        """Drop the buffer view so the owner's mapping can close."""
        self._ring = None

    def read(self, start: int, count: int) -> List[tuple]:
        ring = self._ring
        if not 0 <= count <= self.spec.completion_slots:  # reads a record twice
            raise RingIntegrityError(f"completion range {count} failed validation")
        # ONE copy out of shared memory (two slices where the range wraps);
        # validation and decoding both work on the copy, so what was checked
        # is what is decoded, whatever the writer does to the ring meanwhile.
        head = start % self.spec.completion_slots * _RECORD.size
        tail = head + count * _RECORD.size
        block = ring[head:tail].tobytes()
        if tail > len(ring):
            block += ring[:tail - len(ring)].tobytes()
        encoded = memoryview(block)
        completions = []
        for position, (seq, request_id, prediction, exit_timestep, epoch,
                       horizon, score, threshold, start_time, finish_time,
                       flags, crc) in enumerate(_RECORD.iter_unpack(block), start):
            base = (position - start) * _RECORD.size
            expected = zlib.crc32(encoded[base:base + _RECORD_BODY])
            if seq != position or crc != expected:
                raise RingIntegrityError(
                    f"completion record at cursor {position} failed "
                    f"validation (seq={seq}, crc mismatch={crc != expected})"
                )
            completions.append((
                request_id,
                prediction,
                exit_timestep,
                score,
                threshold if flags & _FLAG_HAS_THRESHOLD else None,
                start_time,
                finish_time,
                epoch if flags & _FLAG_HAS_EPOCH else None,
                bool(flags & _FLAG_BROWNOUT),
                horizon if flags & _FLAG_HAS_HORIZON else None,
            ))
        return completions


class PoolRings:
    """Owner of the fleet's ring segment (parent process only).

    Created once at pool construction, destroyed at drain/abort.  Like the
    plan arena, a ``weakref.finalize`` parachute unlinks the segment if the
    pool is garbage-collected without a drain, and the multiprocessing
    resource tracker covers a crashed parent.
    """

    def __init__(self, spec: RingSpec, segment: shared_memory.SharedMemory):
        self.spec = spec
        self._segment = segment
        self._destroyed = False
        self._writers: List[RequestRingWriter] = []
        self._readers: List[CompletionReader] = []
        self._finalizer = weakref.finalize(self, _release_segment, segment)

    @classmethod
    def create(
        cls,
        num_replicas: int,
        *,
        slots: int,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "PoolRings":
        spec = RingSpec.layout(num_replicas, slots=slots, slot_bytes=slot_bytes)
        segment = shared_memory.SharedMemory(
            name=spec.name, create=True, size=spec.size,
        )
        # Zero the headers so a never-written slot can never pass a seq
        # check (ticket sequences start at 1).  /dev/shm pages are
        # zero-filled on first touch anyway; this documents the reliance.
        return cls(spec, segment)

    def writer(self, index: int) -> RequestRingWriter:
        writer = RequestRingWriter(self.spec, self._segment.buf, index)
        self._writers.append(writer)
        return writer

    def reader(self, index: int) -> CompletionReader:
        reader = CompletionReader(self.spec, self._segment.buf, index)
        self._readers.append(reader)
        return reader

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def destroy(self) -> None:
        """Unlink the segment.  Idempotent; callers must have stopped every
        writer/reader (the pool destroys rings only after replicas exit)."""
        if self._destroyed:
            return
        self._destroyed = True
        # Drop every view handed out through writer()/reader() first, so
        # the mapping's exported-pointer count reaches zero and close()
        # actually releases the memory now instead of at interpreter GC.
        for writer in self._writers:
            writer.close()
        for reader in self._readers:
            reader.close()
        self._writers = []
        self._readers = []
        self._finalizer.detach()
        _release_segment(self._segment, unlink=True)


def _release_segment(segment: shared_memory.SharedMemory, unlink: bool = True) -> None:
    # Unlink FIRST: it only needs the name, and it is the part that keeps
    # /dev/shm clean.  close() may legitimately fail with BufferError while
    # writer/reader numpy views are still alive (their mapping dies with
    # the objects; the name must not outlive the pool either way).
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
    try:
        segment.close()
    except (OSError, BufferError):
        pass


# --------------------------------------------------------------------- #
# Replica side
# --------------------------------------------------------------------- #
class ReplicaRings:
    """One replica's view of the segment: request reader, completion writer.

    The replica is the *single* writer of its completion ring, so the local
    ``_cursor`` needs no synchronization — the cursor range shipped over the
    result pipe tells the parent exactly which records to read, and the pipe
    write orders the shared-memory stores before the parent's loads.
    """

    def __init__(self, spec: RingSpec, index: int):
        self.spec = spec
        self.index = index
        self._segment = shared_memory.SharedMemory(name=spec.name)
        buffer = self._segment.buf
        self._headers, payloads = _slab_views(spec, buffer, index)
        # Read-only memoryviews: every array bound over one is born
        # non-writeable, so a served frame cannot be scribbled on.
        self._payloads = [payload.toreadonly() for payload in payloads]
        self._ring = buffer[spec.completion_offsets[index]:][
            :spec.completion_slots * _RECORD.size]
        self._cursor = 0

    # -- request side -------------------------------------------------- #
    def request_view(self, ticket: RingTicket) -> np.ndarray:
        """Bind a zero-copy read-only view of a dispatched frame.

        Validates the slot header against the ticket (a mismatched sequence
        means the parent reused the slot — a protocol violation the window
        invariant is supposed to prevent) and the payload CRC before
        trusting a single byte.
        """
        slot, seq, crc, nbytes, shape, dtype_str = ticket
        header_seq, header_nbytes, header_crc = _SLOT_HEADER.unpack_from(
            self._headers[slot])
        if header_seq != seq:
            raise RingIntegrityError(
                f"request slot {slot} sequence mismatch: ticket {seq}, "
                f"header {header_seq} (stale slot reuse)"
            )
        if header_nbytes != nbytes or header_crc != crc:
            raise RingIntegrityError(
                f"request slot {slot} header does not match ticket"
            )
        payload = self._payloads[slot]
        if _payload_crc(payload, nbytes) != crc:
            raise RingIntegrityError(
                f"request slot {slot} payload failed CRC validation"
            )
        return np.ndarray(shape, dtype=dtype_str, buffer=payload)

    # -- completion side ----------------------------------------------- #
    def write_completions(self, completions: Sequence[tuple]) -> Tuple[int, int]:
        """Append one round of fixed-width records; return the ``(start,
        count)`` cursor range to ship over the pipe.

        A round larger than one ring revolution would overwrite its own
        head: ``ValueError`` (a served round is at most ``batch_width``
        records, and the ring holds more than the whole window).
        """
        count = len(completions)
        slots = self.spec.completion_slots
        if count > slots:
            raise ValueError(
                f"a round of {count} completions exceeds the completion "
                f"ring's {slots} slots"
            )
        ring = self._ring
        start = self._cursor
        for position, (request_id, prediction, exit_timestep, score, threshold,
                       start_time, finish_time, epoch, brownout,
                       horizon) in enumerate(completions, start):
            base = position % slots * _RECORD.size
            _RECORD.pack_into(
                ring, base, position, request_id, prediction, exit_timestep,
                -1 if epoch is None else epoch,
                -1 if horizon is None else horizon,
                score, 0.0 if threshold is None else threshold,
                start_time, finish_time,
                _flags(epoch, threshold, horizon, brownout), 0,
            )
            _RECORD_CRC.pack_into(ring, base + _RECORD_BODY,
                                  zlib.crc32(ring[base:base + _RECORD_BODY]))
        self._cursor = start + count
        return (start, count)

    def close(self) -> None:
        # Drop our own views first so the mapping can actually close; any
        # request_view() arrays still held by the engine keep it pinned.
        self._headers = []
        self._payloads = []
        self._ring = None
        try:
            self._segment.close()
        except (OSError, BufferError):
            # Engine views may still be alive; the OS reclaims the mapping
            # at process exit.
            pass


def attach_rings(spec: RingSpec, index: int) -> ReplicaRings:
    """Attach one replica's ring views inside a spawned worker process."""
    return ReplicaRings(spec, index)
