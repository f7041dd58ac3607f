"""Traffic trace recording: a WAL-style, append-only record of served traffic.

A serving deployment needs *evidence*, not anecdotes: which requests arrived
when, what threshold each was admitted under, where each one exited, and what
it cost.  The :class:`TraceRecorder` captures exactly that as two append-only
files:

* ``<path>`` — the **record WAL**: one JSON object per line, one line per
  event (a ``header`` describing the serving configuration, a ``request``
  line per completed request, a ``reject`` line per load-shed submission).
  Every line carries a CRC32 of its canonical payload, so a reader can
  detect — and recover cleanly from — a partial line left by a crash
  mid-write: :func:`load_trace` keeps the longest valid prefix, exactly like
  a write-ahead log.
* ``<path>.clips`` — the **clip store**: the raw input arrays, framed as
  ``magic | digest | dtype | shape | payload | crc`` records and written
  once per *unique* clip (content-addressed by the same 128-bit BLAKE2b
  digest the serving engine interns), so replayed traffic costs one frame
  however often it recurs within the recorder's dedupe window
  (``CLIP_DEDUP_WINDOW`` distinct clips).  A truncated tail frame is
  likewise dropped at load.

Records reference clips by digest, which is what makes a trace *replayable*:
the recorded baseline of :class:`repro.serve.backtest.Backtester` resubmits
the recorded clips in recorded arrival order, each under its recorded
knobs, against any server composition and diffs the decisions bitwise
against the recorded exits.

Timestamps are stored as offsets from the first recorded arrival, in the
server's (injectable) clock domain — a trace is a relative schedule, not a
wall-clock log, so replays can honor or compress it deterministically.

Overhead: recording is OFF unless a recorder is passed to
:class:`~repro.serve.Server`; when on, a completion pays one digest (the one
the engine already took for its stem key, when it took one — the request
carries it), one fill of the spelled ``request`` template, one CRC over the
bytes written and one buffered write.  ``_encode_line`` — a dict through
``JSONEncoder`` — writes the header and the ``reject`` lines, takes every
completion the template cannot spell (a non-finite float, an ``sla`` class),
and is the referee the template is held to, byte for byte
(``tests/property/test_wal_properties.py``).  The completion sink
(:func:`repro.serve.batcher.complete_round`) flushes once per round, before
any of the round's futures resolves — so a crashed server loses at most the
round in flight, none of whose clients had an answer yet.  Measured between
the round's NumPy calls (``round_budget_observed``, docs/OBSERVABILITY.md §4)
a line costs 17-18 us, 5 of them the digest; the same call in a tight
loop reads 10 — Python-heavy code runs ~1.5-2x dearer in situ, so size a
change against the replay, not against ``timeit``.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.lockorder import named_lock
from .request import Request, RequestResult

__all__ = [
    "TRACE_VERSION",
    "TraceRecord",
    "Trace",
    "TraceRecorder",
    "load_trace",
]

TRACE_VERSION = 1

# The clip store is deduplicated within the newest this-many distinct clips a
# recorder framed (its only per-clip state, ~100 B a digest); beside
# ``SpanTracker``'s 65,536 spans, the other bound on what a sink remembers.
CLIP_DEDUP_WINDOW = 65536

# Clip-store framing: magic, 16-byte digest, dtype string, shape, payload, crc.
_CLIP_MAGIC = b"RPCL"
_CLIP_HEADER = struct.Struct("<4s16sB")  # magic, digest, dtype-string length


@dataclass
class TraceRecord:
    """One admitted-and-completed request, as recorded in the WAL."""

    request_id: int
    digest: str  # hex of the 16-byte clip digest (clip-store key)
    arrival_offset: float  # seconds since the trace's first arrival
    exit_timestep: int
    prediction: int
    score: float
    threshold: Optional[float] = None
    label: Optional[int] = None
    queue_delay: float = 0.0
    service_time: float = 0.0
    energy: Optional[float] = None
    sla_class: Optional[str] = None
    # Threshold-epoch stamp (PR 7): the monotone epoch number the request ran
    # under, the effective horizon, whether it was brown-out service, and its
    # admission priority class.  Older traces load these as None/defaults.
    epoch: Optional[int] = None
    horizon: Optional[int] = None
    brownout: bool = False
    priority: Optional[int] = None


@dataclass
class Trace:
    """A loaded trace: header + request records + rejections + clip store."""

    header: Dict[str, Any]
    records: List[TraceRecord]
    rejections: List[Dict[str, Any]]
    clips: Dict[str, np.ndarray]
    truncated: bool = False  # a partial/corrupt tail was dropped at load

    @property
    def threshold(self) -> Optional[float]:
        value = self.header.get("threshold")
        return None if value is None else float(value)

    @property
    def max_timesteps(self) -> Optional[int]:
        value = self.header.get("max_timesteps")
        return None if value is None else int(value)

    def fixed_threshold(self) -> Optional[float]:
        """The single threshold every record ran under, or ``None`` if the
        threshold moved mid-trace (an SLA controller run) — in which case
        the recorded baseline is only defined for an epoch-stamped trace."""
        values = {record.threshold for record in self.records}
        values.discard(None)
        if len(values) > 1:
            return None
        if values:
            return float(next(iter(values)))
        return self.threshold

    def epoch_stamped(self) -> bool:
        """True when every record carries a threshold-epoch stamp.

        An epoch-stamped trace supports bitwise replay *even when the
        threshold moved mid-trace*: each record's threshold is provably the
        one its engine slot evaluated (the engine pins stamped knobs
        per-slot), so the backtester can pin each request to its recorded
        threshold/horizon instead of refusing.
        """
        return bool(self.records) and all(
            record.epoch is not None and record.threshold is not None
            for record in self.records
        )


# The canonical form the CRC covers: sorted keys, no whitespace, ASCII-only.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _seal(canonical: str) -> str:
    """``canonical`` (one JSON object, however it was spelled) as a WAL line:
    the CRC of exactly those bytes spliced in as the last member."""
    crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
    return f'{canonical[:-1]},"crc":{crc}}}\n'


def _encode_line(payload: Dict[str, Any]) -> str:
    """One WAL line: ``payload`` serialised once and sealed.  (The decoder
    pops ``crc`` wherever it sits, so traces that carry it in sorted position
    still verify.)"""
    return _seal(_canonical(payload))


# A ``request`` line as ``_encode_line`` spells it — its 17 keys in the order
# ``sort_keys`` puts them, ``"crc"`` to follow — with the values left to fill.
# ``%r`` of a finite float or an int is what ``json`` emits for one; a ``%s``
# slot takes such a number or ``true`` / ``false`` / ``null``.  Whatever else
# a completion can carry — a non-finite float, an ``sla`` string, a ``bool``
# label — the encoder spells, and the template never sees.
_REQUEST_LINE = (
    '{"arrival":%r,"brownout":%s,"digest":"%s","energy":%s,"epoch":%s,'
    '"exit_t":%r,"horizon":%s,"id":%r,"kind":"request","label":%s,'
    '"prediction":%r,"priority":%r,"queue_delay":%r,"score":%r,"service":%r,'
    '"sla":null,"threshold":%s}'
)

_SPELLED_LIMIT = 64


def _spell(spelled: Dict[float, str], value: float) -> str:
    """``repr(value)`` for a float ``spelled`` does not hold, remembered there
    — cleared, not grown, past its limit, and never a zero: ``0.0 == -0.0``
    is one key with two spellings."""
    text = repr(value)
    if value:
        if len(spelled) >= _SPELLED_LIMIT:
            spelled.clear()
        spelled[value] = text
    return text


def _plain(value: Any) -> Any:
    """A NumPy scalar as the Python value it holds (a dataset's labels are
    ``np.int64``, and ``json`` spells no NumPy type); anything else as is."""
    return value.item() if isinstance(value, np.generic) else value


def _optional(value: Any, kind: type) -> Any:
    """An optional field as ``_REQUEST_LINE`` takes it: ``"null"``, or the
    finite ``kind`` (exactly ``float`` or ``int``) it holds; ``None`` when
    only the encoder can spell it."""
    if value is None:
        return "null"
    value = _plain(value)
    if value.__class__ is kind and value - value == 0:  # nan - nan is nan
        return value
    return None


def _decode_line(line: str) -> Optional[Dict[str, Any]]:
    """Parse + CRC-check one WAL line; ``None`` marks a corrupt/partial line."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    crc = payload.pop("crc", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if crc != zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF:
        return None
    return payload


class TraceRecorder:
    """Appends served-traffic records to a WAL + content-addressed clip store.

    Thread-safe: the completion sink (thread batcher and replica collector
    alike) and the server front-end all record through one lock.  The header,
    every ``reject`` line and every clip frame are flushed to the OS as they
    are written; ``request`` lines are buffered and the completion sink calls
    :meth:`flush` once per round, before the round's futures resolve — a clip
    is therefore durable before any line that references it, and a line
    before any client can act on its answer.  A crashed *process* loses at
    most the completion round in flight; a crashed *machine* loses what the
    OS had not persisted — call :meth:`close`, which fsyncs, at drain for
    full durability.

    The clip store is deduplicated within a window, not globally: the
    recorder remembers the newest ``CLIP_DEDUP_WINDOW`` distinct digests it
    framed (its memory stays bounded however much byte-unique traffic it
    sees), and a clip that recurs after leaving the window is framed again —
    same digest, same array; :func:`load_trace` keeps the later frame.

    Parameters
    ----------
    path:
        WAL file path; the clip store lands at ``<path>.clips``.
    meta:
        Arbitrary JSON-serializable configuration recorded in the header
        (model/dataset/threshold — whatever a replay needs to rebuild the
        serving context).
    store_clips:
        Record the input payloads (required for replay).  ``False`` keeps
        only the event stream — half the bytes, still audit-grade.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None,
                 store_clips: bool = True):
        self.path = str(path)
        self.clips_path = self.path + ".clips"
        self._lock = named_lock("serve.trace.wal")
        self._store_clips = bool(store_clips)
        self._framed: OrderedDict[bytes, None] = OrderedDict()  # oldest first
        self._spelled: Dict[float, str] = {}  # float -> its repr, see _spell
        self._base: Optional[float] = None
        self._closed = False
        self.records_written = 0
        self.rejections_written = 0
        self._wal = open(self.path, "w", encoding="utf-8")
        self._clips = open(self.clips_path, "wb") if self._store_clips else None
        header = {
            "kind": "header",
            "version": TRACE_VERSION,
            "store_clips": self._store_clips,
        }
        header.update(meta or {})
        self._wal.write(_encode_line(header))
        self._wal.flush()

    # ------------------------------------------------------------------ #
    def _offset(self, timestamp: float) -> float:
        # First recorded event pins the trace origin; offsets are what make
        # the trace a replayable schedule rather than a wall-clock log.
        if self._base is None:
            self._base = float(timestamp)
        return float(timestamp) - self._base

    def _write_clip(self, digest: bytes, inputs: np.ndarray) -> None:
        """Frame a clip the window does not hold; the oldest digest leaves to
        make room, and is framed again if its clip ever recurs."""
        if len(self._framed) >= CLIP_DEDUP_WINDOW:
            self._framed.popitem(last=False)
        self._framed[digest] = None
        array = np.ascontiguousarray(inputs, dtype=np.float32)
        dtype = array.dtype.str.encode("ascii")
        body = io.BytesIO()
        body.write(_CLIP_HEADER.pack(_CLIP_MAGIC, digest, len(dtype)))
        body.write(dtype)
        body.write(struct.pack("<B", array.ndim))
        body.write(struct.pack(f"<{array.ndim}I", *array.shape))
        payload = array.tobytes()
        body.write(struct.pack("<Q", len(payload)))
        body.write(payload)
        frame = body.getvalue()
        self._clips.write(frame)
        self._clips.write(struct.pack("<I", zlib.crc32(frame) & 0xFFFFFFFF))
        self._clips.flush()

    # ------------------------------------------------------------------ #
    def record_request(self, request: Request, result: RequestResult,
                       sla_class: Optional[str] = None) -> None:
        """Buffer one completed request's line (and flush its clip, if new);
        the caller — the completion sink — owes a :meth:`flush` before the
        request's future resolves."""
        digest = request.clip_digest()
        arrival, start = result.arrival_time, result.start_time
        queue_delay = round(float(start - arrival), 9)
        service = round(float(result.finish_time - start), 9)
        score = float(result.score)
        # Finite iff every float added is: inf - inf and nan - nan are nan.
        floats = queue_delay + service + score
        # The five optional fields, each exactly the type ``Server`` hands
        # over or left to ``_optional``.
        threshold, energy = result.threshold, result.energy
        label, epoch, horizon = result.label, result.epoch, result.horizon
        # Few-valued floats — a threshold moves with the epoch, a price with
        # the exit timestep — are spelled once and looked up after.
        spelled = self._spelled
        if threshold.__class__ is float:
            floats += threshold
            threshold = spelled.get(threshold) or _spell(spelled, threshold)
        else:
            threshold = _optional(threshold, float)
        if energy.__class__ is float:
            floats += energy
            energy = spelled.get(energy) or _spell(spelled, energy)
        else:
            energy = _optional(energy, float)
        if label.__class__ is not int:
            label = _optional(label, int)
        if epoch.__class__ is not int:
            epoch = _optional(epoch, int)
        if horizon.__class__ is not int:
            horizon = _optional(horizon, int)
        with self._lock:
            if self._closed:
                return
            if self._clips is not None and digest not in self._framed:
                self._write_clip(digest, request.inputs)
            arrival = round(self._offset(arrival), 9)
            floats += arrival
            if (floats - floats == 0.0 and sla_class is None
                    and threshold is not None and energy is not None
                    and label is not None and epoch is not None
                    and horizon is not None):
                line = _seal(_REQUEST_LINE % (
                    arrival, "true" if result.brownout else "false", digest.hex(),
                    energy, epoch, int(result.exit_timestep), horizon,
                    int(result.request_id), label, int(result.prediction),
                    int(request.priority), queue_delay, score, service, threshold,
                ))
            else:
                line = _encode_line({
                    "kind": "request",
                    "id": int(result.request_id),
                    "digest": digest.hex(),
                    "arrival": arrival,
                    "exit_t": int(result.exit_timestep),
                    "prediction": int(result.prediction),
                    "score": score,
                    "threshold": _plain(result.threshold),
                    "label": _plain(result.label),
                    "queue_delay": queue_delay,
                    "service": service,
                    "energy": _plain(result.energy),
                    "sla": sla_class,
                    "epoch": _plain(result.epoch),
                    "horizon": _plain(result.horizon),
                    "brownout": bool(result.brownout),
                    "priority": int(request.priority),
                })
            self._wal.write(line)
            self.records_written += 1

    def record_rejection(self, request: Request, timestamp: float,
                         reason: Optional[str] = None) -> None:
        """Record one failed request (written by
        :func:`~repro.serve.batcher.fail_round` only).

        ``reason`` names the failure path: ``None`` for a rejection (queue
        full, engine rejection, oversize ring frame, relayed or
        ring-integrity error — the line carries no ``reason`` key),
        "storm" for storm-guard class sheds, "deadline" for
        deadline-expired dispatch drops, "shed" for accepted work nobody
        will serve (abort, worker or replica crash, failed start).
        """
        digest = request.clip_digest()
        with self._lock:
            if self._closed:
                return
            line = {
                "kind": "reject",
                "id": int(request.request_id),
                "digest": digest.hex(),
                "arrival": round(self._offset(timestamp), 9),
            }
            if reason is not None:
                line["reason"] = str(reason)
                line["priority"] = int(getattr(request, "priority", 1))
            self._wal.write(_encode_line(line))
            self._wal.flush()
            self.rejections_written += 1

    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Push buffered bytes to the OS (the completion sink calls this once
        per round, the server once more at drain)."""
        with self._lock:
            if self._closed:
                return
            self._wal.flush()
            if self._clips is not None:
                self._clips.flush()

    def close(self) -> None:
        """Flush, fsync and close both files (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for handle in (self._wal, self._clips):
                if handle is None:
                    continue
                handle.flush()
                os.fsync(handle.fileno())  # lock-ok: close() teardown only; the lock orders the final fsync after every in-flight append
                handle.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Loading (WAL recovery)
# --------------------------------------------------------------------------- #
def _load_clips(path: str) -> Tuple[Dict[str, np.ndarray], bool]:
    """Read the framed clip store; returns (clips, truncated-tail flag).

    Recovery contract: frames are validated front to back, and the first
    frame that fails (short read, bad magic, CRC mismatch — a crash mid-
    append — or a CRC-valid frame that does not describe an array) ends the
    scan.  Everything before it is intact by construction.
    """
    clips: Dict[str, np.ndarray] = {}
    if not os.path.exists(path):
        return clips, False
    with open(path, "rb") as handle:
        data = handle.read()
    cursor = 0
    truncated = False
    total = len(data)
    while cursor < total:
        start = cursor
        head = data[cursor:cursor + _CLIP_HEADER.size]
        if len(head) < _CLIP_HEADER.size:
            truncated = True
            break
        magic, digest, dtype_len = _CLIP_HEADER.unpack(head)
        if magic != _CLIP_MAGIC:
            truncated = True
            break
        cursor += _CLIP_HEADER.size
        if cursor + dtype_len + 1 > total:
            truncated = True
            break
        dtype = data[cursor:cursor + dtype_len].decode("ascii", errors="replace")
        cursor += dtype_len
        ndim = data[cursor]
        cursor += 1
        if cursor + 4 * ndim + 8 > total:
            truncated = True
            break
        shape = struct.unpack(f"<{ndim}I", data[cursor:cursor + 4 * ndim])
        cursor += 4 * ndim
        (nbytes,) = struct.unpack("<Q", data[cursor:cursor + 8])
        cursor += 8
        if cursor + nbytes + 4 > total:
            truncated = True
            break
        payload = data[cursor:cursor + nbytes]
        cursor += nbytes
        (crc,) = struct.unpack("<I", data[cursor:cursor + 4])
        cursor += 4
        if zlib.crc32(data[start:cursor - 4]) & 0xFFFFFFFF != crc:
            truncated = True
            break
        try:
            clips[digest.hex()] = np.frombuffer(payload, dtype=dtype).reshape(shape)
        except (TypeError, ValueError):
            truncated = True
            break
    return clips, truncated


def load_trace(path: str, load_clips: bool = True) -> Trace:
    """Load a trace, recovering the longest valid prefix of each file.

    A line that fails to parse, fails its CRC, or passes it but is not a
    well-formed record ends the record scan (WAL semantics: a crash corrupts
    only the tail, so the first bad line marks the durable frontier);
    ``Trace.truncated`` reports whether anything was dropped from either
    file.  Damage is never an exception out of the loader.
    """
    header: Dict[str, Any] = {}
    records: List[TraceRecord] = []
    rejections: List[Dict[str, Any]] = []
    truncated = False
    # errors="replace": a damaged byte becomes U+FFFD and fails the line's CRC
    # instead of failing the read.
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if not line.endswith("\n"):
                # A line without its terminator is an interrupted append.
                truncated = True
                break
            payload = _decode_line(line)
            if payload is None:
                truncated = True
                break
            kind = payload.get("kind")
            if kind == "header":
                header = {k: v for k, v in payload.items() if k != "kind"}
            elif kind == "request":
                try:
                    record = TraceRecord(
                        request_id=int(payload["id"]),
                        digest=str(payload["digest"]),
                        arrival_offset=float(payload["arrival"]),
                        exit_timestep=int(payload["exit_t"]),
                        prediction=int(payload["prediction"]),
                        score=float(payload["score"]),
                        threshold=payload.get("threshold"),
                        label=payload.get("label"),
                        queue_delay=float(payload.get("queue_delay", 0.0)),
                        service_time=float(payload.get("service", 0.0)),
                        energy=payload.get("energy"),
                        sla_class=payload.get("sla"),
                        epoch=payload.get("epoch"),
                        horizon=payload.get("horizon"),
                        brownout=bool(payload.get("brownout", False)),
                        priority=payload.get("priority"),
                    )
                except (KeyError, TypeError, ValueError, OverflowError):
                    truncated = True
                    break
                records.append(record)
            elif kind == "reject":
                rejections.append(payload)
    clips: Dict[str, np.ndarray] = {}
    if load_clips and header.get("store_clips", True):
        clips, clips_truncated = _load_clips(path + ".clips")
        truncated = truncated or clips_truncated
    return Trace(header=header, records=records, rejections=rejections,
                 clips=clips, truncated=truncated)
