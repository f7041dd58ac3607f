"""Property and fuzz tests for the trace WAL writer and decoder.

Four contracts, pinned before and across the one-serialisation writer:

1. **Line layout** — whatever a completion carries (``None`` knobs, NaN/±inf
   and −0.0 scores, ids past 2⁶³, non-ASCII SLA classes), the written line is
   the canonical payload (sorted keys, no whitespace) with a trailing
   ``"crc"`` member over exactly those bytes, and it decodes to the same
   payload.
2. **Old traces still load** — a line in the previous layout (``crc`` in
   sorted position; the old encoder is kept below as a frozen reference)
   decodes to the same payload, and a whole trace rewritten in that layout
   loads the same records and replays bitwise.
3. **Damage is a shorter trace, never a wrong one** — any single byte flip,
   truncation or insertion in a recorded WAL or clip store loads as a prefix
   of what was written, flagged ``truncated``; the loader never raises and
   never yields a record or clip that differs from the original.
4. **The encoder is the referee** — however ``record_request`` spells a
   ``request`` line (a filled template, since PR 23), the line is byte for
   byte ``_encode_line`` of the payload's Python values: for NumPy-typed
   fields, for −0.0 / subnormal / 1e300 floats, and on every arm that takes
   the encoder itself (non-finite floats, an ``sla`` string, a ``bool``
   label).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import EntropyExitPolicy
from repro.serve import (
    Backtester,
    Request,
    RequestResult,
    Server,
    TraceRecorder,
    clip_digest,
    load_trace,
)
from repro.serve.trace import TRACE_VERSION, _decode_line, _encode_line
from repro.snn import spiking_vgg
from repro.utils import seed_everything


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parent_encode_line(payload) -> str:
    """The WAL line encoder as of TRACE_VERSION 1's first writer — two
    serialisations, ``crc`` in sorted position.  Frozen: do not "fix"."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
    return json.dumps({**payload, "crc": crc}, sort_keys=True,
                      separators=(",", ":")) + "\n"


CLIP = np.arange(18, dtype=np.float32).reshape(2, 3, 3)
any_float = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(0.0, 1e6, allow_nan=False)

completions = st.fixed_dictionaries({
    "id": st.integers(0, 2**80),
    "exit_t": st.integers(1, 64),
    "prediction": st.integers(0, 999),
    "score": any_float,
    "threshold": st.none() | any_float,
    "label": st.none() | st.integers(0, 999),
    "energy": st.none() | any_float,
    "epoch": st.none() | st.integers(0, 2**40),
    "horizon": st.none() | st.integers(1, 64),
    "brownout": st.booleans(),
    "priority": st.integers(0, 2),
    "sla": st.none() | st.text(max_size=12),
    "arrival": finite,
    "queue_delay": finite,
    "service": finite,
})


def _record(recorder: TraceRecorder, fields: dict, origin: float) -> dict:
    """Record one completion built from ``fields``; returns the payload the
    line must carry (``origin``: the recorder's first recorded arrival)."""
    start = fields["arrival"] + fields["queue_delay"]
    finish = start + fields["service"]
    request = Request(request_id=fields["id"], inputs=CLIP,
                      priority=fields["priority"])
    result = RequestResult(
        request_id=fields["id"], prediction=fields["prediction"],
        exit_timestep=fields["exit_t"], score=fields["score"],
        label=fields["label"], threshold=fields["threshold"],
        arrival_time=fields["arrival"], start_time=start, finish_time=finish,
        energy=fields["energy"], epoch=fields["epoch"],
        brownout=fields["brownout"], horizon=fields["horizon"],
    )
    recorder.record_request(request, result, sla_class=fields["sla"])
    return {
        "kind": "request", "id": fields["id"], "digest": clip_digest(CLIP).hex(),
        "arrival": round(fields["arrival"] - origin, 9), "exit_t": fields["exit_t"],
        "prediction": fields["prediction"], "score": fields["score"],
        "threshold": fields["threshold"], "label": fields["label"],
        "queue_delay": round(start - fields["arrival"], 9),
        "service": round(finish - start, 9), "energy": fields["energy"],
        "sla": fields["sla"], "epoch": fields["epoch"],
        "horizon": fields["horizon"], "brownout": fields["brownout"],
        "priority": fields["priority"],
    }


@settings(max_examples=150, deadline=None)
@given(completions)
def test_written_line_is_the_canonical_payload_plus_a_trailing_crc(fields):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.jsonl")
        with TraceRecorder(path) as recorder:
            expected = _record(recorder, fields, origin=fields["arrival"])
        with open(path, encoding="utf-8") as handle:
            header, line = handle.read().splitlines(keepends=True)
        canonical = _canonical(expected)
        crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
        assert line == canonical[:-1] + f',"crc":{crc}}}\n'
        assert line.isascii() and header.endswith("}\n")
        # NaN != NaN, so payloads are compared in canonical form.
        assert _canonical(_decode_line(line)) == canonical
        (record,) = load_trace(path).records
        assert record.request_id == fields["id"]
        assert record.sla_class == fields["sla"]
        assert record.brownout is fields["brownout"]
        assert _canonical([record.score, record.threshold, record.energy]) == (
            _canonical([fields["score"], fields["threshold"], fields["energy"]]))


# Contract 4.  NumPy scalar types a caller of the public pieces can hand over
# (a dataset's labels are ``np.int64``; ``Server.submit`` casts, ``Request``
# and ``ThresholdEpoch`` do not), per field; ``id`` stays an ``int`` (2**80).
NUMPY_TYPES = {
    "exit_t": [np.int32, np.int64], "prediction": [np.int64, np.uint16],
    "score": [np.float64, np.float32], "threshold": [np.float64, np.float32],
    "label": [np.int64, np.int16], "energy": [np.float64, np.float32],
    "epoch": [np.int64, np.uint64], "horizon": [np.int64, np.uint8],
    "brownout": [np.bool_], "priority": [np.int8, np.int64],
}
edge_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-7, 1e16])
SLA_CLASSES = ['gold', 'q"uote', "back\\slash", "ünï☃", "line\nbreak", ""]
referee_completions = st.fixed_dictionaries({
    "fields": completions,
    "edges": st.fixed_dictionaries({}, optional={
        name: edge_floats for name in ("score", "threshold", "energy", "queue_delay")}),
    "odd": st.fixed_dictionaries({}, optional={
        "label": st.sampled_from([True, False, 2.0, "seven"]),
        "threshold": st.sampled_from([1, True, "half"]),
        "sla": st.sampled_from(SLA_CLASSES),
    }),
    "types": st.fixed_dictionaries({}, optional={
        name: st.sampled_from(types) for name, types in NUMPY_TYPES.items()}),
})


@settings(max_examples=300, deadline=None)
@given(referee_completions)
def test_a_request_line_is_what_the_encoder_writes_for_its_python_values(drawn):
    plain = {**drawn["fields"], **drawn["edges"], **drawn["odd"]}
    typed = dict(plain)
    with np.errstate(over="ignore"):  # 1e300 as float32 is inf: an encoder arm
        for name, numpy_type in drawn["types"].items():
            if type(plain[name]) in (bool, int, float):
                typed[name] = numpy_type(plain[name])
                plain[name] = typed[name].item()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.jsonl")
        with TraceRecorder(path, store_clips=False) as recorder:
            _record(recorder, typed, origin=plain["arrival"])
        with open(path, encoding="utf-8") as handle:
            _, line = handle.read().splitlines(keepends=True)
        with TraceRecorder(path, store_clips=False) as recorder:
            expected = _record(recorder, plain, origin=plain["arrival"])
        with open(path, encoding="utf-8") as handle:
            _, plain_line = handle.read().splitlines(keepends=True)
    assert line == plain_line == _encode_line(expected)
    assert _canonical(_decode_line(line)) == _canonical(expected)


@settings(max_examples=150, deadline=None)
@given(st.lists(completions, min_size=1, max_size=4))
def test_lines_in_the_previous_layout_decode_to_the_same_records(batch):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "new.jsonl")
        with TraceRecorder(path, store_clips=False) as recorder:
            payloads = [_record(recorder, fields, origin=batch[0]["arrival"])
                        for fields in batch]
        header = {"kind": "header", "version": TRACE_VERSION, "store_clips": False}
        for payload in payloads:
            assert _canonical(_decode_line(_parent_encode_line(payload))) == (
                _canonical(payload))
        old_path = os.path.join(directory, "old.jsonl")
        with open(old_path, "w", encoding="utf-8") as handle:
            handle.writelines(_parent_encode_line(p) for p in [header] + payloads)
        old, new = load_trace(old_path), load_trace(path)
        assert not old.truncated and not new.truncated
        assert old.header == new.header
        assert _canonical([vars(r) for r in old.records]) == (
            _canonical([vars(r) for r in new.records]))
        assert os.path.getsize(old_path) == os.path.getsize(path)


def test_a_trace_in_the_previous_layout_still_replays_bitwise(tmp_path):
    seed_everything(47)
    model = spiking_vgg("tiny", num_classes=6, input_size=10,
                        default_timesteps=4).eval()
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    clips = np.random.default_rng(11).random((10, 3, 10, 10)).astype(np.float32)

    def server(**sinks):
        return Server(model, EntropyExitPolicy(0.5), max_timesteps=4,
                      batch_width=3, queue_capacity=64, use_runtime=True, **sinks)

    path = tmp_path / "t.jsonl"
    recorder = TraceRecorder(str(path), meta={"threshold": 0.5, "max_timesteps": 4})
    serving = server(trace=recorder).start()
    try:
        for future in [serving.submit(clip) for clip in clips]:
            future.result(timeout=60.0)
    finally:
        serving.shutdown(drain=True)
        recorder.close()
    recorded = load_trace(str(path))
    assert len(recorded.records) == len(clips) and not recorded.truncated

    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rewritten = [_parent_encode_line(_decode_line(line)) for line in lines]
    assert rewritten != lines and sorted(map(len, rewritten)) == sorted(map(len, lines))
    path.write_text("".join(rewritten), encoding="utf-8")
    old = load_trace(str(path))
    assert not old.truncated and old.records == recorded.records

    serving = server().start()
    try:
        _, mismatches = Backtester(old).replay(serving, result_timeout=60.0)
        assert not mismatches, mismatches
    finally:
        serving.shutdown(drain=True)


# --------------------------------------------------------------------------- #
# Fuzz: one damaged byte in a recorded WAL or clip store
# --------------------------------------------------------------------------- #
FRAME_BYTES = 21 + 3 + 1 + 4 * CLIP.ndim + 8 + CLIP.nbytes + 4


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(WAL bytes, clip-store bytes, the trace they load as): 12 completions
    over 4 distinct clips with a rejection in the middle."""
    path = str(tmp_path_factory.mktemp("wal-fuzz") / "t.jsonl")
    with TraceRecorder(path, meta={"threshold": 0.5}) as recorder:
        for index in range(12):
            clip = CLIP + np.float32(index % 4)
            arrival = 100.0 + 0.01 * index
            recorder.record_request(
                Request(request_id=index, inputs=clip),
                RequestResult(
                    request_id=index, prediction=index % 6, exit_timestep=1 + index % 4,
                    score=0.1 * index, label=index % 6, threshold=0.5,
                    arrival_time=arrival, start_time=arrival + 0.001,
                    finish_time=arrival + 0.004, energy=1e4 * (1 + index % 4),
                    epoch=0, horizon=4,
                ),
            )
            if index == 5:
                recorder.record_rejection(Request(request_id=99, inputs=clip), arrival)
    with open(path, "rb") as wal, open(path + ".clips", "rb") as clips:
        wal_bytes, clip_bytes = wal.read(), clips.read()
    assert len(clip_bytes) == 4 * FRAME_BYTES
    trace = load_trace(path)
    assert len(trace.records) == 12 and len(trace.clips) == 4 and not trace.truncated
    return wal_bytes, clip_bytes, trace


def _damage(data: bytes, draw) -> tuple:
    """One flip, truncation or insertion; returns (kind, offset, bytes)."""
    kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
    if kind == "flip":
        offset = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[offset]))
        return kind, offset, data[:offset] + bytes([byte]) + data[offset + 1:]
    offset = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return kind, offset, data[:offset]
    return kind, offset, data[:offset] + bytes([draw(st.integers(0, 255))]) + data[offset:]


def _load_damaged(wal_bytes: bytes, clip_bytes: bytes):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.jsonl")
        with open(path, "wb") as wal, open(path + ".clips", "wb") as clips:
            wal.write(wal_bytes)
            clips.write(clip_bytes)
        return load_trace(path)  # must never raise


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_damaged_wal_loads_as_a_prefix_of_what_was_written(recorded, data):
    wal_bytes, clip_bytes, original = recorded
    kind, offset, damaged = _damage(wal_bytes, data.draw)
    loaded = _load_damaged(damaged, clip_bytes)
    kept = len(loaded.records)
    assert loaded.records == original.records[:kept]
    # The scan may only come up short unflagged when the file was cut exactly
    # between two lines; damage that still parses to the identical payload
    # (``1e5`` → ``1E5``, an inserted space) keeps every record.
    clean_cut = kind == "truncate" and (offset == 0 or damaged.endswith(b"\n"))
    assert loaded.truncated or kept == len(original.records) or clean_cut
    for digest, clip in loaded.clips.items():
        np.testing.assert_array_equal(clip, original.clips[digest])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_damaged_clip_store_loads_as_a_prefix_of_its_frames(recorded, data):
    wal_bytes, clip_bytes, original = recorded
    kind, offset, damaged = _damage(clip_bytes, data.draw)
    loaded = _load_damaged(wal_bytes, damaged)
    assert loaded.records == original.records
    kept = list(loaded.clips)
    assert kept == list(original.clips)[:len(kept)]
    for digest in kept:
        np.testing.assert_array_equal(loaded.clips[digest], original.clips[digest])
    clean_cut = kind == "truncate" and offset % FRAME_BYTES == 0
    assert loaded.truncated or clean_cut


@pytest.mark.parametrize("line", [
    '{"kind":"request","id":1}',
    '{"kind":"request","id":1,"digest":"00","arrival":"x","exit_t":1,'
    '"prediction":0,"score":0.5}',
    '{"kind":"request","id":Infinity,"digest":"00","arrival":0.0,"exit_t":1,'
    '"prediction":0,"score":0.5}',
    '{"kind":"request","id":1,"digest":"00","arrival":0.0,"exit_t":[],'
    '"prediction":0,"score":0.5}',
])
def test_a_crc_valid_line_that_is_not_a_record_ends_the_scan(recorded, tmp_path, line):
    """The loader used to leak ``KeyError: 'digest'`` / ``ValueError`` /
    ``TypeError`` here; a malformed record is a bad line like any other."""
    wal_bytes, clip_bytes, original = recorded
    lines = wal_bytes.decode("utf-8").splitlines(keepends=True)
    malformed = _parent_encode_line(json.loads(line))
    assert _decode_line(malformed) is not None  # the CRC does verify
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines[:4] + [malformed] + lines[4:]), encoding="utf-8")
    loaded = load_trace(str(path), load_clips=False)
    assert loaded.truncated
    assert loaded.records == original.records[:3]  # header + 3 records survive


@pytest.mark.parametrize("dtype,shape", [(b"zz", (2, 3, 3)), (b"<f4", (5, 5, 5))],
                         ids=["no-such-dtype", "shape-disagrees-with-payload"])
def test_a_crc_valid_frame_that_is_not_an_array_ends_the_clip_scan(recorded, tmp_path,
                                                                   dtype, shape):
    wal_bytes, clip_bytes, original = recorded
    body = (struct.pack("<4s16sB", b"RPCL", b"\x07" * 16, len(dtype)) + dtype
            + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
            + struct.pack("<Q", CLIP.nbytes) + CLIP.tobytes())
    frame = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path = tmp_path / "t.jsonl"
    path.write_bytes(wal_bytes)
    (tmp_path / "t.jsonl.clips").write_bytes(
        clip_bytes[:2 * FRAME_BYTES] + frame + clip_bytes[2 * FRAME_BYTES:])
    loaded = load_trace(str(path))
    assert loaded.truncated and loaded.records == original.records
    assert list(loaded.clips) == list(original.clips)[:2]
