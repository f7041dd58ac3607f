"""Shared-memory arena holding a model's plan constants for process replicas.

Thread workers (``Server(num_workers=N)``) share one :class:`CompiledPlan`
for free because they share the parent's address space — but they also share
its GIL: the GEMMs release it, the op-dispatch loop does not, so thread
scaling saturates one core's worth of Python.  Process replicas remove the
GIL from the picture, and this module removes the memory and serialization
cost that would otherwise come with them: every constant array a replica's
plan reads — parameters, norm running stats, the *folded* conv+norm GEMM
weights — is exported **once** into a single ``multiprocessing.shared_memory``
segment, and each replica attaches zero-copy numpy views over that segment.
N replicas hold one copy of the weights between them.

The pieces:

* :meth:`PlanArena.export` (parent) — walk the model's constant arrays in a
  canonical order, copy them into one fresh segment behind a small header,
  and remember the identity of every source array.
* :meth:`PlanArena.skeleton` (parent) — pickle the model *structure* with
  every exported array replaced by a persistent-id token, so the bytes a
  replica receives carry layer metadata only, never weights.
* :func:`attach_arena` / :class:`ArenaAttachment` (child) — open the
  segment, rebuild the model from the skeleton with read-only views spliced
  in where the arrays were, and compile a private plan/executor over them.
* :meth:`PlanArena.refresh` (parent) + :meth:`ArenaAttachment.reattach`
  (child) — in-place weight reload propagation.  The repo-wide staleness
  convention is that arrays are *replaced, never mutated* (folded caches
  and :meth:`CompiledPlan.stem_signature` key on array object identity),
  and a shared segment cannot replace objects across a process
  boundary.  The segment holds TWO full constant generations: ``refresh``
  copies the new values into the *inactive* generation, flips the
  active-generation header word, and bumps the version counter — a
  transactional reload.  A replica that observes the bump rebinds **fresh
  view objects** over the newly-flipped (complete) generation, which flips
  every identity in one stroke — the folded caches recompute their sources,
  ``stem_signature`` changes, and the shared stem memo flushes itself
  through the executor's existing signature gate — and can never bind
  memory a copy is still streaming into.

Lifecycle: the parent owns the segment and holds one reference per attached
replica (:meth:`acquire` at spawn, :meth:`release` when the replica exits).
:meth:`destroy` — called at server drain — unlinks the ``/dev/shm`` entry as
soon as the last reference drops, so a drained server leaves no segment
behind; unlinking while a straggler still maps the memory is safe on POSIX
(the name disappears, the pages live until the last map closes).
"""

from __future__ import annotations

import io
import os
import pickle
import secrets
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from multiprocessing import shared_memory

from ..analysis.lockorder import named_lock
from ..nn.module import Module
from ..snn.folding import FoldedConvNorm
from ..snn.network import SpikingNetwork

__all__ = ["ArenaSpec", "PlanArena", "ArenaAttachment", "attach_arena"]

# One cache line of header: entry 0 is the weight-generation version bumped
# by PlanArena.refresh(); entry 1 is the index (0/1) of the ACTIVE constant
# generation — the segment holds two full copies of the constants and
# refresh() writes the inactive one, then flips this word.  The rest is
# reserved.
_HEADER_BYTES = 64
_ALIGNMENT = 64
# Block attributes holding FoldedConvNorm caches (see runtime.plan._Lowering).
_FOLDED_ATTRS = ("folded", "folded1", "folded2", "folded_shortcut")


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Unlink + close one segment, tolerating the benign failure modes
    (already unlinked by the owner; views still alive at interpreter GC)."""
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - double unlink race
        pass
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a leaked external view
        pass


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable description of an exported arena (ships to replicas)."""

    name: str
    size: int
    #: one (byte offset, shape, dtype string) triple per constant slot, in
    #: the canonical _constant_slots order of the exported model.  Offsets
    #: address generation 0; generation 1 lives ``generation_stride`` bytes
    #: further.
    entries: Tuple[Tuple[int, Tuple[int, ...], str], ...]
    #: pid of the exporting process — the only resource-tracker owner.
    owner_pid: int = 0
    #: byte distance between the two constant generations (0 = legacy
    #: single-generation layout: both generation indices alias the same
    #: offsets).
    generation_stride: int = 0


# --------------------------------------------------------------------------- #
# Canonical constant walk
# --------------------------------------------------------------------------- #
def _constant_slots(model: Module) -> List[Tuple[str, object, str]]:
    """Every location in ``model`` that holds a plan constant array.

    Returns ``(kind, owner, key)`` triples in a deterministic order (the
    module tree is OrderedDict-backed), *without* materializing any array —
    the same walk drives export, refresh and replica-side reattach, which is
    what keeps the three views of the arena aligned slot for slot.
    """
    slots: List[Tuple[str, object, str]] = []
    for name, parameter in model.named_parameters():
        slots.append(("param", parameter, name))
    for module_name, module in model.named_modules():
        for buffer_name in module._buffers:
            slots.append(("buffer", module, buffer_name))
    for module_name, module in model.named_modules():
        for attr in _FOLDED_ATTRS:
            folded = getattr(module, attr, None)
            if isinstance(folded, FoldedConvNorm):
                # Folded arrays are derived constants, but they are the
                # arrays the serving hot path actually reads (both the
                # Tensor path and FoldedConvNormOp); exporting them spares
                # every replica a private recomputed copy of each folded
                # conv weight.
                slots.append(("folded_weight", folded, attr))
                slots.append(("folded_bias", folded, attr))
    return slots


def _slot_array(kind: str, owner: object, key: str) -> np.ndarray:
    """The current array behind one constant slot (materializing folds)."""
    if kind == "param":
        return owner.data
    if kind == "buffer":
        return owner._buffers[key]
    weight, bias = owner.arrays()
    return weight if kind == "folded_weight" else bias


def _assign_slot(kind: str, owner: object, key: str, view: np.ndarray) -> None:
    """Rebind one constant slot to ``view`` (replica-side attach/reattach)."""
    if kind == "param":
        owner.data = view
    elif kind == "buffer":
        # Mirror register_buffer without the dtype coercion: the exported
        # array already went through the policy on the parent side, and a
        # copy here would break the zero-copy sharing.
        owner._buffers[key] = view
        object.__setattr__(owner, key, view)
    elif kind == "folded_weight":
        owner._weight = view
    else:
        owner._bias = view


# --------------------------------------------------------------------------- #
# Skeleton pickling
# --------------------------------------------------------------------------- #
class _SkeletonPickler(pickle.Pickler):
    """Pickles a model with every arena-resident array tokenized away.

    Arrays in ``drop_ids`` (gradient buffers) become ``None`` in the
    replica instead of traveling by value — replicas never train, and this
    keeps a mid-training-session export from shipping (or requiring the
    caller to clear) a full extra copy of the weights.
    """

    _DROP = "drop"

    def __init__(self, file, index_by_id: Dict[int, int], drop_ids):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._index_by_id = index_by_id
        self._drop_ids = drop_ids

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray):
            if id(obj) in self._drop_ids:
                return self._DROP
            return self._index_by_id.get(id(obj))
        return None


class _SkeletonUnpickler(pickle.Unpickler):
    def __init__(self, file, resolve: Callable[[int], np.ndarray]):
        super().__init__(file)
        self._resolve = resolve

    def persistent_load(self, token):
        if token == _SkeletonPickler._DROP:
            return None
        return self._resolve(token)


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
class PlanArena:
    """Parent-side owner of one exported constant segment.

    Construction is via :meth:`export`.  The arena remembers the *identity*
    of every source array it copied (the same convention as
    :meth:`CompiledPlan.stem_signature`), so :meth:`refresh` can detect an
    in-place weight reload — ``load_state_dict`` replaces array objects —
    and propagate exactly the slots that changed.
    """

    _sequence = 0
    _sequence_lock = named_lock("runtime.arena.sequence")

    def __init__(self, shm: shared_memory.SharedMemory, spec: ArenaSpec,
                 model: SpikingNetwork, slots, sources: List[np.ndarray]):
        self._shm = shm
        # GC parachute: an arena that is exported but never drained (a
        # Server constructed and discarded without start()) must not leak
        # its segment for the parent's lifetime.  The finalizer holds only
        # the SharedMemory handle, never self.
        self._finalizer = weakref.finalize(self, _release_segment, shm)
        self.spec = spec
        self._model_ref = weakref.ref(model)
        self._slots = slots
        # Per-generation source identities: _sources[g][i] is the model
        # array whose values generation g currently holds for slot i.  Both
        # generations start in sync at export.
        self._sources = [list(sources), list(sources)]
        self._lock = named_lock("runtime.arena")
        self._refs = 0
        self._destroy_pending = False
        self._unlinked = False
        self._header: Optional[np.ndarray] = np.ndarray(
            (_HEADER_BYTES // 8,), dtype=np.uint64, buffer=shm.buf
        )
        self._views: Optional[List[List[np.ndarray]]] = [
            [
                np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=shm.buf,
                    offset=offset + generation * spec.generation_stride,
                )
                for offset, shape, dtype in spec.entries
            ]
            for generation in (0, 1)
        ]
        self._skeleton: Optional[bytes] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def export(cls, model: SpikingNetwork) -> "PlanArena":
        """Copy every plan constant of ``model`` into a fresh shared segment.

        The model should be in eval mode with state reset (the serving
        precondition); gradient buffers are never exported — the skeleton
        drops them in transit, so replicas rebuild with ``grad=None`` while
        the caller's model keeps its own.  Folded conv+norm arrays are
        materialized (and thereby warmed) as part of the walk.
        """
        slots = _constant_slots(model)
        arrays: List[np.ndarray] = []
        entries: List[Tuple[int, Tuple[int, ...], str]] = []
        offset = _HEADER_BYTES
        index_check: Dict[int, int] = {}
        for kind, owner, key in slots:
            # Track the model's REAL array object (identity is what the
            # skeleton tokens and refresh() key on); the strided view
            # assignment below copies values correctly even if a source is
            # non-contiguous.
            array = _slot_array(kind, owner, key)
            if id(array) in index_check:
                raise ValueError(
                    "arena export found one array in two constant slots; "
                    "aliased parameters/buffers are not supported"
                )
            index_check[id(array)] = len(arrays)
            offset = _align(offset)
            entries.append((offset, tuple(array.shape), array.dtype.str))
            arrays.append(array)
            offset += array.nbytes
        with cls._sequence_lock:
            cls._sequence += 1
            sequence = cls._sequence
        name = f"repro-arena-{os.getpid()}-{sequence}-{secrets.token_hex(3)}"
        # Two full constant generations: refresh() writes the inactive one
        # and flips header[1], so replicas only ever bind a COMPLETE
        # generation — never memory a copy is still streaming into.
        stride = _align(offset - _HEADER_BYTES)
        size = max(_HEADER_BYTES + 2 * stride, _HEADER_BYTES + 1)
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        spec = ArenaSpec(name=shm.name.lstrip("/"), size=shm.size,
                         entries=tuple(entries), owner_pid=os.getpid(),
                         generation_stride=stride)
        arena = cls(shm, spec, model, slots, arrays)
        for views in arena._views:
            for view, array in zip(views, arrays):
                view[...] = array
        arena._header[0] = 1
        arena._header[1] = 0
        return arena

    # ------------------------------------------------------------------ #
    @property
    def model(self) -> Optional[SpikingNetwork]:
        return self._model_ref()

    @property
    def version(self) -> int:
        """Current weight generation (bumped by every :meth:`refresh`)."""
        header = self._header
        if header is None:
            raise RuntimeError("arena has been destroyed")
        return int(header[0])

    def skeleton(self) -> bytes:
        """The model structure with arena tokens in place of the arrays.

        Computed once and cached: the token indices stay valid across
        :meth:`refresh` (replicas read values from the segment, not from the
        pickle), so later-spawned replicas reuse the same bytes.
        """
        if self._skeleton is None:
            model = self.model
            if model is None:
                raise RuntimeError("the exported model has been garbage-collected")
            sources = self._sources[self.active_generation]
            index_by_id = {id(array): i for i, array in enumerate(sources)}
            drop_ids = {
                id(parameter.grad)
                for parameter in model.parameters()
                if parameter.grad is not None
            }
            buffer = io.BytesIO()
            _SkeletonPickler(buffer, index_by_id, drop_ids).dump(model)
            self._skeleton = buffer.getvalue()
        return self._skeleton

    @property
    def active_generation(self) -> int:
        """Index (0/1) of the constant generation replicas currently bind."""
        header = self._header
        if header is None:
            raise RuntimeError("arena has been destroyed")
        return int(header[1])

    def refresh(self) -> int:
        """Propagate replaced source arrays into the *inactive* generation.

        Re-walks the model's constant slots; if any slot's array object
        changed identity vs. the active generation (``load_state_dict`` /
        ``update_buffer`` / a fresh fold), the inactive generation is synced
        to the model's current values, the active-generation word flips, and
        the header version bumps once so attached replicas rebind.  Returns
        the number of slots that changed vs. what replicas were serving.

        The flip makes the reload transactional: replicas keep reading the
        old generation until they observe the version bump at a round
        boundary, then rebind views over the NEW generation — a complete
        copy by construction, never memory mid-write.  Callers that issue
        back-to-back refreshes must wait for replicas to rebind before the
        next call reuses the generation a straggler may still read
        (:meth:`repro.serve.replica.ReplicaPool.refresh_weights` does).
        """
        model = self.model
        if model is None:
            raise RuntimeError("the exported model has been garbage-collected")
        with self._lock:
            if self._views is None:
                raise RuntimeError("arena has been destroyed")
            active = int(self._header[1])
            target = 1 - active
            changed = sum(
                1 for index, (kind, owner, key) in enumerate(self._slots)
                if _slot_array(kind, owner, key) is not self._sources[active][index]
            )
            if changed == 0:
                return 0
            # The target generation may lag by MORE slots than just changed
            # (it missed the previous flip), so sync every slot that differs
            # from the target's own sources.  Validate the whole walk BEFORE
            # copying anything: a mid-walk mismatch must not leave a
            # half-updated generation that a later refresh could flip live.
            updates: List[Tuple[int, np.ndarray]] = []
            for index, (kind, owner, key) in enumerate(self._slots):
                array = _slot_array(kind, owner, key)
                if array is self._sources[target][index]:
                    continue
                view = self._views[target][index]
                if array.shape != view.shape or array.dtype != view.dtype:
                    raise ValueError(
                        f"arena refresh: slot {index} ({kind} {key!r}) changed "
                        f"shape/dtype {view.shape}/{view.dtype} -> "
                        f"{array.shape}/{array.dtype}; re-export instead"
                    )
                updates.append((index, array))
            for index, array in updates:
                self._views[target][index][...] = array
                self._sources[target][index] = array
            self._header[1] = target
            self._header[0] += 1
            return changed

    # ------------------------------------------------------------------ #
    # Refcounted lifecycle
    # ------------------------------------------------------------------ #
    def acquire(self) -> None:
        """Take one reference (one per spawned replica)."""
        with self._lock:
            if self._unlinked:
                raise RuntimeError("arena has been destroyed")
            self._refs += 1

    def release(self) -> None:
        """Drop one reference; unlinks if destroy() already ran."""
        with self._lock:
            self._refs = max(0, self._refs - 1)
            if self._refs == 0 and self._destroy_pending:
                self._unlink_locked()

    def destroy(self) -> None:
        """Unlink the segment as soon as the last reference is released.

        Called at server drain; idempotent.  With all replicas joined the
        refcount is already zero and the ``/dev/shm`` entry disappears here.
        """
        with self._lock:
            self._destroy_pending = True
            if self._refs == 0:
                self._unlink_locked()

    def _unlink_locked(self) -> None:
        if self._unlinked:
            return
        self._unlinked = True
        # Drop our own views before closing: numpy arrays hold buffer
        # exports that would make mmap.close() raise.
        self._views = None
        self._header = None
        self._finalizer.detach()
        _release_segment(self._shm)

    @property
    def destroyed(self) -> bool:
        with self._lock:
            return self._unlinked


# --------------------------------------------------------------------------- #
# Replica side
# --------------------------------------------------------------------------- #
def _attach(spec: ArenaSpec) -> shared_memory.SharedMemory:
    """Attach to an existing arena segment.

    Replicas are spawned by the exporting process, so every member of the
    family talks to the *same* ``multiprocessing.resource_tracker`` process
    (its fd travels in the spawn preparation data).  The attach-side
    ``register`` the stdlib performs is therefore a set no-op against the
    creator's registration, and nobody may ``unregister`` here: that would
    cancel the creator's entry and make the eventual unlink trip the
    tracker.  The one registration is also the crash parachute — if the
    whole family dies without draining, the tracker unlinks the segment at
    family exit instead of leaking ``/dev/shm``.
    """
    return shared_memory.SharedMemory(name=spec.name)


class ArenaAttachment:
    """Replica-side handle: the rebuilt model plus the rebind machinery."""

    def __init__(self, spec: ArenaSpec, skeleton: bytes):
        self.spec = spec
        self._skeleton = skeleton
        self._shm = _attach(spec)
        self._header = np.ndarray(
            (_HEADER_BYTES // 8,), dtype=np.uint64, buffer=self._shm.buf
        )
        self.model: Optional[SpikingNetwork] = None
        self._slots = None
        self._version_seen = 0

    # ------------------------------------------------------------------ #
    def _view(self, index: int, generation: int) -> np.ndarray:
        """A fresh read-only view over entry ``index`` of ``generation``
        (fresh object = fresh identity, which is exactly what reattach
        relies on)."""
        offset, shape, dtype = self.spec.entries[index]
        offset += generation * self.spec.generation_stride
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._shm.buf,
                          offset=offset)
        view.flags.writeable = False
        return view

    def load_model(self) -> SpikingNetwork:
        """Rebuild the model with arena views in place of every constant.

        The skeleton's persistent tokens resolve through a per-load memo, so
        an array referenced from several places (a parameter and a folded
        cache's source tuple) resolves to *one* view object and every
        identity-keyed cache in the rebuilt model starts out coherent.
        """
        # Version before generation: if a flip lands between the two reads
        # we bind the NEW (complete) generation under the old version and
        # the next stale() poll triggers a harmless extra rebind.
        self._version_seen = int(self._header[0])
        generation = int(self._header[1])
        memo: Dict[int, np.ndarray] = {}

        def resolve(index: int) -> np.ndarray:
            if index not in memo:
                memo[index] = self._view(index, generation)
            return memo[index]

        model = _SkeletonUnpickler(io.BytesIO(self._skeleton), resolve).load()
        self.model = model
        self._slots = _constant_slots(model)
        if len(self._slots) != len(self.spec.entries):
            raise RuntimeError(
                f"arena attach: model walk found {len(self._slots)} constant "
                f"slots but the spec exports {len(self.spec.entries)} — "
                "parent and replica disagree on the model structure"
            )
        return model

    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        return int(self._header[0])

    @property
    def generation(self) -> int:
        """The active-generation word (0/1) as the parent last flipped it."""
        return int(self._header[1])

    def stale(self) -> bool:
        """True when the parent refreshed the arena since our last (re)bind."""
        return self.version != self._version_seen

    def reattach(self) -> None:
        """Rebind fresh view objects after a parent-side :meth:`refresh`.

        The refresh wrote the *other* generation and flipped the header, so
        rebinding serves two purposes at once: the fresh views point at the
        newly-flipped (complete) generation, and the new object identities
        invalidate the folded caches and change
        :meth:`CompiledPlan.stem_signature`, so the shared stem memo and the
        executor's aligned stem rows computed under the old weights can
        never be served again.
        """
        if self.model is None:
            raise RuntimeError("load_model() before reattach()")
        # Read the version before the generation (mirroring load_model): a
        # refresh landing mid-rebind leaves us stale and the next poll
        # rebinds again.
        self._version_seen = self.version
        generation = self.generation
        folded: List[FoldedConvNorm] = []
        for index, (kind, owner, key) in enumerate(self._slots):
            _assign_slot(kind, owner, key, self._view(index, generation))
            if kind == "folded_weight":
                folded.append(owner)
        # Seed the folded caches *after* all sources were rebound, so their
        # remembered source identities match the new views and arrays()
        # serves the arena copies instead of recomputing private ones.
        for fold in folded:
            fold._sources = fold._array_sources()

    def close(self) -> None:
        """Release the mapping (the model's views die with the process)."""
        self._header = None
        try:
            self._shm.close()
        except BufferError:
            # Model views still alive — the OS reclaims the mapping at
            # process exit; never let cleanup mask a real error path.
            pass


def attach_arena(spec: ArenaSpec, skeleton: bytes) -> ArenaAttachment:
    """Open an exported arena and rebuild its model (replica entry point)."""
    attachment = ArenaAttachment(spec, skeleton)
    attachment.load_model()
    return attachment
