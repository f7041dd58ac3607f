"""Stateful executor for a :class:`~repro.runtime.plan.CompiledPlan`.

One executor is one *inference session*: it owns the per-LIF membrane state,
the stem cache, and every op's scratch buffers.  The state-surgery API
(``compact_rows`` / ``extend_rows`` / ``reset_rows``) mirrors
:class:`~repro.snn.SpikingNetwork` row for row, so the serving engine and the
dynamic-timestep loop drive the fast path exactly the way they drove the
Tensor model — the membrane rows of the plan and the slots of the batcher
stay in lockstep.

Scratch buffers, membranes and aligned stem rows live in one buffer each,
sized to the widest batch the session has run (a serving engine's
``batch_width``), and are reused across timesteps, requests and the whole
serve session: the live rows are the leading rows, compaction moves the
survivors forward in place and admission zeroes / fills the rows behind
them, so the width changes of continuous batching allocate nothing.
Because every kernel is bitwise-faithful to its autograd counterpart
(see :mod:`repro.runtime.kernels`), an executor's logits are *identical* to
the define-by-run path's logits, not merely close — which is what the
equivalence test harness asserts.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from .kernels import ensure_buffer
from .plan import CompiledPlan, StemCache

__all__ = ["PlanExecutor"]


def _with_room(rows: np.ndarray, count: int) -> np.ndarray:
    """``rows`` followed by ``count`` uninitialized rows.

    In place whenever ``rows`` is the leading view of a buffer with room —
    the steady state of a serving session, whose buffers were sized by its
    widest batch; otherwise a grown copy, which becomes the new buffer.
    Executor row state is only ever an owning array or such a leading view
    (kernel scratch hands out ``buffer[:n]``, compaction keeps ``rows[:k]``),
    which is what makes ``rows.base`` the buffer to grow into.
    """
    live = rows.shape[0]
    buffer = rows.base
    if (
        not isinstance(buffer, np.ndarray)
        or buffer.shape[0] < live + count
        or buffer.shape[1:] != rows.shape[1:]
        or buffer.dtype != rows.dtype
    ):
        buffer = np.empty((live + count,) + rows.shape[1:], dtype=rows.dtype)
        buffer[:live] = rows
    return buffer[: live + count]


def _trace_ops_enabled() -> bool:
    """``REPRO_TRACE_OPS=1`` turns on per-op wall-clock timing.

    Read at executor construction (like ``REPRO_RUNTIME``/``REPRO_FLOAT64``):
    the hot loop then branches on a bound attribute, so the default-off cost
    is one attribute check per step, not an environment lookup per op.
    """
    return os.environ.get("REPRO_TRACE_OPS", "").strip() in {"1", "true", "yes"}


class PlanExecutor:
    """Runs a compiled plan one timestep at a time with persistent state.

    Parameters
    ----------
    plan:
        The lowered network.  Plans are immutable and may be *shared*: N
        executors (e.g. multi-worker serve replicas of one model) can run
        the same plan concurrently, because everything mutable — membranes,
        scratch, registers, the aligned stem rows, the statistics toggle —
        lives on the executor.
    stem_cache:
        Enable the *aligned* cache of the stateless pre-spike prefix: one
        stem row per live batch row, replayed every timestep.  Only valid
        when the per-timestep input frame is constant for each sample
        (direct encoding); the caller is responsible for that guarantee.
    collect_statistics:
        Update each source LIF layer's spike counters exactly like the
        Tensor path does (the IMC energy model reads them).  Disable when
        several executors share one model's LIF modules across threads —
        the counters are plain Python floats and would race.
    stem_memo:
        Optional content-keyed :class:`~repro.runtime.plan.StemCache` for
        time-varying deterministic encoders (event streams): callers pass
        per-row frame keys to :meth:`step` and recurring frames (replayed
        DVS clips) skip the stem.  Mutually exclusive with ``stem_cache``.

    Dtype guarantees
    ----------------
    Under the default weak-scalar float32 policy (docs/NUMERICS.md) every
    array an executor owns — registers, scratch buffers, membranes, stem
    rows, returned logits — is float32 (boolean fire/relu masks aside), and
    the results are bitwise-identical to the define-by-run Tensor oracle
    (``use_runtime=False`` / ``REPRO_RUNTIME=0``), which remains available
    everywhere as the reference.  Under ``REPRO_FLOAT64=1`` the same
    bitwise contract holds against the legacy float64-promoting Tensor
    path.  Executors are mode-bound at construction: flip the flag, then
    build a fresh executor (``plan_for`` recompiles automatically).
    """

    def __init__(self, plan: CompiledPlan, stem_cache: bool = False,
                 collect_statistics: bool = True,
                 stem_memo: Optional[StemCache] = None):
        self.plan = plan
        self.stem_enabled = bool(stem_cache) and plan.stem_len > 0
        self.collect_statistics = bool(collect_statistics)
        if self.stem_enabled and stem_memo is not None:
            raise ValueError(
                "stem_cache (aligned, direct encoding) and stem_memo (keyed, "
                "event streams) are mutually exclusive stem strategies"
            )
        self._memo = stem_memo if plan.stem_len > 0 else None
        # Row state.  Every non-None membrane / aligned stem array has
        # exactly ``_rows`` rows and is either an owning array or the
        # leading-row view of its capacity buffer (see _with_room).
        self._rows = 0
        self._membranes: List[Optional[np.ndarray]] = [None] * plan.num_lif
        self._stem: Optional[Dict[int, np.ndarray]] = None
        self._registers: List[Optional[np.ndarray]] = [None] * plan.num_registers
        self._scratch: List[Dict[str, np.ndarray]] = [dict() for _ in plan.ops]
        # A second scratch set for stem runs beside the live batch (the
        # rows of an admission round, a memo round's misses): reused like
        # the main one, and never aliased by the aligned stem rows.
        self._side_scratch: List[Dict[str, np.ndarray]] = [
            dict() for _ in range(plan.stem_len)
        ]
        self._memo_scratch: Dict[str, np.ndarray] = {}
        # Whether an op beyond the stem reads the input frame itself: then
        # a cached stem does not make the frame optional.
        self._frame_live = any(
            0 in op.reads for op in plan.ops[plan.stem_len:]
        )
        self.trace_ops = _trace_ops_enabled()
        self._op_seconds = [0.0] * len(plan.ops)
        self._op_calls = [0] * len(plan.ops)

    # ------------------------------------------------------------------ #
    @property
    def memo_enabled(self) -> bool:
        """True when a content-keyed stem memo is attached (event streams)."""
        return self._memo is not None

    @property
    def stem_memo(self) -> Optional[StemCache]:
        return self._memo

    # ------------------------------------------------------------------ #
    # State management (mirrors SpikingNetwork's per-row surgery)
    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        """Fresh membranes and an empty aligned stem (between sample streams).

        The content-keyed stem memo is deliberately *not* cleared: its
        entries are pure functions of the plan's frozen weights and the
        frame bytes, so they stay valid across sessions, aborted replicas
        and server restarts — clearing it would only forfeit replay hits.
        """
        self._rows = 0
        self._membranes = [None] * self.plan.num_lif
        self._stem = None

    def invalidate_stem(self) -> None:
        """Drop the aligned stem rows without touching membrane state.

        Called after an in-place weight reload lands on a live executor (a
        replica rebinding arena views): the cached rows were computed under
        the old weights and must be recomputed at the next step, while the
        in-flight membrane trajectories continue.  The content-keyed memo
        needs no call here — it revalidates against the plan's
        ``stem_signature`` on every lookup round.
        """
        self._stem = None

    def compact_rows(self, keep: np.ndarray) -> None:
        """Drop the state rows of samples that left the batch (early exit).

        ``keep`` is a boolean mask over the live rows.  The survivors move
        to the front of their buffers in place, order preserved.
        """
        kept = np.asarray(keep, dtype=bool).nonzero()[0]
        self._rows = kept.size

        def compacted(rows: np.ndarray) -> np.ndarray:
            rows[: kept.size] = rows[kept]
            return rows[: kept.size]

        self._membranes = [
            None if membrane is None else compacted(membrane)
            for membrane in self._membranes
        ]
        if self._stem is not None:
            self._stem = {reg: compacted(value) for reg, value in self._stem.items()}

    def extend_rows(self, count: int, frames: Optional[np.ndarray] = None) -> None:
        """Append ``count`` fresh rows (newly admitted samples).

        Membrane rows start at zero; a ``None`` membrane stays ``None`` (the
        ``None == fresh`` identity: it only materializes on the first
        integration, exactly like :meth:`LIFNeuron.extend_state_rows`).  When
        the stem cache is active, ``frames`` must hold the new samples'
        encoder frames: their stem rows are computed once, here, and written
        behind the live ones.  Omitting it — or extending live rows whose
        stem was invalidated — leaves the cache empty, which is safe but
        costs one full-width stem run at the next step (which then needs
        the frame, see :attr:`needs_frame`).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        live = self._rows
        self._rows = live + count
        for index, membrane in enumerate(self._membranes):
            if membrane is not None:
                membrane = self._membranes[index] = _with_room(membrane, count)
                membrane[live:] = 0
        if not self.stem_enabled:
            return
        if frames is None or frames.shape[0] != count or (self._stem is None and live):
            self._stem = None
            return
        fresh = self._run_stem(frames, self._side_scratch)
        if self._stem is None:
            # Nothing live: the round's rows are the whole aligned stem
            # (copied out of the side scratch the next round reuses).
            self._stem = {reg: value.copy() for reg, value in fresh.items()}
            return
        for reg, value in fresh.items():
            rows = self._stem[reg] = _with_room(self._stem[reg], count)
            rows[live:] = value

    def reset_rows(self, rows: np.ndarray) -> None:
        """Zero the membranes of specific batch rows (recycled slots)."""
        for membrane in self._membranes:
            if membrane is not None:
                membrane[rows] = 0.0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run_stem(self, frame: np.ndarray,
                  scratch: List[Dict[str, np.ndarray]]) -> Dict[int, np.ndarray]:
        """Run the stateless prefix on ``frame``; return the live registers.

        ``scratch`` is the per-op buffer set to run in: the main one for a
        full-width run, ``_side_scratch`` for rows computed beside the live
        batch.  The returned arrays alias it.
        """
        plan = self.plan
        registers: List[Optional[np.ndarray]] = [None] * plan.num_registers
        registers[0] = frame
        if self.trace_ops:
            timer = time.perf_counter
            for index in range(plan.stem_len):
                began = timer()
                plan.ops[index].run(registers, scratch[index],
                                    self._membranes, self.collect_statistics)
                self._op_seconds[index] += timer() - began
                self._op_calls[index] += 1
        else:
            for index in range(plan.stem_len):
                plan.ops[index].run(registers, scratch[index],
                                    self._membranes, self.collect_statistics)
        return {reg: registers[reg] for reg in plan.stem_registers}

    def _memo_stem(self, frame: np.ndarray, keys: Sequence[bytes]) -> Dict[int, np.ndarray]:
        """Resolve the stem registers for ``frame`` through the keyed memo.

        Rows whose key is cached are restored without running the stem; the
        misses run through the stem in **one** batched pass and are inserted.
        All memo bookkeeping for the round happens under two lock
        acquisitions (one batched lookup incl. the weight-signature check,
        one batched store), not one per row — this sits on the per-timestep
        serving hot path under N worker threads.

        The memo keeps *owned copies* of the rows it stores: a row view
        would pin the whole miss batch it was computed in for as long as
        the row stays hot, so resident memory would follow the traffic mix
        instead of the memo's capacity.

        The cache leans on the same per-sample batch invariance contract as
        the rest of the serving layer: a stem computed at miss-subset width
        must equal one computed at full batch width, exactly like compaction
        (``PR 2``'s width-changing splices) already requires — and
        ``tests/equivalence`` enforces — for every post-stem op.  Key
        aliasing is the caller's contract: the serving engine interns
        128-bit clip digests plus the encoder's recorded-frame index
        (~2^-64 collision probability; see
        :meth:`repro.serve.InferenceEngine._intern_stem_key`).
        """
        plan = self.plan
        rows = frame.shape[0]
        if len(keys) != rows:
            raise ValueError(
                f"stem_keys length {len(keys)} does not match batch width {rows}"
            )
        # The signature check flushes the memo if any stem source array was
        # replaced since the entries were cached (in-place weight reload on
        # a live plan) — frame keys alone cannot see that.  The same
        # signature gates the stores below: rows computed under it are
        # dropped if another thread's reload flushes the cache in between.
        signature = plan.stem_signature()
        cached = self._memo.lookup_many(keys, signature=signature)
        miss_rows = [i for i, entry in enumerate(cached) if entry is None]
        if not miss_rows:
            fresh = None
        else:
            cold = len(miss_rows) == rows
            fresh = self._run_stem(frame if cold else frame[miss_rows],
                                   self._side_scratch)
            self._memo.store_many([
                (keys[i], tuple(fresh[reg][j].copy() for reg in plan.stem_registers))
                for j, i in enumerate(miss_rows)
            ], signature=signature)
            if cold:
                return fresh
        assembled: Dict[int, np.ndarray] = {}
        for position, reg in enumerate(plan.stem_registers):
            template = next(entry for entry in cached if entry is not None)[position]
            out = ensure_buffer(self._memo_scratch, str(reg),
                                (rows,) + template.shape, template.dtype)
            if fresh is not None:
                out[miss_rows] = fresh[reg]
            for i, entry in enumerate(cached):
                if entry is not None:
                    out[i] = entry[position]
            assembled[reg] = out
        return assembled

    @property
    def needs_frame(self) -> bool:
        """Whether the next :meth:`step` must be handed the encoder frame.

        False only while the aligned stem rows cover every live row and no
        op beyond the stem reads the frame itself: then a direct-encoding
        caller can skip gathering its inputs altogether.
        """
        return self._frame_live or not self.stem_enabled or self._stem is None

    def step(self, frame: Optional[np.ndarray],
             stem_keys: Optional[Sequence[bytes]] = None) -> np.ndarray:
        """Advance one timestep; returns the classifier logits.

        ``frame`` may be ``None`` when :attr:`needs_frame` is false.
        ``stem_keys`` (one key per batch row) routes the stateless prefix
        through the content-keyed stem memo when one is attached — the
        event-stream counterpart of the aligned direct-encoding cache.  The
        returned array is freshly allocated each call (safe to alias across
        timesteps — callers build running sums from it).  Intermediate
        activations live in reused scratch buffers and are only valid until
        the next call.
        """
        plan = self.plan
        model = plan.model
        if model is not None and model.training:
            raise RuntimeError(
                "the compiled plan is inference-only; call model.eval() first "
                "(training-mode BatchNorm/Dropout need the autograd path)"
            )
        if frame is None:
            if self.needs_frame:
                raise ValueError(
                    "step() needs the encoder frame: no aligned stem rows "
                    "cover the live batch"
                )
        elif frame.shape[0] != self._rows:
            # The caller changed the batch without row surgery: stale state
            # of another width is fresh state (LIFNeuron's own rule).
            self.reset_state()
            self._rows = frame.shape[0]
        registers = self._registers
        registers[0] = frame
        start = 0
        if self.stem_enabled:
            if self._stem is None:
                self._stem = self._run_stem(frame, self._scratch)
            for reg, value in self._stem.items():
                registers[reg] = value
            start = plan.stem_len
        elif self._memo is not None and stem_keys is not None:
            for reg, value in self._memo_stem(frame, stem_keys).items():
                registers[reg] = value
            start = plan.stem_len
        if self.trace_ops:
            timer = time.perf_counter
            seconds, calls = self._op_seconds, self._op_calls
            for index in range(start, len(plan.ops)):
                began = timer()
                plan.ops[index].run(registers, self._scratch[index],
                                    self._membranes, self.collect_statistics)
                seconds[index] += timer() - began
                calls[index] += 1
        else:
            for index in range(start, len(plan.ops)):
                plan.ops[index].run(registers, self._scratch[index],
                                    self._membranes, self.collect_statistics)
        output = registers[plan.output_register]
        # Uphold the freshness contract when the producing op hands back
        # reused scratch (anything but a Linear head): the next step() would
        # otherwise overwrite the caller's running sum in place.
        return output.copy() if plan.output_needs_copy else output

    # ------------------------------------------------------------------ #
    def op_timings(self) -> List[Dict[str, object]]:
        """Accumulated per-op wall-clock profile (``REPRO_TRACE_OPS=1``).

        One entry per plan op, in execution order: op index, the op's class
        name, call count and total seconds.  All zeros when tracing is off —
        callers can tell from :attr:`trace_ops`.  The profile accumulates
        over the executor's lifetime (the whole serve session), which is the
        useful granularity for a breakdown report; it is cheap to reset by
        building a fresh executor.
        """
        return [
            {
                "index": index,
                "op": type(op).__name__,
                "calls": self._op_calls[index],
                "seconds": self._op_seconds[index],
            }
            for index, op in enumerate(self.plan.ops)
        ]

    # ------------------------------------------------------------------ #
    @property
    def batch_rows(self) -> Optional[int]:
        """Current state width, or ``None`` when no state has materialized."""
        return self._rows or None
