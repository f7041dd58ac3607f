"""Stateful executor for a :class:`~repro.runtime.plan.CompiledPlan`.

One executor is one *inference session*: it owns the per-LIF membrane state,
the stem cache, and every op's scratch buffers.  The state-surgery API
(``compact_rows`` / ``extend_rows`` / ``reset_rows``) mirrors
:class:`~repro.snn.SpikingNetwork` row for row, so the serving engine and the
dynamic-timestep loop drive the fast path exactly the way they drove the
Tensor model — the membrane rows of the plan and the slots of the batcher
stay in lockstep.  The offline loop compacts at every exit; the serving
engine leaves a retired row where it is and hands it back through
``extend_rows(..., recycle=rows)`` — ``reset_rows`` zeroes its membranes, the
newcomer's stem row is written over the old one — and calls ``compact_rows``
only for rows no admission took.

Scratch buffers, membranes and aligned stem rows live in one capacity
buffer each, sized to the widest batch the session has run (a serving
engine's ``batch_width``), and are reused across timesteps, requests and the
whole serve session: the rows are the leading rows, admission zeroes / fills
the rows it recycles and the ones it appends behind them, and compaction
moves the survivors forward in place, so the turnover and the width changes
of continuous batching allocate nothing.  A
membrane lives in its LIF op's scratch (the op rewrites it every step); the
aligned stem rows live in buffers the executor owns, because no op rewrites
them.  Like every register an op writes, membranes, aligned stem rows and
the keyed memo's rows are channels-last ``(N, H, W, C)``; only the request
frame is channels-first, and ops read it through a channels-last view.
Because every kernel is bitwise-faithful to its autograd counterpart (see
:mod:`repro.runtime.kernels`), an executor's logits are *identical* to the
define-by-run path's logits, not merely close — which is what the
equivalence test harness asserts.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.validation import env_flag
from .kernels import Scratch, channels_last
from .plan import CompiledPlan, PlanOp, StemCache

__all__ = ["PlanExecutor"]


def _trace_ops_enabled() -> bool:
    """``REPRO_TRACE_OPS=1`` turns on per-op wall-clock timing.

    Read at executor construction (like ``REPRO_RUNTIME``): the executor
    then puts a :class:`_TimedOp` in each op's place, so the default-off
    cost is nothing at all.
    """
    return env_flag("REPRO_TRACE_OPS", False)


class _TimedOp:
    """Stands in for one plan op under ``REPRO_TRACE_OPS=1``: same ``run``,
    timed into the executor's per-op totals."""

    __slots__ = ("op", "index", "seconds", "calls")

    def __init__(self, op: PlanOp, index: int, seconds: List[float], calls: List[int]):
        self.op = op
        self.index = index
        self.seconds = seconds
        self.calls = calls

    def run(self, regs, scratch, state, stats) -> None:
        began = time.perf_counter()
        self.op.run(regs, scratch, state, stats)
        self.seconds[self.index] += time.perf_counter() - began
        self.calls[self.index] += 1


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
        Tensor path does (the IMC energy model reads them).  Serving
        engines always disable it: the counters are plain Python floats on
        LIF modules that worker threads share, and would race.
    stem_memo:
        Optional content-keyed :class:`~repro.runtime.plan.StemCache` for
        time-varying deterministic encoders (event streams): callers pass
        per-row frame keys to :meth:`step` and recurring frames (replayed
        DVS clips) skip the stem.  Mutually exclusive with ``stem_cache``.

    Dtype guarantees
    ----------------
    The stack is weak-scalar float32 (docs/NUMERICS.md): every array an
    executor owns — registers, scratch buffers, membranes, stem rows,
    returned logits — is float32 (boolean fire/relu masks aside), and the
    results are bitwise-identical to the define-by-run Tensor oracle
    (``use_runtime=False`` / ``REPRO_RUNTIME=0``), which remains available
    everywhere as the reference.
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
        # exactly ``_rows`` rows and is the leading-row view of a capacity
        # buffer: the membrane role of its LIF op's scratch, or this
        # executor's own ``_row_scratch`` for the aligned stem registers.
        self._rows = 0
        self._membranes: List[Optional[np.ndarray]] = [None] * plan.num_lif
        self._stem: Optional[Dict[int, np.ndarray]] = None
        self._registers: List[Optional[np.ndarray]] = [None] * plan.num_registers
        self._scratch: List[Scratch] = [Scratch() for _ in plan.ops]
        # Register rows no op owns, one role per register: the aligned stem
        # rows (direct encoding) or a memo round's assembled registers
        # (event streams) — the two stem strategies exclude each other.
        self._row_scratch = Scratch()
        self._lif_scratch: Dict[int, Scratch] = {
            op.state_index: scratch
            for op, scratch in zip(plan.ops, self._scratch) if op.is_stateful
        }
        # Whether an op beyond the stem reads the input frame itself: then
        # a cached stem does not make the frame optional.
        self._frame_live = any(
            0 in op.reads for op in plan.ops[plan.stem_len:]
        )
        self.trace_ops = _trace_ops_enabled()
        self._op_seconds = [0.0] * len(plan.ops)
        self._op_calls = [0] * len(plan.ops)
        ops: Sequence = plan.ops
        if self.trace_ops:
            ops = [_TimedOp(op, index, self._op_seconds, self._op_calls)
                   for index, op in enumerate(plan.ops)]
        # The step program: (op, its scratch) in execution order, split
        # where a cached stem lets a step start.
        program = list(zip(ops, self._scratch))
        self._stem_program = program[: plan.stem_len]
        self._body_program = program[plan.stem_len:]

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

    def extend_rows(self, count: int, frames: Optional[np.ndarray] = None,
                    recycle: Optional[np.ndarray] = None) -> None:
        """Admit ``count`` fresh rows (newly admitted samples).

        The first ``len(recycle)`` of them take the free rows ``recycle``
        names (ascending indices below the current width, whose samples left
        the batch and were not compacted out): their membranes are zeroed in
        place through :meth:`reset_rows`.  The rest are appended behind the
        last row.  Membrane rows start at zero; a ``None`` membrane stays
        ``None`` (the ``None == fresh`` identity: it only materializes on the
        first integration, exactly like :meth:`LIFNeuron.extend_state_rows`).
        When the stem cache is active, ``frames`` must hold the new samples'
        encoder frames, in admission order: their stem rows are computed
        once, here, and written at the same rows.  Omitting it — or admitting
        into rows whose stem was invalidated, recycled rows included — leaves
        the cache empty, which is safe but costs one full-width stem run at
        the next step (which then needs the frame, see :attr:`needs_frame`).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        reused = 0 if recycle is None else len(recycle)
        live = self._rows
        self._rows = live + count - reused
        if reused:
            self.reset_rows(recycle)
        if count > reused:
            for index, membrane in enumerate(self._membranes):
                if membrane is not None:
                    membrane = self._membranes[index] = self._lif_scratch[index].grown(
                        "membrane", membrane, count - reused
                    )
                    membrane[live:] = 0
        if not self.stem_enabled:
            return
        if frames is None or frames.shape[0] != count or (self._stem is None and live):
            self._stem = None
            return
        fresh = self._run_stem(frames)
        if reused:
            for reg, value in fresh.items():
                self._stem[reg][recycle] = value[:reused]
        if count > reused:
            self._append_stem(
                {reg: value[reused:] for reg, value in fresh.items()}, live
            )

    def reset_rows(self, rows: np.ndarray) -> None:
        """Zero the membranes of specific batch rows (recycled slots: the
        recycle arm of :meth:`extend_rows`)."""
        for membrane in self._membranes:
            if membrane is not None:
                membrane[rows] = 0.0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run(self, program: Sequence[Tuple[PlanOp, Scratch]],
             registers: List[Optional[np.ndarray]]) -> None:
        """The one op loop: every op of ``program``, once, in order."""
        state, stats = self._membranes, self.collect_statistics
        for op, scratch in program:
            op.run(registers, scratch, state, stats)

    def _run_stem(self, frame: np.ndarray) -> Dict[int, np.ndarray]:
        """Run the stateless prefix on ``frame``; return the live registers.

        The returned arrays alias the stem ops' scratch: they are valid
        until the stem next runs, at any width.
        """
        plan = self.plan
        registers: List[Optional[np.ndarray]] = [None] * plan.num_registers
        registers[0] = channels_last(frame)
        self._run(self._stem_program, registers)
        return {reg: registers[reg] for reg in plan.stem_registers}

    def _append_stem(self, fresh: Dict[int, np.ndarray], live: int) -> None:
        """Copy ``fresh`` stem rows in behind the ``live`` aligned ones."""
        stem = self._stem if live else {}
        for reg, value in fresh.items():
            if live:
                rows = self._row_scratch.grown(reg, stem[reg], value.shape[0])
            else:
                rows = self._row_scratch.rows(
                    reg, value.shape[0], value.shape[1:], value.dtype
                )
            rows[live:] = value
            stem[reg] = rows
        self._stem = stem

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
            fresh = self._run_stem(frame if cold else frame[miss_rows])
            self._memo.store_many([
                (keys[i], tuple(fresh[reg][j].copy() for reg in plan.stem_registers))
                for j, i in enumerate(miss_rows)
            ], signature=signature)
            if cold:
                return fresh
        assembled: Dict[int, np.ndarray] = {}
        for position, reg in enumerate(plan.stem_registers):
            template = next(entry for entry in cached if entry is not None)[position]
            out = self._row_scratch.rows(reg, rows, template.shape, template.dtype)
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
        registers[0] = None if frame is None else channels_last(frame)
        if self.stem_enabled:
            if self._stem is None:
                self._append_stem(self._run_stem(frame), 0)
            for reg, value in self._stem.items():
                registers[reg] = value
        elif self._memo is not None and stem_keys is not None:
            for reg, value in self._memo_stem(frame, stem_keys).items():
                registers[reg] = value
        else:
            self._run(self._stem_program, registers)
        self._run(self._body_program, registers)
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
