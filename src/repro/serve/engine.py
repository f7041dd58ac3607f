"""Synchronous slot-based inference engine over a :class:`SpikingNetwork`.

The engine owns a variable set of *slots*, one in-flight request each.  A call
to :meth:`step` advances every occupied slot by one timestep of the SNN in a
single batched forward pass, applies the exit policy per slot, and returns the
slots that finished.  Because each slot carries its own local timestep counter
and running logit sum — and every LIF membrane row belongs to exactly one
slot — requests can be admitted *mid-horizon* into slots freed by early exits
(continuous batching) and each sample's trajectory is bitwise identical to
running it alone (see :meth:`repro.core.DynamicTimestepInference.infer_from_logits`).
That identity requires a *deterministic* encoder (direct or event-frame, the
paper's settings); a stochastic encoder such as Poisson rate coding draws
from a shared RNG, so its spike trains inherently depend on batch composition.

An exited sample's row stays where it is, *free*: the next
:meth:`admit_batch` writes its newcomers into the free rows and :meth:`step`
first compacts out whatever nobody took.  So the forward width always equals
the number of live requests — early exit buys back real FLOPs, which is what
the serving layer converts into throughput — and under closed-loop traffic,
where every freed row is refilled before the next step, no survivor moves.

By default each step executes through the :mod:`repro.runtime` compiled plan
(graph-free fused kernels, per-slot stem cache) when the model lowers; the
define-by-run Tensor path remains available as the bitwise-identical
reference oracle via ``use_runtime=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.planverify import verify_plan
from ..autograd import Tensor, no_grad
from ..core.policies import ExitPolicy
from ..runtime import executor_for, plan_for
from ..snn.encoding import DirectEncoder
from ..snn.network import SpikingNetwork
from .request import Request, Response

__all__ = ["AdmissionRejectedError", "CompletedSample", "InferenceEngine"]


class AdmissionRejectedError(RuntimeError):
    """A whole admission round was rejected *before any state mutation*.

    Raised by :meth:`InferenceEngine.admit_batch` when validation fails
    (shape mismatch against the live batch, encoder precondition).  The
    engine's state is untouched (no slots, no membrane rows) and so is every
    future in the round: the caller fails them — the
    :class:`~repro.serve.ContinuousBatcher` through
    :func:`~repro.serve.batcher.fail_round`, then keeps serving instead of
    fail-stopping the worker.  The original error is chained as
    ``__cause__``.
    """


@dataclass(slots=True)
class CompletedSample:
    """A request that satisfied the exit policy (or hit the horizon).

    ``threshold`` is the *effective* threshold the exit decision used — the
    request's stamped epoch when it carries one, the live policy knob
    otherwise — so the recorded value is provably the deciding one (the PR 5
    torn-read fix).  ``epoch``/``brownout`` echo the stamp; ``horizon`` is
    the effective timestep cap the slot ran under.  ``finish_time`` is set
    only for a sample retired on another process's clock (the replica
    collector builds those): only its service *duration* is meaningful, and
    the completion sink rebases it onto the server's clock.
    """

    request: Request
    response: Response
    prediction: int
    exit_timestep: int
    score: float
    threshold: Optional[float]
    start_time: float
    epoch: Optional[int] = None
    brownout: bool = False
    horizon: Optional[int] = None
    finish_time: Optional[float] = None


@dataclass(slots=True)
class _Slot:
    """The per-request objects of one slot; its numeric state lives in the
    engine's row arrays at the slot's index."""

    request: Request
    response: Response
    start_time: float
    # Interned stem-memo key prefix: the clip's content digest, computed
    # once at admission (see _intern_stem_key).  None when the engine does
    # not intern (no memo, or the encoder lacks a frame_index rule).
    stem_key: Optional[bytes] = None


class InferenceEngine:
    """Batched dynamic-timestep inference with per-slot state management."""

    def __init__(
        self,
        model: SpikingNetwork,
        policy: ExitPolicy,
        max_timesteps: Optional[int] = None,
        use_runtime: bool = True,
    ):
        if max_timesteps is None:
            max_timesteps = model.default_timesteps
        if max_timesteps < 1:
            raise ValueError("max_timesteps must be a positive integer")
        self.model = model
        self.policy = policy
        self.max_timesteps = int(max_timesteps)
        model.eval()
        model.reset_state()
        # The compiled-plan fast path (bitwise identical to the Tensor path);
        # None means the model did not lower or the runtime is disabled, in
        # which case every step runs through the define-by-run oracle.
        # Serving never counts spikes: the counters live on the model's LIF
        # modules, which worker threads share and offline callers
        # (``spike_statistics()``, ``IMCChip.from_network``) read.
        self._executor = executor_for(model, use_runtime, collect_statistics=False)
        # Stem-memo keys are interned at admission: one content digest per
        # request, combined with the encoder's frame_index per timestep.
        # Needs the encoder to expose its timestep -> recorded-frame rule;
        # an encoder without one simply runs its stem every step.
        self._intern_keys = (
            self._executor is not None
            and self._executor.memo_enabled
            and hasattr(model.encoder, "frame_index")
        )
        self._slots: List[Optional[_Slot]] = []
        # Rows whose request retired and nobody has taken yet, ascending:
        # the next admit_batch writes its newcomers into them, and step()
        # compacts out whatever is still free when it starts.
        self._free: List[int] = []
        # Array-resident slot state: row i belongs to self._slots[i] (None
        # while the row is free), the rows are the leading ones, and the
        # arrays only ever grow to the widest batch admitted (the batcher's
        # batch_width).  Written at admission and compaction — exactly how
        # the executor treats its membranes — so step(), which only ever
        # sees closed rows, reads them without a per-slot Python loop.
        # _local_t: timesteps consumed; _stamped: the epoch-pinned
        # threshold, NaN where the slot follows the live policy knob;
        # _horizons: the effective timestep cap.
        self._local_t = np.zeros(0, dtype=np.int64)
        self._stamped = np.zeros(0, dtype=np.float64)  # dtype-ok: thresholds are decision-side float64, like the scores they are compared with
        self._horizons = np.zeros(0, dtype=np.int64)
        # Pinned on the first successful admission: the engine serves one
        # model with one sample shape for its lifetime, and validating
        # against the pin (not just the live batch) is what keeps a
        # wrong-shaped request arriving at an IDLE engine inside the typed
        # rejection path — the executor still holds residual stem/scratch
        # arrays of the real shape, and a mismatch would otherwise escape
        # admit_batch's guard and take down the whole worker.
        self._sample_shape: Optional[Tuple[int, ...]] = None
        # Admission frame buffer (aligned-stem path): a round's inputs are
        # copied straight into it, cast to float32 on the way.
        self._frames: Optional[np.ndarray] = None
        # (capacity, num_classes) once the first logits fix width and dtype.
        self._running_sum: Optional[np.ndarray] = None
        # Work counters: the serving benchmark compares these against the
        # static baseline (active_count * steps == SNN forward rows executed).
        self.total_steps = 0
        self.total_sample_timesteps = 0
        # Clip-digest computations (exactly one per admitted request when
        # interning; the key-interning regression test pins this).
        self.stem_hash_count = 0

    # ------------------------------------------------------------------ #
    @property
    def active_count(self) -> int:
        return len(self._slots) - len(self._free)

    @property
    def idle(self) -> bool:
        return len(self._slots) == len(self._free)

    @property
    def fast_path(self) -> bool:
        """True when steps execute through the compiled-plan runtime."""
        return self._executor is not None

    # ------------------------------------------------------------------ #
    def admit(self, request: Request, response: Response, start_time: float) -> None:
        """Occupy one slot with a fresh request (see :meth:`admit_batch`)."""
        self.admit_batch([(request, response, start_time)])

    def admit_batch(
        self, admissions: Sequence[Tuple[Request, Response, float]]
    ) -> None:
        """Occupy slots with a whole round of fresh requests at once.

        Admission may happen *mid-horizon*: the new rows are spliced into
        the live batch while other slots are partway through their timestep
        loops, and each sample's trajectory is bitwise-identical to running
        the request alone (fresh zero membranes, per-slot timestep counters,
        deterministic encoding — per-sample batch invariance).

        Placement is one rule on both engine paths: the round's first
        requests take the free rows (retired, not yet closed) in ascending
        order, written in place; the rest are appended behind the last row.
        A rejected round places nothing, so the free rows stay free.

        Batching matters on bursty traffic: state extension (`running_sum`,
        executor membranes / Tensor-path LIF rows) happens **once** per call
        instead of once per request, and under direct encoding the whole
        burst's stateless stem prefix is computed in a single batched GEMM
        instead of one single-row GEMM per request — so admission cost per
        request stays flat in the burst size.  The stem rows are replayed
        from cache for every subsequent :meth:`step` of each slot's
        lifetime; the Tensor oracle (``use_runtime=False``) performs the
        same splice through :meth:`SpikingNetwork.reset_state_rows` and
        :meth:`SpikingNetwork.extend_state`.

        The first round on an unpinned engine fixes the served sample shape,
        and only after the model's compiled plan has proved its encoded
        ``(C, H, W)`` frame servable (``verify_plan``: shape arithmetic, no
        kernel runs) — on the fast path and on the Tensor oracle alike.  A
        model that does not lower has no plan to ask: its first round is
        adopted unproved, and a malformed one surfaces at the first
        :meth:`step`, outside the typed rejection.
        """
        if not admissions:
            return
        count = len(admissions)
        # Validate and encode BEFORE touching any engine state, so a raise
        # here (wrong encoder type, heterogeneous input shapes) leaves the
        # engine consistent — no slots without matching state rows.  The
        # whole round is rejected together; its futures are the caller's.
        try:
            # Shape homogeneity holds on EVERY path (oracle and event
            # encoders stack lazily at step() time, where a mismatch would
            # take down the worker and its in-flight neighbours): one
            # malformed request must fail here, at its own admission round,
            # not poison the live batch later.  The reference shape is the
            # engine-lifetime pin when one exists — an idle engine must
            # reject a wrong-shaped round, not adopt its shape.  An unpinned
            # engine (no slots yet) adopts the first round's shape once the
            # plan proves its encoded (C, H, W) frame servable — shape
            # arithmetic, so a bad first request is a typed rejection too.
            # The Tensor oracle borrows the model's plan for the proof
            # (lowering does not depend on the runtime switch).
            expected = self._sample_shape
            if expected is None:
                expected = admissions[0][0].inputs.shape
                plan = (
                    plan_for(self.model) if self._executor is None
                    else self._executor.plan
                )
                if plan is not None:
                    clip = hasattr(self.model.encoder, "frame_index")
                    verify_plan(plan, expected[1:] if clip else expected)
            for request, _, _ in admissions:
                if request.inputs.shape != expected:
                    raise ValueError(
                        f"request {request.request_id} input shape "
                        f"{request.inputs.shape} does not match the served "
                        f"sample shape {expected}"
                    )
            # Intern the stem-memo key bases here too: digesting can fail
            # on pathological inputs (un-castable dtypes), and it must do
            # so before any slot or state row exists.
            stem_keys = (
                [self._intern_stem_key(request) for request, _, _ in admissions]
                if self._intern_keys
                else [None] * count
            )
            frames = None
            if self._executor is not None and self._executor.stem_enabled:
                # The aligned stem cache presumes direct encoding (constant
                # frame per sample, so the timestep argument below is
                # irrelevant).  Guard the precondition explicitly: caching a
                # t=0 frame for a time-varying encoder would silently replay
                # the wrong stem forever.  Event encoders instead go through
                # the content-keyed memo at step() time.
                encoder = self.model.encoder
                if not isinstance(encoder, DirectEncoder):
                    raise RuntimeError(
                        "aligned stem cache requires direct encoding "
                        f"(got {type(encoder).__name__}); time-varying "
                        "encoders use the keyed stem memo instead"
                    )
                inputs = self._frames
                if inputs is None or inputs.shape[0] < count or inputs.shape[1:] != expected:
                    inputs = self._frames = np.empty((count,) + expected, dtype=np.float32)
                for row, (request, _, _) in enumerate(admissions):
                    inputs[row] = request.inputs
                frames = encoder(inputs[:count], 0).data
        except Exception as error:
            # Exception, not BaseException: KeyboardInterrupt/SystemExit must
            # shut the process down, not get absorbed as a round rejection.
            raise AdmissionRejectedError(
                f"admission round of {count} rejected: {error}"
            ) from error
        self._sample_shape = expected
        # Place the round: free rows first, ascending, the rest behind the
        # last row.  Both engine paths place through this one rule — a
        # row's score depends on its position (docs/NUMERICS.md).
        slots, free = self._slots, self._free
        placed = free[:count]
        recycled = len(placed)
        appended = count - recycled
        del free[:recycled]
        placed.extend(range(len(slots), len(slots) + appended))
        slots.extend([None] * appended)
        self._reserve(len(slots))
        rows = np.array(placed)
        self._local_t[rows] = 0
        if self._running_sum is not None:
            self._running_sum[rows] = 0
        # A slot carrying a ThresholdEpoch runs under its *stamped*
        # threshold/horizon instead of the live knob (brown-out, replay
        # pinning), so the recorded value is the deciding one by
        # construction.  The server stamps ONE epoch object into every
        # request until a knob moves (a replica child interns its wire
        # stamps the same way), so the knobs are resolved once per distinct
        # epoch, not once per request.
        stamped, horizons = self._stamped, self._horizons
        resolved, threshold, horizon = None, np.nan, self.max_timesteps
        for row, (request, response, start_time), stem_key in zip(
            placed, admissions, stem_keys
        ):
            slots[row] = _Slot(request, response, start_time, stem_key)
            epoch = request.epoch
            if epoch is not resolved:
                resolved, threshold, horizon = epoch, np.nan, self.max_timesteps
                if epoch is not None:
                    if epoch.threshold is not None:
                        threshold = float(epoch.threshold)
                    if epoch.horizon is not None:
                        horizon = min(horizon, int(epoch.horizon))
            stamped[row] = threshold
            horizons[row] = horizon
        if self._executor is not None:
            self._executor.extend_rows(count, frames=frames, recycle=rows[:recycled])
        else:
            self.model.reset_state_rows(rows[:recycled])
            self.model.extend_state(appended)

    def _reserve(self, rows: int) -> None:
        """Grow the slot-state arrays to ``rows`` rows, keeping their contents."""
        capacity = self._local_t.shape[0]
        if rows <= capacity:
            return

        def grown(state: np.ndarray) -> np.ndarray:
            out = np.zeros((rows,) + state.shape[1:], dtype=state.dtype)
            out[:capacity] = state
            return out

        self._local_t = grown(self._local_t)
        self._stamped = grown(self._stamped)
        self._horizons = grown(self._horizons)
        if self._running_sum is not None:
            self._running_sum = grown(self._running_sum)

    def _intern_stem_key(self, request: Request) -> bytes:
        """Digest a request's clip once; per-step keys append a frame index.

        The memo key must determine the encoded frame bytes: for a
        deterministic encoder those are a pure function of (clip content,
        recorded-frame index), so one :func:`~repro.serve.request.clip_digest`
        per request replaces per-row-per-step ``tobytes()`` copies — and the
        request carries it on to the trace recorder, if there is one.  Replayed
        clips digest identically and keep their cross-request hits; padded
        tail timesteps share a frame index and keep their free dedupe.  What
        a digest key trades away (collisions at ~2^-64, no entry sharing
        between *different* clips with a byte-identical frame) is in
        docs/ARCHITECTURE.md, "Stem-memo key interning".
        """
        if request.digest is None:
            self.stem_hash_count += 1
        return request.clip_digest()

    def fail_active(self) -> List[Tuple[Request, Response]]:
        """Abort every in-flight request (non-graceful shutdown): returns the
        ``(request, response)`` pairs it removed, futures untouched — the
        caller fails them (:func:`~repro.serve.batcher.fail_round`).

        Only this engine's *own* state is torn down: its slots, running sums
        and executor rows (membranes + aligned stem).  On the fast path the
        model's Tensor-side LIF state is untouched — it is not used by this
        engine, and with multi-worker plan sharing the model object may be
        serving other replicas whose in-flight trajectories must not be
        clobbered by a neighbour's abort.  The shared content-keyed stem
        memo also survives: its entries are pure functions of frozen weights
        and frame bytes, never of slot state.
        """
        failed = [(slot.request, slot.response) for slot in self._slots
                  if slot is not None]
        self._slots = []
        self._free = []
        self._running_sum = None
        # The shape pin exists to protect residual executor arrays from a
        # wrong-shaped idle-engine admission; the teardown below wipes those
        # arrays, so the pin resets too — a malformed FIRST round (pinned
        # before its shape ever met the model) must not leave a recovered
        # engine rejecting correct traffic forever.
        self._sample_shape = None
        if self._executor is not None:
            self._executor.reset_state()
        else:
            self.model.reset_state()
        return failed

    def invalidate_stem(self) -> None:
        """Drop cached stem rows after an in-place weight reload.

        Public hook for replica weight-reload propagation: on the fast path
        the executor's aligned stem rows were computed under the old
        weights; the content-keyed memo needs no call (it revalidates
        against the plan's ``stem_signature``), and the Tensor oracle holds
        no stem state at all.
        """
        if self._executor is not None:
            self._executor.invalidate_stem()

    # ------------------------------------------------------------------ #
    def _gather_frame(self) -> Tuple[np.ndarray, Optional[List[bytes]]]:
        """This step's encoder frame and, on the keyed-memo path, its stem keys.

        Row i is slot i's input encoded at slot i's *own* timestep.  An
        encoder with a ``frame_index`` rule (event clips) is not called at
        all: each slot contributes the one recorded frame the rule names, a
        view into its clip, and the same index completes the slot's interned
        memo key — replayed clips hit rows cached by earlier requests, on
        this engine or on any replica sharing the plan, and padded tail
        frames (min(t, T-1)) dedupe for free.  Any other encoder is asked
        for each slot's row (deterministic encoders are batch-invariant).
        """
        encoder = self.model.encoder
        slots = self._slots
        timesteps = self._local_t[: len(slots)].tolist()
        frame_index = getattr(encoder, "frame_index", None)
        keys = None
        if frame_index is None:
            rows = [
                encoder(slot.request.inputs[None], t).data[0]
                for slot, t in zip(slots, timesteps)
            ]
        else:
            indices = [
                frame_index(slot.request.inputs.shape[0], t)
                for slot, t in zip(slots, timesteps)
            ]
            rows = [slot.request.inputs[i] for slot, i in zip(slots, indices)]
            if self._intern_keys:
                keys = [
                    slot.stem_key + i.to_bytes(4, "little")
                    for slot, i in zip(slots, indices)
                ]
        return np.stack(rows).astype(np.float32, copy=False), keys

    def step(self) -> List[CompletedSample]:
        """Advance all occupied slots one timestep; return completed requests.

        Rows no admission took since the last step (an open-loop lull, a
        drain) are compacted out first: everything below reads live rows only.
        """
        if self._free:
            self._close_free_rows()
        active = len(self._slots)
        if not active:
            return []
        executor = self._executor
        with no_grad():
            if executor is None:
                frame, _ = self._gather_frame()
                logits = self.model.classifier(self.model.features(Tensor(frame))).data
            elif executor.needs_frame:
                logits = executor.step(*self._gather_frame())
            else:
                # Direct encoding: every live row's stem was cached at its
                # admission, so nothing downstream reads the inputs again.
                logits = executor.step(None)

        elapsed = self._local_t[:active]
        elapsed += 1
        if self._running_sum is None:
            self._running_sum = np.zeros(
                (self._local_t.shape[0],) + logits.shape[1:], dtype=logits.dtype
            )
        running_sum = self._running_sum[:active]
        running_sum += logits
        # The oracle's running mean: the sum times the reciprocal of the
        # elapsed timestep at the logits dtype (cumulative_mean_logits).
        cumulative = running_sum * (1.0 / elapsed[:, None]).astype(running_sum.dtype)

        # The live policy threshold is read ONCE, up front — the PR 5 bug
        # was reading it again after the decision, so a concurrent
        # controller nudge landed between the decision and the record.
        # Slots without a stamped threshold follow it; the score is also
        # evaluated once, and both the exit mask and the recorded score come
        # from that one evaluation.  Comparing against a threshold *array*
        # cast to the score dtype reproduces the weak-scalar comparison
        # should_exit performs with a float knob, so every row decides
        # bitwise as should_exit would under its own threshold.
        live = getattr(self.policy, "threshold", None)
        thresholds = self._stamped[:active]
        if live is not None:
            thresholds = np.where(np.isnan(thresholds), float(live), thresholds)
        scores = np.asarray(self.policy.score(cumulative))
        direction = getattr(self.policy, "exit_when", None)
        if direction == "below":
            policy_mask = scores < thresholds.astype(scores.dtype, copy=False)
        elif direction == "above":
            policy_mask = scores > thresholds.astype(scores.dtype, copy=False)
        else:
            # No threshold rule to apply per row (the static baseline).
            policy_mask = self.policy.should_exit(cumulative)
        exit_now = policy_mask | (elapsed >= self._horizons[:active])
        self.total_steps += 1
        self.total_sample_timesteps += active
        if not exit_now.any():
            return []
        return self._retire(exit_now, cumulative, scores, thresholds)

    def _retire(self, exit_now: np.ndarray, cumulative: np.ndarray,
                scores: np.ndarray, thresholds: np.ndarray) -> List[CompletedSample]:
        """Complete the rows in ``exit_now`` and mark them free; nothing moves.

        The retired slots' references are dropped here (a finished request's
        inputs must not stay pinned by an idle engine); the rows themselves
        wait for the next :meth:`admit_batch` or :meth:`step`.
        ``thresholds`` holds each row's *effective* threshold — stamped, or
        the live knob as read before the decision; NaN where neither exists
        — so the recorded value is provably the deciding one.
        """
        active = exit_now.shape[0]
        slots = self._slots
        # Whole-batch conversions (at most batch_width elements each), then
        # plain Python indexing per completed row.
        predictions = cumulative.argmax(axis=-1).tolist()
        elapsed = self._local_t[:active].tolist()
        horizons = self._horizons[:active].tolist()
        scores = scores.tolist()
        thresholds = thresholds.tolist()
        completed: List[CompletedSample] = []
        retired = exit_now.nonzero()[0].tolist()
        for row in retired:
            slot = slots[row]
            epoch = slot.request.epoch
            threshold = thresholds[row]
            # Positional, in CompletedSample's field order (keywords cost
            # 0.4 us a request in the call alone).
            completed.append(CompletedSample(
                slot.request, slot.response, predictions[row], elapsed[row],
                scores[row], None if threshold != threshold else threshold,
                slot.start_time,
                None if epoch is None else epoch.epoch,
                False if epoch is None else epoch.brownout,
                horizons[row],
            ))
            slots[row] = None
        self._free = retired
        return completed

    def _close_free_rows(self) -> None:
        """Compact out the rows nobody took, in place, survivors' order kept."""
        keep = np.ones(len(self._slots), dtype=bool)
        keep[self._free] = False
        kept = keep.nonzero()[0]
        self._slots = [slot for slot in self._slots if slot is not None]
        self._free = []
        for state in (self._local_t, self._stamped, self._horizons, self._running_sum):
            state[: kept.size] = state[kept]
        if self._executor is not None:
            self._executor.compact_rows(keep)
        else:
            self.model.compact_state(keep)
