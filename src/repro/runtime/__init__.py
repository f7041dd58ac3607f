"""repro.runtime — graph-free fused inference fast path.

Inference does not need the define-by-run autograd machinery, but the seed
implementation paid for it on every timestep anyway: each op allocated a
:class:`~repro.autograd.Tensor`, recorded parents and a backward closure, and
every intermediate was a fresh allocation.  This package removes that
constant factor while keeping the results **bitwise identical**:

* :func:`~repro.runtime.plan.compile_network` lowers a trained
  :class:`~repro.snn.SpikingNetwork` into a flat register-based op list
  (conv / norm / fused-LIF / pool / linear / residual-add).
* :class:`~repro.runtime.executor.PlanExecutor` runs the list one timestep at
  a time with preallocated scratch buffers (resized only when the live batch
  width changes) and per-row state surgery mirroring the Tensor model.
* Under direct encoding, the stateless pre-spike prefix (conv1 + norm1 — the
  im2col patches *and* the GEMM they feed) is computed once per input and
  replayed across all timesteps and across serve-slot lifetimes.
* Plans are immutable and shared through the process-wide
  :data:`plan_registry` (one plan per model instance, N executors — e.g. N
  serving workers — each with private state), and time-varying deterministic
  encoders get a shared content-keyed stem memo
  (:class:`~repro.runtime.plan.StemCache`) that lets replayed event-stream
  clips skip the stem too.

The whole pipeline runs weak-scalar float32 (docs/NUMERICS.md): plans,
scratch buffers and membrane state never contain a float64 array, and the
plan verifier proves it at every compile.

The Tensor path stays available everywhere as the *reference oracle*: pass
``use_runtime=False`` to :class:`~repro.core.DynamicTimestepInference`,
:class:`~repro.serve.InferenceEngine` / :class:`~repro.serve.Server`, or
:func:`~repro.training.collect_cumulative_logits`.  ``tests/equivalence``
asserts the two paths agree bitwise on predictions, exit timesteps and
accumulated logits across architectures, encoders and batch compositions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd.dtypes import scalar_operand
from ..snn.encoding import DirectEncoder
from ..snn.network import SpikingNetwork
from .arena import ArenaAttachment, ArenaSpec, PlanArena, attach_arena
from .executor import PlanExecutor
from .rings import (
    PoolRings,
    ReplicaRings,
    RingIntegrityError,
    RingSpec,
    attach_rings,
)
from .plan import (
    CompiledPlan,
    PlanRegistry,
    StemCache,
    UnsupportedModuleError,
    compile_network,
    plan_registry,
)

__all__ = [
    "ArenaAttachment",
    "ArenaSpec",
    "CompiledPlan",
    "PlanArena",
    "PlanExecutor",
    "PlanRegistry",
    "PoolRings",
    "ReplicaRings",
    "RingIntegrityError",
    "RingSpec",
    "StemCache",
    "UnsupportedModuleError",
    "attach_arena",
    "attach_rings",
    "compile_network",
    "plan_for",
    "plan_registry",
    "executor_for",
    "run_cumulative_logits",
]


def plan_for(model: SpikingNetwork) -> Optional[CompiledPlan]:
    """The shared compiled plan for ``model`` (compiling on first use).

    Returns ``None`` when the model contains modules the fast path cannot
    lower — the caller should silently use the Tensor oracle.

    Plans live in the process-wide :data:`plan_registry`, so N engines /
    workers serving the same model instance share one plan (each with its
    own :class:`PlanExecutor` state).
    """
    return plan_registry.get(model)


def executor_for(
    model: SpikingNetwork,
    use_runtime: bool = True,
    collect_statistics: bool = True,
) -> Optional[PlanExecutor]:
    """A fresh executor for ``model``, or ``None`` to use the Tensor path:
    when ``use_runtime`` is false or the model does not lower.

    The *aligned* stem cache engages only under :class:`DirectEncoder` — the
    one encoder whose frame is constant across timesteps for a given sample.
    Other deterministic encoders that replay cacheable frames (event
    streams; ``encoder.frame_cacheable``) get the plan's shared content-
    keyed stem memo instead: callers that pass per-row ``stem_keys`` to
    :meth:`PlanExecutor.step` recover the stem skip for replayed clips, and
    callers that don't (e.g. single-pass batch inference) pay nothing.
    """
    plan = plan_for(model) if use_runtime else None
    if plan is None:
        return None
    encoder = model.encoder
    deterministic = getattr(encoder, "deterministic", False)
    if isinstance(encoder, DirectEncoder) and deterministic:
        return PlanExecutor(plan, stem_cache=True,
                            collect_statistics=collect_statistics)
    memo = (
        plan.stem_cache
        if deterministic and getattr(encoder, "frame_cacheable", False)
        else None
    )
    return PlanExecutor(plan, collect_statistics=collect_statistics,
                        stem_memo=memo)


def run_cumulative_logits(
    model: SpikingNetwork,
    executor: PlanExecutor,
    inputs: np.ndarray,
    timesteps: int,
) -> np.ndarray:
    """Fast-path equivalent of ``model.forward(x, T).cumulative_numpy()``.

    Runs the compiled plan over the horizon and accumulates the running-mean
    logits with the exact float operations of
    :func:`~repro.snn.network.cumulative_mean_logits` (sum, then multiply by
    the reciprocal at the policy scalar dtype), so the returned ``(T, N, K)``
    array is bitwise identical to the Tensor path's.
    """
    executor.reset_state()
    inputs = np.asarray(inputs, dtype=np.float32)
    running: Optional[np.ndarray] = None
    levels = []
    for t in range(timesteps):
        frame = model.encoder(inputs, t).data
        logits = executor.step(frame)
        running = logits if running is None else running + logits
        # The reciprocal adopts the logits dtype exactly like as_tensor does
        # on the Tensor path.
        levels.append(running * scalar_operand(1.0 / (t + 1), running.dtype))
    return np.stack(levels, axis=0)
