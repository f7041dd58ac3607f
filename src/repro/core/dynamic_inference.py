"""The DT-SNN inference engine (Eq. 5 and Eq. 8 of the paper).

Two execution modes are provided:

* :meth:`DynamicTimestepInference.infer_from_logits` — operates on a
  pre-collected ``(T, N, K)`` array of cumulative logits.  This is the fast
  path used by threshold sweeps and by every benchmark, because the expensive
  SNN forward pass over the full horizon runs once and different thresholds /
  policies are evaluated on the cached outputs.  It is mathematically
  identical to early stopping because timestep ``t``'s cumulative output does
  not depend on anything computed after ``t``.
* :meth:`DynamicTimestepInference.infer` — true sequential early-exit over a
  model, stopping the timestep loop as soon as the policy fires.  This is the
  deployment path: it is what the wall-clock throughput measurement
  (Table III) and the example scripts exercise.

The result object records, per sample, the exit timestep, the prediction, the
entropy trajectory and correctness, which is everything downstream consumers
(energy accounting, EDP, pie charts, easy/hard visualization) need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..autograd import no_grad
from ..autograd.dtypes import scalar_operand
from ..data.datasets import DataLoader
from ..runtime import executor_for
from ..snn.network import SpikingNetwork
from .entropy import normalized_entropy, softmax_probabilities
from .policies import EntropyExitPolicy, ExitPolicy

__all__ = ["DynamicInferenceResult", "DynamicTimestepInference"]


@dataclass
class DynamicInferenceResult:
    """Per-sample outcome of a dynamic-timestep inference run."""

    exit_timesteps: np.ndarray
    predictions: np.ndarray
    labels: Optional[np.ndarray]
    scores: np.ndarray  # policy score at the exit timestep (entropy for DT-SNN)
    max_timesteps: int
    policy_name: str = "entropy"
    threshold: Optional[float] = None

    # ------------------------------------------------------------------ #
    @property
    def num_samples(self) -> int:
        return int(self.exit_timesteps.shape[0])

    @property
    def average_timesteps(self) -> float:
        """The paper's headline "average T" metric."""
        return float(np.mean(self.exit_timesteps))

    def accuracy(self) -> float:
        if self.labels is None:
            raise ValueError("labels were not provided; accuracy unavailable")
        return float(np.mean(self.predictions == self.labels))

    def correct_mask(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("labels were not provided")
        return self.predictions == self.labels

    def timestep_histogram(self) -> np.ndarray:
        """Count of samples exiting at each timestep 1..T (Fig. 5 pie charts)."""
        return np.bincount(self.exit_timesteps, minlength=self.max_timesteps + 1)[1:]

    def timestep_fractions(self) -> np.ndarray:
        histogram = self.timestep_histogram().astype(np.float64)  # dtype-ok: analysis-side exit statistics, off the tensor path
        return histogram / max(histogram.sum(), 1.0)

    def summary(self) -> Dict[str, float]:
        stats = {
            "average_timesteps": self.average_timesteps,
            "max_timesteps": float(self.max_timesteps),
            "num_samples": float(self.num_samples),
        }
        if self.labels is not None:
            stats["accuracy"] = self.accuracy()
        for t, fraction in enumerate(self.timestep_fractions(), start=1):
            stats[f"fraction_exit_t{t}"] = float(fraction)
        return stats


class DynamicTimestepInference:
    """Runs input-aware dynamic-timestep inference for a spiking network."""

    def __init__(
        self,
        model: Optional[SpikingNetwork] = None,
        policy: Optional[ExitPolicy] = None,
        max_timesteps: Optional[int] = None,
        use_runtime: bool = True,
    ):
        self.model = model
        self.policy = policy or EntropyExitPolicy()
        # False pins the define-by-run Tensor path (the reference oracle the
        # equivalence suite compares against).
        self.use_runtime = use_runtime
        if max_timesteps is None and model is not None:
            max_timesteps = model.default_timesteps
        if max_timesteps is None or max_timesteps < 1:
            raise ValueError("max_timesteps must be a positive integer")
        self.max_timesteps = int(max_timesteps)

    # ------------------------------------------------------------------ #
    # Fast path: from precomputed cumulative logits
    # ------------------------------------------------------------------ #
    def infer_from_logits(
        self,
        cumulative_logits: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> DynamicInferenceResult:
        """Apply the exit rule to a ``(T, N, K)`` cumulative-logits array.

        For each sample the exit timestep is the first ``t`` whose policy
        condition holds; samples that never satisfy it use the full horizon
        (the ``∪ {T}`` term of Eq. 8).
        """
        cumulative_logits = np.asarray(cumulative_logits)
        if cumulative_logits.ndim != 3:
            raise ValueError("cumulative_logits must have shape (T, N, K)")
        horizon = min(cumulative_logits.shape[0], self.max_timesteps)
        num_samples = cumulative_logits.shape[1]

        exit_timesteps = np.full(num_samples, horizon, dtype=np.int64)
        predictions = np.argmax(cumulative_logits[horizon - 1], axis=-1)
        scores = self.policy.score(cumulative_logits[horizon - 1])
        undecided = np.ones(num_samples, dtype=bool)

        for t in range(horizon):
            if not undecided.any():
                break
            logits_t = cumulative_logits[t]
            exit_now = self.policy.should_exit(logits_t) & undecided
            # The last timestep is forced for anything still undecided.
            if t == horizon - 1:
                exit_now = undecided
            if exit_now.any():
                exit_timesteps[exit_now] = t + 1
                predictions[exit_now] = np.argmax(logits_t[exit_now], axis=-1)
                scores[exit_now] = self.policy.score(logits_t[exit_now])
                undecided &= ~exit_now
        return DynamicInferenceResult(
            exit_timesteps=exit_timesteps,
            predictions=predictions,
            labels=None if labels is None else np.asarray(labels),
            scores=np.asarray(scores),
            max_timesteps=horizon,
            policy_name=self.policy.name,
            threshold=getattr(self.policy, "threshold", None),
        )

    # ------------------------------------------------------------------ #
    # Deployment path: sequential early exit over the model
    # ------------------------------------------------------------------ #
    def infer(
        self,
        inputs: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> DynamicInferenceResult:
        """Sequentially process timesteps, stopping as soon as every sample exits.

        The batch is *compacted* to the undecided subset after every timestep:
        once a sample satisfies the exit policy its row (inputs, running logit
        sum and every LIF membrane row) is dropped, so subsequent timesteps run
        the SNN forward only for samples that still need them — exited samples
        cost zero FLOPs.  Per-sample results are scattered back into the
        original batch order, and the outcome is identical to running the full
        batch every timestep (the per-sample dynamics are independent; see
        :meth:`infer_from_logits`).  With batch size 1 this is exactly the
        paper's deployment behaviour (the σ–E module terminates inference and
        the next input is loaded).

        Stochastic encoders (``deterministic = False``, e.g. Poisson rate
        coding) draw from a shared RNG whose consumption depends on the batch
        shape, so for them the full batch is encoded and evaluated every
        timestep — preserving the exact pre-compaction draw sequence — and
        only the early-stopping of the loop is kept.

        When the model lowers into the :mod:`repro.runtime` compiled plan
        (and ``use_runtime`` is not disabled), each timestep executes through
        the graph-free fast path; the logits — and therefore every exit
        decision, prediction and score — are bitwise identical to the Tensor
        path, which remains available as the reference oracle via
        ``use_runtime=False``.
        """
        if self.model is None:
            raise ValueError("a model is required for sequential inference")
        model = self.model
        was_training = model.training
        model.eval()
        executor = executor_for(model, self.use_runtime)
        inputs = np.asarray(inputs, dtype=np.float32)
        num_samples = inputs.shape[0]

        exit_timesteps = np.full(num_samples, self.max_timesteps, dtype=np.int64)
        predictions = np.zeros(num_samples, dtype=np.int64)
        scores = np.zeros(num_samples, dtype=np.float64)  # dtype-ok: decision-side score bookkeeping is sanctioned float64 (docs/NUMERICS.md)
        # Indices (into the original batch) of samples still running.
        active = np.arange(num_samples, dtype=np.int64)
        compact = getattr(model.encoder, "deterministic", True)

        try:
            with no_grad():
                if executor is None:
                    model.reset_state()
                else:
                    executor.reset_state()
                running_sum: Optional[np.ndarray] = None
                for t in range(self.max_timesteps):
                    frame = model.encoder(inputs if not compact else inputs[active], t)
                    if executor is None:
                        spikes = model.features(frame)
                        logits = model.classifier(spikes).data
                    else:
                        logits = executor.step(frame.data)
                    running_sum = logits if running_sum is None else running_sum + logits
                    # The oracle's running mean (cumulative_mean_logits).
                    # Without compaction the running sum spans the full batch;
                    # restrict the exit decision to the still-active rows.
                    cumulative = running_sum * scalar_operand(
                        1.0 / (t + 1), running_sum.dtype)
                    if not compact:
                        cumulative = cumulative[active]

                    exit_now = self.policy.should_exit(cumulative)
                    if t == self.max_timesteps - 1:
                        exit_now = np.ones(active.shape[0], dtype=bool)
                    if exit_now.any():
                        exited = active[exit_now]
                        exit_timesteps[exited] = t + 1
                        predictions[exited] = np.argmax(cumulative[exit_now], axis=-1)
                        scores[exited] = self.policy.score(cumulative[exit_now])
                        active = active[~exit_now]
                        if compact:
                            keep = ~exit_now
                            running_sum = running_sum[keep]
                            if executor is None:
                                model.compact_state(keep)
                            else:
                                executor.compact_rows(keep)
                    if active.size == 0:
                        break
        finally:
            model.train(was_training)

        return DynamicInferenceResult(
            exit_timesteps=exit_timesteps,
            predictions=predictions,
            labels=None if labels is None else np.asarray(labels),
            scores=scores,
            max_timesteps=self.max_timesteps,
            policy_name=self.policy.name,
            threshold=getattr(self.policy, "threshold", None),
        )

    def infer_loader(self, loader: DataLoader) -> DynamicInferenceResult:
        """Run sequential dynamic inference over a whole data loader."""
        results: List[DynamicInferenceResult] = []
        all_labels: List[np.ndarray] = []
        for inputs, labels in loader:
            results.append(self.infer(inputs))
            all_labels.append(labels)
        return DynamicInferenceResult(
            exit_timesteps=np.concatenate([r.exit_timesteps for r in results]),
            predictions=np.concatenate([r.predictions for r in results]),
            labels=np.concatenate(all_labels),
            scores=np.concatenate([r.scores for r in results]),
            max_timesteps=self.max_timesteps,
            policy_name=self.policy.name,
            threshold=getattr(self.policy, "threshold", None),
        )

    # ------------------------------------------------------------------ #
    def entropy_trajectories(self, cumulative_logits: np.ndarray) -> np.ndarray:
        """Normalized entropy after every timestep, shape ``(T, N)`` (diagnostics)."""
        cumulative_logits = np.asarray(cumulative_logits)
        return normalized_entropy(softmax_probabilities(cumulative_logits))
