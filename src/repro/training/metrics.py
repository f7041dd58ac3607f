"""Evaluation metrics: accuracy (overall and per-timestep), confusion matrix.

The per-timestep accuracy sweep is the measurement behind Fig. 2 of the
paper ("accuracy grows with the number of timesteps") and behind the static
points of the accuracy-EDP curves in Fig. 5.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..autograd import no_grad
from ..data.datasets import DataLoader
from ..runtime import executor_for, run_cumulative_logits
from ..snn.network import SpikingNetwork

__all__ = [
    "accuracy_from_logits",
    "confusion_matrix",
    "evaluate_accuracy",
    "evaluate_per_timestep_accuracy",
    "collect_cumulative_logits",
]


def accuracy_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of a ``(N, K)`` logits array against integer labels."""
    predictions = np.argmax(logits, axis=-1)
    return float(np.mean(predictions == labels))


def confusion_matrix(predictions: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Row = true class, column = predicted class."""
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for true, predicted in zip(labels, predictions):
        matrix[int(true), int(predicted)] += 1
    return matrix


def collect_cumulative_logits(
    model: SpikingNetwork,
    loader: DataLoader,
    timesteps: Optional[int] = None,
    use_runtime: bool = True,
) -> Dict[str, np.ndarray]:
    """Run the model over a loader and collect cumulative logits per timestep.

    Returns a dict with ``logits`` of shape ``(T, N, K)`` (running-mean
    classifier outputs, i.e. ``f_t(x)``) and ``labels`` of shape ``(N,)``.
    This single pass is reused by the accuracy sweep, the DT-SNN threshold
    calibration and the benchmark harness, so the expensive SNN forward runs
    once per dataset.

    When the model lowers into the :mod:`repro.runtime` compiled plan (and
    ``use_runtime`` is not disabled) the sweep executes through the
    graph-free fast path; the returned logits are bitwise identical to the
    Tensor path's (``use_runtime=False``), so thresholds calibrated on one
    path are exact on the other.  The logits are float32 end to end — the
    ``1/t`` averaging follows the weak-scalar dtype policy
    (docs/NUMERICS.md) on both paths.
    """
    was_training = model.training
    model.eval()
    horizon = timesteps or model.default_timesteps
    executor = executor_for(model, use_runtime)
    all_logits: List[np.ndarray] = []
    all_labels: List[np.ndarray] = []
    try:
        with no_grad():
            for inputs, labels in loader:
                if executor is None:
                    output = model.forward(inputs, horizon)
                    all_logits.append(output.cumulative_numpy())
                else:
                    all_logits.append(
                        run_cumulative_logits(model, executor, inputs, horizon)
                    )
                all_labels.append(labels)
    finally:
        model.train(was_training)
    logits = np.concatenate(all_logits, axis=1)
    labels = np.concatenate(all_labels, axis=0)
    return {"logits": logits, "labels": labels}


def evaluate_accuracy(
    model: SpikingNetwork, loader: DataLoader, timesteps: Optional[int] = None
) -> float:
    """Full-horizon (static SNN) top-1 accuracy."""
    collected = collect_cumulative_logits(model, loader, timesteps)
    return accuracy_from_logits(collected["logits"][-1], collected["labels"])


def evaluate_per_timestep_accuracy(
    model: SpikingNetwork, loader: DataLoader, timesteps: Optional[int] = None
) -> List[float]:
    """Accuracy of the cumulative prediction at every horizon t = 1..T (Fig. 2)."""
    collected = collect_cumulative_logits(model, loader, timesteps)
    labels = collected["labels"]
    return [accuracy_from_logits(step_logits, labels) for step_logits in collected["logits"]]
