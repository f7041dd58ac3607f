"""Shared infrastructure for the benchmark harness (see conftest.py for fixtures).

Every benchmark regenerates one table or figure of the paper.  The expensive
part — training spiking networks on the synthetic datasets — is done once per
session by the :class:`ExperimentSuite` and cached, so individual benchmarks
only pay for the analysis they measure.

Scale note: the models are width-reduced versions of the paper's VGG/ResNet
(see DESIGN.md §2) trained on synthetic datasets, so absolute accuracies and
energies differ from the paper; every benchmark prints the paper's reference
numbers next to the regenerated ones so the *shape* comparison is explicit.
"""

from __future__ import annotations

import os
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import calibrate_threshold, sweep_thresholds  # noqa: E402
from repro.data import (  # noqa: E402
    ArrayDataset,
    DataLoader,
    SyntheticDVSConfig,
    SyntheticImageConfig,
    make_dvs_like,
    make_synthetic_images,
    train_test_split,
)
from repro.imc import IMCChip  # noqa: E402
from repro.snn import EventFrameEncoder, spiking_resnet, spiking_vgg  # noqa: E402
from repro.training import (  # noqa: E402
    Trainer,
    TrainingConfig,
    collect_cumulative_logits,
    evaluate_per_timestep_accuracy,
)
from repro.utils import env_flag, seed_everything  # noqa: E402

# --------------------------------------------------------------------------- #
# Benchmark-scale experiment configuration
#
# The class counts / sample counts are chosen so every (architecture, dataset)
# pair trains to well above chance within a few seconds on CPU while keeping
# the paper's difficulty ordering cifar10 < cifar100 < tinyimagenet.  The
# dataset names refer to the role each synthetic dataset plays in the paper's
# evaluation, not to the real datasets (see DESIGN.md §2).
# --------------------------------------------------------------------------- #
IMAGE_SIZE = 10

# Smoke mode (REPRO_BENCH_SMOKE=1): the CI guard that keeps the bench suite
# from rotting.  Every bench file runs end to end — same code paths, same
# assertions — on smaller datasets, trading statistical fidelity of the
# regenerated tables for wall-clock.  Epoch counts stay at full strength
# because several benches assert properties of *converged* models (early
# exits actually firing, accuracy orderings); shrinking only the sample
# count keeps those properties while cutting training cost — where they
# survive it: tinyimagenet keeps its full 480 samples, because at 360 the
# ResNet's iso-accuracy point never exits early and Table II's "fewer
# timesteps than static" stops being true of the model (a few seconds).
# Absolute numbers in smoke reports are NOT comparable to full runs.
SMOKE = env_flag("REPRO_BENCH_SMOKE", False)


def _smoke_samples(full: int) -> int:
    return int(full * 0.75) if SMOKE else full


EPOCHS = 8
MAX_TIMESTEPS = 4
DVS_TIMESTEPS = 6
LEARNING_RATES = {"vgg": 0.15, "resnet": 0.1}
RESNET_WIDTH_MULTIPLIER = 1.5
# The event-stream dataset carries less information per frame, so both
# architectures need a few more epochs to converge on it.
EPOCH_OVERRIDES = {"cifar10dvs": 12}

DATASET_BUILDERS = {
    "cifar10": lambda: make_synthetic_images(
        SyntheticImageConfig(
            num_classes=10, num_samples=_smoke_samples(420), image_size=IMAGE_SIZE,
            easy_fraction=0.65, seed=7, name="cifar10-like",
        )
    ),
    "cifar100": lambda: make_synthetic_images(
        SyntheticImageConfig(
            num_classes=14, num_samples=_smoke_samples(480), image_size=IMAGE_SIZE,
            easy_fraction=0.45, easy_contrast=(0.6, 0.85), hard_contrast=(0.18, 0.45),
            hard_noise=0.42, clutter_strength=0.32, seed=8, name="cifar100-like",
        )
    ),
    "tinyimagenet": lambda: make_synthetic_images(
        SyntheticImageConfig(
            num_classes=16, num_samples=480, image_size=IMAGE_SIZE,
            easy_fraction=0.35, easy_contrast=(0.5, 0.75), hard_contrast=(0.12, 0.38),
            hard_noise=0.5, clutter_strength=0.45, seed=9, name="tinyimagenet-like",
        )
    ),
    "cifar10dvs": lambda: make_dvs_like(
        SyntheticDVSConfig(
            num_classes=8,
            num_samples=_smoke_samples(300),
            num_frames=DVS_TIMESTEPS,
            image_size=IMAGE_SIZE,
            seed=10,
        )
    ),
}


@dataclass
class Experiment:
    """A trained model plus everything the benchmarks derive from it."""

    architecture: str
    dataset_name: str
    loss_name: str
    model: object
    train_dataset: ArrayDataset
    test_dataset: ArrayDataset
    timesteps: int
    cumulative_logits: np.ndarray
    labels: np.ndarray
    per_timestep_accuracy: List[float]

    _chip: Optional[IMCChip] = field(default=None, repr=False)

    @property
    def static_accuracy(self) -> float:
        return self.per_timestep_accuracy[-1]

    @property
    def num_classes(self) -> int:
        return self.test_dataset.num_classes

    def chip(self) -> IMCChip:
        """The calibrated IMC chip for this model (built lazily, cached)."""
        if self._chip is None:
            sample = self.test_dataset.inputs[:4]
            self._chip = IMCChip.from_network(
                self.model, sample, num_classes=self.num_classes, trace_timesteps=2
            )
        return self._chip

    def calibrated_point(self, tolerance: float = 0.005):
        """The Table II operating point: match static accuracy within tolerance."""
        return calibrate_threshold(
            self.cumulative_logits, self.labels, tolerance=tolerance
        )

    def threshold_sweep(self, thresholds):
        return sweep_thresholds(self.cumulative_logits, self.labels, thresholds)

    def test_loader(self, batch_size: int = 64) -> DataLoader:
        return DataLoader(self.test_dataset, batch_size=batch_size, shuffle=False)


class ExperimentSuite:
    """Trains and caches (architecture, dataset, loss) experiments on demand."""

    def __init__(self):
        self._cache: Dict[Tuple[str, str, str], Experiment] = {}
        self._datasets: Dict[str, Tuple[ArrayDataset, ArrayDataset]] = {}

    # ------------------------------------------------------------------ #
    def datasets(self, name: str) -> Tuple[ArrayDataset, ArrayDataset]:
        if name not in self._datasets:
            if name not in DATASET_BUILDERS:
                raise KeyError(f"unknown benchmark dataset {name!r}")
            seed_everything(100)
            dataset = DATASET_BUILDERS[name]()
            self._datasets[name] = train_test_split(dataset, test_fraction=0.28, seed=5)
        return self._datasets[name]

    def _build_model(self, architecture: str, dataset_name: str, timesteps: int, **kwargs):
        train, _ = self.datasets(dataset_name)
        is_dvs = dataset_name == "cifar10dvs"
        in_channels = train.sample_shape[-3] if not is_dvs else train.sample_shape[-3]
        common = dict(
            num_classes=train.num_classes,
            in_channels=in_channels,
            input_size=train.sample_shape[-1],
            default_timesteps=timesteps,
            encoder=EventFrameEncoder() if is_dvs else None,
        )
        common.update(kwargs)
        if architecture == "vgg":
            return spiking_vgg("tiny", **common)
        if architecture == "resnet":
            common.setdefault("width_multiplier", RESNET_WIDTH_MULTIPLIER)
            return spiking_resnet("tiny", **common)
        raise KeyError(f"unknown architecture {architecture!r}")

    def get(
        self,
        architecture: str = "vgg",
        dataset_name: str = "cifar10",
        loss_name: str = "per_timestep",
        seed: int = 1000,
        epochs: int = EPOCHS,
        **model_kwargs,
    ) -> Experiment:
        """Train (or fetch from cache) one experiment."""
        key = (architecture, dataset_name, loss_name, repr(sorted(model_kwargs.items())))
        if key in self._cache:
            return self._cache[key]

        train, test = self.datasets(dataset_name)
        timesteps = DVS_TIMESTEPS if dataset_name == "cifar10dvs" else MAX_TIMESTEPS
        if epochs == EPOCHS:
            epochs = EPOCH_OVERRIDES.get(dataset_name, epochs)
        # Stable per-experiment seed (Python's hash() is salted per process).
        seed_everything(seed + zlib.crc32(repr(key).encode()) % 1000)
        model = self._build_model(architecture, dataset_name, timesteps, **model_kwargs)
        trainer = Trainer(
            model,
            TrainingConfig(
                epochs=epochs,
                timesteps=timesteps,
                learning_rate=LEARNING_RATES.get(architecture, 0.15),
                loss=loss_name,
            ),
        )
        train_loader = DataLoader(train, batch_size=36, seed=3)
        test_loader = DataLoader(test, batch_size=64, shuffle=False)
        trainer.fit(train_loader)

        collected = collect_cumulative_logits(model, test_loader, timesteps=timesteps)
        per_t = evaluate_per_timestep_accuracy(model, test_loader, timesteps=timesteps)
        experiment = Experiment(
            architecture=architecture,
            dataset_name=dataset_name,
            loss_name=loss_name,
            model=model,
            train_dataset=train,
            test_dataset=test,
            timesteps=timesteps,
            cumulative_logits=collected["logits"],
            labels=collected["labels"],
            per_timestep_accuracy=per_t,
        )
        self._cache[key] = experiment
        return experiment


# Smoke runs land in a separate file so they never clobber the real report.
_REPORT_PATH = Path(__file__).resolve().parent.parent / (
    "bench_report_smoke.txt" if SMOKE else "bench_report.txt"
)
_report_initialized = False


def emit(text: str = "") -> None:
    """Write report text to stdout and append it to ``bench_report.txt``.

    Run the harness with ``pytest benchmarks/ --benchmark-only -s`` (or pipe
    through ``tee``) to see the regenerated tables inline; without ``-s``
    pytest captures the stdout of passing tests, so the full report is always
    also written to ``bench_report.txt`` at the repository root.
    """
    global _report_initialized
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()
    mode = "a" if _report_initialized else "w"
    with open(_REPORT_PATH, mode, encoding="utf-8") as handle:
        handle.write(text + "\n")
    _report_initialized = True


def print_section(title: str) -> None:
    """Uniform section header so bench_output.txt reads like a report."""
    emit()
    emit("=" * 78)
    emit(title)
    emit("=" * 78)


# --------------------------------------------------------------------------- #
# Machine-readable bench artifacts (BENCH_<name>.json)
# --------------------------------------------------------------------------- #
def machine_info() -> Dict[str, object]:
    """The fields that make perf numbers comparable across runs/machines."""
    import platform

    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_available": available,
    }


def emit_bench_json(name: str, payload: Dict[str, object]) -> Path:
    """Write ``BENCH_<name>.json`` at the repository root
    (``BENCH_<name>.smoke.json`` under smoke, so a smoke run never overwrites
    the committed trajectory).

    The machine-readable twin of the prose report: every ``bench_serve_*``
    script calls this with its headline numbers (req/s, percentiles,
    composition) so the perf trajectory across PRs is diffable data, not
    paragraphs.  The schema is documented in docs/OBSERVABILITY.md; ``smoke``
    marks runs whose absolute numbers are not comparable to full runs.
    CI uploads these as build artifacts.
    """
    import json
    import time as _time

    suffix = ".smoke.json" if SMOKE else ".json"
    path = Path(__file__).resolve().parent.parent / f"BENCH_{name}{suffix}"
    document = {
        "bench": name,
        "schema_version": 1,
        "smoke": SMOKE,
        "unix_time": _time.time(),
        "machine": machine_info(),
    }
    document.update(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(f"[bench-json] wrote {path.name}")
    return path
