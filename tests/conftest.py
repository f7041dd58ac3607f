"""Shared fixtures for the test suite.

Training a spiking network — even a tiny one — is the most expensive
operation in the suite, so a single trained model / dataset pair is built
once per session and reused by the DT-SNN, IMC and integration tests.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import DataLoader, make_cifar10_like, train_test_split
from repro.snn import spiking_vgg
from repro.training import Trainer, TrainingConfig, collect_cumulative_logits
from repro.utils import seed_everything


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small CIFAR-10-like synthetic dataset split into train/test."""
    seed_everything(123)
    dataset = make_cifar10_like(num_samples=240, image_size=10, seed=7)
    return train_test_split(dataset, test_fraction=0.3, seed=3)


@pytest.fixture(scope="session")
def tiny_loaders(tiny_dataset):
    train, test = tiny_dataset
    return (
        DataLoader(train, batch_size=32, seed=11),
        DataLoader(test, batch_size=64, shuffle=False),
    )


@pytest.fixture(scope="session")
def trained_model(tiny_loaders):
    """A tiny spiking VGG trained for a few epochs with the Eq. 10 loss."""
    seed_everything(5)
    model = spiking_vgg("tiny", num_classes=10, input_size=10, default_timesteps=4)
    trainer = Trainer(
        model,
        TrainingConfig(epochs=5, timesteps=4, learning_rate=0.15, loss="per_timestep"),
    )
    train_loader, test_loader = tiny_loaders
    trainer.fit(train_loader, test_loader)
    return model


@pytest.fixture(scope="session")
def cumulative_logits(trained_model, tiny_loaders):
    """Cached (T, N, K) cumulative logits + labels of the trained model on test data."""
    _, test_loader = tiny_loaders
    return collect_cumulative_logits(trained_model, test_loader, timesteps=4)


@pytest.fixture(scope="session")
def untrained_tiny_model():
    """An untrained tiny network for shape/state tests that do not need accuracy."""
    seed_everything(9)
    return spiking_vgg("tiny", num_classes=10, input_size=10, default_timesteps=3)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _channels_first(array):
    """A compiled-plan ``(N, H, W, C)`` map as the Tensor path's
    ``(N, C, H, W)`` view; any other rank passes through."""
    return array.transpose(0, 3, 1, 2) if array.ndim == 4 else array


def _executor_state(executor):
    """``(membranes, stem rows)`` of a compiled-plan executor in the Tensor
    path's channels-first layout — the one way tests compare them.

    First asserts that every 4-D array the executor holds — each register
    an op wrote, each membrane, each aligned stem row — is C-contiguous:
    no op hands a strided view downstream.
    """
    stem = executor._stem or {}
    written = [executor._registers[op.dst] for op in executor.plan.ops]
    for array in (*written, *executor._membranes, *stem.values()):
        if array is not None and array.ndim == 4:
            assert array.flags.c_contiguous, f"strided {array.shape} activation"
    membranes = [None if m is None else _channels_first(m) for m in executor._membranes]
    return membranes, {reg: _channels_first(rows) for reg, rows in stem.items()}


@pytest.fixture
def executor_state():
    """:func:`_executor_state`, for tests that inspect executor internals."""
    return _executor_state


def pytest_sessionfinish(session, exitstatus):
    """Export the lock-acquisition graph when the tracked shard asks for it.

    The CI static-analysis job runs a suite shard under REPRO_LOCK_CHECK=1
    with REPRO_LOCK_GRAPH_OUT pointing at an artifact path; cycles raise
    LockOrderError at the offending acquire, and the dumped JSON is the
    evidence reviewers read (docs/ANALYSIS.md).
    """
    out = os.environ.get("REPRO_LOCK_GRAPH_OUT")
    if not out:
        return
    from repro.analysis.lockorder import assert_acyclic, dump_graph

    dump_graph(out)
    # Belt and braces: a cycle normally raises at acquire time, but the
    # exported graph must also be globally consistent.
    assert_acyclic()
