"""Input encoders turning images or event streams into per-timestep inputs.

The paper uses *direct encoding*: the analog image is fed to the first
convolutional block at every timestep and that block's LIF layer produces the
spike trains (``g_1(x)`` in Eq. 1).  A Poisson rate encoder and an
event-stream (DVS) encoder are also provided — the former as a classical
baseline, the latter to exercise the CIFAR10-DVS-style experiments where the
input itself varies over time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..utils.rng import spawn_rng
from ..utils.validation import check_positive

__all__ = ["DirectEncoder", "PoissonEncoder", "EventFrameEncoder", "build_encoder"]


class DirectEncoder:
    """Repeat the same analog input at every timestep (the paper's choice)."""

    name = "direct"
    # Deterministic encoders produce the same frame for a sample regardless of
    # batch composition, which is what lets dynamic inference compact batches
    # (and the serving engine splice slots) without changing any trajectory.
    deterministic = True
    # frame_cacheable marks encoders whose emitted frame bytes fully determine
    # the network's stateless stem output AND recur across requests (replayed
    # inputs), so the runtime may memoize stem results keyed on frame content
    # (repro.runtime.plan.StemCache).  Stochastic encoders must leave this
    # False: their frames never deterministically recur.
    frame_cacheable = True

    def __call__(self, x: np.ndarray, timestep: int) -> Tensor:
        return Tensor(np.asarray(x, dtype=np.float32))

    def __repr__(self) -> str:  # pragma: no cover
        return "DirectEncoder()"


class PoissonEncoder:
    """Bernoulli/Poisson rate coding: pixel intensity = firing probability.

    Intensities are expected in ``[0, 1]``; values outside are clipped.  Each
    timestep draws an independent binary frame, so temporal averaging over
    more timesteps recovers the analog image with decreasing variance — the
    classical reason accuracy grows with T.
    """

    name = "poisson"
    deterministic = False  # draws from a shared RNG: batch composition matters
    frame_cacheable = False  # fresh random frame every call: nothing recurs

    def __init__(self, gain: float = 1.0, seed: Optional[int] = None):
        check_positive("gain", gain)
        self.gain = gain
        self._rng = spawn_rng(seed)

    def __call__(self, x: np.ndarray, timestep: int) -> Tensor:
        probabilities = np.clip(np.asarray(x, dtype=np.float32) * self.gain, 0.0, 1.0)
        frame = (self._rng.random(probabilities.shape) < probabilities).astype(np.float32)
        return Tensor(frame)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PoissonEncoder(gain={self.gain})"


class EventFrameEncoder:
    """Select the ``t``-th frame of an event-stream tensor ``(N, T, C, H, W)``.

    Used for the CIFAR10-DVS-style synthetic dataset where every timestep has
    its own accumulated event frame.  If the requested timestep exceeds the
    number of recorded frames the last frame is repeated, matching the common
    practice of padding short event recordings.
    """

    name = "event"
    deterministic = True
    # Frames vary per timestep (so the aligned direct-encoding stem cache
    # cannot apply) but are pure slices of the request payload: a replayed
    # DVS clip re-emits byte-identical frames, which the serving engine
    # exploits through the content-keyed stem memo.
    frame_cacheable = True

    def __call__(self, x: np.ndarray, timestep: int) -> Tensor:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 5:
            raise ValueError(
                f"EventFrameEncoder expects (N, T, C, H, W) input, got shape {x.shape}"
            )
        return Tensor(x[:, self.frame_index(x.shape[1], timestep)])

    def frame_index(self, num_frames: int, timestep: int) -> int:
        """Index of the recorded frame emitted at ``timestep``.

        Exposes the padding rule (short recordings repeat their last frame)
        to the serving engine, which relies on it twice: it gathers each
        slot's frame as ``clip[frame_index(...)]`` — one recorded frame per
        slot per step instead of stacking whole clips through
        :meth:`__call__` — and it interns stem-memo keys per request, since a
        ``(clip digest, frame_index)`` pair fully determines the emitted
        frame bytes and padded tail timesteps collapse onto one key.  An
        encoder that exposes this rule promises ``__call__`` emits exactly
        that frame.
        """
        return min(timestep, num_frames - 1)

    def __repr__(self) -> str:  # pragma: no cover
        return "EventFrameEncoder()"


def build_encoder(name: str, **kwargs):
    """Instantiate an encoder by name (``direct``, ``poisson`` or ``event``)."""
    encoders = {
        "direct": DirectEncoder,
        "poisson": PoissonEncoder,
        "event": EventFrameEncoder,
    }
    key = name.lower()
    if key not in encoders:
        raise KeyError(f"unknown encoder {name!r}; available: {sorted(encoders)}")
    return encoders[key](**kwargs)
