"""Small argument-validation helpers shared across the package.

Centralizing these keeps error messages consistent and the calling code
readable ("validate, then compute"), which matters in the hardware model
where silently-wrong geometry would produce plausible but meaningless energy
numbers.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "env_flag",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_choices",
    "check_ndim",
]


_TRUTHY = ("1", "true", "on", "yes")
_FALSY = ("0", "false", "off", "no")


def env_flag(name: str, default: bool) -> bool:
    """The boolean environment variable ``name``; ``default`` when unset/empty.

    The one parser of every boolean ``REPRO_*`` switch: case- and
    whitespace-insensitive ``1/true/on/yes`` and ``0/false/off/no``.
    Anything else raises ``ValueError`` — a typo must not silently pick a
    side.  Callers read it at construction time, never per step.
    """
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ValueError(
        f"{name} must be one of {'/'.join(_TRUTHY)} or {'/'.join(_FALSY)}, "
        f"got {os.environ[name]!r}"
    )


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_choices(name: str, value, choices: Sequence) -> object:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {list(choices)}, got {value!r}")
    return value


def check_ndim(name: str, array: np.ndarray, ndim: int) -> np.ndarray:
    """Raise ``ValueError`` unless ``array`` has exactly ``ndim`` dimensions."""
    array = np.asarray(array)
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
    return array
