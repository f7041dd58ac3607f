"""Shared utilities: deterministic RNG, logging, registries, serialization."""

from .logging import MetricLogger, get_logger
from .registry import Registry
from .rng import global_rng, seed_everything, spawn_rng
from .serialization import load_json, load_state_dict, save_json, save_state_dict
from .validation import (
    check_in_choices,
    check_ndim,
    check_non_negative,
    check_positive,
    check_probability,
    env_flag,
)

__all__ = [
    "MetricLogger",
    "get_logger",
    "Registry",
    "global_rng",
    "seed_everything",
    "spawn_rng",
    "save_state_dict",
    "load_state_dict",
    "save_json",
    "load_json",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_choices",
    "check_ndim",
    "env_flag",
]
