"""The stack-wide dtype policy: weak-scalar float32.

Every array that flows through the reproduction — activations, weights,
membrane potentials, logits — is ``float32``, and Python scalars (``tau``,
``eps``, the ``1/t`` cumulative-mean reciprocal, ...) *adopt the dtype of the
array they combine with* instead of promoting it.  This is NumPy's NEP-50
"weak scalar" rule, applied uniformly to the one place NumPy cannot apply it
for us: scalars that get materialized as 0-d arrays before the arithmetic
happens (``as_tensor(0.5)`` on the Tensor path, the mirrored constants in the
:mod:`repro.runtime` kernels).

History
-------
The seed implementation wrapped Python scalars via ``np.asarray(scalar)``,
i.e. as *float64* 0-d arrays, and 0-d arrays are "strong" under NumPy's
promotion rules.  The result was a silent dtype leak: everything downstream
of the first scalar-touching op (the BN ``var + eps``, the LIF
``membrane * tau``, the cumulative ``* (1/t)``) computed in float64 — in
training *and* inference — roughly doubling GEMM/elementwise cost.  A
``REPRO_FLOAT64=1`` switch used to reproduce that leak; it was removed, and
setting it now fails at import (below) instead of silently computing
float32.  See ``docs/NUMERICS.md`` for the policy and the promotion table.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import env_flag

__all__ = [
    "DEFAULT_DTYPE",
    "RemovedNumericsModeError",
    "scalar_operand",
    "coerce_array",
]

#: The dtype of every Tensor and every runtime buffer.
DEFAULT_DTYPE = np.dtype(np.float32)


class RemovedNumericsModeError(RuntimeError):
    """The environment selects a numerics mode this code no longer has."""


if env_flag("REPRO_FLOAT64", False):
    raise RemovedNumericsModeError(
        "REPRO_FLOAT64 (seed-era float64 scalar promotion) was removed; the "
        "stack is float32 only.  The last commit that has the mode is "
        "5a6e8495aec799ea966ed475b7d8f84024968229 — check it out to reproduce "
        "those numerics, or unset the variable."
    )


def scalar_operand(value, like_dtype) -> np.ndarray:
    """Materialize a Python scalar as the 0-d array an op should combine with.

    The scalar is *weak*: it takes the dtype of the array next to it, so a
    float32 network stays float32 through ``x * tau`` or ``var + eps``.  This
    is the mirror used by the graph-free :mod:`repro.runtime` kernels: the
    Tensor path routes scalars through ``as_tensor`` (ultimately
    :func:`coerce_array`), and ``scalar_operand(value, array.dtype)``
    produces a bitwise-identical constant for the same op on the kernel side.
    """
    return np.asarray(value, dtype=like_dtype)


def coerce_array(value) -> np.ndarray:
    """Coerce arbitrary input data to the Tensor storage policy.

    Everything becomes :data:`DEFAULT_DTYPE` (float32) — including Python
    scalars (``np.asarray`` would make them float64 0-d arrays) and
    explicitly-float64 inputs, which the seed implementation silently passed
    through.
    """
    array = np.asarray(value)
    if array.dtype == DEFAULT_DTYPE:
        return array
    return array.astype(DEFAULT_DTYPE)
