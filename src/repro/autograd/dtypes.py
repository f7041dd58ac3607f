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
training *and* inference — roughly doubling GEMM/elementwise cost.  This
module is the single point that decides which regime is active; see
``docs/NUMERICS.md`` for the full policy, the promotion table and the
golden-regeneration recipe.

Escape hatch
------------
Set ``REPRO_FLOAT64=1`` (before models are built / plans are compiled) to
restore the legacy promotion behaviour: scalars materialize as float64 0-d
arrays, float64 inputs pass through :class:`~repro.autograd.Tensor`
construction untouched, and eval-time conv+norm folding is disabled.  The
flag exists so the pre-policy numerics stay reproducible (CI keeps a job
running the fast suite under it).  The Tensor path reads it live on every
decision point, so tests can flip it with ``monkeypatch.setenv``; a compiled
plan resolves it once, when it is lowered (scalar constants are materialized
into the ops, folding is decided), and ``plan_for`` recompiles on a flip —
the per-timestep fast path never reads the environment.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "DEFAULT_DTYPE",
    "float64_enabled",
    "scalar_dtype",
    "scalar_operand",
    "coerce_array",
]

#: The dtype of every Tensor and every runtime buffer under the default policy.
DEFAULT_DTYPE = np.dtype(np.float32)


_FLOAT64_PARSE = {None: False}


def float64_enabled() -> bool:
    """True when ``REPRO_FLOAT64`` requests the legacy float64-promotion mode.

    Re-reads the environment on every call (tests flip the flag at runtime);
    only the string→bool parse is memoized — this sits on per-compile and
    fold-revalidation paths, so the repeated strip/lower/membership walk
    showed up in profiles.
    """
    raw = os.environ.get("REPRO_FLOAT64")
    try:
        return _FLOAT64_PARSE[raw]
    except KeyError:
        value = raw.strip().lower() in ("1", "true", "on", "yes")
        _FLOAT64_PARSE[raw] = value
        return value


def scalar_dtype(like_dtype) -> np.dtype:
    """Dtype a Python scalar adopts next to an array of ``like_dtype``.

    Default policy: the scalar is *weak* — it takes the array's dtype, so a
    float32 network stays float32 through ``x * tau`` or ``var + eps``.
    Legacy mode (``REPRO_FLOAT64=1``): the scalar materializes as float64
    (what bare ``np.asarray(scalar)`` produces), which then promotes the
    whole downstream computation.
    """
    if float64_enabled():
        return np.dtype(np.float64)
    return np.dtype(like_dtype)


def scalar_operand(value, like_dtype) -> np.ndarray:
    """Materialize a Python scalar as the 0-d array an op should combine with.

    This is the mirror used by the graph-free :mod:`repro.runtime` kernels:
    the Tensor path routes scalars through ``as_tensor`` (ultimately
    :func:`coerce_array`), and ``scalar_operand(value, array.dtype)``
    produces a bitwise-identical constant for the same op on the kernel
    side — in either policy mode.
    """
    return np.asarray(value, dtype=scalar_dtype(like_dtype))


def coerce_array(value) -> np.ndarray:
    """Coerce arbitrary input data to the Tensor storage policy.

    Default policy: everything becomes :data:`DEFAULT_DTYPE` (float32) —
    including Python scalars (``np.asarray`` would make them float64 0-d
    arrays) and explicitly-float64 inputs, which the seed implementation
    silently passed through.  Legacy mode keeps the seed behaviour:
    float32/float64 pass through, everything else casts to float32.
    """
    array = np.asarray(value)
    if array.dtype == DEFAULT_DTYPE:
        return array
    if float64_enabled():
        if array.dtype == np.float64:
            return array
        return array.astype(np.float32)
    return array.astype(DEFAULT_DTYPE)
