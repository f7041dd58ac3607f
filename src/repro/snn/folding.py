"""Eval-time folding of a frozen norm layer into the preceding convolution.

In eval mode a (temporal) batch-norm layer is an affine function of its
input with *constant* coefficients::

    y = (x - mean) / sqrt(var + eps) * gamma [* alpha * V_th] + beta
      = x * k + b,    k = gamma [* alpha * V_th] / sqrt(var + eps),
                      b = beta - mean * k

and because the per-channel scale ``k`` commutes with the convolution, the
whole conv→norm pair collapses into a single convolution with folded
weights ``W * k`` and bias ``b`` — the norm costs **zero** passes over the
activation instead of four elementwise sweeps.

Bitwise contract
----------------
Folding regroups float operations, so it moves every numeric artifact (this
is why it shipped in the same PR as the float32 dtype policy, the sanctioned
golden-moving change — see docs/NUMERICS.md).  What stays *bitwise* is the
path-vs-path equivalence: :class:`ConvSpikeBlock` / ``SpikingResidualBlock``
and the compiled plan's ``FoldedConvNormOp`` share the **same**
:class:`FoldedConvNorm` instance, so both execution paths consume literally
the same folded arrays and run the same im2col+GEMM+bias forward on them.

Folding engages whenever the block runs frozen inference — eval mode, no
gradient recording.  Training-mode forwards, and eval forwards that record a
graph (e.g. fine-tuning with frozen statistics), keep the unfused conv→norm
ops.

The folded arrays are cached and refreshed by identity: every source array
(conv weight/bias, norm gamma/beta, running mean/var) is replaced — never
mutated — by the optimizer, ``load_state_dict`` and ``update_buffer``, so an
``is``-comparison against the remembered sources detects staleness exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd.dtypes import scalar_operand
from ..nn.layers import BatchNorm2d, Conv2d
from ..nn.module import Module
from .tdbn import TemporalBatchNorm2d

__all__ = ["FoldedConvNorm", "fold_candidate"]


def fold_candidate(conv: Module, norm: Module) -> Optional["FoldedConvNorm"]:
    """A :class:`FoldedConvNorm` for the pair, or ``None`` if not foldable."""
    if isinstance(conv, Conv2d) and isinstance(norm, (BatchNorm2d, TemporalBatchNorm2d)):
        return FoldedConvNorm(conv, norm)
    return None


class FoldedConvNorm:
    """Lazily-computed, identity-cached folded weights for a conv→norm pair."""

    def __init__(self, conv: Conv2d, norm: Module):
        self.conv = conv
        self.norm = norm
        self._weight: Optional[np.ndarray] = None
        self._bias: Optional[np.ndarray] = None
        self._sources: Optional[tuple] = None

    def _array_sources(self) -> tuple:
        conv, norm = self.conv, self.norm
        return (
            conv.weight.data,
            None if conv.bias is None else conv.bias.data,
            norm.weight.data,
            norm.bias.data,
            norm.running_mean,
            norm.running_var,
        )

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The folded ``(weight, bias)`` pair, recomputed only when a source
        array object changed."""
        sources = self._array_sources()
        if self._weight is None or any(
            a is not b for a, b in zip(sources, self._sources)
        ):
            norm = self.norm
            var = norm.running_var
            std = np.sqrt(var + scalar_operand(norm.eps, var.dtype))
            k = norm.weight.data / std
            if isinstance(norm, TemporalBatchNorm2d):
                k = k * scalar_operand(norm.alpha * norm.v_threshold, k.dtype)
            bias = norm.bias.data - norm.running_mean * k
            if sources[1] is not None:
                bias = bias + sources[1] * k
            self._weight = sources[0] * k.reshape(-1, 1, 1, 1)
            self._bias = bias
            self._sources = sources
        return self._weight, self._bias
