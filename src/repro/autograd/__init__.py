"""NumPy-backed reverse-mode automatic differentiation.

This subpackage is the tensor substrate that replaces PyTorch in this
reproduction: a dynamic-graph autodiff engine (:mod:`repro.autograd.tensor`),
raw im2col kernels (:mod:`repro.autograd.ops`), differentiable functional
operators (:mod:`repro.autograd.functional`), and the stack-wide dtype
policy (:mod:`repro.autograd.dtypes`): weak-scalar float32
(docs/NUMERICS.md).
"""

from .dtypes import DEFAULT_DTYPE, coerce_array, scalar_operand
from .functional import (
    adaptive_avg_pool2d,
    avg_pool2d,
    conv2d,
    cross_entropy,
    dropout,
    linear,
    log_softmax,
    max_pool2d,
    nll_loss,
    one_hot,
    softmax,
)
from .ops import col2im, conv_output_size, im2col
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack, where

__all__ = [
    "DEFAULT_DTYPE",
    "coerce_array",
    "scalar_operand",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "stack",
    "concatenate",
    "where",
    "im2col",
    "col2im",
    "conv_output_size",
    "linear",
    "conv2d",
    "avg_pool2d",
    "max_pool2d",
    "adaptive_avg_pool2d",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "one_hot",
    "dropout",
]
