"""Fused, graph-free NumPy kernels for the inference fast path.

Every kernel in this module is a *bitwise-faithful* re-implementation of the
forward half of one autograd operator (see :mod:`repro.autograd.functional`
and :class:`repro.snn.neurons.LIFNeuron`): it performs the exact same NumPy
float operations, on the same shapes, in the same order — it only skips the
graph bookkeeping (Tensor allocation, parent tuples, backward closures) and
reuses scratch buffers across timesteps.  That is what makes the
compiled-plan executor provably equivalent to the define-by-run path: the
floating-point work is *identical*, not merely close.

Layout
------
Every activation a kernel writes is channels-last ``(N, H, W, C)``, the
layout the im2col GEMM produces, while the patch matrix keeps the Tensor
path's ``(out_h, out_w, C, k, k)`` column order — so the float ops are the
Tensor path's (docs/NUMERICS.md, "Layout").

Bind once, replay
-----------------
Each kernel comes as a pair.  ``bind_*`` runs once per (op scratch, input
shape): it carves every view the kernel will touch out of the op's capacity
buffers and resolves every result dtype.  ``*_step`` is then a straight
line of ``np.<ufunc>(..., out=bound)`` calls on that binding — no buffer
lookup, no dtype derivation, no slicing or reshaping per timestep.  The
plan ops (:mod:`repro.runtime.plan`) look bindings up by input shape and
revalidate them by identity against whatever live arrays they captured
(weights, norm statistics, the input buffer whose taps a pool holds).

Dtype discipline
----------------
The stack is weak-scalar float32 (:mod:`repro.autograd.dtypes`,
docs/NUMERICS.md): scalars that the Tensor path routes through
``as_tensor`` adopt the dtype of the array they combine with, so every
buffer here is float32.  Scalar constants reach the kernels already
materialized by the plan, at lowering, through the same
:func:`~repro.autograd.dtypes.scalar_operand` helper, and the plan verifier
(:mod:`repro.analysis.planverify`) proves every stored constant float32, so
each result buffer simply takes its input's dtype.  No kernel reads the
environment.

Buffer discipline
-----------------
Kernels receive a per-op :class:`Scratch` owned by the executor.  It keeps
ONE capacity buffer per role, sized to the widest batch seen so far, and a
bounded map of bindings; a binding for a narrower batch holds leading-row
*views* of the same buffers (no data of its own), so the width changes of
continuous batching (early exits compact, admissions grow) never
reallocate.  Replacing a buffer — the batch outgrew it, or the input
geometry or dtype changed — drops every binding carved from it.

In-place NumPy ufuncs (``np.add(a, b, out=buf)``) produce results bitwise
identical to their allocating forms (``a + b``) as long as ``buf`` has the
result dtype, so buffer reuse never perturbs the equivalence
contract.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd.ops import conv_output_size

__all__ = [
    "MAX_BINDINGS",
    "Scratch",
    "channels_last",
    "gather_index",
    "bind_conv",
    "conv2d_step",
    "bind_lif",
    "lif_step",
    "spike_count",
    "bind_pool_taps",
    "avg_pool_taps_step",
    "max_pool_step",
    "bind_avg_pool_cols",
    "avg_pool_cols_step",
    "bind_flatten",
    "flatten_step",
    "linear_step",
    "bind_relu",
    "relu_step",
    "bind_add",
    "add_step",
]

#: Bindings one :class:`Scratch` keeps (oldest dropped first).  A serving
#: session sees at most ``batch_width`` distinct widths; the cap is what
#: keeps an offline batch that shrinks through every width from 512 down
#: from accumulating 512 sets of views per op.
MAX_BINDINGS = 32

#: ``float32`` represents every integer up to here exactly, so summing that
#: many 0/1 spikes in float32 (the Tensor path's ``spikes.sum()``) is exact
#: in any order and ``count_nonzero`` returns the same number.
_EXACT_FLOAT32_COUNT = 2 ** 24


class Scratch:
    """One op's buffers and bindings inside one executor.

    ``buffers`` maps a role to its capacity buffer; ``bindings`` maps an
    input shape to the views a kernel bound for it (see the module
    docstring).  Bindings hold views only, so resident bytes are those of
    ``buffers`` — bounded by the widest batch ever run.
    """

    __slots__ = ("buffers", "bindings")

    def __init__(self):
        self.buffers: Dict[object, np.ndarray] = {}
        self.bindings: Dict[Tuple[int, ...], object] = {}

    def rows(self, role, n: int, row_shape: Tuple[int, ...], dtype,
             allocate=np.empty) -> np.ndarray:
        """The leading ``n`` rows of the one buffer kept under ``role``.

        The buffer is replaced (through ``allocate``) only when the per-row
        shape or dtype changes or the batch outgrows it; its old contents
        are not carried over, and every binding goes with it.
        """
        buffer = self.buffers.get(role)
        if (
            buffer is None
            or buffer.shape[0] < n
            or buffer.shape[1:] != row_shape
            or buffer.dtype != dtype
        ):
            self.bindings.clear()
            buffer = self.buffers[role] = allocate((n,) + row_shape, dtype=dtype)
        return buffer[:n]

    def grown(self, role, rows: np.ndarray, count: int) -> np.ndarray:
        """``rows`` followed by ``count`` uninitialized rows, in ``role``'s buffer.

        In place — nothing moves — when ``rows`` already is the leading view
        of that buffer and it has room: the steady state of a serving
        session, whose buffers were sized by its widest batch.  Otherwise
        the live rows are copied into a buffer that has.
        """
        live = rows.shape[0]
        buffer = self.buffers.get(role)
        if buffer is not None and rows.base is buffer and buffer.shape[0] >= live + count:
            return buffer[: live + count]
        grown = self.rows(role, live + count, rows.shape[1:], rows.dtype)
        grown[:live] = rows
        return grown

    def bind(self, shape: Tuple[int, ...], binding):
        """Remember ``binding`` for inputs of ``shape``; returns it."""
        bindings = self.bindings
        bindings.pop(shape, None)
        if len(bindings) >= MAX_BINDINGS:
            del bindings[next(iter(bindings))]
        bindings[shape] = binding
        return binding


def channels_last(array: np.ndarray) -> np.ndarray:
    """An ``(N, C, H, W)`` map as the ``(N, H, W, C)`` view the kernels read;
    any other rank passes through."""
    return array.transpose(0, 2, 3, 1) if array.ndim == 4 else array


# --------------------------------------------------------------------------- #
# im2col as one gather
# --------------------------------------------------------------------------- #
def gather_index(channels: int, height: int, width: int,
                 kernel: int, stride: int, padding: int) -> np.ndarray:
    """Flat im2col gather index for one zero-padded ``(Hp, Wp, C)`` sample.

    ``np.take(padded.reshape(n, -1), index, axis=1)`` is then value-identical
    to :func:`repro.autograd.ops.im2col` of the channels-first sample,
    flattened to ``(n, P * C*k*k)``: entries run in its exact
    ``(out_h, out_w, C, k, k)`` order.  A gather is a pure copy, so the
    patch matrix is bitwise the Tensor path's.  The index depends on the
    geometry only — not on the batch width — and costs one ``intp`` per
    patch-matrix element of a single sample.
    """
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    row = (width + 2 * padding) * channels

    def offsets(count: int, step: int) -> np.ndarray:
        return np.arange(count, dtype=np.intp) * step

    index = sum(np.ix_(
        offsets(out_h, stride * row),       # window row
        offsets(out_w, stride * channels),  # window column
        offsets(channels, 1),
        offsets(kernel, row),               # tap row
        offsets(kernel, channels),          # tap column
    ))
    return index.reshape(-1)


class _Cols:
    """The patch matrix of one input shape and the gather that fills it."""

    __slots__ = ("interior", "flat", "index", "flat_cols", "cols")

    def __init__(self, scratch: Scratch, x: np.ndarray, index: np.ndarray,
                 kernel: int, padding: int):
        n, h, w, c = x.shape
        if padding > 0 or not x.flags.c_contiguous:
            # np.pad (the Tensor path) builds a fresh zero array each call;
            # here the border is zeroed once, at allocation, and only the
            # interior is ever rewritten.  A strided input (the request
            # frame's channels-last view) is staged here too: its transpose.
            padded = scratch.rows(
                "pad", n, (h + 2 * padding, w + 2 * padding, c), x.dtype, np.zeros
            )
            self.interior = padded[:, padding : padding + h, padding : padding + w]
            self.flat = padded.reshape(n, -1)
        else:
            self.interior = self.flat = None
        self.index = index
        width = c * kernel * kernel
        cols = scratch.rows("cols", n, (index.size // width, width), x.dtype)
        self.flat_cols = cols.reshape(n, -1)
        self.cols = cols

    def fill(self, x: np.ndarray) -> None:
        if self.interior is None:
            flat = x.reshape(x.shape[0], -1)
        else:
            np.copyto(self.interior, x)
            flat = self.flat
        # planverify proved every entry in range when the index was built,
        # so no mode ever fires; "wrap" is simply the cheapest one (this
        # 8x16x5x5 gather: 17 us, "clip" 22 us, "raise" — which checks and
        # buffers ``out`` — 30 us).
        np.take(flat, self.index, axis=1, out=self.flat_cols, mode="wrap")


# --------------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------------- #
class ConvBinding:
    __slots__ = ("dtype", "weight", "bias", "patches", "weight_t", "gemm",
                 "bias_row", "out")


def bind_conv(scratch: Scratch, x: np.ndarray, weight: np.ndarray,
              bias: Optional[np.ndarray], index: np.ndarray,
              kernel: int, stride: int, padding: int) -> ConvBinding:
    """Bind ``functional.conv2d``'s forward for channels-last inputs shaped
    like ``x``.

    The GEMM keeps the Tensor path's exact ``(N, P, CKK) @ (CKK, O)`` shape —
    a stack of per-sample matrix products — so every sample's result is
    independent of batch composition (the property the serving layer's slot
    splicing and the stem cache both rely on).  Its ``(N, P, O)`` result is
    already the channels-last ``(N, out_h, out_w, O)`` output, so the GEMM
    buffer *is* the output: the bias is added in place and nothing is
    copied.  The result keeps the input dtype, mirroring the Tensor path's
    trailing ``astype``.
    """
    n, h, w, _ = x.shape
    out_channels = weight.shape[0]
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    bound = ConvBinding()
    bound.dtype = x.dtype
    bound.weight, bound.bias = weight, bias
    bound.patches = _Cols(scratch, x, index, kernel, padding)
    bound.weight_t = weight.reshape(out_channels, -1).T
    bound.gemm = scratch.rows(
        "gemm", n, (out_h * out_w, out_channels), x.dtype
    )
    bound.bias_row = None if bias is None else bias.reshape(1, 1, -1)
    bound.out = bound.gemm.reshape(n, out_h, out_w, out_channels)
    return scratch.bind(x.shape, bound)


def conv2d_step(bound: ConvBinding, x: np.ndarray) -> np.ndarray:
    """Forward of ``functional.conv2d``: gather + batched GEMM, all bound."""
    bound.patches.fill(x)
    gemm = bound.gemm
    np.matmul(bound.patches.cols, bound.weight_t, out=gemm)
    if bound.bias_row is not None:
        np.add(gemm, bound.bias_row, out=gemm)
    return bound.out


# --------------------------------------------------------------------------- #
# LIF
# --------------------------------------------------------------------------- #
class LIFBinding:
    __slots__ = ("dtype", "reset", "u", "fired", "spikes", "tmp", "membrane",
                 "count_exact")


def bind_lif(scratch: Scratch, current: np.ndarray, reset: str) -> LIFBinding:
    """Bind one LIF timestep for currents shaped (and typed) like ``current``.

    ``tau`` and ``V_th`` are weak scalars, so the potential, the spikes, the
    reset term and the membrane all keep the current's dtype.
    """
    n, row, dtype = current.shape[0], current.shape[1:], current.dtype
    bound = LIFBinding()
    bound.dtype = dtype
    bound.reset = reset
    bound.u = scratch.rows("u", n, row, dtype)
    bound.fired = scratch.rows("fired", n, row, np.bool_)
    bound.spikes = scratch.rows("spikes", n, row, dtype)
    bound.tmp = scratch.rows("tmp", n, row, dtype)
    bound.membrane = scratch.rows("membrane", n, row, dtype)
    bound.count_exact = bound.spikes.size <= _EXACT_FLOAT32_COUNT
    return scratch.bind(current.shape, bound)


def lif_step(bound: LIFBinding, current: np.ndarray, membrane: Optional[np.ndarray],
             tau: np.ndarray, v_threshold: float, v_th_scalar: np.ndarray) -> None:
    """One LIF timestep fused into a single kernel: charge, fire, reset.

    Replicates :meth:`LIFNeuron.forward` op for op — ``u = m*tau + I``, hard
    reset ``u * (1 - s)`` or soft reset ``u - s*V_th`` — and leaves the
    results in ``bound.spikes`` / ``bound.membrane``.  A ``membrane`` of
    ``None`` is a fresh state.  ``tau`` and ``v_th_scalar`` arrive as the
    float32 0-d arrays ``as_tensor`` gives those scalars on the Tensor path;
    the plan materializes them once at lowering
    (:class:`~repro.runtime.plan.LIFOp`).
    """
    if membrane is None:
        u = current
    else:
        u = bound.u
        np.multiply(membrane, tau, out=u)
        np.add(u, current, out=u)
    spikes, tmp = bound.spikes, bound.tmp
    np.greater(u, v_threshold, out=bound.fired)
    np.copyto(spikes, bound.fired)
    if bound.reset == "hard":
        np.subtract(1.0, spikes, out=tmp)  # dtype-ok: NEP-50 weak scalar: 1.0 adopts the spikes dtype, same as the Tensor path's ones_like
        np.multiply(u, tmp, out=bound.membrane)
    else:
        np.multiply(spikes, v_th_scalar, out=tmp)
        np.subtract(u, tmp, out=bound.membrane)


def spike_count(bound: LIFBinding) -> float:
    """``float(spikes.sum())`` of the last step — the layer's bookkeeping.

    Counting the boolean fire mask is exact; so is the Tensor path's sum of
    0/1 values while the tensor has at most 2**24 elements.  Beyond that a
    float32 sum rounds, and the same sum is taken here to round with it.
    """
    if bound.count_exact:
        return float(np.count_nonzero(bound.fired))
    return float(np.sum(bound.spikes))


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
class PoolTapsBinding:
    """The ``kernel**2`` strided slices of one input buffer, im2col order."""

    __slots__ = ("source", "first", "second", "rest", "window", "out")


def bind_pool_taps(scratch: Scratch, x: np.ndarray, kernel: int,
                   stride: int) -> PoolTapsBinding:
    # Channels-last: a tap slices the two spatial axes only, so each of its
    # elements is a contiguous run of C channels.
    n, h, w, c = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    taps = [
        x[:, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
        for i in range(kernel)
        for j in range(kernel)
    ]
    bound = PoolTapsBinding()
    bound.source = x
    bound.first = taps[0]
    bound.second = taps[1] if len(taps) > 1 else None
    bound.rest = tuple(taps[2:])
    bound.window = kernel * kernel
    bound.out = scratch.rows("out", n, (out_h, out_w, c), x.dtype)
    return scratch.bind(x.shape, bound)


def avg_pool_taps_step(bound: PoolTapsBinding) -> np.ndarray:
    """Forward of ``functional.avg_pool2d`` for windows of at most 8 taps.

    NumPy's pairwise summation degenerates to a plain sequential loop for
    reductions of at most eight elements, so adding the taps in im2col
    column order — ``((a + b) + c) + d`` — produces the exact same float
    grouping as ``cols.mean(axis=3)``, without materializing the patch
    matrix at all.
    """
    out = bound.out
    if bound.second is None:
        np.copyto(out, bound.first)
    else:
        np.add(bound.first, bound.second, out=out)
        for tap in bound.rest:
            np.add(out, tap, out=out)
    np.divide(out, bound.window, out=out)
    return out


def max_pool_step(bound: PoolTapsBinding) -> np.ndarray:
    """Forward of ``functional.max_pool2d`` (values only; no argmax needed).

    ``max`` is an order-invariant reduction, so the strided-slice form is
    exact for every window size.
    """
    out = bound.out
    if bound.second is None:
        np.copyto(out, bound.first)
    else:
        np.maximum(bound.first, bound.second, out=out)
        for tap in bound.rest:
            np.maximum(out, tap, out=out)
    return out


class PoolColsBinding:
    __slots__ = ("dtype", "patches", "windows", "pooled", "out")


def bind_avg_pool_cols(scratch: Scratch, x: np.ndarray, index: np.ndarray,
                       kernel: int, stride: int) -> PoolColsBinding:
    n, h, w, c = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    bound = PoolColsBinding()
    bound.dtype = x.dtype
    bound.patches = _Cols(scratch, x, index, kernel, 0)
    bound.windows = bound.patches.cols.reshape(n, out_h * out_w, c, kernel * kernel)
    bound.pooled = scratch.rows("pooled", n, (out_h * out_w, c), x.dtype)
    bound.out = bound.pooled.reshape(n, out_h, out_w, c)
    return scratch.bind(x.shape, bound)


def avg_pool_cols_step(bound: PoolColsBinding, x: np.ndarray) -> np.ndarray:
    """Forward of ``functional.avg_pool2d`` for larger windows (the ResNet
    global pool): the faithful im2col + ``mean`` form, whose ``(N, P, C)``
    result is already the channels-last output."""
    bound.patches.fill(x)
    bound.windows.mean(axis=3, out=bound.pooled)
    return bound.out


# --------------------------------------------------------------------------- #
# Flatten / Linear / ReLU / residual add
# --------------------------------------------------------------------------- #
class FlattenBinding:
    __slots__ = ("dtype", "staged", "out")


def bind_flatten(scratch: Scratch, x: np.ndarray) -> FlattenBinding:
    """Bind ``Flatten`` of a channels-last ``(N, H, W, C)`` map: the rows
    come out in the Tensor path's channels-first ``C*H*W`` order."""
    n, h, w, c = x.shape
    bound = FlattenBinding()
    bound.dtype = x.dtype
    bound.out = scratch.rows("out", n, (c * h * w,), x.dtype)
    bound.staged = channels_last(bound.out.reshape(n, c, h, w))
    return scratch.bind(x.shape, bound)


def flatten_step(bound: FlattenBinding, x: np.ndarray) -> np.ndarray:
    """The one place the plan leaves channels-last: a pure copy."""
    np.copyto(bound.staged, x)
    return bound.out


def linear_step(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]) -> np.ndarray:
    """Forward of ``functional.linear``.

    Deliberately allocates a fresh output: the classifier logits outlive the
    timestep (running sums, cumulative means), so handing callers a reused
    buffer would force defensive copies at every call site.
    """
    out = np.matmul(x, weight.T)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


class ReLUBinding:
    __slots__ = ("dtype", "mask", "out")


def bind_relu(scratch: Scratch, x: np.ndarray) -> ReLUBinding:
    n, row = x.shape[0], x.shape[1:]
    bound = ReLUBinding()
    bound.dtype = x.dtype
    bound.mask = scratch.rows("mask", n, row, np.bool_)
    bound.out = scratch.rows("out", n, row, x.dtype)
    return scratch.bind(x.shape, bound)


def relu_step(bound: ReLUBinding, x: np.ndarray) -> np.ndarray:
    """Forward of ``Tensor.relu`` (``x * (x > 0)``)."""
    np.greater(x, 0, out=bound.mask)
    np.multiply(x, bound.mask, out=bound.out)
    return bound.out


class AddBinding:
    __slots__ = ("dtype", "out")


def bind_add(scratch: Scratch, a: np.ndarray, b: np.ndarray) -> AddBinding:
    bound = AddBinding()
    bound.dtype = a.dtype
    bound.out = scratch.rows("out", a.shape[0], a.shape[1:], a.dtype)
    return scratch.bind(a.shape, bound)


def add_step(bound: AddBinding, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Residual sum (``Tensor.__add__`` forward)."""
    np.add(a, b, out=bound.out)
    return bound.out
