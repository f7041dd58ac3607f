"""Fused, graph-free NumPy kernels for the inference fast path.

Every kernel in this module is a *bitwise-faithful* re-implementation of the
forward half of one autograd operator (see :mod:`repro.autograd.functional`
and :class:`repro.snn.neurons.LIFNeuron`): it performs the exact same NumPy
operations, on the same shapes, in the same order — it only skips the graph
bookkeeping (Tensor allocation, parent tuples, backward closures) and reuses
scratch buffers across timesteps.  That is what makes the compiled-plan
executor provably equivalent to the define-by-run path: the floating-point
work is *identical*, not merely close.

Dtype discipline
----------------
The stack is weak-scalar float32 (:mod:`repro.autograd.dtypes`,
docs/NUMERICS.md): scalars that the Tensor path routes through
``as_tensor`` adopt the dtype of the array they combine with, so every
buffer here is float32 under the default policy.  Scalar constants reach the
kernels already materialized by the plan, at lowering, through the same
:func:`~repro.autograd.dtypes.scalar_operand` helper — which keeps them
bitwise-faithful in *either* mode: under ``REPRO_FLOAT64=1`` the helper
reproduces the seed's float64 0-d scalars and the buffers promote exactly
like the legacy Tensor path did.  The ``np.result_type`` plumbing is kept
for that reason: it collapses to float32 everywhere by default and tracks
the legacy promotion chain under the escape hatch.  No kernel reads the
environment.

Buffer discipline
-----------------
Kernels receive a per-op ``scratch`` dict owned by the executor.  Each key
holds ONE buffer sized to the widest batch seen so far; a narrower call gets
the leading-row view of it, so the width changes of continuous batching
(early exits compact, admissions grow) never reallocate.

In-place NumPy ufuncs (``np.add(a, b, out=buf)``) produce results bitwise
identical to their allocating forms (``a + b``) as long as ``buf`` has the
promoted result dtype, so buffer reuse never perturbs the equivalence
contract.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd.ops import conv_output_size

__all__ = [
    "ensure_buffer",
    "im2col_cached",
    "conv2d_step",
    "batchnorm_step",
    "lif_step",
    "avg_pool_step",
    "max_pool_step",
    "linear_step",
    "relu_step",
    "add_step",
]

Scratch = Dict[str, np.ndarray]


def ensure_buffer(scratch: Scratch, key: str, shape: Tuple[int, ...], dtype,
                  allocate=np.empty) -> np.ndarray:
    """The leading ``shape[0]`` rows of the one buffer kept under ``key``.

    The buffer is replaced (through ``allocate``) only when the per-row shape
    or dtype changes or the batch outgrows it, so resident scratch is bounded
    by the widest batch ever run — never by how often the width changed.
    """
    buffer = scratch.get(key)
    if buffer is not None and buffer.dtype == dtype:
        if buffer.shape == shape:
            return buffer
        if buffer.shape[0] > shape[0] and buffer.shape[1:] == shape[1:]:
            return buffer[: shape[0]]
    buffer = allocate(shape, dtype=dtype)
    scratch[key] = buffer
    return buffer


def _padded_view(images: np.ndarray, padding: int, scratch: Scratch) -> np.ndarray:
    """Zero-padded copy of ``images`` with a reused border buffer.

    ``np.pad`` (the Tensor path) builds a fresh zero array each call; here the
    border is zeroed once at allocation and only the interior is rewritten, so
    the values are identical while the allocation amortizes to nothing.
    """
    n, c, h, w = images.shape
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    padded = ensure_buffer(scratch, "pad", shape, images.dtype, allocate=np.zeros)
    padded[:, :, padding : padding + h, padding : padding + w] = images
    return padded


def im2col_cached(
    images: np.ndarray, kernel: int, stride: int, padding: int, scratch: Scratch
) -> Tuple[np.ndarray, int, int]:
    """Patch unrolling with reused column/pad buffers.

    Value-identical to :func:`repro.autograd.ops.im2col` (same strided window
    view, same transpose order); the contiguous copy lands in a reused buffer
    instead of a fresh ``ascontiguousarray`` allocation.
    """
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        images = _padded_view(images, padding, scratch)
    cols = ensure_buffer(scratch, "cols", (n, out_h * out_w, c * kernel * kernel), images.dtype)
    cols_view = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    # One strided copy per kernel tap instead of a single 6-D gather: the
    # values land in exactly the im2col layout, but each copy is a simple 4-D
    # slice NumPy moves far faster than the tiny-inner-loop window view.
    for i in range(kernel):
        for j in range(kernel):
            tap = images[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
            cols_view[:, :, :, :, i, j] = tap.transpose(0, 2, 3, 1)
    return cols, out_h, out_w


def conv2d_step(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    kernel: int,
    stride: int,
    padding: int,
    scratch: Scratch,
) -> np.ndarray:
    """Forward of ``functional.conv2d``: im2col + batched GEMM, buffers reused.

    The GEMM keeps the Tensor path's exact ``(N, P, CKK) @ (CKK, O)`` shape —
    a stack of per-sample matrix products — so every sample's result is
    independent of batch composition (the property the serving layer's slot
    splicing and the stem cache both rely on).  The result is cast to the
    input dtype, mirroring the Tensor path's trailing ``astype``.
    """
    n = x.shape[0]
    out_channels = weight.shape[0]
    cols, out_h, out_w = im2col_cached(x, kernel, stride, padding, scratch)
    flat_weight = weight.reshape(out_channels, -1)
    gemm_dtype = np.result_type(cols.dtype, flat_weight.dtype)
    gemm = ensure_buffer(scratch, "gemm", (n, out_h * out_w, out_channels), gemm_dtype)
    np.matmul(cols, flat_weight.T, out=gemm)
    if bias is not None:
        np.add(gemm, bias.reshape(1, 1, -1), out=gemm)
    out = ensure_buffer(scratch, "out", (n, out_channels, out_h, out_w), x.dtype)
    np.copyto(out.reshape(n, out_channels, out_h * out_w), gemm.transpose(0, 2, 1))
    return out


def batchnorm_step(
    x: np.ndarray,
    mean: np.ndarray,
    std: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    scale: Optional[np.ndarray],
    scratch: Scratch,
) -> np.ndarray:
    """Eval-mode (temporal) batch norm as one fused elementwise chain.

    Mirrors the Tensor op order *and dtype promotion* exactly — subtract in
    the input dtype, divide by the ``sqrt(var + eps)`` denominator, scale by
    gamma, (tdBN threshold scale,) add beta.  Regrouping the constants here
    would change float rounding relative to the unfused Tensor modules, so
    this kernel stays op-faithful.  Under the default policy it runs only
    for norm layers standing *outside* a conv→norm block pair (those fold
    into the conv GEMM via :mod:`repro.snn.folding` on both paths); under
    ``REPRO_FLOAT64=1`` folding is disabled and block norms run through
    this kernel too, reproducing the legacy promotion chain.
    """
    sub = ensure_buffer(scratch, "sub", x.shape, np.result_type(x.dtype, mean.dtype))
    np.subtract(x, mean, out=sub)
    out = ensure_buffer(scratch, "out", x.shape, np.result_type(sub.dtype, std.dtype))
    np.divide(sub, std, out=out)
    np.multiply(out, gamma, out=out)
    if scale is not None:
        np.multiply(out, scale, out=out)
    np.add(out, beta, out=out)
    return out


def lif_step(
    current: np.ndarray,
    membrane: Optional[np.ndarray],
    tau: np.ndarray,
    v_threshold: float,
    v_th_scalar: np.ndarray,
    reset: str,
    scratch: Scratch,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """One LIF timestep fused into a single kernel: charge, fire, reset.

    Replicates :meth:`LIFNeuron.forward` op for op — ``u = m*tau + I``, hard
    reset ``u * (1 - s)`` or soft reset ``u - s*V_th`` — and returns
    ``(spikes, new_membrane, spike_count)``.  A ``membrane`` of ``None`` (or
    of a stale shape) is a fresh state, matching the layer's semantics.
    ``tau`` and ``v_th_scalar`` arrive as the 0-d arrays ``as_tensor`` gives
    those scalars on the Tensor path (float32 under the default policy,
    float64 under ``REPRO_FLOAT64=1``): the plan materializes them once at
    lowering (:class:`~repro.runtime.plan.LIFOp`), because plans are
    mode-bound and the dtype mode must not be re-read per timestep.
    """
    if membrane is not None and membrane.shape != current.shape:
        membrane = None
    if membrane is None:
        u = current
    else:
        u = ensure_buffer(
            scratch, "u", current.shape,
            np.result_type(membrane.dtype, tau.dtype, current.dtype),
        )
        np.multiply(membrane, tau, out=u)
        np.add(u, current, out=u)

    fired = ensure_buffer(scratch, "fired", u.shape, np.bool_)
    np.greater(u, v_threshold, out=fired)
    spikes = ensure_buffer(scratch, "spikes", u.shape, u.dtype)
    np.copyto(spikes, fired)

    if reset == "hard":
        # membrane * (ones_like(spikes) - spikes): stays in the spike dtype,
        # then promotes against u.
        tmp = ensure_buffer(scratch, "tmp", u.shape, spikes.dtype)
        np.subtract(1.0, spikes, out=tmp)  # dtype-ok: NEP-50 weak scalar: 1.0 adopts the spikes dtype, same as the Tensor path's ones_like
    else:
        # membrane - spikes * V_th: the scalar adopts the spike dtype (or
        # promotes to float64 under the legacy escape hatch).
        tmp = ensure_buffer(
            scratch, "tmp", u.shape, np.result_type(spikes.dtype, v_th_scalar.dtype)
        )
        np.multiply(spikes, v_th_scalar, out=tmp)
    new_membrane = ensure_buffer(
        scratch, "membrane", u.shape, np.result_type(u.dtype, tmp.dtype)
    )
    if reset == "hard":
        np.multiply(u, tmp, out=new_membrane)
    else:
        np.subtract(u, tmp, out=new_membrane)
    spike_count = float(spikes.sum())
    return spikes, new_membrane, spike_count


def _pool_taps(x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int):
    """The ``kernel**2`` strided slices of ``x``, in im2col column order."""
    for i in range(kernel):
        for j in range(kernel):
            yield x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]


def avg_pool_step(x: np.ndarray, kernel: int, stride: int, scratch: Scratch) -> np.ndarray:
    """Forward of ``functional.avg_pool2d`` with reused buffers.

    For small windows (``kernel**2 <= 8``, i.e. the ubiquitous 2x2 pool) the
    window mean is accumulated directly from strided slices: NumPy's pairwise
    summation degenerates to a plain sequential loop for reductions of at
    most eight elements, so adding the taps in im2col column order produces
    the exact same float grouping as ``cols.mean(axis=3)`` — without
    materializing the patch matrix at all.  Larger windows (the ResNet global
    pool) keep the faithful im2col + ``mean`` path.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    if kernel * kernel <= 8:
        acc = ensure_buffer(scratch, "acc", (n, c, out_h, out_w), x.dtype)
        first = True
        for tap in _pool_taps(x, kernel, stride, out_h, out_w):
            if first:
                np.copyto(acc, tap)
                first = False
            else:
                np.add(acc, tap, out=acc)
        np.divide(acc, kernel * kernel, out=acc)
        return acc
    cols, out_h, out_w = im2col_cached(x, kernel, stride, 0, scratch)
    cols4 = cols.reshape(n, out_h * out_w, c, kernel * kernel)
    pooled = ensure_buffer(scratch, "pooled", (n, out_h * out_w, c), x.dtype)
    cols4.mean(axis=3, out=pooled)
    out = ensure_buffer(scratch, "out", (n, c, out_h, out_w), x.dtype)
    np.copyto(out.reshape(n, c, out_h * out_w), pooled.transpose(0, 2, 1))
    return out


def max_pool_step(x: np.ndarray, kernel: int, stride: int, scratch: Scratch) -> np.ndarray:
    """Forward of ``functional.max_pool2d`` (values only; no argmax needed).

    ``max`` is an order-invariant reduction, so the strided-slice form is
    exact for every window size.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    acc = ensure_buffer(scratch, "acc", (n, c, out_h, out_w), x.dtype)
    first = True
    for tap in _pool_taps(x, kernel, stride, out_h, out_w):
        if first:
            np.copyto(acc, tap)
            first = False
        else:
            np.maximum(acc, tap, out=acc)
    return acc


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


def relu_step(x: np.ndarray, scratch: Scratch) -> np.ndarray:
    """Forward of ``Tensor.relu`` (``x * (x > 0)``)."""
    mask = ensure_buffer(scratch, "mask", x.shape, np.bool_)
    np.greater(x, 0, out=mask)
    out = ensure_buffer(scratch, "out", x.shape, x.dtype)
    np.multiply(x, mask, out=out)
    return out


def add_step(a: np.ndarray, b: np.ndarray, scratch: Scratch) -> np.ndarray:
    """Residual sum (``Tensor.__add__`` forward)."""
    out = ensure_buffer(scratch, "out", a.shape, np.result_type(a.dtype, b.dtype))
    np.add(a, b, out=out)
    return out
