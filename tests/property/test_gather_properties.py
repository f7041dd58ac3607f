"""Property tests: the gather-index im2col is ``autograd.ops.im2col``.

The compiled plan unrolls patches with one ``np.take`` against a precomputed
flat index instead of the Tensor path's strided window view, and it gathers
from channels-last ``(N, H, W, C)`` sources while the Tensor path unrolls
channels-first ones.  A gather is a pure copy, so the claim is exact
equality — of the patch matrix, and of the whole convolution built on it —
for every geometry, not only the 3x3 / stride 1 / padding 1 windows the
standard builders use: stride 2, padding 0 and non-square maps included,
from the request frame's strided channels-last view as well as from a
contiguous register.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.analysis.planverify import PlanVerificationError, verify_gather_index
from repro.autograd import Tensor, functional as F, no_grad
from repro.autograd.ops import conv_output_size, im2col
from repro.nn import Conv2d
from repro.runtime import kernels
from repro.runtime.kernels import Scratch, channels_last, gather_index
from repro.runtime.plan import ConvOp

geometries = st.tuples(
    st.integers(1, 5),   # channels
    st.integers(3, 12),  # height
    st.integers(3, 12),  # width
    st.integers(1, 5),   # kernel
    st.integers(1, 3),   # stride
    st.integers(0, 2),   # padding
)


def _fits(height, width, kernel, padding) -> bool:
    return kernel <= min(height, width) + 2 * padding


@settings(max_examples=150, deadline=None)
@given(geometry=geometries, batch=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
@example(geometry=(3, 7, 10, 3, 2, 0), batch=2, seed=0)
def test_gather_index_reproduces_im2col(geometry, batch, seed):
    channels, height, width, kernel, stride, padding = geometry
    assume(_fits(height, width, kernel, padding))
    images = np.random.default_rng(seed).standard_normal(
        (batch, channels, height, width)
    ).astype(np.float32)
    index = gather_index(channels, height, width, kernel, stride, padding)
    assert verify_gather_index(
        index, (channels, height, width), kernel, stride, padding
    ) is index

    reference, out_h, out_w = im2col(images, kernel, stride, padding)
    border = ((0, 0), (padding, padding), (padding, padding), (0, 0))
    source = np.pad(channels_last(images), border).reshape(batch, -1)
    gathered = np.take(source, index, axis=1)
    assert np.array_equal(gathered.reshape(reference.shape), reference)
    assert index.size == out_h * out_w * channels * kernel * kernel


@settings(max_examples=100, deadline=None)
@given(geometry=geometries, out_channels=st.integers(1, 4),
       widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       bias=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(geometry=(3, 7, 10, 3, 2, 0), out_channels=4, widths=[3, 1],
         bias=True, seed=0)
def test_conv_op_equals_functional_conv2d(geometry, out_channels, widths, bias, seed):
    """One op, one scratch, several batch widths in a row: every width's
    binding reproduces ``functional.conv2d`` bit for bit, whether the input
    is the frame's strided channels-last view (staged through the padding
    buffer) or a contiguous channels-last register (gathered in place)."""
    channels, height, width, kernel, stride, padding = geometry
    assume(_fits(height, width, kernel, padding))
    rng = np.random.default_rng(seed)
    module = Conv2d(channels, out_channels, kernel, stride=stride,
                    padding=padding, bias=bias)
    if bias:
        module.bias.data = rng.standard_normal(out_channels).astype(np.float32)
    for contiguous in (False, True):
        op = ConvOp(0, 1, module)
        scratch = Scratch()
        for batch in widths:
            x = rng.standard_normal((batch, channels, height, width)).astype(np.float32)
            source = channels_last(x)
            regs = [np.ascontiguousarray(source) if contiguous else source, None]
            op.run(regs, scratch, [], False)
            with no_grad():
                expected = F.conv2d(
                    Tensor(x), module.weight, module.bias, stride=stride, padding=padding
                ).data
            assert regs[1].dtype == expected.dtype
            assert regs[1].flags.c_contiguous
            assert np.array_equal(regs[1].transpose(0, 3, 1, 2), expected)


def _channels_first_index(channels, height, width, kernel, stride, padding):
    """An im2col gather index over a channels-first ``(C, Hp, Wp)`` sample."""
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded_w = width + 2 * padding
    plane = (height + 2 * padding) * padded_w

    def offsets(count, step):
        return np.arange(count, dtype=np.intp) * step

    return sum(np.ix_(
        offsets(out_h, stride * padded_w), offsets(out_w, stride),
        offsets(channels, plane), offsets(kernel, padded_w), offsets(kernel, 1),
    )).reshape(-1)


def test_a_channels_first_index_is_refused_by_name(monkeypatch):
    """In range, right length, right dtype — and the wrong layout: the
    gather proof rejects it where it is built, naming the op."""
    module = Conv2d(3, 4, 3, stride=2, padding=1)
    op = ConvOp(0, 1, module)
    monkeypatch.setattr(kernels, "gather_index", _channels_first_index)
    frame = np.zeros((2, 3, 6, 5), dtype=np.float32)
    with pytest.raises(PlanVerificationError,
                       match="disagrees with autograd.ops.im2col") as info:
        op.run([channels_last(frame), None], Scratch(), [], False)
    assert op.describe() in str(info.value)
    assert op._gather is None
