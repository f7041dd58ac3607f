"""Property tests: the gather-index im2col is ``autograd.ops.im2col``.

The compiled plan unrolls patches with one ``np.take`` against a precomputed
flat index instead of the Tensor path's strided window view.  A gather is a
pure copy, so the claim is exact equality — of the patch matrix, and of the
whole convolution built on it — for every geometry, not only the 3x3 /
stride 1 / padding 1 windows the standard builders use.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.planverify import verify_gather_index
from repro.autograd import Tensor, functional as F, no_grad
from repro.autograd.ops import im2col
from repro.nn import Conv2d
from repro.runtime.kernels import Scratch, gather_index
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
    border = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    gathered = np.take(np.pad(images, border).reshape(batch, -1), index, axis=1)
    assert np.array_equal(gathered.reshape(reference.shape), reference)
    assert index.size == out_h * out_w * channels * kernel * kernel


@settings(max_examples=100, deadline=None)
@given(geometry=geometries, out_channels=st.integers(1, 4),
       widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       bias=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_conv_op_equals_functional_conv2d(geometry, out_channels, widths, bias, seed):
    """One op, one scratch, several batch widths in a row: every width's
    binding reproduces ``functional.conv2d`` bit for bit."""
    channels, height, width, kernel, stride, padding = geometry
    assume(_fits(height, width, kernel, padding))
    rng = np.random.default_rng(seed)
    module = Conv2d(channels, out_channels, kernel, stride=stride,
                    padding=padding, bias=bias)
    if bias:
        module.bias.data = rng.standard_normal(out_channels).astype(np.float32)
    op = ConvOp(0, 1, module)
    scratch = Scratch()
    for batch in widths:
        x = rng.standard_normal((batch, channels, height, width)).astype(np.float32)
        regs = [x, None]
        op.run(regs, scratch, [], False)
        with no_grad():
            expected = F.conv2d(
                Tensor(x), module.weight, module.bias, stride=stride, padding=padding
            ).data
        assert regs[1].dtype == expected.dtype
        assert np.array_equal(regs[1], expected)
