"""Tests for the autograd Tensor: arithmetic, broadcasting, backward correctness."""

import numpy as np
import pytest

from repro.autograd import Tensor, concatenate, no_grad, stack, where


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-2) -> np.ndarray:
    """Central-difference numerical gradient of a scalar-valued function.

    ``fn`` evaluates through float32 Tensors (the stack's dtype policy), so
    the step must be large enough that the difference is not drowned by
    float32 roundoff (~1.2e-7 relative per evaluation).  The functions under
    test are at most quadratic, so the larger step adds no truncation error.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = fn(x)
        flat[index] = original - eps
        minus = fn(x)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


class TestBasics:
    def test_tensor_wraps_array_as_float32(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float32
        assert t.shape == (2, 2)

    def test_float64_input_is_coerced_to_float32(self):
        """The documented dtype policy: construction normalizes to float32 —
        including float64 arrays, which the seed silently passed through."""
        t = Tensor(np.arange(4, dtype=np.float64))
        assert t.dtype == np.float32

    def test_python_scalar_wraps_as_float32(self):
        # np.asarray(0.5) alone would be a float64 0-d array (the old leak).
        assert Tensor(0.5).dtype == np.float32
        assert Tensor([0.5, 1.5]).dtype == np.float32

    def test_scalar_operand_does_not_promote(self):
        """Weak-scalar policy: ops with Python scalars stay in the array dtype."""
        t = Tensor(np.ones(3, dtype=np.float32))
        for result in (t * 0.5, t + 0.1, t - 0.1, t / 2.0, 2.0 * t, 1.0 - t):
            assert result.dtype == np.float32

    def test_tensor_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.shares_memory(a.data, b.data)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_len_and_size(self):
        t = Tensor(np.zeros((5, 3)))
        assert len(t) == 5
        assert t.size == 15

    def test_item_on_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2
        with pytest.raises(RuntimeError):
            out.backward()

    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 3
        assert not b.requires_grad

    def test_comparison_returns_bool_array(self):
        a = Tensor([0.5, 1.5])
        mask = a > 1.0
        assert mask.dtype == bool
        assert mask.tolist() == [False, True]


class TestArithmeticForward:
    def test_add_sub_mul_div(self):
        a = Tensor([2.0, 4.0])
        b = Tensor([1.0, 2.0])
        assert np.allclose((a + b).data, [3, 6])
        assert np.allclose((a - b).data, [1, 2])
        assert np.allclose((a * b).data, [2, 8])
        assert np.allclose((a / b).data, [2, 2])

    def test_scalar_operands(self):
        a = Tensor([2.0, 4.0])
        assert np.allclose((a + 1).data, [3, 5])
        assert np.allclose((1 + a).data, [3, 5])
        assert np.allclose((a * 3).data, [6, 12])
        assert np.allclose((3 - a).data, [1, -1])
        assert np.allclose((8 / a).data, [4, 2])

    def test_neg_and_pow(self):
        a = Tensor([2.0, -3.0])
        assert np.allclose((-a).data, [-2, 3])
        assert np.allclose((a**2).data, [4, 9])

    def test_broadcast_add(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3,)))
        assert (a + b).shape == (2, 3)


class TestBackwardElementwise:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3, 4])
        assert np.allclose(b.grad, [1, 2])

    def test_div_backward(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_broadcast_backward_sums_over_broadcast_axes(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [2, 2, 2])

    def test_gradient_accumulates_over_multiple_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * 3 + a * 4
        out.backward()
        assert np.allclose(a.grad, [7.0])

    def test_chain_matches_numerical(self):
        x0 = np.random.default_rng(0).normal(size=(4, 3))

        def f(x):
            t = Tensor(x.astype(np.float64), requires_grad=True)
            return float(((t * 2 + 1) * t).sum().data)

        t = Tensor(x0, requires_grad=True)
        ((t * 2 + 1) * t).sum().backward()
        assert np.allclose(t.grad, numerical_gradient(f, x0.copy()), atol=1e-3)


class TestUnaryOps:
    @pytest.mark.parametrize(
        "op, derivative",
        [
            ("exp", lambda x: np.exp(x)),
            ("log", lambda x: 1.0 / x),
            ("sqrt", lambda x: 0.5 / np.sqrt(x)),
            ("tanh", lambda x: 1 - np.tanh(x) ** 2),
            ("sigmoid", lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
        ],
    )
    def test_unary_gradients(self, op, derivative):
        x = np.array([0.5, 1.2, 2.0], dtype=np.float64)
        t = Tensor(x, requires_grad=True)
        getattr(t, op)().sum().backward()
        assert np.allclose(t.grad, derivative(x), atol=1e-5)

    def test_relu_gradient_masks_negatives(self):
        t = Tensor([-1.0, 0.5], requires_grad=True)
        t.relu().sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0])

    def test_abs_gradient(self):
        t = Tensor([-2.0, 3.0], requires_grad=True)
        t.abs().sum().backward()
        assert np.allclose(t.grad, [-1.0, 1.0])

    def test_clip_gradient_zero_outside_range(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        t = Tensor(np.arange(6).reshape(2, 3), requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_mean_gradient_scales(self):
        t = Tensor(np.ones((4,)), requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        assert np.allclose(t.mean(axis=0).data, np.arange(12).reshape(3, 4).mean(axis=0))

    def test_max_gradient_goes_to_argmax(self):
        t = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        t.max().backward()
        assert np.allclose(t.grad, [0, 1, 0])

    def test_max_axis(self):
        t = Tensor([[1.0, 2.0], [4.0, 3.0]], requires_grad=True)
        out = t.max(axis=1)
        assert np.allclose(out.data, [2, 4])

    def test_var_matches_numpy(self):
        x = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)
        t = Tensor(x)
        assert np.allclose(t.var(axis=0).data, x.var(axis=0), atol=1e-5)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        t = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        t.reshape(2, 3).sum().backward()
        assert t.grad.shape == (6,)

    def test_transpose(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = t.transpose()
        assert out.shape == (3, 2)
        out.sum().backward()
        assert t.grad.shape == (2, 3)

    def test_transpose_with_axes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose(1, 0, 2).shape == (3, 2, 4)

    def test_getitem_gradient_scatter(self):
        t = Tensor(np.arange(5, dtype=np.float32), requires_grad=True)
        t[1:3].sum().backward()
        assert np.allclose(t.grad, [0, 1, 1, 0, 0])

    def test_pad2d_and_gradient(self):
        t = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        out = t.pad2d(1)
        assert out.shape == (1, 1, 4, 4)
        out.sum().backward()
        assert np.allclose(t.grad, np.ones((1, 1, 2, 2)))

    def test_flatten(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.flatten(start_dim=1).shape == (2, 12)


class TestMatmul:
    def test_matmul_forward(self):
        a = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        b = np.random.default_rng(1).normal(size=(4, 5)).astype(np.float32)
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b, atol=1e-5)

    def test_matmul_gradients_match_numerical(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))

        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a @ b).sum().backward()

        def fa(x):
            return float((x @ b0).sum())

        def fb(x):
            return float((a0 @ x).sum())

        assert np.allclose(a.grad, numerical_gradient(fa, a0.copy()), atol=1e-4)
        assert np.allclose(b.grad, numerical_gradient(fb, b0.copy()), atol=1e-4)

    def test_batched_matmul(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.ones((4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (4, 5)
        assert np.allclose(b.grad, np.full((4, 5), 6.0))


class TestCustomGrad:
    def test_custom_grad_forward_is_heaviside(self):
        t = Tensor([-0.5, 0.5, 1.5], requires_grad=True)
        spikes = t.custom_grad(lambda u: (u > 1.0).astype(u.dtype), lambda u: np.ones_like(u))
        assert np.allclose(spikes.data, [0, 0, 1])

    def test_custom_grad_backward_uses_surrogate(self):
        t = Tensor([0.5, 1.0, 2.5], requires_grad=True)
        surrogate = lambda u: np.maximum(0.0, 1.0 - np.abs(u - 1.0))
        spikes = t.custom_grad(lambda u: (u > 1.0).astype(u.dtype), surrogate)
        spikes.sum().backward()
        assert np.allclose(t.grad, surrogate(np.array([0.5, 1.0, 2.5])))


class TestStackConcatWhere:
    def test_stack_forward_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_concatenate_gradient_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2).sum().backward()
        assert np.allclose(a.grad, np.full((2, 2), 2.0))
        assert np.allclose(b.grad, np.full((3, 2), 2.0))

    def test_where_selects_and_routes_gradient(self):
        condition = np.array([True, False])
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = where(condition, a, b)
        assert np.allclose(out.data, [1, 4])
        out.sum().backward()
        assert np.allclose(a.grad, [1, 0])
        assert np.allclose(b.grad, [0, 1])
