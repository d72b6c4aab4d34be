"""The fused training nodes against the primitive-op graphs they replace.

``LayerNorm``, ``Linear`` and ``gelu`` each build one autograd node whose
forward repeats the primitive ops in the same order (bit-identical output)
and whose backward is analytic (gradients equal the composed graph's up to
round-off).  The row-gather backward of ``Tensor.__getitem__`` is one
``np.bincount``, bit-identical to the ``np.add.at`` scatter.  The first
gradient share a tensor receives is a private copy.
"""

import numpy as np
import pytest

from repro.nn import LayerNorm, Linear, Tensor, no_grad
from repro.nn.functional import gelu

RNG = np.random.default_rng(19)


def _layer_norm_composed(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def _linear_composed(x, weight, bias):
    rows = x.reshape(-1, x.shape[-1]) @ weight
    if bias is not None:
        rows = rows + bias
    return rows.reshape(x.shape[:-1] + (weight.shape[1],))


def _gelu_composed(x):
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def _leaf(array):
    return Tensor(np.array(array, dtype=np.float64), requires_grad=True)


def _run(fn, arrays, upstream):
    """Forward ``fn`` on fresh leaves, backprop ``upstream``; return both."""
    leaves = [_leaf(a) for a in arrays]
    out = fn(*leaves)
    out.backward(upstream)
    return out.data, [leaf.grad for leaf in leaves]


def _compare(fused, composed, arrays, out_shape):
    upstream = RNG.standard_normal(out_shape)
    fused_out, fused_grads = _run(fused, arrays, upstream)
    composed_out, composed_grads = _run(composed, arrays, upstream)
    np.testing.assert_array_equal(fused_out, composed_out)
    for got, want in zip(fused_grads, composed_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(5,), (3, 5), (2, 4, 5), (0, 5)])
def test_layer_norm_matches_composition(shape):
    layer = LayerNorm(5)
    gamma = RNG.standard_normal(5)
    beta = RNG.standard_normal(5)

    def fused(x, g, b):
        layer.gamma, layer.beta = g, b
        return layer(x)

    def composed(x, g, b):
        return _layer_norm_composed(x, g, b, layer.eps)

    _compare(fused, composed, [RNG.standard_normal(shape) * 3.0, gamma, beta], shape)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), (0, 4)])
def test_linear_matches_composition(shape, bias):
    layer = Linear(4, 6, bias=bias, rng=np.random.default_rng(3))
    arrays = [RNG.standard_normal(shape), layer.weight.data]
    if bias:
        arrays.append(RNG.standard_normal(6))

    def fused(x, w, b=None):
        layer.weight, layer.bias = w, b
        return layer(x)

    def composed(x, w, b=None):
        return _linear_composed(x, w, b)

    _compare(fused, composed, arrays, shape[:-1] + (6,))


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
def test_gelu_matches_composition(shape):
    x = RNG.uniform(-6.0, 6.0, size=shape)
    _compare(gelu, _gelu_composed, [x], shape)


@pytest.mark.parametrize(
    "index",
    [
        np.array([3, 0, 5, 1]),  # unique rows
        np.array([[0, 2, 2], [4, 0, 2]]),  # repeated rows
        np.array([[-1, 2, -6], [5, -1, 0]]),  # negative rows
    ],
    ids=["unique", "repeated", "negative"],
)
@pytest.mark.parametrize("table_shape", [(6,), (6, 3), (6, 2, 3)])
def test_getitem_scatter_equals_add_at(index, table_shape):
    table = _leaf(RNG.standard_normal(table_shape))
    upstream = RNG.standard_normal(index.shape + table_shape[1:])
    table[index].backward(upstream)
    expected = np.zeros(table_shape)
    np.add.at(expected, index, upstream)
    np.testing.assert_array_equal(table.grad, expected)
    assert table.grad.dtype == np.float64


def test_getitem_scatter_of_empty_index_is_float_zeros():
    table = _leaf(RNG.standard_normal((4, 3)))
    table[np.zeros(0, dtype=np.int64)].backward(np.zeros((0, 3)))
    np.testing.assert_array_equal(table.grad, np.zeros((4, 3)))
    assert table.grad.dtype == np.float64


def test_parents_sharing_one_grad_array_get_independent_buffers():
    a = _leaf(RNG.standard_normal((2, 3)))
    b = _leaf(RNG.standard_normal((2, 3)))
    # ``a + b`` hands the same upstream array to both parents.
    (a + b).backward(np.ones((2, 3)))
    assert a.grad is not b.grad
    assert not np.shares_memory(a.grad, b.grad)
    with no_grad():
        a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_mutating_a_passed_gradient_leaves_grad_unchanged():
    x = _leaf(RNG.standard_normal(4))
    upstream = np.arange(4.0)
    x.backward(upstream)
    share = np.full(4, 2.0)
    y = _leaf(np.zeros(4))
    y._accumulate(share)
    upstream[:] = -7.0
    share[:] = -7.0
    np.testing.assert_array_equal(x.grad, np.arange(4.0))
    np.testing.assert_array_equal(y.grad, np.full(4, 2.0))


def test_broadcast_first_share_still_accumulates():
    x = _leaf(np.zeros((2, 3)))
    x._accumulate(np.array([1.0, 2.0, 3.0]))
    x._accumulate(np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])
