"""Masked (ragged-batch) LSTM must equal per-sequence runs at true lengths.

The batched inference engine pads documents to a shared sentence count; the
reverse-direction LSTM would otherwise start from the padded tail and leak
garbage state into every shorter sequence.
"""

import numpy as np
import pytest

from repro.nn import BiLstm, Lstm, Tensor, no_grad

RNG = np.random.default_rng(55)


def prefix_mask(lengths, seq):
    return (np.arange(seq)[None, :] < np.asarray(lengths)[:, None]).astype(
        np.float64
    )


@pytest.mark.parametrize("lengths", [[5, 3, 1], [4, 4], [1], [2, 6, 1, 3]])
def test_masked_inference_matches_per_sequence(lengths):
    seq = max(lengths)
    layer = BiLstm(5, 4, rng=np.random.default_rng(50))
    x = RNG.normal(size=(len(lengths), seq, 5))
    mask = prefix_mask(lengths, seq)
    with no_grad():
        batched = layer(Tensor(x), mask=mask).numpy()
        for b, length in enumerate(lengths):
            single = layer(Tensor(x[b : b + 1, :length])).numpy()
            np.testing.assert_allclose(
                batched[b, :length], single[0], atol=1e-12
            )
            # Padded rows carry exactly zero state.
            np.testing.assert_array_equal(batched[b, length:], 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_masked_training_gradients_match_per_sequence(reverse):
    lengths = [4, 2, 1]
    seq = max(lengths)
    layer = Lstm(3, 4, reverse=reverse, rng=np.random.default_rng(51))
    x = RNG.normal(size=(len(lengths), seq, 3))
    mask = prefix_mask(lengths, seq)
    weights = RNG.normal(size=(len(lengths), seq, 4))

    def zero():
        layer.cell.weight.zero_grad()
        layer.cell.bias.zero_grad()

    zero()
    batched_x = Tensor(x, requires_grad=True)
    out = layer(batched_x, mask=mask)
    (out * Tensor(weights * mask[:, :, None])).sum().backward()
    batched = (
        batched_x.grad.copy(),
        layer.cell.weight.grad.copy(),
        layer.cell.bias.grad.copy(),
    )

    zero()
    grad_x = np.zeros_like(x)
    for b, length in enumerate(lengths):
        single_x = Tensor(x[b : b + 1, :length], requires_grad=True)
        out = layer(single_x)
        (out * Tensor(weights[b : b + 1, :length])).sum().backward()
        grad_x[b, :length] = single_x.grad[0]
    np.testing.assert_allclose(batched[0], grad_x, atol=1e-10)
    np.testing.assert_allclose(batched[1], layer.cell.weight.grad, atol=1e-10)
    np.testing.assert_allclose(batched[2], layer.cell.bias.grad, atol=1e-10)


def test_unmasked_path_unchanged_against_reference():
    # The GEMM-hoisted kernel must still match the compositional recurrence.
    layer = Lstm(4, 3, rng=np.random.default_rng(52))
    x = Tensor(RNG.normal(size=(2, 6, 4)), requires_grad=True)
    fused = layer._forward_train_fused(x)
    reference = layer._forward_train_reference(x)
    np.testing.assert_allclose(fused.numpy(), reference.numpy(), atol=1e-12)


def _per_direction(layer, x, mask):
    return np.concatenate(
        [
            layer.forward_lstm._forward_inference(x, mask),
            layer.backward_lstm._forward_inference(x, mask),
        ],
        axis=-1,
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "batch, seq, lengths",
    [
        (3, 1, None),             # a single time step
        (1, 7, None),             # a single-row batch
        (1, 7, [4]),              # single row, longest row shorter than seq
        (4, 9, [9, 3, 1, 6]),     # ragged suffix masks
        (3, 8, [5, 2, 5]),        # longest row shorter than seq
        (5, 33, [33, 1, 17, 32, 8]),
    ],
)
def test_bilstm_infer_equals_per_direction_recurrence(dtype, batch, seq, lengths):
    # The fused time loop must reproduce the two separate recurrences
    # bit for bit, on the raw path and through the no_grad module call.
    layer = BiLstm(6, 5, rng=np.random.default_rng(53))
    x = RNG.normal(size=(batch, seq, 6)).astype(dtype)
    mask = None if lengths is None else prefix_mask(lengths, seq)
    fused = layer.infer(x, mask)
    assert fused.dtype == dtype
    np.testing.assert_array_equal(fused, _per_direction(layer, x, mask))
    with no_grad():
        boxed = Tensor(x)
        called = layer(boxed, mask=mask).numpy()
    np.testing.assert_array_equal(called, _per_direction(layer, boxed.data, mask))
