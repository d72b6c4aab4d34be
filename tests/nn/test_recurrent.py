"""Tests for LSTM layers."""

import numpy as np
import pytest

from repro.nn import Adam, BiLstm, Lstm, LstmCell, ParamGroup, Tensor
from repro.nn import functional as F

RNG = np.random.default_rng(13)


class TestLstmCell:
    def test_step_shapes(self):
        cell = LstmCell(4, 6, rng=np.random.default_rng(1))
        h = Tensor(np.zeros((3, 6)))
        c = Tensor(np.zeros((3, 6)))
        h2, c2 = cell(Tensor(RNG.normal(size=(3, 4))), (h, c))
        assert h2.shape == (3, 6)
        assert c2.shape == (3, 6)

    def test_forget_bias_initialised_to_one(self):
        cell = LstmCell(4, 6, rng=np.random.default_rng(1))
        np.testing.assert_allclose(cell.bias.data[6:12], 1.0)

    def test_hidden_bounded_by_tanh(self):
        cell = LstmCell(4, 6, rng=np.random.default_rng(1))
        h = Tensor(np.zeros((2, 6)))
        c = Tensor(np.zeros((2, 6)))
        for _ in range(5):
            h, c = cell(Tensor(RNG.normal(size=(2, 4)) * 10), (h, c))
        assert np.all(np.abs(h.numpy()) <= 1.0)


class TestLstm:
    def test_output_shape(self):
        lstm = Lstm(4, 6, rng=np.random.default_rng(2))
        out = lstm(Tensor(RNG.normal(size=(2, 7, 4))))
        assert out.shape == (2, 7, 6)

    def test_reverse_direction_sees_future(self):
        lstm = Lstm(2, 4, reverse=True, rng=np.random.default_rng(3))
        lstm.eval()
        x = RNG.normal(size=(1, 5, 2))
        base = lstm(Tensor(x)).numpy()
        # Changing the last step must change the FIRST output of a reversed LSTM.
        perturbed = x.copy()
        perturbed[0, 4] += 10
        out = lstm(Tensor(perturbed)).numpy()
        assert not np.allclose(base[0, 0], out[0, 0])

    def test_forward_direction_is_causal(self):
        lstm = Lstm(2, 4, rng=np.random.default_rng(3))
        lstm.eval()
        x = RNG.normal(size=(1, 5, 2))
        base = lstm(Tensor(x)).numpy()
        perturbed = x.copy()
        perturbed[0, 4] += 10
        out = lstm(Tensor(perturbed)).numpy()
        np.testing.assert_allclose(base[0, :4], out[0, :4], atol=1e-10)


class TestFusedStepAgainstReference:
    """One step of the fused recurrence must match the compositional cell."""

    def test_outputs_and_gradients_match(self):
        lstm = Lstm(3, 5, rng=np.random.default_rng(21))
        x0 = RNG.normal(size=(4, 3))
        wh = RNG.normal(size=(4, 5))

        def run(step):
            lstm.zero_grad()
            x = Tensor(x0.copy(), requires_grad=True)
            h = step(x)
            (h * Tensor(wh)).sum().backward()
            return (
                h.numpy().copy(),
                x.grad.copy(),
                lstm.cell.weight.grad.copy(),
                lstm.cell.bias.grad.copy(),
            )

        def fused_step(x):
            return lstm._forward_train_fused(x.reshape(4, 1, 3)).reshape(4, 5)

        def cell_step(x):
            zeros = (Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 5))))
            h, _ = lstm.cell(x, zeros)
            return h

        for f, r in zip(run(fused_step), run(cell_step)):
            np.testing.assert_allclose(f, r, atol=1e-9)


class TestFusedBpttAgainstReference:
    """The fused BPTT must match the compositional autograd recurrence."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_outputs_and_gradients_match(self, reverse):
        lstm = Lstm(3, 5, reverse=reverse, rng=np.random.default_rng(9))
        base = RNG.normal(size=(2, 7, 3))
        weights = RNG.normal(size=(2, 7, 5))

        def run(fn):
            lstm.zero_grad()
            x = Tensor(base.copy(), requires_grad=True)
            out = fn(x)
            (out * Tensor(weights)).sum().backward()
            return (
                out.numpy().copy(),
                x.grad.copy(),
                lstm.cell.weight.grad.copy(),
                lstm.cell.bias.grad.copy(),
            )

        fused = run(lstm._forward_train_fused)
        reference = run(lstm._forward_train_reference)
        for f, r in zip(fused, reference):
            np.testing.assert_allclose(f, r, atol=1e-9)

    def test_inference_matches_training_forward(self):
        from repro.nn import no_grad

        lstm = Lstm(2, 4, rng=np.random.default_rng(10))
        x = RNG.normal(size=(3, 6, 2))
        train_out = lstm(Tensor(x)).numpy()
        with no_grad():
            infer_out = lstm(Tensor(x)).numpy()
        np.testing.assert_allclose(train_out, infer_out, atol=1e-12)


class TestBiLstm:
    def test_concat_dim(self):
        bi = BiLstm(4, 5, rng=np.random.default_rng(4))
        out = bi(Tensor(RNG.normal(size=(2, 6, 4))))
        assert out.shape == (2, 6, 10)
        assert bi.output_dim == 10

    def test_gradients_reach_both_directions(self):
        bi = BiLstm(3, 4, rng=np.random.default_rng(5))
        out = bi(Tensor(RNG.normal(size=(1, 4, 3))))
        out.sum().backward()
        assert bi.forward_lstm.cell.weight.grad is not None
        assert bi.backward_lstm.cell.weight.grad is not None

    def test_can_learn_sequence_task(self):
        # Predict whether any earlier element was positive - needs memory.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(16, 6, 1))
        labels = (np.cumsum(x[..., 0] > 1.0, axis=1) > 0).astype(np.int64)
        bi = BiLstm(1, 8, rng=np.random.default_rng(7))
        from repro.nn import Linear

        head = Linear(16, 2, rng=np.random.default_rng(8))
        params = bi.parameters() + head.parameters()
        opt = Adam([ParamGroup(params, 3e-2)])
        losses = []
        for _ in range(40):
            opt.zero_grad()
            logits = head(bi(Tensor(x)))
            loss = F.cross_entropy(logits, labels)
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0] * 0.5
