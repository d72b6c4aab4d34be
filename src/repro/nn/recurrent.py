"""LSTM and bidirectional LSTM layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, concat, is_grad_enabled, stack

__all__ = ["LstmCell", "Lstm", "BiLstm"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class LstmCell(Module):
    """A single LSTM cell computing one time step for a batch."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or init.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight = Parameter(
            init.xavier_uniform((input_dim + hidden_dim, 4 * hidden_dim), rng)
        )
        bias = init.zeros(4 * hidden_dim)
        # Forget-gate bias of 1.0 eases gradient flow early in training.
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """One compositional-autograd step (the reference the fused
        recurrence in :meth:`Lstm._forward_train_fused` is checked against)."""
        h_prev, c_prev = state
        combined = concat([x, h_prev], axis=-1)
        gates = combined @ self.weight + self.bias
        hd = self.hidden_dim
        i = gates[:, 0 * hd : 1 * hd].sigmoid()
        f = gates[:, 1 * hd : 2 * hd].sigmoid()
        g = gates[:, 2 * hd : 3 * hd].tanh()
        o = gates[:, 3 * hd : 4 * hd].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c


class Lstm(Module):
    """Unidirectional LSTM over ``(batch, seq, dim)`` inputs."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        reverse: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.cell = LstmCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim
        self.reverse = reverse

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Run the recurrence over ``(batch, seq, dim)`` inputs.

        ``mask`` is an optional ``(batch, seq)`` 0/1 validity array for
        ragged batches (padding must be a suffix).  Masked steps carry the
        zero initial state, so each sequence's outputs match running it
        alone at its true length — in particular the *reverse* direction
        starts from each sequence's own last valid step instead of from the
        shared padded end.
        """
        if not is_grad_enabled():
            return Tensor(self._forward_inference(x.data, mask))
        return self._forward_train_fused(x, mask)

    def _forward_train_fused(
        self, x: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Training path as ONE autograd node with hand-written BPTT.

        The compositional recurrence builds ~15 graph nodes per time step;
        for 100-step resumes that dominates training time.  The forward is
        the serving recurrence :meth:`_forward_inference`, asked to cache
        each step's activations; backpropagation-through-time over that
        cache is written out analytically below.
        """
        data = x.data
        batch, _, input_dim = data.shape
        hd = self.hidden_dim
        weight = self.cell.weight
        bias = self.cell.bias
        w = weight.data
        valid = None if mask is None else np.asarray(mask, dtype=np.float64)
        cache = {}
        outputs = self._forward_inference(data, mask, cache=cache)

        def backward(grad: np.ndarray) -> None:
            grad_x = np.zeros_like(data)
            grad_w = np.zeros_like(w)
            grad_b = np.zeros_like(bias.data)
            dh_next = np.zeros((batch, hd))
            dc_next = np.zeros((batch, hd))
            for t in reversed(cache):
                h_prev, i, f, g, o, c_prev, tanh_c = cache[t]
                dh = grad[:, t, :] + dh_next
                dc = dc_next
                if valid is not None:
                    step = valid[:, t][:, None]
                    dh = dh * step
                    dc = dc * step
                dc = dc + dh * o * (1.0 - tanh_c**2)
                d_gates = np.concatenate(
                    [
                        dc * g * i * (1.0 - i),
                        dc * c_prev * f * (1.0 - f),
                        dc * i * (1.0 - g**2),
                        dh * tanh_c * o * (1.0 - o),
                    ],
                    axis=-1,
                )
                grad_w[:input_dim] += data[:, t].T @ d_gates
                grad_w[input_dim:] += h_prev.T @ d_gates
                grad_b += d_gates.sum(axis=0)
                d_combined = d_gates @ w.T
                grad_x[:, t, :] = d_combined[:, :input_dim]
                dh_next = d_combined[:, input_dim:]
                dc_next = dc * f
            x._accumulate(grad_x)
            weight._accumulate(grad_w)
            bias._accumulate(grad_b)

        return x._make(outputs, (x, weight, bias), backward)

    def _forward_train_reference(self, x: Tensor) -> Tensor:
        """Compositional-autograd recurrence (slow; verification only)."""
        batch, seq, _ = x.shape
        h = Tensor(np.zeros((batch, self.hidden_dim)))
        c = Tensor(np.zeros((batch, self.hidden_dim)))
        steps = range(seq - 1, -1, -1) if self.reverse else range(seq)
        outputs = [None] * seq
        for t in steps:
            h, c = self.cell(x[:, t, :], (h, c))
            outputs[t] = h
        return stack(outputs, axis=1)

    def _forward_inference(
        self,
        x: np.ndarray,
        mask: Optional[np.ndarray] = None,
        cache: Optional[dict] = None,
    ) -> np.ndarray:
        """Fused numpy recurrence — no autograd dispatch on the hot path.

        The input projection for all time steps runs as one GEMM up front;
        the per-step work is a single ``(batch, hd) @ (hd, 4hd)`` matmul
        plus elementwise gates, so batching documents amortises the python
        loop across the whole batch.  The recurrence follows the input
        dtype, so a float32 serving pipeline stays narrow end to end.
        A ``cache`` dict receives each step's activations, keyed by time
        step in processing order — the input of the training node's BPTT.
        """
        batch, seq, input_dim = x.shape
        hd = self.hidden_dim
        weight = self.cell.weight.data
        bias = self.cell.bias.data
        if weight.dtype != x.dtype:
            weight = weight.astype(x.dtype)
            bias = bias.astype(x.dtype)
        w_h = weight[input_dim:]
        valid = None if mask is None else np.asarray(mask, dtype=x.dtype)
        xw = x.reshape(batch * seq, input_dim) @ weight[:input_dim]
        xw = xw.reshape(batch, seq, 4 * hd) + bias
        h = np.zeros((batch, hd), dtype=x.dtype)
        c = np.zeros((batch, hd), dtype=x.dtype)
        outputs = np.zeros((batch, seq, hd), dtype=x.dtype)
        # Ragged batches: steps past the longest sequence are pure padding
        # (masking is suffix-only), where h/c are zeroed anyway — skip them.
        limit = seq if valid is None else int(valid.sum(axis=1).max())
        steps = range(limit - 1, -1, -1) if self.reverse else range(limit)
        for t in steps:
            h_prev, c_prev = h, c
            gates = xw[:, t] + h_prev @ w_h
            i = _sigmoid(gates[:, :hd])
            f = _sigmoid(gates[:, hd : 2 * hd])
            g = np.tanh(gates[:, 2 * hd : 3 * hd])
            o = _sigmoid(gates[:, 3 * hd :])
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            if valid is not None:
                step = valid[:, t][:, None]
                h = h * step
                c = c * step
            outputs[:, t, :] = h
            if cache is not None:
                cache[t] = (h_prev, i, f, g, o, c_prev, tanh_c)
        return outputs


class BiLstm(Module):
    """Bidirectional LSTM concatenating forward and backward hidden states.

    Implements Eq. (8) of the paper: the output at each step is the
    concatenation ``[h_forward ; h_backward]`` of dimension ``2 * hidden_dim``.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or init.default_rng()
        self.forward_lstm = Lstm(input_dim, hidden_dim, reverse=False, rng=rng)
        self.backward_lstm = Lstm(input_dim, hidden_dim, reverse=True, rng=rng)
        self.output_dim = 2 * hidden_dim

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self.infer(x.data, mask))
        fwd = self.forward_lstm(x, mask=mask)
        bwd = self.backward_lstm(x, mask=mask)
        return concat([fwd, bwd], axis=-1)

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Forward-only bidirectional pass on a raw array (no boxing).

        Both directions advance in one time loop: step ``s`` is the forward
        direction's time ``s`` and the backward direction's ``limit-1-s``,
        stacked on a leading direction axis, so each step is one
        ``(2, batch, hd) @ (2, hd, 4hd)`` matmul plus elementwise gates, and
        the Python loop runs half as many iterations.
        Every element sees exactly the operations of
        :meth:`Lstm._forward_inference`, so the output equals running the two
        directions separately, bit for bit.
        """
        batch, seq, input_dim = x.shape
        hd = self.forward_lstm.hidden_dim
        valid = None if mask is None else np.asarray(mask, dtype=x.dtype)
        limit = seq if valid is None else int(valid.sum(axis=1).max())
        # Input projections, the backward one pre-reversed: (limit, 2, b, 4hd).
        xw = np.empty((limit, 2, batch, 4 * hd), dtype=x.dtype)
        w_h = np.empty((2, hd, 4 * hd), dtype=x.dtype)
        flat = x.reshape(batch * seq, input_dim)
        for d, lstm in enumerate((self.forward_lstm, self.backward_lstm)):
            weight = lstm.cell.weight.data.astype(x.dtype, copy=False)
            bias = lstm.cell.bias.data.astype(x.dtype, copy=False)
            proj = (flat @ weight[:input_dim]).reshape(batch, seq, 4 * hd) + bias
            proj = proj[:, :limit].transpose(1, 0, 2)
            xw[:, d] = proj if d == 0 else proj[::-1]
            w_h[d] = weight[input_dim:]
        if valid is not None:
            steps = valid[:, :limit].T[:, None, :, None]
            steps = np.concatenate([steps, steps[::-1]], axis=1)
        h = np.zeros((2, batch, hd), dtype=x.dtype)
        c = np.zeros((2, batch, hd), dtype=x.dtype)
        states = np.empty((limit, 2, batch, hd), dtype=x.dtype)
        for s in range(limit):
            gates = xw[s] + h @ w_h
            # One sigmoid over all four gates (the cell-gate quarter is
            # unused): elementwise, so each gate's values are unchanged.
            act = _sigmoid(gates)
            g = np.tanh(gates[..., 2 * hd : 3 * hd])
            c = act[..., hd : 2 * hd] * c + act[..., :hd] * g
            h = act[..., 3 * hd :] * np.tanh(c)
            if valid is not None:
                h = h * steps[s]
                c = c * steps[s]
            states[s] = h
        outputs = np.zeros((batch, seq, 2 * hd), dtype=x.dtype)
        outputs[:, :limit, :hd] = states[:, 0].transpose(1, 0, 2)
        outputs[:, :limit, hd:] = states[::-1, 1].transpose(1, 0, 2)
        return outputs
