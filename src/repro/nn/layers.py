"""Core neural layers: Linear, Embedding, LayerNorm, Dropout, MLP."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import init
from .functional import gelu
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = ["Linear", "Embedding", "LayerNorm", "Dropout", "Mlp"]


class Linear(Module):
    """Affine transformation ``y = x W + b`` over the last axis.

    Under ``no_grad`` the forward skips graph construction entirely and
    runs :meth:`infer` on the raw array — the hot path for serving.  With
    grads on, the forward is one graph node.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or init.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self.infer(x.data))
        out, pullback = self.vjp(x.data, input_grad=x.requires_grad)

        def backward(grad: np.ndarray) -> None:
            g_x = pullback(grad)
            if g_x is not None:
                x._accumulate(g_x)

        parents = (x, self.weight) if self.bias is None else (x, self.weight, self.bias)
        return x._make(out, parents, backward)

    def vjp(self, x: np.ndarray, input_grad: bool = True):
        """``(out, pullback)`` for a raw array: the graph-path forward, and
        a closure that accumulates the weight/bias gradients and returns
        ``x``'s (None unless ``input_grad``).  Modules folding this layer
        into their own autograd node call it directly."""
        weight, bias = self.weight, self.bias
        shape = x.shape
        x2d = x.reshape(-1, shape[-1])
        out2d = x2d @ weight.data
        if bias is not None:
            out2d += bias.data

        def pullback(grad: np.ndarray) -> Optional[np.ndarray]:
            # Every leading axis is a row of one GEMM, so the weight
            # gradient is a single x2d.T @ grad2d.
            grad2d = grad.reshape(out2d.shape)
            weight._accumulate(x2d.T @ grad2d)
            if bias is not None:
                bias._accumulate(grad2d.sum(axis=0))
            if not input_grad:
                return None
            return (grad2d @ weight.data.T).reshape(shape)

        return out2d.reshape(shape[:-1] + out2d.shape[1:]), pullback

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward-only affine map on a raw array — no graph, no boxing.

        Parameters are cast to the activation dtype (a no-op at the
        default float64), so a float32 pipeline stays float32.
        """
        weight = self.weight.data
        if weight.dtype != x.dtype:
            weight = weight.astype(x.dtype)
        out = x @ weight
        if self.bias is not None:
            bias = self.bias.data
            if bias.dtype != x.dtype:
                bias = bias.astype(x.dtype)
            out += bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        padding_idx: Optional[int] = None,
    ):
        super().__init__()
        rng = rng or init.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng))
        self.padding_idx = padding_idx
        if padding_idx is not None:
            with no_grad():
                self.weight.data[padding_idx] = 0.0

    def _checked(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return ids

    def lookup(self, ids, dtype=None) -> np.ndarray:
        """Range-checked raw table gather (no Tensor boxing).

        With ``dtype`` set, gathers from a cached cast of the table so a
        single-precision pipeline pays the cast once per table, not once
        per gathered row.  The cache is keyed on the table's identity —
        rebinding ``weight.data`` invalidates it.
        """
        ids = self._checked(ids)
        table = self.weight.data
        if dtype is not None and table.dtype != dtype:
            cached = getattr(self, "_cast_table", None)
            if cached is None or cached[0] is not table or cached[1].dtype != dtype:
                cached = (table, table.astype(dtype))
                self._cast_table = cached
            table = cached[1]
        return table[ids]

    def forward(self, ids) -> Tensor:
        ids = self._checked(ids)
        if not is_grad_enabled():
            # Fast path: fancy-index the raw table, skip graph bookkeeping.
            return Tensor(self.weight.data[ids])
        return self.weight[ids]


class LayerNorm(Module):
    """Layer normalisation over the last axis (one graph node with grads on)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones(dim))
        self.beta = Parameter(init.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self.infer(x.data))
        out, pullback = self.vjp(x.data)

        def backward(grad: np.ndarray) -> None:
            x._accumulate(pullback(grad))

        return x._make(out, (x, self.gamma, self.beta), backward)

    def vjp(self, x: np.ndarray):
        """``(out, pullback)`` for a raw array, as :meth:`Linear.vjp`.  The
        forward repeats the primitive chain ``mean -> centre -> variance
        -> divide -> scale -> shift`` in order, so it is bit-identical to
        composing those ops."""
        gamma, beta = self.gamma, self.beta
        count = float(self.dim)
        centered = x - x.sum(axis=-1, keepdims=True) / count
        var = (centered * centered).sum(axis=-1, keepdims=True) / count
        std = np.sqrt(var + self.eps)
        normed = centered / std
        out = normed * gamma.data + beta.data

        def pullback(grad: np.ndarray) -> np.ndarray:
            rows = grad.reshape(-1, self.dim)
            gamma._accumulate((rows * normed.reshape(-1, self.dim)).sum(axis=0))
            beta._accumulate(rows.sum(axis=0))
            g_normed = grad * gamma.data
            g_mean = g_normed.sum(axis=-1, keepdims=True) / count
            g_proj = (g_normed * normed).sum(axis=-1, keepdims=True) / count
            return (g_normed - g_mean - normed * g_proj) / std

        return out, pullback

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward-only layer norm on a raw array.

        The variance is a fused einsum dot-product over the centered rows
        — one pass, no ``centered**2`` temporary — which lands within one
        ulp of the compositional reduction (both serving paths share this
        kernel, so fused-vs-graph inference parity is unaffected).
        """
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = np.einsum("...i,...i->...", centered, centered)[..., None]
        var /= x.shape[-1]
        gamma = self.gamma.data
        beta = self.beta.data
        if gamma.dtype != x.dtype:
            gamma = gamma.astype(x.dtype)
            beta = beta.astype(x.dtype)
        # In-place on the fresh temporaries; identical rounding to
        # ``centered / sqrt(var + eps) * gamma + beta``.
        var += self.eps
        np.sqrt(var, out=var)
        if x.dtype == np.float64:
            centered /= var
        else:
            # Reciprocal on the (rows, 1) column, multiply on the matrix —
            # cheaper than a full-width divide (last-ulp difference only).
            np.divide(1.0, var, out=var)
            centered *= var
        centered *= gamma
        centered += beta
        return centered


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self._rng = rng or init.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        mask = self.sample_mask(x.shape)
        return x if mask is None else x * Tensor(mask)

    def sample_mask(self, shape) -> Optional[np.ndarray]:
        """One call's scaled keep-mask (``keep / (1 - p)``), or None when
        dropout is inactive (eval mode or ``p == 0``)."""
        if not self.training or self.p == 0.0:
            return None
        keep = 1.0 - self.p
        return (self._rng.random(shape) < keep).astype(np.float64) / keep


class Mlp(Module):
    """Multi-layer perceptron with GELU activations between layers."""

    def __init__(
        self,
        sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        activation: str = "gelu",
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("Mlp needs at least input and output sizes")
        rng = rng or init.default_rng()
        from .module import ModuleList

        self.layers = ModuleList(
            Linear(a, b, rng=rng) for a, b in zip(sizes[:-1], sizes[1:])
        )
        if activation not in ("gelu", "tanh", "relu"):
            raise ValueError(f"unknown activation: {activation}")
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i != last:
                if self.activation == "gelu":
                    x = gelu(x)
                elif self.activation == "tanh":
                    x = x.tanh()
                else:
                    x = x.relu()
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward-only pass on a raw array (same op order as forward)."""
        from .functional import gelu_ndarray

        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer.infer(x)
            if i != last:
                if self.activation == "gelu":
                    x = gelu_ndarray(x)
                elif self.activation == "tanh":
                    x = np.tanh(x)
                else:
                    x = x * (x > 0)
        return x
