"""Differentiable functional operations built on :mod:`repro.nn.tensor`.

These compose the primitive :class:`~repro.nn.tensor.Tensor` operations into
the numerically-stable building blocks used by the models: softmax families,
losses, GELU, and normalisation helpers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, as_tensor, is_grad_enabled, where

__all__ = [
    "softmax",
    "softmax_ndarray",
    "log_softmax",
    "logsumexp",
    "cross_entropy",
    "nll_loss",
    "kl_div_loss",
    "mse_loss",
    "gelu",
    "gelu_ndarray",
    "l2_normalize",
    "masked_fill",
]

_NEG_INF = -1e9

#: Constants of the tanh approximation of GELU: ``sqrt(2 / pi)`` and the
#: cubic coefficient.
_GELU_C = 0.7978845608028654
_GELU_A = 0.044715


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    x = as_tensor(x)
    # The max shift is treated as a constant; its gradient contribution
    # cancels analytically, so detaching it keeps the graph small and stable.
    shift = np.max(x.data, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    shifted = x - shift
    out = shifted.exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.reshape(_squeeze_shape(out.shape, axis))
    return out


def _squeeze_shape(shape, axis):
    axis = axis % len(shape)
    return tuple(s for i, s in enumerate(shape) if i != axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable via max-shift)."""
    x = as_tensor(x)
    if not is_grad_enabled():
        # Inference fast path: one fused ndarray kernel, no intermediate
        # Tensor boxing.  Identical op order → bit-identical results.
        return Tensor(softmax_ndarray(x.data, axis=axis))
    shift = np.max(x.data, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    exps = (x - shift).exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def softmax_ndarray(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward-only softmax on a raw array (stable via max-shift)."""
    shift = np.max(x, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    exps = np.exp(x - shift)
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    x = as_tensor(x)
    return x - logsumexp(x, axis=axis, keepdims=True)


def nll_loss(
    log_probs: Tensor,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Negative log-likelihood for integer ``targets``.

    ``log_probs`` has shape ``(..., num_classes)``; ``targets`` the matching
    leading shape.  ``mask`` (same shape as ``targets``) selects positions
    that contribute to the mean.
    """
    targets = np.asarray(targets, dtype=np.int64)
    flat = log_probs.reshape(-1, log_probs.shape[-1])
    idx = (np.arange(flat.shape[0]), targets.reshape(-1))
    picked = flat[idx]
    if mask is not None:
        mask_flat = np.asarray(mask, dtype=np.float64).reshape(-1)
        total = max(mask_flat.sum(), 1.0)
        return -(picked * Tensor(mask_flat)).sum() / total
    return -picked.mean()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Softmax cross-entropy with integer targets."""
    return nll_loss(log_softmax(logits, axis=-1), targets, mask=mask)


def kl_div_loss(
    logits: Tensor,
    soft_targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy against a soft target distribution.

    Matches Eq. (10)/(12) of the paper: ``-sum_c S_c * log f_c`` averaged over
    (optionally masked) positions.  Since the soft targets are constants this
    equals KL divergence up to the targets' entropy.
    """
    soft = np.asarray(soft_targets, dtype=np.float64)
    logp = log_softmax(logits, axis=-1)
    per_pos = -(logp * Tensor(soft)).sum(axis=-1)
    if mask is not None:
        mask_arr = np.asarray(mask, dtype=np.float64)
        total = max(mask_arr.sum(), 1.0)
        return (per_pos * Tensor(mask_arr)).sum() / total
    return per_pos.mean()


def mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = prediction - np.asarray(target, dtype=np.float64)
    return (diff * diff).mean()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = as_tensor(x)
    if not is_grad_enabled():
        return Tensor(gelu_ndarray(x.data))
    # One node with the analytic derivative.  The forward keeps the op
    # order of ``0.5 * x * (1 + tanh(c * (x + a * x * x * x)))`` so it is
    # bit-identical to composing the primitive ops.
    data = x.data
    cubic = data * _GELU_A * data * data
    t = np.tanh(_GELU_C * (data + cubic))
    out = data * 0.5 * (t + 1.0)

    def backward(grad: np.ndarray) -> None:
        slope = _GELU_C * (1.0 + 3.0 * _GELU_A * data * data)
        x._accumulate(grad * (0.5 * (t + 1.0) + 0.5 * data * (1.0 - t * t) * slope))

    return x._make(out, (x,), backward)


def gelu_ndarray(x: np.ndarray) -> np.ndarray:
    """Forward-only GELU (tanh approximation) on a raw array.

    The constants stay python floats: float64 keeps bit-parity with the
    Tensor path, and numpy promotes scalar * float32-array back to
    float32, so the quantized pipeline keeps its dtype.
    """
    # In-place chain; every rounding step matches the Tensor-path
    # expression ``0.5 * x * (1 + tanh(0.7978... * (x + 0.044715*x*x*x)))``
    # bit for bit (multiplication is commutative and scaling by 0.5 is
    # exact), with no intermediate temporaries.
    inner = x * _GELU_A
    inner *= x
    inner *= x
    inner += x
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5
    inner *= x
    return inner


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise ``x`` to unit L2 norm along ``axis``."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def masked_fill(x: Tensor, mask: np.ndarray, value: float = _NEG_INF) -> Tensor:
    """Replace positions where ``mask`` is True with ``value`` (no grad there)."""
    return where(np.asarray(mask, dtype=bool), Tensor(np.full(x.shape, value)), x)
