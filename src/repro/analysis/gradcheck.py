"""Central-difference numerical gradient checking for the nn substrate.

:func:`gradcheck` verifies the analytic gradients of any callable mapping
:class:`~repro.nn.tensor.Tensor` inputs (plus module parameters) to a
tensor output against float64 central differences, ``(f(x+eps) -
f(x-eps)) / 2 eps``.  Non-scalar outputs are scalarised through a fixed
seeded random projection so every output element constrains the check.

:func:`run_sweep` auto-discovers every differentiable op exported by
``nn/tensor.py``, ``nn/functional.py``, ``nn/layers.py``,
``nn/attention.py``, ``nn/recurrent.py``, ``nn/crf.py`` and the
one-node embeddings of ``core/embeddings.py`` and checks
each against the registered spec — broadcasting, zero-size and length-masked shapes
included.  An exported op *without* a spec fails the sweep, so new ops
cannot silently skip gradient verification.

Run it::

    python -m repro.analysis.gradcheck            # full sweep
    python -m repro.analysis.gradcheck --ops softmax Lstm
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.tensor import Tensor, no_grad

__all__ = [
    "GradcheckFailure",
    "GradcheckResult",
    "gradcheck",
    "discover_ops",
    "run_sweep",
    "SPECS",
    "main",
]

#: Hard ceiling on tolerances — the CI gate requires every op to pass at
#: tolerance <= 1e-4 in float64, so no spec may loosen beyond this.
MAX_TOLERANCE = 1e-4

#: Seed for the scalarising projection; fixed so analytic and numeric
#: passes weight output elements identically.
_PROJECTION_SEED = 20230417

#: The modules whose public exports the sweep must cover.
SWEPT_MODULES = (
    "repro.nn.tensor",
    "repro.nn.functional",
    "repro.nn.layers",
    "repro.nn.attention",
    "repro.nn.recurrent",
    "repro.nn.crf",
    "repro.nn.quantize",
    "repro.core.embeddings",
)


@dataclass(frozen=True)
class GradcheckFailure:
    """One element whose analytic and numeric gradients disagree."""

    tensor: str
    index: Tuple[int, ...]
    analytic: float
    numeric: float
    abs_err: float


@dataclass
class GradcheckResult:
    """Outcome of checking one callable (or one sweep case)."""

    name: str
    ok: bool
    checked: int = 0
    max_abs_err: float = 0.0
    failures: List[GradcheckFailure] = field(default_factory=list)
    error: Optional[str] = None

    def render(self) -> str:
        if self.error is not None:
            return f"FAIL {self.name}: {self.error}"
        status = "ok  " if self.ok else "FAIL"
        line = (
            f"{status} {self.name}: {self.checked} element(s), "
            f"max |analytic - numeric| = {self.max_abs_err:.3e}"
        )
        for failure in self.failures[:5]:
            line += (
                f"\n     {failure.tensor}{list(failure.index)}: "
                f"analytic={failure.analytic:.6e} "
                f"numeric={failure.numeric:.6e} "
                f"abs_err={failure.abs_err:.3e}"
            )
        if len(self.failures) > 5:
            line += f"\n     ... and {len(self.failures) - 5} more"
        return line


def _projection(shape: Tuple[int, ...]) -> np.ndarray:
    return np.random.default_rng(_PROJECTION_SEED).standard_normal(shape)


def _forward_scalar(
    fn: Callable[..., Tensor], inputs: Sequence[Tensor], proj: np.ndarray
) -> float:
    out = fn(*inputs)
    return float((np.asarray(out.data, dtype=np.float64) * proj).sum())


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    params: Sequence[Tensor] = (),
    *,
    eps: float = 1e-6,
    atol: float = 1e-6,
    rtol: float = 1e-4,
    name: str = "fn",
) -> GradcheckResult:
    """Check ``fn``'s analytic gradients against central differences.

    ``inputs`` are differentiable positional arguments (``requires_grad``
    is forced on); ``params`` are additional leaves ``fn`` closes over
    (module parameters).  Each element of every leaf is perturbed by
    ``+/- eps`` in place under ``no_grad`` (and restored), so ``fn`` must
    be deterministic — inject fixed RNGs for stochastic modules.

    An element fails when ``|analytic - numeric| > atol + rtol *
    max(|analytic|, |numeric|)``.  Tolerances are capped at
    ``MAX_TOLERANCE`` (1e-4); asking for looser is an error.
    """
    if atol > MAX_TOLERANCE or rtol > MAX_TOLERANCE:
        raise ValueError(
            f"tolerances capped at {MAX_TOLERANCE}: atol={atol}, rtol={rtol}"
        )
    inputs = tuple(inputs)
    params = tuple(params)
    leaves: List[Tuple[str, Tensor]] = [
        (f"input[{i}]", tensor) for i, tensor in enumerate(inputs)
    ] + [(f"param[{i}]", tensor) for i, tensor in enumerate(params)]

    for _, leaf in leaves:
        leaf.requires_grad = True
        leaf.zero_grad()

    out = fn(*inputs)
    proj = _projection(out.data.shape)
    loss = (out * Tensor(proj)).sum()
    loss.backward()
    analytic = [
        np.array(leaf.grad) if leaf.grad is not None else np.zeros_like(leaf.data)
        for _, leaf in leaves
    ]

    result = GradcheckResult(name=name, ok=True)
    for (label, leaf), grad in zip(leaves, analytic):
        numeric = np.zeros_like(leaf.data)
        for index in np.ndindex(leaf.data.shape):
            original = leaf.data[index]
            with no_grad():
                leaf.data[index] = original + eps
                f_plus = _forward_scalar(fn, inputs, proj)
                leaf.data[index] = original - eps
                f_minus = _forward_scalar(fn, inputs, proj)
                leaf.data[index] = original
            numeric[index] = (f_plus - f_minus) / (2.0 * eps)
        for index in np.ndindex(leaf.data.shape):
            a = float(grad[index])
            n = float(numeric[index])
            abs_err = abs(a - n)
            result.checked += 1
            result.max_abs_err = max(result.max_abs_err, abs_err)
            if abs_err > atol + rtol * max(abs(a), abs(n)):
                result.ok = False
                result.failures.append(
                    GradcheckFailure(
                        tensor=label,
                        index=index,
                        analytic=a,
                        numeric=n,
                        abs_err=abs_err,
                    )
                )
    return result


# ----------------------------------------------------------------------
# Sweep harness
# ----------------------------------------------------------------------
#: Exports that are intentionally not gradchecked, with the justification
#: printed by ``--list``.  Only forward-only inference machinery belongs
#: here — every differentiable op must carry a spec.
NON_DIFFERENTIABLE: Dict[str, str] = {
    "no_grad": "context manager toggling graph recording",
    "is_grad_enabled": "grad-mode query, not an op",
    "as_tensor": "coercion to Tensor, not an op",
    "softmax_ndarray": "forward-only ndarray kernel (no autograd surface)",
    "gelu_ndarray": "forward-only ndarray kernel (no autograd surface)",
    "QuantizedLinear": "inference-only int8 layer; raises under grad",
    "quantize_model": "structural transform, not an op",
    "dequantize": "structural transform, not an op",
    "calibration": "context manager toggling calibration state",
    "CalibrationError": "exception type, not an op",
    "set_serving_dtype": "dtype switch on encoder stacks, not an op",
    "quantize_for_inference": "structural transform plus calibration pass",
    "activation_scales": "calibration-state export, not an op",
    "restore_activation_scales": "structural transform from saved scales",
    "quantization_report": "telemetry summary, not an op",
}

CaseBuilder = Callable[[], dict]
#: op name -> list of (case label, builder).  A builder returns a dict
#: with keys ``fn``, ``inputs`` and optionally ``params``, ``eps``,
#: ``atol``, ``rtol``.
SPECS: Dict[str, List[Tuple[str, CaseBuilder]]] = {}


def spec(name: str, label: str):
    def register(builder: CaseBuilder) -> CaseBuilder:
        SPECS.setdefault(name, []).append((label, builder))
        return builder

    return register


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _tensor(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _params(module) -> List[Tensor]:
    return [parameter for _, parameter in module.named_parameters()]


class _ConstantRng:
    """Deterministic stand-in for ``np.random.Generator.random``.

    Dropout draws a fresh mask per forward call; central differences need
    the *same* mask on every evaluation, so this replays one fixed draw.
    """

    def __init__(self, shape: Tuple[int, ...], seed: int = 7):
        self._values = np.random.default_rng(seed).random(shape)

    def random(self, shape: Tuple[int, ...]) -> np.ndarray:
        if tuple(shape) != self._values.shape:
            raise ValueError(f"fixed rng built for {self._values.shape}, got {shape}")
        return self._values


# -- tensor ------------------------------------------------------------
def _register_tensor() -> None:
    @spec("Tensor", "__getitem__ repeated + negative ids, 3-D table")
    def _():
        ids = np.array([[1, -1, 1], [3, 0, -4]])
        return {"fn": lambda table: table[ids], "inputs": [_tensor(_rng(22), 4, 2, 3)]}


# -- functional --------------------------------------------------------
def _register_functional() -> None:
    from ..nn import functional as F

    @spec("softmax", "basic (2,3)")
    def _():
        return {"fn": F.softmax, "inputs": [_tensor(_rng(1), 2, 3)]}

    @spec("softmax", "zero-size batch (0,3)")
    def _():
        return {"fn": F.softmax, "inputs": [_tensor(_rng(2), 0, 3)]}

    @spec("softmax", "axis=0 (3,2)")
    def _():
        return {
            "fn": lambda x: F.softmax(x, axis=0),
            "inputs": [_tensor(_rng(3), 3, 2)],
        }

    @spec("log_softmax", "basic (2,4)")
    def _():
        return {"fn": F.log_softmax, "inputs": [_tensor(_rng(4), 2, 4)]}

    @spec("log_softmax", "zero-size batch (0,4)")
    def _():
        return {"fn": F.log_softmax, "inputs": [_tensor(_rng(5), 0, 4)]}

    @spec("logsumexp", "basic (2,3)")
    def _():
        return {"fn": F.logsumexp, "inputs": [_tensor(_rng(6), 2, 3)]}

    @spec("logsumexp", "keepdims (2,3)")
    def _():
        return {
            "fn": lambda x: F.logsumexp(x, keepdims=True),
            "inputs": [_tensor(_rng(7), 2, 3)],
        }

    @spec("logsumexp", "axis=0 (3,2)")
    def _():
        return {
            "fn": lambda x: F.logsumexp(x, axis=0),
            "inputs": [_tensor(_rng(8), 3, 2)],
        }

    @spec("nll_loss", "basic (3,4)")
    def _():
        targets = np.array([0, 3, 1])
        return {
            "fn": lambda lp: F.nll_loss(lp, targets),
            "inputs": [_tensor(_rng(9), 3, 4)],
        }

    @spec("nll_loss", "length-masked (2,3,4)")
    def _():
        targets = np.array([[0, 1, 2], [3, 0, 1]])
        mask = np.array([[1, 1, 1], [1, 0, 0]], dtype=np.float64)
        return {
            "fn": lambda lp: F.nll_loss(lp, targets, mask=mask),
            "inputs": [_tensor(_rng(10), 2, 3, 4)],
        }

    @spec("cross_entropy", "basic (3,4)")
    def _():
        targets = np.array([2, 0, 3])
        return {
            "fn": lambda logits: F.cross_entropy(logits, targets),
            "inputs": [_tensor(_rng(11), 3, 4)],
        }

    @spec("cross_entropy", "length-masked (2,3,5)")
    def _():
        targets = np.array([[1, 2, 4], [0, 3, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)
        return {
            "fn": lambda logits: F.cross_entropy(logits, targets, mask=mask),
            "inputs": [_tensor(_rng(12), 2, 3, 5)],
        }

    @spec("kl_div_loss", "basic (2,4)")
    def _():
        rng = _rng(13)
        soft = rng.random((2, 4))
        soft /= soft.sum(axis=-1, keepdims=True)
        return {
            "fn": lambda logits: F.kl_div_loss(logits, soft),
            "inputs": [_tensor(rng, 2, 4)],
        }

    @spec("kl_div_loss", "length-masked (2,3,4)")
    def _():
        rng = _rng(14)
        soft = rng.random((2, 3, 4))
        soft /= soft.sum(axis=-1, keepdims=True)
        mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.float64)
        return {
            "fn": lambda logits: F.kl_div_loss(logits, soft, mask=mask),
            "inputs": [_tensor(rng, 2, 3, 4)],
        }

    @spec("mse_loss", "basic (2,3)")
    def _():
        rng = _rng(15)
        target = rng.standard_normal((2, 3))
        return {
            "fn": lambda p: F.mse_loss(p, target),
            "inputs": [_tensor(rng, 2, 3)],
        }

    @spec("mse_loss", "broadcast (3,) vs (2,3)")
    def _():
        rng = _rng(16)
        target = rng.standard_normal((2, 3))
        return {
            "fn": lambda p: F.mse_loss(p, target),
            "inputs": [_tensor(rng, 3)],
        }

    @spec("gelu", "basic (2,3)")
    def _():
        return {"fn": F.gelu, "inputs": [_tensor(_rng(17), 2, 3)]}

    @spec("gelu", "inputs across +-6 (13,)")
    def _():
        return {
            "fn": F.gelu,
            "inputs": [Tensor(np.linspace(-6.0, 6.0, 13) + 0.05, requires_grad=True)],
        }

    @spec("gelu", "zero-size (0,)")
    def _():
        return {"fn": F.gelu, "inputs": [_tensor(_rng(18), 0)]}

    @spec("l2_normalize", "basic (2,3)")
    def _():
        return {"fn": F.l2_normalize, "inputs": [_tensor(_rng(19), 2, 3)]}

    @spec("l2_normalize", "axis=0 (3,2)")
    def _():
        return {
            "fn": lambda x: F.l2_normalize(x, axis=0),
            "inputs": [_tensor(_rng(20), 3, 2)],
        }

    @spec("masked_fill", "finite fill value (2,3)")
    def _():
        mask = np.array([[True, False, True], [False, False, True]])
        return {
            "fn": lambda x: F.masked_fill(x, mask, value=-2.0),
            "inputs": [_tensor(_rng(21), 2, 3)],
        }


# -- layers ------------------------------------------------------------
def _register_layers() -> None:
    from ..nn.layers import Dropout, Embedding, LayerNorm, Linear, Mlp

    @spec("Linear", "with bias (2,3)->(2,2)")
    def _():
        layer = Linear(3, 2, rng=_rng(30))
        return {"fn": layer, "inputs": [_tensor(_rng(31), 2, 3)], "params": _params(layer)}

    @spec("Linear", "no bias")
    def _():
        layer = Linear(3, 2, bias=False, rng=_rng(32))
        return {"fn": layer, "inputs": [_tensor(_rng(33), 2, 3)], "params": _params(layer)}

    @spec("Linear", "3-D input (2,3,4)->(2,3,2)")
    def _():
        layer = Linear(4, 2, rng=_rng(24))
        return {"fn": layer, "inputs": [_tensor(_rng(25), 2, 3, 4)], "params": _params(layer)}

    @spec("Linear", "1-D input (3,)->(2,)")
    def _():
        layer = Linear(3, 2, rng=_rng(26))
        return {"fn": layer, "inputs": [_tensor(_rng(27), 3)], "params": _params(layer)}

    @spec("Linear", "zero-size batch (0,3)")
    def _():
        layer = Linear(3, 2, rng=_rng(34))
        return {"fn": layer, "inputs": [_tensor(_rng(35), 0, 3)], "params": _params(layer)}

    @spec("Embedding", "repeated ids (scatter-add path)")
    def _():
        layer = Embedding(5, 3, rng=_rng(36))
        ids = np.array([[0, 2, 2], [4, 0, 1]])
        return {"fn": lambda: layer(ids), "inputs": [], "params": _params(layer)}

    @spec("Embedding", "unique ids (fast scatter path)")
    def _():
        layer = Embedding(6, 3, rng=_rng(37))
        ids = np.array([3, 0, 5, 1])
        return {"fn": lambda: layer(ids), "inputs": [], "params": _params(layer)}

    @spec("Embedding", "zero-size ids (0,)")
    def _():
        layer = Embedding(4, 3, rng=_rng(38))
        ids = np.zeros((0,), dtype=np.int64)
        return {"fn": lambda: layer(ids), "inputs": [], "params": _params(layer)}

    @spec("LayerNorm", "basic (2,4)")
    def _():
        layer = LayerNorm(4)
        return {"fn": layer, "inputs": [_tensor(_rng(39), 2, 4)], "params": _params(layer)}

    @spec("LayerNorm", "3-D input (2,3,4)")
    def _():
        layer = LayerNorm(4)
        with no_grad():
            layer.gamma.data[:] = _rng(28).standard_normal(4)
            layer.beta.data[:] = _rng(29).standard_normal(4)
        return {"fn": layer, "inputs": [_tensor(_rng(23), 2, 3, 4)], "params": _params(layer)}

    @spec("Dropout", "p=0 identity")
    def _():
        layer = Dropout(0.0)
        return {"fn": layer, "inputs": [_tensor(_rng(40), 2, 3)]}

    @spec("Dropout", "p=0.4 fixed mask")
    def _():
        layer = Dropout(0.4)
        layer._rng = _ConstantRng((2, 3))
        return {"fn": layer, "inputs": [_tensor(_rng(41), 2, 3)]}

    @spec("Mlp", "gelu (3,4,2)")
    def _():
        mlp = Mlp([3, 4, 2], rng=_rng(42))
        return {"fn": mlp, "inputs": [_tensor(_rng(43), 2, 3)], "params": _params(mlp)}

    @spec("Mlp", "tanh (3,4,2)")
    def _():
        mlp = Mlp([3, 4, 2], rng=_rng(44), activation="tanh")
        return {"fn": mlp, "inputs": [_tensor(_rng(45), 2, 3)], "params": _params(mlp)}

    @spec("Mlp", "relu (3,4,2)")
    def _():
        mlp = Mlp([3, 4, 2], rng=_rng(46), activation="relu")
        return {"fn": mlp, "inputs": [_tensor(_rng(47), 2, 3)], "params": _params(mlp)}


# -- attention ---------------------------------------------------------
def _register_attention() -> None:
    from ..nn.attention import (
        MultiHeadSelfAttention,
        TransformerEncoder,
        TransformerEncoderLayer,
        fused_self_attention,
    )

    def _fused_attention_case(seed: int, mask, shape=(2, 3, 4), **ragged) -> dict:
        layer = MultiHeadSelfAttention(4, 2, dropout=0.0, rng=_rng(seed))
        q, k, v, o = layer.query, layer.key, layer.value, layer.out
        return {
            "fn": lambda x: fused_self_attention(
                x, q.weight, q.bias, k.weight, k.bias, v.weight, v.bias,
                o.weight, o.bias, layer.num_heads, attention_mask=mask, **ragged,
            ),
            "inputs": [_tensor(_rng(seed + 1), *shape)],
            "params": _params(layer),
        }

    @spec("fused_self_attention", "full attention (2,3,4)")
    def _():
        return _fused_attention_case(48, None)

    @spec("fused_self_attention", "length-masked keys")
    def _():
        return _fused_attention_case(49, np.array([[1, 1, 1], [1, 1, 0]]))

    @spec("fused_self_attention", "ragged blocks t=2,3, padded keys, dropout")
    def _():
        # Flat (2*2 + 1*3, 4) buffer of two width groups; one fixed
        # keep-mask per group shape, so every evaluation drops alike.
        keep = {
            shape: (_rng(92).random(shape) < 0.7) / 0.7
            for shape in ((2, 2, 2, 2), (1, 2, 3, 3))
        }
        return _fused_attention_case(
            90,
            None,
            shape=(7, 4),
            blocks=[(0, 2, 2), (4, 1, 3)],
            masks=[np.array([[1, 1], [1, 0]]), np.array([[1, 1, 0]])],
            dropout=lambda shape: keep[tuple(shape)],
        )

    @spec("MultiHeadSelfAttention", "full attention (2,3,4)")
    def _():
        layer = MultiHeadSelfAttention(4, 2, dropout=0.0, rng=_rng(50))
        return {"fn": layer, "inputs": [_tensor(_rng(51), 2, 3, 4)], "params": _params(layer)}

    @spec("MultiHeadSelfAttention", "length-masked keys")
    def _():
        layer = MultiHeadSelfAttention(4, 2, dropout=0.0, rng=_rng(52))
        mask = np.array([[1, 1, 1], [1, 1, 0]])
        return {
            "fn": lambda x: layer(x, attention_mask=mask),
            "inputs": [_tensor(_rng(53), 2, 3, 4)],
            "params": _params(layer),
        }

    @spec("TransformerEncoderLayer", "full attention (2,3,4)")
    def _():
        layer = TransformerEncoderLayer(4, 2, ffn_dim=8, dropout=0.0, rng=_rng(54))
        return {"fn": layer, "inputs": [_tensor(_rng(55), 2, 3, 4)], "params": _params(layer)}

    @spec("TransformerEncoderLayer", "length-masked")
    def _():
        layer = TransformerEncoderLayer(4, 2, ffn_dim=8, dropout=0.0, rng=_rng(56))
        mask = np.array([[1, 1, 1], [1, 0, 0]])
        return {
            "fn": lambda x: layer(x, attention_mask=mask),
            "inputs": [_tensor(_rng(57), 2, 3, 4)],
            "params": _params(layer),
        }

    @spec("TransformerEncoder", "2 layers, length-masked")
    def _():
        encoder = TransformerEncoder(2, 4, 2, ffn_dim=4, dropout=0.0, rng=_rng(58))
        mask = np.array([[1, 1, 0]])
        return {
            "fn": lambda x: encoder(x, attention_mask=mask),
            "inputs": [_tensor(_rng(59), 1, 3, 4)],
            "params": _params(encoder),
        }


# -- embeddings --------------------------------------------------------
def _register_embeddings() -> None:
    from ..core.embeddings import LayoutEmbedding, TextEmbedding

    @spec("TextEmbedding", "repeated ids, implied positions (2,3)")
    def _():
        layer = TextEmbedding(5, 4, max_positions=3, rng=_rng(94))
        ids = np.array([[1, 2, 2], [0, 4, 1]])
        segments = np.array([[0, 0, 1], [1, 1, 0]])
        return {"fn": lambda: layer(ids, segments), "inputs": [], "params": _params(layer)}

    @spec("TextEmbedding", "flat ragged buffer, explicit positions (5,)")
    def _():
        layer = TextEmbedding(5, 4, max_positions=3, rng=_rng(95))
        with no_grad():
            layer.norm.gamma.data[:] = _rng(96).standard_normal(4)
        ids, positions = np.array([3, 1, 3, 2, 4]), np.array([0, 1, 0, 1, 2])
        return {
            "fn": lambda: layer(ids, np.zeros(5, dtype=np.int64), positions=positions),
            "inputs": [],
            "params": _params(layer),
        }

    @spec("LayoutEmbedding", "repeated buckets across axes (2,3,7)")
    def _():
        layer = LayoutEmbedding(4, 5, rng=_rng(97), axis_dim=3, page_dim=2)
        layout = _rng(98).integers(0, 5, size=(2, 3, 7))
        layout[..., 4] = layout[..., 0]  # one bucket feeds two x features
        return {"fn": lambda: layer(layout), "inputs": [], "params": _params(layer)}


# -- recurrent ---------------------------------------------------------
def _register_recurrent() -> None:
    from ..nn.recurrent import BiLstm, Lstm, LstmCell
    from ..nn.tensor import concat

    @spec("LstmCell", "one step (2,3)->(2,2)")
    def _():
        cell = LstmCell(3, 2, rng=_rng(60))

        def fn(x, h, c):
            h_next, c_next = cell(x, (h, c))
            return concat([h_next, c_next], axis=-1)

        return {
            "fn": fn,
            "inputs": [_tensor(_rng(61), 2, 3), _tensor(_rng(62), 2, 2), _tensor(_rng(63), 2, 2)],
            "params": _params(cell),
        }

    @spec("Lstm", "forward, no mask (2,4,2)")
    def _():
        lstm = Lstm(2, 2, rng=_rng(64))
        return {"fn": lstm, "inputs": [_tensor(_rng(65), 2, 4, 2)], "params": _params(lstm)}

    @spec("Lstm", "forward, ragged mask")
    def _():
        lstm = Lstm(2, 2, rng=_rng(66))
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)
        return {
            "fn": lambda x: lstm(x, mask=mask),
            "inputs": [_tensor(_rng(67), 2, 4, 2)],
            "params": _params(lstm),
        }

    @spec("Lstm", "reverse, ragged mask")
    def _():
        lstm = Lstm(2, 2, reverse=True, rng=_rng(68))
        mask = np.array([[1, 1, 1], [1, 0, 0]], dtype=np.float64)
        return {
            "fn": lambda x: lstm(x, mask=mask),
            "inputs": [_tensor(_rng(69), 2, 3, 2)],
            "params": _params(lstm),
        }

    @spec("BiLstm", "ragged mask (2,3,2)")
    def _():
        bilstm = BiLstm(2, 2, rng=_rng(70))
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float64)
        return {
            "fn": lambda x: bilstm(x, mask=mask),
            "inputs": [_tensor(_rng(71), 2, 3, 2)],
            "params": _params(bilstm),
        }

    @spec("BiLstm", "no mask (2,3,2)")
    def _():
        bilstm = BiLstm(2, 2, rng=_rng(72))
        return {"fn": bilstm, "inputs": [_tensor(_rng(73), 2, 3, 2)], "params": _params(bilstm)}

    @spec("BiLstm", "every row shorter than the padded width (2,4,2)")
    def _():
        bilstm = BiLstm(2, 2, rng=_rng(74))
        mask = np.array([[1, 1, 1, 0], [1, 0, 0, 0]], dtype=np.float64)
        return {
            "fn": lambda x: bilstm(x, mask=mask),
            "inputs": [_tensor(_rng(75), 2, 4, 2)],
            "params": _params(bilstm),
        }


# -- crf ---------------------------------------------------------------
def _register_crf() -> None:
    from ..nn.crf import FuzzyCrf, LinearChainCrf

    @spec("LinearChainCrf", "full mask, fused path")
    def _():
        crf = LinearChainCrf(3, rng=_rng(80))
        tags = np.array([[0, 2, 1, 0], [2, 1, 1, 2]])
        return {
            "fn": lambda e: crf.neg_log_likelihood(e, tags),
            "inputs": [_tensor(_rng(81), 2, 4, 3)],
            "params": _params(crf),
        }

    @spec("LinearChainCrf", "ragged prefix mask, fused path")
    def _():
        crf = LinearChainCrf(3, rng=_rng(82))
        tags = np.array([[1, 0, 2, 1], [0, 1, 0, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)
        return {
            "fn": lambda e: crf.neg_log_likelihood(e, tags, mask=mask),
            "inputs": [_tensor(_rng(83), 2, 4, 3)],
            "params": _params(crf),
        }

    for reduction in ("none", "sum"):

        @spec("LinearChainCrf", f"reduction={reduction}, a length-1 row")
        def _(reduction=reduction):
            crf = LinearChainCrf(3, rng=_rng(88))
            tags = np.array([[2, 0, 1], [1, 0, 0], [0, 2, 2]])
            mask = np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0]], dtype=np.float64)
            return {
                "fn": lambda e: crf.neg_log_likelihood(e, tags, mask, reduction),
                "inputs": [_tensor(_rng(89), 3, 3, 3)],
                "params": _params(crf),
            }

    @spec("LinearChainCrf", "non-prefix mask, reference path")
    def _():
        crf = LinearChainCrf(3, rng=_rng(84))
        tags = np.array([[0, 1, 2, 0], [2, 0, 1, 1]])
        mask = np.array([[1, 1, 1, 1], [1, 0, 1, 0]], dtype=np.float64)
        return {
            "fn": lambda e: crf.neg_log_likelihood(e, tags, mask=mask),
            "inputs": [_tensor(_rng(85), 2, 4, 3)],
            "params": _params(crf),
        }

    @spec("FuzzyCrf", "constrained nll, ragged mask")
    def _():
        crf = FuzzyCrf(3, rng=_rng(86))
        allowed = np.ones((2, 4, 3), dtype=bool)
        allowed[0, 1] = [True, False, False]
        allowed[0, 2] = [False, True, True]
        allowed[1, 0] = [False, True, False]
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float64)
        return {
            "fn": lambda e: crf.constrained_nll(e, allowed, mask=mask),
            "inputs": [_tensor(_rng(87), 2, 4, 3)],
            "params": _params(crf),
        }


def _register_all_specs() -> None:
    if SPECS:
        return
    _register_tensor()
    _register_functional()
    _register_layers()
    _register_attention()
    _register_embeddings()
    _register_recurrent()
    _register_crf()


def discover_ops() -> Dict[str, str]:
    """Map every public export of the swept nn modules to its module."""
    ops: Dict[str, str] = {}
    for module_name in SWEPT_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            ops[name] = module_name
    return ops


def run_sweep(only: Optional[Sequence[str]] = None) -> List[GradcheckResult]:
    """Gradcheck every discovered op against its registered spec cases.

    A discovered op with neither a spec nor a ``NON_DIFFERENTIABLE``
    justification produces a failing result — coverage is enforced, not
    assumed.
    """
    _register_all_specs()
    ops = discover_ops()
    results: List[GradcheckResult] = []
    selected = set(only) if only else None
    if selected is not None:
        for unknown in sorted(selected - set(ops)):
            results.append(
                GradcheckResult(
                    name=unknown,
                    ok=False,
                    error=(
                        "not a discovered op; see --list for the swept names"
                    ),
                )
            )
    for op_name, module_name in sorted(ops.items()):
        if selected is not None and op_name not in selected:
            continue
        if op_name in NON_DIFFERENTIABLE:
            continue
        cases = SPECS.get(op_name)
        if not cases:
            results.append(
                GradcheckResult(
                    name=op_name,
                    ok=False,
                    error=(
                        f"exported by {module_name} but has no gradcheck "
                        "spec; register one in repro.analysis.gradcheck "
                        "or justify it in NON_DIFFERENTIABLE"
                    ),
                )
            )
            continue
        for label, builder in cases:
            case = builder()
            tolerances = {
                key: case[key] for key in ("eps", "atol", "rtol") if key in case
            }
            results.append(
                gradcheck(
                    case["fn"],
                    case["inputs"],
                    case.get("params", ()),
                    name=f"{op_name} [{label}]",
                    **tolerances,
                )
            )
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.gradcheck",
        description="Numerical-gradient sweep over the nn substrate.",
    )
    parser.add_argument("--ops", nargs="*", default=None, help="subset of op names")
    parser.add_argument(
        "--list", action="store_true", help="list discovered ops and case counts"
    )
    args = parser.parse_args(argv)

    _register_all_specs()
    if args.list:
        for op_name, module_name in sorted(discover_ops().items()):
            cases = SPECS.get(op_name, [])
            note = NON_DIFFERENTIABLE.get(op_name)
            suffix = f"skipped: {note}" if note else f"{len(cases)} case(s)"
            print(f"{op_name:28s} {module_name:24s} {suffix}")
        return 0

    results = run_sweep(args.ops)
    failed = [result for result in results if not result.ok]
    for result in results:
        print(result.render())
    print(
        f"{len(results) - len(failed)}/{len(results)} case(s) passed"
        + (f", {len(failed)} FAILED" if failed else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
