"""Post-training int8 quantization for the inference path.

Serving-oriented weight quantization in the style of dynamic-range
quantized GEMMs: per-output-channel int8 weights with a per-tensor
activation scale, applied after training (no fake-quant, no fine-tune).

The arithmetic trick that makes this both fast and exact: the int8
operands are staged as *integer-valued float32* arrays, so the GEMM runs
through BLAS sgemm at full speed while every product ``x_q * w_q``
(each ≤ 127 in magnitude, summed over ≤ a few thousand terms) stays well
below float32's 2^24 exact-integer range — the accumulation is exact,
and the only rounding error in the whole layer is the activation
quantization itself.

Usage::

    quantize_for_inference(model, held_out_slice, model_forward)
    ...  # serve under no_grad; dequantize(model) restores float
    restore_activation_scales(reloaded, activation_scales(model))

Every activation scale is fixed before the first request, so an output
never depends on what else the process served; an uncalibrated
:class:`QuantizedLinear` raises :class:`CalibrationError`.

:func:`quantize_model` walks a module tree replacing every
:class:`~repro.nn.layers.Linear` with a :class:`QuantizedLinear` wrapper
and flips any :class:`~repro.nn.attention.TransformerEncoder` to a
float32 elementwise pipeline.  The wrapper keeps the original ``Linear``
(and hence parameter names, ``state_dict`` keys and optimizer identity)
intact, so :func:`dequantize` is a pure structural undo.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .layers import Linear
from .module import Module, ModuleList
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "CalibrationError",
    "QuantizedLinear",
    "quantize_model",
    "dequantize",
    "set_serving_dtype",
    "calibration",
    "quantize_for_inference",
    "activation_scales",
    "restore_activation_scales",
    "quantization_report",
]

#: int8 symmetric range; -128 is excluded so negation is closed.
_QMAX = 127.0
#: Guard against zero scales for all-zero weights/activations.
_EPS = 1e-12

# Module-wide GEMM-call counter, exported into telemetry by the core
# predict paths (see ``quantization_report``).
_GEMM_CALLS = 0


class CalibrationError(ValueError):
    """int8 serving was asked for without calibrated activation scales."""


def quantize_activations(x32: np.ndarray, scale: float) -> np.ndarray:
    """Round ``x32 / scale`` into the symmetric int8 grid (float32-staged)."""
    x_q = x32 * np.float32(1.0 / scale)
    np.rint(x_q, out=x_q)
    np.clip(x_q, -_QMAX, _QMAX, out=x_q)
    return x_q


class QuantizedLinear(Module):
    """Drop-in int8 replacement for a :class:`Linear` at inference time.

    Weights are quantized per output channel (one scale per column of
    the ``(in, out)`` weight matrix), which costs nothing at GEMM time —
    the scales fold into the output elementwise multiply — and keeps
    channels with small dynamic range precise.  Activations use a single
    per-tensor scale, the running max recorded by a calibration pass;
    serving before one has run raises :class:`CalibrationError`.

    The wrapped float layer stays on ``self.float_linear`` so parameter
    discovery, ``state_dict`` keys and ``load_state_dict`` behave as if
    the swap never happened.
    """

    def __init__(self, linear: Linear):
        super().__init__()
        self.float_linear = linear
        self.calibrating = False
        #: Calibrated running max of activation magnitude (None = not yet).
        self.act_amax: Optional[float] = None
        w = linear.weight.data
        scale = np.abs(w).max(axis=0) / _QMAX
        scale = np.maximum(scale, _EPS)
        self.weight_scale = scale.astype(np.float32)
        quantized = np.clip(np.rint(w / scale), -_QMAX, _QMAX)
        self.weight_q = quantized.astype(np.int8)
        # Integer-valued float32 staging copy: BLAS-speed GEMM with
        # exact integer accumulation (|products| < 2^24).
        self.weight_f32 = quantized.astype(np.float32)
        self.bias_f32 = (
            None
            if linear.bias is None
            else linear.bias.data.astype(np.float32)
        )

    # Keep the original parameter names: the wrapper is transparent to
    # ``state_dict`` / ``load_state_dict`` / optimizers.
    def named_parameters(self, prefix: str = ""):
        yield from self.float_linear.named_parameters(prefix=prefix)

    def act_scale(self) -> float:
        """The calibrated activation scale; raises if there is none."""
        if self.act_amax is None:
            raise CalibrationError(
                "QuantizedLinear has no calibrated activation scale; "
                "use quantize_for_inference or restore_activation_scales"
            )
        return max(self.act_amax / _QMAX, _EPS)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Quantized affine map on a raw array (float32 out)."""
        global _GEMM_CALLS
        x32 = x.astype(np.float32, copy=False)
        if self.calibrating:
            amax = float(np.abs(x32).max(initial=0.0))
            self.act_amax = max(self.act_amax or 0.0, amax)
            return self.float_linear.infer(x32)
        scale = self.act_scale()
        x_q = quantize_activations(x32, scale)
        out = x_q @ self.weight_f32
        out *= np.float32(scale) * self.weight_scale
        if self.bias_f32 is not None:
            out += self.bias_f32
        _GEMM_CALLS += 1
        return out

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self.infer(x.data))
        raise RuntimeError(
            "QuantizedLinear is inference-only; call dequantize() "
            "before training or run under no_grad()"
        )


def _swap(parent: Module, make_replacement) -> int:
    """Replace Linear children of ``parent`` (attrs and ModuleList items)."""
    swapped = 0
    for name, value in list(vars(parent).items()):
        replacement = make_replacement(value)
        if replacement is not None:
            setattr(parent, name, replacement)
            swapped += 1
    if isinstance(parent, ModuleList):
        for index, value in enumerate(parent._items):
            replacement = make_replacement(value)
            if replacement is not None:
                parent._items[index] = replacement
                swapped += 1
    return swapped


def set_serving_dtype(model: Module, dtype) -> None:
    """Run every ``TransformerEncoder`` in ``model`` in ``dtype`` at serving."""
    from .attention import TransformerEncoder

    for module in model.modules():
        if isinstance(module, TransformerEncoder):
            module.inference_dtype = dtype


def quantize_model(model: Module) -> int:
    """Swap every ``Linear`` in ``model`` for a :class:`QuantizedLinear`.

    Also flips every ``TransformerEncoder`` to a float32 elementwise
    pipeline so the non-GEMM tail (layer norm, GELU, softmax) matches
    the quantized GEMM dtype instead of paying float64 bandwidth.
    Returns the number of layers quantized; idempotent.
    """
    set_serving_dtype(model, np.float32)
    count = 0
    for module in list(model.modules()):
        if isinstance(module, QuantizedLinear):
            continue
        count += _swap(
            module,
            lambda v: QuantizedLinear(v) if type(v) is Linear else None,
        )
    return count


def dequantize(model: Module, dtype=np.float64) -> int:
    """Undo :func:`quantize_model`: the original float layers serve in ``dtype``."""
    count = 0
    for module in list(model.modules()):
        count += _swap(
            module,
            lambda v: v.float_linear if isinstance(v, QuantizedLinear) else None,
        )
    set_serving_dtype(model, dtype)
    return count


@contextlib.contextmanager
def calibration(model: Module):
    """Record activation ranges: run representative inputs inside this block.

    While calibrating, quantized layers compute in float and track the
    running max activation magnitude; afterwards that max becomes the
    fixed activation scale, making outputs independent of how documents
    are batched at serving time.
    """
    layers = [m for m in model.modules() if isinstance(m, QuantizedLinear)]
    for layer in layers:
        layer.calibrating = True
    try:
        yield model
    finally:
        for layer in layers:
            layer.calibrating = False


def quantize_for_inference(
    model: Module, inputs: Sequence, forward: Callable[[list], object]
) -> int:
    """Quantize ``model`` and calibrate it once on held-out ``inputs``.

    ``forward(inputs)`` is the model's serving forward over the whole set,
    run in eval mode under ``no_grad`` while every quantized layer records
    its activation range.  An empty set raises :class:`CalibrationError`.
    Returns the number of layers quantized.
    """
    inputs = list(inputs)
    if not inputs:
        raise CalibrationError("int8 calibration needs a non-empty input set")
    count = quantize_model(model)
    model.eval()
    with calibration(model), no_grad():
        forward(inputs)
    return count


def _layers_by_weight(model: Module) -> Dict[str, QuantizedLinear]:
    names = {id(param): name for name, param in model.named_parameters()}
    return {
        names[id(m.float_linear.weight)]: m
        for m in model.modules()
        if isinstance(m, QuantizedLinear)
    }


def activation_scales(model: Module) -> Optional[Dict[str, float]]:
    """Each calibrated layer's ``act_amax``, keyed by its weight's
    ``state_dict`` name; ``None`` when ``model`` holds no int8 layer."""
    layers = _layers_by_weight(model)
    if not layers:
        return None
    return {k: m.act_amax for k, m in layers.items() if m.act_amax is not None}


def restore_activation_scales(model: Module, scales: Dict[str, float]) -> int:
    """Quantize ``model`` with saved :func:`activation_scales`, without a
    calibration pass; empty or unmatched scales raise
    :class:`CalibrationError`.  Returns the number of layers quantized."""
    if not scales:
        raise CalibrationError("int8 model saved without activation scales")
    count = quantize_model(model)
    layers = _layers_by_weight(model)
    unknown = sorted(set(scales) - set(layers))
    if unknown:
        raise CalibrationError(f"activation scales for unknown layers: {unknown}")
    for name, amax in scales.items():
        layers[name].act_amax = float(amax)
    return count


def quantization_report(model: Module) -> Dict[str, float]:
    """Summarise quantization state for telemetry gauges."""
    layers = [m for m in model.modules() if isinstance(m, QuantizedLinear)]
    calibrated = sum(1 for m in layers if m.act_amax is not None)
    return {
        "quantize.layers": float(len(layers)),
        "quantize.calibrated_layers": float(calibrated),
        "quantize.gemm_calls": float(_GEMM_CALLS),
    }
