"""Tests for the int8 post-training quantization kernels."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Module,
    ModuleList,
    MultiHeadSelfAttention,
    Tensor,
    TransformerEncoder,
    no_grad,
)
from repro.nn import quantize as q

RNG = np.random.default_rng(11)


def make_linear(in_dim=16, out_dim=8, rng_seed=1):
    return Linear(in_dim, out_dim, rng=np.random.default_rng(rng_seed))


def calibrated(layer, x):
    """``layer`` with its activation scale fitted to ``x``."""
    wrapper = Module()
    wrapper.layer = layer
    with q.calibration(wrapper):
        layer.infer(x)
    return layer


class TestQuantizedLinear:
    def test_close_to_float_reference(self):
        linear = make_linear()
        x = RNG.normal(size=(12, 16))
        layer = calibrated(q.QuantizedLinear(linear), x)
        expected = linear.infer(x)
        got = layer.infer(x)
        assert got.dtype == np.float32
        # int8 grids on weights and activations: ~1% relative error budget.
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, atol=0.05 * scale)

    def test_per_channel_weight_scales(self):
        linear = make_linear()
        # Give one output channel a much larger range than the rest; a
        # per-tensor scheme would crush the small channels' precision.
        with no_grad():
            linear.weight.data[:, 0] *= 100.0
        x = RNG.normal(size=(4, 16))
        layer = calibrated(q.QuantizedLinear(linear), x)
        assert layer.weight_scale.shape == (8,)
        assert layer.weight_scale[0] > 10 * layer.weight_scale[1:].max()
        expected = linear.infer(x)
        got = layer.infer(x)
        small = expected[:, 1:]
        np.testing.assert_allclose(
            got[:, 1:], small, atol=0.05 * np.abs(small).max()
        )

    def test_weights_stay_in_int8_grid(self):
        layer = q.QuantizedLinear(make_linear())
        assert layer.weight_q.dtype == np.int8
        staged = layer.weight_f32
        assert np.array_equal(staged, np.rint(staged))
        assert np.abs(staged).max() <= 127.0
        assert np.array_equal(staged, layer.weight_q.astype(np.float32))

    def test_calibration_freezes_activation_scale(self):
        layer = q.QuantizedLinear(make_linear())
        assert layer.act_amax is None
        wrapper = Module()
        wrapper.layer = layer
        big = np.full((2, 16), 3.0)
        with q.calibration(wrapper):
            layer.infer(big)
            layer.infer(np.full((2, 16), 1.0))
        assert layer.act_amax == pytest.approx(3.0)
        # Frozen scale: results no longer depend on the batch's own max.
        x = RNG.normal(size=(5, 16))
        alone = layer.infer(x)
        stacked = layer.infer(np.concatenate([x, 50.0 * x], axis=0))[:5]
        np.testing.assert_array_equal(alone, stacked)

    def test_uncalibrated_layer_raises(self):
        # No fallback to the batch's own maximum: that would make a row's
        # output depend on its batch-mates.
        layer = q.QuantizedLinear(make_linear())
        with pytest.raises(q.CalibrationError, match="calibrated"):
            layer.infer(RNG.normal(size=(5, 16)))
        assert isinstance(q.CalibrationError(), ValueError)

    def test_forward_raises_under_grad(self):
        layer = calibrated(q.QuantizedLinear(make_linear()), RNG.normal(size=(2, 16)))
        with pytest.raises(RuntimeError, match="inference-only"):
            layer(Tensor(RNG.normal(size=(2, 16)), requires_grad=True))
        with no_grad():
            out = layer(Tensor(RNG.normal(size=(2, 16))))
        assert out.shape == (2, 8)

    def test_quantize_activations_rounds_and_clips(self):
        x = np.array([0.0, 0.4, -0.6, 200.0, -200.0], dtype=np.float32)
        grid = q.quantize_activations(x, 1.0)
        np.testing.assert_array_equal(grid, [0.0, 0.0, -1.0, 127.0, -127.0])


class TestModelSwap:
    def _model(self):
        model = Module()
        model.first = make_linear(rng_seed=2)
        model.second = make_linear(rng_seed=3)
        return model

    def test_swap_and_undo_roundtrip(self):
        model = self._model()
        original = (model.first, model.second)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        assert q.quantize_model(model) == 2
        assert all(
            isinstance(m, q.QuantizedLinear) for m in (model.first, model.second)
        )
        # The wrapper is transparent to state_dict.
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])
        assert q.dequantize(model) == 2
        assert (model.first, model.second) == original

    def test_quantize_is_idempotent(self):
        model = self._model()
        assert q.quantize_model(model) == 2
        assert q.quantize_model(model) == 0

    def test_encoder_dtype_flips(self):
        encoder = TransformerEncoder(1, 16, 2, dropout=0.0)
        q.quantize_model(encoder)
        assert encoder.inference_dtype == np.float32
        q.dequantize(encoder)
        assert encoder.inference_dtype == np.float64

    def test_report_counts_layers(self):
        model = self._model()
        q.quantize_model(model)
        report = q.quantization_report(model)
        assert report["quantize.layers"] == 2.0
        assert report["quantize.calibrated_layers"] == 0.0
        with q.calibration(model):
            model.first.infer(RNG.normal(size=(2, 16)))
        assert q.quantization_report(model)["quantize.calibrated_layers"] == 1.0

    def test_every_stack_flips_serving_dtype(self):
        # Every stack in a model flips its serving dtype, not just the root.
        model = ModuleList(
            [TransformerEncoder(2, 16, 2, dropout=0.0),
             TransformerEncoder(1, 16, 4, dropout=0.0)]
        )
        q.quantize_model(model)
        assert [m.inference_dtype for m in model] == [np.float32, np.float32]
        q.dequantize(model)
        assert [m.inference_dtype for m in model] == [np.float64, np.float64]
        q.quantize_model(model)
        q.dequantize(model, np.float32)
        assert [m.inference_dtype for m in model] == [np.float32, np.float32]


class TestCalibratedState:
    def _model(self):
        model = Module()
        model.first = make_linear(rng_seed=2)
        model.second = make_linear(in_dim=8, rng_seed=3)
        return model

    @staticmethod
    def _forward(model):
        def run(rows):
            return model.second.infer(model.first.infer(np.stack(rows)))
        return run

    def test_empty_calibration_set_raises(self):
        model = self._model()
        with pytest.raises(q.CalibrationError, match="non-empty"):
            q.quantize_for_inference(model, [], self._forward(model))
        # Nothing was swapped: the model is still the float model.
        assert q.activation_scales(model) is None

    def test_calibrates_every_layer_once(self):
        model = self._model()
        rows = list(RNG.normal(size=(6, 16)))
        assert q.quantize_for_inference(model, rows, self._forward(model)) == 2
        assert not model.training
        scales = q.activation_scales(model)
        assert sorted(scales) == ["first.weight", "second.weight"]
        assert scales["first.weight"] == pytest.approx(np.abs(np.stack(rows)).max())

    def test_restored_scales_serve_bit_identically(self):
        model = self._model()
        rows = list(RNG.normal(size=(6, 16)))
        q.quantize_for_inference(model, rows, self._forward(model))
        twin = self._model()
        assert q.restore_activation_scales(twin, q.activation_scales(model)) == 2
        x = RNG.normal(size=(3, 16))
        np.testing.assert_array_equal(
            self._forward(twin)(list(x)), self._forward(model)(list(x))
        )

    def test_restore_rejects_missing_or_unknown_scales(self):
        with pytest.raises(q.CalibrationError, match="without activation scales"):
            q.restore_activation_scales(self._model(), {})
        with pytest.raises(q.CalibrationError, match="unknown layers"):
            q.restore_activation_scales(self._model(), {"third.weight": 1.0})


def project_qkv(attn):
    """Calibration forward over the three projections the stack fuses."""
    return lambda xs: [p.infer(xs[0]) for p in (attn.query, attn.key, attn.value)]


class TestStackedQkv:
    def test_matches_three_separate_quantized_calls(self):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, rng=np.random.default_rng(4))
        x = RNG.normal(size=(3, 5, 16)).astype(np.float32)
        q.quantize_for_inference(attn, [x], project_qkv(attn))
        stacked = attn._quantized_qkv(x)
        assert stacked is not None
        np.testing.assert_array_equal(stacked[..., :16], attn.query.infer(x))
        np.testing.assert_array_equal(stacked[..., 16:32], attn.key.infer(x))
        np.testing.assert_array_equal(stacked[..., 32:], attn.value.infer(x))

    def test_cache_invalidates_on_layer_swap(self):
        attn = MultiHeadSelfAttention(16, 4, dropout=0.0, rng=np.random.default_rng(4))
        x = RNG.normal(size=(2, 3, 16)).astype(np.float32)
        q.quantize_for_inference(attn, [x], project_qkv(attn))
        first = attn._quantized_qkv(x)
        # Re-quantizing after dequantize builds new QuantizedLinear objects;
        # the stacked weights must follow them, not the cached originals.
        q.dequantize(attn)
        attn.query.weight.data = attn.query.weight.data * 2.0
        q.quantize_for_inference(attn, [x], project_qkv(attn))
        second = attn._quantized_qkv(x)
        assert not np.array_equal(first[..., :16], second[..., :16])
        np.testing.assert_array_equal(second[..., :16], attn.query.infer(x))
