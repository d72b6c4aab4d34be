"""Quantized + fused serving: parity gates and telemetry integrity.

The fused float64 path must stay bit-identical to the graph path; the
int8 path trades exactness for speed and is held to an entity-F1 parity
gate (the same :mod:`repro.obs.compare` machinery CI uses); and serving
in either mode must keep the observability contract — stage spans,
quantization gauges and the feature-cache hit-rate gauge — intact.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    ResuFormerConfig,
    collate_documents,
)
from repro.corpus import ContentConfig, ResumeGenerator, extract_block_examples
from repro.docmodel import BLOCK_SCHEME
from repro.eval import entity_prf
from repro.ner import NerConfig, NerTagger
from repro.nn import BiLstm, LinearChainCrf, TransformerEncoder, no_grad
from repro.nn.quantize import quantization_report
from repro.obs.compare import Gate, compare_summaries

from ..helpers import masked_viterbi, per_direction_bilstm

#: Relative entity-F1 the int8 path may lose versus float serving.
F1_TOLERANCE = 0.05

#: Held-out int8 calibration set, disjoint from every scored document.
CALIBRATION = ResumeGenerator(seed=8, content_config=ContentConfig.tiny()).batch(2)


def build_model(config, tokenizer):
    featurizer = Featurizer(tokenizer, config)
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(3))
    return BlockClassifier(
        encoder, featurizer, lstm_hidden=16, rng=np.random.default_rng(9)
    )


@pytest.fixture(scope="module")
def trained_state(config, tokenizer, tiny_docs):
    """Briefly fine-tuned float weights, shared by every parity test.

    An untrained head decodes near-uniform emissions whose argmax flips
    under any rounding change; training first gives the labels real
    margins, so parity failures mean broken kernels, not noise.
    """
    model = build_model(config, tokenizer)
    labeled = [LabeledDocument.from_gold(d) for d in tiny_docs]
    BlockTrainer(model, seed=0).fit(
        labeled[:4], validation=labeled[4:], epochs=2, patience=5
    )
    return model.state_dict()


def load_model(config, tokenizer, trained_state, precision="float64"):
    """The trained model at ``precision``; int8 calibrates once, up front."""
    float_precision = "float64" if precision == "int8" else precision
    config = dataclasses.replace(config, inference_precision=float_precision)
    model = build_model(config, tokenizer)
    model.load_state_dict(trained_state)
    if precision == "int8":
        model.quantize_for_inference(CALIBRATION)
    return model


def stack_dtypes(model):
    return {
        m.inference_dtype for m in model.modules()
        if isinstance(m, TransformerEncoder)
    }


class TestFloat64Parity:
    def test_fused_raw_path_matches_graph_path(
        self, config, tokenizer, tiny_docs, trained_state
    ):
        # Individual kernels are bitwise-identical to the compositional
        # ops (tests/nn/test_attention.py); end to end the only drift is
        # GEMM blocking, which varies with buffer shape — a few ulp, far
        # inside the 1e-6 parity budget.
        model = load_model(config, tokenizer, trained_state)
        model.eval()
        batch = collate_documents(
            [model.featurizer.featurize(d) for d in tiny_docs[:4]]
        )
        with no_grad():
            fused = model.emissions_batch(batch).numpy()
        graph = model.emissions_batch(batch).numpy()  # grad enabled
        np.testing.assert_allclose(fused, graph, atol=1e-12)


class TestServingHeadUnchanged:
    """The stacked BiLSTM recurrence and the unmasked Viterbi decode serve
    exactly what the per-direction loops and the masked decode served."""

    @pytest.mark.parametrize("precision", ["float64", "int8"])
    def test_emissions_and_labels_bitwise(
        self, config, tokenizer, tiny_docs, trained_state, precision, monkeypatch
    ):
        def serve():
            model = load_model(config, tokenizer, trained_state, precision)
            labels = model.predict_batch(tiny_docs, batch_size=4)
            batch = collate_documents(
                [model.featurizer.featurize(d) for d in tiny_docs]
            )
            with no_grad():
                emissions = model.emissions_batch(batch).numpy()
            return labels, emissions, model.crf.decode(emissions, batch.sentence_mask)

        labels, emissions, paths = serve()
        monkeypatch.setattr(BiLstm, "infer", per_direction_bilstm)
        monkeypatch.setattr(LinearChainCrf, "decode", masked_viterbi)
        old_labels, old_emissions, old_paths = serve()
        assert labels == old_labels
        assert paths == old_paths
        np.testing.assert_array_equal(emissions, old_emissions)


class TestInt8Parity:
    def test_f1_gate_against_float_labels(
        self, config, tokenizer, tiny_docs, trained_state
    ):
        float_model = load_model(config, tokenizer, trained_state)
        float_labels = float_model.predict_batch(tiny_docs)

        int8_model = load_model(config, tokenizer, trained_state, "int8")
        int8_labels = int8_model.predict_batch(tiny_docs)
        assert int8_model.precision == "int8"

        # Score the quantized labels against the float labels as
        # pseudo-gold, then hold the F1 to the same rel_decrease gate the
        # CI quantization-parity job enforces.
        score = entity_prf(float_labels, int8_labels, BLOCK_SCHEME)
        result = compare_summaries(
            {"block_f1.int8_parity": 1.0},
            {"block_f1.int8_parity": score.f1},
            gates=[Gate("block_f1.*", F1_TOLERANCE, "rel_decrease")],
        )
        assert result["ok"], result["regressions"]

    def test_calibrated_labels_are_batch_independent(
        self, config, tokenizer, tiny_docs, trained_state
    ):
        model = load_model(config, tokenizer, trained_state, "int8")
        # Activation scales were fixed by the calibration pass, before
        # any request: no call can move them.
        baseline = model.predict_batch(tiny_docs, batch_size=8)
        assert model.predict_batch(tiny_docs, batch_size=2) == baseline
        assert model.predict_batch(tiny_docs, batch_size=1) == baseline
        assert [model.predict(d) for d in tiny_docs] == baseline

    def test_dequantize_restores_float_serving(
        self, config, tokenizer, tiny_docs, trained_state
    ):
        float_model = load_model(config, tokenizer, trained_state)
        expected = float_model.predict_batch(tiny_docs[:3])

        model = load_model(config, tokenizer, trained_state, "int8")
        model.predict_batch(tiny_docs[:3])
        model.dequantize()
        assert model.precision == "float64"
        assert stack_dtypes(model) == {np.float64}
        assert model.predict_batch(tiny_docs[:3]) == expected
        assert quantization_report(model)["quantize.layers"] == 0

    def test_empty_calibration_set_raises(
        self, config, tokenizer, trained_state
    ):
        from repro.nn.quantize import CalibrationError

        model = load_model(config, tokenizer, trained_state)
        with pytest.raises(CalibrationError):
            model.quantize_for_inference([])
        assert model.precision == "float64"


class TestFloat32Mode:
    def test_labels_stay_close_to_float64(
        self, config, tokenizer, tiny_docs, trained_state
    ):
        float_model = load_model(config, tokenizer, trained_state)
        float_labels = float_model.predict_batch(tiny_docs)
        narrow = load_model(config, tokenizer, trained_state, "float32")
        narrow_labels = narrow.predict_batch(tiny_docs)
        score = entity_prf(float_labels, narrow_labels, BLOCK_SCHEME)
        assert score.f1 >= 1.0 - F1_TOLERANCE

    def test_set_at_construction_and_restored_by_dequantize(
        self, config, tokenizer, trained_state
    ):
        model = load_model(config, tokenizer, trained_state, "float32")
        assert stack_dtypes(model) == {np.float32}
        model.quantize_for_inference(CALIBRATION)
        model.dequantize()
        assert model.precision == "float32"
        assert stack_dtypes(model) == {np.float32}


class TestNoLazyQuantization:
    """Serving never quantizes or calibrates: int8 is entered explicitly."""

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_predict_batch_leaves_float_model_float(
        self, config, tokenizer, tiny_docs, trained_state, precision
    ):
        model = load_model(config, tokenizer, trained_state, precision)
        model.predict_batch(tiny_docs[:2])
        model.predict(tiny_docs[2])
        assert quantization_report(model)["quantize.layers"] == 0
        assert model.precision == precision

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_ner_predict_leaves_float_tagger_float(self, tokenizer, tiny_docs, precision):
        tagger = NerTagger(
            NerConfig(vocab_size=len(tokenizer.vocab), hidden_dim=16, layers=1,
                      heads=2, lstm_hidden=8, dropout=0.0,
                      inference_precision=precision),
            tokenizer, rng=np.random.default_rng(4),
        )
        examples = extract_block_examples(tiny_docs[:2])
        tagger.predict([])
        tagger.predict(examples)
        tagger.predict_probs(examples[:3])
        assert quantization_report(tagger)["quantize.layers"] == 0
        assert stack_dtypes(tagger) == {getattr(np, precision)}

    def test_configs_reject_int8(self, tokenizer):
        with pytest.raises(ValueError, match="quantize_for_inference"):
            ResuFormerConfig(inference_precision="int8").validate()
        with pytest.raises(ValueError, match="quantize_for_inference"):
            NerConfig(vocab_size=len(tokenizer.vocab), inference_precision="int8")


class TestServingTelemetry:
    def test_spans_counters_and_gauges_survive_fused_int8(
        self, config, tokenizer, tiny_docs, trained_state
    ):
        model = load_model(config, tokenizer, trained_state, "int8")
        # Count serving lookups only, not the calibration pass's misses.
        model.featurizer.cache.clear()
        session = obs.Telemetry()
        with obs.use_telemetry(session):
            model.predict_batch(tiny_docs, batch_size=4)
            model.predict_batch(tiny_docs, batch_size=4)  # cache-warm sweep
        model.featurizer.cache.export_metrics(session.metrics)
        summary = session.summary()

        spans = summary["spans"]
        for name in ("predict_batch", "featurize", "encode", "decode"):
            assert name in spans and spans[name]["calls"] >= 1, name

        metrics = summary["metrics"]
        def value(name):
            return metrics[name]["series"][0]["value"]

        assert value("quantize.layers") > 0
        assert value("quantize.calibrated_layers") > 0
        assert value("quantize.gemm_calls") > 0
        assert value("inference.documents") == 2 * len(tiny_docs)
        # The second sweep re-reads every document from the feature cache.
        assert value("feature_cache.hit_rate") >= 0.5
