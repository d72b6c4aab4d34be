"""Quantization parity benchmark: int8 serving vs float serving.

Fine-tunes a small block classifier briefly (so labels have real
margins), then serves the same documents through the float64 fused path
and the int8 quantized path, and reports:

* block-level entity F1 of each path against the corpus gold labels,
* the :func:`repro.obs.compare` parity gate — int8 F1 may not fall more
  than ``F1_TOLERANCE`` relative to float F1 — whose JSON diff is the
  artifact CI uploads,
* best-round serving latency for both paths and the int8 speedup.

Run via ``make bench-quant`` (or ``pytest benchmarks/test_perf_quantized.py``).
The report lands in ``BENCH_quantized_inference.json`` at the repo root.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time

import numpy as np

import repro  # noqa: F401  (pins BLAS threads)
from repro import obs
from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    ResuFormerConfig,
)
from repro.corpus import ContentConfig, ResumeGenerator
from repro.docmodel import BLOCK_SCHEME
from repro.eval import entity_prf
from repro.obs.compare import Gate, compare_summaries
from repro.text import WordPieceTokenizer

REPORT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_quantized_inference.json",
)

NUM_DOCS = 24
TRAIN_DOCS = 12
BATCH_SIZE = 8
ROUNDS = 3
SEED = 1129

#: Relative block-F1 the int8 path may lose versus float serving.
F1_TOLERANCE = 0.05


def _build_world():
    generator = ResumeGenerator(seed=SEED, content_config=ContentConfig.tiny())
    documents = generator.batch(NUM_DOCS + TRAIN_DOCS)
    tokenizer = WordPieceTokenizer.train(
        (s.text for d in documents for s in d.sentences),
        vocab_size=500,
        min_frequency=1,
    )
    config = ResuFormerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32,
        sentence_layers=1,
        sentence_heads=2,
        document_layers=1,
        document_heads=2,
        visual_proj_dim=8,
        dropout=0.0,
    )
    featurizer = Featurizer(tokenizer, config)
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(SEED))
    model = BlockClassifier(
        encoder, featurizer, lstm_hidden=16, rng=np.random.default_rng(SEED + 1)
    )
    train = [LabeledDocument.from_gold(d) for d in documents[NUM_DOCS:]]
    BlockTrainer(model, seed=0).fit(train, epochs=6)
    # Calibrate on training documents, never on the scored ones: scales
    # fitted to the test set would flatter the parity gate.
    return documents[:NUM_DOCS], documents[NUM_DOCS : NUM_DOCS + 8], model


def _timed_sweep(model, documents):
    rounds = []
    for _ in range(ROUNDS):
        gc.collect()
        started = time.perf_counter()
        labels = model.predict_batch(documents, batch_size=BATCH_SIZE)
        rounds.append(time.perf_counter() - started)
    return labels, rounds


def test_quantized_parity_and_speedup():
    documents, calibration, model = _build_world()
    gold = [
        BLOCK_SCHEME.decode(d.block_iob_labels(BLOCK_SCHEME)) for d in documents
    ]

    model.predict_batch(documents, batch_size=BATCH_SIZE)  # warm cache + kernels
    float_labels, float_rounds = _timed_sweep(model, documents)
    float_score = entity_prf(gold, float_labels, BLOCK_SCHEME)

    model.quantize_for_inference(calibration)
    model.predict_batch(documents, batch_size=BATCH_SIZE)  # warm int8 kernels
    int8_labels, int8_rounds = _timed_sweep(model, documents)
    int8_score = entity_prf(gold, int8_labels, BLOCK_SCHEME)
    agreement = entity_prf(float_labels, int8_labels, BLOCK_SCHEME)

    gate = compare_summaries(
        {"block_f1.gold": float_score.f1, "block_f1.float_agreement": 1.0},
        {"block_f1.gold": int8_score.f1, "block_f1.float_agreement": agreement.f1},
        gates=[Gate("block_f1.*", F1_TOLERANCE, "rel_decrease")],
    )

    speedup = min(float_rounds) / min(int8_rounds)
    report = {
        "benchmark": "quantized_inference",
        "num_documents": NUM_DOCS,
        "batch_size": BATCH_SIZE,
        "rounds": ROUNDS,
        "float": {
            "block_f1_vs_gold": dataclasses.asdict(float_score),
            "rounds_seconds": float_rounds,
            "best_round_seconds": min(float_rounds),
        },
        "int8": {
            "block_f1_vs_gold": dataclasses.asdict(int8_score),
            "block_f1_vs_float": dataclasses.asdict(agreement),
            "rounds_seconds": int8_rounds,
            "best_round_seconds": min(int8_rounds),
        },
        "int8_vs_float_speedup": speedup,
        "parity_gate": gate,
    }
    obs.write_json(REPORT_PATH, report)
    print(
        f"\nblock F1 vs gold: float {float_score.f1:.3f} | int8 "
        f"{int8_score.f1:.3f} | int8/float label agreement "
        f"{agreement.f1:.3f}\nbest round: float {min(float_rounds) * 1e3:.1f}ms "
        f"| int8 {min(int8_rounds) * 1e3:.1f}ms | speedup {speedup:.2f}x"
        f"\n[saved to {REPORT_PATH}]",
        flush=True,
    )

    assert gate["ok"], gate["regressions"]
    assert speedup > 1.0, f"int8 must beat float serving, got {speedup:.2f}x"
