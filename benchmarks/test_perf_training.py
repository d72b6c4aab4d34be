"""Perf benchmark: batched training steps vs per-document training steps.

Times one epoch of block-classifier training both ways on the same
documents — the classic loop (zero_grad / loss / backward / clip / step
per document) against the mini-batch engine (one collated CRF loss and
one optimizer step per ``BATCH_SIZE`` documents) — and records steps/sec,
sentences/sec, per-stage breakdown (collate / loss / backward / step),
plus the same comparison for the pre-training objectives and the NER
word-BiLSTM loss.  The machine-readable report goes to
``BENCH_training.json`` at the repository root.

Both paths are timed in interleaved rounds and the speedup is taken from
each path's fastest round (noise only ever inflates a round, so the
minimum is the most faithful estimate of true cost).  Before any timing,
the batched loss is asserted equal (within tolerance) to the mean of the
per-document losses — a fast batch that optimises a different objective
would be worthless.

``BENCH_TRAIN_SMOKE=1`` shrinks the workload for CI and skips the
speedup floor (shared runners are too noisy to gate on), keeping the
parity assertions.

Run via ``make bench-train`` (or ``pytest benchmarks/test_perf_training.py``).
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

import repro  # noqa: F401  (pins BLAS threads)
from repro import obs
from repro.core import (
    BlockClassifier,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    Pretrainer,
    ResuFormerConfig,
    collate_documents,
    collate_labels,
    iter_minibatches,
)
from repro.corpus import ContentConfig, ResumeGenerator, build_ner_corpus
from repro.eval import LatencyStats
from repro.ner import NerConfig, NerTagger
from repro.nn import AdamW, ParamGroup, clip_grad_norm
from repro.text import WordPieceTokenizer

REPORT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_training.json",
)

SMOKE = os.environ.get("BENCH_TRAIN_SMOKE", "") not in ("", "0")
NUM_DOCS = 8 if SMOKE else 32
BATCH_SIZE = 8
ROUNDS = 2 if SMOKE else 5
SEED = 417


def _build_world():
    generator = ResumeGenerator(seed=SEED, content_config=ContentConfig.tiny())
    documents = generator.batch(NUM_DOCS)
    tokenizer = WordPieceTokenizer.train(
        (s.text for d in documents for s in d.sentences),
        vocab_size=600,
        min_frequency=1,
    )
    config = ResuFormerConfig(vocab_size=len(tokenizer.vocab), dropout=0.0)
    featurizer = Featurizer(tokenizer, config)
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(SEED))
    model = BlockClassifier(encoder, featurizer, rng=np.random.default_rng(SEED + 1))
    labeled = [LabeledDocument.from_gold(d) for d in documents]
    features = [featurizer.featurize(item.document) for item in labeled]
    return documents, model, labeled, features


def _zero_lr_optimizer(parameters) -> AdamW:
    """Full AdamW step compute with a 0.0 learning rate.

    Every measured round then runs on identical parameters — the work per
    round is exactly repeatable and the pre-timing parity check stays
    valid throughout — while the step itself costs the same as a real one.
    """
    return AdamW([ParamGroup(parameters, 0.0)], weight_decay=0.0)


def test_batched_training_speedup():
    _, model, labeled, features = _build_world()
    model.train()
    parameters = model.parameters()
    optimizer = _zero_lr_optimizer(parameters)
    label_lists = [item.labels for item in labeled]

    # Length-bucketed chunks, exactly as BlockTrainer.fit forms them:
    # each chunk groups similarly-sized documents so the padded kernels
    # don't pay the longest document's cost on every row.  Collation is
    # still *timed* (re-done inside the batched rounds) since it is
    # genuine per-step work of the batched path.
    chunk_indices = list(iter_minibatches(
        len(features), BATCH_SIZE,
        lengths=[f.num_sentences for f in features],
    ))
    chunk_features = [[features[i] for i in c] for c in chunk_indices]
    chunk_labels = [[label_lists[i] for i in c] for c in chunk_indices]

    # Parity first: a fast step that computes the wrong loss is worthless.
    parity_gap = 0.0
    for chunk, labels in zip(chunk_features, chunk_labels):
        batched = float(model.loss_batch(
            collate_documents(chunk), collate_labels(chunk, labels)
        ).data)
        singles = [float(model.loss(f, l).data) for f, l in zip(chunk, labels)]
        parity_gap = max(parity_gap, abs(batched - float(np.mean(singles))))
    assert parity_gap < 1e-6, (
        f"batched loss drifted {parity_gap:.2e} from the per-document mean"
    )

    def single_step(f, labels):
        optimizer.zero_grad()
        loss = model.loss(f, labels)
        loss.backward()
        clip_grad_norm(parameters, 5.0)
        optimizer.step()

    stages = obs.Tracer()

    def batched_step(chunk, labels):
        with stages.span("collate"):
            batch = collate_documents(chunk)
            label_block = collate_labels(chunk, labels)
        optimizer.zero_grad()
        with stages.span("loss"):
            loss = model.loss_batch(batch, label_block)
        with stages.span("backward"):
            loss.backward()
        with stages.span("step"):
            clip_grad_norm(parameters, 5.0)
            optimizer.step()

    # Warm both code paths before measuring.
    single_step(features[0], label_lists[0])
    batched_step(chunk_features[0], chunk_labels[0])

    single_samples = []
    single_rounds = []
    batched_rounds = []
    # The batched rounds run under a telemetry session so optimizer-step
    # timings and grad-norm gauges land in the report; the per-document
    # reference rounds stay outside it, so instrumentation cost can only
    # ever count *against* the batched path it is reported for.
    session = obs.Telemetry()
    for _ in range(ROUNDS):
        gc.collect()
        started_round = time.perf_counter()
        for f, labels in zip(features, label_lists):
            started = time.perf_counter()
            single_step(f, labels)
            single_samples.append(time.perf_counter() - started)
        single_rounds.append(time.perf_counter() - started_round)

        gc.collect()
        started_round = time.perf_counter()
        with obs.use_telemetry(session):
            for chunk, labels in zip(chunk_features, chunk_labels):
                batched_step(chunk, labels)
        batched_rounds.append(time.perf_counter() - started_round)

    single = LatencyStats.from_samples(single_samples)
    batched = LatencyStats.from_samples(batched_rounds, units=[NUM_DOCS] * ROUNDS)
    num_sentences = sum(f.num_sentences for f in features)
    speedup = min(single_rounds) / min(batched_rounds)

    # --- Pre-training objectives: batch-of-8 step vs batch-of-1 steps ---
    pretrainer = Pretrainer(model.encoder, model.featurizer, seed=SEED)
    pretrainer.optimizer = _zero_lr_optimizer(
        pretrainer.encoder.parameters() + pretrainer.heads.parameters()
    )
    pretrainer.pretrain_step(features[:BATCH_SIZE])  # warm
    pre_single_rounds, pre_batched_rounds = [], []
    pretrain_rounds = 1 if SMOKE else 3
    for _ in range(pretrain_rounds):
        gc.collect()
        started = time.perf_counter()
        for f in features[:BATCH_SIZE]:
            pretrainer.pretrain_step([f])
        pre_single_rounds.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        with obs.use_telemetry(session):
            losses = pretrainer.pretrain_step(features[:BATCH_SIZE])
        pre_batched_rounds.append(time.perf_counter() - started)
    pretrain_speedup = min(pre_single_rounds) / min(pre_batched_rounds)

    # --- NER word-BiLSTM+MLP loss: per-example steps vs one batched step ---
    corpus = build_ner_corpus(
        num_train_docs=4, num_validation_docs=1, num_test_docs=1, seed=SEED
    )
    ner_tokenizer = WordPieceTokenizer.train(
        [e.text for e in corpus.train], vocab_size=400, min_frequency=1
    )
    tagger = NerTagger(
        NerConfig(
            vocab_size=len(ner_tokenizer.vocab),
            hidden_dim=32,
            layers=1,
            heads=2,
            lstm_hidden=16,
            dropout=0.0,
        ),
        ner_tokenizer,
        rng=np.random.default_rng(SEED),
    )
    tagger.train()
    examples = (corpus.train * BATCH_SIZE)[:BATCH_SIZE]
    ner_params = tagger.parameters()
    ner_optimizer = _zero_lr_optimizer(ner_params)
    ner_batch = tagger.featurizer.featurize(examples)
    ner_singles = [tagger.featurizer.featurize([e]) for e in examples]

    def ner_step(loss_fn):
        ner_optimizer.zero_grad()
        loss = loss_fn()
        loss.backward()
        clip_grad_norm(ner_params, 5.0)
        ner_optimizer.step()
        return float(loss.data)

    ner_step(lambda: tagger.loss_batch(ner_batch))  # warm
    ner_single_rounds, ner_batched_rounds = [], []
    for _ in range(ROUNDS):
        gc.collect()
        started = time.perf_counter()
        singles = [ner_step(lambda f=f: tagger.loss(f)) for f in ner_singles]
        ner_single_rounds.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        ner_batched_loss = ner_step(lambda: tagger.loss_batch(ner_batch))
        ner_batched_rounds.append(time.perf_counter() - started)
    assert abs(ner_batched_loss - float(np.mean(singles))) < 1e-6
    ner_speedup = min(ner_single_rounds) / min(ner_batched_rounds)

    report = {
        "benchmark": "batched_training",
        "smoke": SMOKE,
        "num_documents": NUM_DOCS,
        "batch_size": BATCH_SIZE,
        "rounds": ROUNDS,
        "block_trainer": {
            "per_document_step": single.to_dict(),
            "batched_step": batched.to_dict(),
            "best_round_seconds": {
                "per_document_step": min(single_rounds),
                "batched_step": min(batched_rounds),
            },
            "speedup_per_document": speedup,
            "loss_parity_max_abs_diff": parity_gap,
            "steps_per_second": {
                "per_document": NUM_DOCS / min(single_rounds),
                "batched": len(chunk_features) / min(batched_rounds),
            },
            "sentences_per_second": {
                "per_document": num_sentences / min(single_rounds),
                "batched": num_sentences / min(batched_rounds),
            },
            "stages": stages.breakdown(),
        },
        "pretrain": {
            "batch_size": BATCH_SIZE,
            "best_round_seconds": {
                "per_document_step": min(pre_single_rounds),
                "batched_step": min(pre_batched_rounds),
            },
            "speedup_per_document": pretrain_speedup,
            "losses": losses,
        },
        "ner": {
            "batch_size": BATCH_SIZE,
            "best_round_seconds": {
                "per_example_step": min(ner_single_rounds),
                "batched_step": min(ner_batched_rounds),
            },
            "speedup_per_example": ner_speedup,
        },
        "telemetry": session.summary(),
    }
    obs.write_json(REPORT_PATH, report)
    print(
        f"\nblock training: per-doc p50={single.p50 * 1e3:.1f}ms/doc, batched "
        f"p50={batched.p50 * 1e3:.1f}ms/doc | speedup {speedup:.2f}x | "
        f"{num_sentences / min(batched_rounds):.0f} sentences/s | "
        f"pretrain {pretrain_speedup:.2f}x | ner {ner_speedup:.2f}x"
        f"\n[saved to {REPORT_PATH}]",
        flush=True,
    )

    if not SMOKE:
        assert speedup >= 2.0, (
            f"batched training step must be >= 2x faster per document at "
            f"batch {BATCH_SIZE}, got {speedup:.2f}x"
        )
