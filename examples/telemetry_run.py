"""Instrumented training run: every step, span and metric in one JSONL.

Trains a small ResuFormer (pre-training + block-classifier fine-tuning +
batched inference) inside a :func:`repro.obs.telemetry` session with the
default alert rules armed.  The session streams a structured run log —
``run_start`` with config and seeds, per-step losses and gradient norms,
per-stage spans (featurize / encode / decode), cache hit/miss metrics,
drift checks against a reference captured from the trained model's own
predictions, a final metric snapshot, ``run_end`` — to the path given on
the command line (default ``run_telemetry.jsonl``).

Render or gate the log afterwards with::

    python -m repro.obs.report run_telemetry.jsonl
    python -m repro.obs.compare baselines/run_telemetry_baseline.jsonl \
        run_telemetry.jsonl --no-timing

``--epochs`` shrinks or grows the fine-tuning run (CI uses 2).
``--profile-hz`` arms the continuous sampling profiler (``profile``
events land in the log; render with ``report --profile``).
"""

import argparse

import numpy as np

import repro  # noqa: F401  (pins BLAS threads)
from repro import obs
from repro.obs.drift import ReferenceProfile
from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    Pretrainer,
    ResuFormerConfig,
)
from repro.corpus import ContentConfig, ResumeGenerator
from repro.text import WordPieceTokenizer

SEED = 13


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "run_log", nargs="?", default="run_telemetry.jsonl",
        help="where to write the JSONL run log",
    )
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--pretrain-epochs", type=int, default=1)
    parser.add_argument("--num-docs", type=int, default=10)
    parser.add_argument(
        "--profile-hz", type=float, default=None,
        help="sample every thread's stack at this rate (default: off)",
    )
    options = parser.parse_args()

    generator = ResumeGenerator(seed=SEED, content_config=ContentConfig.tiny())
    documents = generator.batch(options.num_docs)
    tokenizer = WordPieceTokenizer.train(
        (s.text for d in documents for s in d.sentences),
        vocab_size=600,
        min_frequency=1,
    )
    config = ResuFormerConfig(vocab_size=len(tokenizer.vocab))
    featurizer = Featurizer(tokenizer, config)
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(SEED))
    classifier = BlockClassifier(
        encoder, featurizer, rng=np.random.default_rng(SEED + 1)
    )
    labeled = [LabeledDocument.from_gold(d) for d in documents]
    split = max(len(labeled) - 2, 1)
    train, validation = labeled[:split], labeled[split:]

    with obs.telemetry(
        run_log=options.run_log,
        config={
            "epochs": options.epochs,
            "pretrain_epochs": options.pretrain_epochs,
            "num_docs": options.num_docs,
            "vocab_size": config.vocab_size,
            "hidden_dim": config.hidden_dim,
        },
        seeds={"corpus": SEED, "encoder": SEED, "classifier": SEED + 1},
        alerts=True,
        profile_hz=options.profile_hz,
    ) as tel:
        Pretrainer(encoder, featurizer, seed=SEED).fit(
            documents, epochs=options.pretrain_epochs, batch_size=4
        )
        BlockTrainer(classifier, seed=SEED).fit(
            train, validation=validation, epochs=options.epochs, batch_size=4
        )

        # Capture a drift reference from the trained model's own serving
        # behaviour, then monitor an identical pass against it — the
        # healthy-path demo of the DriftMonitor flow (a real deployment
        # would commit the captured profile and monitor fresh traffic).
        tracked = (
            "sentence_length", "sentences_per_doc", "bbox_height",
            "bbox_y_center", "token_oov_rate", "block_label",
            "crf_confidence",
        )
        capture = obs.DriftMonitor(
            ReferenceProfile.template(tracked), check_every=10**9
        )
        tel.drift = capture
        classifier.predict_batch(documents, batch_size=4)
        tel.drift = obs.DriftMonitor(capture.current_profile(), check_every=64)
        classifier.predict_batch(documents, batch_size=4)

        featurizer.cache.export_metrics(tel.metrics)
        alerts_fired = tel.alerts.count()

    print(f"run log written to {options.run_log}")
    print(f"alerts fired: {alerts_fired}")
    flag = " --profile" if options.profile_hz else ""
    print(f"render it with: python -m repro.obs.report {options.run_log}{flag}")


if __name__ == "__main__":
    main()
