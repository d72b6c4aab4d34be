"""Benchmark-side model preparation: a trained parser and its tokenizer.

The parse workloads need a parser whose outputs mean something, so the
benchmark trains one on a fixed preparation corpus and saves it with
``repro.persistence.save_parser``.  Preparation runs once per checkout in
a child process and is cached under ``.bench_build/``, keyed by this
recipe and the program's source, so no timed run ever pays for it and no
run's peak memory includes it.  Everything here is seeded by constants,
never by the workload seed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from typing import List

#: Seed of the preparation corpus (never the workload seed).
PREP_SEED = 4099
PREP_TINY = 40
PREP_PAPER = 12
VOCAB_SIZE = 800
EPOCHS = 15

#: The reproduction-scale model both stages use (one layer, hidden 32):
#: small enough that a run measures hundreds of resumes on one core.
MODEL = dict(
    hidden_dim=32,
    sentence_layers=1,
    sentence_heads=2,
    document_layers=1,
    document_heads=2,
    visual_proj_dim=8,
    dropout=0.0,
)
LSTM_HIDDEN = 16
NER_MODEL = dict(hidden_dim=32, layers=1, heads=2, lstm_hidden=16, dropout=0.0)


def prep_corpus():
    """``(tiny, paper)`` preparation documents, identical on every call."""
    from repro.corpus import ContentConfig, ResumeGenerator

    tiny = ResumeGenerator(PREP_SEED, ContentConfig.tiny()).batch(PREP_TINY, "prep-tiny")
    paper = ResumeGenerator(PREP_SEED + 1, ContentConfig.paper()).batch(
        PREP_PAPER, "prep-paper"
    )
    return tiny, paper


def calibration_documents(tiny, paper) -> List:
    """The fixed int8 calibration set: preparation documents only."""
    return tiny[:4] + paper[:4]


def warmup_documents(tiny, paper) -> List:
    """Documents for the warm-up call of each set-up (disjoint from calibration)."""
    return tiny[4:8] + paper[4:8]


def _source_key(root: str) -> str:
    """Hash of this recipe and the program's source: a change to either retrains."""
    with open(os.path.abspath(__file__), "rb") as fh:
        digest = hashlib.sha256(fh.read())
    src = os.path.join(root, "src", "repro")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def ensure_prepared(root: str) -> str:
    """Directory of the prepared parser; trains it in a child process if absent."""
    target = os.path.join(root, ".bench_build", "e2ebench", _source_key(root))
    if not os.path.isdir(target):
        staging = target + ".tmp"
        shutil.rmtree(staging, ignore_errors=True)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), staging],
            check=True,
            stdout=sys.stderr,
        )
        os.replace(staging, target)
    return target


def build(directory: str) -> None:
    """Train the block classifier and NER tagger and save them as one parser."""
    import numpy as np

    from repro.core import (
        BlockClassifier,
        BlockTrainer,
        Featurizer,
        HierarchicalEncoder,
        LabeledDocument,
        ResuFormerConfig,
    )
    from repro.corpus import extract_block_examples
    from repro.ner import NerConfig, NerTagger
    from repro.ner.self_training import SelfTrainConfig, SelfTrainer
    from repro.persistence import save_parser
    from repro.pipeline import ResumeParser
    from repro.text import WordPieceTokenizer

    tiny, paper = prep_corpus()
    documents = tiny + paper
    tokenizer = WordPieceTokenizer.train(
        (s.text for d in documents for s in d.sentences),
        vocab_size=VOCAB_SIZE,
        min_frequency=1,
    )
    config = ResuFormerConfig(vocab_size=len(tokenizer.vocab), **MODEL)
    classifier = BlockClassifier(
        HierarchicalEncoder(config, rng=np.random.default_rng(PREP_SEED)),
        Featurizer(tokenizer, config),
        lstm_hidden=LSTM_HIDDEN,
        rng=np.random.default_rng(PREP_SEED + 1),
    )
    # Hold out one document of each profile for early stopping.
    train = tiny[1:] + paper[1:]
    held_out = [tiny[0], paper[0]]
    BlockTrainer(classifier, encoder_lr=1e-3, head_lr=1e-2, seed=PREP_SEED).fit(
        [LabeledDocument.from_gold(d) for d in train],
        validation=[LabeledDocument.from_gold(d) for d in held_out],
        epochs=EPOCHS,
        patience=3,
    )
    tagger = NerTagger(
        NerConfig(vocab_size=len(tokenizer.vocab), **NER_MODEL),
        tokenizer,
        rng=np.random.default_rng(PREP_SEED + 2),
    )
    SelfTrainer(
        tagger, SelfTrainConfig(teacher_epochs=EPOCHS, teacher_patience=3),
        seed=PREP_SEED,
    ).train_teacher(
        extract_block_examples(train), extract_block_examples(held_out)
    )
    save_parser(ResumeParser(classifier, tagger), directory)


if __name__ == "__main__":
    os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    build(sys.argv[1])
