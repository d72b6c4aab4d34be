"""The in-process gradient step and the worker step compute one gradient.

Each trainer runs one loop whose gradient step is either local
(``num_workers=0``: featurise, backprop through ``GradAccumulator``) or
data-parallel (``num_workers=1``: broadcast, worker gradient, all-reduce).
One epoch of one mini-batch from identical initial parameters must leave
the same ``param.grad`` on the parent model either way.  Gradients, not
parameters, are compared: AdamW divides by the root of the second moment,
which amplifies ulp-level differences in near-zero gradients.  Clipping
is off, so a reduction that mis-scales the gradient cannot hide behind
the clipped norm.

``Pretrainer`` is left out: with workers it draws its corruption, slots
and anchors per document from seeded streams by design (docs/API.md §14),
so its two steps see different randomness.
"""

import numpy as np
import pytest

from repro.core import Featurizer, HierarchicalEncoder
from repro.core.block_classifier import BlockClassifier, BlockTrainer, LabeledDocument
from repro.corpus import build_ner_corpus
from repro.ner import (
    DistantAnnotator,
    NerConfig,
    NerTagger,
    SelfTrainConfig,
    SelfTrainer,
    annotate_examples,
    build_dictionaries,
)
from repro.parallel import param_size, write_grad_vector
from repro.text import WordPieceTokenizer

#: Agreement bound, relative to the largest gradient entry.
RELATIVE_TOLERANCE = 1e-12


def _grads(model) -> np.ndarray:
    """Every parameter's gradient, flattened; a missing grad reads as zeros."""
    parameters = model.parameters()
    out = np.empty(param_size(parameters))
    write_grad_vector(parameters, out)
    return out


def _assert_same_gradient(local: np.ndarray, worker: np.ndarray) -> None:
    scale = np.abs(local).max()
    assert scale > 0
    assert np.abs(local - worker).max() <= RELATIVE_TOLERANCE * scale


def _block_grads(tiny_docs, tokenizer, config, num_workers):
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(5))
    model = BlockClassifier(
        encoder, Featurizer(tokenizer, config), rng=np.random.default_rng(9)
    )
    labeled = [LabeledDocument.from_gold(d) for d in tiny_docs]
    BlockTrainer(model, max_grad_norm=None, seed=11).fit(
        labeled, epochs=1, batch_size=len(labeled), num_workers=num_workers
    )
    return _grads(model)


def test_block_step_parity(local_backend, tiny_docs, tokenizer, config):
    _assert_same_gradient(
        _block_grads(tiny_docs, tokenizer, config, 0),
        _block_grads(tiny_docs, tokenizer, config, 1),
    )


@pytest.fixture(scope="module")
def ner_setting():
    corpus = build_ner_corpus(
        num_train_docs=4, num_validation_docs=1, num_test_docs=1, seed=21
    )
    train = annotate_examples(
        corpus.train,
        DistantAnnotator(build_dictionaries(coverage=0.6, seed=2, noise=0.3)),
    )
    tokenizer = WordPieceTokenizer.train(
        [e.text for e in train], vocab_size=400, min_frequency=1
    )
    config = NerConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_dim=32,
        layers=1,
        heads=2,
        lstm_hidden=16,
        dropout=0.0,
    )
    return train, tokenizer, config


def _teacher_grads(ner_setting, num_workers):
    train, tokenizer, config = ner_setting
    model = NerTagger(config, tokenizer, rng=np.random.default_rng(3))
    trainer = SelfTrainer(
        model,
        SelfTrainConfig(
            teacher_epochs=1,
            batch_size=len(train),
            learning_rate=3e-3,
            max_grad_norm=None,
            num_workers=num_workers,
        ),
        seed=0,
    )
    trainer.train_teacher(train, validation=[])
    return _grads(model)


def test_teacher_step_parity(local_backend, ner_setting):
    _assert_same_gradient(
        _teacher_grads(ner_setting, 0), _teacher_grads(ner_setting, 1)
    )
