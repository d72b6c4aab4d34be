"""1-vs-N parity for NER self-training (Algorithm 2 end to end).

Covers both stages: supervised teacher training (CRF loss, token-count
weights) and the KL self-distillation loop (confidence-masked soft
labels, Eq. 9 class frequency reduced worker-count invariantly).
"""

import numpy as np
import pytest

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
from repro.parallel import param_vector
from repro.text import WordPieceTokenizer

PARITY_ATOL = 1e-9


@pytest.fixture(scope="module")
def setting():
    corpus = build_ner_corpus(
        num_train_docs=8, num_validation_docs=2, num_test_docs=2, seed=21
    )
    train = annotate_examples(
        corpus.train, DistantAnnotator(build_dictionaries(coverage=0.6, seed=2, noise=0.3))
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
    return corpus, train, tokenizer, config


def _run(setting, num_workers):
    corpus, train, tokenizer, config = setting
    model = NerTagger(config, tokenizer, rng=np.random.default_rng(3))
    trainer = SelfTrainer(
        model,
        SelfTrainConfig(
            teacher_epochs=2,
            teacher_patience=4,
            iterations=2,
            batch_size=4,
            learning_rate=3e-3,
            num_workers=num_workers,
        ),
        seed=0,
    )
    final = trainer.train(train, corpus.validation)
    return param_vector(final.parameters()), trainer.history


@pytest.mark.parametrize("num_workers", [2, 3])
def test_self_training_parity(local_backend, setting, num_workers):
    params_one, hist_one = _run(setting, 1)
    params_n, hist_n = _run(setting, num_workers)
    assert np.abs(params_one - params_n).max() <= PARITY_ATOL
    assert len(hist_one) == len(hist_n)
    for record_one, record_n in zip(hist_one, hist_n):
        assert record_one["loss"] == pytest.approx(record_n["loss"], abs=PARITY_ATOL)


def test_ner_rejects_grad_accumulation_with_workers(setting, monkeypatch):
    import repro.parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started before the config check")

    monkeypatch.setattr(repro.parallel, "make_runner", no_pool)
    corpus, train, tokenizer, config = setting
    model = NerTagger(config, tokenizer, rng=np.random.default_rng(3))
    trainer = SelfTrainer(
        model,
        SelfTrainConfig(teacher_epochs=1, grad_accumulation=2, num_workers=2),
        seed=0,
    )
    before = param_vector(model.parameters())
    with pytest.raises(ValueError, match="grad_accumulation"):
        trainer.train_teacher(train, corpus.validation)
    np.testing.assert_array_equal(param_vector(model.parameters()), before)
    assert trainer.history == []
