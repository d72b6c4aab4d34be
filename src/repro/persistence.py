"""Persist trained models with their tokenizer and configuration.

Deployment-shaped save/load for the two trained components: the block
classifier (hierarchical encoder + BiLSTM/MLP/CRF head) and the NER tagger.
Each artifact directory holds the vocabulary, a JSON config and an npz
state dict, so a parser can be reconstructed without the training code
path.  An int8 model also saves its calibrated activation scales in the
JSON config, so loading re-enters int8 with the same scales and no
calibration pass: a reloaded parser gives bit-identical output.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Optional

import numpy as np

from .core.block_classifier import BlockClassifier
from .core.config import ResuFormerConfig
from .core.featurize import Featurizer
from .core.hierarchical import HierarchicalEncoder
from .docmodel.labels import BLOCK_SCHEME, ENTITY_SCHEME
from .ner.model import NerConfig, NerTagger
from .nn import quantize as nn_quantize
from .nn.serialization import load_state, save_state
from .pipeline import ResumeParser
from .text.vocab import Vocab
from .text.wordpiece import WordPieceTokenizer

__all__ = [
    "save_block_classifier",
    "load_block_classifier",
    "save_ner_tagger",
    "load_ner_tagger",
    "save_parser",
    "load_parser",
]

_VOCAB_FILE = "vocab.json"
_CONFIG_FILE = "config.json"
_WEIGHTS_FILE = "weights.npz"
#: Config key holding an int8 model's activation scales by weight name.
_INT8_KEY = "int8_act_amax"


def _write_config(directory: str, model, payload: dict) -> None:
    scales = nn_quantize.activation_scales(model)
    if scales is not None:
        payload[_INT8_KEY] = scales
    with open(os.path.join(directory, _CONFIG_FILE), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _read_config(directory: str) -> dict:
    with open(os.path.join(directory, _CONFIG_FILE), encoding="utf-8") as fh:
        return json.load(fh)


def save_block_classifier(model: BlockClassifier, directory: str) -> None:
    """Persist a block classifier (config + vocab + weights)."""
    os.makedirs(directory, exist_ok=True)
    model.featurizer.tokenizer.vocab.save(os.path.join(directory, _VOCAB_FILE))
    _write_config(
        directory,
        model,
        {
            "kind": "block_classifier",
            "model_config": asdict(model.encoder.config),
            "lstm_hidden": model.bilstm.forward_lstm.hidden_dim,
        },
    )
    save_state(model.state_dict(), os.path.join(directory, _WEIGHTS_FILE))


def load_block_classifier(directory: str) -> BlockClassifier:
    """Reconstruct a block classifier saved by :func:`save_block_classifier`."""
    payload = _read_config(directory)
    if payload.get("kind") != "block_classifier":
        raise ValueError(f"{directory} does not hold a block classifier")
    vocab = Vocab.load(os.path.join(directory, _VOCAB_FILE))
    tokenizer = WordPieceTokenizer(vocab)
    config = ResuFormerConfig(**payload["model_config"])
    featurizer = Featurizer(tokenizer, config)
    encoder = HierarchicalEncoder(config, rng=np.random.default_rng(0))
    model = BlockClassifier(
        encoder,
        featurizer,
        scheme=BLOCK_SCHEME,
        lstm_hidden=payload["lstm_hidden"],
        rng=np.random.default_rng(0),
    )
    model.load_state_dict(load_state(os.path.join(directory, _WEIGHTS_FILE)))
    if _INT8_KEY in payload:
        nn_quantize.restore_activation_scales(model, payload[_INT8_KEY])
    return model


def save_ner_tagger(model: NerTagger, directory: str) -> None:
    """Persist an NER tagger (config + vocab + weights)."""
    os.makedirs(directory, exist_ok=True)
    model.featurizer.tokenizer.vocab.save(os.path.join(directory, _VOCAB_FILE))
    _write_config(
        directory,
        model,
        {"kind": "ner_tagger", "model_config": dict(vars(model.config))},
    )
    save_state(model.state_dict(), os.path.join(directory, _WEIGHTS_FILE))


def load_ner_tagger(directory: str) -> NerTagger:
    """Reconstruct an NER tagger saved by :func:`save_ner_tagger`."""
    payload = _read_config(directory)
    if payload.get("kind") != "ner_tagger":
        raise ValueError(f"{directory} does not hold an NER tagger")
    vocab = Vocab.load(os.path.join(directory, _VOCAB_FILE))
    tokenizer = WordPieceTokenizer(vocab)
    config = NerConfig(**payload["model_config"])
    model = NerTagger(
        config, tokenizer, scheme=ENTITY_SCHEME, rng=np.random.default_rng(0)
    )
    model.load_state_dict(load_state(os.path.join(directory, _WEIGHTS_FILE)))
    if _INT8_KEY in payload:
        nn_quantize.restore_activation_scales(model, payload[_INT8_KEY])
    return model


def save_parser(parser: ResumeParser, directory: str) -> None:
    """Persist a full two-stage parser under one directory."""
    save_block_classifier(
        parser.block_classifier, os.path.join(directory, "block_classifier")
    )
    if parser.ner_tagger is not None:
        save_ner_tagger(parser.ner_tagger, os.path.join(directory, "ner_tagger"))


def load_parser(directory: str) -> ResumeParser:
    """Reconstruct a parser saved by :func:`save_parser`.

    When both stages were trained on the same vocabulary the tagger reuses
    the block classifier's tokenizer, so one word-id memo serves both.
    """
    classifier = load_block_classifier(os.path.join(directory, "block_classifier"))
    tagger: Optional[NerTagger] = None
    ner_dir = os.path.join(directory, "ner_tagger")
    if os.path.isdir(ner_dir):
        tagger = load_ner_tagger(ner_dir)
        shared = classifier.featurizer.tokenizer
        if tagger.featurizer.tokenizer.vocab.tokens() == shared.vocab.tokens():
            tagger.featurizer.tokenizer = shared
    return ResumeParser(classifier, tagger)
