"""Intra-block NER baselines (Table IV).

* :class:`DrMatch` — pure dictionary + regex matching.
* :class:`BertBiLstmCrf` — encoder + BiLSTM + linear-chain CRF trained on
  hard distant labels (fully-supervised recipe applied to noisy data).
* :class:`BertBiLstmFuzzyCrf` — the same stack with a fuzzy CRF that
  marginalises over unmatched positions (Shang et al., 2018).
* :class:`AutoNer` — the "Tie or Break" tagger: a boundary head decides
  whether adjacent tokens bind together, a type head classifies chunks;
  unknown boundaries (both tokens unmatched) contribute no loss.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..corpus.datasets import NerExample
from ..docmodel.labels import ENTITY_SCHEME, ENTITY_TAGS, IobScheme
from ..nn import (
    AdamW,
    BiLstm,
    FuzzyCrf,
    LinearChainCrf,
    Linear,
    Module,
    ParamGroup,
    Tensor,
    clip_grad_norm,
    no_grad,
)
from ..nn import init as nn_init
from ..nn.functional import cross_entropy
from ..ner.annotate import DistantAnnotator
from ..ner.model import NerConfig, NerEncoder
from ..text.wordpiece import WordPieceTokenizer

__all__ = [
    "DrMatch",
    "BertBiLstmCrf",
    "BertBiLstmFuzzyCrf",
    "AutoNer",
    "NerBaselineTrainer",
]


class DrMatch:
    """Dictionary & regular-expression matching (no learning)."""

    def __init__(self, annotator: DistantAnnotator):
        self.annotator = annotator
        self.scheme = ENTITY_SCHEME

    def predict(self, examples: Sequence[NerExample]) -> List[List[str]]:
        return [self.annotator.annotate(e.words).labels for e in examples]


class _NerCrfBase(Module):
    """Shared encoder + BiLSTM + emission stack for the CRF baselines."""

    def __init__(
        self,
        config: NerConfig,
        tokenizer: WordPieceTokenizer,
        scheme: IobScheme = ENTITY_SCHEME,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or nn_init.default_rng()
        from ..ner.encoding import NerFeaturizer

        self.config = config
        self.scheme = scheme
        self.featurizer = NerFeaturizer(
            tokenizer, scheme, max_words=config.max_words,
            max_pieces=config.max_pieces,
        )
        self.encoder = NerEncoder(config, rng=rng)
        self.bilstm = BiLstm(config.hidden_dim, config.lstm_hidden, rng=rng)
        self.emitter = Linear(2 * config.lstm_hidden, scheme.num_labels, rng=rng)

    def emissions(self, features) -> Tensor:
        return self.emitter(self.bilstm(self.encoder(features)))

    def predict(self, examples: Sequence[NerExample]) -> List[List[str]]:
        features = self.featurizer.featurize(examples)
        self.eval()
        with no_grad():
            emissions = self.emissions(features)
        mask = features.word_mask.copy()
        mask[:, 0] = 1.0  # decoder needs a valid first position
        paths = self._decoder().decode(emissions, mask)
        out: List[List[str]] = []
        for example, path in zip(examples, paths):
            labels = self.scheme.decode(path)[: len(example.words)]
            labels += ["O"] * (len(example.words) - len(labels))
            out.append(labels)
        return out

    def _decoder(self) -> LinearChainCrf:
        raise NotImplementedError


class BertBiLstmCrf(_NerCrfBase):
    """Hard-label CRF baseline."""

    def __init__(self, config, tokenizer, scheme=ENTITY_SCHEME, rng=None):
        super().__init__(config, tokenizer, scheme, rng)
        self.crf = LinearChainCrf(scheme.num_labels, rng=rng or nn_init.default_rng())

    def _decoder(self):
        return self.crf

    def loss(self, features) -> Tensor:
        mask = features.word_mask.copy()
        mask[:, 0] = 1.0
        return self.crf.neg_log_likelihood(
            self.emissions(features), features.label_ids, mask
        )


class BertBiLstmFuzzyCrf(_NerCrfBase):
    """Fuzzy-CRF baseline: unmatched positions marginalised over all tags."""

    def __init__(self, config, tokenizer, scheme=ENTITY_SCHEME, rng=None):
        super().__init__(config, tokenizer, scheme, rng)
        self.crf = FuzzyCrf(scheme.num_labels, rng=rng or nn_init.default_rng())

    def _decoder(self):
        return self.crf

    def allowed_matrix(
        self,
        examples: Sequence[NerExample],
        annotator: DistantAnnotator,
        confident_o: Optional[frozenset] = None,
    ) -> np.ndarray:
        """Per-position permitted-tag sets from the annotator's commitments.

        Matched positions are pinned to their distant tag; positions whose
        word belongs to ``confident_o`` (frequent corpus words the annotator
        never matched anywhere — Shang et al.'s distant-O trick) are pinned
        to ``O``; everything else stays unconstrained.  Without a distant-O
        signal, the fuzzy likelihood exerts no pressure towards ``O`` on
        unmatched tokens and precision collapses.
        """
        features = self.featurizer.featurize(examples)
        b, w = features.label_ids.shape
        allowed = np.ones((b, w, self.scheme.num_labels), dtype=bool)
        outside = self.scheme.outside_id
        for row, example in enumerate(examples):
            annotation = annotator.annotate(example.words)
            for pos in range(min(len(example.words), w)):
                if annotation.matched[pos]:
                    allowed[row, pos] = False
                    allowed[row, pos, self.scheme.label_id(annotation.labels[pos])] = True
                elif confident_o and example.words[pos].lower() in confident_o:
                    allowed[row, pos] = False
                    allowed[row, pos, outside] = True
        return allowed

    @staticmethod
    def build_confident_o(
        examples: Sequence[NerExample],
        annotator: DistantAnnotator,
        min_count: int = 3,
    ) -> frozenset:
        """Words seen >= ``min_count`` times in the corpus and never matched
        by the annotator anywhere — confidently-outside tokens."""
        counts: dict = {}
        matched_words: set = set()
        for example in examples:
            annotation = annotator.annotate(example.words)
            for word, is_matched in zip(example.words, annotation.matched):
                lowered = word.lower()
                counts[lowered] = counts.get(lowered, 0) + 1
                if is_matched:
                    matched_words.add(lowered)
        return frozenset(
            word
            for word, count in counts.items()
            if count >= min_count and word not in matched_words
        )

    def loss(self, features, allowed: np.ndarray) -> Tensor:
        mask = features.word_mask.copy()
        mask[:, 0] = 1.0
        return self.crf.constrained_nll(self.emissions(features), allowed, mask)


class AutoNer(Module):
    """"Tie or Break" tagger (Shang et al., 2018).

    Between each pair of adjacent words a boundary head predicts *tie*
    (same chunk) or *break*; a type head classifies each word among the
    entity types plus ``None``.  Distant supervision: boundaries inside or
    at the edge of matched entities are known, pairs of unmatched words are
    *unknown* and skipped — the scheme's noise-tolerance trick.
    """

    TIE, BREAK = 0, 1

    def __init__(
        self,
        config: NerConfig,
        tokenizer: WordPieceTokenizer,
        scheme: IobScheme = ENTITY_SCHEME,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or nn_init.default_rng()
        from ..ner.encoding import NerFeaturizer

        self.config = config
        self.scheme = scheme
        self.tags = list(ENTITY_TAGS)
        self.featurizer = NerFeaturizer(
            tokenizer, scheme, max_words=config.max_words,
            max_pieces=config.max_pieces,
        )
        self.encoder = NerEncoder(config, rng=rng)
        self.bilstm = BiLstm(config.hidden_dim, config.lstm_hidden, rng=rng)
        hidden = 2 * config.lstm_hidden
        self.boundary_head = Linear(2 * hidden, 2, rng=rng)
        self.type_head = Linear(hidden, len(self.tags) + 1, rng=rng)  # +None

    # ------------------------------------------------------------------
    def _states(self, features) -> Tensor:
        return self.bilstm(self.encoder(features))

    def boundary_logits(self, states: Tensor) -> Tensor:
        """(b, w-1, 2) tie/break scores for adjacent word pairs."""
        from ..nn import concat

        left = states[:, :-1, :]
        right = states[:, 1:, :]
        return self.boundary_head(concat([left, right], axis=-1))

    def supervision(self, examples: Sequence[NerExample], annotator: DistantAnnotator):
        """Boundary and type targets from distant matches.

        Returns ``(boundary_targets, boundary_mask, type_targets, type_mask)``
        aligned to the featurizer's padded word grid.
        """
        features = self.featurizer.featurize(examples)
        b, w = features.label_ids.shape
        boundary = np.zeros((b, w - 1), dtype=np.int64)
        boundary_mask = np.zeros((b, w - 1))
        types = np.full((b, w), len(self.tags), dtype=np.int64)  # None index
        type_mask = np.zeros((b, w))
        for row, example in enumerate(examples):
            annotation = annotator.annotate(example.words)
            labels = annotation.labels
            matched = annotation.matched
            n = min(len(example.words), w)
            for pos in range(n):
                if matched[pos]:
                    tag = labels[pos][2:]
                    types[row, pos] = self.tags.index(tag)
                    type_mask[row, pos] = 1.0
                else:
                    type_mask[row, pos] = 0.5  # weak 'None' supervision
            for pos in range(n - 1):
                left_known = matched[pos]
                right_known = matched[pos + 1]
                if not (left_known or right_known):
                    continue  # unknown boundary: contributes no loss
                tie = (
                    left_known
                    and right_known
                    and labels[pos + 1].startswith("I-")
                )
                boundary[row, pos] = self.TIE if tie else self.BREAK
                boundary_mask[row, pos] = 1.0
        return features, boundary, boundary_mask, types, type_mask

    def loss(self, features, boundary, boundary_mask, types, type_mask) -> Tensor:
        states = self._states(features)
        b_logits = self.boundary_logits(states)
        t_logits = self.type_head(states)
        boundary_loss = cross_entropy(b_logits, boundary, mask=boundary_mask)
        type_loss = cross_entropy(t_logits, types, mask=type_mask)
        return boundary_loss + type_loss

    # ------------------------------------------------------------------
    def predict(self, examples: Sequence[NerExample]) -> List[List[str]]:
        from ..nn.functional import softmax

        features = self.featurizer.featurize(examples)
        self.eval()
        with no_grad():
            states = self._states(features)
            breaks = softmax(self.boundary_logits(states), axis=-1).numpy()
            type_probs = softmax(self.type_head(states), axis=-1).numpy()
        out: List[List[str]] = []
        none_index = len(self.tags)
        for row, example in enumerate(examples):
            n = min(len(example.words), features.max_words)
            labels = ["O"] * len(example.words)
            # Chunk at predicted breaks, then classify each chunk.
            starts = [0]
            for pos in range(n - 1):
                if breaks[row, pos, self.BREAK] >= 0.5:
                    starts.append(pos + 1)
            starts.append(n)
            for begin, end in zip(starts, starts[1:]):
                if begin >= end:
                    continue
                mean_probs = type_probs[row, begin:end].mean(axis=0)
                best = int(mean_probs.argmax())
                if best == none_index:
                    continue
                tag = self.tags[best]
                labels[begin] = f"B-{tag}"
                for pos in range(begin + 1, end):
                    labels[pos] = f"I-{tag}"
            out.append(labels)
        return out


class NerBaselineTrainer:
    """Mini-batch trainer covering all three learned NER baselines."""

    def __init__(
        self,
        model: Module,
        annotator: Optional[DistantAnnotator] = None,
        learning_rate: float = 1e-3,
        weight_decay: float = 0.01,
        batch_size: int = 16,
        max_grad_norm: float = 5.0,
        seed: int = 0,
    ):
        self.model = model
        self.annotator = annotator
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.optimizer = AdamW(
            [ParamGroup(model.parameters(), learning_rate)],
            weight_decay=weight_decay,
        )
        self.max_grad_norm = max_grad_norm

    def fit(self, train: Sequence[NerExample], epochs: int = 5) -> List[float]:
        if isinstance(self.model, BertBiLstmFuzzyCrf) and self.annotator is not None:
            self._confident_o = BertBiLstmFuzzyCrf.build_confident_o(
                train, self.annotator
            )
        losses: List[float] = []
        for _ in range(epochs):
            self.model.train()
            epoch_loss, batches = 0.0, 0
            for features, chunk in self.model.featurizer.batches(
                train, self.batch_size, rng=self.rng
            ):
                self.optimizer.zero_grad()
                loss = self._batch_loss(features, chunk)
                loss.backward()
                clip_grad_norm(self.model.parameters(), self.max_grad_norm)
                self.optimizer.step()
                epoch_loss += float(loss.data)
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        return losses

    def _batch_loss(self, features, chunk):
        if isinstance(self.model, BertBiLstmFuzzyCrf):
            if self.annotator is None:
                raise ValueError("fuzzy CRF training needs the annotator")
            allowed = self.model.allowed_matrix(
                chunk, self.annotator,
                confident_o=getattr(self, "_confident_o", None),
            )
            return self.model.loss(features, allowed)
        if isinstance(self.model, AutoNer):
            if self.annotator is None:
                raise ValueError("AutoNER training needs the annotator")
            features, boundary, b_mask, types, t_mask = self.model.supervision(
                chunk, self.annotator
            )
            return self.model.loss(features, boundary, b_mask, types, t_mask)
        return self.model.loss(features)
