"""The intra-block NER tagger: encoder + BiLSTM + MLP (Section IV-B3).

``NerEncoder`` is the from-scratch stand-in for the paper's pre-trained
RoBERTa (the environment has no pretrained checkpoints); ``NerTagger``
stacks the BiLSTM and MLP prediction head on top, exactly the architecture
the paper trains under distant supervision.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from ..core.config import check_inference_precision
from ..corpus.datasets import NerExample
from ..docmodel.labels import ENTITY_SCHEME, IobScheme
from ..nn import BiLstm, Dropout, Mlp, Module, Tensor, TransformerEncoder, no_grad
from ..nn import init as nn_init
from ..nn import quantize as nn_quantize
from ..nn.attention import ragged_layout, width_groups
from ..nn.functional import cross_entropy, softmax
from ..nn.tensor import is_grad_enabled
from ..text.wordpiece import WordPieceTokenizer
from .encoding import NerFeatures, NerFeaturizer

__all__ = ["NerConfig", "NerEncoder", "NerTagger"]


class NerConfig:
    """Hyper-parameters for the NER stack (paper: 12 layers, 768 hidden,
    BiLSTM 256; defaults here are the CPU-scale rendition)."""

    def __init__(
        self,
        vocab_size: int,
        hidden_dim: int = 64,
        layers: int = 2,
        heads: int = 4,
        lstm_hidden: int = 32,
        dropout: float = 0.1,
        max_pieces: int = 192,
        max_words: int = 96,
        ffn_multiplier: int = 2,
        inference_precision: str = "float64",
    ):
        if hidden_dim % heads:
            raise ValueError("hidden_dim must divide heads")
        check_inference_precision(inference_precision)
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.layers = layers
        self.heads = heads
        self.lstm_hidden = lstm_hidden
        self.dropout = dropout
        self.max_pieces = max_pieces
        self.max_words = max_words
        self.ffn_multiplier = ffn_multiplier
        self.inference_precision = inference_precision


class NerEncoder(Module):
    """Text Transformer encoder over WordPiece sequences.

    Besides sub-word embeddings it consumes the surface-shape descriptors
    of :func:`repro.ner.encoding.word_shape` — explicit character-level
    cues (digit runs, ``@``, punctuation, block position) standing in for
    what web-scale pre-training gives the paper's RoBERTa for free.

    Serving runs :meth:`infer_words`, which encodes a batch in ragged
    piece-width groups instead of one block padded to its longest row.
    """

    #: Ragged serving groups: at least 2 rows each, at most 16 per batch.
    GROUP_ROWS = 2
    MAX_GROUPS = 16

    def __init__(self, config: NerConfig, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or nn_init.default_rng()
        from ..core.embeddings import TextEmbedding
        from ..nn import Linear
        from .encoding import SHAPE_DIM

        self.config = config
        self.embedding = TextEmbedding(
            config.vocab_size,
            config.hidden_dim,
            max_positions=config.max_pieces,
            rng=rng,
        )
        self.shape_project = Linear(SHAPE_DIM, config.hidden_dim, rng=rng)
        self.encoder = TransformerEncoder(
            config.layers,
            config.hidden_dim,
            config.heads,
            ffn_dim=config.hidden_dim * config.ffn_multiplier,
            dropout=config.dropout,
            rng=rng,
        )

    def forward(
        self,
        piece_ids: np.ndarray,
        piece_mask: np.ndarray,
        piece_shape: Optional[np.ndarray] = None,
    ) -> Tensor:
        segments = np.zeros_like(piece_ids)
        embedded = self.embedding(piece_ids, segments)
        if piece_shape is not None:
            embedded = embedded + self.shape_project(
                Tensor(np.asarray(piece_shape, dtype=np.float64))
            )
        return self.encoder(embedded, attention_mask=piece_mask)

    def piece_groups(self, piece_mask: np.ndarray) -> list:
        """The :func:`~repro.nn.attention.width_groups` :meth:`infer_words`
        encodes: ``[(rows, t), ...]`` over valid pieces per row."""
        return width_groups(piece_mask.sum(axis=1), self.GROUP_ROWS, self.MAX_GROUPS)

    def infer_words(self, features: NerFeatures) -> np.ndarray:
        """Forward-only state of each word's first piece, ``(b, w, d)``.

        Rows are grouped by piece width (:meth:`piece_groups`), each group
        trimmed to its own widest row, and every group's pieces go into
        one flat ``(Σ n·t, d)`` buffer.  The embeddings and the shape
        projection run once over it at float64, and
        :meth:`TransformerEncoder.infer_block` runs the stack once, with
        only the attention core per group.  One fancy index then picks
        each word's first piece.  Trailing padding is masked, so this
        matches :meth:`forward` plus the gather to GEMM round-off.
        """
        layout = ragged_layout(
            self.piece_groups(features.piece_mask), features.piece_mask
        )
        ids = features.piece_ids[layout.rows, layout.cols]
        flat = self.embedding.infer(ids, np.zeros_like(ids), positions=layout.cols)
        if features.piece_shape is not None:
            flat += self.shape_project.infer(
                features.piece_shape[layout.rows, layout.cols]
            )
        states = self.encoder.infer_block(flat, layout.blocks, layout.masks)
        return states[layout.row_base[:, None] + features.first_piece]


class NerTagger(Module):
    """Encoder + BiLSTM + MLP word-level tagger."""

    def __init__(
        self,
        config: NerConfig,
        tokenizer: WordPieceTokenizer,
        scheme: IobScheme = ENTITY_SCHEME,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or nn_init.default_rng()
        self.config = config
        self.scheme = scheme
        self.featurizer = NerFeaturizer(
            tokenizer, scheme, max_words=config.max_words, max_pieces=config.max_pieces
        )
        self.encoder = NerEncoder(config, rng=rng)
        self.dropout = Dropout(config.dropout, rng=rng)
        self.bilstm = BiLstm(config.hidden_dim, config.lstm_hidden, rng=rng)
        self.mlp = Mlp(
            [2 * config.lstm_hidden, config.lstm_hidden, scheme.num_labels], rng=rng
        )
        nn_quantize.set_serving_dtype(self, getattr(np, config.inference_precision))

    # ------------------------------------------------------------------
    # int8 serving (float64/float32: NerConfig.inference_precision)
    # ------------------------------------------------------------------
    def quantize_for_inference(self, calibration_examples: Sequence[NerExample]) -> int:
        """Swap Linears for int8 kernels; calibrate once on held-out examples."""
        return nn_quantize.quantize_for_inference(
            self, calibration_examples,
            lambda examples: self.logits(self.featurizer.featurize(examples)),
        )

    def dequantize(self) -> int:
        """Restore the float layers, serving at the configured precision."""
        return nn_quantize.dequantize(self, getattr(np, self.config.inference_precision))

    @property
    def precision(self) -> str:
        """Serving precision: int8 once quantized, else the configured one."""
        if isinstance(self.mlp.layers[0], nn_quantize.QuantizedLinear):
            return "int8"
        return self.config.inference_precision

    # ------------------------------------------------------------------
    def word_states(self, features: NerFeatures) -> Tensor:
        """Contextual state of each word's first sub-word, ``(b, w, d)``.

        Under ``no_grad`` with encoder dropout inactive this is the ragged
        :meth:`NerEncoder.infer_words`; otherwise the padded graph path.
        """
        if not is_grad_enabled() and self.encoder.encoder._dropout_inactive():
            return Tensor(self.encoder.infer_words(features))
        states = self.encoder(
            features.piece_ids, features.piece_mask, features.piece_shape
        )
        b = features.batch_size
        rows = np.arange(b)[:, None]
        return states[rows, features.first_piece]

    def logits(self, features: NerFeatures) -> Tensor:
        """Per-word label scores ``(b, w, num_labels)``.

        Padding word slots gather the [CLS] piece state, so they are zeroed
        and the BiLSTM runs masked — each example's scores depend only on
        its own words, not on how long its batch-mates are.
        """
        gathered = self.dropout(self.word_states(features))
        gathered = gathered * Tensor(features.word_mask[:, :, None])
        hidden = self.bilstm(gathered, mask=features.word_mask)
        return self.mlp(hidden)

    def loss(self, features: NerFeatures) -> Tensor:
        """Masked cross-entropy against ``features.label_ids``.

        Token-level mean over the whole batch: every valid word weighs the
        same regardless of which example it belongs to.
        """
        return cross_entropy(
            self.logits(features), features.label_ids, mask=features.word_mask
        )

    def loss_batch(self, features: NerFeatures) -> Tensor:
        """Example-mean masked cross-entropy for the mini-batch engine.

        Each example contributes the mean over its own valid words, then
        examples average — so the value equals the mean of per-example
        :meth:`loss` calls, the invariant the batched trainers and parity
        tests rely on (plain :meth:`loss` weighs long examples more).
        """
        counts = features.word_mask.sum(axis=1)
        active = counts > 0
        weights = np.zeros_like(features.word_mask, dtype=np.float64)
        if active.any():
            weights[active] = features.word_mask[active] / (
                counts[active][:, None] * int(active.sum())
            )
        return cross_entropy(
            self.logits(features), features.label_ids, mask=weights
        )

    # ------------------------------------------------------------------
    def predict_probs(self, examples: Sequence[NerExample]) -> np.ndarray:
        """Class distributions ``(b, w, num_labels)`` (eval mode, no grad)."""
        features = self.featurizer.featurize(examples)
        self.eval()
        with no_grad():
            probs = softmax(self.logits(features), axis=-1)
        return probs.numpy()

    def _decode_with_scores(
        self, features: NerFeatures, examples: Sequence[NerExample]
    ):
        """Decoded labels plus the raw ``(b, w, num_labels)`` scores."""
        self.eval()
        with obs.trace("encode", batch=features.batch_size,
                       precision=self.precision) as span, no_grad():
            scores = self.logits(features).numpy()
            if span is not None:
                # Valid piece rows against the rows the ragged groups ran.
                groups = self.encoder.piece_groups(features.piece_mask)
                span.set_attribute("pieces", int(features.piece_mask.sum()))
                span.set_attribute(
                    "piece_slots", sum(rows.size * t for rows, t in groups)
                )
        predictions: List[List[str]] = []
        with obs.trace("decode", batch=features.batch_size):
            best = scores.argmax(axis=-1)
            for row, example in enumerate(examples):
                n = len(example.words)
                ids = best[row, : min(n, features.max_words)]
                labels = self.scheme.decode(list(ids))
                labels += ["O"] * (n - len(labels))
                predictions.append(labels)
        return predictions, scores

    def predict(
        self, examples: Sequence[NerExample], batch_size: int = 32
    ) -> List[List[str]]:
        """IOB label strings per example (argmax decoding), in input order.

        Examples are sorted by word count and run in chunks of
        ``batch_size``.  Within a chunk the encoder runs ragged
        (:meth:`NerEncoder.infer_words`): rows are grouped by piece width
        and each group is trimmed to its own widest row, because attention
        cost is quadratic in the piece axis and a cross-document call
        mixes one-line blocks with long work histories.  The BiLSTM and
        the head still see the chunk padded to its longest block.
        Padding is masked, so an example's labels depend only on its own
        words, never on its batch-mates.  An active :mod:`repro.obs`
        session records ``featurize``/``encode``/``decode`` spans (the
        ``encode`` span carries ``pieces``, the valid piece rows, and
        ``piece_slots``, the rows the ragged groups computed) plus
        batch-size and padding-waste histograms.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        telemetry = obs.get_telemetry()
        order = sorted(range(len(examples)), key=lambda i: len(examples[i].words))
        predictions: List[Optional[List[str]]] = [None] * len(examples)
        with obs.trace("ner.predict", examples=len(examples),
                       batch_size=batch_size, precision=self.precision):
            for start in range(0, len(order), batch_size):
                indices = order[start : start + batch_size]
                chunk = [examples[i] for i in indices]
                with obs.trace("featurize", batch=len(chunk)):
                    features = self.featurizer.featurize(chunk)
                if telemetry is not None:
                    slots = features.word_mask.size
                    waste = (
                        1.0 - float(features.word_mask.sum()) / slots
                        if slots else 0.0
                    )
                    telemetry.metrics.histogram(
                        "ner.padding_waste",
                        buckets=tuple(i / 10 for i in range(1, 11)),
                    ).observe(waste)
                    telemetry.metrics.histogram(
                        "ner.batch_size", buckets=(1, 2, 4, 8, 16, 32, 64, 128)
                    ).observe(len(chunk))
                    telemetry.metrics.counter("ner.examples").inc(len(chunk))
                chunk_predictions, scores = self._decode_with_scores(
                    features, chunk
                )
                for index, labels in zip(indices, chunk_predictions):
                    predictions[index] = labels
                if telemetry is not None and telemetry.drift is not None:
                    self._observe_drift(
                        telemetry.drift, chunk, features, scores,
                        chunk_predictions,
                    )
        return predictions

    #: Alias of :meth:`predict` under its batched name.
    predict_batch = predict

    def _observe_drift(
        self, monitor, chunk, features, scores, predictions
    ) -> None:
        """Feed one decoded chunk to the session's drift monitor.

        Softmax confidences are derived from the scores the decode already
        produced, and only when the reference tracks ``ner_confidence``.
        """
        from ..obs import drift as obs_drift

        confidences = None
        if monitor.wants("ner_confidence"):
            shifted = scores - scores.max(axis=-1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=-1, keepdims=True)
            best = probs.max(axis=-1)
            confidences = [
                float(value)
                for row, example in zip(best, chunk)
                for value in row[: min(len(example.words), features.max_words)]
            ]
        monitor.observe(
            obs_drift.ner_observations(
                chunk, predictions=predictions, confidences=confidences
            )
        )

    def clone(self) -> "NerTagger":
        """A parameter-identical copy (used by the teacher-student loop)."""
        twin = NerTagger(
            self.config,
            self.featurizer.tokenizer,
            scheme=self.scheme,
            rng=nn_init.default_rng(0),
        )
        twin.load_state_dict(self.state_dict())
        return twin
