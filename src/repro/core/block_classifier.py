"""Resume block classification: fine-tuning head and trainer (Section IV-A3).

A BiLSTM (Eq. 8) over the document-contextual sentence states feeds an MLP
that emits per-sentence tag scores; a linear-chain CRF provides the training
loss (forward algorithm) and test-time decoding (Viterbi).  Training uses
the paper's two-speed optimiser: a slow learning rate for the pre-trained
hierarchical encoder and a fast one for the randomly initialised head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..docmodel.document import ResumeDocument
from ..docmodel.labels import BLOCK_SCHEME, IobScheme
from ..nn import AdamW, BiLstm, LinearChainCrf, Mlp, Module, ParamGroup, Tensor
from ..nn import no_grad
from ..nn.tensor import is_grad_enabled
from ..nn import init as nn_init
from ..nn import quantize as nn_quantize
from .batching import DocumentBatch, collate_documents, collate_labels
from .featurize import DocumentFeatures, Featurizer
from .hierarchical import HierarchicalEncoder
from .training import GradAccumulator, iter_minibatches

__all__ = ["BlockClassifier", "BlockTrainer", "LabeledDocument"]

#: Histogram boundaries for ratio-valued metrics (padding waste).
_RATIO_BUCKETS = tuple(i / 10 for i in range(1, 11))
#: Histogram boundaries for batch sizes.
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class LabeledDocument:
    """A document paired with sentence-level IOB label ids."""

    document: ResumeDocument
    labels: List[int]

    @classmethod
    def from_gold(
        cls, document: ResumeDocument, scheme: IobScheme = BLOCK_SCHEME
    ) -> "LabeledDocument":
        return cls(document, document.block_iob_labels(scheme))


class BlockClassifier(Module):
    """Hierarchical encoder + BiLSTM + MLP + CRF block tagger."""

    def __init__(
        self,
        encoder: HierarchicalEncoder,
        featurizer: Featurizer,
        scheme: IobScheme = BLOCK_SCHEME,
        lstm_hidden: int = 32,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or nn_init.default_rng()
        self.encoder = encoder
        self.featurizer = featurizer
        self.scheme = scheme
        #: Kept so a structurally identical classifier can be rebuilt
        #: from config-level arguments alone.
        self.lstm_hidden = lstm_hidden
        dim = encoder.config.document_dim
        self.bilstm = BiLstm(dim, lstm_hidden, rng=rng)
        self.mlp = Mlp(
            [2 * lstm_hidden, lstm_hidden, scheme.num_labels], rng=rng
        )
        self.crf = LinearChainCrf(scheme.num_labels, rng=rng)
        self._quantized = False

    # ------------------------------------------------------------------
    # Inference precision (see ResuFormerConfig.inference_precision)
    # ------------------------------------------------------------------
    def quantize_for_inference(
        self, calibration_documents: Sequence[ResumeDocument] = ()
    ) -> int:
        """Swap the model's Linears for int8 kernels and calibrate.

        The calibration pass pushes held-out documents through the
        quantized stack while it records activation ranges, freezing a
        per-layer activation scale so serving results are independent of
        batch composition.  Returns the number of quantized layers;
        idempotent.  Training requires :meth:`dequantize` first.
        """
        count = nn_quantize.quantize_model(self)
        self._quantized = True
        if calibration_documents:
            self.eval()
            features = [
                self.featurizer.featurize(d) for d in calibration_documents
            ]
            with nn_quantize.calibration(self), no_grad():
                self.emissions_batch(collate_documents(features))
        return count

    def dequantize(self) -> int:
        """Restore the float layers swapped out by :meth:`quantize_for_inference`."""
        self._quantized = False
        return nn_quantize.dequantize(self)

    def _ensure_inference_precision(
        self, documents: Sequence[ResumeDocument]
    ) -> str:
        """Lazily apply the configured serving precision; returns it.

        ``int8`` quantizes on first use, calibrating on a slice of the
        incoming documents; ``float32`` flips the raw-array encoder kernels
        to single precision; the default ``float64`` is a no-op (the
        raw-array kernels already serve at full precision).
        """
        precision = getattr(
            self.encoder.config, "inference_precision", "float64"
        )
        if precision == "int8" and not self._quantized:
            self.quantize_for_inference(documents[:8])
        elif precision == "float32" and not self._quantized:
            for module in self.modules():
                if hasattr(module, "inference_dtype"):
                    module.inference_dtype = np.float32
        return precision

    # ------------------------------------------------------------------
    def emissions(self, features: DocumentFeatures) -> Tensor:
        """Per-sentence tag scores ``(1, m, num_labels)``."""
        encoded = self.encoder(features)
        m = features.num_sentences
        hidden = self.bilstm(
            encoded.contextual.reshape(1, m, self.encoder.config.document_dim)
        )
        return self.mlp(hidden)

    def loss(self, features: DocumentFeatures, labels: Sequence[int]) -> Tensor:
        """CRF negative log-likelihood for one document."""
        labels = np.asarray(labels, dtype=np.int64)[: features.num_sentences]
        emissions = self.emissions(features)
        return self.crf.neg_log_likelihood(emissions, labels[None, :])

    # ------------------------------------------------------------------
    def predict(self, document: ResumeDocument) -> List[str]:
        """Sentence-level IOB labels for one document: a batch of one."""
        return self.predict_batch([document])[0]

    def emissions_batch(self, batch: DocumentBatch) -> Tensor:
        """Per-sentence tag scores ``(B, m_max, num_labels)`` for a batch.

        Under ``no_grad`` with dropout inactive, the entire
        pipeline — sentence encoder, document encoder, BiLSTM and MLP —
        runs on raw ndarrays in the serving dtype.  At float64 the
        result matches the graph path to GEMM and LayerNorm round-off
        (a few ulp).
        """
        if not is_grad_enabled() and self.encoder._inference_ready():
            contextual = self.encoder.infer_batch(batch)
            hidden = self.bilstm.infer(contextual, mask=batch.sentence_mask)
            return Tensor(self.mlp.infer(hidden))
        contextual = self.encoder.encode_batch(batch)
        hidden = self.bilstm(contextual, mask=batch.sentence_mask)
        return self.mlp(hidden)

    def loss_batch(self, batch: DocumentBatch, labels: np.ndarray) -> Tensor:
        """Masked batched CRF NLL over padded ``(B, m_max)`` label tensors.

        ``labels`` comes from :func:`repro.core.collate_labels`.  The CRF
        normalises by the batch size, so the value equals the mean of the
        per-document :meth:`loss` values — one padded forward/backward pass
        replaces B separate ones.
        """
        emissions = self.emissions_batch(batch)
        return self.crf.neg_log_likelihood(
            emissions, labels, mask=batch.sentence_mask
        )

    def predict_batch(
        self,
        documents: Sequence[ResumeDocument],
        batch_size: int = 8,
    ) -> List[List[str]]:
        """Sentence-level IOB labels for many documents at once.

        Documents are featurised (through the cache), padded into
        cross-document batches of ``batch_size``, and pushed through the
        batched encoder/BiLSTM/Viterbi kernels — one python-level time loop
        per batch instead of one per document.  Padding is masked, so a
        document's labels do not depend on its batch-mates or on
        ``batch_size``.  A blank document (no sentences) gets ``[]`` and is
        never featurised.

        An active :mod:`repro.obs` telemetry session records the
        ``featurize``, ``encode`` and ``decode`` stages as nested spans
        plus batch-size and padding-waste histograms.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")

        results: List[List[str]] = [[] for _ in documents]
        live = [i for i, d in enumerate(documents) if d.num_sentences]
        if not live:
            return results
        precision = self._ensure_inference_precision([documents[i] for i in live])
        self.eval()
        telemetry = obs.get_telemetry()
        # Chunk documents in ascending sentence-count order so each padded
        # batch is near-homogeneous (results land back in input order).
        order = sorted(live, key=lambda i: documents[i].num_sentences)
        with obs.trace("predict_batch", documents=len(documents),
                       batch_size=batch_size, precision=precision):
            for start in range(0, len(order), batch_size):
                indices = order[start : start + batch_size]
                chunk = [documents[i] for i in indices]
                with obs.trace("featurize", batch=len(chunk)):
                    features = [self.featurizer.featurize(d) for d in chunk]
                    batch = collate_documents(features)
                if telemetry is not None:
                    # Fraction of padded sentence slots that are wasted on
                    # padding — the price of ragged batching.
                    slots = batch.sentence_mask.size
                    waste = 1.0 - float(batch.lengths.sum()) / slots if slots else 0.0
                    telemetry.metrics.histogram(
                        "inference.padding_waste", buckets=_RATIO_BUCKETS
                    ).observe(waste)
                    telemetry.metrics.histogram(
                        "inference.batch_size", buckets=_BATCH_BUCKETS
                    ).observe(len(chunk))
                    telemetry.metrics.counter("inference.documents").inc(len(chunk))
                with obs.trace(
                    "encode", batch=len(chunk), precision=precision
                ), no_grad():
                    emissions = self.emissions_batch(batch)
                with obs.trace("decode", batch=len(chunk)):
                    paths = self.crf.decode(emissions, batch.sentence_mask)
                chunk_labels: List[List[str]] = []
                for index, document, path in zip(indices, chunk, paths):
                    labels = self.scheme.decode(path)
                    labels += ["O"] * (document.num_sentences - len(labels))
                    results[index] = labels
                    chunk_labels.append(labels)
                if telemetry is not None and telemetry.drift is not None:
                    self._observe_drift(
                        telemetry.drift, chunk, features, batch, emissions,
                        chunk_labels,
                    )
        if telemetry is not None and self._quantized:
            for name, value in nn_quantize.quantization_report(self).items():
                telemetry.metrics.gauge(name).set(value)
        return results

    def _observe_drift(
        self, monitor, chunk, features, batch, emissions, predictions
    ) -> None:
        """Feed one decoded chunk to the session's drift monitor.

        CRF confidences come from forward-backward marginals — an extra
        pass over the emissions — so they are computed only when the
        reference profile actually tracks ``crf_confidence``.
        """
        from ..obs import drift as obs_drift

        confidences = None
        if monitor.wants("crf_confidence"):
            with obs.trace("drift.crf_marginals", batch=len(chunk)):
                marginals = self.crf.marginals(emissions, batch.sentence_mask)
            best = marginals.max(axis=2)
            lengths = batch.sentence_mask.sum(axis=1).astype(np.int64)
            confidences = [
                float(value)
                for row, length in zip(best, lengths)
                for value in row[:length]
            ]
        monitor.observe(
            obs_drift.document_observations(
                chunk,
                features=features,
                unk_id=self.featurizer.tokenizer.vocab.unk_id,
                predictions=predictions,
                confidences=confidences,
            )
        )

    def predict_block_tags(self, document: ResumeDocument) -> List[str]:
        """Bare block tag per sentence ('O' outside any block)."""
        return [
            label if label == "O" else label[2:]
            for label in self.predict(document)
        ]

    def predict_token_tags(self, document: ResumeDocument) -> List[str]:
        """Expand sentence predictions to token level (area metrics)."""
        sentence_tags = self.predict_block_tags(document)
        token_tags: List[str] = []
        for sentence, tag in zip(document.sentences, sentence_tags):
            token_tags.extend([tag] * len(sentence.tokens))
        return token_tags


class BlockTrainer:
    """Two-speed fine-tuning with early stopping on validation accuracy."""

    def __init__(
        self,
        model: BlockClassifier,
        encoder_lr: float = 1e-3,
        head_lr: float = 5e-3,
        weight_decay: float = 0.01,
        max_grad_norm: float = 5.0,
        seed: int = 0,
    ):
        self.model = model
        self.rng = np.random.default_rng(seed)
        encoder_params = model.encoder.parameters()
        head_params = (
            model.bilstm.parameters()
            + model.mlp.parameters()
            + model.crf.parameters()
        )
        self.optimizer = AdamW(
            [ParamGroup(encoder_params, encoder_lr), ParamGroup(head_params, head_lr)],
            weight_decay=weight_decay,
        )
        self.max_grad_norm = max_grad_norm

    # ------------------------------------------------------------------
    def fit(
        self,
        train: Sequence[LabeledDocument],
        validation: Sequence[LabeledDocument] = (),
        epochs: int = 5,
        patience: int = 2,
        batch_size: int = 4,
        grad_accumulation: int = 1,
        num_workers: int = 0,
    ) -> Dict[str, List[float]]:
        """Train with mini-batch optimizer steps; restores the best-validation
        parameters before returning.

        Each step collates ``batch_size`` documents into one padded
        :class:`DocumentBatch` and backprops the masked batched CRF loss —
        one optimizer step per mini-batch instead of per document.
        ``grad_accumulation`` accumulates that many mini-batches before
        stepping, so the effective batch is ``batch_size *
        grad_accumulation`` without growing the padded forward pass.

        ``num_workers`` is accepted only as 0: training runs in process,
        and any other value raises :class:`ValueError`.
        """
        if num_workers:
            raise ValueError("num_workers was removed; training runs in process")
        model = self.model
        # Chunks of similarly-sized documents keep the padded kernels from
        # paying the longest document's cost on every row.
        cap = model.featurizer.config.max_document_sentences
        lengths = [min(item.document.num_sentences, cap) for item in train]
        history: Dict[str, List[float]] = {"loss": [], "val_accuracy": []}
        best_score = -np.inf
        best_state = None
        bad_epochs = 0
        telemetry = obs.get_telemetry()
        step_index = 0
        features = [
            (model.featurizer.featurize(item.document), item.labels)
            for item in train
        ]
        engine = GradAccumulator(
            self.optimizer,
            model.parameters(),
            max_grad_norm=self.max_grad_norm,
            accumulation=grad_accumulation,
        )
        for epoch_index in range(epochs):
            epoch_loss = 0.0
            model.train()
            with obs.trace("block_train.epoch", epoch=epoch_index):
                for chunk in iter_minibatches(
                    len(train), batch_size, rng=self.rng, lengths=lengths
                ):
                    docs = [features[i][0] for i in chunk]
                    batch = collate_documents(docs)
                    labels = collate_labels(docs, [features[i][1] for i in chunk])
                    loss_tensor = model.loss_batch(batch, labels)
                    stepped = engine.backward(loss_tensor, weight=len(chunk))
                    loss = float(loss_tensor.data)
                    grad_norm = engine.last_grad_norm if stepped else None
                    epoch_loss += loss * len(chunk)
                    if telemetry is not None:
                        step_index += 1
                        telemetry.metrics.counter("train.documents").inc(
                            len(chunk)
                        )
                        telemetry.event(
                            "step",
                            phase="block_train",
                            step=step_index,
                            epoch=epoch_index,
                            losses={"crf": loss},
                            documents=len(chunk),
                            grad_norm=grad_norm,
                        )
                engine.flush()
            history["loss"].append(epoch_loss / max(len(train), 1))
            if telemetry is not None:
                telemetry.event(
                    "epoch",
                    phase="block_train",
                    epoch=epoch_index,
                    loss=history["loss"][-1],
                )

            if validation:
                score = self.sentence_accuracy(validation)
                history["val_accuracy"].append(score)
                if telemetry is not None:
                    telemetry.event(
                        "eval",
                        phase="block_train",
                        epoch=epoch_index,
                        val_accuracy=score,
                    )
                if score > best_score:
                    best_score, bad_epochs = score, 0
                    best_state = model.state_dict()
                else:
                    bad_epochs += 1
                    if bad_epochs >= patience:
                        break
        if best_state is not None:
            model.load_state_dict(best_state)
        return history

    def sentence_accuracy(
        self, items: Sequence[LabeledDocument], batch_size: int = 8
    ) -> float:
        """Fraction of sentences whose predicted label id is correct.

        Runs through :meth:`BlockClassifier.predict_batch`, so per-epoch
        validation sweeps reuse cached features and the batched kernels.
        """
        predictions = self.model.predict_batch(
            [item.document for item in items], batch_size=batch_size
        )
        correct = 0
        total = 0
        for item, predicted in zip(items, predictions):
            gold = self.model.scheme.decode(
                item.labels[: len(predicted)]
            )
            correct += sum(1 for p, g in zip(predicted, gold) if p == g)
            total += len(gold)
        return correct / max(total, 1)
