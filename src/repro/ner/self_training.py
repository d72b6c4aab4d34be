"""Self-distillation based self-training (Section IV-B4–5, Algorithm 2).

1. Train a teacher on the distantly supervised set with early stopping.
2. Initialise a student with the teacher's parameters.
3. Each iteration: the teacher labels a minibatch; labels become
   **soft pseudo-labels** with squared re-weighting (Eq. 9); optionally only
   **high-confidence tokens** (Eq. 11, threshold γ) contribute; the student
   minimises the KL loss (Eq. 10 / Eq. 12).
4. When the student improves on the validation set, the teacher is
   re-initialised from the student — the virtuous cycle.

The ablation toggles reproduce Table V: ``use_confidence_selection=False``
is *w/o HCS*, ``use_soft_labels=False`` is *w/o SL*, and
``use_self_distillation=False`` (teacher only, early-stopped) is *w/o SD*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..core.training import GradAccumulator, iter_minibatches
from ..corpus.datasets import NerExample
from ..eval.seq_metrics import entity_prf
from ..nn import AdamW, ParamGroup, clip_grad_norm
from ..nn.functional import kl_div_loss
from .model import NerTagger

__all__ = ["SelfTrainConfig", "soft_pseudo_labels", "confidence_mask", "SelfTrainer"]


@dataclass
class SelfTrainConfig:
    """Knobs of Algorithm 2 and its ablations."""

    teacher_epochs: int = 8
    teacher_patience: int = 2
    iterations: int = 12           # T of Algorithm 2
    batch_size: int = 16
    #: Mini-batches accumulated into each teacher optimizer step; raises
    #: the effective batch to ``batch_size * grad_accumulation`` without
    #: growing each forward pass.
    grad_accumulation: int = 1
    learning_rate: float = 1e-3
    #: Student steps use a gentler rate than supervised teacher training —
    #: KL fine-tuning against the teacher's own outputs at full rate
    #: destabilises the calibration it is meant to consolidate.  ``None``
    #: falls back to ``learning_rate``.
    student_learning_rate: Optional[float] = None
    weight_decay: float = 0.01
    max_grad_norm: float = 5.0
    gamma: float = 0.8             # high-confidence threshold (Eq. 11)
    use_soft_labels: bool = True       # w/o SL ablation
    use_confidence_selection: bool = True  # w/o HCS ablation
    use_self_distillation: bool = True     # w/o SD ablation
    eval_every: int = 2


def soft_pseudo_labels(
    probs: np.ndarray,
    word_mask: np.ndarray,
    frequency: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared re-weighted soft labels (Eq. 9).

    ``probs``: teacher distributions ``(b, w, C)``.  The unnormalised class
    frequency ``p_c`` sums teacher probabilities over all valid tokens —
    per Eq. 9 over the *whole training set* (pass ``frequency``); the batch
    itself is used as a fallback approximation.  Each distribution is
    re-weighted by ``f^2 / p`` then re-normalised, sharpening towards
    confident classes while boosting rare ones.
    """
    if frequency is None:
        masked = probs * word_mask[..., None]
        frequency = masked.reshape(-1, probs.shape[-1]).sum(axis=0)
    frequency = np.maximum(frequency, 1e-8)
    weighted = probs**2 / frequency
    weighted_sum = weighted.sum(axis=-1, keepdims=True)
    return weighted / np.maximum(weighted_sum, 1e-12)


def confidence_mask(
    soft: np.ndarray, word_mask: np.ndarray, gamma: float
) -> np.ndarray:
    """High-confidence token selection (Eq. 11): keep max_c S > γ."""
    confident = soft.max(axis=-1) > gamma
    return word_mask * confident


def hard_to_onehot(soft: np.ndarray) -> np.ndarray:
    """Collapse soft labels to one-hot (the *w/o SL* ablation)."""
    hard = np.zeros_like(soft)
    idx = soft.argmax(axis=-1)
    rows = np.indices(idx.shape)
    hard[(*rows, idx)] = 1.0
    return hard


class SelfTrainer:
    """Runs Algorithm 2 over a distantly supervised training set."""

    def __init__(
        self,
        model: NerTagger,
        config: Optional[SelfTrainConfig] = None,
        seed: int = 0,
    ):
        self.model = model
        self.config = config or SelfTrainConfig()
        self.rng = np.random.default_rng(seed)
        self.history: List[Dict[str, float]] = []

    # ------------------------------------------------------------------
    def _optimizer(self, model: NerTagger, learning_rate: float = None) -> AdamW:
        return AdamW(
            [
                ParamGroup(
                    model.parameters(),
                    learning_rate or self.config.learning_rate,
                )
            ],
            weight_decay=self.config.weight_decay,
        )

    def _validation_f1(self, model: NerTagger, validation: Sequence[NerExample]) -> float:
        if not validation:
            return 0.0
        predicted = model.predict(validation)
        gold = [e.labels for e in validation]
        return entity_prf(gold, predicted, model.scheme).f1

    # ------------------------------------------------------------------
    def train_teacher(
        self,
        train: Sequence[NerExample],
        validation: Sequence[NerExample],
    ) -> NerTagger:
        """Step 1: supervised training on distant labels with early stopping."""
        model = self.model
        optimizer = self._optimizer(model)
        best_f1 = -1.0
        best_state = None
        bad = 0
        accumulator = GradAccumulator(
            optimizer,
            model.parameters(),
            max_grad_norm=self.config.max_grad_norm,
            accumulation=self.config.grad_accumulation,
        )
        for epoch in range(self.config.teacher_epochs):
            model.train()
            epoch_loss = 0.0
            batches = 0
            for chunk in iter_minibatches(
                len(train), self.config.batch_size, rng=self.rng
            ):
                loss = model.loss(
                    model.featurizer.featurize([train[i] for i in chunk])
                )
                # Unit weight keeps grad_accumulation=1 bit-identical to the
                # classic per-batch step; accumulated windows average the
                # micro-batch losses evenly (they are token-means already).
                accumulator.backward(loss)
                epoch_loss += float(loss.data)
                batches += 1
            accumulator.flush()
            score = self._validation_f1(model, validation)
            self.history.append(
                {"stage": 0.0, "epoch": float(epoch),
                 "loss": epoch_loss / max(batches, 1), "val_f1": score}
            )
            telemetry = obs.get_telemetry()
            if telemetry is not None:
                telemetry.event(
                    "epoch", phase="ner_teacher", epoch=epoch,
                    loss=epoch_loss / max(batches, 1),
                )
                telemetry.event(
                    "eval", phase="ner_teacher", epoch=epoch, val_f1=score
                )
            if score > best_f1:
                best_f1, bad = score, 0
                best_state = model.state_dict()
            else:
                bad += 1
                if bad >= self.config.teacher_patience:
                    break
        if best_state is not None:
            model.load_state_dict(best_state)
        return model

    @staticmethod
    def _top_half_mask(soft: np.ndarray, word_mask: np.ndarray) -> np.ndarray:
        """Select the most confident half of the valid tokens."""
        confidence = soft.max(axis=-1)
        valid = word_mask > 0
        if not valid.any():
            return word_mask
        threshold = np.median(confidence[valid])
        return word_mask * (confidence >= threshold)

    # ------------------------------------------------------------------
    def train(
        self,
        train: Sequence[NerExample],
        validation: Sequence[NerExample],
    ) -> NerTagger:
        """Full Algorithm 2; returns the final student (or teacher w/o SD)."""
        teacher = self.train_teacher(train, validation)
        if not self.config.use_self_distillation:
            return teacher
        return self.self_train(teacher, train, validation)

    def self_train(
        self,
        initial_teacher: NerTagger,
        train: Sequence[NerExample],
        validation: Sequence[NerExample],
    ) -> NerTagger:
        """Steps 2–11 of Algorithm 2 from an already-trained teacher.

        The caller's teacher is cloned, never mutated, so one teacher can
        seed several student runs (ablations, threshold sweeps).

        Each iteration emits a ``step`` event (phase ``self_train``) whose
        ``selection_rate`` field, also the ``self_train.selection_rate``
        gauge, shows a collapsing Eq. 11–12 confidence selection long
        before validation F1 moves.
        """
        teacher = initial_teacher.clone()
        student = teacher.clone()
        optimizer = self._optimizer(
            student, self.config.student_learning_rate
        )
        best_f1 = self._validation_f1(student, validation)
        frequency = None  # Eq. 9's corpus-level p_c; refreshed with the teacher
        telemetry = obs.get_telemetry()
        for iteration in range(1, self.config.iterations + 1):
            with obs.trace("self_train.iteration", iteration=iteration):
                batch_idx = self.rng.choice(
                    len(train), size=min(self.config.batch_size, len(train)),
                    replace=False,
                )
                batch = [train[i] for i in batch_idx]
                features = student.featurizer.featurize(batch)

                probs = teacher.predict_probs(batch)
                if frequency is None:
                    frequency = self._class_frequency(teacher, train)
                soft = soft_pseudo_labels(probs, features.word_mask, frequency)
                if self.config.use_soft_labels:
                    targets = soft
                else:
                    targets = hard_to_onehot(probs)
                mask = features.word_mask
                valid_tokens = float(features.word_mask.sum())
                selection_rate = 1.0
                if self.config.use_confidence_selection:
                    selected = confidence_mask(soft, mask, self.config.gamma)
                    if selected.sum() == 0:
                        # Early in training no token may clear γ; fall
                        # back to the most confident half so the
                        # student still learns.
                        selected = self._top_half_mask(soft, mask)
                    # Eq. 11–12: share of valid tokens that cleared the
                    # confidence threshold and feed the KL loss.
                    selection_rate = (
                        float(selected.sum()) / valid_tokens
                        if valid_tokens else 0.0
                    )
                    mask = selected

                student.train()
                optimizer.zero_grad()
                loss_tensor = kl_div_loss(
                    student.logits(features), targets, mask=mask
                )
                loss_tensor.backward()
                clip_grad_norm(student.parameters(), self.config.max_grad_norm)
                optimizer.step()
                loss = float(loss_tensor.data)

            record = {"stage": 1.0, "epoch": float(iteration),
                      "loss": loss, "val_f1": best_f1}
            teacher_refreshed = False
            if iteration % self.config.eval_every == 0:
                score = self._validation_f1(student, validation)
                record["val_f1"] = score
                if telemetry is not None:
                    telemetry.event(
                        "eval", phase="self_train", iteration=iteration,
                        val_f1=score,
                    )
                if score > best_f1:
                    # The improved student re-initialises the teacher.
                    best_f1 = score
                    teacher.load_state_dict(student.state_dict())
                    frequency = None  # p_c must track the new teacher
                    teacher_refreshed = True
            self.history.append(record)
            if telemetry is not None:
                telemetry.metrics.gauge("self_train.selection_rate").set(
                    selection_rate
                )
                telemetry.metrics.counter("self_train.iterations").inc()
                if teacher_refreshed:
                    telemetry.metrics.counter(
                        "self_train.teacher_refreshes"
                    ).inc()
                telemetry.event(
                    "step",
                    phase="self_train",
                    step=iteration,
                    losses={"kl": loss},
                    selection_rate=selection_rate,
                    selected_tokens=float(mask.sum()),
                    valid_tokens=valid_tokens,
                    teacher_refreshed=teacher_refreshed,
                )
        return student

    def _class_frequency(
        self,
        teacher: NerTagger,
        train: Sequence[NerExample],
        chunk: int = 64,
    ) -> np.ndarray:
        """Eq. 9's unnormalised class frequency over the full training set."""
        num_labels = teacher.scheme.num_labels
        frequency = np.zeros(num_labels)
        for start in range(0, len(train), chunk):
            batch = list(train[start : start + chunk])
            probs = teacher.predict_probs(batch)
            features = teacher.featurizer.featurize(batch)
            masked = probs * features.word_mask[..., None]
            frequency += masked.reshape(-1, num_labels).sum(axis=0)
        return frequency
