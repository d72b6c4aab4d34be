"""Mini-batch training engine shared by all three trainers.

The batched loss kernels (`BlockClassifier.loss_batch`,
`Pretrainer.pretrain_losses`, `NerTagger.loss_batch`) each return the
*mean of the per-document losses* in their mini-batch.  This module owns
the other half of the contract: turning those mean losses into optimizer
steps, with optional gradient accumulation so the effective batch size can
exceed what fits in one padded forward pass.

:class:`GradAccumulator` accumulates ``loss * weight`` gradients across
micro-batches and rescales by the total weight at step time, so the final
gradient is the exact weighted mean over every document in the window —
including ragged final windows where the last micro-batch is smaller.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .. import obs
from ..nn import clip_grad_norm
from ..nn.tensor import Tensor, no_grad

__all__ = ["GradAccumulator", "iter_minibatches"]


class GradAccumulator:
    """Accumulates micro-batch gradients into one optimizer step.

    Each :meth:`backward` call contributes ``loss * weight`` to the
    parameter gradients (``weight`` is typically the number of documents
    the mean loss covers).  Every ``accumulation`` calls the gradients are
    rescaled by ``1 / total_weight``, clipped, and applied — one step whose
    gradient equals the weighted mean of all accumulated losses.  With
    ``accumulation=1`` and ``weight=1`` this is exactly the classic
    ``zero_grad / backward / clip / step`` sequence.
    """

    def __init__(
        self,
        optimizer,
        parameters: Sequence,
        max_grad_norm: Optional[float] = None,
        accumulation: int = 1,
    ):
        if accumulation <= 0:
            raise ValueError("grad accumulation must be positive")
        self.optimizer = optimizer
        self.parameters = list(parameters)
        self.max_grad_norm = max_grad_norm
        self.accumulation = accumulation
        self.steps = 0
        #: Pre-clip global gradient norm of the most recent optimizer step
        #: (None until the first step, or when clipping is disabled).
        self.last_grad_norm: Optional[float] = None
        self._pending = 0
        self._weight = 0.0

    def backward(self, loss: Tensor, weight: float = 1.0) -> bool:
        """Backprop one micro-batch loss; returns True if a step was taken."""
        if weight <= 0:
            raise ValueError("loss weight must be positive")
        if self._pending == 0:
            self.optimizer.zero_grad()
        scaled = loss * float(weight) if weight != 1.0 else loss
        scaled.backward()
        self._pending += 1
        self._weight += float(weight)
        if self._pending >= self.accumulation:
            self._apply()
            return True
        return False

    def flush(self) -> bool:
        """Apply a pending partial window (end of epoch); True if stepped."""
        if self._pending == 0:
            return False
        self._apply()
        return True

    def _apply(self) -> None:
        """Rescale the accumulated gradients by ``1 / total_weight``, clip,
        and take one optimizer step."""
        started = time.perf_counter()
        grad_norm: Optional[float] = None
        with obs.trace("train.apply_step"):
            if self._weight != 1.0:
                scale = 1.0 / self._weight
                with no_grad():
                    for parameter in self.parameters:
                        if parameter.grad is not None:
                            parameter.grad *= scale
            if self.max_grad_norm is not None:
                grad_norm = clip_grad_norm(self.parameters, self.max_grad_norm)
            self.optimizer.step()
        telemetry = obs.get_telemetry()
        if telemetry is not None:
            telemetry.metrics.counter("train.optimizer_steps").inc()
            telemetry.metrics.timer("train.apply_step_seconds").observe(
                time.perf_counter() - started
            )
            if grad_norm is not None:
                telemetry.metrics.gauge("train.grad_norm").set(grad_norm)
        if grad_norm is not None:
            self.last_grad_norm = grad_norm
        self.steps += 1
        self._pending = 0
        self._weight = 0.0


def iter_minibatches(
    count: int,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
    lengths: Optional[Sequence[int]] = None,
) -> Iterator[List[int]]:
    """Yield index lists covering ``range(count)`` in chunks of ``batch_size``.

    With ``rng`` the order is shuffled first (one permutation draw, matching
    the per-epoch shuffle the per-document loops used).

    ``lengths`` switches to length-bucketed batching: indices are sorted by
    length so each chunk groups similarly-sized items, then the *chunk*
    order is shuffled.  Padded batch kernels pay for the longest item in
    the chunk, so mixing a long document into a chunk of short ones makes
    every row pay the long document's quadratic attention cost — sorting
    first keeps the padding (and the wasted compute) minimal while the
    chunk-level shuffle preserves epoch-to-epoch stochasticity.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if lengths is not None:
        if len(lengths) != count:
            raise ValueError("lengths must have one entry per item")
        shuffled = np.arange(count) if rng is None else rng.permutation(count)
        order = shuffled[
            np.argsort(np.asarray(lengths)[shuffled], kind="stable")
        ]
        chunks = [
            order[start : start + batch_size]
            for start in range(0, count, batch_size)
        ]
        if rng is not None:
            chunks = [chunks[i] for i in rng.permutation(len(chunks))]
        for chunk in chunks:
            yield [int(i) for i in chunk]
        return
    order = np.arange(count) if rng is None else rng.permutation(count)
    for start in range(0, count, batch_size):
        yield [int(i) for i in order[start : start + batch_size]]
