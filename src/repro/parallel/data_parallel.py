"""The data-parallel all-reduce engine shared by the three trainers.

Each trainer's loop builds its gradient step on this engine when
``num_workers >= 1``; batch order, validation and telemetry stay in the
loop.  One optimizer step in parallel mode:

1. **broadcast** — serialise the parent model into the shared parameter
   slab (workers copy it into their replicas at task start);
2. **dispatch** — shard the effective batch with
   :func:`~repro.parallel.sharding.shard_evenly` and send one gradient
   task per worker (the ``parallel.shard_imbalance`` gauge tracks how
   even the split was);
3. **reduce + apply** — sum the per-worker gradient slabs (the
   ``parallel.allreduce`` span), normalise by the total shard weight,
   install the result on the parent's parameters, and run the same
   clip-then-step sequence as :class:`~repro.core.training.GradAccumulator`
   (via :func:`~repro.core.training.apply_weighted_step`).

Because workers publish *weight-scaled* gradients, the reduced vector is
the exact weighted mean over every document of the effective batch —
the same contract the accumulator keeps across micro-batches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .. import obs
from ..core.training import apply_weighted_step
from .grads import param_vector, set_grads_from
from .sharding import shard_evenly, shard_imbalance

__all__ = ["DataParallelEngine", "publish_cache_hit_rates"]


def publish_cache_hit_rates(results: Sequence[dict]) -> None:
    """Per-worker ``parallel.feature_cache.hit_rate{worker=}`` gauges."""
    telemetry = obs.get_telemetry()
    if telemetry is None:
        return
    gauge = telemetry.metrics.gauge("parallel.feature_cache.hit_rate")
    for worker_id, result in enumerate(results):
        if isinstance(result, dict) and "cache_hit_rate" in result:
            gauge.set(result["cache_hit_rate"], worker=str(worker_id))


class DataParallelEngine:
    """Broadcast / dispatch / reduce / step over a parallel runner."""

    def __init__(
        self,
        runner,
        optimizer,
        parameters: Sequence,
        max_grad_norm: Optional[float] = None,
    ):
        self.runner = runner
        self.optimizer = optimizer
        self.parameters = list(parameters)
        self.max_grad_norm = max_grad_norm
        #: Pre-clip gradient norm of the latest step (None before the
        #: first, or when clipping is disabled) — mirrors GradAccumulator.
        self.last_grad_norm: Optional[float] = None
        self.steps = 0

    # ------------------------------------------------------------------
    def broadcast(self) -> None:
        """Write the parent's current parameters into the shared slab."""
        param_vector(self.parameters, out=self.runner.params)

    def shard(self, indices: Sequence[int]) -> List[List[int]]:
        """Split one effective batch across the workers (gauged)."""
        shards = shard_evenly(indices, self.runner.num_workers)
        telemetry = obs.get_telemetry()
        if telemetry is not None:
            telemetry.metrics.gauge("parallel.shard_imbalance").set(
                shard_imbalance(shards)
            )
        return shards

    def dispatch(
        self,
        task: str,
        shards: Sequence[Sequence[int]],
        extras: Optional[Sequence[dict]] = None,
    ) -> List[object]:
        """One task per worker over its shard (plus optional extras)."""
        payloads = []
        for worker_id, shard in enumerate(shards):
            payload = {"indices": list(shard)}
            if extras is not None:
                payload.update(extras[worker_id])
            payloads.append(payload)
        return self.runner.run(task, payloads)

    def apply(self, total_weight: Optional[float] = None) -> Optional[float]:
        """Reduce the worker slabs and take one optimizer step."""
        reduced = self.runner.reduce(total_weight)
        set_grads_from(self.parameters, reduced)
        self.last_grad_norm = apply_weighted_step(
            self.optimizer, self.parameters, max_grad_norm=self.max_grad_norm
        )
        self.steps += 1
        return self.last_grad_norm

    # ------------------------------------------------------------------
    def grad_step(
        self,
        task: str,
        indices: Sequence[int],
        extras: Optional[Sequence[dict]] = None,
    ):
        """One full broadcast→dispatch→reduce→step cycle.

        Expects worker results shaped ``{"loss": float, "weight": float}``
        (the contract of ``task_grad`` / ``task_kl_grad``).  Returns
        ``(results, batch_loss)`` where ``batch_loss`` is the
        weight-averaged loss over the whole effective batch, or None when
        no shard contributed (no step taken).
        """
        self.broadcast()
        results = self.dispatch(task, self.shard(indices), extras)
        total_weight = sum(result["weight"] for result in results)
        if total_weight <= 0:
            return results, None
        self.apply(total_weight)
        batch_loss = (
            sum(result["loss"] * result["weight"] for result in results)
            / total_weight
        )
        return results, batch_loss
