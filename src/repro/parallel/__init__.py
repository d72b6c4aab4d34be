"""``repro.parallel`` — multi-process data-parallel training and corpus work.

Each trainer runs one training loop; ``num_workers >= 1`` only swaps
its gradient step for a synchronous data-parallel one built from this
package, without changing the math:

* :mod:`~repro.parallel.sharding` — the deterministic sharding contract
  (global batch order drawn once, contiguous order-preserving shards);
* :mod:`~repro.parallel.pool` — a spawn-safe :class:`WorkerPool` over
  shared-memory float64 slabs, its in-process twin :class:`LocalRunner`,
  and :func:`make_runner` (honouring ``REPRO_PARALLEL_BACKEND``);
* :mod:`~repro.parallel.grads` — flat parameter/gradient vectors and the
  closed-form cross-worker InfoNCE gradient;
* :mod:`~repro.parallel.randomness` — per-document seeded draws that make
  pre-training randomness worker-count invariant;
* :mod:`~repro.parallel.workers` — worker contexts for the three trainers
  plus corpus generation/featurization;
* :mod:`~repro.parallel.data_parallel` — the broadcast → dispatch →
  all-reduce → step engine;
* :mod:`~repro.parallel.corpus` — parallel document generation and
  featurization helpers.

Entry points for users are the ``num_workers`` knobs on
:meth:`repro.core.BlockTrainer.fit`, :meth:`repro.core.Pretrainer.fit`,
:class:`repro.ner.SelfTrainConfig`, and
:meth:`repro.corpus.ResumeGenerator.batch` — see ``docs/API.md`` §14.
"""

from .data_parallel import DataParallelEngine, publish_cache_hit_rates
from .corpus import featurize_documents, generate_documents
from .grads import (
    info_nce_grads,
    load_param_vector,
    param_layout,
    param_size,
    param_vector,
    set_grads_from,
    write_grad_vector,
)
from .pool import (
    BACKEND_ENV,
    LocalRunner,
    ParallelWorkerError,
    WorkerPool,
    make_runner,
)
from .randomness import (
    DocumentDraw,
    assemble_batch_randomness,
    draw_document,
    draw_documents,
)
from .sharding import shard_evenly, shard_imbalance
from .workers import (
    init_block_worker,
    init_corpus_worker,
    init_featurize_worker,
    init_ner_worker,
    init_pretrain_worker,
    init_probe_worker,
)

__all__ = [
    "BACKEND_ENV",
    "DataParallelEngine",
    "DocumentDraw",
    "LocalRunner",
    "ParallelWorkerError",
    "WorkerPool",
    "assemble_batch_randomness",
    "draw_document",
    "draw_documents",
    "featurize_documents",
    "generate_documents",
    "info_nce_grads",
    "init_block_worker",
    "init_corpus_worker",
    "init_featurize_worker",
    "init_ner_worker",
    "init_pretrain_worker",
    "init_probe_worker",
    "load_param_vector",
    "make_runner",
    "param_layout",
    "param_size",
    "param_vector",
    "publish_cache_hit_rates",
    "set_grads_from",
    "shard_evenly",
    "shard_imbalance",
    "write_grad_vector",
]
