"""Input embeddings for the hierarchical encoder (Eq. 1–2).

* :class:`TextEmbedding` — word + 1-D position + segment (Eq. 1).
* :class:`LayoutEmbedding` — the 2-D spatial embedding of Eq. 2: separate
  x-axis, y-axis and page embedding tables whose outputs are concatenated
  (``[emb_g(p); emb_x(x_min, x_max, w); emb_y(y_min, y_max, h)]``) and
  projected to the model width.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Embedding, LayerNorm, Linear, Module, Tensor
from ..nn import init as nn_init
from ..nn.tensor import _scatter_rows, is_grad_enabled

__all__ = ["TextEmbedding", "LayoutEmbedding"]

_MAX_PAGES = 16


class TextEmbedding(Module):
    """Sum of word, 1-D positional and segment embeddings (Eq. 1)."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        max_positions: int,
        num_segments: int = 2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or nn_init.default_rng()
        self.word = Embedding(vocab_size, dim, rng=rng, padding_idx=0)
        self.position = Embedding(max_positions, dim, rng=rng)
        self.segment = Embedding(num_segments, dim, rng=rng)
        self.norm = LayerNorm(dim)
        self.max_positions = max_positions

    def forward(
        self,
        token_ids: np.ndarray,
        segments: np.ndarray,
        positions: Optional[np.ndarray] = None,
    ) -> Tensor:
        """``token_ids``/``segments``: integer arrays ``(..., seq)``.

        With grads on this is one autograd node: :meth:`infer`'s gathers
        and sum, the graph-path layer norm, and one row scatter per table
        on the way back.
        """
        if not is_grad_enabled():
            return Tensor(self.infer(token_ids, segments, positions=positions))
        summed, uses = self._gather(token_ids, segments, positions)
        out, pullback = self.norm.vjp(summed)

        def backward(grad: np.ndarray) -> None:
            g_summed = pullback(grad)
            for table, ids in uses:
                table._accumulate(_scatter_rows(ids, g_summed, table.data.shape))

        parents = tuple(table for table, _ in uses) + (self.norm.gamma, self.norm.beta)
        return self.norm.gamma._make(out, parents, backward)

    def infer(
        self,
        token_ids: np.ndarray,
        segments: np.ndarray,
        dtype=None,
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Raw-array forward (the op order :meth:`forward` repeats).

        ``dtype`` routes the gathers through cast embedding tables so a
        single-precision inference pipeline starts narrow instead of
        converting after the fact.  ``positions`` overrides the implied
        0..seq-1 position ids — callers that flatten several padded
        groups into one row block pass the per-group positions here.
        """
        return self.norm.infer(self._gather(token_ids, segments, positions, dtype)[0])

    def _gather(self, token_ids, segments, positions, dtype=None) -> tuple:
        """The summed word, position and segment rows, plus each table
        with the ids it gathered."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if positions is None:
            seq = token_ids.shape[-1]
            if seq > self.max_positions:
                raise ValueError(
                    f"sequence length {seq} exceeds max positions "
                    f"{self.max_positions}"
                )
            positions = np.broadcast_to(np.arange(seq), token_ids.shape)
        uses = [
            (self.word, token_ids),
            (self.position, np.asarray(positions, dtype=np.int64)),
            (self.segment, np.asarray(segments, dtype=np.int64)),
        ]
        summed = self.word.lookup(token_ids, dtype=dtype)
        for table, ids in uses[1:]:
            summed += table.lookup(ids, dtype=dtype)
        return summed, [(table.weight, ids) for table, ids in uses]


class LayoutEmbedding(Module):
    """The 2-D layout embedding of Eq. 2 over bucketised coordinates.

    Inputs are integer layout tuples ``(x_min, y_min, x_max, y_max, width,
    height, page)`` (see :data:`repro.core.featurize.LAYOUT_FEATURES`).
    The x-features share one embedding table, the y-features another; the
    three x (respectively y) embeddings are summed, then ``[page; x; y]``
    is concatenated and projected to the model dimension.
    """

    def __init__(
        self,
        dim: int,
        buckets: int,
        rng: Optional[np.random.Generator] = None,
        axis_dim: Optional[int] = None,
        page_dim: int = 8,
    ):
        super().__init__()
        rng = rng or nn_init.default_rng()
        axis_dim = axis_dim or max(dim // 4, 8)
        self.x_table = Embedding(buckets, axis_dim, rng=rng)
        self.y_table = Embedding(buckets, axis_dim, rng=rng)
        self.page_table = Embedding(_MAX_PAGES, page_dim, rng=rng)
        self.project = Linear(page_dim + 2 * axis_dim, dim, rng=rng)

    def forward(self, layout: np.ndarray) -> Tensor:
        """``layout``: integer array ``(..., 7)``.

        With grads on this is one autograd node: :meth:`infer`'s seven
        gathers, per-axis sums and concatenation, the graph-path
        projection, and one row scatter per table use on the way back.
        """
        if not is_grad_enabled():
            return Tensor(self.infer(layout))
        combined, uses = self._gather(layout)
        out, pullback = self.project.vjp(combined)
        widths = np.cumsum([self.page_table.embedding_dim, self.x_table.embedding_dim])

        def backward(grad: np.ndarray) -> None:
            g_parts = np.split(pullback(grad), widths, axis=-1)
            for (table, ids), g_part in zip(uses, g_parts):
                for index in ids:
                    table._accumulate(_scatter_rows(index, g_part, table.data.shape))

        parents = tuple(table for table, _ in uses) + (
            self.project.weight,
            self.project.bias,
        )
        return self.project.weight._make(out, parents, backward)

    def infer(self, layout: np.ndarray, dtype=None) -> np.ndarray:
        """Raw-array forward (the op order :meth:`forward` repeats)."""
        return self.project.infer(self._gather(layout, dtype)[0])

    def _gather(self, layout: np.ndarray, dtype=None) -> tuple:
        """``[page; x; y]`` before the projection, plus each table with
        the ids of each of its gathers."""
        layout = np.asarray(layout, dtype=np.int64)
        parts, uses = [], []
        for table, columns in (
            (self.page_table, (6,)),
            (self.x_table, (0, 2, 4)),
            (self.y_table, (1, 3, 5)),
        ):
            ids = [layout[..., column] for column in columns]
            part = table.lookup(ids[0], dtype=dtype)
            for more in ids[1:]:
                part += table.lookup(more, dtype=dtype)
            parts.append(part)
            uses.append((table.weight, ids))
        return np.concatenate(parts, axis=-1), uses
