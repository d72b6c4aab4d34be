"""Multi-head self-attention and Transformer encoder stacks.

Two execution tiers share one set of parameters:

* **Training** — :func:`fused_self_attention` runs the whole attention
  chain (QKV projection → scaled scores → masked softmax → attention
  dropout → context → output projection) as a *single* autograd node
  with one analytic backward closure.  It takes either a ``(b, t, d)``
  batch or a flat ragged buffer of padded width groups (``blocks``,
  ``masks``), so a grads-on encoder runs the same layout as serving.
* **Serving** — under ``no_grad`` with dropout inactive, the encoder
  stack always runs the allocation-lean raw-``ndarray`` kernel
  :meth:`TransformerEncoder.infer_block`: no ``Tensor`` boxing, no graph
  bookkeeping, per-row maps over one ``(rows, dim)`` buffer and the
  attention core per padded group (groups cut by :func:`width_groups`,
  laid out by :func:`ragged_layout`).  ``inference_dtype`` lets the
  quantized int8 path run the elementwise tail in float32.  At the
  default ``float64`` the full encoder layer matches the training-graph
  forward to GEMM and LayerNorm round-off (its serving kernel divides
  the scores by ``sqrt(d)`` and uses a fused einsum variance).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from . import init
from .functional import gelu, gelu_ndarray
from .layers import Dropout, LayerNorm, Linear
from .module import Module, ModuleList
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "fused_self_attention",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
]

#: Large negative logit used to exclude masked keys from the softmax.
_NEG_INF = -1e9


def _split_heads_np(x: np.ndarray, num_heads: int) -> np.ndarray:
    batch, seq, dim = x.shape
    return x.reshape(batch, seq, num_heads, dim // num_heads).transpose(0, 2, 1, 3)


def _merge_heads_np(x: np.ndarray) -> np.ndarray:
    batch, heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)


def _masked_softmax_np(
    scores: np.ndarray, attention_mask: Optional[np.ndarray]
) -> np.ndarray:
    """Key-masked softmax over the last axis, on raw arrays.

    Mirrors ``masked_fill`` + ``functional.softmax`` operation for
    operation, so the float64 result is bit-identical to composing
    those ops.
    """
    if attention_mask is not None:
        mask = np.asarray(attention_mask, dtype=bool)
        if not mask.all():
            invalid = np.broadcast_to(~mask[:, None, None, :], scores.shape)
            np.copyto(scores, scores.dtype.type(_NEG_INF), where=invalid)
    shift = scores.max(axis=-1, keepdims=True)
    np.copyto(shift, 0.0, where=~np.isfinite(shift))
    scores -= shift
    np.exp(scores, out=scores)
    denom = scores.sum(axis=-1, keepdims=True)
    if scores.dtype == np.float64:
        scores /= denom
    else:
        # Narrow pipelines trade the full-tensor divide for a reciprocal
        # on the tiny denominator (last-ulp difference only).
        np.divide(1.0, denom, out=denom)
        scores *= denom
    return scores


def fused_self_attention(
    x: Tensor,
    w_q: Tensor,
    b_q: Tensor,
    w_k: Tensor,
    b_k: Tensor,
    w_v: Tensor,
    b_v: Tensor,
    w_o: Tensor,
    b_o: Tensor,
    num_heads: int,
    attention_mask: Optional[np.ndarray] = None,
    blocks=None,
    masks=None,
    dropout: Optional[Callable] = None,
) -> Tensor:
    """The full attention chain as one batched-matmul autograd node.

    QKV projections, scaled scores, key-masked softmax, attention-weight
    dropout, context and output projection run in raw numpy under a
    *single* analytic backward closure.  ``x`` is ``(batch, seq, dim)``
    with an optional ``(batch, seq)`` 0/1 ``attention_mask`` — the
    one-block case — or a flat ``(rows, dim)`` buffer of padded groups,
    with ``blocks``/``masks`` as in :meth:`TransformerEncoder.infer_block`:
    the projections run once over every row, the O(t²) core per group.
    Masked keys get exactly zero weight (their ``-1e9`` fill underflows
    the softmax) and so exactly zero gradient.  ``dropout`` maps each
    group's weight shape to a scaled keep-mask or None
    (:meth:`Dropout.sample_mask`), in group order.
    """
    shape = x.shape
    dim = shape[-1]
    if blocks is None:
        blocks, masks = [(0, shape[0], shape[1])], [attention_mask]
    head_dim = dim // num_heads
    scale = 1.0 / np.sqrt(head_dim)
    flat = x.data.reshape(-1, dim)
    rows = flat.shape[0]

    qm = flat @ w_q.data + b_q.data
    km = flat @ w_k.data + b_k.data
    vm = flat @ w_v.data + b_v.data
    context_m = np.empty((rows, dim))
    saved = []
    for (offset, n, t), mask in zip(blocks, masks):
        span = slice(offset, offset + n * t)
        q = _split_heads_np(qm[span].reshape(n, t, dim), num_heads)
        k = _split_heads_np(km[span].reshape(n, t, dim), num_heads)
        v = _split_heads_np(vm[span].reshape(n, t, dim), num_heads)
        weights = _masked_softmax_np((q @ k.swapaxes(-1, -2)) * scale, mask)
        keep = None if dropout is None else dropout(weights.shape)
        dropped = weights if keep is None else weights * keep
        # Each head's context lands straight in its columns of the
        # shared buffer (no merge-heads copy).
        out = context_m[span].reshape(n, t, dim)
        np.matmul(dropped, v, out=_split_heads_np(out, num_heads))
        saved.append((span, n, t, q, k, v, weights, keep, dropped))
    out_data = (context_m @ w_o.data + b_o.data).reshape(shape)

    def backward(grad: np.ndarray) -> None:
        grad2d = grad.reshape(rows, dim)
        b_o._accumulate(grad2d.sum(axis=0))
        w_o._accumulate(context_m.T @ grad2d)
        g_context_m = grad2d @ w_o.data.T
        g_qm, g_km, g_vm = (np.empty((rows, dim)) for _ in range(3))
        for span, n, t, q, k, v, weights, keep, dropped in saved:
            g_context = _split_heads_np(g_context_m[span].reshape(n, t, dim), num_heads)
            g_weights = g_context @ v.swapaxes(-1, -2)
            if keep is not None:
                g_weights *= keep
            g_v = dropped.swapaxes(-1, -2) @ g_context
            # Softmax backward: rows of exactly-zero weight (masked keys)
            # contribute exactly zero, matching the constant fill value.
            g_scores = weights * (
                g_weights - (g_weights * weights).sum(axis=-1, keepdims=True)
            )
            g_scores *= scale
            g_qm[span] = _merge_heads_np(g_scores @ k).reshape(n * t, dim)
            g_km[span] = _merge_heads_np(g_scores.swapaxes(-1, -2) @ q).reshape(n * t, dim)
            g_vm[span] = _merge_heads_np(g_v).reshape(n * t, dim)
        w_q._accumulate(flat.T @ g_qm)
        w_k._accumulate(flat.T @ g_km)
        w_v._accumulate(flat.T @ g_vm)
        b_q._accumulate(g_qm.sum(axis=0))
        b_k._accumulate(g_km.sum(axis=0))
        b_v._accumulate(g_vm.sum(axis=0))
        g_x = g_qm @ w_q.data.T + g_km @ w_k.data.T + g_vm @ w_v.data.T
        x._accumulate(g_x.reshape(shape))

    parents = (x, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o)
    return x._make(out_data, parents, backward)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product multi-head self-attention.

    Operates on ``(batch, seq, dim)`` inputs with an optional boolean/0-1
    ``attention_mask`` of shape ``(batch, seq)`` where 1 marks valid
    tokens, or on a flat ragged buffer with ``blocks``/``masks`` (see
    :func:`fused_self_attention`, the single op the forward records;
    attention-weight dropout runs inside it).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or init.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        attention_mask: Optional[np.ndarray] = None,
        blocks=None,
        masks=None,
    ) -> Tensor:
        q, k, v, o = self.query, self.key, self.value, self.out
        return fused_self_attention(
            x, q.weight, q.bias, k.weight, k.bias, v.weight, v.bias, o.weight, o.bias,
            self.num_heads, attention_mask=attention_mask, blocks=blocks,
            masks=masks, dropout=self.dropout.sample_mask,
        )

    def _quantized_qkv(self, x: np.ndarray) -> Optional[np.ndarray]:
        """One int8 GEMM for all three QKV projections, if quantized.

        When ``query``/``key``/``value`` are all :class:`QuantizedLinear`
        (and none is calibrating), their integer-valued weight stages are
        concatenated into one ``(dim, 3·dim)`` matrix so the input is
        quantized once and projected in a single sgemm.  All three
        projections see the same input and hence the same activation
        scale, and per-output-channel weight scales concatenate, so the
        result is bitwise identical to three separate quantized calls.
        Returns the stacked ``(batch, seq, 3·dim)`` output, or ``None``
        when the fast path does not apply.
        """
        from .quantize import QuantizedLinear, quantize_activations

        projections = (self.query, self.key, self.value)
        if not all(type(p) is QuantizedLinear for p in projections):
            return None
        if any(p.calibrating or p.bias_f32 is None for p in projections):
            return None
        cached = getattr(self, "_qkv_cache", None)
        if cached is None or any(
            a is not b for a, b in zip(cached[0], projections)
        ):
            cached = (
                projections,
                np.concatenate([p.weight_f32 for p in projections], axis=1),
                np.concatenate([p.weight_scale for p in projections]),
                np.concatenate([p.bias_f32 for p in projections]),
            )
            self._qkv_cache = cached
        _, weight_f32, weight_scale, bias_f32 = cached
        x32 = x.astype(np.float32, copy=False)
        scale = self.query.act_scale()
        x_q = quantize_activations(x32, scale)
        out = x_q @ weight_f32
        out *= np.float32(scale) * weight_scale
        out += bias_f32
        return out

    def _infer_block(self, flat, blocks, masks) -> np.ndarray:
        """Attention over a ragged block of sequences sharing one 2-D buffer.

        ``flat`` is ``(total_rows, dim)`` holding several padded sequence
        groups back to back; ``blocks`` lists ``(offset, n, t)`` spans and
        ``masks`` the per-group key masks.  The QKV and output projections
        — per-row maps — run *once* over the whole buffer (one GEMM each,
        or a single stacked int8 GEMM when quantized); only the O(t²)
        attention core runs per group.  Per-row results are bitwise
        identical to calling this method on each group alone.
        """
        dim = self.dim
        qkv = self._quantized_qkv(flat)
        if qkv is not None:
            qm = qkv[:, :dim]
            km = qkv[:, dim : 2 * dim]
            vm = qkv[:, 2 * dim :]
        else:
            qm = self.query.infer(flat)
            km = self.key.infer(flat)
            vm = self.value.infer(flat)
        scaled = qm.dtype != np.float64
        if scaled:
            # Fold 1/sqrt(d) into the (rows, d) query buffer up front —
            # far cheaper than dividing every O(t^2) score tensor below.
            qm = qm * qm.dtype.type(1.0 / np.sqrt(self.head_dim))
        context = np.empty((flat.shape[0], dim), dtype=qm.dtype)
        scale = np.asarray(np.sqrt(self.head_dim), dtype=qm.dtype)
        for (offset, n, t), mask in zip(blocks, masks):
            end = offset + n * t
            q = _split_heads_np(qm[offset:end].reshape(n, t, dim), self.num_heads)
            k = _split_heads_np(km[offset:end].reshape(n, t, dim), self.num_heads)
            v = _split_heads_np(vm[offset:end].reshape(n, t, dim), self.num_heads)
            scores = q @ k.swapaxes(-1, -2)
            if not scaled:
                scores /= scale
            weights = _masked_softmax_np(scores, mask)
            # Each head's context lands straight in its columns of the
            # shared buffer (no merge-heads copy).
            out = context[offset:end].reshape(n, t, dim)
            np.matmul(weights, v, out=_split_heads_np(out, self.num_heads))
        return self.out.infer(context)


class TransformerEncoderLayer(Module):
    """Post-norm Transformer encoder layer (attention + feed-forward)."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_dim: Optional[int] = None,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or init.default_rng()
        ffn_dim = ffn_dim or dim * 4
        self.attention = MultiHeadSelfAttention(dim, num_heads, dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.ffn_in = Linear(dim, ffn_dim, rng=rng)
        self.ffn_out = Linear(ffn_dim, dim, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        attention_mask: Optional[np.ndarray] = None,
        blocks=None,
        masks=None,
    ) -> Tensor:
        attended = self.attention(
            x, attention_mask=attention_mask, blocks=blocks, masks=masks
        )
        x = self.norm1(x + self.dropout(attended))
        transformed = self.ffn_out(gelu(self.ffn_in(x)))
        return self.norm2(x + self.dropout(transformed))

    def _infer_block(self, flat, blocks, masks) -> np.ndarray:
        """Whole layer over a ragged block (see ``_infer_block`` above)."""
        attended = self.attention._infer_block(flat, blocks, masks)
        x = self.norm1.infer(flat + attended)
        transformed = self.ffn_out.infer(gelu_ndarray(self.ffn_in.infer(x)))
        return self.norm2.infer(x + transformed)


class TransformerEncoder(Module):
    """A stack of :class:`TransformerEncoderLayer`.

    Under ``no_grad`` (and with dropout inactive) the stack runs its
    allocation-lean raw-array kernel :meth:`infer_block`; set
    ``inference_dtype`` to ``np.float32`` to run the elementwise tail in
    single precision (the quantized path does this automatically).
    """

    def __init__(
        self,
        num_layers: int,
        dim: int,
        num_heads: int,
        ffn_dim: Optional[int] = None,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or init.default_rng()
        self.layers = ModuleList(
            TransformerEncoderLayer(dim, num_heads, ffn_dim, dropout, rng=rng)
            for _ in range(num_layers)
        )
        #: Dtype of the raw-array serving pipeline (float64 = full precision).
        self.inference_dtype = np.float64

    def _dropout_inactive(self) -> bool:
        return all(
            not layer.dropout.training or layer.dropout.p == 0.0
            for layer in self.layers
        )

    def infer(
        self, x: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Run the whole stack on a raw ``(b, t, d)`` array: one group of
        :meth:`infer_block`."""
        batch, seq, dim = x.shape
        flat = x.reshape(batch * seq, dim)
        out = self.infer_block(flat, [(0, batch, seq)], [attention_mask])
        return out.reshape(batch, seq, dim)

    def infer_block(self, flat, blocks, masks) -> np.ndarray:
        """Run the stack over a ragged block of padded sequence groups.

        ``flat``: ``(total_rows, dim)`` buffer of concatenated groups,
        each group ``(offset, n, t)`` in ``blocks`` spanning ``n·t`` rows;
        ``masks`` holds each group's ``(n, t)`` key mask.  Per-row maps
        run once over the buffer, attention per group — per-row output is
        bitwise identical to running each group separately.  Callers cut
        the groups with :func:`width_groups`.
        """
        data = flat.astype(self.inference_dtype, copy=False)
        for layer in self.layers:
            data = layer._infer_block(data, blocks, masks)
        return data

    def forward(
        self,
        x: Tensor,
        attention_mask: Optional[np.ndarray] = None,
        blocks=None,
        masks=None,
    ) -> Tensor:
        """``x`` is ``(b, t, d)`` with ``attention_mask``, or a flat ragged
        buffer with ``blocks``/``masks`` as in :meth:`infer_block`."""
        if not is_grad_enabled() and self._dropout_inactive():
            if blocks is not None:
                return Tensor(self.infer_block(x.data, blocks, masks))
            return Tensor(self.infer(x.data, attention_mask))
        for layer in self.layers:
            x = layer(x, attention_mask=attention_mask, blocks=blocks, masks=masks)
        return x


def width_groups(widths, min_rows: int, max_groups: int) -> list:
    """Width-sorted row groups for :meth:`TransformerEncoder.infer_block`.

    Attention cost is quadratic in the padded width, so one batch padded
    to its widest row spends most of its work on padding.  Rows are
    sorted by true width (``widths``: valid tokens per row) and split
    into at most ``max_groups`` groups of at least ``min_rows`` rows
    (fewer when the batch is smaller).  Returns ``[(rows, t), ...]``:
    the original row indices of each group and the group's own widest
    row, so each group can be trimmed to ``[:, :t]``.
    """
    widths = np.asarray(widths).astype(np.int64)
    order = np.argsort(widths, kind="stable")
    count = max(1, min(max_groups, len(order) // min_rows))
    return [
        (rows, max(int(widths[rows].max()), 1))
        for rows in np.array_split(order, count)
        if rows.size > 0
    ]


class RaggedLayout(NamedTuple):
    """Padded ``(rows, width)`` rows laid out as one flat buffer of width
    groups: the source ``(row, column)`` of every slot, the groups'
    ``blocks``/``masks`` for :meth:`TransformerEncoder.infer_block`, and
    the buffer index of each row's first slot."""

    rows: np.ndarray
    cols: np.ndarray
    blocks: list
    masks: list
    row_base: np.ndarray


def ragged_layout(groups, mask: np.ndarray) -> RaggedLayout:
    """Lay out :func:`width_groups` ``groups`` of the rows of ``mask``
    (``(rows, width)`` validity) as one flat buffer."""
    row_base = np.empty(len(mask), dtype=np.int64)
    blocks, masks = [], []
    offset = 0
    for rows, t in groups:
        blocks.append((offset, rows.size, t))
        masks.append(mask[rows, :t])
        row_base[rows] = offset + t * np.arange(rows.size)
        offset += rows.size * t
    slot_rows = np.concatenate([np.repeat(rows, t) for rows, t in groups])
    slot_cols = np.concatenate([np.tile(np.arange(t), rows.size) for rows, t in groups])
    return RaggedLayout(slot_rows, slot_cols, blocks, masks, row_base)
