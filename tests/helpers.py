"""Shared test utilities: numerical gradient checking."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import Tensor


def numeric_grad(
    fn: Callable[[Tensor], Tensor], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = float(fn(Tensor(x)).data)
        flat[i] = original - eps
        low = float(fn(Tensor(x)).data)
        flat[i] = original
        grad_flat[i] = (high - low) / (2.0 * eps)
    return grad


def check_grad(
    fn: Callable[[Tensor], Tensor],
    x: np.ndarray,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Assert autograd gradient of scalar ``fn`` matches finite differences."""
    tensor = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    out = fn(tensor)
    out.backward()
    expected = numeric_grad(fn, np.asarray(x, dtype=np.float64))
    np.testing.assert_allclose(tensor.grad, expected, atol=atol, rtol=rtol)


# ----------------------------------------------------------------------
# Compositional parity oracles: the same math as the library's one-node
# ops, built from primitive autograd nodes.
# ----------------------------------------------------------------------
def reference_attention(attn, x: Tensor, attention_mask=None, dropout=None) -> Tensor:
    """Multi-head self-attention on ``(b, t, d)``, one node per primitive.

    ``dropout`` (default: ``attn.dropout``) drops attention weights after
    the softmax, as :func:`repro.nn.fused_self_attention` does.
    """
    from repro.nn.functional import masked_fill, softmax

    batch, seq, dim = x.shape

    def heads(t: Tensor) -> Tensor:
        return t.reshape(batch, seq, attn.num_heads, attn.head_dim).transpose(
            0, 2, 1, 3
        )

    q, k, v = heads(attn.query(x)), heads(attn.key(x)), heads(attn.value(x))
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(attn.head_dim)
    if attention_mask is not None:
        mask = np.asarray(attention_mask, dtype=bool)
        if not mask.all():
            invalid = np.broadcast_to(~mask[:, None, None, :], scores.shape)
            scores = masked_fill(scores, invalid)
    weights = softmax(scores, axis=-1)
    weights = (attn.dropout if dropout is None else dropout)(weights)
    context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, seq, dim)
    return attn.out(context)


def primitive_text_embedding(emb, token_ids, segments, positions=None) -> Tensor:
    """``TextEmbedding.forward`` from primitive gathers and additions."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if positions is None:
        positions = np.broadcast_to(np.arange(token_ids.shape[-1]), token_ids.shape)
    summed = (
        emb.word(token_ids)
        + emb.position(positions)
        + emb.segment(np.asarray(segments, dtype=np.int64))
    )
    return emb.norm(summed)


def primitive_layout_embedding(emb, layout) -> Tensor:
    """``LayoutEmbedding.forward`` from primitive gathers and additions."""
    from repro.nn import concat

    layout = np.asarray(layout, dtype=np.int64)
    x_part = (
        emb.x_table(layout[..., 0])
        + emb.x_table(layout[..., 2])
        + emb.x_table(layout[..., 4])
    )
    y_part = (
        emb.y_table(layout[..., 1])
        + emb.y_table(layout[..., 3])
        + emb.y_table(layout[..., 5])
    )
    page_part = emb.page_table(layout[..., 6])
    return emb.project(concat([page_part, x_part, y_part], axis=-1))


def per_bucket_sentence_pass(encoder, batch):
    """The sentence encoder run once per width group (the pre-ragged path).

    Returns ``(states, vectors)``: the token states in the flat buffer
    order of ``encoder.sentence_layout`` and the sentence vectors in row
    order.
    """
    from repro.nn import concat

    layout = encoder.sentence_layout(batch.token_mask)
    states, vectors, order = [], [], []
    for offset, n, t in layout.blocks:
        rows = layout.rows[offset : offset + n * t : t]
        s, v = encoder.sentence_encoder(
            batch.token_ids[rows, :t],
            batch.token_mask[rows, :t],
            batch.token_layout[rows, :t],
            batch.token_segments[rows, :t],
        )
        states.append(s.reshape(n * t, s.shape[-1]))
        vectors.append(v)
        order.append(rows)
    inverse = np.argsort(np.concatenate(order), kind="stable")
    return concat(states, axis=0), concat(vectors, axis=0)[inverse]
