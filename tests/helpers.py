"""Shared test utilities: numerical gradient checking and parity oracles."""

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


def padded_ner_word_states(encoder, features) -> Tensor:
    """``NerEncoder`` over the batch padded to its widest row (the pass
    before the ragged layout), gathered at each word's first piece."""
    ids = features.piece_ids
    embedded = encoder.embedding(ids, np.zeros_like(ids))
    if features.piece_shape is not None:
        embedded = embedded + encoder.shape_project(Tensor(features.piece_shape))
    states = encoder.encoder(embedded, attention_mask=features.piece_mask)
    rows = np.arange(features.batch_size)[:, None]
    return states[rows, features.first_piece]


def reference_lstm(lstm, x: Tensor, mask=None) -> Tensor:
    """One LSTM direction as a compositional recurrence of ``lstm.cell``
    steps (one node per primitive).  Masked steps carry zero state."""
    from repro.nn import stack

    batch, seq, _ = x.shape
    h = Tensor(np.zeros((batch, lstm.hidden_dim)))
    c = Tensor(np.zeros((batch, lstm.hidden_dim)))
    steps = range(seq - 1, -1, -1) if lstm.reverse else range(seq)
    outputs = [None] * seq
    for t in steps:
        h, c = lstm.cell(x[:, t, :], (h, c))
        if mask is not None:
            valid = Tensor(np.asarray(mask, dtype=np.float64)[:, t : t + 1])
            h, c = h * valid, c * valid
        outputs[t] = h
    return stack(outputs, axis=1)


def reference_bilstm(layer, x: Tensor, mask=None) -> Tensor:
    """``BiLstm`` as two compositional recurrences side by side."""
    from repro.nn import concat

    return concat(
        [reference_lstm(layer.forward_lstm, x, mask),
         reference_lstm(layer.backward_lstm, x, mask)],
        axis=-1,
    )



# ----------------------------------------------------------------------
# Serving oracles: the kernels the serving path replaced, kept op for op
# so tests can require bitwise equality.
# ----------------------------------------------------------------------
def per_direction_lstm(lstm, x: np.ndarray, mask=None) -> np.ndarray:
    """One LSTM direction in its own time loop on raw arrays: the serving
    recurrence before the directions were stacked, op for op."""
    batch, seq, input_dim = x.shape
    hd = lstm.hidden_dim
    weight = lstm.cell.weight.data.astype(x.dtype, copy=False)
    bias = lstm.cell.bias.data.astype(x.dtype, copy=False)
    w_h = weight[input_dim:]
    valid = None if mask is None else np.asarray(mask, dtype=x.dtype)
    xw = x.reshape(batch * seq, input_dim) @ weight[:input_dim]
    xw = xw.reshape(batch, seq, 4 * hd) + bias
    h = np.zeros((batch, hd), dtype=x.dtype)
    c = np.zeros((batch, hd), dtype=x.dtype)
    outputs = np.zeros((batch, seq, hd), dtype=x.dtype)
    limit = seq if valid is None else int(valid.sum(axis=1).max())
    for t in range(limit - 1, -1, -1) if lstm.reverse else range(limit):
        gates = xw[:, t] + h @ w_h
        i = 1.0 / (1.0 + np.exp(-gates[:, :hd]))
        f = 1.0 / (1.0 + np.exp(-gates[:, hd : 2 * hd]))
        g = np.tanh(gates[:, 2 * hd : 3 * hd])
        o = 1.0 / (1.0 + np.exp(-gates[:, 3 * hd :]))
        c = f * c + i * g
        h = o * np.tanh(c)
        if valid is not None:
            h = h * valid[:, t][:, None]
            c = c * valid[:, t][:, None]
        outputs[:, t, :] = h
    return outputs


def per_direction_bilstm(layer, x: np.ndarray, mask=None) -> np.ndarray:
    """``BiLstm.infer`` from two separate :func:`per_direction_lstm` loops."""
    return np.concatenate(
        [per_direction_lstm(layer.forward_lstm, x, mask),
         per_direction_lstm(layer.backward_lstm, x, mask)],
        axis=-1,
    )


def masked_viterbi(crf, emissions, mask=None):
    """Viterbi decoding with per-step validity masks and a batched
    backtrace: the decode that ``LinearChainCrf.decode`` replaced."""
    scores = emissions.data if isinstance(emissions, Tensor) else emissions
    batch, seq, num_tags = scores.shape
    mask = crf._prepare_mask(mask, (batch, seq))
    lengths = mask.sum(axis=1).astype(np.int64)
    transitions = crf.transitions.data
    batch_idx = np.arange(batch)
    pointers = np.zeros((batch, seq, num_tags), dtype=np.int64)
    viterbi = crf.start_scores.data + scores[:, 0]
    for t in range(1, seq):
        candidate = viterbi[:, :, None] + transitions[None]
        pointers[:, t] = candidate.argmax(axis=1)
        advanced = candidate.max(axis=1) + scores[:, t]
        viterbi = np.where((t < lengths)[:, None], advanced, viterbi)
    best = (viterbi + crf.end_scores.data).argmax(axis=1)
    tags = np.zeros((batch, seq), dtype=np.int64)
    tags[batch_idx, lengths - 1] = best
    for t in range(seq - 1, 0, -1):
        inside = t <= lengths - 1
        best = np.where(inside, pointers[batch_idx, t, best], best)
        tags[:, t - 1] = np.where(inside, best, tags[:, t - 1])
    return [row[:length].tolist() for row, length in zip(tags, lengths)]
