"""Tests for multi-head attention and Transformer encoders."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    MultiHeadSelfAttention,
    Tensor,
    TransformerEncoder,
    TransformerEncoderLayer,
)

from ..helpers import reference_attention

RNG = np.random.default_rng(5)


def make_attention(dim=16, heads=4):
    return MultiHeadSelfAttention(dim, heads, dropout=0.0, rng=np.random.default_rng(1))


class TestMultiHeadSelfAttention:
    def test_output_shape(self):
        attn = make_attention()
        out = attn(Tensor(RNG.normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_masked_keys_are_ignored(self):
        attn = make_attention()
        attn.eval()
        x = RNG.normal(size=(1, 4, 16))
        mask = np.array([[1, 1, 1, 0]])
        base = attn(Tensor(x), attention_mask=mask).numpy()
        # Perturbing the masked position must not change valid outputs.
        perturbed = x.copy()
        perturbed[0, 3] += 100.0
        out = attn(Tensor(perturbed), attention_mask=mask).numpy()
        np.testing.assert_allclose(base[:, :3], out[:, :3], atol=1e-8)

    def test_gradients_flow_to_all_projections(self):
        attn = make_attention()
        out = attn(Tensor(RNG.normal(size=(1, 3, 16)), requires_grad=True))
        out.sum().backward()
        for name, param in attn.named_parameters():
            assert param.grad is not None, name

    def test_permutation_equivariance_without_mask(self):
        # Self-attention without positional info is permutation-equivariant.
        attn = make_attention()
        attn.eval()
        x = RNG.normal(size=(1, 5, 16))
        out = attn(Tensor(x)).numpy()
        perm = np.array([4, 2, 0, 1, 3])
        out_perm = attn(Tensor(x[:, perm])).numpy()
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-8)


class TestFusedAttentionAgainstReference:
    """The fused attention op must match the compositional reference."""

    MASKS = {
        "none": None,
        "ragged": np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0]]),
    }

    @pytest.mark.parametrize("mask_kind", ["none", "ragged"])
    def test_outputs_and_gradients_match(self, mask_kind):
        attn = make_attention()
        attn.eval()
        mask = self.MASKS[mask_kind]
        base = RNG.normal(size=(2, 5, 16))
        weights = RNG.normal(size=(2, 5, 16))

        def run(fn):
            attn.zero_grad()
            x = Tensor(base.copy(), requires_grad=True)
            out = fn(x)
            (out * Tensor(weights)).sum().backward()
            grads = {name: p.grad.copy() for name, p in attn.named_parameters()}
            return out.numpy().copy(), x.grad.copy(), grads

        # eval + dropout=0 routes forward() through fused_self_attention.
        fused = run(lambda x: attn(x, attention_mask=mask))
        ref = run(lambda x: reference_attention(attn, x, attention_mask=mask))
        np.testing.assert_allclose(fused[0], ref[0], atol=1e-9)
        np.testing.assert_allclose(fused[1], ref[1], atol=1e-9)
        for name in ref[2]:
            np.testing.assert_allclose(
                fused[2][name], ref[2][name], atol=1e-9, err_msg=name
            )


class TestRaggedTrainingNode:
    """One fused node over a flat buffer of width groups, dropout included."""

    GROUPS = [(2, 3), (3, 5)]  # (n sequences, t timesteps) per group

    def _ragged_inputs(self):
        chunks, blocks, masks, offset = [], [], [], 0
        for n, t in self.GROUPS:
            mask = np.ones((n, t), dtype=np.int64)
            mask[-1, t - 1] = 0  # a padded key in every group
            chunks.append(RNG.normal(size=(n, t, 16)))
            blocks.append((offset, n, t))
            masks.append(mask)
            offset += n * t
        return chunks, blocks, masks

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_matches_per_group_oracle_with_same_dropout_masks(self, p):
        attn = MultiHeadSelfAttention(16, 4, dropout=p, rng=np.random.default_rng(1))
        attn.train()
        chunks, blocks, masks = self._ragged_inputs()
        weights = RNG.normal(size=(sum(n * t for n, t in self.GROUPS), 16))

        attn.dropout._rng = np.random.default_rng(11)
        attn.zero_grad()
        flat = Tensor(np.concatenate([c.reshape(-1, 16) for c in chunks]),
                      requires_grad=True)
        out = attn(flat, blocks=blocks, masks=masks)
        (out * Tensor(weights)).sum().backward()
        got = {name: q.grad.copy() for name, q in attn.named_parameters()}

        # The oracle drops weights with a twin generator, group by group.
        oracle_dropout = Dropout(p, rng=np.random.default_rng(11))
        attn.zero_grad()
        inputs, outputs = [], []
        for chunk, mask in zip(chunks, masks):
            x = Tensor(chunk, requires_grad=True)
            inputs.append(x)
            outputs.append(reference_attention(
                attn, x, attention_mask=mask, dropout=oracle_dropout
            ))
        total = None
        for (offset, n, t), o in zip(blocks, outputs):
            term = (o * Tensor(weights[offset : offset + n * t].reshape(n, t, 16))).sum()
            total = term if total is None else total + term
        total.backward()

        expected_out = np.concatenate([o.data.reshape(-1, 16) for o in outputs])
        np.testing.assert_allclose(out.data, expected_out, atol=1e-10)
        expected_gx = np.concatenate([x.grad.reshape(-1, 16) for x in inputs])
        np.testing.assert_allclose(flat.grad, expected_gx, atol=1e-10)
        for name, q in attn.named_parameters():
            np.testing.assert_allclose(got[name], q.grad, atol=1e-10, err_msg=name)


class TestInferenceKernels:
    """Raw-ndarray inference kernels vs the compositional graph path."""

    def test_forward_inference_bitwise_at_float64(self):
        # The serving kernel on a single group is the whole-batch forward.
        attn = make_attention()
        attn.eval()
        x = RNG.normal(size=(2, 6, 16))
        mask = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0]])
        expected = reference_attention(attn, Tensor(x), attention_mask=mask).numpy()
        got = attn._infer_block(x.reshape(12, 16), [(0, 2, 6)], [mask])
        np.testing.assert_array_equal(got.reshape(2, 6, 16), expected)

    def test_infer_block_matches_per_group_inference(self):
        attn = make_attention()
        attn.eval()
        groups = [(2, 4), (3, 6)]  # (n sequences, t timesteps) per group
        masks, chunks, blocks, offset = [], [], [], 0
        for n, t in groups:
            mask = np.ones((n, t), dtype=np.int64)
            mask[:, t - 1] = 0  # ragged tails
            masks.append(mask)
            chunks.append(RNG.normal(size=(n, t, 16)))
            blocks.append((offset, n, t))
            offset += n * t
        flat = np.concatenate([c.reshape(-1, 16) for c in chunks])
        out = attn._infer_block(flat, blocks, masks)
        for (start, n, t), chunk, mask in zip(blocks, chunks, masks):
            expected = attn._infer_block(
                chunk.reshape(n * t, 16), [(0, n, t)], [mask]
            )
            np.testing.assert_array_equal(out[start : start + n * t], expected)

    def test_encoder_infer_matches_compositional_stack(self):
        # LayerNorm.infer computes its variance as a fused einsum, which
        # lands within a ulp of the compositional Tensor-op reduction the
        # graph path uses under grad — so the whole-stack comparison is
        # tight allclose, not bitwise (the attention core alone *is*
        # bitwise; see test_forward_inference_bitwise_at_float64).
        enc = TransformerEncoder(2, 16, 4, dropout=0.0, rng=np.random.default_rng(6))
        enc.eval()
        x = RNG.normal(size=(2, 5, 16))
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
        expected = enc(Tensor(x), attention_mask=mask).numpy()  # grad enabled
        np.testing.assert_allclose(
            enc.infer(x, attention_mask=mask), expected, rtol=0, atol=1e-13
        )

    def test_encoder_routes_to_infer_under_no_grad(self):
        from repro.nn import no_grad

        enc = TransformerEncoder(1, 16, 4, dropout=0.0, rng=np.random.default_rng(7))
        enc.eval()
        x = RNG.normal(size=(1, 4, 16))
        with no_grad():
            routed = enc(Tensor(x)).numpy()
        np.testing.assert_array_equal(routed, enc.infer(x))

    def test_float32_pipeline_stays_float32_and_close(self):
        enc = TransformerEncoder(2, 16, 4, dropout=0.0, rng=np.random.default_rng(8))
        enc.eval()
        x = RNG.normal(size=(2, 5, 16))
        reference = enc.infer(x)
        enc.inference_dtype = np.float32
        narrow = enc.infer(x)
        assert narrow.dtype == np.float32
        np.testing.assert_allclose(narrow, reference, atol=1e-4)


class TestTransformerEncoder:
    def test_layer_shape(self):
        layer = TransformerEncoderLayer(16, 4, dropout=0.0, rng=np.random.default_rng(2))
        out = layer(Tensor(RNG.normal(size=(2, 6, 16))))
        assert out.shape == (2, 6, 16)

    def test_stack_depth(self):
        enc = TransformerEncoder(3, 16, 4, dropout=0.0, rng=np.random.default_rng(3))
        assert len(enc.layers) == 3
        out = enc(Tensor(RNG.normal(size=(1, 4, 16))))
        assert out.shape == (1, 4, 16)

    def test_mask_respected_through_stack(self):
        enc = TransformerEncoder(2, 16, 4, dropout=0.0, rng=np.random.default_rng(4))
        enc.eval()
        x = RNG.normal(size=(1, 5, 16))
        mask = np.array([[1, 1, 1, 1, 0]])
        base = enc(Tensor(x), attention_mask=mask).numpy()
        perturbed = x.copy()
        perturbed[0, 4] += 50.0
        out = enc(Tensor(perturbed), attention_mask=mask).numpy()
        np.testing.assert_allclose(base[:, :4], out[:, :4], atol=1e-7)

    def test_training_reduces_loss(self):
        # A tiny regression sanity check: the encoder can fit random targets.
        from repro.nn import Adam, ParamGroup
        from repro.nn import functional as F

        enc = TransformerEncoder(1, 8, 2, dropout=0.0, rng=np.random.default_rng(5))
        x = Tensor(RNG.normal(size=(4, 3, 8)))
        target = RNG.normal(size=(4, 3, 8))
        opt = Adam([ParamGroup(enc.parameters(), 1e-2)])
        first = None
        for _ in range(30):
            opt.zero_grad()
            loss = F.mse_loss(enc(x), target)
            loss.backward()
            opt.step()
            first = first if first is not None else float(loss.data)
        assert float(loss.data) < first * 0.7
