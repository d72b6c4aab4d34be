"""``repro.nn`` — a self-contained numpy neural-network substrate.

The environment for this reproduction has no deep-learning framework, so the
entire stack — reverse-mode autograd, Transformer encoders, LSTMs, CRFs and
optimisers — is implemented here from scratch and gradient-checked in the
test suite.
"""

from . import functional, init, quantize
from .attention import (
    MultiHeadSelfAttention,
    TransformerEncoder,
    TransformerEncoderLayer,
    fused_self_attention,
)
from .crf import FuzzyCrf, LinearChainCrf
from .layers import Dropout, Embedding, LayerNorm, Linear, Mlp
from .module import Module, ModuleList, Parameter, Sequential
from .optim import Adam, AdamW, LinearWarmupSchedule, ParamGroup, Sgd, clip_grad_norm
from .quantize import QuantizedLinear, dequantize, quantize_model
from .recurrent import BiLstm, Lstm, LstmCell
from .serialization import load_module, load_state, save_module, save_state
from .tensor import Tensor, as_tensor, concat, is_grad_enabled, no_grad, stack, where

__all__ = [
    "functional",
    "init",
    "quantize",
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Mlp",
    "MultiHeadSelfAttention",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "fused_self_attention",
    "Lstm",
    "LstmCell",
    "BiLstm",
    "QuantizedLinear",
    "quantize_model",
    "dequantize",
    "LinearChainCrf",
    "FuzzyCrf",
    "Sgd",
    "Adam",
    "AdamW",
    "ParamGroup",
    "LinearWarmupSchedule",
    "clip_grad_norm",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
]
