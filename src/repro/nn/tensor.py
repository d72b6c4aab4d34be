"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` substrate: a minimal but
complete autograd engine in the style of PyTorch, vectorised over numpy.
Every differentiable operation builds a node in a dynamic computation graph;
calling :meth:`Tensor.backward` on a scalar loss walks the graph in reverse
topological order and accumulates gradients into ``Tensor.grad``.

The engine supports full numpy broadcasting.  Gradients flowing into a
broadcast operand are reduced back to the operand's shape by
:func:`_unbroadcast`.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

# Inference-mode state is per-context rather than a module global: threads
# (and asyncio tasks) serving batched inference each get their own flag, so
# one request running under ``no_grad()`` cannot disable gradient recording
# for a training step on another thread.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True
)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED.get()


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A numpy array with an optional gradient and autograd history."""

    # __weakref__ lets diagnostics (repro.analysis.graph_audit) observe
    # graph-node lifetimes without keeping them alive.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        # Severing requires_grad propagation is the entire point here.
        return Tensor(self.data)  # repro-lint: disable=RN006

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a child node, recording history only when grads are on."""
        needs = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            if np.shape(grad) == self.data.shape:
                # The first share is copied, never adopted: a closure may
                # hand the same array to several parents, and callers may
                # keep mutating what they passed.
                self.grad = np.array(grad, dtype=np.float64)
                return
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to 1 and is only optional for scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order over the reachable graph.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        # Seed and propagate.  Interior nodes accumulate their gradient in
        # ``.grad`` (they were created with ``requires_grad=True`` whenever a
        # parent requires grad), so each ``_backward`` closure simply reads
        # the node's accumulated gradient and pushes shares to its parents.
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                # 1-D dot product: grad is a scalar and both operand
                # shapes are exact, so no broadcast reduction can apply.
                self._accumulate(grad * b)  # repro-lint: disable=RN002
                other._accumulate(grad * a)  # repro-lint: disable=RN002
                return
            if a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = (grad[..., None, :] * b).sum(axis=-1)
                self._accumulate(_unbroadcast(ga, a.shape))
                gb = a[:, None] * grad[..., None, :]
                other._accumulate(_unbroadcast(gb, b.shape))
                return
            if b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = grad[..., :, None] * b
                self._accumulate(_unbroadcast(ga, a.shape))
                gb = (grad[..., :, None] * a).sum(axis=tuple(range(grad.ndim)))
                other._accumulate(_unbroadcast(gb, b.shape))
                return
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    out = np.expand_dims(out, a)
            mask = self.data == out
            # Split gradient between ties, matching subgradient convention.
            counts = mask.sum(
                axis=axis if axis is not None else None, keepdims=True
            )
            self._accumulate(np.where(mask, g / counts, 0.0))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, a, b))

        return self._make(np.swapaxes(self.data, a, b), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        index = _normalize_index(index)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
                self._accumulate(_scatter_rows(index, grad, self.data.shape))
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # Comparison helpers (no gradient)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike):
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike):
        return self.data < as_tensor(other).data

    def __ge__(self, other: ArrayLike):
        return self.data >= as_tensor(other).data

    def __le__(self, other: ArrayLike):
        return self.data <= as_tensor(other).data


def _scatter_rows(
    index: np.ndarray, grad: np.ndarray, shape: Tuple[int, ...]
) -> np.ndarray:
    """Backward of the row gather ``table[index]``: sum ``grad`` into rows.

    One ``np.bincount`` over the flattened ``(row, column)`` cells.  It
    adds each cell's contributions in input order, as ``np.add.at``
    does, so the result is bit-identical to that unbuffered scatter.
    """
    rows = index.ravel().astype(np.int64)
    rows = np.where(rows < 0, rows + shape[0], rows)
    width = int(np.prod(shape[1:], dtype=np.int64))
    cells = (rows[:, None] * width + np.arange(width)).ravel()
    summed = np.bincount(cells, weights=grad.reshape(-1), minlength=shape[0] * width)
    return summed.reshape(shape)


def _normalize_index(index):
    """Convert Tensor indices to arrays so numpy fancy indexing applies."""
    if isinstance(index, Tensor):
        return index.data.astype(np.int64)
    if isinstance(index, tuple):
        return tuple(
            i.data.astype(np.int64) if isinstance(i, Tensor) else i for i in index
        )
    return index


# ----------------------------------------------------------------------
# Free-function constructors and graph ops used throughout the library.
# ----------------------------------------------------------------------
def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    out = tensors[0]._make(data, tensors, backward)
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            tensor._accumulate(np.squeeze(part, axis=axis))

    return tensors[0]._make(data, tensors, backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable ``np.where`` (condition carries no gradient)."""
    a = as_tensor(a)
    b = as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(np.where(condition, grad, 0.0), a.data.shape))
        b._accumulate(_unbroadcast(np.where(condition, 0.0, grad), b.data.shape))

    return a._make(data, (a, b), backward)
