"""Dense float64 tensors with reverse-mode differentiation.

Small by design: row-major numpy storage, a handful of differentiable
operations, and mask-aware reductions for padded (B, L, D) batches. Any
operation that produces NaN/Inf from finite inputs raises
:class:`~seqattn.errors.NumericError` instead of propagating the value.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import kernels
from .errors import ContractError, NumericError, ShapeError

_grad_enabled = True
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class RowGrad:
    """A gradient that is zero outside a few rows of a (V, ...) array.

    ``values[k]`` is row ``rows[k]``, with rows unique. Values are sums
    started from +0.0, and a leaf's buffer is only ever cleared and added
    to, so neither holds -0.0: adding the values into the buffer's rows
    gives the bits of adding :meth:`dense` into the whole buffer. Summing
    two gradients of one leaf (a tensor used twice in a graph) goes
    through the dense form.
    """

    __slots__ = ("rows", "values", "shape")
    __array_ufunc__ = None  # ndarray + RowGrad defers to RowGrad.__radd__

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
        self.rows = rows
        self.values = values
        self.shape = shape

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows] = self.values
        return out

    def __add__(self, other):
        return self.dense() + other

    def __radd__(self, other):
        return other + self.dense()


class Tensor:
    """A dense array plus an optional gradient buffer and graph edges.

    An edge is an ``(operand, vjp)`` pair: ``vjp`` maps the gradient of
    this tensor to the gradient of that one operand, as one array or one
    :class:`RowGrad`. A result records an edge only to operands that
    require a gradient, so constants never enter the backward walk. A
    node with no edges is a leaf when it requires a gradient (built with
    ``requires_grad=True``) and a constant otherwise.

    Only leaves carry a ``.grad`` buffer; results of operations keep
    ``grad`` at None, since nothing reads an intermediate gradient.
    A leaf records the rows that row-sparse gradients wrote into its
    buffer (``_rows``; empty for a fresh leaf, whose buffer is all +0.0,
    and None once a dense gradient was added), so that ``zero_grad``
    clears only those rows. Writes into ``.grad`` by hand are not recorded.
    """

    __slots__ = ("data", "requires_grad", "grad", "_rows", "_edges")
    __array_ufunc__ = None  # ndarray <op> Tensor defers to the Tensor's reflected operator

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        # np.zeros takes zeroed memory from calloc, so the pages of a large
        # buffer are only written once a backward pass touches them (a
        # loaded model that only runs forward never does); zeros_like
        # writes every byte up front
        self.grad = np.zeros(self.data.shape) if self.requires_grad else None
        self._rows: list[np.ndarray] | None = []
        self._edges: tuple[tuple[Tensor, object], ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        if self.grad is None:
            return
        if self._rows is None:
            self.grad[...] = 0.0
        else:
            for rows in self._rows:
                self.grad[rows] = 0.0
        self._rows = []

    def _accumulate(self, g) -> None:
        if isinstance(g, RowGrad):
            self.grad[g.rows] += g.values
            if self._rows is not None:
                self._rows.append(g.rows)
        else:
            self.grad += g
            self._rows = None

    # -- graph construction -------------------------------------------------

    @classmethod
    def _result(cls, data: np.ndarray, op: str, *edges) -> "Tensor":
        """The result of operation ``op``, given one ``(operand, vjp)`` edge
        per operand, in operand order. Only the edges whose operand
        requires a gradient are kept (none under :func:`no_grad`), and the
        result requires a gradient when any remain."""
        if not np.isfinite(data).all():
            raise NumericError(f"non-finite values produced by '{op}'")
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._edges = tuple([e for e in edges if e[0].requires_grad]) if _grad_enabled else ()
        out.requires_grad = bool(out._edges)
        return out

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        return Tensor._result(
            a + b,
            "add",
            (self, lambda g: _unbroadcast(g, a.shape)),
            (other, lambda g: _unbroadcast(g, b.shape)),
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._result(-self.data, "neg", (self, lambda g: -g))

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._coerce(other))

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        return Tensor._result(
            a * b,
            "mul",
            (self, lambda g: _unbroadcast(g * b, a.shape)),
            (other, lambda g: _unbroadcast(g * a, b.shape)),
        )

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        """Standard 2-D matrix product with gradients for both operands."""
        return self._product(Tensor._coerce(other), "matmul", np.matmul)

    def __rmatmul__(self, other) -> "Tensor":
        return Tensor._coerce(other) @ self

    def _product(self, other: "Tensor", op: str, product) -> "Tensor":
        """The 2-D matrix product ``product(a, b)`` of this tensor and
        ``other``, recorded as ``op``, with gradients for both operands."""
        if self.data.ndim != 2 or other.data.ndim != 2 or self.shape[1] != other.shape[0]:
            raise ShapeError(f"matmul dimension mismatch: {self.shape} x {other.shape}")
        ad, bd = self.data, other.data
        return Tensor._result(product(ad, bd), op, (self, lambda g: g @ bd.T), (other, lambda g: ad.T @ g))

    def reshape(self, *shape: int) -> "Tensor":
        src = self.data.shape
        return Tensor._result(
            self.data.reshape(*shape), "reshape", (self, lambda g: g.reshape(src))
        )

    def sum(self) -> "Tensor":
        src = self.data.shape
        return Tensor._result(
            np.asarray(self.data.sum()), "sum", (self, lambda g: np.broadcast_to(g, src).copy())
        )

    # -- activations -----------------------------------------------------------

    def relu(self) -> "Tensor":
        x = self.data
        return Tensor._result(np.maximum(x, 0.0), "relu", (self, lambda g: g * (x > 0.0)))

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic, clamped strictly inside (0, 1)."""
        z = self.data
        out = np.empty_like(z)
        pos = z >= 0.0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        np.clip(out, _SIG_LO, _SIG_HI, out=out)
        return Tensor._result(out, "sigmoid", (self, lambda g: g * out * (1.0 - out)))

    def backward(self) -> None:
        backward(self)


def matmul_ordered(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product accumulated over the inner dimension in index order.

    Appending an all-zero input coordinate plus an all-zero weight row is
    then an exact no-op bit for bit, which BLAS tiling does not guarantee.
    The token-axis network uses this so that growing the padded length
    leaves its outputs at existing positions bit-identical.

    The bits are those of a loop over k, in index order, adding
    ``a[:, k] * b[k]`` to +0.0. Plain ``np.einsum`` (no ``optimize``, so no
    BLAS) gives them, except where it takes another reduction path: for an
    F-order ``b``, made C-order here, and for N = 1, given a zero partner
    column. tests/test_tensor.py checks it against that loop.
    """
    return a._product(b, "matmul_ordered", _ordered_product)


def _ordered_product(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    if bd.shape[1] == 1:
        return np.ascontiguousarray(_ordered_product(ad, np.hstack([bd, np.zeros_like(bd)]))[:, :1])
    return np.einsum("mk,kn->mn", ad, np.ascontiguousarray(bd))


class Mask:
    """Per-position validity flags for a padded (B, L) batch.

    Flags are exactly 0.0 or 1.0 and every row has at least one valid
    position: both are checked once, on a copy that is then read-only.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"mask must be 2-D (B, L), got shape {arr.shape}")
        if not ((arr == 0.0) | (arr == 1.0)).all():
            raise ContractError("mask flags must be exactly 0 or 1")
        if (arr.sum(axis=1) == 0.0).any():
            raise ContractError("every mask row needs at least one valid position")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def from_lengths(cls, lengths, max_len: int) -> "Mask":
        lengths = np.asarray(lengths, dtype=np.int64)
        arr = (np.arange(max_len)[None, :] < lengths[:, None]).astype(np.float64)
        return cls(arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def extended(self, extra: int) -> "Mask":
        """The same mask with `extra` all-padding positions appended."""
        pad = np.zeros((self.data.shape[0], extra))
        return Mask(np.concatenate([self.data, pad], axis=1))


def _check_mask(x: Tensor, mask: Mask, ndim: int) -> None:
    if x.data.ndim != ndim:
        raise ShapeError(f"expected a {ndim}-D tensor, got shape {x.shape}")
    if x.shape[:2] != mask.shape:
        raise ShapeError(f"tensor {x.shape} does not align with mask {mask.shape}")


def masked_softmax(x: Tensor, mask: Mask) -> Tensor:
    """Row softmax over valid positions; masked positions are exactly 0."""
    _check_mask(x, mask, 2)
    md = mask.data
    s = kernels.masked_softmax_fwd(x.data, md)
    return Tensor._result(s, "masked_softmax", (x, lambda g: kernels.masked_softmax_bwd(g, s)))


def pool_fwd(kind: str, axis: str, x: np.ndarray, md: np.ndarray):
    """``kind`` ("max" or "avg") pooling of a (B, L, D) array over ``axis``
    by its kernel: over valid tokens ("token", to (B, D)) or over features
    ("feature", to (B, L), zeroed at padding). A max also returns its
    argmax. Kernels are looked up at call time, so a wrapped one sees
    every call."""
    if axis not in ("token", "feature"):
        raise ShapeError(f"pooling axis must be 'token' or 'feature', got {axis!r}")
    return getattr(kernels, f"{axis}_{kind}pool_fwd")(x, md)


def pool_bwd(kind: str, axis: str, g: np.ndarray, md: np.ndarray, arg, shape) -> np.ndarray:
    """The dense gradient of the input of :func:`pool_fwd`, of ``shape``,
    given the view's gradient ``g`` and, for a max, the argmax."""
    return getattr(kernels, f"{axis}_{kind}pool_bwd")(g, md, arg, shape)


def masked_maxpool(x: Tensor, mask: Mask, axis: str) -> Tensor:
    """Max over valid tokens (axis="token", (B,L,D) -> (B,D)) or over
    features (axis="feature", (B,L,D) -> (B,L), zeroed at padding)."""
    _check_mask(x, mask, 3)
    md = mask.data
    out, arg = pool_fwd("max", axis, x.data, md)
    return Tensor._result(out, "masked_maxpool", (x, lambda g: pool_bwd("max", axis, g, md, arg, x.shape)))


def masked_avgpool(x: Tensor, mask: Mask, axis: str) -> Tensor:
    """Mean over valid tokens (dividing by the valid count, not L) or over
    features (zeroed at padding)."""
    _check_mask(x, mask, 3)
    md = mask.data
    out = pool_fwd("avg", axis, x.data, md)
    return Tensor._result(out, "masked_avgpool", (x, lambda g: pool_bwd("avg", axis, g, md, None, x.shape)))


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for operand, _ in node._edges:
            if id(operand) not in visited:
                stack.append((operand, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into the grad buffer of every leaf that
    the loss depends on; intermediate tensors keep ``grad`` at None. A
    row-sparse gradient (:class:`RowGrad`) is added into the rows it
    covers and leaves every other row of the buffer untouched.

    The walk follows edges only, so it reaches just the tensors that
    require a gradient, and each edge's vjp forms one gradient that is
    needed; a node's vjps run once each, in edge order. Reverse
    topological order runs every consumer of a node before the node, so
    its adjoint is complete when it is reached; a node without edges is a
    leaf and adds its adjoint into its buffer.

    Repeated calls without zeroing accumulate; the walk itself is
    deterministic, so two runs after a reset equal one run exactly.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = adjoint.pop(id(node))
        if not node._edges:
            node._accumulate(g)
            continue
        for operand, vjp in node._edges:
            pg = vjp(g)
            key = id(operand)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg
