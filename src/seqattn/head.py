"""Classification head: sequence pooling, linear projection, cross-entropy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .tensor import Mask, Tensor, masked_avgpool, masked_maxpool

POOLING_STRATEGIES = ("mean", "max", "first")
DEFAULT_POOLING = "mean"


@dataclass
class HeadParams:
    w: Tensor  # (D, K)
    b: Tensor  # (K,)
    pooling: str = DEFAULT_POOLING

    def __post_init__(self):
        if self.pooling not in POOLING_STRATEGIES:
            raise ConfigError(f"pooling must be one of {POOLING_STRATEGIES}, got {self.pooling!r}")
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")

    @property
    def num_classes(self) -> int:
        return self.w.shape[1]

    def tensors(self, prefix: str = "head") -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


def init_head(d_model: int, num_classes: int, rng: np.random.Generator, pooling: str = DEFAULT_POOLING) -> HeadParams:
    bound = np.sqrt(6.0 / (d_model + num_classes))
    return HeadParams(
        w=Tensor(rng.uniform(-bound, bound, size=(d_model, num_classes)), requires_grad=True),
        b=Tensor(np.zeros(num_classes), requires_grad=True),
        pooling=pooling,
    )


def _take_first(x: Tensor) -> Tensor:
    shape = x.shape

    def vjp(g):
        gx = np.zeros(shape)
        gx[:, 0, :] = g
        return gx

    return Tensor._result(x.data[:, 0, :].copy(), "take_first", (x, vjp))


def pool_sequence(x: Tensor, mask: Mask, strategy: str) -> Tensor:
    """Reduce a (B, L, D) sequence to (B, D) per the chosen strategy.

    "mean" and "max" respect the mask; "first" takes position 0 and
    requires it to be valid in every row.
    """
    if strategy == "mean":
        return masked_avgpool(x, mask, "token")
    if strategy == "max":
        return masked_maxpool(x, mask, "token")
    if strategy == "first":
        if np.any(mask.data[:, 0] == 0.0):
            raise ContractError("'first' pooling requires a valid token at position 0")
        return _take_first(x)
    raise ConfigError(f"pooling must be one of {POOLING_STRATEGIES}, got {strategy!r}")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true labels under a softmax.

    Stabilized with max-subtraction; the gradient is the textbook
    (softmax - one_hot) / B.
    """
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise DataError(f"logits {z.shape} do not align with labels {labels.shape}")
    num_classes = z.shape[1]
    if np.any((labels < 0) | (labels >= num_classes)):
        bad = int(np.flatnonzero((labels < 0) | (labels >= num_classes))[0])
        raise DataError(f"label {labels[bad]} at row {bad} outside [0, {num_classes})")

    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    losses = log_norm - shifted[np.arange(z.shape[0]), labels]
    batch = z.shape[0]
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)

    def vjp(g):
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        return grad * (g / batch)

    return Tensor._result(np.asarray(losses.mean()), "cross_entropy", (logits, vjp))
