"""The sequential attention stage: a feature-wise gate with an adaptive
filter, a token-wise softmax weighting, and their composition.

Both sub-modules share one recipe: pool the batch two ways (max and
average), push both pooled views through a shared two-layer bottleneck
network, add, and normalize. The feature-wise module (FAM) pools over
tokens and squashes with a sigmoid to gate each of the D embedding
dimensions; the gate is then shifted down by a threshold ``delta`` and
clamped at zero before multiplying the input. The
token-wise module (TAM) pools over features and normalizes with a masked
softmax to weight each of the L positions. The composition order is
configurable and either module can be disabled, which makes ablation runs
plain configuration changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Mask, Tensor, masked_avgpool, masked_maxpool, masked_softmax, matmul_ordered


class Order(str, Enum):
    FAM_THEN_TAM = "fam-tam"
    TAM_THEN_FAM = "tam-fam"


@dataclass
class FfnParams:
    """Two linear maps with a ReLU between them; output width equals input
    width so the surrounding module re-weights without reshaping."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }


def glorot_uniform(rng: np.random.Generator, n_in: int, n_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (n_in + n_out))
    return Tensor(rng.uniform(-bound, bound, size=(n_in, n_out)), requires_grad=True)


def ffn_hidden(d_in: int, bottleneck_ratio: int) -> int:
    return max(1, d_in // bottleneck_ratio)


def init_ffn(d_in: int, bottleneck_ratio: int, rng: np.random.Generator) -> FfnParams:
    hidden = ffn_hidden(d_in, bottleneck_ratio)
    return FfnParams(
        w1=glorot_uniform(rng, d_in, hidden),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=glorot_uniform(rng, hidden, d_in),
        b2=Tensor(np.zeros(d_in), requires_grad=True),
    )


@dataclass
class SamConfig:
    """Hyperparameters of the attention stage."""

    d_model: int
    max_len: int
    delta: float = 0.0
    bottleneck_ratio: int = 4
    order: Order = Order.FAM_THEN_TAM
    fam_enabled: bool = True
    tam_enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError(f"delta must lie in [0, 1], got {self.delta}")
        if self.d_model < 1 or self.max_len < 1:
            raise ConfigError("d_model and max_len must be positive")
        if self.bottleneck_ratio < 1:
            raise ConfigError("bottleneck_ratio must be a positive integer")
        self.order = Order(self.order)

    def with_overrides(self, **kw) -> "SamConfig":
        return replace(self, **kw)


@dataclass
class SamParams:
    ffn_f: FfnParams  # operates on D-sized pooled vectors
    ffn_t: FfnParams  # operates on L-sized pooled vectors

    def tensors(self) -> dict[str, Tensor]:
        return {**self.ffn_f.tensors("ffn_f"), **self.ffn_t.tensors("ffn_t")}


def init_sam_params(cfg: SamConfig, rng: np.random.Generator) -> SamParams:
    return SamParams(
        ffn_f=init_ffn(cfg.d_model, cfg.bottleneck_ratio, rng),
        ffn_t=init_ffn(cfg.max_len, cfg.bottleneck_ratio, rng),
    )


@dataclass
class SamTrace:
    """Attention maps captured during one forward pass, for export.

    ``fam_map`` holds the filtered feature gates (entries in [0, 1-delta]),
    ``tam_map`` the token weights (rows summing to 1 over valid positions).
    A disabled module leaves its multiplicative identity: ones for the
    feature gate, the raw validity flags for the token weights.
    """

    fam_map: np.ndarray
    tam_map: np.ndarray


def ffn_forward(x: Tensor, p: FfnParams) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 on a (B, d_in) batch.

    The first projection reduces over the input coordinates in index order
    (see matmul_ordered), so zero-extending both the input and w1 leaves
    existing outputs bit-identical.
    """
    if x.data.ndim != 2 or x.shape[1] != p.d_in:
        raise ShapeError(f"ffn expects (B, {p.d_in}) input, got {x.shape}")
    return (matmul_ordered(x, p.w1) + p.b1).relu() @ p.w2 + p.b2


def fam_map(x: Tensor, mask: Mask, p: FfnParams) -> Tensor:
    """Feature gate in (0,1)^(B,D): sigmoid of the shared network applied to
    the max-pooled and average-pooled token views, summed."""
    pooled_max = masked_maxpool(x, mask, "token")
    pooled_avg = masked_avgpool(x, mask, "token")
    return (ffn_forward(pooled_max, p) + ffn_forward(pooled_avg, p)).sigmoid()


def af_fam_apply(x: Tensor, m_f: Tensor, delta: float) -> tuple[Tensor, Tensor]:
    """Shift the feature gate down by ``delta``, clamp at zero, re-weight.

    The filtered gate is max(0, m_f - delta), so entries at or below the
    threshold are dropped entirely (zero subgradient there, same convention
    as relu) and the rest are attenuated; it multiplies every token's
    features, broadcast along the token axis.
    """
    if not 0.0 <= delta <= 1.0:
        raise ConfigError(f"delta must lie in [0, 1], got {delta}")
    m_filtered = (m_f - delta).relu()
    B, D = m_filtered.shape
    x_prime = m_filtered.reshape(B, 1, D) * x
    return x_prime, m_filtered


def tam_map(x_prime: Tensor, mask: Mask, p: FfnParams) -> Tensor:
    """Token weights in (B, L): masked softmax of the shared network applied
    to the max-pooled and average-pooled feature views, summed."""
    pooled_max = masked_maxpool(x_prime, mask, "feature")
    pooled_avg = masked_avgpool(x_prime, mask, "feature")
    logits = ffn_forward(pooled_max, p) + ffn_forward(pooled_avg, p)
    return masked_softmax(logits, mask)


def tam_apply(x_prime: Tensor, m_t: Tensor) -> Tensor:
    """Scale each token's feature row by its weight; padded rows become 0."""
    if m_t.shape != x_prime.shape[:2]:
        raise ShapeError(f"token weights {m_t.shape} do not align with input {x_prime.shape}")
    B, L = m_t.shape
    return m_t.reshape(B, L, 1) * x_prime


def sam_forward(
    x: Tensor, mask: Mask, cfg: SamConfig, params: SamParams
) -> tuple[Tensor, SamTrace]:
    """Apply the enabled modules in the configured order.

    Disabled modules act as the identity. The trace always holds both maps;
    a disabled module contributes its identity fill.
    """
    if x.data.ndim != 3 or x.shape[1] != cfg.max_len or x.shape[2] != cfg.d_model:
        raise ShapeError(
            f"input {x.shape} does not match configured (B, {cfg.max_len}, {cfg.d_model})"
        )
    B = x.shape[0]
    trace = SamTrace(
        fam_map=np.ones((B, cfg.d_model)),
        tam_map=mask.data.copy(),
    )

    def run_fam(t: Tensor) -> Tensor:
        gate = fam_map(t, mask, params.ffn_f)
        t_prime, filtered = af_fam_apply(t, gate, cfg.delta)
        trace.fam_map = filtered.data.copy()
        return t_prime

    def run_tam(t: Tensor) -> Tensor:
        weights = tam_map(t, mask, params.ffn_t)
        trace.tam_map = weights.data.copy()
        return tam_apply(t, weights)

    if cfg.order is Order.FAM_THEN_TAM:
        stages = [(cfg.fam_enabled, run_fam), (cfg.tam_enabled, run_tam)]
    else:
        stages = [(cfg.tam_enabled, run_tam), (cfg.fam_enabled, run_fam)]

    out = x
    for enabled, stage in stages:
        if enabled:
            out = stage(out)
    return out, trace


def extend_token_ffn(p: FfnParams, extra: int) -> FfnParams:
    """Grow an L-sized token network to L+extra positions with zero weights.

    Appended positions feed zeros through zero rows of w1 and receive only
    the zero entries appended to w2/b2, so outputs at the original valid
    positions are bit-identical. Used to check (and exploit) invariance of
    the stage under appended padding.
    """
    if extra < 0:
        raise ConfigError("extra must be non-negative")
    L = p.d_in
    hidden = p.w1.shape[1]
    w1 = np.zeros((L + extra, hidden))
    w1[:L] = p.w1.data
    w2 = np.zeros((hidden, L + extra))
    w2[:, :L] = p.w2.data
    b2 = np.zeros(L + extra)
    b2[:L] = p.b2.data
    return FfnParams(
        w1=Tensor(w1, requires_grad=True),
        b1=Tensor(p.b1.data.copy(), requires_grad=True),
        w2=Tensor(w2, requires_grad=True),
        b2=Tensor(b2, requires_grad=True),
    )
