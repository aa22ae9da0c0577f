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

Each module is one graph node. Its map (:func:`fam_map`, :func:`tam_map`)
runs the per-op forward without recording it and keeps what the per-op
backward reads. Both apply steps (:func:`af_fam_apply`, :func:`tam_apply`)
build their product through one function, which folds a map of the same
input (from either module) and the product into one node: its vjp is the
per-op backward written out, adding the input's three gradient terms into
one buffer in the walk's order, so every gradient keeps the per-op graph's
bits. A map consumed by anything else is a node of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError, ShapeError
from .tensor import Mask, Tensor, _check_mask, _unbroadcast, masked_softmax, matmul_ordered, no_grad, pool_bwd, pool_fwd


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


def _check_ffn_input(x: Tensor, p: FfnParams) -> None:
    if x.data.ndim != 2 or x.shape[1] != p.d_in:
        raise ShapeError(f"ffn expects (B, {p.d_in}) input, got {x.shape}")


def ffn_forward(x: Tensor, p: FfnParams) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 on a (B, d_in) batch.

    The first projection reduces over the input coordinates in index order
    (see matmul_ordered), so zero-extending both the input and w1 leaves
    existing outputs bit-identical.
    """
    _check_ffn_input(x, p)
    return (matmul_ordered(x, p.w1) + p.b1).relu() @ p.w2 + p.b2


class PooledInput(NamedTuple):
    """FAM's two pooled views of a fixed input, computed once: the max and
    the mean over tokens, (N, D) each."""

    max: np.ndarray
    mean: np.ndarray

    def take(self, indices: np.ndarray) -> "PooledInput":
        return PooledInput(self.max[indices], self.mean[indices])


class _Module:
    """One pass of a module over its input ``x``: pool two ways over
    ``axis`` ("token" for FAM, "feature" for TAM), run the shared network on
    both views, add, and normalize into the map (``out``).

    The forward runs the per-op graph's ops and finite checks without
    recording a graph, and keeps what that graph's backward reads. Views
    passed in ``pooled`` stand in for pooling a fixed input (one that
    needs no gradient); they carry no argmax, which only the input's
    gradient reads.
    """

    def __init__(self, x: Tensor, mask: Mask, axis: str, p: FfnParams, pooled: PooledInput | None = None):
        _check_mask(x, mask, 3)
        self.x, self.md, self.axis, self.p = x, mask.data, axis, p
        self.arg = None
        fixed = pooled is not None and not x.requires_grad
        with no_grad():
            if fixed:
                vmax = pooled.max
            else:
                vmax, self.arg = pool_fwd("max", axis, x.data, self.md)
            vmax = Tensor._result(vmax, "masked_maxpool")
            vmean = pooled.mean if fixed else pool_fwd("avg", axis, x.data, self.md)
            vmean = Tensor._result(vmean, "masked_avgpool")
            _check_ffn_input(vmax, p)
            # both views through one ordered product: an output row depends only
            # on its own input row, so the bits are those of two calls
            B = vmax.shape[0]
            first = matmul_ordered(Tensor(np.concatenate([vmax.data, vmean.data])), p.w1).data
            layers = []
            for h in (first[:B], first[B:]):
                pre = Tensor(h) + p.b1
                hidden = pre.relu()
                layers.append((pre.data, hidden.data, hidden @ p.w2 + p.b2))
            logits = layers[0][2] + layers[1][2]
            out = logits.sigmoid() if axis == "token" else masked_softmax(logits, mask)
        self.out = out.data
        self.views = (vmax.data, vmean.data)
        self.layers = [layer[:2] for layer in layers]

    def grads(self, g_map: np.ndarray, needs: list[bool], adj: np.ndarray | None = None) -> list:
        """The gradients of the flagged operands among (w1, b1, w2, b2, x),
        given the map's gradient: the input's are the two pooling terms, or
        with ``adj`` (a product's term, in a buffer of its own) their sum.

        This is the per-op graph's backward. A parameter feeds both branches,
        and its gradient is the sum of the two branch terms, which is the
        walk's sum: two terms add to the same bits in either order.
        """
        s = self.out
        gz = g_map * s * (1.0 - s) if self.axis == "token" else kernels.masked_softmax_bwd(g_map, s)
        w1, w2 = self.p.w1.data, self.p.w2.data
        branches, view_grads = [], []
        for v, (pre, hidden) in zip(self.views, self.layers):
            gpre = (gz @ w2.T) * (pre > 0.0)
            branches.append((v.T @ gpre, gpre.sum(axis=0), hidden.T @ gz, gz.sum(axis=0)))
            if needs[4]:
                view_grads.append(gpre @ w1.T)
        out = [a + b for (a, b), need in zip(zip(*branches), needs) if need]
        if not needs[4]:
            return out
        if adj is not None:
            return out + self.add_input_terms(adj, *view_grads)
        return out + [pool_bwd(kind, self.axis, g, self.md, self.arg, self.x.shape)
                      for kind, g in zip(("max", "avg"), view_grads)]

    def add_input_terms(self, adj: np.ndarray, g_max, g_mean) -> list[np.ndarray]:
        """``(adj + max term) + mean term``, the walk's two dense sums, in place.

        The max term is zero off the argmax, where adding it only turns
        -0.0 into +0.0; so off the argmax, ``(adj + 0.0) + mean`` equals
        ``adj + (mean + 0.0)``, one in-place add, and at the argmax the
        exact sum is formed apart and written back.
        """
        B, L, D = adj.shape
        if self.axis == "token":
            at = (np.arange(B)[:, None], self.arg, np.arange(D))
            mean = pool_bwd("avg", "token", g_mean, self.md, None, adj.shape)
            exact = (adj[at] + g_max) + mean[at]
        else:
            at = (np.arange(B)[:, None], np.arange(L), self.arg)
            mean = ((g_mean * self.md) / D)[:, :, None]
            exact = (adj[at] + g_max * self.md) + mean[:, :, 0]
        mean += 0.0  # a buffer of its own
        adj += mean
        adj[at] = exact
        return [adj]


def _node(cls, data: np.ndarray, op: str, operands: list[Tensor], backward):
    """A node of class ``cls`` whose gradients all come from one call
    ``backward(g, needs)``: ``needs`` flags the operands that require a
    gradient, and it returns one gradient per flagged operand, in order.

    The walk runs a node's vjps once each per pass, in edge order: the
    first one calls ``backward`` and the last lets its results go.
    """
    needs = [t.requires_grad for t in operands]
    kept = [t for t in operands if t.requires_grad]
    held: list = []

    def edge(i):
        def vjp(g):
            if i == 0:
                held[:] = backward(g, needs)
            grad = held[i]
            if i == len(kept) - 1:
                held.clear()
            return grad

        return vjp

    return cls._result(data, op, *[(t, edge(i)) for i, t in enumerate(kept)])


class _ModuleMap(Tensor):
    """A module's map as a node of its own, holding the module pass so that
    an apply step can fold map and product into one node."""

    __slots__ = ("module",)


def _map_node(module: _Module, op: str) -> _ModuleMap:
    p, x = module.p, module.x
    # the input twice: its max term, then its mean term, as the walk adds them
    node = _node(_ModuleMap, module.out, op, [p.w1, p.b1, p.w2, p.b2, x, x], module.grads)
    if not node.requires_grad:  # no graph records it, so no backward reads these
        module.views = module.layers = module.arg = None
    node.module = module
    return node


def _scaled(x: Tensor, m: Tensor, scale: Tensor, shape: tuple[int, ...], after=None) -> Tensor:
    """``scale``, made from the map ``m`` and reshaped to ``shape``, times
    ``x``; ``after`` is the vjp from ``scale`` back to ``m`` (None when
    ``scale`` is ``m``). When ``m`` is the map of a module pass over this
    ``x``, the product is that module's one node, whose backward is the
    map's composed with the product's; else it is built from generic ops.
    """
    module = getattr(m, "module", None)
    if module is None or module.x is not x:
        return scale.reshape(*shape) * x
    p, factor = module.p, scale.data.reshape(shape)

    def backward(g, needs):
        g_map = _unbroadcast(g * x.data, shape).reshape(m.shape)
        return module.grads(g_map if after is None else after(g_map), needs, g * factor if needs[4] else None)

    return _node(Tensor, factor * x.data, "mul", [p.w1, p.b1, p.w2, p.b2, x], backward)


def fam_map(x: Tensor, mask: Mask, p: FfnParams, pooled: PooledInput | None = None) -> Tensor:
    """Feature gate in (0,1)^(B,D): sigmoid of the shared network applied to
    the max-pooled and average-pooled token views, summed. ``pooled`` may
    hold those two views of a fixed ``x``, computed once."""
    return _map_node(_Module(x, mask, "token", p, pooled), "sigmoid")


def af_fam_apply(x: Tensor, m_f: Tensor, delta: float) -> tuple[Tensor, Tensor]:
    """Shift the feature gate down by ``delta``, clamp at zero, re-weight.

    The filtered gate is max(0, m_f - delta), so entries at or below the
    threshold are dropped entirely (zero subgradient there, same convention
    as relu) and the rest are attenuated; it multiplies every token's
    features, broadcast along the token axis. Applied to the gate
    :func:`fam_map` computed from ``x``, the result is FAM's one node.
    """
    if not 0.0 <= delta <= 1.0:
        raise ConfigError(f"delta must lie in [0, 1], got {delta}")
    shifted = m_f - delta
    m_filtered = shifted.relu()
    B, D = m_filtered.shape
    return _scaled(x, m_f, m_filtered, (B, 1, D), lambda g: g * (shifted.data > 0.0)), m_filtered


def tam_map(x_prime: Tensor, mask: Mask, p: FfnParams) -> Tensor:
    """Token weights in (B, L): masked softmax of the shared network applied
    to the max-pooled and average-pooled feature views, summed."""
    return _map_node(_Module(x_prime, mask, "feature", p), "masked_softmax")


def tam_apply(x_prime: Tensor, m_t: Tensor) -> Tensor:
    """Scale each token's feature row by its weight; padded rows become 0.
    Applied to the weights :func:`tam_map` computed from ``x_prime``, the
    result is TAM's one node."""
    if m_t.shape != x_prime.shape[:2]:
        raise ShapeError(f"token weights {m_t.shape} do not align with input {x_prime.shape}")
    B, L = m_t.shape
    return _scaled(x_prime, m_t, m_t, (B, L, 1))


def _stage_order(cfg: SamConfig) -> list[str]:
    """The modules that run, "fam" and "tam", in the configured order."""
    stages = [("fam", cfg.fam_enabled), ("tam", cfg.tam_enabled)]
    if cfg.order is Order.TAM_THEN_FAM:
        stages.reverse()
    return [name for name, enabled in stages if enabled]


def sam_forward(
    x: Tensor, mask: Mask, cfg: SamConfig, params: SamParams, pooled: PooledInput | None = None
) -> tuple[Tensor, SamTrace]:
    """Apply the enabled modules in the configured order.

    Disabled modules act as the identity. The trace always holds both maps;
    a disabled module contributes its identity fill. ``pooled`` holds FAM's
    views of a fixed ``x``, used when FAM is the first module that runs;
    TAM always pools inside the pass.
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

    out = x
    for name in _stage_order(cfg):
        if name == "fam":
            gate = fam_map(out, mask, params.ffn_f, pooled if out is x else None)
            out, filtered = af_fam_apply(out, gate, cfg.delta)
            trace.fam_map = filtered.data.copy()
        else:
            weights = tam_map(out, mask, params.ffn_t)
            trace.tam_map = weights.data.copy()
            out = tam_apply(out, weights)
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
