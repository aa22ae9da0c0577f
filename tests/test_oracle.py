"""Property gate for the attention stage: the training path and the
module maps applied by generic ops against the per-op graph, the training
path against finite differences and under appended padding; and the
pooled views that encoding computes once against the kernels.

The per-op graph below composes the generic differentiable ops
(pooling, the shared network, sigmoid, relu, reshape, product, softmax),
one graph node each, exactly as the stage's equations read. The training
path must give the same bits: output, both trace maps and every gradient,
signed zeros included.

Examples are derandomized and few, so every run checks the same points.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seqattn import kernels
from seqattn.gradcheck import finite_diff_check
from seqattn.head import POOLING_STRATEGIES, cross_entropy, init_head, pool_sequence
from seqattn.model import encode_embeddings, take
from seqattn.sam import (
    Order,
    PooledInput,
    SamConfig,
    SamParams,
    extend_token_ffn,
    fam_map,
    ffn_forward,
    init_sam_params,
    sam_forward,
    tam_map,
)
from seqattn.tensor import Mask, Tensor, backward, masked_avgpool, masked_maxpool, masked_softmax

oracle = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def points(draw) -> dict:
    """A small padded batch with any mask, a stage configuration and a head."""
    B, L, D = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pooling = draw(st.sampled_from(POOLING_STRATEGIES))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=L, max_size=L), min_size=B, max_size=B))
    mask = np.array(rows, dtype=np.float64)
    mask[~mask.any(axis=1), draw(st.integers(0, L - 1))] = 1.0
    if pooling == "first":
        mask[:, 0] = 1.0
    cfg = SamConfig(
        d_model=D, max_len=L, delta=draw(st.floats(0.0, 1.0)), bottleneck_ratio=2,
        order=draw(st.sampled_from(list(Order))),
        fam_enabled=draw(st.booleans()), tam_enabled=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(B, L, D))
    if draw(st.booleans()):  # zeros at padding, as the SAMEMB1 encoder writes them
        x *= mask[:, :, None]
    return {
        "cfg": cfg, "mask": Mask(mask), "x": x, "pooling": pooling,
        "trainable": draw(st.booleans()),
        "params": init_sam_params(cfg, rng),
        "head": init_head(D, 3, rng, pooling),
        "labels": rng.integers(0, 3, size=B),
    }


def per_op_gate(t: Tensor, mask: Mask, p) -> Tensor:
    return (ffn_forward(masked_maxpool(t, mask, "token"), p)
            + ffn_forward(masked_avgpool(t, mask, "token"), p)).sigmoid()


def per_op_weights(t: Tensor, mask: Mask, p) -> Tensor:
    return masked_softmax(ffn_forward(masked_maxpool(t, mask, "feature"), p)
                          + ffn_forward(masked_avgpool(t, mask, "feature"), p), mask)


def per_op_stage(x: Tensor, mask: Mask, cfg: SamConfig, params: SamParams,
                 gate_of=per_op_gate, weights_of=per_op_weights):
    """The stage as one graph node per pooling, layer and product; the
    maps come from ``gate_of`` and ``weights_of``."""
    B, L, D = x.shape
    maps = {"fam": np.ones((B, D)), "tam": mask.data.copy()}

    def fam(t):
        filtered = (gate_of(t, mask, params.ffn_f) - cfg.delta).relu()
        maps["fam"] = filtered.data.copy()
        return filtered.reshape(B, 1, D) * t

    def tam(t):
        weights = weights_of(t, mask, params.ffn_t)
        maps["tam"] = weights.data.copy()
        return weights.reshape(B, L, 1) * t

    stages = [(cfg.fam_enabled, fam), (cfg.tam_enabled, tam)]
    if cfg.order is Order.TAM_THEN_FAM:
        stages.reverse()
    out = x
    for enabled, stage in stages:
        if enabled:
            out = stage(out)
    return out, maps["fam"], maps["tam"]


def training_stage(x: Tensor, mask: Mask, cfg: SamConfig, params: SamParams):
    """The stage as training runs it: one node per module, and FAM's
    pooling of a fixed input done ahead of the pass, as encoding does it."""
    pooled = None
    if not x.requires_grad:
        pooled = PooledInput(kernels.token_maxpool_fwd(x.data, mask.data)[0],
                             kernels.token_avgpool_fwd(x.data, mask.data))
    out, trace = sam_forward(x, mask, cfg, params, pooled)
    return out, trace.fam_map, trace.tam_map


def head_loss(out: Tensor, point: dict) -> Tensor:
    head = point["head"]
    pooled = pool_sequence(out, point["mask"], point["pooling"])
    return cross_entropy(pooled @ head.w + head.b, point["labels"])


def leaves(point: dict) -> dict[str, Tensor]:
    return {**point["params"].tensors(), **point["head"].tensors()}


def run(stage, point: dict):
    """Output, both maps, the loss and every gradient of one pass."""
    x = Tensor(point["x"], requires_grad=point["trainable"])
    for p in leaves(point).values():
        p.zero_grad()
    out, fam_map, tam_map = stage(x, point["mask"], point["cfg"], point["params"])
    loss = head_loss(out, point)
    backward(loss)
    grads = {name: p.grad.copy() for name, p in leaves(point).items()}
    if x.requires_grad:
        grads["input"] = x.grad.copy()
    return {"out": out.data, "fam_map": fam_map, "tam_map": tam_map, "loss": loss.data, **grads}


def assert_same_bits(actual: dict, expected: dict) -> None:
    assert actual.keys() == expected.keys()
    for name, value in expected.items():
        assert actual[name].shape == value.shape, name
        assert actual[name].tobytes() == value.tobytes(), name


@oracle
@given(point=points())
def test_training_path_matches_the_per_op_graph_bit_for_bit(point):
    assert_same_bits(run(training_stage, point), run(per_op_stage, point))


@oracle
@given(point=points())
def test_maps_applied_by_generic_ops_match_the_per_op_graph_bit_for_bit(point):
    """Each module's map as a node of its own, consumed by generic ops
    instead of the module's apply step, on an input that needs a gradient."""
    point = {**point, "trainable": True}
    actual = run(lambda *args: per_op_stage(*args, gate_of=fam_map, weights_of=tam_map), point)
    assert_same_bits(actual, run(per_op_stage, point))


def kink_margin(point: dict) -> float:
    """Distance of the point to the nearest fold of the loss: a relu or
    filter threshold, or a tie in a max."""
    cfg, mask, params = point["cfg"], point["mask"].data, point["params"]
    margins = []

    def top2_gap(values, axis):
        if values.shape[axis] < 2:
            return np.inf
        ordered = np.sort(values, axis=axis)
        return float(np.min(np.take(ordered, -1, axis=axis) - np.take(ordered, -2, axis=axis)))

    def network(v, p):
        pre = v @ p.w1.data + p.b1.data
        margins.append(float(np.min(np.abs(pre))))
        return np.maximum(pre, 0.0) @ p.w2.data + p.b2.data

    def fam(t):
        valid = np.where(mask[:, :, None] > 0, t, -np.inf)
        margins.append(top2_gap(np.maximum(valid, -1e9), axis=1))
        mean = (t * mask[:, :, None]).sum(axis=1) / mask.sum(axis=1)[:, None]
        gate = 1.0 / (1.0 + np.exp(-(network(valid.max(axis=1), params.ffn_f)
                                     + network(mean, params.ffn_f))))
        margins.append(float(np.min(np.abs(gate - cfg.delta))))
        return np.maximum(gate - cfg.delta, 0.0)[:, None, :] * t

    def tam(t):
        margins.append(top2_gap(t[mask > 0], axis=1))  # padded rows are zeroed after the max
        logits = (network(t.max(axis=2) * mask, params.ffn_t)
                  + network(t.mean(axis=2) * mask, params.ffn_t))
        e = np.exp(np.where(mask > 0, logits - logits.max(axis=1, keepdims=True), -np.inf))
        return (e / e.sum(axis=1, keepdims=True))[:, :, None] * t

    stages = [(cfg.fam_enabled, fam), (cfg.tam_enabled, tam)]
    if cfg.order is Order.TAM_THEN_FAM:
        stages.reverse()
    out = point["x"]
    for enabled, stage in stages:
        if enabled:
            out = stage(out)
    if point["pooling"] == "max":
        margins.append(top2_gap(np.where(mask[:, :, None] > 0, out, -1e9), axis=1))
    return min(margins, default=np.inf)


@settings(oracle, max_examples=15)
@given(point=points())
def test_gradients_match_finite_differences(point):
    assume(kink_margin(point) > 1e-3)
    x = Tensor(point["x"], requires_grad=point["trainable"])
    targets = {**leaves(point), **({"input": x} if x.requires_grad else {})}

    def loss(_):
        out, _, _ = training_stage(x, point["mask"], point["cfg"], point["params"])
        return head_loss(out, point)

    # relative error needs gradients clear of the differencing noise; exact
    # zeros are fine, since the loss is then locally constant
    for p in targets.values():
        p.zero_grad()
    backward(loss(None))
    for p in targets.values():
        assume(not np.any((p.grad != 0.0) & (np.abs(p.grad) < 1e-6)))
    for name, p in targets.items():
        # each tensor is perturbed in place, so the closure ignores its argument
        assert finite_diff_check(loss, p) < 1e-4, name


@oracle
@given(point=points(), extra=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_appended_padding_changes_no_bit(point, extra, seed):
    cfg, mask, params = point["cfg"], point["mask"], point["params"]
    B, L, D = point["x"].shape
    appended = np.random.default_rng(seed).normal(size=(B, extra, D))
    x_ext = np.concatenate([point["x"], appended], axis=1)
    cfg_ext = cfg.with_overrides(max_len=L + extra)
    params_ext = SamParams(ffn_f=params.ffn_f, ffn_t=extend_token_ffn(params.ffn_t, extra))

    out, fam_map, tam_map = training_stage(Tensor(point["x"]), mask, cfg, params)
    out_ext, fam_ext, tam_ext = training_stage(Tensor(x_ext), mask.extended(extra), cfg_ext, params_ext)
    assert out.data.tobytes() == out_ext.data[:, :L].tobytes()
    if cfg.tam_enabled:
        assert np.all(out_ext.data[:, L:] == 0.0)
    assert fam_map.tobytes() == fam_ext.tobytes()
    assert tam_map.tobytes() == tam_ext[:, :L].tobytes()
    assert np.all(tam_ext[:, L:] == 0.0)


# mostly signed zeros below a negative, where a max has two bit patterns to choose from
values = st.one_of(st.sampled_from([0.0, -0.0, -0.0, 0.0, -1.0]),
                   st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(-3.0, 3.0))


@oracle
@given(
    lengths=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    dim=st.integers(1, 4),
    max_len=st.integers(1, 5),
    data=st.data(),
)
def test_encoded_views_are_the_kernels_views(lengths, dim, max_len, data):
    """Any batch drawn from an encoding carries, row for row, the bits that
    the token pooling kernels give of that batch: signed zeros, NaN and
    infinities included, records cut at max_len or empty."""
    seqs = [(np.array(data.draw(st.lists(values, min_size=n * dim, max_size=n * dim))).reshape(n, dim), 0)
            for n in lengths]
    indices = np.array(data.draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1, max_size=4)))
    with np.errstate(invalid="ignore"):  # inf - inf in a mean
        batch = take(encode_embeddings(seqs, max_len), indices)
        expected = (kernels.token_maxpool_fwd(batch.embs, batch.mask)[0],
                    kernels.token_avgpool_fwd(batch.embs, batch.mask))
    assert batch.pooled.max.tobytes() == expected[0].tobytes()
    assert batch.pooled.mean.tobytes() == expected[1].tobytes()
