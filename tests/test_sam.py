import re
from pathlib import Path

import numpy as np
import pytest

import seqattn
from seqattn import kernels
from seqattn.errors import ConfigError, ShapeError
from seqattn.gradcheck import finite_diff_check
from seqattn.head import cross_entropy, init_head, pool_sequence
from seqattn.sam import (
    FfnParams,
    Order,
    SamConfig,
    SamParams,
    af_fam_apply,
    extend_token_ffn,
    fam_map,
    ffn_forward,
    init_ffn,
    init_sam_params,
    sam_forward,
    tam_apply,
    tam_map,
)
from seqattn.tensor import Mask, Tensor, backward, masked_avgpool, masked_maxpool, masked_softmax


def ffn_from_arrays(w1, b1, w2, b2):
    return FfnParams(
        w1=Tensor(np.asarray(w1, dtype=float)),
        b1=Tensor(np.asarray(b1, dtype=float)),
        w2=Tensor(np.asarray(w2, dtype=float)),
        b2=Tensor(np.asarray(b2, dtype=float)),
    )


def zero_ffn(d_in, hidden=None):
    hidden = hidden or max(1, d_in // 4)
    return ffn_from_arrays(
        np.zeros((d_in, hidden)), np.zeros(hidden), np.zeros((hidden, d_in)), np.zeros(d_in)
    )


class TestFfn:
    def test_zero_weights_give_constant_bias(self):
        p = ffn_from_arrays(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 3)), [1.0, -2.0, 0.5])
        out = ffn_forward(Tensor(np.random.default_rng(0).normal(size=(4, 3))), p)
        assert np.array_equal(out.data, np.tile([1.0, -2.0, 0.5], (4, 1)))

    def test_hand_evaluation(self):
        p = ffn_from_arrays(np.eye(2), np.zeros(2), np.ones((2, 2)), np.zeros(2))
        out = ffn_forward(Tensor([[1.0, -1.0]]), p)
        # relu([1,-1]) = [1,0]; times all-ones gives the column sums
        assert out.data.tolist() == [[1.0, 1.0]]

    def test_dead_relu_outputs_second_bias(self):
        p = ffn_from_arrays(np.eye(2), [-10.0, -10.0], np.ones((2, 2)), [0.3, 0.7])
        out = ffn_forward(Tensor([[1.0, 2.0]]), p)
        assert out.data.tolist() == [[0.3, 0.7]]

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ffn_forward(Tensor(np.zeros((2, 3))), zero_ffn(4))

    def test_bottleneck_width(self):
        rng = np.random.default_rng(0)
        assert init_ffn(8, 4, rng).w1.shape == (8, 2)
        assert init_ffn(2, 4, rng).w1.shape == (2, 1)  # floors to at least 1

    def test_output_width_equals_input_width(self):
        rng = np.random.default_rng(0)
        p = init_ffn(6, 4, rng)
        out = ffn_forward(Tensor(rng.normal(size=(3, 6))), p)
        assert out.shape == (3, 6)


class TestFamMap:
    def test_zero_ffn_gives_half_everywhere(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        out = fam_map(x, Mask.from_lengths([2, 3], 3), zero_ffn(4))
        assert np.all(out.data == 0.5)

    def test_identical_tokens_double_the_network(self):
        v = np.array([0.5, -1.0, 2.0])
        x = Tensor(np.tile(v, (1, 4, 1)))
        mask = Mask.from_lengths([4], 4)
        rng = np.random.default_rng(3)
        p = init_ffn(3, 2, rng)
        out = fam_map(x, mask, p)
        # max pool equals avg pool equals v, so the gate is sigmoid(2 * ffn(v))
        inner = ffn_forward(Tensor(v[None, :]), p)
        expected = 1.0 / (1.0 + np.exp(-2.0 * inner.data))
        assert np.allclose(out.data, expected, atol=1e-15)

    def test_hand_worked_example(self):
        # spreadsheet-style forward pass with simple weights
        x = Tensor([[[1.0, 5.0], [3.0, 3.0]]])
        mask = Mask.from_lengths([2], 2)
        p = ffn_from_arrays(0.1 * np.eye(2), np.zeros(2), np.eye(2), [0.05, -0.05])
        out = fam_map(x, mask, p)
        # pooled: max=[3,5], avg=[2,4]; logits 0.6, 0.8
        assert out.data[0] == pytest.approx([0.6456563062257954, 0.6899744811276125], abs=1e-12)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 5, 6)) * 50)
        out = fam_map(x, Mask.from_lengths([5, 2, 4], 5), init_ffn(6, 4, rng))
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


class TestAdaptiveFilter:
    def test_delta_zero_is_plain_reweighting(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        gate = Tensor(rng.uniform(0.01, 0.99, size=(2, 4)))
        x_prime, filtered = af_fam_apply(x, gate, 0.0)
        assert np.array_equal(filtered.data, gate.data)
        assert np.array_equal(x_prime.data, gate.data[:, None, :] * x.data)

    def test_delta_one_masks_everything(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        gate = Tensor(rng.uniform(0.0, 1.0, size=(2, 4)))
        x_prime, filtered = af_fam_apply(x, gate, 1.0)
        assert np.all(filtered.data == 0.0)
        assert np.all(x_prime.data == 0.0)

    def test_elementwise_threshold(self):
        _, filtered = af_fam_apply(Tensor(np.ones((1, 2, 2))), Tensor([[0.4, 0.7]]), 0.5)
        assert filtered.data[0] == pytest.approx([0.0, 0.2], abs=1e-15)

    def test_out_of_range_delta(self):
        with pytest.raises(ConfigError):
            af_fam_apply(Tensor(np.ones((1, 1, 1))), Tensor([[0.5]]), 1.2)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(3)
        gate = Tensor(rng.uniform(size=(4, 8)))
        x = Tensor(np.ones((4, 2, 8)))
        prev = af_fam_apply(x, gate, 0.0)[1].data
        for delta in np.linspace(0.1, 1.0, 10):
            cur = af_fam_apply(x, gate, float(delta))[1].data
            assert np.all(cur <= prev + 1e-15)
            assert np.all(cur <= 1.0 - delta + 1e-15)
            prev = cur


class TestTamMap:
    def test_zero_ffn_gives_uniform_over_valid(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 3)))
        mask = Mask.from_lengths([2, 4], 4)
        out = tam_map(x, mask, zero_ffn(4))
        assert np.allclose(out.data[0], [0.5, 0.5, 0.0, 0.0])
        assert np.allclose(out.data[1], 0.25)

    def test_single_valid_token_takes_all_weight(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 2)))
        out = tam_map(x, Mask.from_lengths([1], 3), zero_ffn(3))
        assert out.data.tolist() == [[1.0, 0.0, 0.0]]

    def test_hand_logits(self):
        # weights chosen so the combined network yields logits [1, 2]
        x = Tensor(np.ones((1, 2, 2)) * 0.5)
        p = ffn_from_arrays(np.zeros((2, 1)), [0.0], np.zeros((1, 2)), [0.5, 1.0])
        out = tam_map(x, Mask.from_lengths([2], 2), p)
        assert out.data[0] == pytest.approx([0.26894142136999512, 0.7310585786300049], abs=1e-11)


class TestTamApply:
    def test_uniform_weights_scale_by_inverse_length(self):
        x = Tensor(np.ones((1, 4, 3)))
        m_t = Tensor(np.full((1, 4), 0.25))
        assert np.allclose(tam_apply(x, m_t).data, 0.25)

    def test_one_hot_keeps_single_row(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 4))
        out = tam_apply(x, Tensor([[0.0, 1.0]]))
        assert np.all(out.data[0, 0] == 0.0)
        assert np.array_equal(out.data[0, 1], x.data[0, 1])

    def test_hand_product(self):
        x = Tensor([[[4.0, 4.0], [4.0, 4.0]]])
        out = tam_apply(x, Tensor([[0.25, 0.75]]))
        assert out.data.tolist() == [[[1.0, 1.0], [3.0, 3.0]]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tam_apply(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((1, 2))))


def small_setup(seed=0, B=2, L=4, D=6, **cfg_kw):
    rng = np.random.default_rng(seed)
    cfg = SamConfig(d_model=D, max_len=L, **cfg_kw)
    params = init_sam_params(cfg, rng)
    x = Tensor(rng.normal(size=(B, L, D)), requires_grad=True)
    mask = Mask.from_lengths(rng.integers(1, L + 1, size=B), L)
    return cfg, params, x, mask


class TestSamForward:
    def test_both_disabled_is_identity(self):
        cfg, params, x, mask = small_setup(fam_enabled=False, tam_enabled=False)
        out, trace = sam_forward(x, mask, cfg, params)
        assert np.array_equal(out.data, x.data)
        assert np.all(trace.fam_map == 1.0)
        assert np.array_equal(trace.tam_map, mask.data)

    def test_delta_one_zeroes_everything(self):
        cfg, params, x, mask = small_setup(delta=1.0)
        out, trace = sam_forward(x, mask, cfg, params)
        assert np.all(out.data == 0.0)
        assert np.all(trace.fam_map == 0.0)

    def test_orders_differ_for_generic_parameters(self):
        cfg, params, x, mask = small_setup(seed=7)
        out_ft, _ = sam_forward(x, mask, cfg, params)
        cfg_swapped = cfg.with_overrides(order=Order.TAM_THEN_FAM)
        out_tf, _ = sam_forward(x, mask, cfg_swapped, params)
        assert np.max(np.abs(out_ft.data - out_tf.data)) > 1e-8

    def test_filtered_gate_bounded_by_one_minus_delta(self):
        for delta in (0.0, 0.3, 0.7):
            cfg, params, x, mask = small_setup(seed=5, delta=delta)
            _, trace = sam_forward(x, mask, cfg, params)
            assert np.all(trace.fam_map >= 0.0)
            assert np.all(trace.fam_map <= 1.0 - delta)

    def test_padding_opacity(self):
        cfg, params, x, mask = small_setup(seed=11, B=3, L=5)
        out, trace = sam_forward(x, mask, cfg, params)
        pad = mask.data == 0.0
        assert np.all(out.data[pad] == 0.0)
        assert np.all(trace.tam_map[pad] == 0.0)

    def test_delta_zero_equals_unfiltered_composition(self):
        cfg, params, x, mask = small_setup(seed=13, delta=0.0)
        out, _ = sam_forward(x, mask, cfg, params)
        # unfiltered route, composed from the primitives without the clamp
        gate = fam_map(x, mask, params.ffn_f)
        B, D = gate.shape
        x_prime = gate.reshape(B, 1, D) * x
        weights = tam_map(x_prime, mask, params.ffn_t)
        expected = tam_apply(x_prime, weights)
        assert np.array_equal(out.data, expected.data)

    def test_length_extension_bit_identical(self):
        cfg, params, x, mask = small_setup(seed=17, B=2, L=4, D=3)
        out, _ = sam_forward(x, mask, cfg, params)
        extra = 3
        cfg_ext = cfg.with_overrides(max_len=cfg.max_len + extra)
        params_ext = SamParams(ffn_f=params.ffn_f, ffn_t=extend_token_ffn(params.ffn_t, extra))
        x_ext = Tensor(np.concatenate([x.data, np.zeros((2, extra, 3))], axis=1))
        out_ext, _ = sam_forward(x_ext, mask.extended(extra), cfg_ext, params_ext)
        assert np.array_equal(out.data, out_ext.data[:, : cfg.max_len])
        assert np.all(out_ext.data[:, cfg.max_len :] == 0.0)

    def test_gradients_match_finite_differences(self):
        cfg, params, x, mask = small_setup(seed=23)

        def loss_of(t):
            out, _ = sam_forward(t, mask, cfg, params)
            return (out * out).sum()

        assert finite_diff_check(loss_of, x) < 1e-4

        # parameters are perturbed in place, so the closure can ignore its argument
        for name, p in params.tensors().items():
            def loss_of_param(_p, _n=name):
                out, _ = sam_forward(x, mask, cfg, params)
                return (out * out).sum()

            assert finite_diff_check(loss_of_param, p) < 1e-4, name

    def test_shape_mismatch_with_config(self):
        cfg, params, x, mask = small_setup()
        bad = Tensor(np.zeros((2, cfg.max_len + 1, cfg.d_model)))
        with pytest.raises(ShapeError):
            sam_forward(bad, mask, cfg, params)


def per_op_map(t, mask, p, axis):
    """A module's map as one graph node per pooling, layer and activation."""
    logits = ffn_forward(masked_maxpool(t, mask, axis), p) + ffn_forward(masked_avgpool(t, mask, axis), p)
    return logits.sigmoid() if axis == "token" else masked_softmax(logits, mask)


class TestMapAppliedByTheOtherModule:
    """With D = L each module's step accepts the other's map. Whatever made
    the map, the result must carry the per-op graph's bits."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("axis", ["token", "feature"], ids=["fam_map-tam_apply", "tam_map-af_fam_apply"])
    def test_output_and_gradients_match_the_per_op_graph(self, axis, seed):
        L = D = 5
        rng = np.random.default_rng(seed)
        p = init_ffn(D, 2, rng)
        x_data = rng.normal(size=(3, L, D))
        mask = Mask.from_lengths([5, 3, 1], L)
        loss_weights = Tensor(rng.normal(size=x_data.shape))
        module_map = fam_map if axis == "token" else tam_map

        def run(make_map):
            x = Tensor(x_data, requires_grad=True)
            for t in p.tensors("p").values():
                t.zero_grad()
            m = make_map(x, mask, p)
            out = tam_apply(x, m) if axis == "token" else af_fam_apply(x, m, 0.15)[0]
            backward((out * loss_weights).sum())
            return [out.data, x.grad] + [t.grad.copy() for t in p.tensors("p").values()]

        fused = run(module_map)
        per_op = run(lambda x, mask, p: per_op_map(x, mask, p, axis))
        assert [a.tobytes() for a in fused] == [b.tobytes() for b in per_op]


POOLING_KERNELS = [f"{axis}_{kind}pool_{pass_}" for axis in ("token", "feature")
                   for kind in ("max", "avg") for pass_ in ("fwd", "bwd")]


def test_every_pooling_kernel_is_looked_up_at_call_time(monkeypatch):
    # per-kernel timing wraps kernels by attribute; a kernel bound at import
    # would never see the wrapper
    calls = dict.fromkeys(POOLING_KERNELS, 0)
    for name in POOLING_KERNELS:
        def counted(*args, name=name, kernel=getattr(kernels, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(kernels, name, counted)
    cfg, params, x, mask = small_setup(seed=2)
    out, _ = sam_forward(x, mask, cfg, params)
    head = init_head(cfg.d_model, 3, np.random.default_rng(2))
    backward(cross_entropy(pool_sequence(out, mask, "mean") @ head.w + head.b, [0, 2]))
    for axis in ("token", "feature"):
        backward(masked_maxpool(x, mask, axis).sum() + masked_avgpool(x, mask, axis).sum())
    assert all(calls.values()), calls


class TestSamConfig:
    def test_delta_validated(self):
        with pytest.raises(ConfigError):
            SamConfig(d_model=4, max_len=4, delta=-0.1)
        with pytest.raises(ConfigError):
            SamConfig(d_model=4, max_len=4, delta=1.5)

    def test_order_accepts_strings(self):
        cfg = SamConfig(d_model=4, max_len=4, order="tam-fam")
        assert cfg.order is Order.TAM_THEN_FAM


def test_readme_library_example_runs():
    # the first block under "Library use", read from the README itself
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library use\n+```python\n(.*?)\n```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    x = namespace["x"]
    assert x.grad.shape == x.shape and np.all(np.isfinite(x.grad)) and np.any(x.grad != 0.0)


def test_package_root_exports_the_readme_names():
    # every other name is imported from its own module
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = {name.strip() for line in re.findall(r"^from seqattn import (.+)$", readme, re.M)
             for name in line.split(",")}
    assert sorted(seqattn.__all__) == sorted(names | {"__version__"})
    assert all(getattr(seqattn, name) is not None for name in seqattn.__all__)
