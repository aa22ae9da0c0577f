import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqattn.tensor as tensor_module
from seqattn.errors import ContractError, NumericError, ShapeError
from seqattn.tensor import (
    Mask,
    Tensor,
    backward,
    masked_avgpool,
    masked_maxpool,
    masked_softmax,
    matmul_ordered,
    no_grad,
)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        out = eye @ eye
        assert np.array_equal(out.data, np.eye(2))

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert (a @ b).data.tolist() == [[3.0], [7.0]]

    def test_dimension_error_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            a @ b

    def test_gradients_flow_to_both_operands(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0], [4.0]], requires_grad=True)
        backward((a @ b).sum())
        assert a.grad.tolist() == [[3.0, 4.0]]
        assert b.grad.tolist() == [[1.0], [2.0]]


def index_order_product(a, b):
    """The bits matmul_ordered stands for: each output starts at +0.0 and
    adds its K products in index order, each product rounded once."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k, None] * b[k, None, :]
    return out


def laid_out(arr, layout, offset):
    """``arr``'s values as a C-order array, an F-order copy, the transposed
    view of a slice of a wider C-order array (so neither order), or a
    C-contiguous view that starts ``offset`` elements into a larger buffer."""
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "T":
        wide = np.full((arr.shape[1], arr.shape[0] + offset), np.nan)
        wide[:, : arr.shape[0]] = arr.T
        return wide[:, : arr.shape[0]].T
    if layout == "offset":
        buf = np.full(arr.size + offset + 3, np.nan)
        view = buf[offset:offset + arr.size].reshape(arr.shape)
        view[...] = arr
        return view
    return arr.copy()


def signed_values(rng, shape, scale):
    """Normal values at a scale, about a fifth of them +0.0 or -0.0, and an
    all-zero row now and then."""
    arr = rng.standard_normal(shape) * scale
    zeros = rng.random(shape) < 0.2
    arr[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    if shape[0] > 1 and rng.random() < 0.3:
        arr[rng.integers(shape[0])] = 0.0
    return arr


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 40),
    k=st.integers(1, 64),
    n=st.one_of(st.just(1), st.integers(1, 24)),
    a_layout=st.sampled_from(["C", "F", "T"]),
    b_layout=st.sampled_from(["C", "F", "offset"]),
    offset=st.integers(1, 3),
    exponent=st.integers(-100, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_ordered_has_the_bits_of_the_index_order_loop(m, k, n, a_layout, b_layout, offset, exponent, seed):
    # a numpy whose einsum stops matching the loop fails here, before any golden moves
    rng = np.random.default_rng(seed)
    a = laid_out(signed_values(rng, (m, k), 10.0**exponent), a_layout, offset)
    b = laid_out(signed_values(rng, (k, n), 10.0**-exponent), b_layout, offset)
    out = matmul_ordered(Tensor(a), Tensor(b)).data
    assert out.dtype == np.float64 and out.shape == (m, n) and out.flags.c_contiguous
    assert np.array_equal(out.view(np.uint64), index_order_product(a, b).view(np.uint64))


class TestMixedOperands:
    """A plain array on either side of an operator is a constant operand."""

    def test_matmul_with_an_array_on_the_right(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = a @ np.array([[1.0], [2.0]])
        assert isinstance(out, Tensor) and out.data.tolist() == [[5.0], [11.0]]
        backward(out.sum())
        assert a.grad.tolist() == [[1.0, 2.0], [1.0, 2.0]]

    def test_matmul_with_an_array_on_the_left(self):
        b = Tensor([[1.0], [2.0]], requires_grad=True)
        out = np.array([[1.0, 2.0], [3.0, 4.0]]) @ b
        assert isinstance(out, Tensor) and out.data.tolist() == [[5.0], [11.0]]
        backward(out.sum())
        assert b.grad.tolist() == [[4.0], [6.0]]

    @pytest.mark.parametrize("op, value, grad", [
        (lambda a, t: a * t, [2.0, 4.0, 6.0], [2.0, 2.0, 2.0]),
        (lambda a, t: a + t, [3.0, 4.0, 5.0], [1.0, 1.0, 1.0]),
    ], ids=["mul", "add"])
    def test_elementwise_with_an_array_on_the_left(self, op, value, grad):
        t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = op(np.full(3, 2.0), t)
        assert isinstance(out, Tensor) and out.data.tolist() == value
        backward(out.sum())
        assert t.grad.tolist() == grad


class TestRelu:
    def test_sign_cases(self):
        assert Tensor([-1.0, 0.0, 2.0]).relu().data.tolist() == [0.0, 0.0, 2.0]

    def test_all_negative(self):
        assert np.all(Tensor([-3.0, -0.5]).relu().data == 0.0)

    def test_gradient_at_positive_point(self):
        x = Tensor([3.0], requires_grad=True)
        backward(x.relu().sum())
        assert x.grad.tolist() == [1.0]

    def test_subgradient_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(x.relu().sum())
        assert x.grad.tolist() == [0.0]


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert Tensor([0.0]).sigmoid().data.tolist() == [0.5]

    def test_symmetry_identity(self):
        x = 2.0
        lhs = Tensor([x]).sigmoid().data[0]
        rhs = 1.0 - Tensor([-x]).sigmoid().data[0]
        assert abs(lhs - rhs) < 1e-15

    def test_closed_form_value(self):
        assert Tensor([1.0]).sigmoid().data[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_strictly_inside_unit_interval(self):
        # includes saturating magnitudes where the naive formula rounds to 0/1
        vals = Tensor([-1000.0, -50.0, 0.0, 50.0, 1000.0]).sigmoid().data
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = Tensor(rng.normal(scale=100.0, size=32)).sigmoid().data
            assert np.all(out > 0.0) and np.all(out < 1.0)


class TestMaskedSoftmax:
    def test_uniform_case(self):
        out = masked_softmax(Tensor([[1.0, 1.0, 1.0]]), Mask([[1.0, 1.0, 1.0]]))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_single_valid_position(self):
        out = masked_softmax(Tensor([[5.0, 9.0]]), Mask([[1.0, 0.0]]))
        assert out.data.tolist() == [[1.0, 0.0]]

    def test_direct_evaluation(self):
        out = masked_softmax(Tensor([[1.0, 2.0]]), Mask([[1.0, 1.0]]))
        e1, e2 = math.exp(1.0), math.exp(2.0)
        assert out.data[0] == pytest.approx([e1 / (e1 + e2), e2 / (e1 + e2)], abs=1e-12)

    def test_rows_sum_to_one_and_zero_at_padding(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            B, L = rng.integers(1, 6), int(rng.integers(2, 9))
            lengths = rng.integers(1, L + 1, size=B)
            mask = Mask.from_lengths(lengths, L)
            out = masked_softmax(Tensor(rng.normal(size=(B, L)) * 5), mask).data
            sums = (out * mask.data).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) < 1e-12)
            assert np.all(out[mask.data == 0.0] == 0.0)

    def test_empty_row_is_a_precondition_error(self):
        # a mask cannot be emptied after its check, so the op need not re-check
        mask = Mask([[1.0, 1.0]])
        with pytest.raises(ValueError, match="read-only"):
            mask.data[0] = 0.0
        assert masked_softmax(Tensor([[1.0, 2.0]]), mask).data.sum() == 1.0


class TestMaskedPooling:
    def test_identical_valid_tokens_token_axis(self):
        v = np.array([2.0, -1.0, 0.5])
        x = Tensor(np.stack([v, v, np.zeros(3)])[None, :, :])
        mask = Mask([[1.0, 1.0, 0.0]])
        assert np.array_equal(masked_maxpool(x, mask, "token").data[0], v)
        assert np.allclose(masked_avgpool(x, mask, "token").data[0], v)

    def test_single_valid_token(self):
        x = Tensor([[[1.0, 2.0], [9.0, 9.0]]])
        mask = Mask([[1.0, 0.0]])
        assert masked_maxpool(x, mask, "token").data.tolist() == [[1.0, 2.0]]
        assert masked_avgpool(x, mask, "token").data.tolist() == [[1.0, 2.0]]

    def test_hand_max(self):
        x = Tensor([[[1.0, 5.0], [3.0, 2.0]]])
        assert masked_maxpool(x, Mask([[1.0, 1.0]]), "token").data.tolist() == [[3.0, 5.0]]

    def test_hand_avg(self):
        x = Tensor([[[1.0, 5.0], [3.0, 3.0]]])
        assert masked_avgpool(x, Mask([[1.0, 1.0]]), "token").data.tolist() == [[2.0, 4.0]]

    def test_feature_axis_shapes_and_padding_zeroed(self):
        x = Tensor([[[1.0, 5.0], [3.0, 2.0]]])
        mask = Mask([[1.0, 0.0]])
        mx = masked_maxpool(x, mask, "feature")
        av = masked_avgpool(x, mask, "feature")
        assert mx.data.tolist() == [[5.0, 0.0]]
        assert av.data.tolist() == [[3.0, 0.0]]

    def test_append_masked_padding_is_a_noop(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            B, L, D = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(1, 5))
            lengths = rng.integers(1, L + 1, size=B)
            mask = Mask.from_lengths(lengths, L)
            x = rng.normal(size=(B, L, D))
            pad = rng.normal(size=(B, 2, D))  # junk content under the padding
            x_ext = np.concatenate([x, pad], axis=1)
            mask_ext = mask.extended(2)
            for axis in ("token", "feature"):
                for pool in (masked_maxpool, masked_avgpool):
                    base = pool(Tensor(x), mask, axis).data
                    ext = pool(Tensor(x_ext), mask_ext, axis).data
                    if axis == "token":
                        assert np.array_equal(base, ext)
                    else:
                        assert np.array_equal(base, ext[:, :L])
                        assert np.all(ext[:, L:] == 0.0)

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            masked_maxpool(Tensor(np.zeros((1, 2, 2))), Mask([[1.0, 1.0]]), "rows")


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward((x * x).sum())
        assert x.grad.tolist() == [2.0, 4.0]

    def test_only_leaves_hold_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        square = x * x
        loss = square.sum()
        backward(loss)
        assert square.grad is None and loss.grad is None
        assert x.grad.tolist() == [2.0, 4.0]

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * x)

    def test_accumulation_without_reset(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        backward(loss)
        assert x.grad.tolist() == [4.0, 8.0]

    def test_reset_then_backward_equals_single_run(self):
        x = Tensor(np.random.default_rng(3).normal(size=5), requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        once = x.grad.copy()
        x.zero_grad()
        backward(loss)
        assert np.array_equal(once, x.grad)

    def test_shared_operand_counted_twice(self):
        x = Tensor([3.0], requires_grad=True)
        backward((x + x).sum())
        assert x.grad.tolist() == [2.0]

    def test_bias_broadcast_unreduces(self):
        w = Tensor(np.ones((3, 2)), requires_grad=False)
        b = Tensor(np.zeros(2), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        backward(((x @ w) + b).sum())
        assert b.grad.tolist() == [4.0, 4.0]

    def test_no_gradient_formed_for_a_constant_operand(self, monkeypatch):
        x = Tensor(np.arange(6.0).reshape(2, 3) - 2.5, requires_grad=True)
        c = np.array([0.5, -3.0, 7.25])
        real, asked = tensor_module._unbroadcast, []

        def spy(grad, shape):
            asked.append(shape)
            return real(grad, shape)

        monkeypatch.setattr(tensor_module, "_unbroadcast", spy)
        backward((x * Tensor(c)).sum())
        assert (3,) not in asked
        expected = np.broadcast_to(c, (2, 3))
        assert x.grad.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestNumericGuards:
    def test_overflow_is_an_error_not_a_value(self):
        big = Tensor([1e308])
        with pytest.raises(NumericError):
            with np.errstate(over="ignore"):
                big * big

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = (x * x).sum()
        assert not out.requires_grad
        backward(out)  # silently nothing to do
        assert x.grad.tolist() == [0.0]


class TestMask:
    def test_rejects_non_binary_flags(self):
        with pytest.raises(ContractError):
            Mask([[1.0, 0.5]])

    def test_rejects_empty_rows(self):
        with pytest.raises(ContractError):
            Mask([[0.0, 0.0], [1.0, 0.0]])

    def test_keeps_a_read_only_copy_of_its_flags(self):
        flags = np.array([[1.0, 0.0]])
        mask = Mask(flags)
        flags[0, 0] = 0.0
        assert mask.data.tolist() == [[1.0, 0.0]]
        with pytest.raises(ValueError, match="read-only"):
            mask.data[0, 1] = 1.0

    def test_from_lengths(self):
        mask = Mask.from_lengths([1, 3], 4)
        assert mask.data.tolist() == [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]]
