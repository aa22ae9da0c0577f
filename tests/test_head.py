import math

import numpy as np
import pytest

from seqattn.errors import ContractError, DataError
from seqattn.gradcheck import finite_diff_check
from seqattn.head import cross_entropy, init_head, pool_sequence
from seqattn.tensor import Mask, Tensor, backward


class TestPoolSequence:
    def test_single_valid_token_under_every_strategy(self):
        x = Tensor([[[1.0, 2.0], [9.0, 9.0]]])
        mask = Mask([[1.0, 0.0]])
        for strategy in ("mean", "max", "first"):
            assert pool_sequence(x, mask, strategy).data.tolist() == [[1.0, 2.0]]

    def test_mean_of_identical_rows(self):
        v = [3.0, -1.0]
        x = Tensor([[v, v, v]])
        out = pool_sequence(x, Mask([[1.0, 1.0, 1.0]]), "mean")
        assert out.data.tolist() == [v]

    def test_mean_hand_case(self):
        x = Tensor([[[1.0, 3.0], [3.0, 5.0]]])
        assert pool_sequence(x, Mask([[1.0, 1.0]]), "mean").data.tolist() == [[2.0, 4.0]]

    def test_first_requires_valid_leading_position(self):
        x = Tensor(np.zeros((1, 2, 2)))
        mask = Mask([[0.0, 1.0]])
        with pytest.raises(ContractError):
            pool_sequence(x, mask, "first")

    def test_first_gradient_scatters_to_position_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 2)), requires_grad=True)
        mask = Mask(np.ones((2, 3)))
        backward(pool_sequence(x, mask, "first").sum())
        assert np.all(x.grad[:, 0, :] == 1.0)
        assert np.all(x.grad[:, 1:, :] == 0.0)


class TestCrossEntropy:
    def test_uniform_logits_cost_log_k(self):
        for k in (2, 3, 5):
            logits = Tensor(np.zeros((4, k)))
            loss = cross_entropy(logits, np.zeros(4, dtype=int))
            assert loss.item() == pytest.approx(math.log(k), abs=1e-12)

    def test_saturates_to_zero_with_large_margin(self):
        logits = Tensor([[20.0, 0.0], [20.0, 0.0]])
        assert cross_entropy(logits, [0, 0]).item() < 1e-6

    def test_hand_value(self):
        loss = cross_entropy(Tensor([[1.0, 2.0]]), [0])
        assert loss.item() == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        base = cross_entropy(Tensor(logits), labels).item()
        shifted = cross_entropy(Tensor(logits + 123.456), labels).item()
        assert abs(base - shifted) < 1e-12

    def test_loss_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = Tensor(rng.normal(size=(4, 3)) * 10)
            labels = rng.integers(0, 3, size=4)
            assert cross_entropy(logits, labels).item() >= 0.0

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        logits = Tensor(z, requires_grad=True)
        backward(cross_entropy(logits, labels))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        expected = probs.copy()
        expected[np.arange(3), labels] -= 1.0
        assert np.allclose(logits.grad, expected / 3.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        labels = np.array([0, 2, 1])
        logits = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert finite_diff_check(lambda t: cross_entropy(t, labels), logits) < 1e-6

    def test_out_of_range_label(self):
        with pytest.raises(DataError, match="row 1"):
            cross_entropy(Tensor(np.zeros((2, 2))), [0, 5])


def test_init_head_shapes_and_k_check():
    rng = np.random.default_rng(0)
    head = init_head(8, 3, rng)
    assert head.w.shape == (8, 3) and head.b.shape == (3,)
    with pytest.raises(Exception):
        init_head(8, 1, rng)
