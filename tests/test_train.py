import dataclasses
import itertools
import math
import weakref

import numpy as np
import pytest

from seqattn.data import LabeledCorpus, make_synthetic
from seqattn.errors import ConfigError, ContractError, NumericError
from seqattn.model import Model, encode_embeddings, init_model, parameter_shapes
from seqattn.sam import SamConfig
from seqattn.tensor import RowGrad, Tensor
from seqattn import train
from seqattn.train import (
    ABLATION_SETTINGS,
    AdamState,
    TrainConfig,
    ablation_suite,
    adamw_step,
    classification_report,
    default_delta_grid,
    delta_sweep,
    init_adam_state,
    lookahead_sync,
    train_run,
)


def single_param(value):
    p = Tensor(np.array([value]), requires_grad=True)
    return {"p": p}


class TestAdamW:
    def test_zero_gradient_zero_decay_is_a_noop(self):
        params = single_param(1.5)
        cfg = TrainConfig(lr=0.1, weight_decay=0.0)
        adamw_step(params, {"p": np.zeros(1)}, init_adam_state(params), cfg)
        assert params["p"].data.tolist() == [1.5]

    def test_decay_only_path_scales_parameters(self):
        params = single_param(2.0)
        cfg = TrainConfig(lr=0.1, weight_decay=0.01)
        adamw_step(params, {"p": np.zeros(1)}, init_adam_state(params), cfg)
        assert params["p"].data[0] == pytest.approx(2.0 * (1.0 - 0.001), abs=1e-15)

    def test_first_step_closed_form(self):
        # from zero moments with g=1: m_hat = v_hat = 1, so dp = -lr / (1 + eps)
        params = single_param(0.0)
        cfg = TrainConfig(lr=0.05, weight_decay=0.0)
        adamw_step(params, {"p": np.ones(1)}, init_adam_state(params), cfg)
        expected = -cfg.lr * (1.0 / (1.0 + cfg.eps))
        assert params["p"].data[0] == pytest.approx(expected, abs=1e-12)

    def test_nan_gradient_aborts_with_parameter_name(self):
        params = single_param(0.0)
        with pytest.raises(NumericError, match="'p'"):
            adamw_step(params, {"p": np.array([np.nan])}, init_adam_state(params), TrainConfig())


class TestLookahead:
    def test_alpha_one_jumps_slow_to_fast(self):
        fast = single_param(2.0)
        slow = {"p": np.zeros(1)}
        lookahead_sync(fast, slow, k=1, alpha=1.0, step_count=1)
        assert slow["p"].tolist() == [2.0]
        assert fast["p"].data.tolist() == [2.0]

    def test_alpha_zero_resets_fast_to_slow(self):
        fast = single_param(2.0)
        slow = {"p": np.zeros(1)}
        lookahead_sync(fast, slow, k=1, alpha=0.0, step_count=1)
        assert slow["p"].tolist() == [0.0]
        assert fast["p"].data.tolist() == [0.0]

    def test_midpoint_interpolation(self):
        fast = single_param(2.0)
        slow = {"p": np.zeros(1)}
        lookahead_sync(fast, slow, k=5, alpha=0.5, step_count=5)
        assert slow["p"].tolist() == [1.0]
        assert fast["p"].data.tolist() == [1.0]

    def test_off_cycle_steps_are_noops(self):
        fast = single_param(2.0)
        slow = {"p": np.zeros(1)}
        for step in (1, 2, 3, 4):
            lookahead_sync(fast, slow, k=5, alpha=0.5, step_count=step)
        assert slow["p"].tolist() == [0.0]
        assert fast["p"].data.tolist() == [2.0]


def reference_adam(p0, grad_fn, lr, beta1, beta2, eps, steps):
    # textbook Adam, written straight from the update equations
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(p)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(p.copy())
    return trajectory


def test_adamw_with_wd0_alpha1_k1_degenerates_to_adam():
    # quadratic bowl: f(p) = (p0-3)^2 + 2 (p1+1)^2
    def grad_fn(p):
        return np.array([2.0 * (p[0] - 3.0), 4.0 * (p[1] + 1.0)])

    cfg = TrainConfig(lr=0.05, weight_decay=0.0, lookahead_k=1, lookahead_alpha=1.0)
    params = {"p": Tensor(np.array([0.0, 0.0]), requires_grad=True)}
    state = init_adam_state(params)
    slow = {"p": params["p"].data.copy()}
    mine = []
    for step in range(1, 101):
        g = grad_fn(params["p"].data)
        adamw_step(params, {"p": g}, state, cfg)
        lookahead_sync(params, slow, cfg.lookahead_k, cfg.lookahead_alpha, step)
        mine.append(params["p"].data.copy())

    theirs = reference_adam(np.zeros(2), grad_fn, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, 100)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(mine, theirs))
    assert worst < 1e-9


def unblocked_adamw_step(params, grads, state: AdamState, cfg: TrainConfig) -> None:
    # the whole-array AdamW expression that the blocked update replaced, verbatim
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data[...] = (
            p.data
            - cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps))
            - cfg.lr * cfg.weight_decay * p.data
        )


def unblocked_lookahead_sync(fast, slow, k, alpha, step_count) -> None:
    # the whole-array lookahead expression that the blocked sync replaced, verbatim
    if step_count % k != 0:
        return
    for name, p in fast.items():
        slow[name] += alpha * (p.data - slow[name])
        p.data[...] = slow[name]


BLOCK = train._BLOCK_ELEMENTS
OPTIMIZER_SHAPES = {
    "bias": (64,),
    "single": (1,),
    # a table over several blocks whose row count is not a multiple of rows per block
    "table": (3 * (BLOCK // 48) + 7, 48),
    "long-rows": (3, 20000),
    "scalar": (),
}


def sparse_gradient(rng, shape):
    """Gaussian values on at most 300 rows, zero elsewhere, like a table's gradient."""
    g = np.zeros(shape)
    if not shape:
        g[...] = rng.normal()
        return g
    rows = rng.choice(shape[0], size=min(shape[0], 300), replace=False)
    g[rows] = rng.normal(size=(len(rows), *shape[1:]))
    return g


def optimizer_params(rng):
    params = {}
    for name, shape in OPTIMIZER_SHAPES.items():
        data = rng.normal(size=shape)
        data[rng.random(size=shape) < 0.05] = -0.0  # keep signed zeros in play
        params[name] = Tensor(data, requires_grad=True)
    return params


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestBlockedOptimizer:
    def test_shapes_cover_block_edges(self):
        table_rows, dim = OPTIMIZER_SHAPES["table"]
        rows_per_block = BLOCK // dim
        assert table_rows > 3 * rows_per_block and table_rows % rows_per_block != 0
        assert OPTIMIZER_SHAPES["long-rows"][1] > BLOCK

    def test_ten_steps_match_unblocked_expressions_bit_for_bit(self):
        cfg = TrainConfig(lr=0.05, weight_decay=0.01, lookahead_k=3, lookahead_alpha=0.5)
        mine = optimizer_params(np.random.default_rng(3))
        theirs = optimizer_params(np.random.default_rng(3))
        my_state, their_state = init_adam_state(mine), init_adam_state(theirs)
        my_slow = {n: p.data.copy() for n, p in mine.items()}
        their_slow = {n: p.data.copy() for n, p in theirs.items()}
        rng = np.random.default_rng(4)
        for step in range(1, 11):
            grads = {n: sparse_gradient(rng, shape) for n, shape in OPTIMIZER_SHAPES.items()}
            adamw_step(mine, grads, my_state, cfg)
            unblocked_adamw_step(theirs, grads, their_state, cfg)
            lookahead_sync(mine, my_slow, cfg.lookahead_k, cfg.lookahead_alpha, step)
            unblocked_lookahead_sync(theirs, their_slow, cfg.lookahead_k, cfg.lookahead_alpha, step)
        assert my_state.t == their_state.t == 10
        for name in OPTIMIZER_SHAPES:
            assert mine[name].data.shape == OPTIMIZER_SHAPES[name]
            assert same_bits(mine[name].data, theirs[name].data), name
            assert same_bits(my_state.m[name], their_state.m[name]), name
            assert same_bits(my_state.v[name], their_state.v[name]), name
            assert same_bits(my_slow[name], their_slow[name]), name

    def test_non_finite_gradient_raises_before_that_parameter_is_touched(self):
        rng = np.random.default_rng(5)
        params = optimizer_params(rng)
        state = init_adam_state(params)
        adamw_step(params, {n: sparse_gradient(rng, s) for n, s in OPTIMIZER_SHAPES.items()},
                   state, TrainConfig())
        grads = {n: sparse_gradient(rng, s) for n, s in OPTIMIZER_SHAPES.items()}
        grads["table"][-1, -1] = np.inf  # last block of a later parameter
        before = {n: (params[n].data.copy(), state.m[n].copy(), state.v[n].copy())
                  for n in OPTIMIZER_SHAPES}
        with pytest.raises(NumericError, match="'table'"):
            adamw_step(params, grads, state, TrainConfig())
        assert not same_bits(params["bias"].data, before["bias"][0])  # earlier ones stepped
        data, m, v = before["table"]
        assert same_bits(params["table"].data, data)
        assert same_bits(state.m["table"], m)
        assert same_bits(state.v["table"], v)


def table_params(rng):
    """A multi-block table whose rows include -0.0 and subnormal weights,
    and a bias that always gets a dense gradient."""
    data = rng.normal(size=OPTIMIZER_SHAPES["table"])
    data[700:710] = -0.0
    data[710:720] = 5e-324  # the smallest subnormal
    data[720:730] = -3e-310
    return {"table": Tensor(data, requires_grad=True),
            "bias": Tensor(rng.normal(size=48), requires_grad=True)}


def row_grad(rows, values, shape=OPTIMIZER_SHAPES["table"]):
    return RowGrad(np.asarray(rows), np.asarray(values, dtype=np.float64), shape)


class TestRowSparseGradients:
    """Table gradients written as row records (``RowGrad``) leave most rows
    without a gradient, and the finite check reads only the recorded rows;
    the result must equal the dense expression bit for bit."""

    def run_steps(self, gradients):
        cfg = TrainConfig(lr=0.05, weight_decay=0.01)
        mine, theirs = table_params(np.random.default_rng(8)), table_params(np.random.default_rng(8))
        my_state, their_state = init_adam_state(mine), init_adam_state(theirs)
        for step, table_grads in enumerate(gradients, start=1):
            for params in (mine, theirs):
                for p in params.values():
                    p.zero_grad()
                for g in table_grads:
                    params["table"]._accumulate(g)
                params["bias"]._accumulate(np.full(48, 0.1 * step))
            adamw_step(mine, {n: p.grad for n, p in mine.items()}, my_state, cfg)
            unblocked_adamw_step(theirs, {n: p.grad for n, p in theirs.items()}, their_state, cfg)
            for name in mine:
                assert same_bits(mine[name].data, theirs[name].data), (step, name)
                assert same_bits(my_state.m[name], their_state.m[name]), (step, name)
                assert same_bits(my_state.v[name], their_state.v[name]), (step, name)
        return mine, my_state

    def test_matches_dense_expression_bit_for_bit(self):
        rows, dim = OPTIMIZER_SHAPES["table"]
        per_block = BLOCK // dim
        rng = np.random.default_rng(9)

        def some(lo, hi, n):
            picked = np.sort(rng.choice(np.arange(lo, hi), size=n, replace=False))
            return row_grad(picked, rng.normal(size=(n, dim)))

        negative_subnormal_m = row_grad([400], np.full((1, dim), -1e-310))
        zero_values = row_grad([401], np.zeros((1, dim)))
        gradients = [
            [some(0, 300, 250), some(per_block, 2 * per_block, 20)],
            [negative_subnormal_m, zero_values],  # both rows then stay idle
            [],  # no gradient for the table: its row record is []
            [some(0, per_block, 30)],
            [some(per_block, 2 * per_block, 10), some(per_block, 2 * per_block, 10)],
            [some(3 * per_block, rows, 3)],
            [some(0, 2 * per_block, 40)],
            [some(0, rows, 50), rng.normal(size=(rows, dim))],  # dense: no row record
            [some(0, rows, 50)],
            [],
            [some(2 * per_block, 3 * per_block, 5)],
            [some(0, rows, 5)],
        ]
        params, state = self.run_steps(gradients)
        assert state.t == 12
        assert np.all(np.isfinite(params["table"].data))

    def test_idle_subnormal_and_zero_rows_before_any_dense_gradient(self):
        rows, dim = OPTIMIZER_SHAPES["table"]
        gradients = [[row_grad([400, 705, 715], np.full((3, dim), -1e-310))],
                     [row_grad([401, 725], np.zeros((2, dim)))]]
        gradients += [[]] * 8
        _, state = self.run_steps(gradients)
        # the negative subnormal m of the rows written once decays toward
        # zero under the dense rule, and the untouched rows keep m at +0.0
        assert np.all(state.m["table"][[400, 705, 715]] <= 0.0)
        untouched = np.ones(rows, dtype=bool)
        untouched[[400, 401, 705, 715, 725]] = False
        assert same_bits(state.m["table"][untouched], np.zeros((untouched.sum(), dim)))

    def test_own_gradient_arrays_ignore_the_row_record(self):
        # after zero_grad the record is [], but the caller's arrays are dense
        cfg = TrainConfig(lr=0.05, weight_decay=0.01)
        mine, theirs = table_params(np.random.default_rng(8)), table_params(np.random.default_rng(8))
        my_state, their_state = init_adam_state(mine), init_adam_state(theirs)
        rng = np.random.default_rng(10)
        for _ in range(3):
            grads = {n: sparse_gradient(rng, p.shape) for n, p in mine.items()}
            for p in mine.values():
                p.zero_grad()
            adamw_step(mine, grads, my_state, cfg)
            unblocked_adamw_step(theirs, grads, their_state, cfg)
        for name in mine:
            assert same_bits(mine[name].data, theirs[name].data), name
            assert same_bits(my_state.m[name], their_state.m[name]), name
            assert same_bits(my_state.v[name], their_state.v[name]), name

    def test_scalar_and_vector_parameters(self):
        # a 0-d parameter has no rows; a vector over several blocks takes
        # row-sparse writes of single elements
        cfg = TrainConfig(lr=0.05, weight_decay=0.01)
        size = 2 * BLOCK + 5

        def params():
            rng = np.random.default_rng(12)
            vector = rng.normal(size=size)
            vector[BLOCK : BLOCK + 10] = -0.0
            vector[BLOCK + 10 : BLOCK + 20] = -5e-324
            return {"scalar": Tensor(np.array(-0.0), requires_grad=True),
                    "vector": Tensor(vector, requires_grad=True)}

        mine, theirs = params(), params()
        my_state, their_state = init_adam_state(mine), init_adam_state(theirs)
        writes = [[3, 40], [], [BLOCK - 1], [2 * BLOCK + 4], []]
        for step, rows in enumerate(writes, start=1):
            for ps in (mine, theirs):
                for p in ps.values():
                    p.zero_grad()
                if rows:
                    ps["vector"]._accumulate(RowGrad(np.array(rows), np.full(len(rows), 0.5), (size,)))
                if step % 2:
                    ps["scalar"]._accumulate(np.array(0.25 * step))
            adamw_step(mine, {n: p.grad for n, p in mine.items()}, my_state, cfg)
            unblocked_adamw_step(theirs, {n: p.grad for n, p in theirs.items()}, their_state, cfg)
            for name in mine:
                assert same_bits(mine[name].data, theirs[name].data), (step, name)
                assert same_bits(my_state.m[name], their_state.m[name]), (step, name)
                assert same_bits(my_state.v[name], their_state.v[name]), (step, name)

    def test_inf_in_a_written_row_raises_and_leaves_the_table_untouched(self):
        rows, dim = OPTIMIZER_SHAPES["table"]
        rng = np.random.default_rng(11)
        params = table_params(rng)
        state = init_adam_state(params)
        table = params["table"]
        for step in range(3):
            table.zero_grad()
            table._accumulate(row_grad([2 + step, 500], rng.normal(size=(2, dim))))
            adamw_step(params, {n: p.grad for n, p in params.items()}, state, TrainConfig())
        table.zero_grad()
        values = rng.normal(size=(2, dim))
        values[1, 7] = np.inf
        table._accumulate(row_grad([3, rows - 1], values))
        before = (table.data.copy(), state.m["table"].copy(), state.v["table"].copy())
        with pytest.raises(NumericError, match="'table'"):
            adamw_step(params, {n: p.grad for n, p in params.items()}, state, TrainConfig())
        assert same_bits(table.data, before[0])
        assert same_bits(state.m["table"], before[1])
        assert same_bits(state.v["table"], before[2])


class TestClassificationReport:
    def test_all_correct(self):
        labels = np.array([0, 1, 1, 0])
        report = classification_report(labels, labels.copy(), 2)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.binary_f1 == 1.0

    def test_one_sided_predictions_on_balanced_set(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.ones(4, dtype=int)
        report = classification_report(labels, preds, 2)
        assert report.accuracy == 0.5
        assert report.binary_f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.per_class[0]["f1"] == 0.0  # empty intersection convention

    def test_confusion_row_sums_equal_class_counts(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        report = classification_report(labels, preds, 3)
        assert report.confusion.sum() == 60
        for c in range(3):
            assert report.confusion[c].sum() == (labels == c).sum()


@pytest.fixture(scope="module")
def trigger_corpus():
    return make_synthetic(n=800, vocab_size=50, trigger_rule="trigger", seed=1)


def vector_corpus(n: int) -> LabeledCorpus:
    """(L_i, 8) float64 records; class 1 carries a strong positive direction
    in feature 0."""
    rng = np.random.default_rng(0)
    seqs = []
    for i in range(n):
        label = i % 2
        vec = rng.normal(size=(int(rng.integers(3, 7)), 8)).astype(np.float32).astype(np.float64)
        vec[:, 0] += 3.0 * label
        seqs.append((vec, label))
    return LabeledCorpus(seqs, num_classes=2)


def quick_cfg(**kw):
    defaults = dict(lr=0.05, max_epochs=6, seed=1, folds=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainRun:
    def test_separable_corpus_learned(self, trigger_corpus):
        cfg = SamConfig(d_model=32, max_len=16)
        result = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=10))
        assert result.mean_metric >= 0.99
        for fo in result.fold_outcomes:
            assert fo.report.accuracy >= 0.99

    def test_delta_one_degenerates_to_majority(self, trigger_corpus):
        cfg = SamConfig(d_model=16, max_len=16, delta=1.0)
        result = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=2))
        # n=800, 2 stratified folds: every dev fold is exactly balanced
        for fo in result.fold_outcomes:
            assert fo.report.accuracy == 0.5

    def test_same_seed_bit_identical_history(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        a = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=3))
        b = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=3))
        strip = lambda h: [{k: v for k, v in r.items() if k != "seconds"} for r in h]
        assert strip(a.history) == strip(b.history)

    def test_training_loss_mostly_monotone_on_separable_data(self, trigger_corpus):
        cfg = SamConfig(d_model=16, max_len=16)
        result = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=10, folds=1))
        losses = [r["value"] for r in result.history if r["metric"] == "loss"]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-3)
        assert drops >= 0.9 * (len(losses) - 1)

    def test_folds_one_trains_once(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        result = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=2, folds=1))
        assert len(result.fold_outcomes) == 1

    def test_pad_embedding_row_stays_zero_after_training(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        result = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=4))
        weight = result.model.table
        assert weight is result.model.parameters()["embed.table"]
        # +0.0 with the sign bit clear: the row never gets a gradient, and
        # nothing re-zeroes it
        for arr in (weight.data[0], weight.grad[0]):
            assert np.all(arr == 0.0) and not np.any(np.signbit(arr))
        assert np.any(weight.data[1:] != 0.0)

    def test_dropout_path_runs_and_stays_deterministic(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        a = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=2, dropout=0.3))
        b = train_run(trigger_corpus, cfg, quick_cfg(max_epochs=2, dropout=0.3))
        assert a.mean_metric == b.mean_metric

    def test_dropout_without_a_generator_is_refused(self):
        model = init_model(SamConfig(d_model=4, max_len=3), 2, "mean", np.random.default_rng(0))
        batch = encode_embeddings([(np.ones((2, 4)), 0), (np.arange(12.0).reshape(3, 4), 1)], 3)
        with pytest.raises(ContractError, match="generator"):
            model.loss(batch, dropout=0.3)
        model.loss(batch, dropout=0.0)
        model.loss(batch, dropout=0.3, rng=np.random.default_rng(1))

    def test_run_bytes_counts_five_copies_of_each_parameter_and_the_encoded_rows(self):
        shapes = parameter_shapes(SamConfig(d_model=4, max_len=3, bottleneck_ratio=2), 2, vocab_size=5)
        # table 5*4; ffn_f 4*2 + 2 + 2*4 + 4; ffn_t 3*1 + 1 + 1*3 + 3; head 4*2 + 2
        assert sum(math.prod(s) for s in shapes.values()) == 20 + 22 + 10 + 10
        assert train.run_bytes(shapes, rows=7, row_bytes=16 * 3) == 8 * 5 * 62 + 7 * 16 * 3
        assert train.run_bytes({}, rows=0, row_bytes=9) == 0

    def test_a_fold_holds_one_best_state_copy_at_a_time(self, monkeypatch):
        # every epoch improves on the last, so every epoch takes a copy
        real_evaluate, scores = train.evaluate, itertools.count(1)
        monkeypatch.setattr(train, "evaluate", lambda model, batch: dataclasses.replace(
            real_evaluate(model, batch), binary_f1=float(next(scores))))
        real_state_arrays, earlier = Model.state_arrays, []

        def state_arrays(model):
            assert all(ref() is None for ref in earlier), "an earlier best-state copy is still alive"
            arrays = real_state_arrays(model)
            earlier.extend(weakref.ref(a) for a in arrays.values())
            return arrays

        monkeypatch.setattr(Model, "state_arrays", state_arrays)
        corpus = make_synthetic(n=90, vocab_size=20, trigger_rule="trigger", seed=1)
        result = train_run(corpus, SamConfig(d_model=4, max_len=8), quick_cfg(max_epochs=3, folds=2))
        assert [fo.best_epoch for fo in result.fold_outcomes] == [3, 3]
        assert len(earlier) == 2 * 3 * len(result.model.parameters())

    def test_precomputed_embeddings_path(self):
        cfg = SamConfig(d_model=8, max_len=8)
        result = train_run(vector_corpus(400), cfg, quick_cfg(lr=0.1, max_epochs=25))
        assert result.mean_metric >= 0.9
        assert result.model.table is None


class TestDrivers:
    def test_ablation_settings_fixed_roster(self):
        assert list(ABLATION_SETTINGS) == ["baseline", "-FAM", "-TAM", "TAM+FAM", "delta=0.1", "SAM"]

    def test_ablation_suite_rows(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        rows = ablation_suite(trigger_corpus, cfg, quick_cfg(max_epochs=2))
        assert [setting for setting, _ in rows] == list(ABLATION_SETTINGS)
        assert all(result is not None for _, result in rows)
        assert all(result.seconds_per_epoch > 0 for _, result in rows)
        baseline = rows[0][1].model.state_arrays()
        full = rows[-1][1].model.state_arrays()
        diffs = [np.max(np.abs(baseline[k] - full[k])) for k in baseline]
        assert max(diffs) > 1e-8  # settings train to different parameters

    def test_unknown_setting_rejected(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        with pytest.raises(ConfigError, match="valid settings"):
            ablation_suite(trigger_corpus, cfg, quick_cfg(), settings=["SAM", "nope"])

    def test_empty_roster_rejected(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        with pytest.raises(ConfigError, match="no ablation setting"):
            ablation_suite(trigger_corpus, cfg, quick_cfg(), settings=[])

    def test_default_grid_has_17_points(self):
        grid = default_delta_grid()
        assert len(grid) == 17
        assert grid[0] == 0.0 and grid[-1] == 0.8
        assert default_delta_grid(0.0, 1.0, 0.5) == [0.0, 0.5, 1.0]
        assert default_delta_grid(0.3, 0.3, 0.1) == [0.3]
        assert len(default_delta_grid(0.0, 1.0, 0.001)) == train.MAX_GRID_POINTS == 1001

    @pytest.mark.parametrize("start, stop, step", [
        (0.5, 0.2, 0.1), (0.0, 0.8, 0.0), (0.0, 0.8, float("nan")), (-0.1, 0.5, 0.1), (0.5, 1.2, 0.1),
        (0.0, 0.8, float("inf")), (0.0, 1.0, 0.000999), (0.0, 1.0, 1e-6), (0.0, 1.0, 1e-320),
    ])
    def test_grid_rejects_bad_step_or_range(self, start, stop, step):
        with pytest.raises(ConfigError):
            default_delta_grid(start, stop, step)

    def test_delta_sweep_metrics_and_gate_bound(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        points = delta_sweep(trigger_corpus, cfg, quick_cfg(max_epochs=2), [0.0, 0.5, 1.0])
        assert [pt.delta for pt in points] == [0.0, 0.5, 1.0]
        for pt in points:
            assert pt.max_gate <= 1.0 - pt.delta + 1e-15

    def test_delta_sweep_on_vectors_keeps_gate_bound(self):
        cfg = SamConfig(d_model=8, max_len=8)
        points = delta_sweep(vector_corpus(120), cfg, quick_cfg(max_epochs=1), [0.0, 0.3, 0.9])
        assert [pt.delta for pt in points] == [0.0, 0.3, 0.9]
        for pt in points:
            assert pt.max_gate <= 1.0 - pt.delta
            assert 0.0 <= pt.metric <= 1.0

    def test_sweep_rejects_unsorted_or_out_of_range(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        with pytest.raises(ConfigError):
            delta_sweep(trigger_corpus, cfg, quick_cfg(), [0.5, 0.0])
        with pytest.raises(ConfigError):
            delta_sweep(trigger_corpus, cfg, quick_cfg(), [0.0, 1.5])
        with pytest.raises(ConfigError, match="no sweep delta"):
            delta_sweep(trigger_corpus, cfg, quick_cfg(), [])

    def test_sweep_at_zero_matches_full_stage_ablation_row(self, trigger_corpus):
        cfg = SamConfig(d_model=8, max_len=16)
        train_cfg = quick_cfg(max_epochs=2)
        points = delta_sweep(trigger_corpus, cfg, train_cfg, [0.0])
        rows = ablation_suite(trigger_corpus, cfg, train_cfg, settings=["SAM"])
        assert points[0].metric == rows[0][1].mean_metric


FOLDS = 3
SETTINGS = ["baseline", "-TAM", "SAM"]
DELTAS = [0.0, 0.3, 0.6]
EVERY_FOLD = {(c, f) for c in range(len(SETTINGS)) for f in range(FOLDS)}


def configurations(driver, cfg):
    if driver == "train":
        return [cfg]
    if driver == "ablate":
        return [dataclasses.replace(cfg, **ABLATION_SETTINGS[s]) for s in SETTINGS]
    return [dataclasses.replace(cfg, delta=d) for d in DELTAS]


def drive(driver, corpus, cfg, train_cfg):
    """One entry per configuration: a TrainResult or None, or for the sweep a SweepPoint."""
    if driver == "train":
        return [train_run(corpus, cfg, train_cfg)]
    if driver == "ablate":
        return [result for _, result in ablation_suite(corpus, cfg, train_cfg, settings=SETTINGS)]
    return delta_sweep(corpus, cfg, train_cfg, DELTAS)


class TestDivergencePositions:
    """``_train_single`` raises NumericError at planted (configuration, fold)
    calls, configurations counted in call order; every other fold must train
    exactly as in an undisturbed run of its configuration."""

    corpus = make_synthetic(n=90, vocab_size=20, trigger_rule="trigger", seed=1)
    cfg = SamConfig(d_model=4, max_len=8)
    train_cfg = TrainConfig(lr=0.05, max_epochs=2, seed=1, folds=FOLDS)

    @pytest.mark.parametrize("driver, planted", [
        ("train", {(0, 1)}),
        ("train", {(0, f) for f in range(FOLDS)}),
        ("ablate", {(0, 0), (0, 1), (0, 2), (1, 1)}),
        ("ablate", EVERY_FOLD),
        ("sweep", {(0, 0), (0, 1), (0, 2), (1, 0)}),
        ("sweep", EVERY_FOLD),
    ], ids=["train-one", "train-all", "ablate-some", "ablate-all", "sweep-some", "sweep-all"])
    def test_only_planted_folds_diverge(self, monkeypatch, driver, planted):
        cfgs = configurations(driver, self.cfg)
        undisturbed = [train_run(self.corpus, c, self.train_cfg) for c in cfgs]
        real = train._train_single
        folds_seen = []

        def train_single(model, train_batch, dev_batch, cfg, fold, rng, metric):
            folds_seen.append(fold)
            if (folds_seen.count(0) - 1, fold) in planted:
                raise NumericError("planted")
            return real(model, train_batch, dev_batch, cfg, fold, rng, metric)

        monkeypatch.setattr(train, "_train_single", train_single)
        if all((c, f) in planted for c in range(len(cfgs)) for f in range(FOLDS)):
            with pytest.raises(NumericError, match="every fold diverged"):
                drive(driver, self.corpus, self.cfg, self.train_cfg)
            assert len(folds_seen) == len(cfgs) * FOLDS  # every configuration was tried
            return
        results = drive(driver, self.corpus, self.cfg, self.train_cfg)
        assert len(results) == len(cfgs)
        strip = lambda h: [{k: v for k, v in r.items() if k != "seconds"} for r in h]
        for c, (result, ref) in enumerate(zip(results, undisturbed)):
            kept = [fo for fo in ref.fold_outcomes if (c, fo.fold) not in planted]
            mean = float(np.mean([getattr(fo.report, ref.metric_name) for fo in kept])) if kept else None
            if driver == "sweep":
                assert result.metric == mean
                assert (result.max_gate is None) == (mean is None)
                continue
            if mean is None:
                assert result is None
                continue
            assert result.mean_metric == mean
            assert [fo.diverged for fo in result.fold_outcomes] == [(c, f) in planted for f in range(FOLDS)]
            for fo, ref_fo in zip(result.fold_outcomes, ref.fold_outcomes):
                if fo.diverged:
                    assert fo.report is None and fo.best_epoch == 0
                else:
                    assert fo.best_epoch == ref_fo.best_epoch
                    assert fo.report.confusion.tolist() == ref_fo.report.confusion.tolist()
            assert strip(result.history) == [r for r in strip(ref.history) if (c, r["fold"]) not in planted]


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lookahead_k=0)


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("weight_decay", float("nan")),
    ("weight_decay", float("inf")), ("weight_decay", float("-inf")),
])
def test_train_config_rejects_non_finite_or_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field.replace("_", " ")):
        TrainConfig(**{field: value})


def test_train_config_accepts_zero_betas_and_decay():
    # the betas are fixed class constants, so zero decay is the one case to set
    TrainConfig(weight_decay=0.0)


def test_adamw_constants_are_fixed_not_fields():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "lr", "weight_decay", "batch_size", "max_epochs", "lookahead_k", "lookahead_alpha",
        "seed", "folds", "dropout"]
    assert (TrainConfig().beta1, TrainConfig().beta2, TrainConfig().eps) == (0.9, 0.999, 1e-8)
    for name in ("beta1", "beta2", "eps"):
        with pytest.raises(TypeError):
            TrainConfig(**{name: 0.5})
