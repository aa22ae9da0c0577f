"""Optimization and evaluation harness.

AdamW with decoupled weight decay in a lookahead loop drives stratified
k-fold training with per-epoch dev evaluation and best-epoch selection.
Training, ablation and delta sweep share one runner, folds and seeds; it
raises NumericError only when every fold of every configuration diverged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .data import LabeledCorpus, kfold_split, memory_ceiling, train_dev_indices
from .backbone import Vocab
from .errors import ConfigError, DataError, NumericError
from .head import DEFAULT_POOLING
from .model import Batch, Model, encode_embeddings, encode_texts, init_model, parameter_shapes, take
from .sam import Order, SamConfig
from .tensor import Tensor, backward, no_grad


@dataclass
class TrainConfig:
    # AdamW's moment decay rates and denominator guard are fixed, not settings
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    lr: float = 0.02
    weight_decay: float = 1e-2
    batch_size: int = 32
    max_epochs: int = 50
    lookahead_k: int = 5
    lookahead_alpha: float = 0.5
    seed: int = 0
    folds: int = 5
    dropout: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.lr > 0 or not math.isfinite(self.lr):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not self.weight_decay >= 0 or not math.isfinite(self.weight_decay):
            raise ConfigError(f"weight decay must be non-negative and finite, got {self.weight_decay}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch size and epochs must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.lookahead_k < 1 or not 0.0 <= self.lookahead_alpha <= 1.0:
            raise ConfigError("lookahead needs k >= 1 and alpha in [0, 1]")
        if self.folds < 1:
            raise ConfigError(f"folds must be at least 1, got {self.folds}")
        if self.seed < 0:  # numpy's generators take only non-negative seeds
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    binary_f1: float
    per_class: list[dict]
    confusion: np.ndarray
    n: int


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam_state(params: dict[str, Tensor]) -> AdamState:
    return AdamState(
        m={name: np.zeros(p.data.shape) for name, p in params.items()},
        v={name: np.zeros(p.data.shape) for name, p in params.items()},
    )


# Elements per optimizer block. A block's rows of the weights, gradient and
# both moments, plus two scratch buffers, take 6 x 128 KiB in float64 and
# stay in L2 cache instead of streaming each temporary through DRAM.
_BLOCK_ELEMENTS = 1 << 14


def _row_blocks(arrays: tuple[np.ndarray, ...], scratch: int):
    """Yield views of one cache-sized block of rows of every array (all of
    one row count), followed by ``scratch`` buffers of that block of the
    first array.

    An array that fits in one block, as does every array with one row or
    none, is yielded whole; a row longer than a block is a block of its own.
    """
    lead = arrays[0]
    if lead.size <= _BLOCK_ELEMENTS:
        yield (*arrays, *(np.empty_like(lead) for _ in range(scratch)))
        return
    rows = len(lead)
    step = max(1, _BLOCK_ELEMENTS // math.prod(lead.shape[1:]))
    buffers = [np.empty((min(rows, step), *lead.shape[1:]), dtype=lead.dtype)
               for _ in range(scratch)]
    for lo in range(0, rows, step):
        views = [a[lo : lo + step] for a in arrays]
        n = len(views[0])
        yield (*views, *(b[:n] for b in buffers))


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One decoupled-weight-decay update over every parameter.

    Elementwise, block by block, in place: each block runs the ufuncs of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``w = w - lr*(m/bc1 / (sqrt(v/bc2) + eps)) - (lr*wd)*w`` in that
    expression's order, so the result is bit-identical to evaluating it
    over whole arrays.

    When ``grads`` holds the leaf's own buffer and the leaf keeps a record
    of row-sparse writes (``Tensor._rows``), the finite check reads only
    the recorded rows, since every other row of the buffer is +0.0.
    """
    state.t += 1
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.eps, cfg.lr
    c1, c2 = 1.0 - b1, 1.0 - b2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    decay = lr * cfg.weight_decay

    def update(w, g, m, v, t1, t2):
        np.multiply(m, b1, out=m)
        np.multiply(c1, g, out=t1)
        np.add(m, t1, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(c2, g, out=t1)
        np.multiply(t1, g, out=t1)
        np.add(v, t1, out=v)
        np.divide(m, bc1, out=t1)
        np.divide(v, bc2, out=t2)
        np.sqrt(t2, out=t2)
        np.add(t2, eps, out=t2)
        np.divide(t1, t2, out=t1)
        np.multiply(t1, lr, out=t1)
        np.multiply(decay, w, out=t2)
        np.subtract(w, t1, out=w)
        np.subtract(w, t2, out=w)

    for name, p in params.items():
        grad = grads[name]
        written = p._rows if grad is p.grad else None
        if written is None:
            finite = np.isfinite(grad).all()
        else:
            finite = all(np.isfinite(grad[rows]).all() for rows in written)
        if not finite:
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        for block in _row_blocks((p.data, grad, state.m[name], state.v[name]), scratch=2):
            update(*block)


def lookahead_sync(
    fast: dict[str, Tensor],
    slow: dict[str, np.ndarray],
    k: int,
    alpha: float,
    step_count: int,
) -> None:
    """Every k steps pull the slow weights toward the fast ones and reset:
    ``slow += alpha*(fast - slow)``, then ``fast = slow``, block by block."""
    if step_count % k != 0:
        return
    for name, p in fast.items():
        for w, s, t in _row_blocks((p.data, slow[name]), scratch=1):
            np.subtract(w, s, out=t)
            np.multiply(t, alpha, out=t)
            np.add(s, t, out=s)
            w[...] = s


def classification_report(labels: np.ndarray, preds: np.ndarray, num_classes: int) -> EvalReport:
    """Accuracy, per-class precision/recall/F1 (0 on empty denominators),
    macro F1, and the confusion matrix. Binary F1 scores dense class 1."""
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for truth, pred in zip(labels, preds):
        confusion[truth, pred] += 1
    per_class = []
    for c in range(num_classes):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(
            {"precision": float(precision), "recall": float(recall), "f1": float(f1),
             "support": int(confusion[c, :].sum())}
        )
    return EvalReport(
        accuracy=float(np.trace(confusion) / len(labels)),
        macro_f1=float(np.mean([pc["f1"] for pc in per_class])),
        binary_f1=float(per_class[1]["f1"]),
        per_class=per_class,
        confusion=confusion,
        n=len(labels),
    )


def evaluate(model: Model, batch: Batch) -> EvalReport:
    with no_grad():
        logits, _ = model.forward(batch)
    preds = logits.data.argmax(axis=1)
    return classification_report(batch.labels, preds, model.head.num_classes)


def metric_name_for(num_classes: int) -> str:
    return "binary_f1" if num_classes == 2 else "accuracy"


@dataclass
class FoldOutcome:
    fold: int
    report: EvalReport | None  # None where the fold diverged
    best_epoch: int

    @property
    def diverged(self) -> bool:
        return self.report is None


@dataclass
class TrainResult:
    model: Model
    metric_name: str
    mean_metric: float
    fold_outcomes: list[FoldOutcome]
    history: list[dict]
    seconds_per_epoch: float


def _train_single(
    model: Model,
    train_batch: Batch,
    dev_batch: Batch,
    cfg: TrainConfig,
    fold: int,
    rng: np.random.Generator,
    metric: str,
) -> tuple[EvalReport, int, list[dict], float]:
    """Train ``model`` for ``cfg.max_epochs`` epochs and leave it holding the
    parameters of its best epoch by dev ``metric``."""
    params = model.parameters()
    state = init_adam_state(params)
    slow = {name: p.data.copy() for name, p in params.items()}
    history: list[dict] = []
    # the first epoch always replaces these: its dev metric is finite
    best_value = -np.inf
    best_state: dict[str, np.ndarray] | None = None
    best_report: EvalReport | None = None
    best_epoch = 0
    step_count = 0
    epoch_seconds: list[float] = []

    n = len(train_batch)
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            model.zero_grad()
            loss = model.loss(take(train_batch, idx), dropout=cfg.dropout, rng=rng)
            backward(loss)
            total_loss += loss.item() * len(idx)
            adamw_step(params, {name: p.grad for name, p in params.items()}, state, cfg)
            step_count += 1
            lookahead_sync(params, slow, cfg.lookahead_k, cfg.lookahead_alpha, step_count)
        seconds = time.perf_counter() - started
        epoch_seconds.append(seconds)

        report = evaluate(model, dev_batch)
        value = getattr(report, metric)
        history.append(
            {"fold": fold, "epoch": epoch, "split": "train", "metric": "loss",
             "value": total_loss / n, "seconds": seconds}
        )
        for name in ("accuracy", "macro_f1", "binary_f1"):
            history.append(
                {"fold": fold, "epoch": epoch, "split": "dev", "metric": name,
                 "value": getattr(report, name), "seconds": seconds}
            )
        if value > best_value:
            best_value = value
            best_state = None  # one copy at a time: free the last before taking the next
            best_state = model.state_arrays()
            best_report = report
            best_epoch = epoch

    model.load_state_arrays(best_state)
    return best_report, best_epoch, history, float(np.mean(epoch_seconds))


def encode(corpus: LabeledCorpus, vocab: Vocab | None, cfg: SamConfig) -> Batch:
    """The model input of a corpus: token ids through ``vocab`` for texts,
    padded vectors for ``(L_i, D)`` arrays (no vocabulary), with FAM's
    views of them."""
    if vocab is not None:
        return encode_texts(corpus, vocab, cfg.max_len)
    return encode_embeddings(corpus.records, cfg.max_len)


def run_bytes(shapes: dict[str, tuple[int, ...]], rows: int, row_bytes: int) -> int:
    """A lower bound on the bytes a training run holds at once: five float64
    copies of each parameter of ``shapes`` (weights, gradient, AdamW's two
    moments, lookahead's slow copy) and ``rows`` encoded training records
    of ``row_bytes`` bytes each."""
    return 8 * 5 * sum(math.prod(shape) for shape in shapes.values()) + rows * row_bytes


def _train_folds(corpus: LabeledCorpus, assignment: np.ndarray, sam_cfg: SamConfig,
                 train_cfg: TrainConfig, pooling: str) -> TrainResult | None:
    """One configuration's folds, or None if all diverged; a frame of their own frees them on return."""
    metric = metric_name_for(corpus.num_classes)
    texts = isinstance(corpus.records[0][0], str)
    outcomes: list[FoldOutcome] = []
    history: list[dict] = []
    best_fold_value = -np.inf
    best_model: Model | None = None
    seconds: list[float] = []
    for fold in range(train_cfg.folds):
        train_idx, dev_idx = train_dev_indices(assignment, fold)
        rng = np.random.default_rng([train_cfg.seed, fold])
        train_set, dev_set = corpus.subset(train_idx), corpus.subset(dev_idx)
        vocab = Vocab.build(train_set.texts(), sam_cfg.max_len) if texts else None
        shapes = parameter_shapes(sam_cfg, corpus.num_classes, None if vocab is None else len(vocab))
        # a text position encodes as an int64 id and a float64 flag, a vector as
        # D values of at least 4 bytes each (SAMEMB1's float32) and a flag
        need = run_bytes(shapes, len(train_idx), sam_cfg.max_len * (16 if texts else 4 * sam_cfg.d_model + 8))
        if need > memory_ceiling():
            raise ConfigError(f"d_model={sam_cfg.d_model} and max_len={sam_cfg.max_len} need at least "
                              f"{need / 2**30:.3g} GiB, more than this process's physical memory "
                              "or address-space limit")
        model = init_model(sam_cfg, corpus.num_classes, pooling, rng, vocab=vocab)
        train_batch = encode(train_set, vocab, sam_cfg)
        dev_batch = encode(dev_set, vocab, sam_cfg)
        try:
            report, best_epoch, fold_history, spe = _train_single(
                model, train_batch, dev_batch, train_cfg, fold, rng, metric
            )
        except NumericError:
            outcomes.append(FoldOutcome(fold=fold, report=None, best_epoch=0))
            continue
        history.extend(fold_history)
        outcomes.append(FoldOutcome(fold=fold, report=report, best_epoch=best_epoch))
        seconds.append(spe)
        if getattr(report, metric) > best_fold_value:
            best_fold_value = getattr(report, metric)
            best_model = model

    if best_model is None:
        return None
    mean_metric = float(np.mean([getattr(fo.report, metric) for fo in outcomes if not fo.diverged]))
    return TrainResult(model=best_model, metric_name=metric, mean_metric=mean_metric, fold_outcomes=outcomes,
                       history=history, seconds_per_epoch=float(np.mean(seconds)))


def _runs(corpus: LabeledCorpus, cfgs: list[SamConfig], train_cfg: TrainConfig, pooling: str):
    """Yield ``(cfg, result)`` per configuration, all on the same folds and
    per-fold seeds. The result is None where every fold diverged; once every
    configuration has, raise NumericError, so callers consume to the end."""
    if corpus.num_classes < 2:
        raise DataError(f"need at least 2 distinct labels, got {corpus.num_classes}")
    # folds=1 trains once against a held-out fifth (fold 0 of an internal 5-fold)
    assignment = kfold_split(corpus, 5 if train_cfg.folds == 1 else train_cfg.folds, train_cfg.seed)
    completed = False
    for cfg in cfgs:
        result = _train_folds(corpus, assignment, cfg, train_cfg, pooling)
        completed = completed or result is not None
        yield cfg, result
    if not completed:
        raise NumericError("every fold diverged")


def train_run(
    corpus: LabeledCorpus,
    sam_cfg: SamConfig,
    train_cfg: TrainConfig,
    pooling: str = DEFAULT_POOLING,
) -> TrainResult:
    """Train one model per fold and keep the best by dev metric.

    A corpus of texts trains a table over each fold's training vocabulary;
    a corpus of ``(L_i, D)`` arrays trains the attention stage and head on
    those fixed vectors. ``folds=1`` trains once against a held-out fifth
    of the data. Deterministic for a fixed seed; a fold whose loss diverges
    is reported and skipped, and NumericError means every fold diverged.
    """
    [(_, result)] = _runs(corpus, [sam_cfg], train_cfg, pooling)
    return result


# Setting name -> config overrides, in emission order.
ABLATION_SETTINGS: dict[str, dict] = {
    "baseline": {"fam_enabled": False, "tam_enabled": False},
    "-FAM": {"fam_enabled": False, "tam_enabled": True},
    "-TAM": {"fam_enabled": True, "tam_enabled": False},
    "TAM+FAM": {"order": Order.TAM_THEN_FAM},
    "delta=0.1": {"delta": 0.1},
    "SAM": {},
}


def ablation_suite(
    corpus: LabeledCorpus,
    base_cfg: SamConfig,
    train_cfg: TrainConfig,
    settings: list[str] | None = None,
    pooling: str = DEFAULT_POOLING,
) -> list[tuple[str, TrainResult | None]]:
    """One ``(setting, result)`` row per setting, identical seeds throughout;
    the result is None where every fold diverged."""
    names = list(ABLATION_SETTINGS) if settings is None else list(settings)
    unknown = [s for s in names if s not in ABLATION_SETTINGS]
    valid = f"valid settings: {list(ABLATION_SETTINGS)}"
    if unknown:
        raise ConfigError(f"unknown setting(s) {unknown}; {valid}")
    if not names:
        raise ConfigError(f"no ablation setting given; {valid}")
    cfgs = [replace(base_cfg, **ABLATION_SETTINGS[name]) for name in names]
    return list(zip(names, [result for _, result in _runs(corpus, cfgs, train_cfg, pooling)]))


@dataclass
class SweepPoint:
    delta: float
    metric: float | None  # None, as is max_gate, where every fold diverged
    max_gate: float | None


MAX_GRID_POINTS = 1001


def default_delta_grid(start: float = 0.0, stop: float = 0.8, step: float = 0.05) -> list[float]:
    if not step > 0 or not math.isfinite(step):
        raise ConfigError(f"grid step must be positive and finite, got {step}")
    if not 0.0 <= start <= stop <= 1.0:
        raise ConfigError(f"grid range must satisfy 0 <= start <= stop <= 1, got {start}:{stop}")
    steps = (stop - start) / step + 1e-9  # inf for a subnormal step
    if steps >= MAX_GRID_POINTS:
        raise ConfigError(f"grid {start}:{stop}:{step} has more than {MAX_GRID_POINTS} points")
    count = int(np.floor(steps)) + 1
    return [round(start + i * step, 10) for i in range(count)]


def delta_sweep(
    corpus: LabeledCorpus,
    base_cfg: SamConfig,
    train_cfg: TrainConfig,
    deltas: list[float],
    pooling: str = DEFAULT_POOLING,
) -> list[SweepPoint]:
    """Train once per threshold value with a shared seed; also record the
    largest surviving feature-gate entry seen on a probe batch. A diverged
    threshold is a point of its own; NumericError means every one diverged."""
    if not deltas:
        raise ConfigError("no sweep delta given")
    if sorted(deltas) != list(deltas):
        raise ConfigError("sweep deltas must be sorted ascending")
    probe = corpus.subset(range(min(len(corpus), 64)))
    points: list[SweepPoint] = []
    for cfg, result in _runs(corpus, [replace(base_cfg, delta=float(d)) for d in deltas], train_cfg, pooling):
        metric = max_gate = None
        if result is not None:
            with no_grad():
                _, trace = result.model.forward(encode(probe, result.model.vocab, cfg))
            metric, max_gate = result.mean_metric, float(trace.fam_map.max())
        points.append(SweepPoint(delta=cfg.delta, metric=metric, max_gate=max_gate))
    return points
