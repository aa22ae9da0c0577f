"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import csv
import functools
import json
import time

import numpy as np

import seqattn.sam as sam_module
from seqattn.backbone import Vocab, embed, load_precomputed, store_precomputed
from seqattn.cli import main as cli_main
from seqattn.data import make_synthetic, parse_tsv, serialize_tsv
from seqattn.gradcheck import finite_diff_check
from seqattn.model import Batch, Model, encode_texts, init_model
from seqattn.sam import (
    SamConfig,
    SamParams,
    af_fam_apply,
    extend_token_ffn,
    fam_map,
    init_sam_params,
    sam_forward,
)
from seqattn.tensor import Mask, Tensor, backward, masked_avgpool, masked_maxpool, masked_softmax, no_grad
from seqattn.train import (
    TrainConfig,
    adamw_step,
    evaluate,
    init_adam_state,
    lookahead_sync,
    train_run,
)


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] {name}: FAIL")
                raise
            print(f"[criterion {number:02d}] {name}: PASS")
        return wrapper
    return deco


# --------------------------------------------------------------------------
# 1. equation fidelity against a straight-from-the-formulas oracle
# --------------------------------------------------------------------------

def _brute_force_stage(x, ffn_f, ffn_t, delta):
    """Direct transcription of the defining equations, no package code."""
    def ffn(v, p):
        return np.maximum(v @ p[0] + p[1], 0.0) @ p[2] + p[3]

    pooled_max_f = x.max(axis=1)
    pooled_avg_f = x.mean(axis=1)
    gate = 1.0 / (1.0 + np.exp(-(ffn(pooled_max_f, ffn_f) + ffn(pooled_avg_f, ffn_f))))
    filtered = np.maximum(gate - delta, 0.0)
    x_prime = filtered[:, None, :] * x
    pooled_max_t = x_prime.max(axis=2)
    pooled_avg_t = x_prime.mean(axis=2)
    logits = ffn(pooled_max_t, ffn_t) + ffn(pooled_avg_t, ffn_t)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    return weights[:, :, None] * x_prime


@criterion(1, "equation fidelity on a 1x3x4 input")
def test_equation_fidelity():
    started = time.perf_counter()
    x_data = np.array(
        [[[0.3, -1.2, 0.8, 2.0],
          [1.1, 0.4, -0.6, 0.2],
          [-0.5, 1.7, 0.9, -1.0]]]
    )
    w1f = np.linspace(-0.5, 0.5, 8).reshape(4, 2)
    b1f = np.array([0.1, -0.2])
    w2f = np.linspace(0.4, -0.4, 8).reshape(2, 4)
    b2f = np.array([0.05, 0.0, -0.05, 0.1])
    w1t = np.array([[0.3], [-0.2], [0.5]])
    b1t = np.array([0.05])
    w2t = np.array([[0.4, -0.1, 0.2]])
    b2t = np.array([0.0, 0.1, -0.1])
    delta = 0.25

    expected = _brute_force_stage(
        x_data, (w1f, b1f, w2f, b2f), (w1t, b1t, w2t, b2t), delta
    )

    params = SamParams(
        ffn_f=sam_module.FfnParams(Tensor(w1f), Tensor(b1f), Tensor(w2f), Tensor(b2f)),
        ffn_t=sam_module.FfnParams(Tensor(w1t), Tensor(b1t), Tensor(w2t), Tensor(b2t)),
    )
    cfg = SamConfig(d_model=4, max_len=3, delta=delta)
    out, _ = sam_forward(Tensor(x_data), Mask(np.ones((1, 3))), cfg, params)

    assert np.max(np.abs(out.data - expected)) < 1e-12
    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------------
# 2. gradient suite over the full loss at 20 kink-free random points
# --------------------------------------------------------------------------

def _top2_gap(values, axis):
    ordered = np.sort(values, axis=axis)
    top = np.take(ordered, -1, axis=axis)
    runner_up = np.take(ordered, -2, axis=axis)
    return float(np.min(top - runner_up))


def _kink_margin(model, batch):
    """Distance to the nearest relu fold, filter threshold, or pool tie."""
    with no_grad():
        x = embed(batch.ids, model.table)
        mask = Mask(batch.mask)
        margins = []

        def ffn_margin(v, p):
            pre = v @ p.w1 + p.b1
            margins.append(np.min(np.abs(pre.data)))

        pooled_max = masked_maxpool(x, mask, "token")
        pooled_avg = masked_avgpool(x, mask, "token")
        ffn_margin(pooled_max, model.sam.ffn_f)
        ffn_margin(pooled_avg, model.sam.ffn_f)
        gate = fam_map(x, mask, model.sam.ffn_f)
        margins.append(np.min(np.abs(gate.data - model.cfg.delta)))
        x_prime, _ = af_fam_apply(x, gate, model.cfg.delta)
        ffn_margin(masked_maxpool(x_prime, mask, "feature"), model.sam.ffn_t)
        ffn_margin(masked_avgpool(x_prime, mask, "feature"), model.sam.ffn_t)
        # argmax ties are folds too, but only between distinct table rows:
        # positions that hold one id tie forever and move together
        for row, ids, valid in zip(x.data, batch.ids, batch.mask > 0):
            _, first = np.unique(ids[valid], return_index=True)
            if first.size > 1:
                margins.append(_top2_gap(row[valid][first], axis=0))
        # padded rows of x' are zeroed after the feature max, so only valid rows can fold
        margins.append(_top2_gap(x_prime.data[batch.mask > 0], axis=1))
    return min(margins)


def _well_conditioned(model, batch, floor=1e-6):
    """Relative comparison needs gradients clear of the FD noise floor;
    exact zeros are fine (locally constant under the kink margins)."""
    model.zero_grad()
    backward(model.loss(batch))
    for p in model.parameters().values():
        nonzero = np.abs(p.grad[p.grad != 0.0])
        if nonzero.size and nonzero.min() < floor:
            return False
    return True


@criterion(2, "finite differences across embed/attention/pool/loss")
def test_gradient_suite():
    started = time.perf_counter()
    cfg = SamConfig(d_model=5, max_len=4, delta=0.3, bottleneck_ratio=2)
    worst = 0.0
    points_checked = 0
    seed = 0
    while points_checked < 20:
        seed += 1
        rng = np.random.default_rng(seed)
        vocab = Vocab([f"w{i}" for i in range(8)])
        model = init_model(cfg, 2, "mean", rng, vocab=vocab)
        # admissible points sit clear of relu/filter folds and carry
        # gradients the relative metric can resolve
        ids = rng.integers(1, 10, size=(3, 4))
        lengths = rng.integers(1, 5, size=3)
        mask = (np.arange(4)[None, :] < lengths[:, None]).astype(float)
        ids = np.where(mask > 0, ids, 0)
        labels = rng.integers(0, 2, size=3)
        batch = Batch(mask=mask, labels=labels, ids=ids)
        if _kink_margin(model, batch) < 1e-3 or not _well_conditioned(model, batch):
            continue
        points_checked += 1
        for name, p in model.parameters().items():
            err = finite_diff_check(lambda _t: model.loss(batch), p, eps=1e-5)
            worst = max(worst, err)
    assert worst < 1e-4, f"max relative error {worst}"
    assert time.perf_counter() - started < 30.0


# --------------------------------------------------------------------------
# 3. filter semantics at the two extremes
# --------------------------------------------------------------------------

@criterion(3, "delta=0 bit-identical to unfiltered; delta=1 degenerates")
def test_filter_semantics(monkeypatch):
    started = time.perf_counter()
    corpus = make_synthetic(n=400, vocab_size=40, trigger_rule="trigger", seed=2)
    train_cfg = TrainConfig(lr=0.05, max_epochs=3, seed=7, folds=2)
    strip = lambda hist: [{k: v for k, v in r.items() if k != "seconds"} for r in hist]

    filtered = train_run(corpus, SamConfig(d_model=8, max_len=12, delta=0.0), train_cfg)

    def unfiltered_apply(x, m_f, delta):
        B, D = m_f.shape
        return m_f.reshape(B, 1, D) * x, m_f

    monkeypatch.setattr(sam_module, "af_fam_apply", unfiltered_apply)
    unfiltered = train_run(corpus, SamConfig(d_model=8, max_len=12, delta=0.0), train_cfg)
    monkeypatch.undo()
    assert strip(filtered.history) == strip(unfiltered.history)

    saturated = train_run(corpus, SamConfig(d_model=8, max_len=12, delta=1.0), train_cfg)
    # constant logits across every dev input
    vocab = saturated.model.vocab
    dev = encode_texts(corpus.subset(range(50)), vocab, 12)
    with no_grad():
        logits, _ = saturated.model.forward(dev)
    assert np.all(logits.data == logits.data[0])
    # dev folds are exactly balanced (n divisible by 4), so the majority rate
    # is 0.5 and a constant predictor attains it exactly
    for fo in saturated.fold_outcomes:
        assert fo.report.accuracy == 0.5
    assert time.perf_counter() - started < 60.0


# --------------------------------------------------------------------------
# 4. masking invariance under appended padding
# --------------------------------------------------------------------------

@criterion(4, "appended masked padding flips no bit and no metric")
def test_masking_invariance():
    rng = np.random.default_rng(100)
    # pooling and softmax primitives, 100 random inputs
    for _ in range(100):
        B, L, D = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        lengths = rng.integers(1, L + 1, size=B)
        mask = Mask.from_lengths(lengths, L)
        x = rng.normal(size=(B, L, D))
        extra = int(rng.integers(1, 3))
        x_ext = np.concatenate([x, rng.normal(size=(B, extra, D))], axis=1)
        mask_ext = mask.extended(extra)
        assert np.array_equal(
            masked_maxpool(Tensor(x), mask, "token").data,
            masked_maxpool(Tensor(x_ext), mask_ext, "token").data,
        )
        assert np.array_equal(
            masked_avgpool(Tensor(x), mask, "token").data,
            masked_avgpool(Tensor(x_ext), mask_ext, "token").data,
        )
        z = rng.normal(size=(B, L))
        z_ext = np.concatenate([z, rng.normal(size=(B, extra))], axis=1)
        s = masked_softmax(Tensor(z), mask).data
        s_ext = masked_softmax(Tensor(z_ext), mask_ext).data
        assert np.array_equal(s, s_ext[:, :L])
        assert np.all(s_ext[:, L:] == 0.0)

    # whole attention stage, zero-extended token network
    cfg = SamConfig(d_model=6, max_len=5)
    params = init_sam_params(cfg, rng)
    for _ in range(100):
        B = int(rng.integers(1, 4))
        lengths = rng.integers(1, 6, size=B)
        mask = Mask.from_lengths(lengths, 5)
        x = rng.normal(size=(B, 5, 6)) * mask.data[:, :, None]
        out, _ = sam_forward(Tensor(x), mask, cfg, params)
        extra = 2
        cfg_ext = cfg.with_overrides(max_len=7)
        params_ext = SamParams(ffn_f=params.ffn_f, ffn_t=extend_token_ffn(params.ffn_t, extra))
        x_ext = np.concatenate([x, np.zeros((B, extra, 6))], axis=1)
        out_ext, _ = sam_forward(Tensor(x_ext), mask.extended(extra), cfg_ext, params_ext)
        assert np.array_equal(out.data, out_ext.data[:, :5])
        assert np.all(out_ext.data[:, 5:] == 0.0)

    # end to end: metrics unchanged when every sequence gains padding room
    corpus = make_synthetic(n=120, vocab_size=30, trigger_rule="trigger", seed=8)
    vocab = Vocab.build(corpus.texts())
    model = init_model(cfg.with_overrides(d_model=6, max_len=5), 2, "mean",
                       np.random.default_rng(0), vocab=vocab)
    batch = encode_texts(corpus, vocab, 5)
    report = evaluate(model, batch)
    model_ext = Model(
        cfg=model.cfg.with_overrides(max_len=7),
        sam=SamParams(ffn_f=model.sam.ffn_f, ffn_t=extend_token_ffn(model.sam.ffn_t, 2)),
        head=model.head,
        table=model.table,
        vocab=vocab,
    )
    batch_ext = Batch(
        mask=np.concatenate([batch.mask, np.zeros((len(batch), 2))], axis=1),
        labels=batch.labels,
        ids=np.concatenate([batch.ids, np.zeros((len(batch), 2), dtype=np.int64)], axis=1),
    )
    report_ext = evaluate(model_ext, batch_ext)
    assert report.accuracy == report_ext.accuracy
    assert report.macro_f1 == report_ext.macro_f1
    assert report.binary_f1 == report_ext.binary_f1
    assert np.array_equal(report.confusion, report_ext.confusion)


# --------------------------------------------------------------------------
# 5. desk-scale learning on the planted-rule corpora
# --------------------------------------------------------------------------

@criterion(5, "trigger corpus >= 0.99 in 10 epochs; co-occurrence >= 0.95 in 50")
def test_desk_scale_learning():
    started = time.perf_counter()
    trigger = make_synthetic(n=2000, vocab_size=50, trigger_rule="trigger", seed=1)
    cfg = SamConfig(d_model=32, max_len=16)
    result = train_run(trigger, cfg, TrainConfig(lr=0.02, max_epochs=10, seed=1, folds=2))
    for fo in result.fold_outcomes:
        assert fo.report.accuracy >= 0.99
    assert time.perf_counter() - started < 60.0

    cooc = make_synthetic(n=2000, vocab_size=50, trigger_rule="cooc", seed=1)
    result = train_run(cooc, cfg, TrainConfig(lr=0.02, max_epochs=50, seed=1, folds=2))
    for fo in result.fold_outcomes:
        assert fo.report.accuracy >= 0.95


# --------------------------------------------------------------------------
# 6. ablation harness: six settings, non-inferiority over five seeds
# --------------------------------------------------------------------------

@criterion(6, "six ablation rows; full stage not inferior to baseline")
def test_ablation_harness(tmp_path):
    out = tmp_path / "ablate"
    code = cli_main([
        "ablate", "--synthetic", "trigger:200:30", "--dim", "8", "--max-len", "12",
        "--epochs", "2", "--folds", "2", "--seed", "1", "--lr", "0.05", "--out", str(out),
    ])
    assert code == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["baseline", "-FAM", "-TAM", "TAM+FAM", "delta=0.1", "SAM"]
    assert all(r[1] != "diverged" for r in rows[1:])

    cooc = make_synthetic(n=1000, vocab_size=50, trigger_rule="cooc", seed=42)
    cfg = SamConfig(d_model=32, max_len=16)
    means = {}
    params_by_setting = {}
    for setting, overrides in (
        ("baseline", {"fam_enabled": False, "tam_enabled": False}),
        ("SAM", {}),
    ):
        accs = []
        for seed in range(5):
            result = train_run(
                cooc, cfg.with_overrides(**overrides),
                TrainConfig(lr=0.05, max_epochs=20, seed=seed, folds=2),
            )
            accs.append(np.mean([fo.report.accuracy for fo in result.fold_outcomes]))
        means[setting] = float(np.mean(accs))
        params_by_setting[setting] = result.model.state_arrays()

    shared = set(params_by_setting["baseline"]) & set(params_by_setting["SAM"])
    assert any(
        not np.array_equal(params_by_setting["baseline"][k], params_by_setting["SAM"][k])
        for k in shared
    )
    assert means["SAM"] >= means["baseline"] - 0.01, means


# --------------------------------------------------------------------------
# 7. threshold sweep: 17-point default grid and the gate bound
# --------------------------------------------------------------------------

@criterion(7, "default sweep grid yields 17 bounded points")
def test_delta_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = cli_main([
        "sweep-delta", "--synthetic", "trigger:120:30", "--dim", "4", "--max-len", "8",
        "--epochs", "1", "--folds", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 17

    from seqattn.train import delta_sweep, default_delta_grid

    corpus = make_synthetic(n=120, vocab_size=30, trigger_rule="trigger", seed=0)
    points = delta_sweep(
        corpus, SamConfig(d_model=4, max_len=8),
        TrainConfig(lr=0.05, max_epochs=1, seed=0, folds=2),
        default_delta_grid(),
    )
    assert len(points) == 17
    best = max(pt.metric for pt in points)
    assert points[-1].delta == 0.8
    assert points[-1].metric <= best
    for pt in points:
        assert pt.max_gate <= 1.0 - pt.delta


# --------------------------------------------------------------------------
# 8. optimizer conformance
# --------------------------------------------------------------------------

@criterion(8, "closed-form first step, exact interpolation, Adam equivalence")
def test_optimizer_conformance():
    # first-step closed form
    params = {"p": Tensor(np.array([0.7]), requires_grad=True)}
    cfg = TrainConfig(lr=0.05, weight_decay=0.0)
    adamw_step(params, {"p": np.ones(1)}, init_adam_state(params), cfg)
    assert abs(params["p"].data[0] - (0.7 - 0.05 / (1.0 + cfg.eps))) < 1e-10

    # lookahead interpolation is exact
    fast = {"p": Tensor(np.array([2.0]), requires_grad=True)}
    slow = {"p": np.zeros(1)}
    lookahead_sync(fast, slow, k=5, alpha=0.5, step_count=5)
    assert slow["p"][0] == 1.0 and fast["p"].data[0] == 1.0

    # wd=0, alpha=1, k=1 walks exactly like a textbook Adam
    def grad_fn(p):
        return np.array([2.0 * (p[0] - 3.0), 4.0 * (p[1] + 1.0)])

    cfg = TrainConfig(lr=0.05, weight_decay=0.0, lookahead_k=1, lookahead_alpha=1.0)
    params = {"p": Tensor(np.zeros(2), requires_grad=True)}
    state = init_adam_state(params)
    slow = {"p": params["p"].data.copy()}
    p_ref = np.zeros(2)
    m = np.zeros(2)
    v = np.zeros(2)
    worst = 0.0
    for t in range(1, 101):
        g = grad_fn(params["p"].data)
        adamw_step(params, {"p": g}, state, cfg)
        lookahead_sync(params, slow, 1, 1.0, t)
        g_ref = grad_fn(p_ref)
        m = cfg.beta1 * m + (1 - cfg.beta1) * g_ref
        v = cfg.beta2 * v + (1 - cfg.beta2) * g_ref * g_ref
        p_ref = p_ref - cfg.lr * (m / (1 - cfg.beta1**t)) / (
            np.sqrt(v / (1 - cfg.beta2**t)) + cfg.eps
        )
        worst = max(worst, float(np.max(np.abs(params["p"].data - p_ref))))
    assert worst < 1e-9


# --------------------------------------------------------------------------
# 9. format round-trips
# --------------------------------------------------------------------------

@criterion(9, "SAMEMB1 and TSV round-trip bit-exactly")
def test_format_round_trips(tmp_path):
    rng = np.random.default_rng(0)

    # zero sequences
    empty = tmp_path / "empty.semb"
    store_precomputed(empty, [])
    assert load_precomputed(empty) == []
    twice = tmp_path / "empty2.semb"
    store_precomputed(twice, load_precomputed(empty))
    assert empty.read_bytes() == twice.read_bytes()

    # mixed lengths including the single-token and a long edge case
    seqs = []
    for length in (1, 3, 1000, 7):
        vec = rng.normal(size=(length, 6)).astype(np.float32).astype(np.float64)
        seqs.append((vec, int(rng.integers(0, 3))))
    src = tmp_path / "seqs.semb"
    store_precomputed(src, seqs)
    loaded = load_precomputed(src)
    for (v, l), (lv, ll) in zip(seqs, loaded):
        assert l == ll and np.array_equal(v, lv)
    dup = tmp_path / "seqs2.semb"
    store_precomputed(dup, loaded)
    assert src.read_bytes() == dup.read_bytes()

    # TSV: normalized corpora survive parse . serialize . parse unchanged
    raw = tmp_path / "raw.tsv"
    raw.write_bytes(b"5\tthe first record\r\n2\tsecond , with punctuation !\r\n5\tthird\n")
    corpus = parse_tsv(raw)
    out = tmp_path / "norm.tsv"
    serialize_tsv(corpus, out)
    again = parse_tsv(out)
    assert again.records == corpus.records
    assert again.num_classes == corpus.num_classes
    out2 = tmp_path / "norm2.tsv"
    serialize_tsv(again, out2)
    assert out.read_bytes() == out2.read_bytes()


# --------------------------------------------------------------------------
# 10. determinism of every command under a fixed manifest
# --------------------------------------------------------------------------

@criterion(10, "re-running a manifest reproduces metrics bit-identically")
def test_determinism(tmp_path):
    train_args = [
        "train", "--synthetic", "trigger:200:30", "--dim", "8", "--max-len", "12",
        "--epochs", "3", "--folds", "2", "--seed", "11",
    ]
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert cli_main(train_args + ["--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "epochs.jsonl").read_text().splitlines()]
        report = json.loads((out / "report.json").read_text())
        report.pop("seconds_per_epoch")
        runs.append(([{k: v for k, v in r.items() if k != "seconds"} for r in records], report))
    assert runs[0] == runs[1]

    ablate_args = [
        "ablate", "--synthetic", "trigger:150:30", "--dim", "4", "--max-len", "8",
        "--epochs", "2", "--folds", "2", "--seed", "4",
    ]
    tables = []
    for tag in ("a", "b"):
        out = tmp_path / f"ablate_{tag}"
        assert cli_main(ablate_args + ["--out", str(out)]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            tables.append([(r[0], r[1]) for r in list(csv.reader(fh))[1:]])
    assert tables[0] == tables[1]
