import csv
import io
import itertools
import json
import os
import platform
import struct
import subprocess
import sys
import warnings
import zipfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import seqattn
from seqattn import cli, train
from seqattn.backbone import UNK_ID, Vocab, load_precomputed, load_precomputed_record, store_precomputed
from seqattn.cli import COMMANDS, _build_configs, build_parser, main
from seqattn.errors import ConfigError, ContractError, DataError, FormatError, NumericError, ShapeError
from seqattn.head import DEFAULT_POOLING
from seqattn.model import init_model, save_checkpoint
from seqattn.sam import SamConfig
from seqattn.train import TrainConfig, default_delta_grid


def run_cli(*argv):
    return main(list(argv))


def write_vectors(path, n=200, labels=(0, 1), dim=6):
    """A SAMEMB1 file of n records; class 1 shifted along feature 1."""
    rng = np.random.default_rng(1)
    seqs = []
    for i in range(n):
        label = labels[i % len(labels)]
        vec = rng.normal(size=(int(rng.integers(2, 6)), dim)).astype(np.float32)
        vec[:, 1] += 2.5 * label
        seqs.append((vec, label))
    store_precomputed(path, seqs)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


COMMANDS = [["train"], ["ablate", "--settings", "SAM"], ["sweep-delta", "--grid", "0:0:1"]]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run_cli(
        "train", "--synthetic", "trigger:300:30", "--dim", "8", "--max-len", "12",
        "--epochs", "2", "--folds", "2", "--seed", "3", "--lr", "0.05", "--out", str(out),
    )
    assert code == 0
    return out


class TestTrainCommand:
    def test_separable_run_reaches_target(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "train", "--synthetic", "trigger:800", "--dim", "32", "--max-len", "16",
            "--epochs", "10", "--folds", "2", "--seed", "1", "--lr", "0.05",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for fold in report["folds"]:
            assert fold["accuracy"] >= 0.99
        for name in ("manifest.json", "epochs.jsonl", "report.json", "checkpoint.npz"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 1
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        for var, value in env["threads"].items():
            assert value == os.environ.get(var)

    def test_missing_inputs_is_usage_error(self, tmp_path):
        assert run_cli("train", "--out", str(tmp_path / "x")) == 2

    def test_both_inputs_is_usage_error(self, tmp_path):
        code = run_cli(
            "train", "--synthetic", "trigger", "--data", "nope.tsv", "--out", str(tmp_path / "x")
        )
        assert code == 2

    def test_delta_out_of_range_is_usage_error(self, tmp_path):
        code = run_cli(
            "train", "--synthetic", "trigger:100:30", "--delta", "1.2", "--out", str(tmp_path / "x")
        )
        assert code == 2

    def test_no_fam_conflicts_with_delta(self, tmp_path):
        code = run_cli(
            "train", "--synthetic", "trigger:100:30", "--no-fam", "--delta", "0.2",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_tsv_corpus_end_to_end(self, tmp_path):
        data = tmp_path / "corpus.tsv"
        rows = []
        for i in range(60):
            label = i % 2
            text = ("yes alpha" if label else "no beta") + f" filler{i % 5}"
            rows.append(f"{label}\t{text}")
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "run"
        code = run_cli(
            "train", "--data", str(data), "--dim", "8", "--max-len", "8",
            "--epochs", "4", "--folds", "2", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(data) in manifest["input_digests"]

    # the last two would need terabytes: they are refused before anything is built
    @pytest.mark.parametrize("spec", ["trigger:5", "trigger:100:5", "cooc:-3", "trigger:x", "bogus",
                                      f"trigger:20:{10**12}", f"trigger:{10**12}"])
    def test_bad_synthetic_spec_is_usage_error(self, tmp_path, capsys, spec):
        out = tmp_path / "x"
        assert run_cli("train", "--synthetic", spec, "--out", str(out)) == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not out.exists()

    def test_missing_tsv_is_data_error(self, tmp_path):
        code = run_cli("train", "--data", str(tmp_path / "absent.tsv"), "--out", str(tmp_path / "x"))
        assert code == 3

    def test_rerun_reproduces_metrics_bit_identically(self, tmp_path):
        args = (
            "train", "--synthetic", "trigger:200:30", "--dim", "8", "--max-len", "12",
            "--epochs", "3", "--folds", "2", "--seed", "9",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0

        def metrics(path):
            records = [json.loads(line) for line in (path / "epochs.jsonl").read_text().splitlines()]
            return [{k: v for k, v in r.items() if k != "seconds"} for r in records]

        assert metrics(out_a) == metrics(out_b)
        report_a = json.loads((out_a / "report.json").read_text())
        report_b = json.loads((out_b / "report.json").read_text())
        report_a.pop("seconds_per_epoch"), report_b.pop("seconds_per_epoch")
        assert report_a == report_b


class TestPrecomputedPath:
    def test_train_on_samemb1(self, tmp_path):
        emb_path = write_vectors(tmp_path / "vectors.semb")
        out = tmp_path / "run"
        code = run_cli(
            "train", "--emb", f"precomputed:{emb_path}", "--dim", "6", "--max-len", "6",
            "--epochs", "6", "--folds", "2", "--seed", "0", "--lr", "0.1", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mean_metric"] > 0.6

    def test_ablate_and_sweep_agree_with_train_on_samemb1(self, tmp_path):
        emb_path = write_vectors(tmp_path / "vectors.semb", n=80)
        common = ("--emb", f"precomputed:{emb_path}", "--dim", "6", "--max-len", "6",
                  "--epochs", "2", "--folds", "2", "--seed", "5")
        assert run_cli("train", *common, "--out", str(tmp_path / "train")) == 0
        assert run_cli("ablate", *common, "--out", str(tmp_path / "ablate")) == 0
        assert run_cli("sweep-delta", *common, "--grid", "0:0:1", "--out", str(tmp_path / "sweep")) == 0
        report = json.loads((tmp_path / "train" / "report.json").read_text())
        rows = read_csv(tmp_path / "ablate" / "ablation.csv")
        assert [r[0] for r in rows[1:]] == ["baseline", "-FAM", "-TAM", "TAM+FAM", "delta=0.1", "SAM"]
        # CSV carries six decimals
        assert float(rows[-1][1]) == pytest.approx(report["mean_metric"], abs=5e-7)
        assert read_csv(tmp_path / "sweep" / "sweep.csv")[1:] == [["0", rows[-1][1]]]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_dim_mismatch_is_usage_error(self, tmp_path, capsys, command):
        emb_path = write_vectors(tmp_path / "vectors.semb", n=20)
        code = run_cli(*command, "--emb", f"precomputed:{emb_path}", "--dim", "8",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "embedding file width 6" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["tsv", "samemb1"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_one_label_is_data_error(self, tmp_path, capsys, source, command):
        if source == "tsv":
            data = tmp_path / "one.tsv"
            data.write_text("".join(f"4\tword{i} other\n" for i in range(20)))
            inputs = ("--data", str(data))
        else:
            data = write_vectors(tmp_path / "one.semb", n=20, labels=(4,))
            inputs = ("--emb", f"precomputed:{data}", "--dim", "6")
        assert run_cli(*command, *inputs, "--epochs", "1", "--out", str(tmp_path / "x")) == 3
        assert "2 distinct labels" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # a rejected corpus leaves no empty --out behind

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_non_finite_value_fails_in_the_step(self, tmp_path, capsys, value, command):
        # encoding pools the vectors once, but only a step checks them
        rng = np.random.default_rng(3)
        seqs = [(rng.normal(size=(3, 4)), i % 2) for i in range(40)]
        seqs[5][0][1, 2] = value
        data = tmp_path / "bad.semb"
        store_precomputed(data, seqs)
        code = run_cli(*command, "--emb", f"precomputed:{data}", "--dim", "4", "--max-len", "4",
                       "--epochs", "1", "--folds", "2", "--seed", "0", "--out", str(tmp_path / "x"))
        assert code == 4
        assert capsys.readouterr().err == "error: every fold diverged\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "header", [b"[1, 2]", b'{"num_sequences": 2, "dim": -128}'], ids=["list", "negative-dim"]
    )
    def test_bad_header_is_format_error(self, tmp_path, capsys, header):
        emb_path = tmp_path / "bad.semb"
        emb_path.write_bytes(b"SAMEMB1\n" + header + b"\n" + (b"\x02\0\0\0" + b"\0" * 36) * 2)
        code = run_cli("train", "--emb", f"precomputed:{emb_path}", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "byte offset 8" in capsys.readouterr().err

    def test_precomputed_with_data_flag_conflicts(self, tmp_path):
        code = run_cli(
            "train", "--emb", "precomputed:whatever.semb", "--synthetic", "trigger",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2


class TestAblateCommand:
    def test_default_settings_emit_six_rows(self, tmp_path):
        out = tmp_path / "ablate"
        code = run_cli(
            "ablate", "--synthetic", "trigger:200:30", "--dim", "8", "--max-len", "12",
            "--epochs", "2", "--folds", "2", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["setting", "metric", "seconds_per_epoch"]
        assert [r[0] for r in rows[1:]] == ["baseline", "-FAM", "-TAM", "TAM+FAM", "delta=0.1", "SAM"]
        for row in rows[1:]:
            assert float(row[1]) >= 0.0
            assert float(row[2]) > 0.0

    def test_unknown_setting_is_usage_error(self, tmp_path):
        code = run_cli(
            "ablate", "--synthetic", "trigger:100:30", "--settings", "SAM,bogus",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_a_diverged_setting_is_a_row_of_its_own(self, tmp_path, capsys, monkeypatch):
        real = train._train_single

        def diverge_without_stage(model, *args):
            if not (model.cfg.fam_enabled or model.cfg.tam_enabled):
                raise NumericError("non-finite values produced by 'matmul'")
            return real(model, *args)

        monkeypatch.setattr(train, "_train_single", diverge_without_stage)
        out = tmp_path / "ablate"
        code = run_cli("ablate", "--synthetic", "trigger:100:30", "--dim", "4", "--max-len", "8",
                       "--epochs", "1", "--folds", "2", "--settings", "baseline,SAM", "--out", str(out))
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[1] == ["baseline", "diverged", ""]
        assert rows[2][0] == "SAM" and float(rows[2][1]) >= 0.0
        assert capsys.readouterr().out.splitlines() == [
            "baseline: binary_f1=diverged", f"SAM: binary_f1={float(rows[2][1]):.4f}"]

    def test_single_setting_matches_train(self, tmp_path):
        common = (
            "--synthetic", "trigger:200:30", "--dim", "8", "--max-len", "12",
            "--epochs", "2", "--folds", "2", "--seed", "5",
        )
        out_a = tmp_path / "ablate"
        assert run_cli("ablate", *common, "--settings", "SAM", "--out", str(out_a)) == 0
        out_b = tmp_path / "train"
        assert run_cli("train", *common, "--out", str(out_b)) == 0
        with open(out_a / "ablation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        report = json.loads((out_b / "report.json").read_text())
        # CSV carries six decimals
        assert float(rows[1][1]) == pytest.approx(report["mean_metric"], abs=5e-7)


class TestSweepCommand:
    def test_default_grid_has_17_rows_and_svg(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep-delta", "--synthetic", "trigger:100:30", "--dim", "4", "--max-len", "8",
            "--epochs", "1", "--folds", "2", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["delta", "metric"]
        assert len(rows) == 1 + 17
        assert rows[1][0] == "0" and rows[-1][0] == "0.8"
        svg = (out / "sweep.svg").read_text()
        root = ET.fromstring(svg)  # well-formed XML
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_coarse_grid(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep-delta", "--synthetic", "trigger:100:30", "--dim", "4", "--max-len", "8",
            "--epochs", "1", "--folds", "2", "--grid", "0:1:0.5", "--out", str(out),
        )
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0", "0.5", "1"]

    def test_a_diverged_threshold_is_a_point_of_its_own(self, tmp_path, capsys):
        # at this rate a step overflows unless delta=1 filters every feature out
        flags = ["--synthetic", "trigger:40:20", "--dim", "4", "--max-len", "6", "--epochs", "3",
                 "--folds", "2", "--lr", "1e150", "--weight-decay", "0"]
        out = tmp_path / "sweep"
        assert run_cli("sweep-delta", *flags, "--grid", "0:1:0.5", "--out", str(out)) == 0
        assert read_csv(out / "sweep.csv")[1:] == [["0", "diverged"], ["0.5", "diverged"], ["1", "0.666667"]]
        assert capsys.readouterr().out.splitlines() == [
            "delta=0.00: diverged", "delta=0.50: diverged", "delta=1.00: 0.6667"]
        polyline = next(e for e in ET.fromstring((out / "sweep.svg").read_text()).iter()
                        if e.tag.endswith("polyline"))
        assert len(polyline.get("points").split()) == 1  # the chart leaves diverged points out
        # only when every threshold diverges does the command fail, as train does
        assert run_cli("sweep-delta", *flags, "--grid", "0:0.5:0.5", "--out", str(tmp_path / "x")) == 4
        assert "every fold diverged" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_positive_step_is_usage_error(self, tmp_path):
        code = run_cli(
            "sweep-delta", "--synthetic", "trigger:100:30", "--grid", "0:0.8:0",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, rule",
    [(["train", "--delta", "1.2"], "delta must lie in [0, 1]"),
     (["ablate", "--settings", "SAM,bogus"], "unknown setting(s) ['bogus']"),
     (["ablate", "--settings", ","], "no ablation setting given"),
     (["ablate", "--settings", ""], "no ablation setting given"),
     (["train", "--data", "", "--epochs", "1"], "exactly one of --data or --synthetic"),
     (["sweep-delta", "--grid", "0:0.8:0"], "grid step must be positive"),
     (["sweep-delta", "--grid", "0:0.8:nan"], "grid step must be positive"),
     (["sweep-delta", "--grid", "0.5:0.2:0.1"], "0 <= start <= stop <= 1"),
     (["sweep-delta", "--grid", "0.5:1.2:0.1"], "0 <= start <= stop <= 1"),
     (["sweep-delta", "--grid", "0:1:1e-6"], "more than 1001 points"),
     (["train", "--lr", "nan"], "lr must be positive and finite"),
     (["train", "--lr", "inf"], "lr must be positive and finite"),
     (["ablate", "--weight-decay", "nan"], "weight decay must be non-negative and finite"),
     (["train", "--seed", "-1"], "seed must be non-negative"),
     (["ablate", "--seed", "-1"], "seed must be non-negative"),
     (["sweep-delta", "--seed", "-1"], "seed must be non-negative"),
     (["train", "--emb", "bogus"], "--emb must be 'table' or 'precomputed:PATH'"),
     (["sweep-delta", "--delta", "0.1"], "--delta is swept; use --grid"),
     (["sweep-delta", "--grid", "0:1"], "expected start:stop:step"),
     # argparse reads a bare -inf as an option
     (["train", "--dropout", "nan"], "dropout must lie in [0, 1)"),
     (["train", "--dropout=-inf"], "dropout must lie in [0, 1)"),
     (["train", "--dropout", "1"], "dropout must lie in [0, 1)"),
     (["train", "--lookahead-alpha", "nan"], "alpha in [0, 1]"),
     (["train", "--lookahead-alpha=-inf"], "alpha in [0, 1]"),
     (["train", "--lookahead-alpha", "1.5"], "alpha in [0, 1]"),
     (["train", "--delta", "nan"], "delta must lie in [0, 1]")],
    ids=["delta", "unknown-setting", "no-setting", "empty-settings", "empty-data", "zero-step", "nan-step",
         "reversed-grid", "grid-above-one", "grid-too-fine", "nan-lr", "inf-lr", "nan-weight-decay",
         "negative-seed-train", "negative-seed-ablate", "negative-seed-sweep", "unknown-emb", "swept-delta",
         "two-part-grid", "nan-dropout", "minus-inf-dropout", "dropout-one", "nan-lookahead-alpha",
         "minus-inf-lookahead-alpha", "lookahead-alpha-above-one", "nan-delta"],
)
def test_rejected_configuration_exits_2_before_writing(tmp_path, capsys, argv, rule):
    out = tmp_path / "x"
    assert run_cli(*argv, "--synthetic", "trigger:100:30", "--out", str(out)) == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [["--max-len", "100000000", "--dim", "4"], ["--dim", "100000000"]],
                         ids=["max-len", "dim"])
def test_run_larger_than_memory_exits_2_before_allocating(tmp_path, capsys, sizes):
    # either size makes a (10**8, 2.5 * 10**7) weight matrix: 17.8 PiB on its own
    out = tmp_path / "x"
    assert run_cli("train", "--synthetic", "trigger:20:20", *sizes, "--epochs", "1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "d_model=" in err and "max_len=" in err and "physical memory" in err
    assert not out.exists()


def test_run_beyond_the_address_space_limit_exits_2_before_allocating(tmp_path):
    # a table of about 100k rows of width 300 needs over 1 GiB: far below this
    # machine's memory, far above the 700 MiB limit set in the child alone
    paths = [str(Path(seqattn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), "OPENBLAS_NUM_THREADS": "1"}
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (700 * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
             "from seqattn.cli import main\n"
             "sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "x"
    run = subprocess.run([sys.executable, "-c", child, "train", "--synthetic", "trigger:20000:300000",
                          "--dim", "300", "--max-len", "16", "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stderr.startswith("error: d_model=300 and max_len=16 need at least ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert not out.exists()


# every flag that takes a size, a count or a seed; --epochs is left out,
# since a huge value trains for that long
NUMERIC_FLAGS = ("--dim", "--max-len", "--bottleneck-ratio", "--batch", "--folds", "--lookahead-k", "--seed")


@pytest.mark.parametrize("flag, value", itertools.product(NUMERIC_FLAGS, (0, -1, 10**18)))
def test_numeric_flag_extremes_run_or_are_refused_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    code = run_cli("train", "--synthetic", "trigger:20:20", "--dim", "4", "--max-len", "4",
                   "--epochs", "1", flag, str(value), "--out", str(out))
    assert code in (0, 2, 3)
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert out.exists() == (code == 0)


@pytest.mark.parametrize(
    "error, code",
    [(ConfigError, 2), (ShapeError, 2), (ContractError, 2), (DataError, 3), (FormatError, 3),
     (OSError, 3), (NumericError, 4)],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_an_error_from_a_handler_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("refused")

    monkeypatch.setattr(cli, "train_run", fail)
    assert run_cli("train", "--synthetic", "trigger:20:20", "--out", str(tmp_path / "o")) == code
    assert capsys.readouterr().err == "error: refused\n"


def interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def allocate_4_eib(*args, **kwargs):
    np.empty(2**59)  # 4 EiB of float64: the allocation fails at once and touches no memory


@pytest.mark.parametrize(
    "fail, code, line",
    [(interrupt, 130, "error: interrupted\n"),
     (allocate_4_eib, 2, "error: Unable to allocate 4.00 EiB for an array with shape (576460752303423488,)")],
    ids=["interrupt", "allocation"],
)
def test_an_interrupt_or_a_failed_allocation_exits_with_one_line(tmp_path, capsys, monkeypatch, fail, code, line):
    monkeypatch.setattr(cli, "train_run", fail)
    out = tmp_path / "o"
    assert run_cli("train", "--synthetic", "trigger:20:20", "--out", str(out)) == code
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1
    assert not out.exists()


def test_library_warning_prints_as_one_line(tmp_path, capsys):
    data = tmp_path / "t.tsv"
    data.write_text("".join(f"0\tword{i} filler\n" for i in range(5)) + "1\tlone record\n")
    code = run_cli("train", "--data", str(data), "--folds", "2", "--epochs", "1", "--dim", "4",
                   "--max-len", "4", "--out", str(tmp_path / "o"))
    assert code == 0
    assert capsys.readouterr().err == \
        "warning: class 1 has fewer than 2 members; distributing best-effort\n"


class TestHeatmapCommand:
    def test_single_token_input(self, trained_dir, tmp_path):
        prefix = tmp_path / "heat"
        code = run_cli(
            "heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
            "--text", "tok7", "--out", str(prefix),
        )
        assert code == 0
        payload = json.loads((tmp_path / "heat.json").read_text())
        assert payload["tokens"] == ["tok7"]
        assert payload["token_weights"] == [1.0]
        ET.fromstring((tmp_path / "heat.svg").read_text())

    def test_empty_text_is_one_unknown_token(self, trained_dir, tmp_path):
        # an empty --text is given, not absent: it reads as an empty TSV text
        prefix = tmp_path / "empty"
        code = run_cli("heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
                       "--text", "", "--out", str(prefix))
        assert code == 0
        payload = json.loads((tmp_path / "empty.json").read_text())
        assert payload["tokens"] == ["<unk>"] and payload["token_weights"] == [1.0]

    def test_token_weights_sum_to_one(self, trained_dir, tmp_path):
        prefix = tmp_path / "heat2"
        code = run_cli(
            "heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
            "--text", "tok1 tok7 tok2 tok9", "--out", str(prefix),
        )
        assert code == 0
        payload = json.loads((tmp_path / "heat2.json").read_text())
        assert len(payload["tokens"]) == 4
        assert sum(payload["token_weights"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("disabled, key, count",
                             [("--no-tam", "token_weights", 3), ("--no-fam", "feature_weights", 4)])
    def test_disabled_module_weights_read_one(self, tmp_path, disabled, key, count):
        # a disabled module's map is its identity: the validity flags, or all-ones gates
        out = tmp_path / "run"
        code = run_cli("train", "--synthetic", "trigger:100:30", "--dim", "4", "--max-len", "8",
                       "--epochs", "1", "--folds", "2", disabled, "--out", str(out))
        assert code == 0
        code = run_cli("heatmap", "--checkpoint", str(out / "checkpoint.npz"),
                       "--text", "tok7 tok3 tok4", "--out", str(tmp_path / "h"))
        assert code == 0
        payload = json.loads((tmp_path / "h.json").read_text())
        assert payload[key] == [1.0] * count

    def test_text_that_is_not_utf8_exits_3_before_reading_or_writing(self, trained_dir, tmp_path, capsys,
                                                                    monkeypatch):
        def no_loading(*args, **kwargs):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli, "load_checkpoint", no_loading)
        # argv bytes that are not UTF-8 reach main as lone surrogates: b"\xff" as "\udcff"
        code = run_cli("heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
                       "--text", "good \udcff movie", "--out", str(tmp_path / "h"))
        assert code == 3
        assert capsys.readouterr().err == "error: --text is not UTF-8 text: surrogates not allowed\n"
        assert list(tmp_path.iterdir()) == []

    def test_saturated_filter_warns_and_zeroes_features(self, tmp_path, capsys):
        out = tmp_path / "sat"
        code = run_cli(
            "train", "--synthetic", "trigger:100:30", "--dim", "4", "--max-len", "8",
            "--epochs", "1", "--folds", "2", "--delta", "1.0", "--out", str(out),
        )
        assert code == 0
        prefix = tmp_path / "satheat"
        code = run_cli(
            "heatmap", "--checkpoint", str(out / "checkpoint.npz"),
            "--text", "tok1 tok2", "--out", str(prefix),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "no signal" in captured.err
        payload = json.loads((tmp_path / "satheat.json").read_text())
        assert all(w == 0.0 for w in payload["feature_weights"])
        assert "no signal" in (tmp_path / "satheat.svg").read_text()

    def test_checkpoint_holding_words_seen_only_past_max_len_keeps_their_rows(self, tmp_path):
        # a table built from whole texts, as older checkpoints hold, has rows
        # for words the training texts had only past --max-len
        texts = ["good movie tail", "movie good fine"]
        assert Vocab.build(texts, max_len=2).encode("tail") == UNK_ID
        model = init_model(SamConfig(d_model=6, max_len=2), 2, "mean", np.random.default_rng(5),
                           vocab=Vocab.build(texts))
        checkpoint = tmp_path / "old.npz"
        save_checkpoint(checkpoint, model)
        weights = {}
        for word in ("tail", "unseen", "other"):
            assert run_cli("heatmap", "--checkpoint", str(checkpoint), "--text", f"{word} good",
                           "--out", str(tmp_path / word)) == 0
            payload = json.loads((tmp_path / f"{word}.json").read_text())
            assert payload.pop("tokens") == [word, "good"]
            weights[word] = payload
        assert weights["unseen"] == weights["other"]  # both read as <unk>
        assert weights["tail"] != weights["unseen"]

    def test_record_picked_from_corpus_file(self, trained_dir, tmp_path):
        data = tmp_path / "pick.tsv"
        data.write_text("0\ttok1 tok2\n1\ttok7 tok3 tok4\n")
        prefix = tmp_path / "picked"
        code = run_cli(
            "heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
            "--data", str(data), "--index", "1", "--out", str(prefix),
        )
        assert code == 0
        payload = json.loads((tmp_path / "picked.json").read_text())
        assert payload["tokens"] == ["tok7", "tok3", "tok4"]

    def test_index_out_of_range_is_data_error(self, trained_dir, tmp_path):
        data = tmp_path / "pick.tsv"
        data.write_text("0\ttok1\n")
        code = run_cli(
            "heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
            "--data", str(data), "--index", "5", "--out", str(tmp_path / "x"),
        )
        assert code == 3

    def test_json_suffix_of_out_names_both_files(self, trained_dir, tmp_path):
        code = run_cli(
            "heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
            "--text", "tok1 tok2", "--out", str(tmp_path / "m" / "x.json"),
        )
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["x.json", "x.svg"]

    def test_svg_that_cannot_be_written_leaves_no_new_json(self, trained_dir, tmp_path, capsys):
        (tmp_path / "h.svg").mkdir()
        argv = ["heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"), "--text", "tok1 tok2"]
        assert run_cli(*argv, "--out", str(tmp_path / "h")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.svg"]
        # a JSON from an earlier call keeps its bytes
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "h.svg").mkdir()
        (tmp_path / "old" / "h.json").write_bytes(b"earlier\n")
        assert run_cli(*argv, "--out", str(tmp_path / "old" / "h")) == 3
        assert (tmp_path / "old" / "h.json").read_bytes() == b"earlier\n"
        assert sorted(p.name for p in (tmp_path / "old").iterdir()) == ["h.json", "h.svg"]

    def test_json_that_cannot_be_written_leaves_no_temporary_file(self, trained_dir, tmp_path, capsys):
        (tmp_path / "h.json").mkdir()
        code = run_cli("heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
                       "--text", "tok1 tok2", "--out", str(tmp_path / "h"))
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json", "h.svg"]
        assert (tmp_path / "h.json").is_dir() and not any((tmp_path / "h.json").iterdir())

    def test_text_and_data_are_exclusive(self, trained_dir, tmp_path):
        code = run_cli(
            "heatmap", "--checkpoint", str(trained_dir / "checkpoint.npz"),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "damage",
        ["no-meta", "not-npz", "npy-array", "meta-lacks-vocab", "meta-lacks-sam",
         "meta-wrong-type", "meta-not-object", "param-of-strings"],
    )
    def test_bad_checkpoint_is_format_error(self, trained_dir, tmp_path, damage):
        bad = tmp_path / "bad.npz"
        if damage == "no-meta":
            np.savez(bad, hello=np.ones(3))
        elif damage == "not-npz":
            bad.write_text("label\ttext\n")
        elif damage == "npy-array":
            bad = tmp_path / "bad.npy"
            np.save(bad, np.ones(3))
        else:
            with np.load(trained_dir / "checkpoint.npz") as archive:
                arrays = {name: archive[name] for name in archive.files}
            meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
            if damage == "meta-lacks-vocab":
                del meta["vocab"]
            elif damage == "meta-lacks-sam":
                del meta["sam"]
            elif damage == "meta-wrong-type":
                meta["num_classes"] = "two"
            elif damage == "meta-not-object":
                meta = [meta]
            else:
                arrays["param/head.b"] = np.array(["a", "b"])
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            np.savez(bad, **arrays)
        code = run_cli("heatmap", "--checkpoint", str(bad), "--text", "x", "--out", str(tmp_path / "h"))
        assert code == 3

    def test_member_header_larger_than_the_member_is_format_error(self, trained_dir, tmp_path, capsys):
        # the .npy header of param/head.b declares 7.28 TiB; the archive is
        # rewritten member by member, so nothing that size is ever allocated
        with zipfile.ZipFile(trained_dir / "checkpoint.npz") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**12,)})
        members["param/head.b.npy"] = header.getvalue() + bytes(16)
        bad = tmp_path / "bad.npz"
        with zipfile.ZipFile(bad, "w") as archive:
            for name, blob in members.items():
                archive.writestr(name, blob)
        code = run_cli("heatmap", "--checkpoint", str(bad), "--text", "x", "--out", str(tmp_path / "h"))
        assert code == 3
        assert "param/head.b.npy" in capsys.readouterr().err


@pytest.fixture(scope="module")
def samemb1_run(tmp_path_factory):
    """A checkpoint trained on a 12-record SAMEMB1 file of width 6."""
    root = tmp_path_factory.mktemp("samemb1-run")
    data = write_vectors(root / "vectors.semb", n=12)
    code = run_cli("train", "--emb", f"precomputed:{data}", "--dim", "6", "--max-len", "4",
                   "--epochs", "1", "--folds", "2", "--seed", "0", "--out", str(root / "run"))
    assert code == 0
    return root / "run" / "checkpoint.npz", data


def samemb1_heatmap(checkpoint, data, index, prefix) -> int:
    return run_cli("heatmap", "--checkpoint", str(checkpoint), "--data", str(data),
                   "--index", str(index), "--out", str(prefix))


def damaged_samemb1(data, damage: str) -> bytes:
    """The 12-record file with one kind of damage; record 1 stays intact."""
    blob = data.read_bytes()
    header_end = blob.index(b"\n", 8) + 1
    starts, offset = [], header_end  # byte offset of each record header
    while offset < len(blob):
        starts.append(offset)
        length = struct.unpack_from("<II", blob, offset)[0]
        offset += 8 + length * 6 * 4
    if damage == "magic":
        return b"SAMEMB2" + blob[7:]
    if damage == "header-cut":
        return blob[: header_end - 5]
    if damage == "negative-field":
        return blob[:8] + b'{"num_sequences": 12, "dim": -6}' + blob[header_end - 1:]
    if damage == "record-header-cut":
        return blob[: starts[5] + 3]
    if damage == "payload-cut":
        return blob[:-4]
    if damage == "trailing":
        return blob + b"\0\0"
    # "later-record": record 7 claims more vectors than the file holds
    return blob[: starts[7]] + struct.pack("<II", 999, 0) + blob[starts[7] + 8:]


class TestHeatmapOnSamemb1:
    @pytest.mark.parametrize("index", [0, 5, 11], ids=["first", "middle", "last"])
    def test_record_matches_the_full_reader(self, samemb1_run, tmp_path, index):
        checkpoint, data = samemb1_run
        assert samemb1_heatmap(checkpoint, data, index, tmp_path / "picked") == 0
        # the same record, alone in a file of its own
        store_precomputed(tmp_path / "single.semb", [load_precomputed(data)[index]])
        assert samemb1_heatmap(checkpoint, tmp_path / "single.semb", 0, tmp_path / "alone") == 0
        for ext in ("json", "svg"):
            assert (tmp_path / f"picked.{ext}").read_bytes() == (tmp_path / f"alone.{ext}").read_bytes()
        vectors, label = load_precomputed_record(data, index)
        expected_vectors, expected_label = load_precomputed(data)[index]
        assert label == expected_label and vectors.dtype == np.float32
        assert vectors.tobytes() == expected_vectors.tobytes()

    @pytest.mark.parametrize("index", [12, -1], ids=["count", "negative"])
    def test_index_outside_the_file_is_data_error(self, samemb1_run, tmp_path, capsys, index):
        checkpoint, data = samemb1_run
        assert samemb1_heatmap(checkpoint, data, index, tmp_path / "h") == 3
        assert "of 12 records" in capsys.readouterr().err

    def test_text_is_usage_error(self, samemb1_run, tmp_path, capsys):
        checkpoint, _ = samemb1_run
        code = run_cli("heatmap", "--checkpoint", str(checkpoint), "--text", "tok1",
                       "--out", str(tmp_path / "h"))
        assert code == 2
        assert "pass --data SAMEMB1_FILE" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()

    def test_width_mismatch_is_format_error(self, samemb1_run, tmp_path, capsys):
        checkpoint, _ = samemb1_run
        narrow = write_vectors(tmp_path / "narrow.semb", n=3, dim=4)
        assert samemb1_heatmap(checkpoint, narrow, 0, tmp_path / "h") == 3
        assert "embedding width 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        ["magic", "header-cut", "negative-field", "record-header-cut", "payload-cut", "trailing",
         "later-record"],
    )
    def test_damaged_file_fails_at_the_full_readers_offset(self, samemb1_run, tmp_path, capsys, damage):
        checkpoint, data = samemb1_run
        bad = tmp_path / "bad.semb"
        bad.write_bytes(damaged_samemb1(data, damage))
        with pytest.raises(FormatError) as full:
            load_precomputed(bad)
        assert samemb1_heatmap(checkpoint, bad, 1, tmp_path / "h") == 3
        assert f"(byte offset {full.value.offset})" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()


def test_parser_for_no_command_builds_no_flags():
    # main passes None only when argv names no command; a command's
    # required flags would make parsing its bare name fail
    for name, *_ in COMMANDS:
        assert sorted(vars(build_parser(None).parse_args([name]))) == ["command", "func"]


def test_default_flags_are_the_library_defaults():
    for name in ("train", "ablate", "sweep-delta"):
        parser = build_parser(name)
        args = parser.parse_args([name, "--synthetic", "trigger", "--out", "o"])
        assert _build_configs(args, parser) == (SamConfig(d_model=32, max_len=16), TrainConfig())
        assert args.pool == DEFAULT_POOLING
    grid = [float(v) for v in args.grid.split(":")]
    assert default_delta_grid(*grid) == default_delta_grid()


def test_overflowing_run_exits_4_without_numpy_warnings(tmp_path, capsys):
    # the finite checks catch the overflow; numpy's warnings about it were
    # noise. main prints any warning as a "warning:" line, so none may show
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code = run_cli("train", "--synthetic", "trigger:40", "--dim", "4", "--max-len", "4",
                       "--epochs", "2", "--folds", "1", "--lr", "1e300", "--out", str(tmp_path / "o"))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_version_flag_exits_cleanly():
    assert run_cli("--version") == 0


def test_cli_import_loads_no_http_stack():
    # xml.sax.saxutils imports urllib.request, which loads http.client,
    # email, ssl and socket: about 39 ms before any command could start
    paths = [str(Path(seqattn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = ("import sys, seqattn.cli; print(sorted(m for m in "
             "('xml.sax', 'http.client', 'email', 'ssl') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
