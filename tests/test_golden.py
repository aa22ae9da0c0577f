"""Golden training histories: fixed-seed runs must keep their exact bits.

Each case runs one small ``seqattn train`` command and digests its
``epochs.jsonl`` with the wall-clock ``seconds`` fields removed. A
refactor of the training path that claims to preserve behaviour must
leave every digest unchanged. The constants were recorded with numpy 2.4
on OpenBLAS 0.3 (x86-64); a different BLAS build may round differently,
in which case re-derive them from the commit before the refactor.
"""

import contextlib
import csv
import hashlib
import io
import json

import numpy as np
import pytest

from seqattn.backbone import store_precomputed
from seqattn.cli import main

TABLE_DIGEST = "7663376d8264353772571a0eb7bcaff1024a637082c8ff491e0e0000c65a47d4"
PRECOMPUTED_DIGEST = "835c8180dbfaa1450ebe5ab7e2f4a830c76fee8488b9d8d76657e6da9260a5cd"
BIG_TABLE_DIGEST = "8ae4a5c9f717195a89b5a40ee9c3698c4a58760caffbda128000fd4987f72bfd"
MAXPOOL_DIGEST = "62cbca36fcf514cbb3e1426e0868acd8205967dec3c34a0c6c867b55ad6fd23c"
# recorded once the table held only the words among the first --max-len of some text
LONG_TEXTS_DIGEST = "a4c75815840f922392d86d583e84feef180d1891dd9884fe06dc6ddbcd1822c2"
# SAMEMB1 cases recorded before the first module's pooling of the fixed input
# moved to encoding and FAM and TAM became one graph node each
WIDE_DIGEST = "259f9d0c89913758bde1901d1d51e11c0664c4ba8a74adc700eeb7b037ad6267"
WIDE_TAM_FAM_DIGEST = "a5ef88798e5a1b878ad63776a7ba7b420ef7cd46c2cf938c690be50db068c6d6"
NO_TAM_FIRST_DIGEST = "6671ae5e4ea072c4f0fe215b863889606b48ad872a2496508b82af1142d36502"


def history_digest(path) -> str:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec.pop("seconds", None)
    history = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    return hashlib.sha256(history.encode("utf-8")).hexdigest()


def write_samemb1(path) -> None:
    """60 records of width 8, class 1 shifted along the first axis."""
    rng = np.random.default_rng(11)
    seqs = []
    for i in range(60):
        label = i % 2
        vectors = rng.normal(size=(int(rng.integers(2, 11)), 8))
        vectors[:, 0] += 1.5 * label
        seqs.append((vectors, label))
    store_precomputed(path, seqs)


def write_wide_samemb1(path) -> None:
    """40 records at the benchmark's width, D = 128, of 1 to 160 tokens of
    N(0, 8^2) values (some cut at L = 128); class 1 shifted along one direction."""
    rng = np.random.default_rng(17)
    direction = rng.normal(size=128)
    seqs = []
    for i in range(40):
        label = i % 2
        vectors = 8.0 * rng.normal(size=(int(rng.integers(1, 161)), 128))
        vectors += 3.0 * label * direction
        seqs.append((vectors, label))
    store_precomputed(path, seqs)


def write_long_texts(path) -> None:
    """120 texts of 20 to 30 words drawn from 100k fillers; class 1 puts
    ``kw`` among the first 6 words."""
    rng = np.random.default_rng(13)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(120):
            label = i % 2
            words = [f"w{j}" for j in rng.integers(0, 100_000, size=int(rng.integers(20, 31)))]
            if label:
                words[int(rng.integers(0, 6))] = "kw"
            fh.write(f"{label}\t{' '.join(words)}\n")


def train_table(tmp_path) -> list[str]:
    return ["--synthetic", "cooc:240:30", "--dim", "8", "--max-len", "12"]


def train_big_table(tmp_path) -> list[str]:
    # about 1300 table rows of width 64 per fold: six optimizer blocks, the last one partial
    return ["--synthetic", "cooc:400:6000", "--dim", "64", "--max-len", "12"]


def train_maxpool(tmp_path) -> list[str]:
    # max pooling, the reversed module order and the dropout draws from the training rng
    return ["--synthetic", "cooc:240:30", "--dim", "8", "--max-len", "12",
            "--pool", "max", "--order", "tam-fam", "--dropout", "0.1"]


def train_long_texts(tmp_path) -> list[str]:
    # texts of 20 to 30 words of which only the first 6 reach the model, so
    # the table holds only those words: about 330 rows of width 32 per fold
    data = tmp_path / "long.tsv"
    write_long_texts(data)
    return ["--data", str(data), "--dim", "32", "--max-len", "6"]


def train_precomputed(tmp_path) -> list[str]:
    data = tmp_path / "golden.semb"
    write_samemb1(data)
    return ["--emb", f"precomputed:{data}", "--dim", "8", "--max-len", "10"]


def train_wide(tmp_path) -> list[str]:
    # numpy sums more than 8 contiguous values pairwise, which width 8 never reaches
    data = tmp_path / "wide.semb"
    write_wide_samemb1(data)
    return ["--emb", f"precomputed:{data}", "--dim", "128", "--max-len", "128"]


def train_wide_tam_fam(tmp_path) -> list[str]:
    # TAM pools the fixed input first, over its 128 features
    return [*train_wide(tmp_path), "--order", "tam-fam", "--pool", "max", "--dropout", "0.1"]


def train_precomputed_no_tam(tmp_path) -> list[str]:
    return [*train_precomputed(tmp_path), "--no-tam", "--pool", "first"]


@pytest.mark.parametrize(
    "inputs, expected",
    [(train_table, TABLE_DIGEST), (train_precomputed, PRECOMPUTED_DIGEST),
     (train_big_table, BIG_TABLE_DIGEST), (train_maxpool, MAXPOOL_DIGEST),
     (train_long_texts, LONG_TEXTS_DIGEST), (train_wide, WIDE_DIGEST),
     (train_wide_tam_fam, WIDE_TAM_FAM_DIGEST), (train_precomputed_no_tam, NO_TAM_FIRST_DIGEST)],
    ids=["table", "precomputed", "big-table", "maxpool-tam-fam-dropout", "long-texts",
         "wide-precomputed", "wide-tam-fam-max-dropout", "precomputed-no-tam-first"],
)
def test_training_history_digest(tmp_path, inputs, expected):
    out = tmp_path / "run"
    code = main(["train", *inputs(tmp_path), "--epochs", "3", "--folds", "2", "--batch", "16",
                 "--lr", "0.05", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert history_digest(out / "epochs.jsonl") == expected


# Heatmap outputs of fixed-seed checkpoints, recorded before the checkpoint
# and SAMEMB1 loaders were rewritten to build the model from the saved arrays
# and to decode only the requested record: both must stay byte-identical.
HEATMAP_DIGESTS = {
    "table": ("2b2b20e45986e35ac18579b51eb85a981dba9a46c1ef1b6797d7686db6b54ba5",
              "e599f70096b320b6ba915d008a1ce685e81772b69b5012a17b5461b6e9ad89a8"),
    "precomputed": ("7b8cc44871ad5a78288afdace0fa3026688dccf7937e942fb1d74520d8bf68c8",
                    "16b33c0517b61c7c70adf3dcdc6875b68bd1e77185b56ed3598670b87a7068fe"),
    # recorded once the table held only the words among the first --max-len
    # of some text: the words training saw only past it read as <unk>
    "long_texts": ("1c1f0c54fbcbaa205ef8d37f6d3075790e2c849cce6e4d2b0edde009bf5f16a4",
                   "2bba8f5f3f72c5f6c07a70ff4a373fc9fa6e8537cee58b40a0ef0d0478d50f51"),
    # recorded while encoding still pooled a SAMEMB1 input over features
    # for a run whose first module is TAM
    "precomputed_tam_fam": ("8c0028d3d4b71ad8af101707899d8cb06b1e085c2349eb81cc260bea2297086e",
                            "5dbac42a2fa3e3935ab30e2b8527307dbed5ac2830b887fde25fd5c8594e7cce"),
}


def heatmap_table(tmp_path) -> tuple[list[str], list[str]]:
    return train_table(tmp_path), ["--text", "tok3 tok11 tok3 tok0 tok17 unseen tok25 tok2"]


def heatmap_precomputed(tmp_path) -> tuple[list[str], list[str]]:
    inputs = train_precomputed(tmp_path)
    return inputs, ["--data", str(tmp_path / "golden.semb"), "--index", "37"]


def heatmap_long_texts(tmp_path) -> tuple[list[str], list[str]]:
    # w43894, w44610, w166 and w68247 occur in the training texts only past
    # the sixth word, so the table holds no row for them and they read as <unk>
    return train_long_texts(tmp_path), ["--text", "w43894 kw w44610 w166 unseen w68247"]


def heatmap_precomputed_tam_fam(tmp_path) -> tuple[list[str], list[str]]:
    inputs, heatmap_inputs = heatmap_precomputed(tmp_path)
    return [*inputs, "--order", "tam-fam"], heatmap_inputs


@pytest.mark.parametrize("case", [heatmap_table, heatmap_precomputed, heatmap_long_texts,
                                  heatmap_precomputed_tam_fam],
                         ids=["table", "precomputed", "long-texts", "precomputed-tam-fam"])
def test_heatmap_output_digest(tmp_path, case):
    train_inputs, heatmap_inputs = case(tmp_path)
    out = tmp_path / "run"
    assert main(["train", *train_inputs, "--epochs", "2", "--folds", "2", "--batch", "16",
                 "--lr", "0.05", "--seed", "7", "--out", str(out)]) == 0
    prefix = tmp_path / "heat"
    assert main(["heatmap", "--checkpoint", str(out / "checkpoint.npz"), *heatmap_inputs,
                 "--out", str(prefix)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f"heat.{ext}").read_bytes()).hexdigest()
                    for ext in ("json", "svg"))
    assert digests == HEATMAP_DIGESTS[case.__name__.removeprefix("heatmap_")]


# Files written by fixed-seed train, ablate and sweep-delta commands, recorded
# before the drivers' results were folded into one record per run and the
# CLI's own flag checks were left to the library: all must stay byte-identical.
# Wall-clock fields are dropped: report.json's seconds_per_epoch and
# ablation.csv's seconds column.
CLI_DIGESTS = {
    "report.json": "96e54666a4287e985d56e515f34f8f3256bface22aa73e17e20222e3e8b80c39",
    "ablation.csv": "2a582e305ee47dc04bd086f4c48ea95cb426ef518a0febb705b52a2c113ff3f0",
    "sweep.csv": "c16af4ccd4d3f970ef4d789097f732aad6ff13831848f899da7bdb1dc4a1df1a",
    "sweep.svg": "72a56a89f545b0d18b817d0468a6577ceedb0697e43d1f20431a1a2ef114bbc1",
}
# every ablation setting on a SAMEMB1 input, recorded while encoding pooled
# the input over the axis of whichever module ran first
PRECOMPUTED_ABLATION_DIGEST = "016b758a4095888bada16c8738dd8bebc6fd9a0d7dce9178b484c9dfcc9f2eb2"


def output_digest(path) -> str:
    text = path.read_text()
    if path.name == "report.json":
        report = json.loads(text)
        report.pop("seconds_per_epoch")
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif path.name == "ablation.csv":
        text = "".join(",".join(row[:-1]) + "\n" for row in csv.reader(io.StringIO(text)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "command, files",
    [(["train"], ["report.json"]),
     (["ablate", "--settings", "SAM,-TAM,baseline"], ["ablation.csv"]),
     (["sweep-delta", "--grid", "0:0.4:0.2"], ["sweep.csv", "sweep.svg"])],
    ids=["train", "ablate", "sweep-delta"],
)
def test_cli_output_digest(tmp_path, command, files):
    out = tmp_path / "run"
    assert main([*command, *train_table(tmp_path), "--epochs", "3", "--folds", "2",
                 "--batch", "16", "--lr", "0.05", "--seed", "7", "--out", str(out)]) == 0
    assert {name: output_digest(out / name) for name in files} == \
        {name: CLI_DIGESTS[name] for name in files}


def test_precomputed_ablation_digest(tmp_path):
    out = tmp_path / "run"
    assert main(["ablate", *train_precomputed(tmp_path), "--epochs", "2", "--folds", "2",
                 "--batch", "16", "--lr", "0.05", "--seed", "7", "--out", str(out)]) == 0
    assert output_digest(out / "ablation.csv") == PRECOMPUTED_ABLATION_DIGEST


# stdout, stderr and exit code of the CLI's help, version and usage errors,
# recorded with COLUMNS=80 before the parser built flags only for the invoked
# command: every byte must stay the same. The four "*-unknown-flag" cases were
# re-recorded when an unknown flag after a command began to print that
# command's usage instead of the top-level one. The two "*-config-error"
# cases, a configuration error found after parsing, were recorded once each
# command's handler reported with its own parser.
EMPTY = hashlib.sha256(b"").hexdigest()
USAGE_CASES = {
    "help": (["--help"], 0,
        "2992133b49daeead917559ab349ec5aef367f4caa061ba63b4ac14b7fe8d0137",
        EMPTY),
    "version": (["--version"], 0,
        "a7d88a55907406272b98ec4d64cfe5483e4dc30cf46f3f3d1c390212553def7e",
        EMPTY),
    "train-help": (["train", "--help"], 0,
        "c79e69b38e60308cc1d778c2d594d864daf4b2973eff78d98c3a7150942599da",
        EMPTY),
    "ablate-help": (["ablate", "--help"], 0,
        "a9e504357f796b564ac5aa4e3e1bc89f7ec4712ab89dd2d9ad1cd3de53291a46",
        EMPTY),
    "sweep-delta-help": (["sweep-delta", "--help"], 0,
        "3b46a202285243703ef965d7a9d795292babeeb0d5ae6a9b0686f16fe6402057",
        EMPTY),
    "heatmap-help": (["heatmap", "--help"], 0,
        "8f68c79356a931cf85e94f3d5cdea28fb72bffe28fb5a6713ff9e8733dd0556c",
        EMPTY),
    "train-unknown-flag": (["train", "--out", "o", "--bogus"], 2,
        EMPTY,
        "529436f9bea8db5e68a4a6611e005a2f651ab7aae2ebbefc5f035b1e6769c750"),
    "ablate-unknown-flag": (["ablate", "--out", "o", "--bogus"], 2,
        EMPTY,
        "126aaba7f8f72437613bc1ffc071f8bea9e8a931d4c2522f25b952c8908abea8"),
    "sweep-delta-unknown-flag": (["sweep-delta", "--out", "o", "--bogus"], 2,
        EMPTY,
        "1ef1513f21d02297c7117b36a0424d95d451f92e59227c19dc9a0303d11f8318"),
    "heatmap-unknown-flag": (["heatmap", "--checkpoint", "c", "--out", "o", "--bogus"], 2,
        EMPTY,
        "2c306ddffa0c82f21cfd766c66e642e60fcd0aea06fddf6c8c2936f5e2baabf6"),
    "train-unknown-flag-alone": (["train", "--bogus"], 2,
        EMPTY,
        "b42150efd4bba6edb41d66392d626eb9721521611985499c4f73d44cfc34e248"),
    "ablate-unknown-flag-alone": (["ablate", "--bogus"], 2,
        EMPTY,
        "c6044cbb3a11e93a12399973c33ebdf229221a5c54742509783fd262c3baf025"),
    "sweep-delta-unknown-flag-alone": (["sweep-delta", "--bogus"], 2,
        EMPTY,
        "b5086fbd786b47b0e2ac2992bcc65dda171c93e7e8443ab94c47d60d1abba70e"),
    "heatmap-unknown-flag-alone": (["heatmap", "--bogus"], 2,
        EMPTY,
        "cd4a638c4b4bef2db753ed94c6bebdc62d6b4b530f19d8ac56f8bb15db32b046"),
    "train-bad-choice": (["train", "--out", "o", "--pool", "bogus"], 2,
        EMPTY,
        "3fe2fc5056ab787296bbb243d95d453adcfd25cb99c8ad6f654a4863d8c2bebc"),
    "heatmap-bad-int": (["heatmap", "--checkpoint", "c", "--out", "o", "--index", "x"], 2,
        EMPTY,
        "a9255fa73bf769c0f0fb4445c895506fa8281406d442d504eaf4a4f9a9e9751a"),
    "help-before-command": (["--help", "train"], 0,
        "2992133b49daeead917559ab349ec5aef367f4caa061ba63b4ac14b7fe8d0137",
        EMPTY),
    "version-before-command": (["--version", "heatmap"], 0,
        "a7d88a55907406272b98ec4d64cfe5483e4dc30cf46f3f3d1c390212553def7e",
        EMPTY),
    "unknown-command": (["bogus"], 2,
        EMPTY,
        "e845027f0563f0bacdbd49ae684905438e3f14edc25e7a31c6a852b1b5490042"),
    "no-command": ([], 2,
        EMPTY,
        "89c753663ba18dcaf7ca89b1406fcb2775e6765952af09271073cfc8782e1877"),
    "train-no-flags": (["train"], 2,
        EMPTY,
        "b42150efd4bba6edb41d66392d626eb9721521611985499c4f73d44cfc34e248"),
    "train-config-error": (["train", "--out", "o"], 2,
        EMPTY,
        "7464542960cb509458f95072980404683c6942ff7bc55dbbe797bd0fd8bbaa20"),
    "heatmap-config-error": (["heatmap", "--checkpoint", "c", "--out", "o"], 2,
        EMPTY,
        "b82fe9100d10914568366a89291c8ee07e50ee5f1d8f1521819b5b7c4d02bb71"),
}


@pytest.mark.parametrize("case", list(USAGE_CASES))
def test_usage_output_bytes(monkeypatch, case):
    argv, code, stdout_digest, stderr_digest = USAGE_CASES[case]
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == stdout_digest
    assert hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest() == stderr_digest
