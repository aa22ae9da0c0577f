"""Property tests of the readers behind the CLI: generated SAMEMB1 files,
TSV corpora and damaged checkpoints must end every run with one of the
documented exit codes (0 success, 2 usage, 3 data/format, 4 numeric) and
never with an uncaught exception.

Examples are derandomized, so every run checks the same inputs, and kept
few and tiny, since each one runs a whole CLI command.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqattn.cli import main

EXIT_CODES = {0, 2, 3, 4}

fuzz = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TRAIN = ["--max-len", "4", "--epochs", "1", "--folds", "2", "--batch", "8", "--seed", "1"]


def run(argv: list[str]) -> int:
    code = main(argv)
    assert code in EXIT_CODES, f"exit code {code} for {argv}"
    return code


# -- SAMEMB1 -------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(allow_nan=False), st.text(max_size=3)
)
record_values = st.floats(width=32, allow_nan=True, allow_infinity=True)
DAMAGE = ["none", "values", "header-field", "header-bytes", "truncated", "trailing"]


@st.composite
def samemb1_files(draw) -> tuple[bytes, int]:
    """A well-formed SAMEMB1 file with at most one kind of damage, and its width."""
    dim = draw(st.integers(1, 4))
    records = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=12))
    damage = draw(st.sampled_from(DAMAGE))
    header = {"num_sequences": len(records), "dim": dim}
    if damage == "header-field":
        header[draw(st.sampled_from(["num_sequences", "dim"]))] = draw(json_scalars)
    header_line = json.dumps(header).encode()
    if damage == "header-bytes":
        header_line = draw(st.binary(max_size=12))
    blob = bytearray(b"SAMEMB1\n" + header_line + b"\n")
    rng = np.random.default_rng(len(records))
    for length, label in records:
        blob += struct.pack("<II", length, label)
        values = rng.normal(size=length * dim).astype("<f4")
        if damage == "values" and length:
            values[draw(st.integers(0, values.size - 1))] = draw(record_values)
        blob += values.tobytes()
    if damage == "truncated":
        blob = blob[: draw(st.integers(0, len(blob)))]
    if damage == "trailing":
        blob += draw(st.binary(min_size=1, max_size=6))
    return bytes(blob), dim


# every training command reads its input through the same path
COMMANDS = [["train"], ["ablate", "--settings", "SAM"], ["sweep-delta", "--grid", "0:0:1"]]


@fuzz
@given(file=samemb1_files(), width_matches=st.booleans(), command=st.sampled_from(COMMANDS))
def test_samemb1_reader_ends_with_an_exit_code(file, width_matches, command):
    blob, dim = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.semb"
        path.write_bytes(blob)
        run([*command, "--emb", f"precomputed:{path}", "--dim", str(dim if width_matches else dim + 1),
             *TRAIN, "--out", str(Path(tmp) / "run")])


# -- TSV -------------------------------------------------------------------------

good_lines = st.builds(lambda label, words: f"{label}\t{' '.join(words)}",
                       st.sampled_from(["0", "1", " 2 ", "-1"]),
                       st.lists(st.sampled_from(["good", "bad", "movie", "!", "x"]), max_size=5))
bad_lines = st.one_of(
    st.builds(lambda label, text: f"{label}\t{text}",
              st.one_of(st.sampled_from(["1.5", "x", ""]), st.text(max_size=3)),
              st.text(max_size=8)),
    st.text(max_size=8),
)


@st.composite
def tsv_files(draw) -> bytes:
    """Well-formed ``label<TAB>text`` lines with at most one kind of damage."""
    lines = draw(st.lists(good_lines, min_size=2, max_size=16))
    damage = draw(st.sampled_from(["none", "line", "bytes"]))
    if damage == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_lines))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    blob = newline.join(lines).encode("utf-8", "surrogatepass")
    if damage == "bytes":
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.binary(min_size=1, max_size=4)) + blob[at:]
    return blob


@fuzz
@given(blob=tsv_files())
def test_tsv_reader_ends_with_an_exit_code(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.tsv"
        path.write_bytes(blob)
        run(["train", "--data", str(path), "--dim", "4", *TRAIN, "--out", str(Path(tmp) / "run")])


# -- checkpoints -----------------------------------------------------------------


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> bytes:
    out = tmp_path_factory.mktemp("fuzz-run")
    code = main(["train", "--synthetic", "trigger:60:20", "--dim", "4", *TRAIN, "--out", str(out)])
    assert code == 0
    return (out / "checkpoint.npz").read_bytes()


def heatmap(blob: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.npz"
        path.write_bytes(blob)
        return run(["heatmap", "--checkpoint", str(path), "--text", "good movie",
                    "--out", str(Path(tmp) / "heat")])


@fuzz
@given(data=st.data())
def test_damaged_checkpoint_ends_with_an_exit_code(checkpoint, data):
    blob = bytearray(checkpoint)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    heatmap(bytes(blob))


@fuzz
@given(data=st.data())
def test_checkpoint_metadata_fields_end_with_an_exit_code(checkpoint, data, tmp_path_factory):
    # a well-formed archive whose metadata carries generated values
    with np.load(_write(tmp_path_factory, checkpoint)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    values = st.one_of(json_scalars, st.lists(st.text(max_size=3), max_size=3),
                       st.sampled_from(["mean", "max", "first", "fam-tam", "tam-fam"]))
    for key in data.draw(st.lists(st.sampled_from(sorted(meta["sam"])), max_size=3)):
        meta["sam"][key] = data.draw(values)
    for key in data.draw(st.lists(st.sampled_from(["pooling", "num_classes", "vocab"]), max_size=2)):
        meta[key] = data.draw(values)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "meta.npz"
        np.savez(path, **arrays)
        heatmap(path.read_bytes())


def _write(factory, blob: bytes) -> Path:
    path = factory.getbasetemp() / "fuzz-source.npz"
    path.write_bytes(blob)
    return path


# -- heatmap on SAMEMB1 ----------------------------------------------------------


@pytest.fixture(scope="module")
def precomputed_checkpoints(tmp_path_factory) -> dict[int, Path]:
    """A checkpoint trained on SAMEMB1 vectors for every width the files draw."""
    root = tmp_path_factory.mktemp("fuzz-precomputed")
    rng = np.random.default_rng(3)
    paths = {}
    for dim in range(1, 5):
        blob = b"SAMEMB1\n" + json.dumps({"num_sequences": 20, "dim": dim}).encode() + b"\n"
        for i in range(20):
            blob += struct.pack("<II", 3, i % 2) + rng.normal(size=3 * dim).astype("<f4").tobytes()
        data = root / f"train{dim}.semb"
        data.write_bytes(blob)
        out = root / f"run{dim}"
        assert main(["train", "--emb", f"precomputed:{data}", "--dim", str(dim), *TRAIN,
                     "--out", str(out)]) == 0
        paths[dim] = out / "checkpoint.npz"
    return paths


@fuzz
@given(file=samemb1_files(), width_matches=st.booleans(), index=st.integers(-1, 13))
def test_heatmap_on_samemb1_ends_with_an_exit_code(precomputed_checkpoints, file, width_matches, index):
    blob, dim = file
    checkpoint = precomputed_checkpoints[dim if width_matches else dim % 4 + 1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.semb"
        path.write_bytes(blob)
        run(["heatmap", "--checkpoint", str(checkpoint), "--data", str(path), "--index", str(index),
             "--out", str(Path(tmp) / "heat")])
