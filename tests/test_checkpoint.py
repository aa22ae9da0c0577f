"""The checkpoint loader builds a model straight from the stored arrays.

``load_checkpoint`` works out each parameter's name and shape from the
metadata and wraps the loaded arrays as leaves: these tests pin that it
draws nothing from a random generator, that every parameter comes back bit
for bit with a zero gradient buffer, and that the shapes it expects are
the shapes ``init_model`` builds. Its own .npz reader must give the arrays
``np.load`` gives for the layout ``save_checkpoint`` writes, and must refuse
every other layout and every damaged member with exit 3.
"""

import hashlib
import io
import json
import pickle
import struct
import tracemalloc
import zipfile
import zlib

import numpy as np
import pytest

from seqattn.backbone import Vocab
from seqattn.cli import main
from seqattn.errors import FormatError
from seqattn.model import (
    META_DTYPES,
    PARAM_DTYPES,
    init_model,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
)
from seqattn.sam import Order, SamConfig

CONFIGS = [
    SamConfig(d_model=8, max_len=12),
    SamConfig(d_model=6, max_len=5, bottleneck_ratio=8, delta=0.2, order=Order.TAM_THEN_FAM),
    SamConfig(d_model=3, max_len=2, bottleneck_ratio=1, fam_enabled=False),
]


def saved_model(tmp_path, cfg: SamConfig, table: bool, num_classes: int = 3):
    vocab = Vocab([f"w{i}" for i in range(17)]) if table else None
    model = init_model(cfg, num_classes, "max", np.random.default_rng(4), vocab=vocab)
    for p in model.parameters().values():  # trained-looking values, signed zeros included
        p.data[...] = np.random.default_rng(p.size).normal(size=p.shape) * 1e3
        p.data.reshape(-1)[0] = -0.0
        p.data.reshape(-1)[1:2] = 0.0
    path = tmp_path / "model.npz"
    save_checkpoint(path, model)
    return model, path


@pytest.mark.parametrize("table", [True, False], ids=["table", "precomputed"])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "small-ratio-tam-fam", "ratio-1-no-fam"])
def test_parameters_round_trip_bit_for_bit(tmp_path, cfg, table):
    model, path = saved_model(tmp_path, cfg, table)
    loaded = load_checkpoint(path)
    assert loaded.cfg == model.cfg and loaded.head.pooling == "max"
    assert (loaded.vocab is None) == (not table)
    saved, params = model.parameters(), loaded.parameters()
    assert list(params) == list(saved)
    for name, p in params.items():
        assert p.data.dtype == np.float64 and p.data.flags.c_contiguous
        assert p.data.tobytes() == saved[name].data.tobytes(), name
        assert p.requires_grad
        assert p.grad.shape == p.shape and p.grad.tobytes() == bytes(p.grad.nbytes)  # all +0.0


@pytest.mark.parametrize("table", [True, False], ids=["table", "precomputed"])
def test_load_draws_nothing_from_a_random_generator(tmp_path, monkeypatch, table):
    _, path = saved_model(tmp_path, CONFIGS[0], table)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    load_checkpoint(path)


def test_big_endian_parameter_loads_the_same_values(tmp_path):
    model, path = saved_model(tmp_path, CONFIGS[1], table=True)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["param/embed.table"] = arrays["param/embed.table"].astype(">f8")
    np.savez(path, **arrays)
    loaded = load_checkpoint(path).table.data
    assert loaded.dtype == np.float64 and loaded.dtype.isnative and loaded.flags.c_contiguous
    assert loaded.tobytes() == model.table.data.tobytes()


def test_save_writes_the_live_arrays_without_copying_them(tmp_path):
    # a copy of every parameter would hold the table twice while zip writes it
    vocab = Vocab([f"w{i}" for i in range(4000)])
    model = init_model(SamConfig(d_model=48, max_len=12), 3, "max", np.random.default_rng(4), vocab=vocab)
    model.table.data[...] = np.random.default_rng(1).normal(size=model.table.shape)
    path = tmp_path / "model.npz"
    tracemalloc.start()
    try:
        save_checkpoint(path, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = model.table.data.nbytes
    assert peak < 1.5 * table_bytes
    loaded = load_checkpoint(path).parameters()
    for name, p in model.parameters().items():
        assert loaded[name].data.tobytes() == p.data.tobytes(), name


def test_metadata_bytes_are_pinned(tmp_path):
    # every SamConfig field off its default; the digest was recorded when the
    # writer still listed the fields by hand, so key order and values hold
    cfg = SamConfig(d_model=6, max_len=5, delta=0.2, bottleneck_ratio=8,
                    order=Order.TAM_THEN_FAM, tam_enabled=False)
    model = init_model(cfg, 3, "max", np.random.default_rng(4), vocab=Vocab(["a", "b"]))
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, extra={"k": 1})
    with np.load(path) as archive:
        meta = bytes(archive["__meta__"])
    assert hashlib.sha256(meta).hexdigest() == (
        "2b8e903fe7bcd791e32535d85f4889868c63f9c12f2b2e5a12586a59321a4e77"
    )


@pytest.mark.parametrize("table", [True, False], ids=["table", "precomputed"])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "small-ratio-tam-fam", "ratio-1-no-fam"])
def test_expected_shapes_are_the_initialised_ones(cfg, table):
    vocab = Vocab(["a", "b", "c"]) if table else None
    model = init_model(cfg, 4, "mean", np.random.default_rng(0), vocab=vocab)
    built = {name: p.shape for name, p in model.parameters().items()}
    expected = parameter_shapes(cfg, 4, None if vocab is None else len(vocab))
    assert list(expected.items()) == list(built.items())


@pytest.mark.parametrize("field", ["d_model", "max_len", "bottleneck_ratio", "num_classes"])
def test_size_stored_as_a_float_is_format_error(tmp_path, field):
    # 8.0 compares equal to 8, but numpy takes no float as an array size, so a
    # float is a wrong type even where the arrays have the size it names
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    fields = meta if field == "num_classes" else meta["sam"]
    fields[field] = float(fields[field])
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(FormatError, match="metadata does not describe a model"):
        load_checkpoint(path)


# -- the .npz reader ---------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg, table",
    [(CONFIGS[0], True), (CONFIGS[0], False), (CONFIGS[1], False)],
    ids=["table", "samemb1", "samemb1-tam-first"],
)
def test_arrays_are_np_load_arrays_bit_for_bit(tmp_path, cfg, table):
    _, path = saved_model(tmp_path, cfg, table)
    loaded = load_checkpoint(path).parameters()
    with np.load(path) as archive:
        for key in archive.files:
            if key.startswith("param/"):
                assert_same_array(loaded[key[len("param/"):]].data, archive[key])


@pytest.mark.parametrize("table", [True, False], ids=["table", "precomputed"])
def test_save_checkpoint_writes_only_the_layout_the_reader_accepts(tmp_path, table):
    # read with numpy's own header parser, not the reader's
    _, path = saved_model(tmp_path, CONFIGS[1], table)
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            assert info.compress_type == zipfile.ZIP_STORED, info.filename
            with archive.open(info) as stream:
                assert np.lib.format.read_magic(stream) == (1, 0), info.filename
                _, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
            assert not fortran_order, info.filename
            assert dtype.str in (META_DTYPES if info.filename == "__meta__.npy" else PARAM_DTYPES)


def assert_same_array(got, expected):
    assert got.tobytes() == expected.tobytes()
    assert (got.dtype, got.shape, got.strides) == (expected.dtype, expected.shape, expected.strides)
    assert got.flags.c_contiguous == expected.flags.c_contiguous
    assert got.flags.writeable and expected.flags.writeable


@pytest.mark.parametrize("layout, message", [
    ("deflated", "not stored uncompressed"),
    ("fortran-order", "<f8 in Fortran order"),
    ("bool", "|b1 in C order"),
    ("int16", "<i2 in C order"),
    ("float32", "<f4 in C order"),
], ids=["deflated", "fortran-order", "bool", "int16", "float32"])
def test_layout_save_checkpoint_does_not_write_exits_3(tmp_path, capsys, monkeypatch, layout, message):
    # np.savez and np.savez_compressed write each of these; no checkpoint holds them
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    if layout == "fortran-order":
        arrays["param/head.w"] = np.asfortranarray(arrays["param/head.w"])
    elif layout != "deflated":
        arrays["param/head.w"] = arrays["param/head.w"].astype(layout)
    np.savez(path, **arrays)
    if layout == "deflated":
        write_members(path, member_bytes(path), deflated="param/head.w.npy")

    def no_inflating(*args, **kwargs):
        raise AssertionError("the checkpoint reader inflated a member")

    monkeypatch.setattr(zlib, "decompressobj", no_inflating)
    code, err = heatmap_exit_code(path, tmp_path, capsys)
    assert code == 3 and "param/head.w.npy" in err and message in err


@pytest.mark.parametrize("damage", ["encrypted-flag", "local-name"])
def test_member_zipfile_cannot_read_exits_3(tmp_path, capsys, damage):
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    blob = bytearray(path.read_bytes())
    if damage == "encrypted-flag":
        # the reader refuses the flag itself; zipfile would raise RuntimeError, not BadZipFile.
        # The central directory follows every member, and its entry's name
        # starts 46 bytes in, 38 bytes after the flags
        blob[blob.rindex(b"param/embed.table.npy") - 38] |= 0x01
        member, message = "param/embed.table.npy", "encrypted"
    else:
        # the first copy of a name is the member's local header; the central directory keeps the old one
        at = blob.index(b"param/head.b.npy")
        blob[at:at + 16] = b"param/head.c.npy"
        member, message = "param/head.b.npy", "is named 'param/head.c.npy' in its local header"
    path.write_bytes(bytes(blob))
    code, err = heatmap_exit_code(path, tmp_path, capsys)
    assert code == 3 and member in err and message in err


def member_bytes(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def write_members(path, members: dict[str, bytes], deflated: str | None = None) -> None:
    """Write ``members`` as a zip, each stored except ``deflated``."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, blob in members.items():
            archive.writestr(name, blob, zipfile.ZIP_DEFLATED if name == deflated else zipfile.ZIP_STORED)


def npy_header(length: int) -> bytes:
    """The start of an .npy file whose header claims ``length`` bytes."""
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", length)


def heatmap_exit_code(path, tmp_path, capsys) -> tuple[int, str]:
    code = main(["heatmap", "--checkpoint", str(path), "--text", "w1 w2", "--out", str(tmp_path / "h")])
    return code, capsys.readouterr().err


def test_flipped_payload_byte_fails_the_crc(tmp_path, capsys):
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("param/embed.table.npy")
    blob = bytearray(path.read_bytes())
    name_length, extra_length = struct.unpack_from("<2H", blob, info.header_offset + 26)
    start = info.header_offset + 30 + name_length + extra_length  # the .npy bytes
    data = start + 10 + struct.unpack_from("<H", blob, start + 8)[0]
    blob[data + 77] ^= 0x10  # one bit of one float: any shape and size check still passes
    path.write_bytes(bytes(blob))
    code, err = heatmap_exit_code(path, tmp_path, capsys)
    assert code == 3 and "param/embed.table.npy" in err and "CRC-32" in err


@pytest.mark.parametrize("damage, message", [
    ("truncated-payload", "its .npy header declares"),
    ("header-past-entry", "no version 1.0 .npy header within its bytes"),
])
def test_member_shorter_than_its_header_says_exits_3(tmp_path, capsys, damage, message):
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    members = member_bytes(path)
    blob = members["param/ffn_f.w1.npy"]
    if damage == "truncated-payload":
        members["param/ffn_f.w1.npy"] = blob[: len(blob) - 100]
    else:
        members["param/ffn_f.w1.npy"] = npy_header(200) + b"{'descr': '<f8', "
    write_members(path, members)
    code, err = heatmap_exit_code(path, tmp_path, capsys)
    assert code == 3 and "param/ffn_f.w1.npy" in err and message in err


@pytest.mark.parametrize("descr, shape, nbytes", [
    ("bogus", (3,), 24),
    ("<f3", (3,), 24),
    ("M8[xx]", (3,), 24),
    ("<c16", (3,), 48),
    # zero-width strings: numpy would allocate a byte or four per element
    ("|S0", (10**12,), 0),
    ("<U0", (10**12,), 0),
])
def test_member_of_unknown_dtype_exits_3(tmp_path, capsys, descr, shape, nbytes):
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    members = member_bytes(path)
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(buffer, {"descr": descr, "fortran_order": False, "shape": shape})
    members["param/head.b.npy"] = buffer.getvalue() + bytes(nbytes)
    write_members(path, members)
    code, err = heatmap_exit_code(path, tmp_path, capsys)
    assert code == 3 and "param/head.b.npy" in err


def test_member_overlapping_the_next_exits_3(tmp_path, capsys):
    # the first parameter's entry is widened over the second's local header
    # and data, with a CRC-32 and an .npy header that fit the wider bytes:
    # nested like this, each member would fill its own array from them
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    blob = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        outer, inner = archive.infolist()[1:3]
    start = outer.header_offset + 30 + sum(struct.unpack_from("<2H", blob, outer.header_offset + 26))
    inner_start = inner.header_offset + 30 + sum(struct.unpack_from("<2H", blob, inner.header_offset + 26))
    size = inner_start + inner.compress_size - start
    header_length = 10 + struct.unpack_from("<H", blob, start + 8)[0]
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "|u1", "fortran_order": False, "shape": (size - header_length,)})
    assert len(buffer.getvalue()) == header_length
    blob[start : start + header_length] = buffer.getvalue()
    entry = blob.rindex(outer.filename.encode()) - 46  # its central directory entry
    struct.pack_into("<3L", blob, entry + 16, zlib.crc32(blob[start : start + size]), size, size)
    path.write_bytes(bytes(blob))
    code, err = heatmap_exit_code(path, tmp_path, capsys)
    assert code == 3 and outer.filename in err and "overlaps" in err


@pytest.mark.parametrize("form", ["pickled", "pointer-sized"])
def test_object_member_is_refused_without_unpickling(tmp_path, capsys, monkeypatch, form):
    # np.save pickles an object array; a member whose size matches its
    # object header would otherwise be read as raw object references
    _, path = saved_model(tmp_path, CONFIGS[0], table=True)
    members = member_bytes(path)
    buffer = io.BytesIO()
    if form == "pickled":
        np.save(buffer, np.array([{"a": 1}, None], dtype=object), allow_pickle=True)
    else:
        np.lib.format.write_array_header_1_0(
            buffer, {"descr": "|O", "fortran_order": False, "shape": (2,)})
        buffer.write(bytes(range(2 * np.dtype(object).itemsize)))
    members["param/head.b.npy"] = buffer.getvalue()
    write_members(path, members)

    def no_unpickling(*args, **kwargs):
        raise AssertionError("the checkpoint reader unpickled a member")

    monkeypatch.setattr(pickle, "load", no_unpickling)
    monkeypatch.setattr(pickle, "loads", no_unpickling)
    code, err = heatmap_exit_code(path, tmp_path, capsys)
    assert code == 3 and "param/head.b.npy" in err and "|O in C order, not <f8 or >f8" in err
