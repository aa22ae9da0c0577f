"""The checkpoint loader builds a model straight from the stored arrays.

``load_checkpoint`` works out each parameter's name and shape from the
metadata and wraps the loaded arrays as leaves: these tests pin that it
draws nothing from a random generator, that every parameter comes back bit
for bit with a zero gradient buffer, and that the shapes it expects are
the shapes ``init_model`` builds.
"""

import hashlib
import json

import numpy as np
import pytest

from seqattn.backbone import Vocab
from seqattn.errors import FormatError
from seqattn.model import init_model, load_checkpoint, parameter_shapes, save_checkpoint
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


def test_stored_float32_parameter_loads_as_float64(tmp_path):
    model, path = saved_model(tmp_path, CONFIGS[1], table=False)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["param/head.w"] = arrays["param/head.w"].astype(np.float32)
    np.savez(path, **arrays)
    loaded = load_checkpoint(path)
    expected = model.head.w.data.astype(np.float32).astype(np.float64)
    assert loaded.head.w.data.dtype == np.float64
    assert loaded.head.w.data.tobytes() == expected.tobytes()


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
