"""The benchmark's traced run wraps functions of ``seqattn`` by name
(``perfbench/probe.py``). A refactor that renames a hooked function, or
that reads or encodes its input outside the hooked names, would crash the
traced run or silently zero those layers. These tests catch both.

``perfbench/probe.py`` is imported read-only from its file; nothing under
``perfbench/`` is edited.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from seqattn.backbone import store_precomputed
from seqattn.cli import main

PROBE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


@pytest.fixture(scope="module")
def probe_module():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves(probe_module):
    for _, targets, _ in probe_module.LAYERS:
        for target in targets:
            probe_module._resolve(target)  # raises RuntimeError if absent


def tsv_inputs(tmp_path) -> list[str]:
    data = tmp_path / "corpus.tsv"
    data.write_text("".join(f"{i % 2}\t{'yes' if i % 2 else 'no'} word{i % 5}\n" for i in range(40)))
    return ["--data", str(data)]


def samemb1_inputs(tmp_path) -> list[str]:
    rng = np.random.default_rng(0)
    seqs = [(rng.normal(size=(3, 4)).astype(np.float32), i % 2) for i in range(40)]
    data = tmp_path / "vectors.semb"
    store_precomputed(data, seqs)
    return ["--emb", f"precomputed:{data}"]


@pytest.mark.parametrize(
    "inputs, reader",
    [(tsv_inputs, "data.parse_tsv_s"), (samemb1_inputs, "backbone.load_precomputed_s")],
    ids=["tsv", "samemb1"],
)
def test_training_command_runs_through_the_hooks(probe_module, tmp_path, inputs, reader):
    probe = probe_module.Probe()
    probe.install_layers()
    probe.install_clock()
    try:
        probe.phase = "train"
        code = main(["train", *inputs(tmp_path), "--dim", "4", "--max-len", "4", "--epochs", "1",
                     "--folds", "1", "--seed", "0", "--out", str(tmp_path / "run")])
    finally:
        probe.uninstall()
    assert code == 0

    def calls(bucket, metric):
        return probe.acc[(bucket, metric)][2]

    # the reader and the encoder run in the command's setup, outside any step
    assert calls("train", reader) == 1
    assert calls("train", "model.encode_s") == 2  # the train and dev subsets
    assert calls("step", "model.forward_ms") > 0
    assert calls("step", "train.adamw_step_ms") > 0


def test_samemb1_steps_run_the_traced_modules(probe_module, tmp_path):
    """The stage's traced split stays meaningful on fixed input: each module
    function and the backward walk run inside the steps, and the fixed
    input's token pooling does not, since encoding pooled it once."""
    probe = probe_module.Probe()
    probe.install_layers()
    probe.install_clock()
    try:
        probe.phase = "train"
        code = main(["train", *samemb1_inputs(tmp_path), "--dim", "4", "--max-len", "4",
                     "--epochs", "1", "--folds", "1", "--seed", "0", "--out", str(tmp_path / "run")])
    finally:
        probe.uninstall()
    assert code == 0
    for metric in ("sam.fam_map_ms", "sam.af_fam_apply_ms", "sam.tam_map_ms", "sam.tam_apply_ms",
                   "tensor.backward_ms"):
        assert probe.acc[("step", metric)][2] > 0, metric
    assert probe.acc[("step", "kernels.token_maxpool_fwd_ms")][2] == 0
