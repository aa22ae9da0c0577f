"""Timing hooks installed on seqattn from the outside.

A :class:`Probe` replaces module and class attributes of the imported
``seqattn`` package with wrappers and puts the originals back on
:meth:`Probe.uninstall`; nothing under ``src/`` is edited. Two levels:

* the clock (always installed): ``Model.zero_grad`` marks the start of a
  training step and ``train.evaluate`` the end of an epoch. End-to-end
  training times are taken from these two timestamps, so they do not
  depend on the ``seconds`` the program writes about itself;
* the layers (traced runs only): every function in :data:`LAYERS` is timed,
  with its self time (its time minus that of the traced calls it makes).

Each timed call is filed under a bucket: ``step`` while a training step
runs, ``eval`` inside ``evaluate``, else the phase the benchmark set
(``train`` for a training command's setup and save, ``score``,
``heatmap``).
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# Every duration is CPU time of the calling thread. The program is single
# threaded (one BLAS thread), so on an idle host this equals wall time; on a
# virtual machine shared with other tenants it leaves out the time the host
# deschedules the virtual CPU (steal), which otherwise adds tens of percent
# to the tail of short operations from one run to the next.
clock = time.thread_time

KERNELS = [
    "token_maxpool_fwd", "token_maxpool_bwd", "token_avgpool_fwd", "token_avgpool_bwd",
    "feature_maxpool_fwd", "feature_maxpool_bwd", "feature_avgpool_fwd", "feature_avgpool_bwd",
    "masked_softmax_fwd", "masked_softmax_bwd", "embedding_fwd", "embedding_bwd",
]

# (metric, attributes to wrap as "module:Attr.path", how the total is divided)
#   step    - mean ms per training step, counting calls made inside steps
#   command - seconds per training command, counting its setup and save
#   call    - ms per call made during training commands
#   heatmap - ms per heatmap call
LAYERS: list[tuple[str, list[str], str]] = [
    ("data.parse_tsv_s", ["seqattn.cli:parse_tsv"], "command"),
    ("data.kfold_split_s", ["seqattn.train:kfold_split"], "command"),
    ("backbone.vocab_build_s", ["seqattn.backbone:Vocab.build"], "command"),
    ("backbone.load_precomputed_s", ["seqattn.cli:load_precomputed"], "command"),
    ("backbone.embed_ms", ["seqattn.model:embed"], "step"),
    ("model.encode_s", ["seqattn.train:encode_texts", "seqattn.train:encode_embeddings"], "command"),
    ("model.take_ms", ["seqattn.train:take"], "step"),
    ("model.forward_ms", ["seqattn.model:Model.forward"], "step"),
    ("model.save_checkpoint_ms", ["seqattn.cli:save_checkpoint"], "call"),
    ("model.load_checkpoint_ms", ["seqattn.cli:load_checkpoint"], "heatmap"),
    ("sam.fam_map_ms", ["seqattn.sam:fam_map"], "step"),
    ("sam.af_fam_apply_ms", ["seqattn.sam:af_fam_apply"], "step"),
    ("sam.tam_map_ms", ["seqattn.sam:tam_map"], "step"),
    ("sam.tam_apply_ms", ["seqattn.sam:tam_apply"], "step"),
    ("head.pool_sequence_ms", ["seqattn.model:pool_sequence"], "step"),
    ("head.cross_entropy_ms", ["seqattn.model:cross_entropy"], "step"),
    ("tensor.backward_ms", ["seqattn.train:backward"], "step"),
    ("tensor.matmul_ordered_ms", ["seqattn.sam:matmul_ordered"], "step"),
    *[(f"kernels.{k}_ms", [f"seqattn.kernels:{k}"], "step") for k in KERNELS],
    ("train.adamw_step_ms", ["seqattn.train:adamw_step"], "step"),
    ("train.lookahead_sync_ms", ["seqattn.train:lookahead_sync"], "step"),
    ("train.evaluate_ms", ["seqattn.train:evaluate"], "call"),
    ("svg.token_heatmap_ms", ["seqattn.cli:token_heatmap"], "heatmap"),
]

# Metrics derived from the wrappers above rather than wrapping anything new.
DERIVED = ["tensor.backward_self_ms", "train.step_ms_p50", "trace.overhead_pct"]

PER_LAYER = [name for name, _, _ in LAYERS] + DERIVED


def _resolve(target: str):
    """'pkg.mod:Cls.attr' -> (owner object, attribute name)."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise RuntimeError(f"cannot hook {target}: no such attribute")
    return owner, attr


class Probe:
    def __init__(self):
        self.phase = "setup"
        self._undo: list[tuple[object, str, object]] = []
        self._in_eval = False
        self._stack: list[list[float]] = []
        # (bucket, metric) -> [total seconds, self seconds, calls]
        self.acc: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0, 0])
        # step durations, one list per epoch; an epoch's steps run back to
        # back from its first zero_grad to its evaluate, so they sum to it
        self.epoch_steps: list[list[float]] = []
        self.begin_command()

    def begin_command(self) -> None:
        """Reset the per-command clock before a training command starts."""
        self.first_step_at: float | None = None
        self._step_start: float | None = None

    # -- installation ---------------------------------------------------------

    def _patch(self, target: str, make) -> None:
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def install_clock(self) -> None:
        """Install after :meth:`install_layers`, so that the clock hook is
        the outer wrapper and the step has ended before evaluate is timed."""
        self._patch("seqattn.model:Model.zero_grad", self._wrap_zero_grad)
        self._patch("seqattn.train:evaluate", self._wrap_evaluate)

    def install_layers(self) -> None:
        for metric, targets, _ in LAYERS:
            for target in targets:
                self._patch(target, lambda fn, m=metric: self._timed(fn, m))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- wrappers ---------------------------------------------------------------

    def _bucket(self) -> str:
        if self._in_eval:
            return "eval"
        return "step" if self._step_start is not None else self.phase

    def _timed(self, fn, metric: str):
        probe = self

        def wrapper(*args, **kwargs):
            bucket = probe._bucket()
            frame = [0.0]
            probe._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                probe._stack.pop()
                if probe._stack:
                    probe._stack[-1][0] += elapsed
                slot = probe.acc[(bucket, metric)]
                slot[0] += elapsed
                slot[1] += elapsed - frame[0]
                slot[2] += 1

        return wrapper

    def _wrap_zero_grad(self, fn):
        probe = self

        def zero_grad(*args, **kwargs):
            now = clock()
            if probe._step_start is None:
                probe.epoch_steps.append([])
                if probe.first_step_at is None:
                    probe.first_step_at = now
            else:
                probe.epoch_steps[-1].append(now - probe._step_start)
            probe._step_start = now
            return fn(*args, **kwargs)

        return zero_grad

    def _wrap_evaluate(self, fn):
        probe = self

        def evaluate(*args, **kwargs):
            now = clock()
            if probe._step_start is not None:
                probe.epoch_steps[-1].append(now - probe._step_start)
                probe._step_start = None
            probe._in_eval = True
            try:
                return fn(*args, **kwargs)
            finally:
                probe._in_eval = False

        return evaluate

    # -- results ----------------------------------------------------------------

    def per_layer(self, commands: int, heatmap_calls: int, overhead_pct: float) -> dict[str, float]:
        """Every PER_LAYER metric; a layer that never ran reads 0."""
        out: dict[str, float] = {}
        steps_s = [s for epoch in self.epoch_steps for s in epoch]
        steps = max(len(steps_s), 1)
        for metric, _, per in LAYERS:
            if per == "step":
                out[metric] = self.acc[("step", metric)][0] * 1e3 / steps
            elif per == "command":
                out[metric] = self.acc[("train", metric)][0] / max(commands, 1)
            elif per == "call":
                # evaluate is filed under "eval", since the clock hook
                # around it runs first; save_checkpoint under "train"
                total = sum(self.acc[(b, metric)][0] for b in ("train", "eval"))
                calls = sum(self.acc[(b, metric)][2] for b in ("train", "eval"))
                out[metric] = total * 1e3 / calls if calls else 0.0
            else:
                out[metric] = self.acc[("heatmap", metric)][0] * 1e3 / max(heatmap_calls, 1)
        out["tensor.backward_self_ms"] = self.acc[("step", "tensor.backward_ms")][1] * 1e3 / steps
        out["train.step_ms_p50"] = statistics.median(steps_s) * 1e3 if steps_s else 0.0
        out["trace.overhead_pct"] = overhead_pct
        return out
