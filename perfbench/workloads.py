"""The three workloads: shapes, training settings, quality targets, and
how much work a run does.

Work is fixed per run, not bounded by a clock: ``--seconds`` scales the
number of training commands, scoring passes and heatmap calls by
``seconds / 30``; with the figures below a 30 s run lasts 28-40 s on the
reference machine. Both sides of a comparison then do the same work, and
a faster program finishes sooner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

FOLD_K = 5  # seqattn train --folds 1 holds out fold 0 of an internal 5-fold split


@dataclass(frozen=True)
class Workload:
    name: str
    precomputed: bool
    dim: int
    max_len: int
    delta: float
    lr: float
    epochs: int
    target: float  # accuracy for s_to_target, and the floor for held-out accuracy
    n_train: int  # records per training file; the program holds out a fifth as dev
    n_heldout: int
    commands: int  # training commands per 30 s run, each on its own corpus
    score_passes: int  # forward passes over the held-out set per 30 s run
    heatmap_calls: int  # per 30 s run; at least 100 keeps ten beyond p90

    def records(self, rng: np.random.Generator, n: int) -> list:
        if self.name == "train-cooc":
            return gen.cooc_records(rng, n, self.max_len)
        if self.name == "train-bigvocab":
            return gen.bigvocab_records(rng, n, self.max_len)
        return gen.long_records(rng, n, self.dim, self.max_len)

    def write(self, path: Path, records: list) -> None:
        if self.precomputed:
            gen.write_samemb1(path, records, self.dim)
        else:
            gen.write_tsv(path, records)

    @property
    def suffix(self) -> str:
        return ".semb" if self.precomputed else ".tsv"

    def labels(self, records: list) -> list[int]:
        return [r[1] if self.precomputed else r[0] for r in records]

    def train_argv(self, data: Path, trainer_seed: int, out: Path) -> list[str]:
        source = ["--emb", f"precomputed:{data}"] if self.precomputed else ["--data", str(data)]
        return [
            "train", *source,
            "--dim", str(self.dim), "--max-len", str(self.max_len),
            "--delta", repr(self.delta), "--lr", repr(self.lr),
            "--epochs", str(self.epochs), "--folds", "1",
            "--seed", str(trainer_seed), "--out", str(out),
        ]

    def scaled(self, seconds: int) -> tuple[int, int, int]:
        """(training commands, scoring passes, heatmap calls) for a run."""
        share = seconds / 30.0
        return (
            max(2, round(self.commands * share)),
            max(1, round(self.score_passes * share)),
            max(100, round(self.heatmap_calls * share)),
        )


WORKLOADS = {
    w.name: w
    for w in [
        # Small shapes: per-op autograd and Python overhead dominate a step.
        # Carries the co-occurrence target of acceptance criterion 5.
        Workload(
            name="train-cooc",
            precomputed=False, dim=32, max_len=16, delta=0.0, lr=0.05, epochs=6,
            target=0.95, n_train=3000, n_heldout=1024,
            commands=14, score_passes=28, heatmap_calls=420,
        ),
        # A 20k x 300 table: dense AdamW and the embedding scatter dominate a
        # step, and every heatmap call reloads the 48 MB table.
        Workload(
            name="train-bigvocab",
            precomputed=False, dim=300, max_len=16, delta=0.1, lr=0.1, epochs=2,
            target=0.85, n_train=400, n_heldout=256,
            commands=3, score_passes=30, heatmap_calls=100,
        ),
        # SAMEMB1 input, no table: the pooling and softmax kernels,
        # matmul_ordered and backward dominate; setup and every heatmap call
        # parse the file.
        Workload(
            name="long-precomputed",
            precomputed=True, dim=128, max_len=128, delta=0.05, lr=0.05, epochs=4,
            target=0.85, n_train=400, n_heldout=256,
            commands=10, score_passes=24, heatmap_calls=120,
        ),
    ]
}


def label_mapping(labels: list[int]) -> dict[int, int]:
    """Raw label -> dense class id, in order of first appearance, as the
    README documents."""
    return {label: i for i, label in enumerate(dict.fromkeys(labels))}


def dev_indices(dense: np.ndarray, trainer_seed: int) -> np.ndarray:
    """Fold 0 of the stratified split that ``seqattn train --folds 1`` uses:
    each class shuffled in turn by one generator and dealt round-robin,
    the dealing position carried across classes."""
    rng = np.random.default_rng(trainer_seed)
    assignment = np.full(len(dense), -1, dtype=np.int64)
    pointer = 0
    for cls in range(int(dense.max()) + 1):
        members = np.flatnonzero(dense == cls)
        rng.shuffle(members)
        for idx in members:
            assignment[idx] = pointer % FOLD_K
            pointer += 1
    return np.flatnonzero(assignment == 0)
