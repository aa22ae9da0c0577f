"""Input generators for the benchmark, written apart from the program.

The program only ever sees the files these functions write. The planted
rules and the SAMEMB1 byte layout are re-implemented here from the README,
not taken from ``seqattn.data.make_synthetic`` or
``seqattn.backbone.store_precomputed``, so a fault in either shows up as a
failed check instead of being reproduced on both sides.

Every generator is a pure function of its ``numpy.random.Generator``.
"""

from __future__ import annotations

import json
import struct

import numpy as np

SAMEMB1_MAGIC = b"SAMEMB1\n"


def write_tsv(path, records: list[tuple[int, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, text in records:
            fh.write(f"{label}\t{text}\n")


def cooc_records(rng: np.random.Generator, n: int, max_len: int) -> list[tuple[int, str]]:
    """Class 1 iff both ``wa`` and ``wb`` appear among the first ``max_len``
    words. Negatives are split evenly among "wa only", "wb only" and
    "neither", so no single word decides the class. 48 background words
    make a vocabulary of 50; lengths 6..20 make some texts longer than
    ``max_len``, and planted words always sit inside the visible window."""
    background = [f"w{i}" for i in range(48)]
    records = []
    for i in range(n):
        positive = i % 2 == 0
        length = int(rng.integers(6, 21))
        words = [background[j] for j in rng.integers(0, len(background), size=length)]
        visible = min(length, max_len)
        if positive:
            a, b = rng.choice(visible, size=2, replace=False)
            words[int(a)], words[int(b)] = "wa", "wb"
        else:
            kind = int(rng.integers(0, 3))
            if kind < 2:
                words[int(rng.integers(0, visible))] = "wa" if kind == 0 else "wb"
        records.append((int(positive), " ".join(words)))
    order = rng.permutation(n)
    return [records[i] for i in order]


def bigvocab_records(rng: np.random.Generator, n: int, max_len: int) -> list[tuple[int, str]]:
    """Class 1 iff the word ``kw`` appears among the first ``max_len`` words;
    class-1 texts carry it at four of those positions, which every seed
    tried learns within the first epoch (planted once, some seeds stay at
    chance for the whole first epoch).

    Filler words are drawn from a space of a million, so nearly every
    filler occurrence is a new word: 56..72 words per text make a
    vocabulary of about 64 words per training text (about 20k for 320
    texts). Only the first ``max_len`` words reach the model, but the
    vocabulary, and so the embedding table, is built from whole texts.
    """
    records = []
    for i in range(n):
        positive = i % 2 == 0
        length = int(rng.integers(56, 73))
        words = [f"r{j}" for j in rng.integers(0, 1_000_000, size=length)]
        if positive:
            for pos in rng.choice(max_len, size=4, replace=False):
                words[int(pos)] = "kw"
        records.append((int(positive), " ".join(words)))
    order = rng.permutation(n)
    return [records[i] for i in order]


def long_records(rng: np.random.Generator, n: int, dim: int, max_len: int) -> list[tuple[np.ndarray, int]]:
    """Float32 (L_i, dim) records with L_i in [max_len/2, 3*max_len/2].

    Token vectors are N(0, 8^2) per coordinate; every token of a class-1
    record is shifted by 4.8 times a fixed N(0, 1) direction, so the class
    lives in the mean of the sequence. About half the records are longer
    than ``max_len`` and get truncated by the program.
    """
    direction = np.random.default_rng(12345).normal(size=dim)
    records = []
    for i in range(n):
        positive = i % 2 == 0
        length = int(rng.integers(max_len // 2, max_len * 3 // 2 + 1))
        values = 8.0 * rng.normal(size=(length, dim))
        if positive:
            values += 4.8 * direction
        records.append((values.astype(np.float32), int(positive)))
    order = rng.permutation(n)
    return [records[i] for i in order]


def write_samemb1(path, records: list[tuple[np.ndarray, int]], dim: int) -> None:
    """The README layout: magic, one JSON header line, then per record
    u32le length, u32le label and length*dim float32 little-endian."""
    with open(path, "wb") as fh:
        fh.write(SAMEMB1_MAGIC)
        fh.write(json.dumps({"num_sequences": len(records), "dim": dim}).encode("utf-8") + b"\n")
        for values, label in records:
            fh.write(struct.pack("<II", values.shape[0], label))
            fh.write(values.astype("<f4").tobytes())
