"""Corpus ingestion, fold management, and synthetic corpora.

The on-disk carrier is a TSV with one record per line, ``label<TAB>text``.
Labels are integers, densified by value to 0..K-1 in order of first
appearance; the mapping is kept on the corpus. A record's input is a text,
or an ``(L_i, D)`` float32 or float64 array of precomputed token vectors (a
SAMEMB1 file loads as float32).
Synthetic corpora provide a separable sanity task (a single trigger token
decides the class) and a harder co-occurrence task that no single-token
rule can solve.
"""

from __future__ import annotations

import os
import resource
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError

TRIGGER_TOKEN = 7
CO_TOKEN = 11
SYNTHETIC_RULES = ("trigger", "cooc")


@dataclass
class LabeledCorpus:
    records: list[tuple[str | np.ndarray, int]]  # (text or (L_i, D) vectors, dense label)
    num_classes: int
    label_mapping: dict[str, int] = field(default_factory=dict)  # original -> dense

    def __len__(self) -> int:
        return len(self.records)

    def texts(self) -> list[str]:
        return [t for t, _ in self.records]

    def labels(self) -> np.ndarray:
        return np.array([l for _, l in self.records], dtype=np.int64)

    @classmethod
    def from_pairs(cls, pairs) -> "LabeledCorpus":
        """Densify ``(input, raw label)`` pairs: labels become 0..K-1 in order
        of first appearance, and the mapping is keyed by ``str(label)``."""
        mapping: dict[str, int] = {}
        records = [(x, mapping.setdefault(str(label), len(mapping))) for x, label in pairs]
        return cls(records, num_classes=len(mapping), label_mapping=mapping)

    def subset(self, indices) -> "LabeledCorpus":
        return LabeledCorpus(
            records=[self.records[i] for i in indices],
            num_classes=self.num_classes,
            label_mapping=dict(self.label_mapping),
        )


def parse_tsv(path) -> LabeledCorpus:
    """Read ``label<TAB>text`` lines; CRLF and LF are equivalent, and so are ``7``, ``07`` and ``+7``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        raw = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc.reason}", offset=exc.start) from None
    pairs: list[tuple[str, int]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise FormatError(f"line {lineno}: expected 'label<TAB>text'")
        raw_label, text = line.split("\t", 1)
        raw_label = raw_label.strip()
        try:
            pairs.append((text, int(raw_label)))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer label {raw_label!r}") from None
    if not pairs:
        raise FormatError("no records found in TSV file")
    return LabeledCorpus.from_pairs(pairs)


def serialize_tsv(corpus: LabeledCorpus, path) -> None:
    """Write the corpus back out with its dense labels (parse round-trips)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for text, label in corpus.records:
            fh.write(f"{label}\t{text}\n")


def kfold_split(corpus: LabeledCorpus, k: int, seed: int) -> np.ndarray:
    """Stratified fold assignment, one fold id per record.

    Records of each class are shuffled and dealt round-robin, with the
    dealing pointer carried across classes so total fold sizes stay within
    one of each other as well.
    """
    n = len(corpus)
    if k < 2:
        raise DataError(f"k must be at least 2, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds the record count {n}")
    rng = np.random.default_rng(seed)
    labels = corpus.labels()
    assignment = np.full(n, -1, dtype=np.int64)
    pointer = 0
    for cls in range(corpus.num_classes):
        members = np.flatnonzero(labels == cls)
        if 0 < len(members) < k:
            warnings.warn(f"class {cls} has fewer than {k} members; distributing best-effort")
        rng.shuffle(members)
        for idx in members:
            assignment[idx] = pointer % k
            pointer += 1
    return assignment


def train_dev_indices(assignment: np.ndarray, fold: int) -> tuple[np.ndarray, np.ndarray]:
    return np.flatnonzero(assignment != fold), np.flatnonzero(assignment == fold)


def memory_ceiling() -> int:
    """The bytes a run may hold at most: the machine's physical memory, or
    a finite soft address-space limit (``RLIMIT_AS``) below it."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


def make_synthetic(
    n: int,
    vocab_size: int,
    trigger_rule: str = "trigger",
    seed: int = 0,
) -> LabeledCorpus:
    """Random token-sequence corpus with a planted classification rule.

    "trigger": label 1 iff token ``tok7`` appears. "cooc": label 1 iff
    both ``tok7`` and ``tok11`` appear, with single-token negatives mixed
    in so no one-token rule scores well. Both variants are balanced 50/50.
    """
    if n < 10:
        raise DataError(f"need at least 10 records, got {n}")
    if vocab_size <= max(TRIGGER_TOKEN, CO_TOKEN) + 1:
        raise DataError(f"vocab_size must exceed {max(TRIGGER_TOKEN, CO_TOKEN) + 1}")
    if trigger_rule not in SYNTHETIC_RULES:
        raise DataError(f"unknown trigger_rule {trigger_rule!r}")
    # 8 bytes per background id; a record's text, tuple and slots hold over 100
    need = 8 * vocab_size + 100 * n
    if need > memory_ceiling():
        raise DataError(f"n={n} and vocab_size={vocab_size} need at least {need / 2**30:.3g} GiB, "
                        "more than this process's physical memory or address-space limit")

    rng = np.random.default_rng(seed)
    special = {TRIGGER_TOKEN} if trigger_rule == "trigger" else {TRIGGER_TOKEN, CO_TOKEN}
    background = np.setdiff1d(np.arange(vocab_size), sorted(special))

    def sample_tokens(length: int) -> list[int]:
        return list(rng.choice(background, size=length))

    records: list[tuple[str, int]] = []
    half = n // 2
    for i in range(n):
        positive = i < half
        length = int(rng.integers(5, 12 + 1))  # 5 to 12 tokens
        toks = sample_tokens(length)
        if trigger_rule == "trigger":
            if positive:
                toks[int(rng.integers(0, length))] = TRIGGER_TOKEN
        else:
            if positive:
                pos = rng.choice(length, size=2, replace=False)
                toks[int(pos[0])] = TRIGGER_TOKEN
                toks[int(pos[1])] = CO_TOKEN
            else:
                kind = i % 3  # one of: tok7 only, tok11 only, neither
                if kind < 2:
                    toks[int(rng.integers(0, length))] = TRIGGER_TOKEN if kind == 0 else CO_TOKEN
        text = " ".join(f"tok{t}" for t in toks)
        records.append((text, 1 if positive else 0))

    order = rng.permutation(n)
    records = [records[i] for i in order]
    return LabeledCorpus(records=records, num_classes=2, label_mapping={"0": 0, "1": 1})
