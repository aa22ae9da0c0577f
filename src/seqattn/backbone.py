"""Token embedding providers.

Two routes produce the (B, L, D) input tensor: a trainable embedding table
over a whitespace/punctuation vocabulary, and a loader for per-token
vectors exported offline by any external encoder (SAMEMB1 files, layout
documented at :data:`SAMEMB1_MAGIC`). The PAD row of the table is pinned
to zero and never updated.
"""

from __future__ import annotations

import json
import os
import re
import struct

import numpy as np

from . import kernels
from .errors import DataError, FormatError
from .tensor import RowGrad, Tensor

PAD_ID = 0
UNK_ID = 1

_TOKEN_RE = re.compile(r"[\w']+|[^\w\s]")


def split_text(text: str) -> list[str]:
    """Lowercased whitespace+punctuation split."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Bidirectional token/id map with reserved PAD=0 and UNK=1."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = ["<pad>", "<unk>"] + list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate token in vocabulary")

    @classmethod
    def build(cls, texts, max_len: int | None = None) -> "Vocab":
        """The tokens :func:`tokenize` can emit for ``texts``: those among
        the first ``max_len`` tokens of some text (every token when
        ``max_len`` is None). Training on ``texts`` can then give every
        table row but PAD's and UNK's a gradient.

        They are numbered in order of first appearance over whole texts,
        not within the windows.
        """
        visible: set[str] = set()

        def tokens():
            for text in texts:
                toks = split_text(text)
                visible.update(toks[:max_len])
                yield from toks

        return cls([tok for tok in dict.fromkeys(tokens()) if tok in visible])

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def tokenize(text: str, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Map text to a fixed-length id row plus its validity mask row.

    Sequences longer than ``max_len`` are truncated; empty inputs become a
    single UNK token so the mask invariant (at least one valid position)
    always holds.
    """
    toks = split_text(text)
    ids = [vocab.encode(t) for t in toks[:max_len]] or [UNK_ID]
    row = np.full(max_len, PAD_ID, dtype=np.int64)
    row[: len(ids)] = ids
    mask_row = np.zeros(max_len)
    mask_row[: len(ids)] = 1.0
    return row, mask_row


def init_table(vocab_size: int, dim: int, rng: np.random.Generator) -> Tensor:
    """Trainable (V, D) lookup matrix of uniform Glorot rows, drawn in id
    order. Row PAD_ID starts at +0.0 and stays there: :func:`embed` never
    gives it a gradient, so AdamW and lookahead leave it as it is."""
    bound = np.sqrt(6.0 / (vocab_size + dim))
    data = rng.uniform(-bound, bound, size=(vocab_size, dim))
    data[PAD_ID] = 0.0
    return Tensor(data, requires_grad=True)


def embed(ids: np.ndarray, table: Tensor) -> Tensor:
    """Gather rows of the (V, D) table leaf into a (B, L, D) tensor.

    The gradient is row-sparse: it covers the gathered rows only, so
    ``backward`` adds into those rows of the table's gradient and the
    next ``zero_grad`` clears just them. The PAD row receives none.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise DataError(f"ids must be a (B, L) integer array, got shape {ids.shape}")
    vocab_size = len(table.data)
    oob = (ids < 0) | (ids >= vocab_size)
    if np.any(oob):
        b, l = np.argwhere(oob)[0]
        raise DataError(
            f"token id {ids[b, l]} at position ({b}, {l}) is outside the "
            f"table of size {vocab_size}"
        )
    out = kernels.embedding_fwd(table.data, ids)

    def vjp(g):
        rows, values = kernels.embedding_bwd(g, ids, PAD_ID)
        return RowGrad(rows, values, table.shape)

    return Tensor._result(out, "embed", (table, vjp))


# ---------------------------------------------------------------------------
# SAMEMB1: precomputed-embedding files
#
#   magic "SAMEMB1\n"
#   one UTF-8 JSON header line: {"num_sequences": N, "dim": D}\n
#   N records, each: u32le length L_i, u32le label, then L_i*D f32le values
# ---------------------------------------------------------------------------

SAMEMB1_MAGIC = b"SAMEMB1\n"


def store_precomputed(path, seqs: list[tuple[np.ndarray, int]]) -> None:
    """Write (L_i x D float, label) pairs in SAMEMB1 layout (values as f32)."""
    dim = int(seqs[0][0].shape[1]) if seqs else 0
    with open(path, "wb") as fh:
        fh.write(SAMEMB1_MAGIC)
        header = json.dumps({"num_sequences": len(seqs), "dim": dim})
        fh.write(header.encode("utf-8") + b"\n")
        for vectors, label in seqs:
            arr = np.ascontiguousarray(vectors, dtype=np.float32)
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise DataError(f"sequence with shape {arr.shape} does not match dim {dim}")
            fh.write(struct.pack("<II", arr.shape[0], int(label)))
            fh.write(arr.tobytes())


def _scan_precomputed(fh) -> tuple[int, list[tuple[int, int, int]]]:
    """Check the magic, the header line and the chain of record headers of
    an open SAMEMB1 file, skipping every payload without reading it.

    Returns the width D and, per record, the byte offset of its payload, its
    length L_i and its label. Damage anywhere in the file raises
    :class:`FormatError` at the byte offset where the file stops matching
    the layout, whichever record a caller wants.
    """
    size = os.fstat(fh.fileno()).st_size
    if fh.read(len(SAMEMB1_MAGIC)) != SAMEMB1_MAGIC:
        raise FormatError("bad magic, not a SAMEMB1 file", offset=0)
    offset = len(SAMEMB1_MAGIC)
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError("missing header line", offset=offset)
    try:
        header = json.loads(line[:-1].decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"expected a JSON object, got {type(header).__name__}")
        count, dim = header["num_sequences"], header["dim"]
        for field, value in (("num_sequences", count), ("dim", dim)):
            if type(value) is not int:  # bool is an int subclass, floats truncate
                raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"unreadable header: {exc}", offset=offset) from None
    if count < 0 or dim < 0:
        raise FormatError(f"negative header field: num_sequences={count}, dim={dim}", offset=offset)
    offset += len(line)

    # each record header is one pread: a buffered seek and read would
    # refill the handle's whole buffer for its 8 bytes
    fd = fh.fileno()
    records: list[tuple[int, int, int]] = []
    for _ in range(count):
        if offset + 8 > size:
            raise FormatError("truncated record header", offset=offset)
        length, label = struct.unpack("<II", os.pread(fd, 8, offset))
        offset += 8
        nbytes = length * dim * 4
        if offset + nbytes > size:
            raise FormatError("truncated record payload", offset=offset)
        records.append((offset, length, label))
        offset += nbytes
    if offset != size:
        raise FormatError("trailing bytes after final record", offset=offset)
    return dim, records


def _read_record(fh, dim: int, record: tuple[int, int, int]) -> tuple[np.ndarray, int]:
    offset, length, label = record
    fh.seek(offset)
    values = np.empty((length, dim), dtype="<f4")
    if fh.readinto(values) != values.nbytes:  # the file shrank after the scan
        raise FormatError("truncated record payload", offset=offset)
    return values, label


def load_precomputed(path) -> list[tuple[np.ndarray, int]]:
    """Read a SAMEMB1 file back as (L_i x D float32, label) pairs, each
    record in its own writable array, at the width the file stores."""
    with open(path, "rb") as fh:
        dim, records = _scan_precomputed(fh)
        return [_read_record(fh, dim, record) for record in records]


def load_precomputed_record(path, index: int) -> tuple[np.ndarray, int]:
    """Decode record ``index`` of a SAMEMB1 file, and no other payload.

    The whole file is checked as :func:`load_precomputed` checks it, so a
    damaged file fails even when the requested record is intact.
    """
    with open(path, "rb") as fh:
        dim, records = _scan_precomputed(fh)
        if not 0 <= index < len(records):
            raise DataError(f"record {index} outside embedding file of {len(records)} records")
        return _read_record(fh, dim, records[index])
