"""Classifier assembly: embeddings -> attention stage -> pooled linear head.

Also owns batch encoding and the checkpoint format: an .npz archive of
float64 parameter arrays and one JSON metadata entry, each stored as a
C-order .npy 1.0 member, as ``np.savez`` writes it. The loader accepts only
that layout, reads each member into its array and checks its CRC-32 itself.
"""

from __future__ import annotations

import json
import math
import operator
import re
import struct
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .backbone import Vocab, embed, init_table, tokenize
from .data import LabeledCorpus
from .errors import ContractError, FormatError, SeqattnError
from .head import HeadParams, cross_entropy, init_head, pool_sequence
from .sam import (
    FfnParams,
    PooledInput,
    SamConfig,
    SamParams,
    SamTrace,
    ffn_hidden,
    init_sam_params,
    sam_forward,
)
from .tensor import Mask, Tensor


@dataclass
class Batch:
    mask: np.ndarray  # (B, L) flags
    labels: np.ndarray  # (B,) int64
    ids: np.ndarray | None = None  # (B, L) int64, table mode
    embs: np.ndarray | None = None  # (B, L, D) float32 or float64, precomputed mode; forward promotes it
    pooled: PooledInput | None = None  # FAM's views of embs

    def __len__(self) -> int:
        return len(self.labels)


def encode_texts(corpus: LabeledCorpus, vocab: Vocab, max_len: int) -> Batch:
    n = len(corpus)
    ids = np.zeros((n, max_len), dtype=np.int64)
    mask = np.zeros((n, max_len))
    for i, (text, _) in enumerate(corpus.records):
        ids[i], mask[i] = tokenize(text, vocab, max_len)
    return Batch(mask=mask, labels=corpus.labels(), ids=ids)


def encode_embeddings(seqs: list[tuple[np.ndarray, int]], max_len: int) -> Batch:
    """Pad or truncate precomputed per-token vectors to a fixed length.

    The vectors are fixed input, so FAM's pooling of them over tokens is
    done here, once, and carried by the batch for a pass where FAM runs
    first, the default order. The padded vectors take the records' common
    dtype, float32 at the least, so SAMEMB1 records stay float32; the model
    promotes each minibatch to float64 as it enters, which is exact.
    """
    if not seqs:
        raise FormatError("cannot batch an empty embedding file")
    dim = seqs[0][0].shape[1]
    n = len(seqs)
    embs = np.zeros((n, max_len, dim), dtype=np.result_type(np.float32, *{v.dtype for v, _ in seqs}))
    mask = np.zeros((n, max_len))
    labels = np.zeros(n, dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    for i, (vectors, label) in enumerate(seqs):
        lengths[i] = min(max(len(vectors), 1), max_len)
        embs[i, : len(vectors[:max_len])] = vectors[:max_len]
        mask[i, : lengths[i]] = 1.0
        labels[i] = label
    return Batch(mask=mask, labels=labels, embs=embs, pooled=_pool_encoded(embs, mask, lengths))


def _pool_encoded(embs: np.ndarray, mask: np.ndarray, lengths: np.ndarray) -> PooledInput:
    """The views the token pooling kernels give of encoded vectors (zeros
    after each record's valid prefix), bit for bit and row for row, without
    the kernels' (N, L, D) temporaries. Both views are float64, as the
    kernels give them of the promoted vectors."""
    # the kernel's product with the mask leaves encoded vectors as they are
    mean = embs.sum(axis=1, dtype=np.float64) / mask.sum(axis=1)[:, None]
    # a max is exact at any width, so it is promoted after it is taken
    top = np.stack([embs[i, :n].max(axis=0) for i, n in enumerate(lengths)], dtype=np.float64)
    # a max of zero or NaN has more than one bit pattern, and the kernel
    # keeps the first valid position's
    for i in np.flatnonzero(np.any((top == 0.0) | np.isnan(top), axis=1)):
        top[i] = kernels.token_maxpool_fwd(embs[i : i + 1], mask[i : i + 1])[0][0]
    return PooledInput(top, mean)


def take(batch: Batch, indices: np.ndarray) -> Batch:
    return Batch(
        mask=batch.mask[indices],
        labels=batch.labels[indices],
        ids=None if batch.ids is None else batch.ids[indices],
        embs=None if batch.embs is None else batch.embs[indices],
        pooled=None if batch.pooled is None else batch.pooled.take(indices),
    )


@dataclass
class Model:
    """The attention stage and its head, plus in table mode the (V, D)
    embedding leaf (``table``, named ``embed.table`` in :meth:`parameters`)
    and the vocabulary it is indexed by; both are None in precomputed mode."""

    cfg: SamConfig
    sam: SamParams
    head: HeadParams
    table: Tensor | None = None
    vocab: Vocab | None = None

    def parameters(self) -> dict[str, Tensor]:
        params = {}
        if self.table is not None:
            params["embed.table"] = self.table
        params.update(self.sam.tensors())
        params.update(self.head.tensors())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def forward(
        self,
        batch: Batch,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, SamTrace]:
        """Logits for a batch; dropout (train mode only) hits the pooled
        representation, nothing else, and draws its mask from ``rng``."""
        if dropout > 0.0 and rng is None:
            raise ContractError(f"dropout {dropout} needs a generator to draw its mask from")
        if batch.ids is not None:
            x = embed(batch.ids, self.table)
        else:
            x = Tensor(batch.embs)
        mask = Mask(batch.mask)
        out, trace = sam_forward(x, mask, self.cfg, self.sam, batch.pooled)
        pooled = pool_sequence(out, mask, self.head.pooling)
        if dropout > 0.0:
            keep = (rng.random(pooled.shape) >= dropout) / (1.0 - dropout)
            pooled = pooled * Tensor(keep)
        logits = pooled @ self.head.w + self.head.b
        return logits, trace

    def loss(self, batch: Batch, dropout: float = 0.0, rng=None) -> Tensor:
        logits, _ = self.forward(batch, dropout=dropout, rng=rng)
        return cross_entropy(logits, batch.labels)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, p in self.parameters().items():
            p.data[...] = arrays[name]


def init_model(
    cfg: SamConfig,
    num_classes: int,
    pooling: str,
    rng: np.random.Generator,
    vocab: Vocab | None = None,
) -> Model:
    """Fresh model; pass a vocab for table mode, none for precomputed mode."""
    table = None if vocab is None else init_table(len(vocab), cfg.d_model, rng)
    return Model(
        cfg=cfg,
        sam=init_sam_params(cfg, rng),
        head=init_head(cfg.d_model, num_classes, rng, pooling),
        table=table,
        vocab=vocab,
    )


def save_checkpoint(path, model: Model, extra: dict | None = None) -> None:
    meta = {
        "sam": {**asdict(model.cfg), "order": model.cfg.order.value},
        "pooling": model.head.pooling,
        "num_classes": model.head.num_classes,
        "vocab": None if model.vocab is None else model.vocab.id_to_token[2:],
        "extra": extra or {},
    }
    arrays = {f"param/{k}": np.ascontiguousarray(p.data) for k, p in model.parameters().items()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)


def parameter_shapes(
    cfg: SamConfig, num_classes: int, vocab_size: int | None = None
) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter :func:`init_model` builds, in
    :meth:`Model.parameters` order. Sizes must be integers, as numpy
    requires of an array shape; anything else raises TypeError."""
    d_model, max_len, ratio, num_classes = (
        operator.index(v) for v in (cfg.d_model, cfg.max_len, cfg.bottleneck_ratio, num_classes)
    )
    shapes = {} if vocab_size is None else {"embed.table": (vocab_size, d_model)}
    for prefix, d_in in (("ffn_f", d_model), ("ffn_t", max_len)):
        hidden = ffn_hidden(d_in, ratio)
        shapes.update({f"{prefix}.w1": (d_in, hidden), f"{prefix}.b1": (hidden,),
                       f"{prefix}.w2": (hidden, d_in), f"{prefix}.b2": (d_in,)})
    shapes.update({"head.w": (d_model, num_classes), "head.b": (num_classes,)})
    return shapes


def _checked_leaves(
    arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]
) -> dict[str, Tensor]:
    """The stored float64 arrays as native-order leaves, once their names
    and shapes match the model the metadata describes."""
    if set(shapes) != set(arrays):
        raise FormatError(
            f"checkpoint parameters {sorted(arrays)} do not match the configured model {sorted(shapes)}"
        )
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise FormatError(f"checkpoint parameter '{name}' has shape {arrays[name].shape}, expected {shape}")
    return {
        name: Tensor(np.ascontiguousarray(arr, dtype=np.float64), requires_grad=True)
        for name, arr in arrays.items()
    }


# a zip local file header: signature, versions, flags, method, time, date,
# CRC-32, both sizes, then the lengths of the name and the extra field
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
# the header dict of an .npy file, in the key order and spacing numpy writes
_NPY_HEADER = re.compile(
    rb"\{'descr': '([^']+)', 'fortran_order': (False|True), 'shape': \((\d+(?:, \d+)*,?)?\), \} *\n"
)
# what save_checkpoint writes: float64 parameters (either byte order), JSON bytes
PARAM_DTYPES, META_DTYPES = ("<f8", ">f8"), ("|u1",)


def _member_ends(archive: zipfile.ZipFile) -> dict[zipfile.ZipInfo, int]:
    """The offset each member's data must end by: the next local header, or
    the central directory after the last one. Without this bound, members
    that nest inside one another would fill one array per member from the
    same bytes."""
    ends, end = {}, archive.start_dir
    for info in sorted(archive.infolist(), key=operator.attrgetter("header_offset"), reverse=True):
        ends[info] = end
        end = info.header_offset
    return ends


def _member_layout(fh, info: zipfile.ZipInfo, end: int, dtypes: tuple[str, ...]) -> tuple[bytes, np.dtype, tuple]:
    """The .npy header bytes, dtype and shape of member ``info`` of the zip
    open on ``fh``, which is left at the member's first data byte. The member
    must be stored uncompressed, end by ``end`` (:func:`_member_ends`) and
    hold a version 1.0 .npy array in C order of one of ``dtypes`` whose byte
    count is the member's; nothing is allocated for the data. A regular
    expression reads the header ten times as fast as numpy's parser."""
    name = info.filename
    if info.flag_bits & 0x61:  # encrypted, compressed patched data, strong encryption
        raise FormatError(f"checkpoint member {name!r} is encrypted or patched")
    if info.compress_type != zipfile.ZIP_STORED or info.compress_size != info.file_size:
        raise FormatError(f"checkpoint member {name!r} is not stored uncompressed (method {info.compress_type})")
    fh.seek(info.header_offset)
    local = fh.read(_LOCAL_HEADER.size)
    if len(local) != _LOCAL_HEADER.size or local[:4] != b"PK\x03\x04":
        raise FormatError(f"checkpoint member {name!r} has no local file header")
    fields = _LOCAL_HEADER.unpack(local)
    stored_name = fh.read(fields[10]).decode("utf-8" if fields[3] & 0x800 else "cp437")
    if stored_name != info.orig_filename:
        raise FormatError(f"checkpoint member {name!r} is named {stored_name!r} in its local header")
    fh.seek(fields[11], 1)
    if fh.tell() + info.file_size > end:
        raise FormatError(f"checkpoint member {name!r} overlaps the next member or the central directory")
    head = fh.read(10)
    head_size = 10 + int.from_bytes(head[8:], "little")
    if head[:8] != b"\x93NUMPY\x01\x00" or head_size > info.file_size:  # magic, version 1.0
        raise FormatError(f"checkpoint member {name!r} has no version 1.0 .npy header within its bytes")
    head += fh.read(head_size - 10)
    match = _NPY_HEADER.fullmatch(head, 10)
    if match is None:
        raise FormatError(f"checkpoint member {name!r} has an unreadable .npy header")
    descr, order = match[1].decode("latin-1"), "Fortran" if match[2] == b"True" else "C"
    if descr not in dtypes or order != "C":  # objects would need unpickling
        raise FormatError(f"checkpoint member {name!r} holds {descr} in {order} order, "
                          f"not {' or '.join(dtypes)} in C order")
    dtype, shape = np.dtype(descr), tuple(int(v) for v in (match[3] or b"").split(b",") if v)
    nbytes = math.prod(shape) * dtype.itemsize
    if head_size + nbytes != info.file_size:
        raise FormatError(f"checkpoint member {name!r} holds {info.file_size - head_size} bytes of data, "
                          f"its .npy header declares {nbytes}")
    return head, dtype, shape


def _read_member(fh, info: zipfile.ZipInfo, end: int, dtypes: tuple[str, ...]) -> np.ndarray:
    """The array of member ``info``, once :func:`_member_layout` accepts it,
    read with one call into its own memory and checked by its CRC-32."""
    head, dtype, shape = _member_layout(fh, info, end, dtypes)
    flat = np.empty(math.prod(shape), dtype)
    raw = flat.view(np.uint8)
    if fh.readinto(raw) != len(raw):
        raise FormatError(f"checkpoint member {info.filename!r} is truncated")
    if zlib.crc32(raw, zlib.crc32(head)) != info.CRC:
        raise FormatError(f"checkpoint member {info.filename!r} fails its CRC-32 check")
    return flat.reshape(shape)


def load_checkpoint(path) -> Model:
    """Rebuild the model a checkpoint holds, straight from its arrays.

    Only the layout :func:`save_checkpoint` writes is accepted (see
    :func:`_member_layout`), and the metadata fixes every parameter's name and
    shape. Each member is read once, into the array that becomes the model's
    leaf, and its CRC-32 is checked; no random initialisation is drawn.
    """
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as archive:
            # np.load's keys: the member names without their .npy suffix
            members = {info.filename.removesuffix(".npy"): info for info in archive.infolist()}
            ends = _member_ends(archive)
            meta_info = members["__meta__"]
            meta = json.loads(bytes(_read_member(fh, meta_info, ends[meta_info], META_DTYPES)).decode())
            arrays = {
                name[len("param/"):]: _read_member(fh, info, ends[info], PARAM_DTYPES)
                for name, info in members.items()
                if name.startswith("param/")
            }
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"unreadable checkpoint: {exc}") from None
    # metadata that lacks a field or carries a wrong type is a file problem
    try:
        cfg = SamConfig(**meta["sam"])
        vocab = Vocab(meta["vocab"]) if meta["vocab"] is not None else None
        shapes = parameter_shapes(cfg, meta["num_classes"], None if vocab is None else len(vocab))
        leaves = _checked_leaves(arrays, shapes)
        ffns = {
            prefix: FfnParams(**{k: leaves[f"{prefix}.{k}"] for k in ("w1", "b1", "w2", "b2")})
            for prefix in ("ffn_f", "ffn_t")
        }
        return Model(
            cfg=cfg,
            sam=SamParams(**ffns),
            head=HeadParams(w=leaves["head.w"], b=leaves["head.b"], pooling=meta["pooling"]),
            table=leaves.get("embed.table"),
            vocab=vocab,
        )
    except FormatError:  # from the array checks, which name the parameter at fault
        raise
    except (KeyError, TypeError, ValueError, SeqattnError) as exc:
        raise FormatError(f"checkpoint metadata does not describe a model: {exc!r}") from None

