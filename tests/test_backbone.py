import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqattn.backbone import (
    PAD_ID,
    UNK_ID,
    Vocab,
    embed,
    init_table,
    load_precomputed,
    split_text,
    store_precomputed,
    tokenize,
)
from seqattn.errors import DataError, FormatError
from seqattn.model import encode_embeddings, init_model
from seqattn.sam import SamConfig
from seqattn.tensor import Tensor, backward


@pytest.fixture
def movie_vocab():
    # builds ids good=2, movie=3, !=4 in first-appearance order
    return Vocab.build(["good movie !"])


class TestTokenize:
    def test_direct_lookup_with_padding(self, movie_vocab):
        ids, mask = tokenize("Good movie !", movie_vocab, 5)
        assert ids.tolist() == [2, 3, 4, 0, 0]
        assert mask.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_unknown_word_maps_to_unk(self, movie_vocab):
        ids, mask = tokenize("terrible movie", movie_vocab, 4)
        assert ids.tolist() == [UNK_ID, 3, 0, 0]

    def test_truncation_keeps_prefix(self, movie_vocab):
        text = " ".join(["movie"] * 40)
        ids, mask = tokenize(text, movie_vocab, 32)
        assert ids.tolist() == [3] * 32
        assert mask.tolist() == [1.0] * 32

    def test_empty_input_becomes_single_unk(self, movie_vocab):
        ids, mask = tokenize("   ", movie_vocab, 4)
        assert ids.tolist() == [UNK_ID, 0, 0, 0]
        assert mask.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_punctuation_split(self, movie_vocab):
        ids, _ = tokenize("good,movie", movie_vocab, 5)
        assert ids.tolist()[:3] == [2, UNK_ID, 3]  # comma is its own (unknown) token


class TestVocabBuild:
    # "cut", "off" and "y" occur only past the first two words of a text;
    # "b" is past them in the first text but among them in the second
    TEXTS = ["a x cut b", "b a off y", "x a"]

    def test_visible_tokens_first_each_group_in_first_appearance_order(self):
        vocab = Vocab.build(self.TEXTS, max_len=2)
        assert vocab.id_to_token == ["<pad>", "<unk>", "a", "x", "b"]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from(["a", "B", "c", "d,", "e", "f", "g!", "h"]),
                                min_size=1, max_size=12).map(" ".join), min_size=1, max_size=6),
        max_len=st.integers(1, 12),
    )
    def test_ids_the_texts_can_emit_are_one_leading_block(self, texts, max_len):
        vocab = Vocab.build(texts, max_len)
        emitted = {int(i) for text in texts for i in tokenize(text, vocab, max_len)[0]}
        assert emitted - {PAD_ID} == set(range(2, len(vocab)))
        # ordered by each token's first (text, position) anywhere in the texts
        first: dict[str, tuple[int, int]] = {}
        for t, text in enumerate(texts):
            for position, tok in enumerate(split_text(text)):
                first.setdefault(tok, (t, position))
        visible = {tok for text in texts for tok in split_text(text)[:max_len]}
        assert vocab.id_to_token[2:] == sorted(visible, key=first.__getitem__)
        longest = max(len(split_text(text)) for text in texts)
        assert Vocab.build(texts, longest + max_len).id_to_token == Vocab.build(texts).id_to_token

    def test_every_token_visible_keeps_first_appearance_order(self, movie_vocab):
        whole = Vocab.build(self.TEXTS)
        assert whole.id_to_token == ["<pad>", "<unk>", "a", "x", "cut", "b", "off", "y"]
        assert Vocab.build(self.TEXTS, max_len=4).id_to_token == whole.id_to_token
        assert Vocab.build(["good movie !"], max_len=3).id_to_token == movie_vocab.id_to_token

    def test_fresh_table_draws_its_rows_in_id_order(self):
        texts = [" ".join(f"t{j}" for j in np.random.default_rng(i).integers(0, 400, size=30))
                 for i in range(40)]
        vocab = Vocab.build(texts, max_len=5)
        assert vocab.id_to_token != Vocab.build(texts).id_to_token  # some tokens lie past max_len
        cfg = SamConfig(d_model=6, max_len=5)
        table = init_model(cfg, 2, "mean", np.random.default_rng(3), vocab=vocab).table.data
        bound = np.sqrt(6.0 / (len(vocab) + 6))
        expected = np.random.default_rng(3).uniform(-bound, bound, size=(len(vocab), 6))
        expected[PAD_ID] = 0.0
        assert same_bits(table, expected)


class TestEmbed:
    def test_all_pad_rows_embed_to_zero(self):
        table = init_table(6, 3, np.random.default_rng(0))
        out = embed(np.full((2, 4), PAD_ID), table)
        assert np.all(out.data == 0.0)

    def test_gather_equals_table_row(self):
        table = init_table(6, 3, np.random.default_rng(0))
        out = embed(np.array([[4]]), table)
        assert np.array_equal(out.data[0, 0], table.data[4])

    def test_repeated_id_accumulates_gradient(self):
        table = init_table(6, 3, np.random.default_rng(0))
        backward(embed(np.array([[2, 2]]), table).sum())
        assert np.array_equal(table.grad[2], 2.0 * np.ones(3))

    def test_pad_row_receives_no_gradient(self):
        table = init_table(6, 3, np.random.default_rng(0))
        backward(embed(np.array([[0, 2, 0]]), table).sum())
        assert np.all(table.grad[PAD_ID] == 0.0)

    def test_linearity_in_table(self):
        rng = np.random.default_rng(1)
        a = init_table(5, 4, rng)
        b = init_table(5, 4, rng)
        both = init_table(5, 4, rng)
        both.data[...] = a.data + b.data
        ids = rng.integers(0, 5, size=(3, 6))
        assert np.array_equal(
            embed(ids, both).data, embed(ids, a).data + embed(ids, b).data
        )

    def test_out_of_range_id_reports_position(self):
        table = init_table(4, 2, np.random.default_rng(0))
        with pytest.raises(DataError, match=r"\(1, 2\)"):
            embed(np.array([[0, 1, 2], [3, 1, 9]]), table)


def dense_embedding_bwd(g, ids, vocab_size, pad_id):
    # the dense kernel that the row-sparse gradient replaced, verbatim; the
    # backward walk then added its result into the leaf with ``grad += gt``
    dim = g.shape[2]
    gt = np.zeros((vocab_size, dim))
    np.add.at(gt, ids.reshape(-1), g.reshape(-1, dim))
    if pad_id >= 0:
        gt[pad_id] = 0.0
    return gt


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestRowSparseGradient:
    """The table's row-sparse gradient against the dense scatter plus
    ``grad += gt`` that it replaced, bit for bit with sign bits."""

    V, D = 50, 7

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(21)

    def table(self):
        return init_table(self.V, self.D, np.random.default_rng(0))

    def ids(self, rng):
        # ids from a few rows repeat within and across sequences, PAD included
        ids = rng.integers(0, 12, size=(6, 9))
        ids[0] = PAD_ID
        ids[1, :4] = 5
        return ids

    def upstream(self, rng, shape):
        # magnitudes over 16 decades, so the order of additions shows in the bits
        g = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        g[rng.random(size=shape) < 0.1] = -0.0
        return g

    def weighted(self, ids, table, g):
        # d loss / d embed output is exactly g
        return (embed(ids, table) * Tensor(g)).sum()

    def test_one_backward(self, rng):
        table, ids = self.table(), self.ids(rng)
        g = self.upstream(rng, ids.shape + (self.D,))
        backward(self.weighted(ids, table, g))
        expected = np.zeros((self.V, self.D))
        expected += dense_embedding_bwd(g, ids, self.V, PAD_ID)
        assert same_bits(table.grad, expected)

    def test_two_backwards_accumulate(self, rng):
        table = self.table()
        table.zero_grad()
        expected = np.zeros((self.V, self.D))
        for _ in range(2):
            ids = self.ids(rng)
            g = self.upstream(rng, ids.shape + (self.D,))
            backward(self.weighted(ids, table, g))
            expected += dense_embedding_bwd(g, ids, self.V, PAD_ID)
        assert same_bits(table.grad, expected)

    def test_two_embeds_in_one_graph(self, rng):
        table = self.table()
        ids_a, ids_b = self.ids(rng), self.ids(rng)[:, :5]
        g_a = self.upstream(rng, ids_a.shape + (self.D,))
        g_b = self.upstream(rng, ids_b.shape + (self.D,))
        backward(self.weighted(ids_a, table, g_a) + self.weighted(ids_b, table, g_b))
        expected = np.zeros((self.V, self.D))
        expected += (dense_embedding_bwd(g_a, ids_a, self.V, PAD_ID)
                     + dense_embedding_bwd(g_b, ids_b, self.V, PAD_ID))
        assert same_bits(table.grad, expected)

    def test_zero_grad_after_scatter_clears_to_positive_zero(self, rng):
        table = self.table()
        table.zero_grad()
        for _ in range(2):
            ids = self.ids(rng)
            backward(self.weighted(ids, table, self.upstream(rng, ids.shape + (self.D,))))
        assert np.count_nonzero(table.grad) > 0
        table.zero_grad()
        assert same_bits(table.grad, np.zeros((self.V, self.D)))

    def test_zero_grad_after_dense_accumulation_clears_every_row(self, rng):
        table, ids = self.table(), self.ids(rng)
        table.zero_grad()  # the leaf now holds a record of written rows
        g = self.upstream(rng, ids.shape + (self.D,))
        c = self.upstream(rng, (self.V, self.D))
        # the table is also used densely, so a dense gradient reaches the leaf
        backward(self.weighted(ids, table, g) + (table * Tensor(c)).sum())
        expected = np.zeros((self.V, self.D))
        expected += dense_embedding_bwd(g, ids, self.V, PAD_ID) + c
        assert same_bits(table.grad, expected)
        table.zero_grad()
        assert same_bits(table.grad, np.zeros((self.V, self.D)))

    def test_leaf_without_record_clears_every_row(self):
        table = self.table()
        # a fresh leaf's record is empty; a dense gradient is what drops it
        table._accumulate(np.full((self.V, self.D), 3.0))
        assert table._rows is None
        table.zero_grad()
        assert same_bits(table.grad, np.zeros((self.V, self.D)))

    def test_fresh_leaf_starts_with_an_empty_record(self, rng):
        table = self.table()
        assert table._rows == []
        # the first clear writes nothing: the buffer is calloc'd +0.0, and
        # writing it would make every page of a large table resident
        table.grad.flags.writeable = False
        table.zero_grad()
        table.grad.flags.writeable = True
        assert table._rows == []
        ids = self.ids(rng)
        g = self.upstream(rng, ids.shape + (self.D,))
        backward(self.weighted(ids, table, g))
        assert same_bits(table.grad, dense_embedding_bwd(g, ids, self.V, PAD_ID))
        assert [rows.tolist() for rows in table._rows] == \
            [sorted(set(ids.reshape(-1).tolist()) - {PAD_ID})]
        table.zero_grad()
        assert same_bits(table.grad, np.zeros((self.V, self.D)))


class TestSamemb1:
    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "empty.semb"
        store_precomputed(path, [])
        assert load_precomputed(path) == []

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        seqs = [
            (rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64), 1),
            (rng.normal(size=(5, 4)).astype(np.float32).astype(np.float64), 0),
            (rng.normal(size=(1, 4)).astype(np.float32).astype(np.float64), 2),
        ]
        path = tmp_path / "seqs.semb"
        store_precomputed(path, seqs)
        loaded = load_precomputed(path)
        assert len(loaded) == 3
        for (vec, label), (lvec, llabel) in zip(seqs, loaded):
            assert label == llabel
            assert np.array_equal(vec, lvec)
        # byte-level: writing what we loaded reproduces the file
        path2 = tmp_path / "seqs2.semb"
        store_precomputed(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_against_independent_encoder(self, tmp_path):
        # records written with raw struct packing, no package code
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(5, 4)).astype(np.float32)
        blob = b"SAMEMB1\n"
        blob += json.dumps({"num_sequences": 2, "dim": 4}).encode() + b"\n"
        blob += struct.pack("<II", 3, 1) + a.tobytes()
        blob += struct.pack("<II", 5, 0) + b.tobytes()
        path = tmp_path / "oracle.semb"
        path.write_bytes(blob)
        loaded = load_precomputed(path)
        assert [lbl for _, lbl in loaded] == [1, 0]
        assert np.array_equal(loaded[0][0], a.astype(np.float64))
        assert np.array_equal(loaded[1][0], b.astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.semb"
        path.write_bytes(b"NOTEMB1\n" + b"x" * 16)
        with pytest.raises(FormatError, match="offset 0"):
            load_precomputed(path)

    @pytest.mark.parametrize(
        "header, records",
        [
            (b"[1, 2]", 0),
            (b'"SAMEMB1"', 0),
            (b'{"dim": 4}', 0),
            (b'{"num_sequences": 1, "dim": null}', 0),
            (b'{"num_sequences": 1, "dim": -128}', 1),
            (b'{"num_sequences": 2, "dim": -128}', 2),
            (b'{"num_sequences": -1, "dim": 4}', 0),
            (b'{"num_sequences": 1, "dim": 4.9}', 1),
            (b'{"num_sequences": true, "dim": "4"}', 1),
        ],
        ids=["list", "string", "no-count", "null-dim", "negative-dim-1", "negative-dim-2",
             "negative-count", "float-dim", "bool-count-string-dim"],
    )
    def test_bad_header_rejected_at_header_offset(self, tmp_path, header, records):
        path = tmp_path / "header.semb"
        blob = b"SAMEMB1\n" + header + b"\n"
        blob += (struct.pack("<II", 2, 0) + b"\x00" * 32) * records
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"header.*\(byte offset 8\)"):
            load_precomputed(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.semb"
        blob = b"SAMEMB1\n" + json.dumps({"num_sequences": 1, "dim": 4}).encode() + b"\n"
        blob += struct.pack("<II", 3, 1) + b"\x00" * 10  # needs 48 payload bytes
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="truncated"):
            load_precomputed(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.semb"
        blob = b"SAMEMB1\n" + json.dumps({"num_sequences": 0, "dim": 4}).encode() + b"\n"
        path.write_bytes(blob + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_precomputed(path)

    def test_inconsistent_dim_rejected_on_write(self, tmp_path):
        seqs = [(np.zeros((2, 4), dtype=np.float32), 0), (np.zeros((2, 3), dtype=np.float32), 1)]
        with pytest.raises(DataError):
            store_precomputed(tmp_path / "dim.semb", seqs)


# every float32 value, NaN and the infinities included, and signed zeros
# often enough that whole records of them take the max fallback
float32s = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(width=32))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    lengths=st.lists(st.integers(0, 7), min_size=1, max_size=5),
    dim=st.integers(1, 4),
    max_len=st.integers(1, 5),
    data=st.data(),
)
def test_float32_records_encode_to_the_bits_of_their_float64_values(lengths, dim, max_len, data):
    """Records are padded at their own width, float32 as SAMEMB1 loads them;
    promoted, the padded values and both pooled views are the bits that the
    same values give as float64, records cut at max_len or empty included.
    One float64 record makes the whole batch float64."""
    records = []
    for n in lengths:
        values = st.sampled_from([0.0, -0.0]) if data.draw(st.booleans()) else float32s
        drawn = data.draw(st.lists(values, min_size=n * dim, max_size=n * dim))
        records.append(np.array(drawn, dtype=np.float32).reshape(n, dim))
    with np.errstate(invalid="ignore"):  # inf - inf in a mean
        wide = encode_embeddings([(r.astype(np.float64), 0) for r in records], max_len)
        narrow = encode_embeddings([(r, 0) for r in records], max_len)
        mixed = encode_embeddings([(r.astype(np.float64) if i == 0 else r, 0) for i, r in enumerate(records)],
                                  max_len)
    assert (narrow.embs.dtype, mixed.embs.dtype) == (np.float32, np.float64)
    assert Tensor(narrow.embs).data.tobytes() == wide.embs.tobytes() == mixed.embs.tobytes()
    for batch in (narrow, mixed):
        assert batch.pooled.max.dtype == batch.pooled.mean.dtype == np.float64
        assert batch.pooled.max.tobytes() == wide.pooled.max.tobytes()
        assert batch.pooled.mean.tobytes() == wide.pooled.mean.tobytes()


def test_loading_and_encoding_a_samemb1_file_holds_no_float64_copy(tmp_path):
    """Loaded records and their padded batch stay at the file's float32: the
    peak stays below what the float64 records and batch alone would take."""
    rng = np.random.default_rng(3)
    dim, max_len = 32, 64
    seqs = [(rng.normal(size=(int(rng.integers(1, 2 * max_len)), dim)).astype(np.float32), i % 2)
            for i in range(200)]
    path = tmp_path / "long.semb"
    store_precomputed(path, seqs)
    stored = sum(v.size for v, _ in seqs)
    float64_bytes = 8 * (stored + len(seqs) * max_len * dim)
    tracemalloc.start()
    try:
        batch = encode_embeddings(load_precomputed(path), max_len)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about half: the float32 values, and a float64 mask and views besides
    assert peak < 0.6 * float64_bytes
    assert batch.embs.dtype == np.float32
