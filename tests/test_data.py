import numpy as np
import pytest

from seqattn.backbone import split_text
from seqattn.data import (
    LabeledCorpus,
    kfold_split,
    make_synthetic,
    parse_tsv,
    serialize_tsv,
    train_dev_indices,
)
from seqattn.errors import DataError, FormatError


class TestParseTsv:
    def test_two_records(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("1\tgood movie\n0\tbad plot\n")
        corpus = parse_tsv(path)
        assert len(corpus) == 2
        assert corpus.num_classes == 2
        assert corpus.records[0] == ("good movie", 0)  # densified by first appearance

    def test_crlf_equals_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(b"1\ta b\n0\tc d\n")
        crlf.write_bytes(b"1\ta b\r\n0\tc d\r\n")
        assert parse_tsv(lf).records == parse_tsv(crlf).records

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"0\tgood film\n\n   \n1\tbad film\r\n\t\n")
        assert parse_tsv(path).records == [("good film", 0), ("bad film", 1)]

    def test_sparse_labels_densified_with_mapping(self, tmp_path):
        path = tmp_path / "sparse.tsv"
        path.write_text("2\talpha\n5\tbeta\n2\tgamma\n")
        corpus = parse_tsv(path)
        assert corpus.label_mapping == {"2": 0, "5": 1}
        assert [l for _, l in corpus.records] == [0, 1, 0]

    def test_labels_keyed_by_integer_value(self, tmp_path):
        path = tmp_path / "spelled.tsv"
        path.write_text("7\ta\n07\tb\n+7\tc\n3\td\n")
        corpus = parse_tsv(path)
        assert corpus.label_mapping == {"7": 0, "3": 1}
        assert [l for _, l in corpus.records] == [0, 0, 0, 1]

    def test_non_integer_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\tok\npos\tnope\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_tsv(path)

    def test_invalid_utf8_reports_offset(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("1\tgood\n0\tcaf\u00e9\n".encode("latin-1"))
        with pytest.raises(FormatError, match=r"not UTF-8 text.*byte offset 12"):
            parse_tsv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(FormatError):
            parse_tsv(path)

    def test_parse_serialize_round_trip(self, tmp_path):
        src = tmp_path / "src.tsv"
        src.write_text("7\thello there\n3\tworld !\n7\tagain\n")
        corpus = parse_tsv(src)
        out = tmp_path / "out.tsv"
        serialize_tsv(corpus, out)
        again = parse_tsv(out)
        assert again.records == corpus.records
        assert again.num_classes == corpus.num_classes


class TestFromPairs:
    def test_first_appearance_order(self):
        vectors = np.zeros((2, 3))
        corpus = LabeledCorpus.from_pairs([("a", 5), (vectors, 2), ("c", 5), ("d", 9), ("e", 2)])
        assert corpus.label_mapping == {"5": 0, "2": 1, "9": 2}
        assert [l for _, l in corpus.records] == [0, 1, 0, 2, 1]
        assert corpus.num_classes == 3
        assert corpus.records[1][0] is vectors

    def test_labels_keyed_by_their_text(self):
        corpus = LabeledCorpus.from_pairs([("a", 1), ("b", "1"), ("c", 0)])
        assert corpus.label_mapping == {"1": 0, "0": 1}
        assert [l for _, l in corpus.records] == [0, 0, 1]


class TestKfold:
    def _balanced(self, n):
        return LabeledCorpus(
            records=[(f"text {i}", i % 2) for i in range(n)], num_classes=2
        )

    def test_balanced_ten_records_five_folds(self):
        corpus = self._balanced(10)
        assignment = kfold_split(corpus, 5, seed=0)
        labels = corpus.labels()
        for fold in range(5):
            members = labels[assignment == fold]
            assert len(members) == 2
            assert members.sum() == 1  # one of each class

    def test_deterministic_under_seed(self):
        corpus = self._balanced(40)
        assert np.array_equal(kfold_split(corpus, 5, 7), kfold_split(corpus, 5, 7))
        assert not np.array_equal(kfold_split(corpus, 5, 7), kfold_split(corpus, 5, 8))

    def test_103_records_pigeonhole(self):
        corpus = LabeledCorpus(
            records=[(f"t{i}", i % 3) for i in range(103)], num_classes=3
        )
        assignment = kfold_split(corpus, 5, seed=1)
        sizes = sorted(np.bincount(assignment, minlength=5).tolist(), reverse=True)
        assert sizes == [21, 21, 21, 20, 20]

    def test_per_class_fold_sizes_within_one(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=97)
        corpus = LabeledCorpus(records=[(f"t{i}", int(l)) for i, l in enumerate(labels)], num_classes=3)
        assignment = kfold_split(corpus, 4, seed=2)
        for cls in range(3):
            per_fold = np.bincount(assignment[labels == cls], minlength=4)
            assert per_fold.max() - per_fold.min() <= 1

    def test_small_class_warns(self):
        corpus = LabeledCorpus(
            records=[("a", 0)] * 8 + [("b", 1)] * 2, num_classes=2
        )
        with pytest.warns(UserWarning, match="fewer than"):
            kfold_split(corpus, 4, seed=0)

    def test_train_dev_partition(self):
        corpus = self._balanced(20)
        assignment = kfold_split(corpus, 4, seed=0)
        train_idx, dev_idx = train_dev_indices(assignment, 2)
        assert len(train_idx) + len(dev_idx) == 20
        assert set(train_idx).isdisjoint(dev_idx)

    def test_k_bounds(self):
        corpus = self._balanced(10)
        with pytest.raises(DataError):
            kfold_split(corpus, 1, 0)
        with pytest.raises(DataError):
            kfold_split(corpus, 11, 0)


class TestSynthetic:
    def test_trigger_rule_holds_by_construction(self):
        corpus = make_synthetic(n=200, vocab_size=50, trigger_rule="trigger", seed=0)
        for text, label in corpus.records:
            present = "tok7" in split_text(text)
            assert present == bool(label)

    def test_balanced_and_deterministic(self):
        a = make_synthetic(n=100, vocab_size=30, trigger_rule="trigger", seed=4)
        b = make_synthetic(n=100, vocab_size=30, trigger_rule="trigger", seed=4)
        assert a.records == b.records
        assert np.bincount(a.labels()).tolist() == [50, 50]

    def test_cooc_rule_holds(self):
        corpus = make_synthetic(n=300, vocab_size=50, trigger_rule="cooc", seed=1)
        for text, label in corpus.records:
            toks = set(split_text(text))
            assert (("tok7" in toks) and ("tok11" in toks)) == bool(label)

    def test_cooc_defeats_every_single_token_classifier(self):
        corpus = make_synthetic(n=600, vocab_size=50, trigger_rule="cooc", seed=2)
        labels = corpus.labels()
        token_sets = [set(split_text(t)) for t, _ in corpus.records]
        best = 0.0
        for tok_id in range(50):
            token = f"tok{tok_id}"
            present = np.array([token in s for s in token_sets])
            acc = max((present == labels).mean(), (~present == labels).mean())
            best = max(best, float(acc))
        assert best < 0.95

    def test_minimum_size_enforced(self):
        with pytest.raises(DataError):
            make_synthetic(n=5, vocab_size=50)
