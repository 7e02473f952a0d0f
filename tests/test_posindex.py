"""Positional document indexing and corpus persistence tests."""

import os
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

from proxima.classify import CategoryModel, evaluate
from proxima.kernels import InfluenceKernel, RbfConfig
from proxima.posindex import (
    CORPUS_HEADER,
    Corpus,
    CorpusFormatError,
    build_document,
    load_corpus,
    positions_of,
    save_corpus,
    write_text_atomic,
)

stems_lists = st.lists(st.sampled_from("abcde"), max_size=30)


class TestBuildDocument:
    def test_inversion(self):
        doc = build_document("d1", ["A", "B", "A"])
        assert doc.inverted == {"A": [0, 2], "B": [1]}
        assert doc.n == 3

    def test_empty(self):
        doc = build_document("d", [])
        assert doc.n == 0
        assert doc.inverted == {}

    def test_singleton(self):
        doc = build_document("d", ["A"])
        assert doc.inverted == {"A": [0]}
        assert doc.n == 1

    def test_accepts_a_tuple(self):
        doc = build_document("d", ("x", "y"))
        assert doc.stems == ("x", "y")

    @given(stems_lists)
    def test_matches_brute_scan(self, stems):
        doc = build_document("d", stems)
        for term in set(stems):
            assert positions_of(doc, term) == [i for i, s in enumerate(stems) if s == term]
        assert sum(len(v) for v in doc.inverted.values()) == doc.n

    @given(stems_lists)
    def test_position_lists_partition_the_document(self, stems):
        doc = build_document("d", stems)
        seen = sorted(p for ps in doc.inverted.values() for p in ps)
        assert seen == list(range(doc.n))


class TestMapOnFirstRead:
    def test_no_constructor_builds_the_map(self, tmp_path):
        corpus = Corpus()
        corpus.add(build_document("d1", ["a", "b", "a"]), label="x")
        corpus.add(build_document("d2", []))
        save_corpus(corpus, tmp_path / "c.tsv")
        loaded = load_corpus(tmp_path / "c.tsv")
        for doc in [*corpus, *loaded]:
            assert "inverted" not in vars(doc)

    @given(st.lists(st.text(min_size=1, max_size=2), max_size=40))
    def test_the_map_is_the_eager_one(self, stems):
        eager: dict[str, list[int]] = {}
        for position, stem in enumerate(stems):
            eager.setdefault(stem, []).append(position)
        doc = build_document("d", stems)
        inverted = doc.inverted
        assert list(inverted.items()) == list(eager.items())  # the same key order too
        assert doc.inverted is inverted

    def test_equal_documents_compare_and_hash_equal(self):
        first, second = build_document("d", ["a", "b"]), build_document("d", ("a", "b"))
        assert first.inverted == {"a": [0], "b": [1]}  # one map built, the other not
        assert first == second and hash(first) == hash(second)
        assert first != build_document("d", ["b", "a"]) and first != build_document("e", ["a", "b"])

    @pytest.mark.parametrize("mode", ["standard", "rbf"])
    def test_evaluate_builds_the_labeled_maps_only(self, mode):
        corpus = Corpus()
        corpus.add(build_document("l1", ["a", "b", "a"]), label="x")
        corpus.add(build_document("u1", ["a", "b", "c"]))
        corpus.add(build_document("l2", ["c", "c", "b"]), label="y")
        corpus.add(build_document("u2", ["c"]))
        categories = [CategoryModel("x", frozenset({"a"})), CategoryModel("y", frozenset({"c"}))]
        cfg = RbfConfig(InfluenceKernel("triangular", 3), kf=2)
        assert evaluate(corpus, categories, cfg, mode).confusion == ((1, 0), (0, 1))
        built = {doc.doc_id for doc in corpus if "inverted" in vars(doc)}
        assert built == {"l1", "l2"}


class TestPositionsOf:
    def test_present_and_absent(self):
        doc = build_document("d1", ["A", "B", "A"])
        assert positions_of(doc, "A") == [0, 2]
        assert positions_of(doc, "Z") == []

    def test_empty_document(self):
        assert positions_of(build_document("d", []), "A") == []

    @given(stems_lists, st.lists(st.sampled_from("abcdez"), min_size=1, max_size=4, unique=True))
    def test_a_class_occurs_wherever_a_member_does(self, stems, members):
        doc = build_document("d", stems)
        expected = [i for i, s in enumerate(stems) if s in members]
        assert positions_of(doc, tuple(members)) == expected


class TestCorpus:
    def test_duplicate_doc_id_rejected(self):
        corpus = Corpus()
        corpus.add(build_document("d1", ["a"]))
        with pytest.raises(ValueError, match="duplicate"):
            corpus.add(build_document("d1", ["b"]))

    def test_labels_recorded(self):
        corpus = Corpus()
        corpus.add(build_document("d1", ["a"]), label="sport")
        assert corpus.labels == {"d1": "sport"}


class TestPersistence:
    def _sample_corpus(self):
        corpus = Corpus()
        corpus.add(build_document("d1", ["كتاب", "قلم"]), label="مكتب")
        corpus.add(build_document("d2", ["a", "b", "a"]))
        corpus.add(build_document("d3", []), label="x")
        return corpus

    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        corpus = self._sample_corpus()
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert list(loaded.documents) == list(corpus.documents)
        for doc_id in corpus.documents:
            assert loaded.documents[doc_id].stems == corpus.documents[doc_id].stems
            assert loaded.documents[doc_id].inverted == corpus.documents[doc_id].inverted
        assert loaded.labels == corpus.labels

    def test_round_trip_is_byte_stable(self, tmp_path):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        save_corpus(self._sample_corpus(), first)
        save_corpus(load_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1\t-\ta b\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="header"):
            load_corpus(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#proxima-corpus v2\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="version"):
            load_corpus(path)

    def test_truncated_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{CORPUS_HEADER}\nd1\t-\ta\nd2\t-\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":3:"):
            load_corpus(path)

    def test_a_file_cut_mid_line_reports_its_last_line(self, tmp_path):
        path = tmp_path / "cut.tsv"
        save_corpus(self._sample_corpus(), path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        for end in range(1, len(text)):
            if text[end - 1] == "\n":  # a cut at a line end cannot be told from a shorter corpus
                continue
            path.write_text(text[:end], encoding="utf-8")
            lineno = text.count("\n", 0, end) + 1
            with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:{lineno}: "):
                load_corpus(path)
        path.write_text(f"{CORPUS_HEADER}\nd1\t-\ta\nd2\t-\ta b", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:3: the file ends mid-line"):
            load_corpus(path)
        path.write_text(CORPUS_HEADER, encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:1: the file ends mid-line"):
            load_corpus(path)

    def test_duplicate_id_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{CORPUS_HEADER}\nd1\t-\ta\nd1\t-\tb\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        save_corpus(self._sample_corpus(), path)
        before = path.read_bytes()
        corpus = Corpus()
        corpus.add(build_document("d1", ["\ud800"]))
        with pytest.raises(ValueError, match="not storable"):  # rejected before writing
            save_corpus(corpus, path)
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate cannot be encoded
            write_text_atomic(path, "\ud800")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.tsv"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.tsv"
        save_corpus(self._sample_corpus(), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        corpus = Corpus()
        corpus.add(build_document("d9", ["z"]))
        with pytest.raises(OSError, match="replace failed"):
            save_corpus(corpus, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.tsv"]

    def test_unstorable_values_rejected_on_save(self, tmp_path):
        corpus = Corpus()
        corpus.add(build_document("d\t1", ["a"]))
        with pytest.raises(ValueError, match="doc_id"):
            save_corpus(corpus, tmp_path / "c.tsv")
        corpus = Corpus()
        corpus.add(build_document("d1", ["a b"]))
        with pytest.raises(ValueError, match="stem"):
            save_corpus(corpus, tmp_path / "c.tsv")
        corpus = Corpus()
        corpus.add(build_document("d1", ["a"]), label="-")
        with pytest.raises(ValueError, match="reserved"):
            save_corpus(corpus, tmp_path / "c.tsv")

    @pytest.mark.parametrize(
        "docs, message",
        [
            # a bad stem in a document before the bad doc_id is named first
            ([("d1", ["a", "b c", "\ud800"]), ("d\t2", ["e f"]), ("d3", ["g h"])], "stem 'b c' in 'd1'"),
            # in the bad document itself, the doc_id check comes before its stems
            ([("d1", ["a"]), ("d\t2", ["b c"]), ("d3", ["e f"])], "doc_id 'd\\t2'"),
            # bad stems only after the bad doc_id
            ([("d1", ["a"]), ("d\t2", ["a"]), ("d3", ["b c"])], "doc_id 'd\\t2'"),
            # a stem already seen storable does not hide the first bad one that follows it
            ([("d1", ["a", "b"]), ("d2", ["b", "\ud800", "a", "c d", "\ud800"])], "stem '\\ud800' in 'd2'"),
            # nor does a bad stem met again in a later document
            ([("d1", ["a"]), ("d2", ["a", "", "b c"]), ("d3", ["b c"])], "stem '' in 'd2'"),
        ],
    )
    def test_first_bad_field_is_named(self, tmp_path, docs, message):
        corpus = Corpus()
        for doc_id, stems in docs:
            corpus.add(build_document(doc_id, stems))
        with pytest.raises(ValueError) as raised:
            save_corpus(corpus, tmp_path / "c.tsv")
        assert str(raised.value).startswith(message)
        assert list(tmp_path.iterdir()) == []

    @given(st.lists(stems_lists, max_size=6))
    def test_round_trip_arbitrary_small_corpora(self, docs):
        import tempfile
        from pathlib import Path

        corpus = Corpus()
        for i, stems in enumerate(docs):
            corpus.add(build_document(f"d{i}", stems), label=f"c{i % 2}")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.tsv"
            save_corpus(corpus, path)
            loaded = load_corpus(path)
        assert {d.doc_id: d.stems for d in loaded} == {d.doc_id: d.stems for d in corpus}
        assert loaded.labels == corpus.labels
