"""Scoring in blocks: many documents per fold, the same floats as one by one.

``classify_documents`` (and through it ``evaluate`` and ``proxima classify``)
and ``mode_similarities`` (``proxima query``) score documents in runs of at
most ``classify.BLOCK_POSITIONS`` positions, each query folded over a run at
once (``proxcore._similarities``), with rbf windows coded in rows of about
``rbfwin._ROW_DIGITS`` digits.  Every score must be bit-identical to the
one-document ``classify`` and ``mode_similarity``, which fold a run of one
document, whatever the run and row sizes, so each check compares
``float.hex``.
"""

import math
import random
import sys
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from proxima import proxcore, rbfwin
from proxima.classify import (
    MODES,
    CategoryModel,
    classify,
    classify_documents,
    evaluate,
    metrics_from_confusion,
    mode_similarity,
    rank_by_score,
    save_categories,
)
from proxima.cli import main
from proxima.posindex import Corpus, build_document, save_corpus
from proxima.proxcore import KERNEL_SHAPES, InfluenceKernel, fold_query, has_terms, term_profile
from proxima.querylang import parse_query
from proxima.rbfwin import RbfConfig, rbf_term_profile, window_stats
from proxima.textprep import default_stemmer

# the package exports a function named classify, so fetch the module itself
classify_module = sys.modules["proxima.classify"]

CATEGORIES = [
    CategoryModel("alpha", frozenset({"a", "b"}), {"e": "a", "f": "a"}),
    CategoryModel("beta", frozenset({"c"}), {"g": "c"}),
    CategoryModel("gamma", frozenset({"d", "h"})),
]

MID = 40  # the length of the document "mid", one block size below
LONG = 130  # longer than another block size below


def _corpus() -> Corpus:
    rng = random.Random(5)
    vocabulary = list("abcdefgh") + ["x", "y", "z"]
    docs = {"empty": [], "one-a": ["a"], "one-x": ["x"], "pair": ["g", "c"]}
    for i in range(14):
        docs[f"d{i:02d}"] = [rng.choice(vocabulary) for _ in range(rng.randint(2, 40))]
    docs["mid"] = [rng.choice(vocabulary) for _ in range(MID)]
    docs["long"] = [rng.choice(vocabulary) for _ in range(LONG)]
    docs["tail"] = ["x"] * 3 + ["h"]
    names = [model.name for model in CATEGORIES]
    corpus = Corpus()
    for number, (doc_id, stems) in enumerate(docs.items()):
        corpus.add(build_document(doc_id, stems), label=names[number % len(names)])
    return corpus


# (name, kernel, k, kf, threshold, clamp, CLI flags)
CONFIGS = [
    ("small", "triangular", 2, 1, 1.0, True, ["--k", "2", "--kf", "1"]),
    # k and kf above every document's length
    ("k-kf-over-n", "triangular", 10**6, 200, 1.0, True, ["--k", str(10**6), "--kf", "200"]),
    # 18 digits of radix up to 52 take two int64 words
    ("two-words", "gaussian", 50, 9, 1.0, True, ["--kernel", "gaussian", "--k", "50", "--kf", "9"]),
    (
        "hanning-unclamped",
        "hanning",
        3,
        2,
        0.5,
        False,
        ["--kernel", "hanning", "--k", "3", "--kf", "2", "--threshold", "0.5", "--no-clamp"],
    ),
]

# one position, one document's length, a block the long document overflows, the whole corpus
BLOCKS = [1, MID, LONG - 1, 10**9]

# ``proxima query`` lines with AND, OR and NEAR; no document holds "w"
QUERY_TEXTS = [
    "a", "a AND b", "c OR x", "(a NEAR/3 b) OR h", "(e NEAR/2 z) AND (g OR d)", "w OR z", "w",
    "x AND (y OR f)",
]


def _hex(rankings):
    return [[(name, value.hex()) for name, value in ranking] for ranking in rankings]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
@pytest.mark.parametrize("mode", MODES)
def test_blocks_give_the_one_document_floats(monkeypatch, tmp_path, capsys, block, config, mode):
    _, shape, k, kf, threshold, clamp, flags = config
    cfg = RbfConfig(InfluenceKernel(shape, k), kf, threshold, clamp)
    corpus = _corpus()
    docs = list(corpus)
    # one document at a time, each leaf profiled on its own
    alone = [classify(doc, CATEGORIES, cfg, mode) for doc in docs]
    monkeypatch.setattr(classify_module, "BLOCK_POSITIONS", block)
    assert _hex(classify_documents(docs, CATEGORIES, cfg, mode)) == _hex(alone)
    if config[0] == "two-words" and mode == "rbf":
        assert any(isinstance(code, tuple) for memo in rbfwin._WINDOWS.values() for code in memo)

    names = sorted(model.name for model in CATEGORIES)
    confusion = [[0] * len(names) for _ in names]
    for doc, ranking in zip(docs, alone):
        confusion[names.index(corpus.labels[doc.doc_id])][names.index(ranking[0][0])] += 1
    assert evaluate(corpus, CATEGORIES, cfg, mode) == metrics_from_confusion(names, confusion)

    save_corpus(corpus, tmp_path / "corpus.tsv")
    save_categories(CATEGORIES, tmp_path / "categories.txt")
    capsys.readouterr()
    argv = ["classify", str(tmp_path / "corpus.tsv"), "--categories", str(tmp_path / "categories.txt")]
    assert main([*argv, "--mode", mode, *flags]) == 0
    expected = "".join(f"{doc.doc_id}\t{r[0][0]}\t{r[0][1]:.6f}\n" for doc, r in zip(docs, alone))
    assert capsys.readouterr().out == expected

    (tmp_path / "queries.txt").write_text("\n".join(QUERY_TEXTS) + "\n", encoding="utf-8")
    argv = ["query", str(tmp_path / "corpus.tsv"), "--query-file", str(tmp_path / "queries.txt")]
    assert main([*argv, "--mode", mode, *flags]) == 0
    expected = []
    for number, text in enumerate(QUERY_TEXTS, start=1):
        node = parse_query(text, default_stemmer())
        scores = ((doc.doc_id, mode_similarity(doc, node, cfg, mode)) for doc in docs)
        ranked = rank_by_score(pair for pair in scores if pair[1] > 0.0)
        expected.append(f"# query {number}: {text}\n")
        expected += [f"{rank}\t{doc_id}\t{value:.6f}\n" for rank, (doc_id, value) in enumerate(ranked, 1)]
    assert capsys.readouterr().out == "".join(expected)


def test_blocks_split_by_positions(monkeypatch):
    docs = list(_corpus())
    for block in BLOCKS:
        monkeypatch.setattr(classify_module, "BLOCK_POSITIONS", block)
        blocks = list(classify_module._blocks(docs))
        assert [doc for b in blocks for doc in b] == docs
        for b in blocks:
            assert len(b) == 1 or sum(doc.n for doc in b) <= block
    monkeypatch.setattr(classify_module, "BLOCK_POSITIONS", LONG - 1)
    assert [doc.doc_id for doc in docs if doc.n >= LONG] == ["long"]
    assert [b for b in classify_module._blocks(docs) if b[0].doc_id == "long"] == [[docs[-2]]]


@pytest.mark.parametrize("mode", ["RBF", "", "bogus"])
def test_unknown_mode_raises_before_anything_is_scored(monkeypatch, mode):
    def refuse(*args):
        raise AssertionError("scored before the mode check")

    # classify imports its profiles from these modules at call time, so
    # patching them here is what it would call
    for module, name in (
        (proxcore, "has_terms"),
        (proxcore, "_term_profiles"),
        (rbfwin, "_rbf_term_profiles"),
    ):
        monkeypatch.setattr(module, name, refuse)
    corpus = _corpus()
    cfg = RbfConfig(InfluenceKernel())
    for call in (
        lambda: evaluate(corpus, CATEGORIES, cfg, mode),
        lambda: classify_documents(list(corpus), CATEGORIES, cfg, mode),
        lambda: classify_documents([], CATEGORIES, cfg, mode),
        lambda: classify(next(iter(corpus)), CATEGORIES, cfg, mode),
    ):
        with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
            call()


QUERIES = st.recursive(
    st.sampled_from(list("abcz")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(list("abz")), st.integers(1, 6), st.sampled_from(list("abc"))).map(
            lambda t: f"({t[0]} NEAR/{t[1]} {t[2]})"
        ),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(
    docs=st.lists(st.lists(st.sampled_from(list("abcxy")), max_size=25), min_size=1, max_size=6),
    texts=st.lists(QUERIES, min_size=1, max_size=3),
    shape=st.sampled_from(KERNEL_SHAPES),
    k=st.integers(1, 9),
    kf=st.integers(1, 12),
    threshold=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    clamp=st.booleans(),
)
def test_block_similarities_equal_one_pair_at_a_time(docs, texts, shape, k, kf, threshold, clamp):
    """Any queries, NEAR widths included, over any run of documents.

    Each pair's oracle folds its terms' one-document profiles with
    ``fold_query``, outside the run code.
    """
    documents = [build_document(f"d{i}", stems) for i, stems in enumerate(docs)]
    nodes = [parse_query(text) for text in texts]
    cfg = RbfConfig(InfluenceKernel(shape, k), kf, threshold, clamp)
    for profiles, profile, settings_ in (
        (proxcore._term_profiles, term_profile, cfg.kernel),
        (rbfwin._rbf_term_profiles, rbf_term_profile, cfg),
    ):
        for node in nodes:
            got = proxcore._similarities(documents, node, profiles, settings_)
            want = [_alone(doc, node, profile, settings_) for doc in documents]
            assert [v.hex() for v in got] == [v.hex() for v in want]


def _alone(doc, node, profile, settings_) -> float:
    if doc.n == 0 or not has_terms(doc, node):
        return 0.0
    folded = fold_query(node, lambda stem, s: profile(doc, stem, s), settings_)
    return float(folded.sum()) / doc.n


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
@pytest.mark.parametrize("mode", MODES)
def test_small_batches_and_rows_give_the_same_floats(monkeypatch, config, mode):
    """A leaf two categories share, profiled once for each, and rows split short."""
    _, shape, k, kf, threshold, clamp, _ = config
    cfg = RbfConfig(InfluenceKernel(shape, k), kf, threshold, clamp)
    docs = list(_corpus())
    shared = [*CATEGORIES, CategoryModel("delta", frozenset({"a", "c"}), {"g": "c"})]
    alone = [classify(doc, shared, cfg, mode) for doc in docs]
    monkeypatch.setattr(classify_module, "BLOCK_POSITIONS", 10**9)
    monkeypatch.setattr(rbfwin, "_ROW_DIGITS", 2 * kf + 3)
    assert _hex(classify_documents(docs, shared, cfg, mode)) == _hex(alone)


def test_sparse_rows_copy_their_windows_out(monkeypatch):
    """A wide window over many short documents leaves few windows per row wanted; those are copied out."""
    rng = random.Random(3)
    docs = [build_document("long", [rng.choice("abcdx") for _ in range(LONG)])]
    docs += [build_document(f"s{i:02d}", [rng.choice("abcd"), rng.choice("abx")]) for i in range(60)]
    cfg = RbfConfig(InfluenceKernel("triangular", 5), 200)
    alone = [classify(doc, CATEGORIES, cfg, "rbf") for doc in docs]
    copied = []
    window_codes = rbfwin._window_codes

    def spy(padded, kf, radix, wanted):
        copied.append(16 * len(wanted) < len(padded) - 2 * kf)
        return window_codes(padded, kf, radix, wanted)

    monkeypatch.setattr(rbfwin, "_window_codes", spy)
    monkeypatch.setattr(classify_module, "BLOCK_POSITIONS", 10**9)
    assert _hex(classify_documents(docs, CATEGORIES, cfg, "rbf")) == _hex(alone)
    assert any(copied)


@pytest.mark.parametrize("mode", MODES)
def test_memory_does_not_grow_with_leaves(mode):
    """A long document's fold holds a few rows at a time, whatever its number of leaves."""
    rng = random.Random(8)
    vocabulary = [f"w{i}" for i in range(240)]
    doc = build_document("long", [rng.choice(vocabulary) for _ in range(20_000)])
    cfg = RbfConfig(InfluenceKernel("triangular", 5), 5)

    def peak(count):
        categories = [CategoryModel(f"c{i}", frozenset({vocabulary[i]})) for i in range(count)]
        list(classify_documents([doc], categories, cfg, mode))  # warm the window memo
        tracemalloc.start()
        try:
            list(classify_documents([doc], categories, cfg, mode))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # all 240 leaves at once would take about 240 rows of 20,000 values
    assert peak(240) < 2 * peak(4)


def test_slice_sums_equal_sums_of_copies():
    """A document's score sums its slice of a block's array; numpy must sum it like a copy."""
    rng = np.random.default_rng(12)
    values = rng.random(20_000) ** 3
    values[rng.random(20_000) < 0.3] = 0.0
    for _ in range(3_000):
        i = int(rng.integers(0, len(values)))
        j = int(rng.integers(i, min(len(values), i + int(rng.integers(1, 3_000))) + 1))
        assert values[i:j].sum().hex() == values[i:j].copy().sum().hex()


# From Python 3.12 on, sum([0.1, 0.2, 0.3]) is 0.6; added left to right it is 0.6000000000000001.


def test_window_stats_sum_left_to_right():
    stats = window_stats([0.1, 0.2, 0.3])
    assert stats.mu == ((0.1 + 0.2) + 0.3) / 3
    deviations = [(v - stats.mu) ** 2 for v in (0.1, 0.2, 0.3)]
    assert stats.sigma == math.sqrt(((deviations[0] + deviations[1]) + deviations[2]) / 3)


def test_macro_means_sum_left_to_right():
    report = metrics_from_confusion(["x", "y", "z"], [[1, 9, 0], [3, 2, 5], [3, 4, 3]])
    assert [report.metrics[name].recall for name in "xyz"] == [0.1, 0.2, 0.3]
    assert report.macro_recall == ((0.1 + 0.2) + 0.3) / 3


def test_narrowed_config_is_built_once():
    cfg = RbfConfig(InfluenceKernel("gaussian", 7), 3, 0.5, False)
    narrowed = cfg.with_width(3)
    assert narrowed is cfg.with_width(3)
    assert narrowed is RbfConfig(InfluenceKernel("gaussian", 7), 3, 0.5, False).with_width(3)
    assert narrowed == RbfConfig(InfluenceKernel("gaussian", 3), 3, 0.5, False)
    assert cfg.with_width(4) is not narrowed
