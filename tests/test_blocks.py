"""Scoring in runs: many documents per fold, the same floats as one by one.

``classify_documents`` (and through it ``evaluate`` and ``proxima classify``)
and ``mode_similarities`` (``proxima query``) score each query over all
their documents through ``proxcore._similarities``, which cuts the
documents that can score into runs of count documents with count *
longest <= ``proxcore.RUN_POSITIONS`` and folds each run at once.  Every
score must be bit-identical to the one-document ``classify``,
``similarity`` and ``rbf_similarity``, which fold a run of one document,
whatever the run size, so each check compares ``float.hex``.  A window's
memo key is its own digits, so a window scored in a longer run finds the
entry it left when scored alone.
"""

import math
import random
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
    mode_similarities,
    rank_by_score,
    save_categories,
)
from proxima.cli import main
from proxima.posindex import Corpus, build_document, save_corpus
from proxima.proxcore import (
    KERNEL_SHAPES,
    InfluenceKernel,
    fold_query,
    has_terms,
    local_relevance,
    similarity,
    term_profile,
)
from proxima.querylang import parse_query
from proxima.rbfwin import RbfConfig, rbf_similarity, rbf_term_profile, window_stats
from proxima.textprep import default_stemmer

CATEGORIES = [
    CategoryModel("alpha", frozenset({"a", "b"}), {"e": "a", "f": "a"}),
    CategoryModel("beta", frozenset({"c"}), {"g": "c"}),
    CategoryModel("gamma", frozenset({"d", "h"})),
]

MID = 40  # the length of the document "mid", one run size below
LONG = 130  # longer than another run size below


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
    # a gaussian kernel and 19-digit window keys (the id, from when such a
    # window took two int64 words, is kept so that test ids stay stable)
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

# one position, one document's length, a run the long document overflows, the whole corpus
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
    monkeypatch.setattr(proxcore, "RUN_POSITIONS", block)
    assert _hex(classify_documents(docs, CATEGORIES, cfg, mode)) == _hex(alone)

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
        if mode == "standard":
            scores = ((doc.doc_id, similarity(doc, node, cfg.kernel)) for doc in docs)
        else:
            scores = ((doc.doc_id, rbf_similarity(doc, node, cfg)) for doc in docs)
        ranked = rank_by_score(pair for pair in scores if pair[1] > 0.0)
        expected.append(f"# query {number}: {text}\n")
        expected += [f"{rank}\t{doc_id}\t{value:.6f}\n" for rank, (doc_id, value) in enumerate(ranked, 1)]
    assert capsys.readouterr().out == "".join(expected)


@pytest.mark.parametrize("block", BLOCKS)
def test_runs_cut_the_scored_documents_in_order(monkeypatch, block):
    """Each run is one document or count * longest <= RUN_POSITIONS, and takes all it can."""
    docs = list(_corpus())
    node = parse_query("a OR x")
    runs = []
    fold = proxcore._fold

    def spy(run, *args):
        runs.append(run)
        return fold(run, *args)

    monkeypatch.setattr(proxcore, "_fold", spy)
    monkeypatch.setattr(proxcore, "RUN_POSITIONS", block)
    proxcore._similarities(docs, node, proxcore._term_profiles, InfluenceKernel())
    held = [doc for doc in docs if has_terms(doc, node)]
    assert len(held) < len(docs)
    assert [doc for run in runs for doc in run] == held
    for run, after in zip(runs, runs[1:] + [None]):
        longest = max(doc.n for doc in run)
        assert len(run) == 1 or len(run) * longest <= block
        if after is not None:  # the next document would have broken the bound
            assert (len(run) + 1) * max(longest, after[0].n) > block
    if block == LONG - 1:
        assert [run for run in runs if any(doc.doc_id == "long" for doc in run)] == [[docs[-2]]]
    # a run may fill the bound exactly
    runs.clear()
    four = [build_document(f"f{i}", ["a", "x", "a", "x"]) for i in range(4)]
    monkeypatch.setattr(proxcore, "RUN_POSITIONS", 8)
    proxcore._similarities(four, node, proxcore._term_profiles, InfluenceKernel())
    assert runs == [four[:2], four[2:]]


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


@st.composite
def _segments(draw):
    """1 to 6 (document, stem) segments of 1 to 40 positions; a stem is plain or a class."""
    segments = []
    for i in range(draw(st.integers(1, 6))):
        stems = draw(st.lists(st.sampled_from(list("abcx")), min_size=1, max_size=40))
        held = draw(st.sampled_from(sorted(set(stems))))
        if draw(st.booleans()):
            segments.append((build_document(f"d{i}", stems), held))
        else:
            others = draw(st.sets(st.sampled_from(list("abcyz")), max_size=3))
            segments.append((build_document(f"d{i}", stems), tuple(sorted(others | {held}))))
    return segments


@settings(max_examples=300, deadline=None)
@given(
    segments=_segments(),
    shape=st.sampled_from(KERNEL_SHAPES),
    k=st.integers(1, 300),
    reach=st.integers(0, 400),
)
def test_segments_lie_gap_apart_on_one_line(segments, shape, k, reach):
    """``_segment_digits`` is the one layout of a block, in both modes.

    Each segment's digits are those it has alone, and its positions follow
    the one before after exactly gap = max(top, min(reach, longest)) empty
    places, top = min(k, longest), the first at 0.
    """
    kernel = InfluenceKernel(shape, k)
    digits, table, xs, gap = proxcore._segment_digits(segments, kernel, reach)
    longest = max(doc.n for doc, _ in segments)
    assert gap == max(min(k, longest), min(reach, longest))
    assert len(table) == min(k, longest) + 1
    alone = [proxcore._segment_digits([segment], kernel, reach)[0] for segment in segments]
    assert digits.tolist() == np.concatenate(alone).tolist()
    assert table[digits].tolist() == [
        local_relevance(doc, stem, x, kernel) for doc, stem in segments for x in range(doc.n)
    ]
    # in order from 0, each segment's positions in a row, then gap empty places
    expected, place = [], 0
    for doc, _ in segments:
        expected += range(place, place + doc.n)
        place += doc.n + gap
    assert xs.dtype == np.int64
    assert xs.tolist() == expected


@pytest.mark.parametrize("reach", [0, 3])
def test_interleaved_class_members_are_sorted_on_the_line(reach):
    """A class whose members alternate: its lists joined end to end are out of order."""
    kernel = InfluenceKernel("triangular", 2)
    segments = [(build_document(f"d{i}", ["a", "b"] * (i + 2) + ["x"] * i), ("a", "b")) for i in range(4)]
    digits, table, _, _ = proxcore._segment_digits(segments, kernel, reach)
    assert digits.tolist() == [0] * 4 + [0] * 6 + [1] + [0] * 8 + [1, 2] + [0] * 10 + [1, 2, 2]
    assert table[digits].tolist() == [
        local_relevance(doc, stem, x, kernel) for doc, stem in segments for x in range(doc.n)
    ]


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
    """A leaf two categories share, profiled once for each, in one run."""
    _, shape, k, kf, threshold, clamp, _ = config
    cfg = RbfConfig(InfluenceKernel(shape, k), kf, threshold, clamp)
    docs = list(_corpus())
    shared = [*CATEGORIES, CategoryModel("delta", frozenset({"a", "c"}), {"g": "c"})]
    alone = [classify(doc, shared, cfg, mode) for doc in docs]
    monkeypatch.setattr(proxcore, "RUN_POSITIONS", 10**9)
    assert _hex(classify_documents(docs, shared, cfg, mode)) == _hex(alone)


def test_sparse_rows_copy_their_windows_out(monkeypatch):
    """A wide window over many short documents leaves few windows per row wanted."""
    rng = random.Random(3)
    docs = [build_document("long", [rng.choice("abcdx") for _ in range(LONG)])]
    docs += [build_document(f"s{i:02d}", [rng.choice("abcd"), rng.choice("abx")]) for i in range(60)]
    cfg = RbfConfig(InfluenceKernel("triangular", 5), 200)
    alone = [classify(doc, CATEGORIES, cfg, "rbf") for doc in docs]
    monkeypatch.setattr(proxcore, "RUN_POSITIONS", 10**9)
    assert _hex(classify_documents(docs, CATEGORIES, cfg, "rbf")) == _hex(alone)


def _warm_peak(call) -> int:
    """The traced peak of ``call()``, run once before to warm the window memo."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_windows_over_many_short_documents_stay_small():
    """kf = 300 around one 300-position document and 3,000 two-position ones.

    In one run, every short document would sit between 300 outside digits,
    a row of about 900,000 digits; the run rule keeps the wide document
    with a few dozen short ones, and the others' windows are two wide.
    """
    rng = random.Random(4)
    docs = [build_document("wide", [rng.choice("abcdx") for _ in range(300)])]
    docs += [build_document(f"s{i:04d}", [rng.choice("abcd"), rng.choice("abx")]) for i in range(3000)]
    cfg = RbfConfig(InfluenceKernel("triangular", 5), 300)
    node = parse_query("a OR (b AND c)")
    alone = [rbf_similarity(doc, node, cfg) for doc in docs]
    assert [v.hex() for v in mode_similarities(docs, node, cfg, "rbf")] == [v.hex() for v in alone]

    def peak(count):
        return _warm_peak(lambda: mode_similarities(docs[:count], node, cfg, "rbf"))

    # in one run, ten times the short documents would take about ten times the peak
    assert peak(3001) < 2 * peak(301)


def test_a_window_keeps_its_key_in_a_longer_run():
    """At k = 10**6 a run's table is as long as its longest document; its keys are not.

    A short document scored alone and then in a run with a longer one adds
    no entries the second time, while both tables have at most 255 values.
    Past that a run's keys take two bytes a digit.
    """
    rng = random.Random(30)
    short, longer, wide = (
        build_document(name, [rng.choice("abxyz") for _ in range(n)])
        for name, n in (("short", 30), ("longer", 90), ("wide", 300))
    )
    cfg = RbfConfig(InfluenceKernel("triangular", 10**6), 3)
    node = parse_query("a OR b")

    def entries(*runs):
        rbfwin._WINDOWS.clear()
        for run in runs:
            proxcore._similarities(run, node, rbfwin._rbf_term_profiles, cfg)
        return {dtype.name: len(memo) for (_, _, dtype, _), memo in rbfwin._WINDOWS.items()}

    alone, both = entries([short]), entries([short, longer])
    assert 0 < alone["uint8"] < both["uint8"]
    assert entries([short], [short, longer]) == both
    assert entries([short, wide]).keys() == {"uint16"}


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_a_run_at_k_over_kf_gives_the_one_document_profiles(shape):
    """At k = 100, kf = 5 the line's gaps are 100 places wide and a window 11.

    Only the windows at the segments' places are compared against their
    centres, and each value is the one its document's profile gives alone.
    """
    rng = random.Random(6)
    segments = []
    for i, n in enumerate((1, 7, 40, 130, 12, 260)):
        stems = [rng.choice("abxyz") for _ in range(n)]
        stems[rng.randrange(n)] = "a"
        segments.append((build_document(f"d{i}", stems), "a"))
    cfg = RbfConfig(InfluenceKernel(shape, 100), 5)
    rbfwin._WINDOWS.clear()
    run = rbfwin._rbf_term_profiles(segments, cfg)
    rbfwin._WINDOWS.clear()
    alone = np.concatenate([rbf_term_profile(doc, stem, cfg) for doc, stem in segments])
    assert [v.hex() for v in run.tolist()] == [v.hex() for v in alone.tolist()]


@pytest.mark.parametrize("mode", MODES)
def test_memory_does_not_grow_with_leaves(mode):
    """A long document's fold holds a few rows at a time, whatever its number of leaves."""
    rng = random.Random(8)
    vocabulary = [f"w{i}" for i in range(240)]
    doc = build_document("long", [rng.choice(vocabulary) for _ in range(20_000)])
    cfg = RbfConfig(InfluenceKernel("triangular", 5), 5)

    def peak(count):
        categories = [CategoryModel(f"c{i}", frozenset({vocabulary[i]})) for i in range(count)]
        return _warm_peak(lambda: classify_documents([doc], categories, cfg, mode))

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
