"""Scoring skips only work whose result is exactly 0, so pruned scores equal unpruned ones.

``similarity`` and ``rbf_similarity`` return 0.0 for a document that fails
``has_terms``, the fold never profiles a term absent from the document, and
``rbf_term_profile`` skips windows holding no nonzero value.  The references
below take none of these shortcuts: they evaluate every position with the
scalar functions and sum the values as one array, so every comparison is
``==``, never a tolerance.
"""

import weakref
from functools import partial

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from proxima import rbfwin
from proxima.classify import (
    CategoryModel,
    classify,
    classify_documents,
    generate_synthetic_corpus,
    uniform_synthetic_spec,
)
from proxima.posindex import build_document
from proxima.proxcore import (
    KERNEL_SHAPES,
    InfluenceKernel,
    _occurs,
    eval_query_at,
    fold_query,
    has_terms,
    query_profile,
    similarity,
    term_profile,
)
from proxima.querylang import And, Near, Or, Term, parse_query
from proxima.rbfwin import (
    RbfConfig,
    rbf_eval_query_at,
    rbf_local_relevance,
    rbf_similarity,
    rbf_term_profile,
)

# documents draw from the first five stems, queries from all eight
VOCAB = ["a", "b", "c", "d", "e", "x", "y", "z"]

stems = st.sampled_from(VOCAB)
terms = stems.map(Term)
# class leaves, as category queries have them; a member may repeat
classes = st.lists(stems, min_size=2, max_size=3).map(lambda members: Term(tuple(members)))
queries = st.recursive(
    terms | classes | st.builds(Near, st.integers(1, 9), terms, terms),
    lambda inner: st.builds(And, inner, inner) | st.builds(Or, inner, inner),
    max_leaves=8,
)
# a sparse document: mostly filler, with a few query stems
documents = st.lists(
    st.sampled_from(VOCAB[:5]) | st.just("filler"), max_size=60
).map(lambda seq: build_document("d", seq))
kernels = st.builds(InfluenceKernel, st.sampled_from(KERNEL_SHAPES), st.integers(1, 9))
configs = st.builds(
    RbfConfig,
    kernel=kernels,
    kf=st.integers(1, 17),
    threshold_scale=st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 2.0),
    clamp_output=st.booleans(),
)
EXACT = settings(max_examples=300, deadline=None)


def _pointwise_similarity(doc, value_at) -> float:
    """Scalar values at every position, summed as one array like the profiles are."""
    if doc.n == 0:
        return 0.0
    return float(np.array([value_at(x) for x in range(doc.n)], dtype=np.float64).sum()) / doc.n


@EXACT
@given(doc=documents, node=queries, kernel=kernels)
def test_standard_similarity_equals_unpruned_sums(doc, node, kernel):
    value = similarity(doc, node, kernel)
    assert value == _pointwise_similarity(doc, lambda x: eval_query_at(doc, node, x, kernel))
    if doc.n:
        unpruned = fold_query(node, partial(term_profile, doc), kernel)
        assert value == float(unpruned.sum()) / doc.n
        assert query_profile(doc, node, kernel).tolist() == unpruned.tolist()


@EXACT
@given(doc=documents, node=queries, cfg=configs)
def test_rbf_similarity_equals_scalar_window_sums(doc, node, cfg):
    expected = _pointwise_similarity(doc, lambda x: rbf_eval_query_at(doc, node, x, cfg))
    assert rbf_similarity(doc, node, cfg) == expected


@EXACT
@given(doc=documents, node=queries, kernel=kernels)
def test_failing_presence_means_an_all_zero_profile(doc, node, kernel):
    profile = fold_query(node, partial(term_profile, doc), kernel)
    if not has_terms(doc, node):
        assert not profile.any()

    # the unmerged plan, each leaf present when any of its stems is
    def leaf(stem, _):
        members = (stem,) if isinstance(stem, str) else stem
        return True if any(member in doc.inverted for member in members) else None

    assert has_terms(doc, node) == (fold_query(node, leaf, kernel) is not None)


def test_a_category_is_present_when_its_leaf_is():
    # about half of the (document, category) pairs hold the category
    spec = uniform_synthetic_spec(8, 6, 12, docs_per_category=3, cross_rate=0.05)
    corpus, models = generate_synthetic_corpus(spec, 7)
    docs = list(corpus)
    for doc in docs:
        for model in models:
            assert has_terms(doc, model.query) == _occurs(doc, model.leaf)
    # rbf scoring reads the same presence over a block as for one document alone
    cfg = RbfConfig(InfluenceKernel("triangular", 3), kf=4)
    together = classify_documents(docs, models, cfg, "rbf")
    alone = [classify(doc, models, cfg, "rbf") for doc in docs]
    assert [[(name, value.hex()) for name, value in row] for row in together] == [
        [(name, value.hex()) for name, value in row] for row in alone
    ]


def test_presence_follows_the_boolean_operators():
    doc = build_document("d", ["a", "b", "filler"])
    for text, expected in [
        ("a", True), ("z", False), ("a AND b", True), ("a AND z", False),
        ("a OR z", True), ("z OR y", False), ("a NEAR/1 b", True), ("a NEAR/9 z", False),
        ("(z AND a) OR (y OR b)", True), ("(a OR z) AND (y OR x)", False),
    ]:
        assert has_terms(doc, parse_query(text)) is expected, text


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("clamp", [True, False])
def test_window_skipping_on_long_documents_with_rare_terms(monkeypatch, shape, clamp):
    seq = ["filler"] * 400
    for position in (0, 3, 150, 151, 399):
        seq[position] = "rare"
    doc = build_document("d", seq)
    # the windows whose boosts are computed: the memo's misses, handed to the batched form
    computed = []
    batch = rbfwin._batch_boosts
    monkeypatch.setattr(rbfwin, "_batch_boosts", lambda keys, *a: computed.extend(keys) or batch(keys, *a))
    for kf in (1, 5, 17):
        for threshold in (0.0, 1.0, 2.0):
            cfg = RbfConfig(InfluenceKernel(shape, 4), kf, threshold, clamp)
            # a warm memo would answer every window without computing one
            rbfwin._WINDOWS.clear()
            computed.clear()
            profile = rbf_term_profile(doc, "rare", cfg)
            assert 0 < len(computed) < doc.n // 2
            scalar = [rbf_local_relevance(doc, "rare", x, cfg) for x in range(doc.n)]
            assert profile.tolist() == scalar


def test_absent_term_is_not_boosted():
    doc = build_document("d", ["a", "b", "c", "a"])
    assert rbf_similarity(doc, Term("z"), RbfConfig(InfluenceKernel("triangular", 3), kf=2)) == 0.0


def test_parsed_query_is_freed_after_scoring():
    docs = [build_document("d1", ["a", "b", "a"]), build_document("d2", ["c"])]
    node = parse_query("(a NEAR/3 b) OR (c AND z)")
    tree = weakref.ref(node)
    for doc in docs:
        similarity(doc, node, InfluenceKernel())
        rbf_similarity(doc, node, RbfConfig(InfluenceKernel()))
    assert "plan" in vars(node)  # scoring cached the plan on the query itself
    del node
    assert tree() is None


def test_category_tree_is_freed_with_its_model():
    model = CategoryModel("c", frozenset({"a", "b", "c"}), {"e": "a"})
    docs = [build_document("d1", ["e", "x", "b"]), build_document("d2", ["y"])]
    tree = weakref.ref(model.query)
    for mode in ("standard", "rbf"):
        for doc in docs:
            classify(doc, [model], RbfConfig(InfluenceKernel()), mode)
    assert model.query is tree()  # built once per model
    assert "plan" in vars(model.query)
    del model
    assert tree() is None
