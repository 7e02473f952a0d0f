"""Queries far deeper than the interpreter's recursion limit, in both modes.

A parsed OR of 3000 terms is a left-deep tree 2999 levels deep.  The
reference oracle walks trees recursively, so expected values are built from
its per-term relevances: an OR is the per-position max over its terms.
"""

import pytest

import _reference as ref
from proxima.cli import main
from proxima.posindex import Corpus, build_document, save_corpus
from proxima.proxcore import InfluenceKernel, eval_query_at, query_profile, similarity
from proxima.querylang import Or, Term, parse_query, render_query
from proxima.rbfwin import RbfConfig, rbf_eval_query_at, rbf_query_profile, rbf_similarity

TERMS = [f"t{i:04d}" for i in range(3000)]
LONG_OR = " OR ".join(TERMS)
STEMS = ["t0007", "n", "t2999", "z", "n", "t0007", "t1500"]
KERNEL = InfluenceKernel("triangular", 5)
CFG = RbfConfig(kernel=KERNEL, kf=2)


def _reference_similarity(mode: str) -> float:
    def relevance(term, x):
        if mode == "standard":
            return ref.local_relevance(STEMS, term, x, "triangular", 5)
        return ref.rbf_local_relevance(STEMS, term, x, "triangular", 5, 2)

    return sum(max(relevance(term, x) for term in TERMS) for x in range(len(STEMS))) / len(STEMS)


@pytest.mark.parametrize("mode", ["standard", "rbf"])
def test_three_thousand_term_or_matches_reference(mode):
    doc = build_document("d", STEMS)
    node = parse_query(LONG_OR)
    if mode == "standard":
        value = similarity(doc, node, KERNEL)
    else:
        value = rbf_similarity(doc, node, CFG)
    assert value == pytest.approx(_reference_similarity(mode), abs=1e-12)


def test_pointwise_equals_profile_on_long_or():
    doc = build_document("d", STEMS)
    node = parse_query(LONG_OR)
    pointwise = [eval_query_at(doc, node, x, KERNEL) for x in range(doc.n)]
    assert pointwise == query_profile(doc, node, KERNEL).tolist()
    pointwise = [rbf_eval_query_at(doc, node, x, CFG) for x in range(doc.n)]
    assert pointwise == rbf_query_profile(doc, node, CFG).tolist()


def test_right_deep_tree_folds_like_left_deep():
    doc = build_document("d", STEMS)
    right_deep = Term(TERMS[-1])
    for term in reversed(TERMS[:-1]):
        right_deep = Or(Term(term), right_deep)
    left_deep = parse_query(LONG_OR)
    assert query_profile(doc, right_deep, KERNEL).tolist() == query_profile(doc, left_deep, KERNEL).tolist()
    assert rbf_query_profile(doc, right_deep, CFG).tolist() == rbf_query_profile(doc, left_deep, CFG).tolist()


def test_render_long_or():
    # compare strings: dataclass == on a tree this deep would recurse
    expected = "(" * 2999 + TERMS[0] + "".join(f" OR {term})" for term in TERMS[1:])
    assert render_query(parse_query(LONG_OR)) == expected


@pytest.mark.parametrize("mode", ["standard", "rbf"])
def test_cli_query_scores_long_or(capsys, tmp_path, mode):
    corpus = Corpus()
    corpus.add(build_document("d1", STEMS))
    corpus.add(build_document("d2", ["n", "z"]))
    path = tmp_path / "corpus.tsv"
    save_corpus(corpus, path)
    code = main(["query", str(path), LONG_OR, "--mode", mode])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert [line.split("\t")[1] for line in captured.out.splitlines()] == ["d1"]
