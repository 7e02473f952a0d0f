"""Kernel, local relevance, NEAR and query scoring tests."""

import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import _reference as ref
from proxima.posindex import build_document
from proxima.proxcore import (
    KERNEL_SHAPES,
    InfluenceKernel,
    eval_query_at,
    fold_query,
    local_relevance,
    near_boolean,
    near_doc_relevance,
    query_profile,
    score,
    similarity,
    term_profile,
)
from proxima.querylang import And, Near, Or, Term, parse_query

TRI5 = InfluenceKernel("triangular", 5)


class TestInfluenceKernel:
    def test_triangular_values(self):
        assert TRI5.at(0) == 1.0
        assert TRI5.at(5) == 0.0
        assert TRI5.at(-2) == 0.6
        assert TRI5.at(2) == pytest.approx(0.6)

    def test_rectangular_values(self):
        rect = InfluenceKernel("rectangular", 3)
        assert rect.at(0) == 1.0
        assert rect.at(2) == 1.0
        assert rect.at(3) == 0.0

    def test_hanning_values(self):
        han = InfluenceKernel("hanning", 4)
        assert han.at(0) == 1.0
        assert han.at(4) == 0.0
        assert han.at(2) == pytest.approx(0.5)

    def test_gaussian_values(self):
        gau = InfluenceKernel("gaussian", 6)
        assert gau.at(0) == 1.0
        assert gau.at(6) == 0.0  # truncated to keep support bounded
        sigma = 6 / 3
        assert gau.at(2) == pytest.approx(math.exp(-4 / (2 * sigma**2)))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_peak_is_exactly_one(self, shape):
        # rbfwin's self neighbour mode fills its windows with this constant
        for k in [*range(1, 2000), 10**9]:
            assert InfluenceKernel(shape, k).at(0) == 1.0

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_symmetry_range_and_support(self, shape):
        kernel = InfluenceKernel(shape, 7)
        for x in range(-10, 11):
            value = kernel.at(x)
            assert value == kernel.at(-x)
            assert 0.0 <= value <= 1.0
            if abs(x) >= 7:
                assert value == 0.0
        # non-increasing away from the peak
        values = [kernel.at(x) for x in range(0, 11)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            InfluenceKernel("boxcar", 5)
        with pytest.raises(ValueError, match="width"):
            InfluenceKernel("triangular", 0)

    def test_with_width(self):
        assert TRI5.with_width(9) == InfluenceKernel("triangular", 9)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_profile_is_at_bit_for_bit(self, shape):
        for k in range(1, 121):
            kernel = InfluenceKernel(shape, k)
            distances = list(range(3 * k + 3))
            assert kernel.profile(distances).tolist() == [kernel.at(d) for d in distances]
            assert kernel.profile(distances[::-1]).tolist() == [kernel.at(d) for d in distances[::-1]]
            offsets = [-d for d in distances] + distances
            assert kernel.profile(offsets).tolist() == [kernel.at(o) for o in offsets]
        # the table stops at the largest distance, so a huge width costs nothing
        huge = InfluenceKernel(shape, 10**9)
        distances = [12345, 0, 7, 1, 12345]
        assert huge.profile(distances).tolist() == [huge.at(d) for d in distances]
        assert huge.profile([-12345, 12345]).tolist() == [huge.at(12345)] * 2
        doc = build_document("d", ["a", "b", "b", "a", "b"])
        assert term_profile(doc, "b", huge).tolist() == [
            local_relevance(doc, "b", x, huge) for x in range(doc.n)
        ]

    def test_profile_rejects_non_integer_offsets(self):
        with pytest.raises(TypeError):
            TRI5.profile([0.0, 1.5])
        assert TRI5.profile([]).tolist() == []


class TestLocalRelevance:
    DOC = build_document("d", ["A", "B", "C", "A", "D"])

    def test_nearest_occurrence_wins(self):
        # occurrences of A at 0 and 3: max((5-1)/5, (5-2)/5)
        assert local_relevance(self.DOC, "A", 1, TRI5) == 0.8

    def test_absent_term_is_zero_everywhere(self):
        for x in range(-3, 8):
            assert local_relevance(self.DOC, "Z", x, TRI5) == 0.0

    def test_peak_at_occurrence(self):
        assert local_relevance(self.DOC, "A", 0, TRI5) == 1.0
        assert local_relevance(self.DOC, "A", 3, TRI5) == 1.0

    def test_positions_outside_document(self):
        # the influence of the occurrence at 0 overflows the start
        assert local_relevance(self.DOC, "A", -2, TRI5) == 0.6
        assert local_relevance(self.DOC, "D", 6, TRI5) == 0.6

    @given(
        st.lists(st.sampled_from("abc"), max_size=25),
        st.sampled_from("abc"),
        st.integers(min_value=-30, max_value=55),
        st.sampled_from(KERNEL_SHAPES),
        st.integers(min_value=1, max_value=9),
    )
    def test_matches_max_over_occurrences(self, stems, term, x, shape, k):
        doc = build_document("d", stems)
        kernel = InfluenceKernel(shape, k)
        expected = ref.local_relevance(stems, term, x, shape, k)
        assert local_relevance(doc, term, x, kernel) == pytest.approx(expected, abs=1e-12)


class TestTermProfile:
    @given(
        st.lists(st.sampled_from("abc"), max_size=25),
        st.sampled_from("abc"),
        st.sampled_from(KERNEL_SHAPES),
        st.integers(min_value=1, max_value=9),
    )
    def test_profile_equals_pointwise_relevance(self, stems, term, shape, k):
        doc = build_document("d", stems)
        kernel = InfluenceKernel(shape, k)
        profile = term_profile(doc, term, kernel)
        assert profile.shape == (len(stems),)
        pointwise = [local_relevance(doc, term, x, kernel) for x in range(len(stems))]
        np.testing.assert_allclose(profile, pointwise, atol=1e-15)


class TestNear:
    def test_gap_three_width_seven(self):
        doc = build_document("d", ["A", "X", "X", "B"])
        assert near_doc_relevance(doc, "A", "B", 7) == pytest.approx(4 / 7)
        assert near_boolean(doc, "A", "B", 7) is True

    def test_adjacent_is_maximal(self):
        doc = build_document("d", ["A", "B"])
        assert near_doc_relevance(doc, "A", "B", 7) == pytest.approx(6 / 7)

    def test_gap_at_or_beyond_width(self):
        doc = build_document("d", ["A", "X", "X", "B"])
        assert near_doc_relevance(doc, "A", "B", 3) == 0.0
        assert near_boolean(doc, "A", "B", 3) is False

    def test_absent_term(self):
        doc = build_document("d", ["A", "X"])
        assert near_doc_relevance(doc, "A", "B", 7) == 0.0
        assert near_boolean(doc, "A", "B", 7) is False
        assert near_boolean(build_document("d", []), "A", "B", 7) is False

    def test_width_validation(self):
        doc = build_document("d", ["A", "B"])
        with pytest.raises(ValueError):
            near_doc_relevance(doc, "A", "B", 0)
        with pytest.raises(ValueError):
            near_boolean(doc, "A", "B", 0)

    @given(
        st.lists(st.sampled_from("abcde"), max_size=30),
        st.sampled_from("abcde"),
        st.sampled_from("abcde"),
        st.integers(min_value=1, max_value=10),
    )
    def test_symmetry_and_boolean_agreement(self, stems, a, b, k):
        doc = build_document("d", stems)
        fuzzy = near_doc_relevance(doc, a, b, k)
        assert fuzzy == near_doc_relevance(doc, b, a, k)
        assert near_boolean(doc, a, b, k) == (fuzzy > 0.0)
        assert near_boolean(doc, a, b, k) == ref.near_boolean(stems, a, b, k)
        assert fuzzy == pytest.approx(ref.near_relevance(stems, a, b, k), abs=1e-12)

    def test_distinct_terms_cap_below_one(self):
        # adjacent occurrences are the best case: (k-1)/k
        doc = build_document("d", ["A", "B", "A", "B"])
        for k in range(1, 12):
            assert near_doc_relevance(doc, "A", "B", k) <= (k - 1) / k + 1e-15


class TestEvalQuery:
    def test_and_is_min_or_is_max(self):
        doc = build_document("d", ["A", "X", "X", "B"])
        x = 1  # mu_A(1) = 0.8, mu_B(1) = 0.6
        a, b = Term("A"), Term("B")
        assert eval_query_at(doc, a, x, TRI5) == 0.8
        assert eval_query_at(doc, b, x, TRI5) == 0.6
        assert eval_query_at(doc, And(a, b), x, TRI5) == 0.6
        assert eval_query_at(doc, Or(a, b), x, TRI5) == 0.8
        assert type(eval_query_at(doc, Or(a, b), x, TRI5)) is float

    def test_fold_visits_leaves_left_to_right_with_near_widths(self):
        calls = []

        def leaf(stem, kernel):
            calls.append((stem, kernel))
            return {"a": 0.2, "b": 0.9, "c": 0.5}[stem]

        assert fold_query(parse_query("a OR b NEAR/3 c"), leaf, TRI5) == 0.5
        assert calls == [("a", TRI5), ("b", TRI5.with_width(3)), ("c", TRI5.with_width(3))]
        with pytest.raises(TypeError, match="not a query node"):
            fold_query(And(Term("a"), "b"), leaf, TRI5)

    def test_near_uses_narrowed_kernel(self):
        doc = build_document("d", ["A", "X", "B"])
        node = Near(2, Term("A"), Term("B"))
        # at x=1 both terms sit one step away; width 2 gives (2-1)/2
        assert eval_query_at(doc, node, 1, TRI5) == 0.5
        # outside both supports
        assert eval_query_at(doc, node, 4, TRI5) == 0.0

    def test_empty_document(self):
        doc = build_document("d", [])
        node = parse_query("a AND (b OR c NEAR/3 d)")
        assert score(doc, node, TRI5) == 0.0
        assert similarity(doc, node, TRI5) == 0.0


class TestScoreAndSimilarity:
    def test_single_occurrence(self):
        doc = build_document("d", ["A"])
        assert score(doc, Term("A"), TRI5) == 1.0
        assert similarity(doc, Term("A"), TRI5) == 1.0

    def test_two_positions(self):
        doc = build_document("d", ["A", "B"])
        assert score(doc, Term("A"), TRI5) == pytest.approx(1.8)
        assert similarity(doc, Term("A"), TRI5) == pytest.approx(0.9)

    def test_absent_term(self):
        doc = build_document("d", ["A", "B"])
        assert score(doc, Term("Z"), TRI5) == 0.0
        assert similarity(doc, Term("Z"), TRI5) == 0.0


def _random_query(rng, vocabulary, depth):
    if depth == 0 or rng.random() < 0.35:
        return Term(rng.choice(vocabulary))
    kind = rng.choice(["and", "or", "near"])
    if kind == "near":
        return Near(rng.randint(1, 8), Term(rng.choice(vocabulary)), Term(rng.choice(vocabulary)))
    node = And if kind == "and" else Or
    return node(_random_query(rng, vocabulary, depth - 1), _random_query(rng, vocabulary, depth - 1))


class TestEngineAgainstReference:
    def test_score_matches_naive_reference(self):
        rng = random.Random(4242)
        vocabulary = list("abcdef")
        for _ in range(300):
            stems = [rng.choice(vocabulary) for _ in range(rng.randint(0, 40))]
            doc = build_document("d", stems)
            shape = rng.choice(KERNEL_SHAPES)
            k = rng.randint(1, 8)
            kernel = InfluenceKernel(shape, k)
            node = _random_query(rng, vocabulary, 3)
            assert score(doc, node, kernel) == pytest.approx(
                ref.score(stems, node, shape, k), abs=1e-12
            )
            assert similarity(doc, node, kernel) == pytest.approx(
                ref.similarity(stems, node, shape, k), abs=1e-12
            )

    def test_profile_matches_scalar_eval(self):
        rng = random.Random(77)
        vocabulary = list("abcd")
        for _ in range(100):
            stems = [rng.choice(vocabulary) for _ in range(rng.randint(1, 25))]
            doc = build_document("d", stems)
            kernel = InfluenceKernel(rng.choice(KERNEL_SHAPES), rng.randint(1, 7))
            node = _random_query(rng, vocabulary, 2)
            profile = query_profile(doc, node, kernel)
            pointwise = [eval_query_at(doc, node, x, kernel) for x in range(doc.n)]
            assert profile.tolist() == pointwise


class TestInvariants:
    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=19),
        st.sampled_from(KERNEL_SHAPES),
        st.integers(min_value=1, max_value=8),
    )
    def test_lattice_laws_at_fixed_position(self, stems, x, shape, k):
        doc = build_document("d", stems)
        kernel = InfluenceKernel(shape, k)
        x = x % len(stems)
        a, b, c = Term("a"), Term("b"), Term("c")

        def at(node):
            return eval_query_at(doc, node, x, kernel)

        assert at(And(a, a)) == at(a)
        assert at(Or(a, a)) == at(a)
        assert at(And(a, b)) == at(And(b, a))
        assert at(Or(a, b)) == at(Or(b, a))
        assert at(And(And(a, b), c)) == at(And(a, And(b, c)))
        assert at(Or(Or(a, b), c)) == at(Or(a, Or(b, c)))

    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=20),
        st.sampled_from(KERNEL_SHAPES),
        st.integers(min_value=1, max_value=8),
    )
    def test_similarity_in_unit_interval(self, stems, shape, k):
        doc = build_document("d", stems)
        kernel = InfluenceKernel(shape, k)
        rng = random.Random(len(stems) * 31 + k)
        node = _random_query(rng, list("abc"), 3)
        assert 0.0 <= similarity(doc, node, kernel) <= 1.0
        assert 0.0 <= score(doc, node, kernel) <= doc.n

    @given(
        st.lists(st.sampled_from("ab"), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=19),
        st.integers(min_value=1, max_value=8),
    )
    def test_extra_occurrence_never_hurts_single_term_query(self, stems, position, k):
        position = position % len(stems)
        kernel = InfluenceKernel("triangular", k)
        before = build_document("d", stems)
        swapped = list(stems)
        swapped[position] = "q"
        after = build_document("d", swapped)
        for x in range(len(stems)):
            assert eval_query_at(after, Term("q"), x, kernel) >= eval_query_at(
                before, Term("q"), x, kernel
            )
        assert similarity(after, Term("q"), kernel) >= similarity(before, Term("q"), kernel)
