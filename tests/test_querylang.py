"""Query parser and renderer tests."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from proxima.querylang import (
    MAX_NESTING,
    And,
    Near,
    Or,
    QueryParseError,
    Term,
    parse_query,
    query_plan,
    render_query,
)
from proxima.textprep import stem_to_fixpoint


class TestParsing:
    def test_near_with_width(self):
        assert parse_query("A NEAR/7 B") == Near(7, Term("A"), Term("B"))

    def test_precedence_and_binds_tighter_than_or(self):
        assert parse_query("A AND B OR C") == Or(And(Term("A"), Term("B")), Term("C"))
        assert parse_query("a OR b AND c") == Or(Term("a"), And(Term("b"), Term("c")))

    def test_near_binds_tightest(self):
        assert parse_query("a AND b NEAR/3 c") == And(Term("a"), Near(3, Term("b"), Term("c")))

    def test_left_associative(self):
        assert parse_query("a AND b AND c") == And(And(Term("a"), Term("b")), Term("c"))
        assert parse_query("a OR b OR c") == Or(Or(Term("a"), Term("b")), Term("c"))

    def test_parentheses_override(self):
        assert parse_query("a AND (b OR c)") == And(Term("a"), Or(Term("b"), Term("c")))

    def test_keywords_case_insensitive(self):
        assert parse_query("a and b or c near/2 d") == Or(
            And(Term("a"), Term("b")), Near(2, Term("c"), Term("d"))
        )

    def test_terms_are_stemmed(self):
        assert parse_query("الكتاب") == Term("كتاب")
        assert parse_query("أحمد NEAR/5 الكبير") == Near(5, Term("احمد"), Term("كبير"))

    def test_stop_words_are_kept(self):
        # unlike document preprocessing, an explicit query term is honored
        assert parse_query("في") == Term("في")

    def test_nearby_is_a_term_not_an_operator(self):
        assert parse_query("nearby") == Term("nearby")


class TestParseErrors:
    def test_near_width_zero(self):
        with pytest.raises(QueryParseError, match=">= 1"):
            parse_query("A NEAR/0 B")

    def test_near_without_width(self):
        with pytest.raises(QueryParseError, match="integer width"):
            parse_query("A NEAR B")

    def test_near_bad_width(self):
        with pytest.raises(QueryParseError, match="integer width"):
            parse_query("A NEAR/x B")

    def test_near_non_term_operand(self):
        with pytest.raises(QueryParseError, match="plain terms"):
            parse_query("(a AND b) NEAR/3 c")

    def test_unbalanced_parens(self):
        with pytest.raises(QueryParseError, match="[Pp]arenthes|expected"):
            parse_query("(a AND b")
        with pytest.raises(QueryParseError, match="unexpected"):
            parse_query("a AND b)")

    def test_empty_query(self):
        with pytest.raises(QueryParseError, match="empty"):
            parse_query("")
        with pytest.raises(QueryParseError, match="empty"):
            parse_query("   ")

    def test_juxtaposed_terms(self):
        with pytest.raises(QueryParseError, match="unexpected"):
            parse_query("a b")

    def test_error_carries_column(self):
        with pytest.raises(QueryParseError) as err:
            parse_query("abc NEAR/0 d")
        assert err.value.column == 5
        assert "column 5" in str(err.value)

    def test_dangling_operator(self):
        with pytest.raises(QueryParseError):
            parse_query("a AND")
        with pytest.raises(QueryParseError):
            parse_query("OR a")

    def test_nesting_up_to_the_limit_parses(self):
        assert parse_query("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == Term("a")
        assert parse_query("(a) AND " * MAX_NESTING + "(b)").right == Term("b")

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 300, 1000])
    def test_nesting_past_the_limit_raises_with_column(self, depth):
        with pytest.raises(QueryParseError, match="nested") as err:
            parse_query("x AND " + "(" * depth + "a" + ")" * depth)
        assert err.value.column == len("x AND ") + MAX_NESTING + 1


class TestMergedPlan:
    def test_an_or_of_leaves_is_one_class_leaf(self):
        # nested and repeated stems merge into one sorted, deduplicated class
        node = Or(Or(Term("c"), Term(("a", "b"))), Or(Term("a"), Term("c")))
        assert query_plan(node, merged=True) == ((("a", "b", "c"), None),)
        assert query_plan(Or(Term("a"), Term("a")), merged=True) == (("a", None),)

    def test_and_near_and_mixed_ors_stay(self):
        node = parse_query("(a AND b) OR (c NEAR/2 d) OR e")
        assert query_plan(node, merged=True) == query_plan(node)
        node = parse_query("(a OR b) AND (c NEAR/2 d)")
        assert query_plan(node, merged=True) == (
            (("a", "b"), None), ("c", 2), ("d", 2), And, And
        )

    def test_a_long_or_merges_in_any_shape(self):
        stems = [f"w{i:04d}" for i in range(3000)]
        left = parse_query(" OR ".join(stems))
        right = Term(stems[-1])
        for stem in reversed(stems[:-1]):
            right = Or(Term(stem), right)
        for node in (left, right):
            assert query_plan(node, merged=True) == ((tuple(stems), None),)


class TestRender:
    def test_basic_forms(self):
        assert render_query(Term("x")) == "x"
        assert render_query(Near(7, Term("A"), Term("B"))) == "(A NEAR/7 B)"
        assert render_query(Or(And(Term("a"), Term("b")), Term("c"))) == "((a AND b) OR c)"


# random ASTs built from stems that survive the parse-time pipeline unchanged
_safe_stems = st.sampled_from(["كتاب", "قلم", "بيت", "علم", "drill", "quartz", "jazz"])


def _ast_strategy():
    terms = st.builds(Term, _safe_stems)
    return st.recursive(
        terms,
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Near, st.integers(min_value=1, max_value=50), terms, terms),
        ),
        max_leaves=12,
    )


class TestRoundTrip:
    @given(_ast_strategy())
    def test_parse_render_identity(self, ast):
        assert parse_query(render_query(ast)) == ast

    @given(st.text(alphabet="والكتبمنسيه", min_size=1, max_size=8))
    def test_parsed_terms_are_pipeline_fixed_points(self, word):
        try:
            node = parse_query(word)
        except QueryParseError:
            return  # words that normalize to nothing are rejected
        assert isinstance(node, Term)
        assert stem_to_fixpoint(node.stem) == node.stem

    def test_roundtrip_500_random_asts(self):
        import random

        rng = random.Random(500)
        stems = ["كتاب", "قلم", "بيت", "علم", "باب", "nile", "delta"]

        def gen(depth):
            if depth == 0 or rng.random() < 0.4:
                return Term(rng.choice(stems))
            kind = rng.choice(["and", "or", "near"])
            if kind == "near":
                return Near(rng.randint(1, 30), Term(rng.choice(stems)), Term(rng.choice(stems)))
            node = And if kind == "and" else Or
            return node(gen(depth - 1), gen(depth - 1))

        for _ in range(500):
            ast = gen(4)
            assert parse_query(render_query(ast)) == ast
