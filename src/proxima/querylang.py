"""Query language: terms combined with AND, OR and width-bounded NEAR.

Grammar (keywords case-insensitive, NEAR binds tightest, all left-associative):

    expr := or
    or   := and (OR and)*
    and  := near (AND near)*
    near := atom (NEAR/INT atom)?
    atom := TERM | '(' expr ')'

NEAR takes plain terms on both sides and an explicit width, e.g. ``a NEAR/7 b``.
Parentheses nest at most MAX_NESTING (100) levels deep.
Terms are folded and stemmed at parse time (to a fixed point, so a rendered
query re-parses to the same tree); stop words are deliberately not filtered
here, unlike on the document side.

Scoring folds a query's ``plan``, its post-order list of steps, rather than
the tree.  The plan is built once per query and cached on the query's root
node, so it lives exactly as long as the tree does.  So is the merged
plan that standard scoring folds, in which a category's OR tree is one
class leaf (``query_plan(node, merged=True)``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .kernels import check_width
from .textprep import LightStemmer, stem_to_fixpoint

__all__ = [
    "Term",
    "And",
    "Or",
    "Near",
    "QueryNode",
    "QueryParseError",
    "MAX_NESTING",
    "check_width",
    "parse_query",
    "query_plan",
    "render_query",
]


class _Node:
    """Base of the query node classes: each tree caches its own plan."""

    @cached_property
    def plan(self) -> tuple:
        """The query as post-order steps; see ``query_plan``."""
        steps: list = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if item is And or item is Or:
                steps.append(item)
            elif isinstance(item, Term):
                steps.append((item.stem, None))
            elif isinstance(item, Near):
                steps += ((item.left.stem, item.k), (item.right.stem, item.k), And)
            elif isinstance(item, (And, Or)):
                stack += (type(item), item.right, item.left)
            else:
                raise TypeError(f"not a query node: {item!r}")
        return tuple(steps)

    @cached_property
    def merged_plan(self) -> tuple:
        """``plan`` with every OR of two leaves of one width merged into one leaf.

        An OR whose last two values are leaves takes exactly those two, so
        merging there, as the plan is read, merges an OR tree bottom up.  A
        growing leaf's stems are a dict, the smaller folded into the larger,
        so any tree shape merges in n log n steps.
        """
        steps: list = []
        for step in self.plan:
            # a leaf is a tuple; the And and Or steps are classes
            if step is Or and type(steps[-1]) is type(steps[-2]) is tuple and steps[-1][1] == steps[-2][1]:
                (right, _), (left, width) = steps.pop(), steps.pop()
                large, small = _members(left), _members(right)
                if len(large) < len(small):
                    large, small = small, large
                large.update(small)
                steps.append((large, width))
            else:
                steps.append(step)
        if len(steps) == len(self.plan):
            return self.plan
        return tuple(
            (_class(step[0]), step[1]) if type(step) is tuple and type(step[0]) is dict else step
            for step in steps
        )


def _members(stem) -> dict:
    """A growing leaf's stems, as a dict of its own."""
    if type(stem) is dict:
        return stem
    return dict.fromkeys((stem,) if isinstance(stem, str) else stem)


def _class(members: dict) -> str | tuple[str, ...]:
    """A merged leaf's stem: its one stem, or its stems as a sorted tuple."""
    return next(iter(members)) if len(members) == 1 else tuple(sorted(members))


@dataclass(frozen=True)
class Term(_Node):
    stem: str | tuple[str, ...]  # a tuple is a class of stems (see category_query)


@dataclass(frozen=True)
class And(_Node):
    left: "QueryNode"
    right: "QueryNode"


@dataclass(frozen=True)
class Or(_Node):
    left: "QueryNode"
    right: "QueryNode"


@dataclass(frozen=True)
class Near(_Node):
    k: int
    left: Term
    right: Term


QueryNode = Union[Term, And, Or, Near]


def query_plan(node: QueryNode, merged: bool = False) -> tuple:
    """The query as a post-order tuple of steps, built on first use and cached on ``node``.

    A step is a leaf ``(stem, width)``, whose width is None for a plain term
    and k for either side of a NEAR/k, or one of the classes ``And`` and
    ``Or``, which combine the two values before it.  A NEAR/k is its two
    leaves followed by ``And``, since NEAR is a min over its narrowed terms.
    Raises TypeError for anything that is not a query tree.

    ``merged`` asks for the plan in which every OR of two leaves of one
    width is one class leaf of their stems, sorted and deduplicated.
    Folding it is exact for a leaf whose value is a non-increasing function
    of the distance to its stem's nearest occurrence, as standard
    scoring's kernel tables are: OR is a max, and the max over the leaves
    is that function at the least distance to any of their stems, the
    class leaf's value.  An rbf leaf's window boost is not such a
    function, so rbf scoring folds the plan as written.  A NEAR's leaves
    are combined by their own ``And`` first, so an OR never meets two
    leaves of different widths.
    """
    if not isinstance(node, _Node):
        raise TypeError(f"not a query node: {node!r}")
    return node.merged_plan if merged else node.plan


class QueryParseError(ValueError):
    """Parse failure; carries the 1-based column of the offending token."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


# Deepest parenthesis nesting parse_query accepts; the parser recurses four
# frames per level, so this keeps it well inside the interpreter's limit.
MAX_NESTING = 100

_WORD_RE = re.compile(r"[^\s()]+")
_NEAR_RE = re.compile(r"near(/.*)?", re.IGNORECASE)
_NEAR_WIDTH_RE = re.compile(r"near/(\d+)", re.IGNORECASE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "and", "or", "near", "term"
    text: str
    column: int
    width: int = 0  # NEAR only


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(_Token(ch, ch, i + 1))
            i += 1
            continue
        match = _WORD_RE.match(text, i)
        assert match is not None
        word = match.group()
        column = i + 1
        i = match.end()
        upper = word.upper()
        if upper == "AND":
            tokens.append(_Token("and", word, column))
        elif upper == "OR":
            tokens.append(_Token("or", word, column))
        elif _NEAR_RE.fullmatch(word):
            widths = _NEAR_WIDTH_RE.fullmatch(word)
            if widths is None:
                raise QueryParseError(
                    f"{word!r}: NEAR needs an integer width, e.g. NEAR/5", column
                )
            try:
                width = int(widths.group(1))
                check_width(width, "NEAR width")
            except ValueError as exc:
                raise QueryParseError(f"{word!r}: {exc}", column) from None
            tokens.append(_Token("near", word, column, width=width))
        else:
            tokens.append(_Token("term", word, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], stemmer: LightStemmer | None):
        self.tokens = tokens
        self.pos = 0
        self.stemmer = stemmer
        self.depth = 0  # parentheses open around the current token

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        token = self.peek()
        self.pos += 1
        return token

    def _end_column(self) -> int:
        last = self.tokens[-1]
        return last.column + len(last.text)

    def parse(self) -> QueryNode:
        if not self.tokens:
            raise QueryParseError("empty query", 1)
        node = self.parse_or()
        leftover = self.peek()
        if leftover is not None:
            raise QueryParseError(f"unexpected {leftover.text!r}", leftover.column)
        return node

    def parse_or(self) -> QueryNode:
        node = self.parse_and()
        while (token := self.peek()) is not None and token.kind == "or":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> QueryNode:
        node = self.parse_near()
        while (token := self.peek()) is not None and token.kind == "and":
            self.next()
            node = And(node, self.parse_near())
        return node

    def parse_near(self) -> QueryNode:
        left = self.parse_atom()
        token = self.peek()
        if token is not None and token.kind == "near":
            self.next()
            right = self.parse_atom()
            if not isinstance(left, Term) or not isinstance(right, Term):
                raise QueryParseError("NEAR operands must be plain terms", token.column)
            return Near(token.width, left, right)
        return left

    def parse_atom(self) -> QueryNode:
        token = self.next()
        if token is None:
            raise QueryParseError("expected a term or '('", self._end_column())
        if token.kind == "(":
            if self.depth == MAX_NESTING:
                raise QueryParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", token.column
                )
            self.depth += 1
            node = self.parse_or()
            closing = self.next()
            if closing is None or closing.kind != ")":
                raise QueryParseError(
                    "unbalanced parentheses: expected ')'",
                    closing.column if closing else self._end_column(),
                )
            self.depth -= 1
            return node
        if token.kind == "term":
            stem = stem_to_fixpoint(token.text, self.stemmer)
            if not stem:
                raise QueryParseError(
                    f"{token.text!r} normalizes to nothing", token.column
                )
            return Term(stem)
        raise QueryParseError(f"expected a term or '(', got {token.text!r}", token.column)


def parse_query(text: str, stemmer: LightStemmer | None = None) -> QueryNode:
    """Parse a query string into a tree (packaged stemmer rules by default)."""
    return _Parser(_lex(text), stemmer).parse()


def render_query(node: QueryNode) -> str:
    """Canonical fully-parenthesized form; re-parsing it restores the tree.

    Rendering walks an explicit stack, so trees of any depth render; only
    those nested at most MAX_NESTING deep parse back.
    """
    parts: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Term):
            parts.append(item.stem)
        elif isinstance(item, Near):
            parts.append(f"({item.left.stem} NEAR/{item.k} {item.right.stem})")
        elif isinstance(item, (And, Or)):
            stack += (")", item.right, " AND " if isinstance(item, And) else " OR ", item.left, "(")
        else:
            raise TypeError(f"not a query node: {item!r}")
    return "".join(parts)
