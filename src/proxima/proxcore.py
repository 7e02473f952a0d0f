"""Fuzzy positional proximity: influence kernels, local relevance, NEAR, scoring.

An occurrence of a term spreads influence to nearby positions through a
bounded symmetric kernel.  The local relevance of a term at position x is
the strongest influence any of its occurrences exerts there; queries combine
those per-position values with min (AND), max (OR) and a width-narrowed min
(NEAR).  A document's score is the positional sum over 0..N-1, and its
similarity is that sum divided by N, which keeps it in [0, 1].
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .posindex import PositionalDocument, positions_of
from .querylang import And, Or, QueryNode, check_width, query_plan

__all__ = [
    "KERNEL_SHAPES",
    "InfluenceKernel",
    "local_relevance",
    "term_profile",
    "near_doc_relevance",
    "near_boolean",
    "fold_query",
    "has_terms",
    "present_profile",
    "eval_query_at",
    "query_profile",
    "score",
    "similarity",
]

KERNEL_SHAPES = ("triangular", "rectangular", "gaussian", "hanning")


@dataclass(frozen=True)
class InfluenceKernel:
    """Symmetric influence function with bounded support (zero for |x| >= k).

    All shapes peak at 1 for offset 0 and decay monotonically with distance;
    the gaussian uses sigma = k/3 and is truncated to keep the support bounded.
    """

    shape: str = "triangular"
    k: int = 5

    def __post_init__(self):
        if self.shape not in KERNEL_SHAPES:
            raise ValueError(f"unknown kernel shape {self.shape!r}, expected one of {KERNEL_SHAPES}")
        check_width(self.k, "kernel width")

    def with_width(self, k: int) -> "InfluenceKernel":
        return InfluenceKernel(self.shape, k)

    def at(self, offset) -> float:
        """Kernel value at one offset.

        Scalar math is the single source of truth for kernel values: the
        semantic-neighborhood filter downstream compares values that can sit
        exactly on its band boundary, so every code path must produce
        bit-identical numbers.
        """
        d = abs(float(offset))
        k = float(self.k)
        if self.shape == "triangular":
            return max((k - d) / k, 0.0)
        if d >= k:
            return 0.0
        if self.shape == "rectangular":
            return 1.0
        if self.shape == "hanning":
            return 0.5 * (1.0 + math.cos(math.pi * d / k))
        sigma = k / 3.0
        return math.exp(-(d * d) / (2.0 * sigma * sigma))


# kernel instances are rebuilt per document and per NEAR, so tables are keyed
# on the kernel's parameters rather than on the instance
@lru_cache(maxsize=256)
def _kernel_table(shape: str, k: int, length: int) -> np.ndarray:
    """``[at(d) for d in range(length)]`` for the kernel (shape, k), read-only."""
    kernel = InfluenceKernel(shape, k)
    table = np.array([kernel.at(d) for d in range(length)], dtype=np.float64)
    table.flags.writeable = False
    return table


def _nearest_distance(positions: list[int], x: int) -> int | None:
    """Distance from x to the nearest of the sorted ``positions`` (None if empty)."""
    if not positions:
        return None
    i = bisect_left(positions, x)
    best = None
    if i < len(positions):
        best = positions[i] - x
    if i > 0:
        left = x - positions[i - 1]
        best = left if best is None else min(best, left)
    return best


def local_relevance(doc: PositionalDocument, term: str, x: int, kernel: InfluenceKernel) -> float:
    """Strongest influence any occurrence of ``term`` exerts at position x.

    Equals the kernel value at the nearest occurrence because all shapes are
    non-increasing in distance.  x may lie outside the document; absent terms
    give 0 everywhere.
    """
    distance = _nearest_distance(positions_of(doc, term), x)
    return 0.0 if distance is None else kernel.at(distance)


def _distance_digits(
    doc: PositionalDocument, term: str, kernel: InfluenceKernel
) -> tuple[np.ndarray, np.ndarray] | None:
    """Each position's distance to the nearest occurrence of ``term``, clipped to top = min(k, n).

    Returns those digits and the kernel's table at 0..top, so that
    ``table[digits]`` is the term's local relevance at every position; None
    when the term does not occur.  Clipping is exact: every shape is 0 at k
    and beyond, and no distance inside the document reaches n.  ``top`` is
    taken in Python, so any k works.
    """
    n = doc.n
    occurrences = positions_of(doc, term)
    if n == 0 or not occurrences:
        return None
    top = min(kernel.k, n)
    # a bound at -n and one at 2n lie at least n from every position, so every
    # position has an occurrence or a bound on each side
    bounds = np.array([-n, *occurrences, 2 * n], dtype=np.int64)
    xs = np.arange(n, dtype=np.int64)
    after = np.searchsorted(bounds, xs)
    distance = np.minimum(xs - bounds[after - 1], bounds[after] - xs)
    return np.minimum(distance, top, out=distance), _kernel_table(kernel.shape, kernel.k, top + 1)


def term_profile(doc: PositionalDocument, term: str, kernel: InfluenceKernel) -> np.ndarray:
    """local_relevance of ``term`` at every in-document position, as one array.

    Each value is gathered from the table of ``kernel.at``, so it is
    bit-identical to ``local_relevance`` by construction.
    """
    found = _distance_digits(doc, term, kernel)
    if found is None:
        return np.zeros(doc.n, dtype=np.float64)
    digits, table = found
    return table[digits]


def _min_gap(doc: PositionalDocument, term_a: str, term_b: str) -> int | None:
    """Smallest |i - j| over occurrence pairs of the two terms (None if either is absent)."""
    pa = positions_of(doc, term_a)
    pb = positions_of(doc, term_b)
    if not pa or not pb:
        return None
    if len(pa) > len(pb):
        pa, pb = pb, pa
    best: int | None = None
    for i in pa:
        d = _nearest_distance(pb, i)
        if best is None or d < best:
            best = d
    return best


def near_doc_relevance(doc: PositionalDocument, term_a: str, term_b: str, k: int) -> float:
    """Document-level fuzzy NEAR: triangular falloff of the closest occurrence pair.

    Always uses the triangular form regardless of any scoring kernel.  For
    distinct terms the two occurrences cannot coincide, so the value tops
    out at (k-1)/k.
    """
    check_width(k, "NEAR width")
    gap = _min_gap(doc, term_a, term_b)
    if gap is None:
        return 0.0
    return max((k - gap) / k, 0.0)


def near_boolean(doc: PositionalDocument, term_a: str, term_b: str, k: int) -> bool:
    """Classic boolean NEAR: some occurrence pair lies strictly under k positions apart."""
    check_width(k, "NEAR width")
    gap = _min_gap(doc, term_a, term_b)
    return gap is not None and gap < k


def fold_query(node: QueryNode, leaf, settings):
    """A query's relevance from its terms' ``leaf(stem, settings)``, folded over its plan.

    Both sides of a NEAR/k get ``settings.with_width(k)`` instead (a kernel or
    an RBF config).  AND and NEAR combine with ``np.minimum``, OR with
    ``np.maximum``; both are exact, so scalar and array leaves go through the
    same fold.  A leaf may return None for a value that is exactly 0
    everywhere: relevance is never negative, so an AND with such a side is
    None too and an OR takes its other side, and the fold returns None when
    the whole query is 0.  The plan is a flat list, so any query depth works.
    """
    minimum, maximum = np.minimum, np.maximum
    values: list = []
    for step in query_plan(node):
        if step is And:
            right, left = values.pop(), values.pop()
            values.append(None if left is None or right is None else minimum(left, right))
        elif step is Or:
            right, left = values.pop(), values.pop()
            values.append(
                right if left is None else left if right is None else maximum(left, right)
            )
        else:
            stem, width = step
            values.append(leaf(stem, settings if width is None else settings.with_width(width)))
    return values.pop()


def _occurs(doc: PositionalDocument, stem: str | tuple[str, ...]) -> bool:
    """Whether ``positions_of(doc, stem)`` is non-empty, without merging a class."""
    inverted = doc.inverted
    return stem in inverted if isinstance(stem, str) else any(s in inverted for s in stem)


def has_terms(doc: PositionalDocument, node: QueryNode) -> bool:
    """Whether the query holds in ``doc`` as a boolean over term presence alone.

    A term needs an occurrence (a class, one of its members), AND and NEAR
    need both sides, OR needs either side.  When the answer is False, every
    nonzero value would need an absent term, so the relevance is 0 everywhere.
    """
    inverted = doc.inverted
    values: list = []
    for step in query_plan(node):
        if step is And:
            right = values.pop()
            values[-1] = values[-1] and right
        elif step is Or:
            right = values.pop()
            values[-1] = values[-1] or right
        else:
            # this runs for every document scored, so a plain stem skips the call
            stem = step[0]
            values.append(stem in inverted if isinstance(stem, str) else _occurs(doc, stem))
    return values.pop()


def present_profile(doc: PositionalDocument, node: QueryNode, profile, settings) -> np.ndarray:
    """``fold_query`` over ``profile(doc, stem, settings)``, with absent terms as exact zeros.

    ``profile`` must give 0 at every position for a term absent from ``doc``;
    such terms are never profiled, and a query that folds to None gets one
    array of zeros.
    """

    def leaf(stem, settings):
        return profile(doc, stem, settings) if _occurs(doc, stem) else None

    values = fold_query(node, leaf, settings)
    return np.zeros(doc.n, dtype=np.float64) if values is None else values


def eval_query_at(doc: PositionalDocument, node: QueryNode, x: int, kernel: InfluenceKernel) -> float:
    """Positional relevance of a query tree at position x (which may lie outside the document).

    AND is min, OR is max; NEAR/k' is min over its two terms evaluated with
    the same kernel shape narrowed to width k'.
    """
    return float(fold_query(node, lambda stem, kernel: local_relevance(doc, stem, x, kernel), kernel))


def query_profile(doc: PositionalDocument, node: QueryNode, kernel: InfluenceKernel) -> np.ndarray:
    """eval_query_at over all in-document positions, as one array."""
    return present_profile(doc, node, term_profile, kernel)


def score(doc: PositionalDocument, node: QueryNode, kernel: InfluenceKernel) -> float:
    """Sum of the query's positional relevance over positions 0..N-1."""
    return float(query_profile(doc, node, kernel).sum())


def _similarity(doc: PositionalDocument, node: QueryNode, profile, settings) -> float:
    """The positional sum of ``present_profile(doc, node, profile, settings)`` over N.

    Both modes' similarities are this body with their own leaf.  Empty
    documents and those that fail ``has_terms`` score exactly 0, unprofiled.
    """
    n = doc.n
    if n == 0 or not has_terms(doc, node):
        return 0.0
    return float(present_profile(doc, node, profile, settings).sum()) / n


def similarity(doc: PositionalDocument, node: QueryNode, kernel: InfluenceKernel) -> float:
    """Length-normalized score in [0, 1], with ``term_profile`` as the leaf."""
    return _similarity(doc, node, term_profile, kernel)
