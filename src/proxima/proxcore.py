"""Fuzzy positional proximity: influence kernels, local relevance, NEAR, scoring.

An occurrence of a term spreads influence to nearby positions through a
bounded symmetric kernel.  The local relevance of a term at position x is
the strongest influence any of its occurrences exerts there; queries combine
those per-position values with min (AND), max (OR) and a width-narrowed min
(NEAR).  A document's score is the positional sum over 0..N-1, and its
similarity is that sum divided by N, which keeps it in [0, 1].

Profiles are built for a block of (document, stem) segments at a time
(``_term_profiles``; ``term_profile`` is a block of one segment).  One
body, ``_fold``, folds a query over a run of documents laid end to end,
profiling each leaf in the documents that hold it as the fold reads it:
``similarity`` and ``query_profile`` fold a run of one document, and
``_similarities`` scores many, as a classification pass or a ``proxima
query`` does, with the same floats.  It is the one place that cuts
documents into runs: at most ``RUN_POSITIONS`` positions per run, counted
as if each of its documents were as long as its longest.

In standard mode, ``_fold`` reads every OR of two same-width leaves as
one class leaf of their stems (``query_plan(node, merged=True)``), so a
category's OR of descriptors is profiled once.  Every kernel table is
non-increasing and OR is a max, so the class leaf picks the same table
entry as the max: the floats are the same by construction.  rbf leaves
carry window boosts, so rbf scoring, like the scalar oracles
``eval_query_at`` and ``rbf_eval_query_at``, folds the plan as written.

The kernels themselves (``InfluenceKernel``, ``KERNEL_SHAPES``) are defined
in ``kernels``, without numpy, and re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from functools import lru_cache

import numpy as np

from .kernels import KERNEL_SHAPES, InfluenceKernel, check_width
from .posindex import PositionalDocument, positions_of
from .querylang import And, Or, QueryNode, query_plan

__all__ = [
    "KERNEL_SHAPES",
    "InfluenceKernel",
    "local_relevance",
    "term_profile",
    "near_doc_relevance",
    "near_boolean",
    "fold_query",
    "has_terms",
    "eval_query_at",
    "query_profile",
    "score",
    "similarity",
]

# ``_similarities`` cuts the documents it scores into runs of count documents
# with count * longest <= RUN_POSITIONS (a document that breaks the bound
# alone is a run of its own).  That one bound keeps a run's largest array
# small: the number line of ``_segment_digits``, which puts segments at most
# ``longest`` apart and which the rbf row reuses, is at most about
# 2 * RUN_POSITIONS + longest long.  A fold holds a few rows over its run at
# a time, whatever the number of
# leaves.  Larger runs make fewer profile calls per leaf.  On the three
# benchmark workloads' corpora (2-core VM, Python 3.11.7, numpy 2.4.6), runs
# of 2**13 positions scored 1.2x to 2.5x as fast as 2**9, and 2**14 and
# 2**15 no faster; a C5 `evaluate` pass's traced peak was 0.4-0.6 MB,
# against 0.03-0.05 MB at 2**9 and 1.4 MB at 2**15.  (Those runs were bounded
# by their summed positions; the documents of those corpora are near-uniform
# in length, so both rules cut nearly the same runs.)
RUN_POSITIONS = 1 << 13

# a block of (document, stem) pairs to profile, laid end to end; each stem occurs in its document
_Segments = list[tuple[PositionalDocument, "str | tuple[str, ...]"]]


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


def _segment_digits(
    segments: _Segments, kernel: InfluenceKernel, reach: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each segment's distances to its stem's nearest occurrence, clipped to top = min(k, longest).

    A segment is a (document, stem) pair whose stem occurs in the document.
    This is the one place that lays a block's segments out: in order on
    one number line, the first at 0, with gap = max(top, min(reach,
    longest)) empty positions before, between and after them.  Returns
    those digits, the kernel's table at 0..top, so that ``table[digits]`` is
    each segment's local relevance, each segment position's place on the
    line (int64) and the gap.  One ``searchsorted`` serves every segment,
    and clipping is exact (README's determinism notes).  ``reach`` widens
    the gaps for the rbf row, whose windows reach min(reach, longest)
    positions to each side.  ``top`` is taken in Python, so any k works.

    A class's occurrences are its members' lists joined end to end, not
    merged per segment (``positions_of``); once every segment is on the
    line, one sort of the whole array puts them in order.  Each segment
    has its own stretch of the line and a document's positions are
    distinct, so the sorted array is the one the merged lists give.
    """
    lengths = [doc.n for doc, _ in segments]
    longest, total, count = max(lengths), sum(lengths), len(segments)
    top = min(kernel.k, longest)
    gap = max(top, min(reach, longest))
    bounds = [-gap - 1]
    found: list[int] = []  # each segment's number of occurrences
    classes = False
    for doc, stem in segments:
        inverted = doc.inverted
        start = len(bounds)
        if isinstance(stem, str):
            bounds += inverted[stem]
        else:
            classes = True
            for member in stem:
                bounds += inverted.get(member, ())
        found.append(len(bounds) - start)
    bounds.append(total + count * gap)
    bounds = np.array(bounds, dtype=np.int64)
    xs = np.arange(total, dtype=np.int64)
    if count > 1:
        # segment s moves s * gap along the line, past the gaps before it
        xs += np.arange(0, count * gap, gap).repeat(lengths)
        # and its occurrences move with its first position
        firsts = xs[list(accumulate(lengths[:-1], initial=0))]
        bounds[1:-1] += firsts.repeat(found)
    if classes:
        bounds.sort()
    # each position's distance to the bounds on either side, worked out in
    # place, since a block's arrays are its largest
    after = bounds.searchsorted(xs)
    distance = bounds[after - 1]
    np.subtract(xs, distance, out=distance)
    after = bounds[after]
    np.subtract(after, xs, out=after)
    np.minimum(distance, after, out=distance)
    np.minimum(distance, top, out=distance)
    return distance, _kernel_table(kernel.shape, kernel.k, top + 1), xs, gap


def _term_profiles(segments: _Segments, kernel: InfluenceKernel) -> np.ndarray:
    """``term_profile`` of each (document, stem) segment, laid end to end in one array.

    Every stem must occur in its document.  Each value is gathered from the
    table of ``kernel.at``, so it is bit-identical to ``local_relevance`` by
    construction.
    """
    digits, table, _, _ = _segment_digits(segments, kernel)
    return table[digits]


def term_profile(doc: PositionalDocument, term: str, kernel: InfluenceKernel) -> np.ndarray:
    """local_relevance of ``term`` at every in-document position, as one array."""
    if not _occurs(doc, term):
        return np.zeros(doc.n, dtype=np.float64)
    return _term_profiles([(doc, term)], kernel)


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


def fold_query(node: QueryNode, leaf, settings, merged: bool = False):
    """A query's relevance from its terms' ``leaf(stem, settings)``, folded over its plan.

    Both sides of a NEAR/k get ``settings.with_width(k)`` instead (a kernel or
    an RBF config).  AND and NEAR combine with ``np.minimum``, OR with
    ``np.maximum``; both are exact, so scalar and array leaves go through the
    same fold.  A leaf may return None for a value that is exactly 0
    everywhere: relevance is never negative, so an AND with such a side is
    None too and an OR takes its other side, and the fold returns None when
    the whole query is 0.  The plan is a flat list, so any query depth works.
    ``merged`` folds ``query_plan(node, merged=True)``, which is exact only
    for the standard leaf (see ``query_plan``).
    """
    minimum, maximum = np.minimum, np.maximum
    values: list = []
    for step in query_plan(node, merged):
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
    return stem in inverted if isinstance(stem, str) else not inverted.keys().isdisjoint(stem)


def has_terms(doc: PositionalDocument, node: QueryNode) -> bool:
    """Whether the query holds in ``doc`` as a boolean over term presence alone.

    A term needs an occurrence (a class, one of its members), AND and NEAR
    need both sides, OR needs either side.  When the answer is False, every
    nonzero value would need an absent term, so the relevance is 0 everywhere.
    An empty document holds no term, so it fails every query.
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


def _fold(docs: list[PositionalDocument], node: QueryNode, profiles, settings) -> np.ndarray:
    """``fold_query`` over the documents laid end to end, as one array; zeros where the query is 0.

    Each leaf is one ``profiles(segments, settings)`` call (``_term_profiles``
    or ``rbfwin._rbf_term_profiles``) over the documents that hold its
    stem, made when the fold reads the leaf.  Those values are the leaf's
    row when every document holds the stem; otherwise they are scattered
    into a row of exact zeros, which fold as an absent term does: ``min(0,
    x) = 0`` and ``max(0, x) = x``.  A leaf no document holds is None.  So
    each document's slice holds the floats of folding it alone, and the
    fold holds only the rows it has not yet combined, whatever the
    number of leaves.  With ``_term_profiles`` it folds the merged plan
    (see the module docstring); rbf profiles fold the plan as written.
    """

    def leaf(stem, settings):
        # a loop, not a comprehension, which costs a call per leaf before Python 3.12
        segments = []
        holds = []
        for doc in docs:
            held = _occurs(doc, stem)
            holds.append(held)
            if held:
                segments.append((doc, stem))
        if not segments:
            return None
        values = profiles(segments, settings)
        if len(segments) == len(docs):
            return values
        # each holder's values go to its own place in the run
        row = np.zeros(sum(doc.n for doc in docs), dtype=np.float64)
        row[np.repeat(holds, [doc.n for doc in docs])] = values
        return row

    values = fold_query(node, leaf, settings, merged=profiles is _term_profiles)
    return np.zeros(sum(doc.n for doc in docs), dtype=np.float64) if values is None else values


def _similarities(docs: list[PositionalDocument], node: QueryNode, profiles, settings) -> list[float]:
    """Each document's similarity to the query, one ``_fold`` per run of the documents that can score.

    Documents that fail ``has_terms`` score exactly 0, unprofiled.  The
    others are cut, in order, into runs: a run takes the next document
    while (count + 1) * max(longest, n) <= ``RUN_POSITIONS``, so a document
    that breaks the bound alone is a run of its own.  Each run is one
    ``_fold``, and each of its documents scores the sum of its own slice
    over n.  A contiguous slice sums pairwise in the same order as the same
    values in an array of their own, so a document gets the same float in
    any run as alone.
    """
    scores = [0.0] * len(docs)
    runs: list[list[int]] = []
    longest = 0
    for d, doc in enumerate(docs):
        if not has_terms(doc, node):
            continue
        if runs and (len(runs[-1]) + 1) * max(longest, doc.n) <= RUN_POSITIONS:
            runs[-1].append(d)
            longest = max(longest, doc.n)
        else:
            runs.append([d])
            longest = doc.n
    for run in runs:
        folded = _fold([docs[d] for d in run], node, profiles, settings)
        start = 0
        for d in run:
            n = docs[d].n
            scores[d] = float(folded[start : start + n].sum()) / n
            start += n
    return scores


def eval_query_at(doc: PositionalDocument, node: QueryNode, x: int, kernel: InfluenceKernel) -> float:
    """Positional relevance of a query tree at position x (which may lie outside the document).

    AND is min, OR is max; NEAR/k' is min over its two terms evaluated with
    the same kernel shape narrowed to width k'.
    """
    return float(fold_query(node, lambda stem, kernel: local_relevance(doc, stem, x, kernel), kernel))


def query_profile(doc: PositionalDocument, node: QueryNode, kernel: InfluenceKernel) -> np.ndarray:
    """eval_query_at over all in-document positions, as one array."""
    return _fold([doc], node, _term_profiles, kernel)


def score(doc: PositionalDocument, node: QueryNode, kernel: InfluenceKernel) -> float:
    """Sum of the query's positional relevance over positions 0..N-1."""
    return float(query_profile(doc, node, kernel).sum())


def _similarity(doc: PositionalDocument, node: QueryNode, profiles, settings) -> float:
    """The positional sum of ``_fold`` of this one document over N.

    Both modes' similarities are this body with their own profiles.  A
    document that fails ``has_terms`` scores exactly 0, unprofiled, as in
    ``_similarities``, which it equals for a run of this one document.
    """
    if not has_terms(doc, node):
        return 0.0
    return float(_fold([doc], node, profiles, settings).sum()) / doc.n


def similarity(doc: PositionalDocument, node: QueryNode, kernel: InfluenceKernel) -> float:
    """Length-normalized score in [0, 1], with ``term_profile`` as the leaf."""
    return _similarity(doc, node, _term_profiles, kernel)
