"""Fuzzy positional proximity: local relevance, NEAR, query folding and scoring.

Holds the scalar oracles (``local_relevance``, ``eval_query_at``), the
one segment layout ``_segment_digits`` and its profile ``_term_profiles``,
the one fold ``_fold``, and the scorers built on it, cut by ``_runs``.
README's semantics notes say how queries are folded over blocks and runs,
and why skipped work, class leaves and blocks give the same floats.  The
kernels are defined in ``kernels``, without numpy, and re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from functools import lru_cache

import numpy as np

from .kernels import KERNEL_SHAPES, InfluenceKernel, check_width
from .posindex import PositionalDocument, positions_of
from .querylang import And, Or, QueryNode, Term, query_plan

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

# ``_runs`` cuts work into runs with count * longest <= RUN_POSITIONS, which
# bounds a run's number line; no larger power of two scored faster.
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
    longest)) empty positions before, between and after them; ``reach``
    widens the gaps for the rbf row.  Returns those digits, the kernel's
    table at 0..top, so that ``table[digits]`` is each segment's local
    relevance, each segment position's place on the line (int64) and the
    gap.  ``top`` is taken in Python, so any k works.  README's
    determinism notes say why the clipping, the one ``searchsorted`` and
    the one sort of a call's class occurrences are exact.
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
    return query_profile(doc, Term(term), kernel)


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
    """Whether ``positions_of(doc, stem)`` is non-empty: a class needs one of its members."""
    inverted = doc.inverted
    return stem in inverted if isinstance(stem, str) else not inverted.keys().isdisjoint(stem)


def has_terms(doc: PositionalDocument, node: QueryNode) -> bool:
    """Whether the query holds in ``doc`` as a boolean over which stems it holds.

    Each leaf of ``query_plan(node, merged=True)`` is decided by ``_occurs``,
    in both modes; AND and NEAR need both sides, OR either side.  When the
    answer is False, the relevance is 0 everywhere.  An empty document
    holds no stem, so it fails every query.
    """
    values: list = []
    for step in query_plan(node, merged=True):
        if step is And:
            right = values.pop()
            values[-1] = values[-1] and right
        elif step is Or:
            right = values.pop()
            values[-1] = values[-1] or right
        else:
            values.append(_occurs(doc, step[0]))
    return values.pop()


def _fold(docs: list[PositionalDocument], node: QueryNode, profiles, settings) -> np.ndarray:
    """``fold_query`` over the documents laid end to end, as one array; zeros where the query is 0.

    Each leaf is one ``profiles(segments, settings)`` call over the
    documents that hold its stem, scattered into a row of exact zeros when
    some do not; a leaf no document holds is None.  So each document's
    slice holds the floats of folding it alone (README's semantics notes).
    ``_term_profiles`` folds the merged plan, ``rbfwin._rbf_term_profiles``
    the plan as written.
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


def _runs(lengths: list[int]) -> list[slice]:
    """``lengths`` cut, in order, into slices with count * longest <= ``RUN_POSITIONS``.

    A length that breaks the bound alone is a slice of its own.  Lengths that all fit skip the
    loop, which saves a library ``classify`` call 1.4 us (2-core VM, Python 3.11.7).
    """
    if not lengths:
        return []
    if len(lengths) * max(lengths) <= RUN_POSITIONS:
        return [slice(0, len(lengths))]
    runs = []
    start = longest = 0
    for i, n in enumerate(lengths):
        if i > start and (i - start + 1) * max(longest, n) > RUN_POSITIONS:
            runs.append(slice(start, i))
            start, longest = i, 0
        longest = max(longest, n)
    runs.append(slice(start, len(lengths)))
    return runs


def _slice_means(values: np.ndarray, lengths: list[int]) -> list[float]:
    """Each consecutive slice of ``lengths``, summed, over its length: the float of the slice alone.

    A contiguous slice sums pairwise in the same order as the same values in an array of their own.
    """
    means = []
    start = 0
    for n in lengths:
        means.append(float(values[start : start + n].sum()) / n)
        start += n
    return means


def _similarities(docs: list[PositionalDocument], node: QueryNode, profiles, settings) -> list[float]:
    """Each document's similarity to the query: one ``_fold`` per run of the documents that can score.

    Documents that fail ``has_terms`` score exactly 0, unprofiled; each
    other document scores the mean of its own slice of its run's fold.
    """
    scores = [0.0] * len(docs)
    held = [d for d, doc in enumerate(docs) if has_terms(doc, node)]
    lengths = [docs[d].n for d in held]
    for run in _runs(lengths):
        folded = _fold([docs[d] for d in held[run]], node, profiles, settings)
        for d, mean in zip(held[run], _slice_means(folded, lengths[run])):
            scores[d] = mean
    return scores


def _leaf_similarities(
    docs: list[PositionalDocument], leaves: list, kernel: InfluenceKernel
) -> list[list[float]]:
    """``similarity`` of each document to each one-leaf query, as ``[doc][leaf]``.

    A pair whose document does not hold the leaf scores exactly 0; the others are segments, one
    ``_term_profiles`` call per run of them, and each scores the mean of its own slice.
    """
    scores: list[list[float]] = []
    held, segments, lengths = [], [], []  # per held pair: (its row, its column), segment, length
    for doc in docs:
        row = [0.0] * len(leaves)
        scores.append(row)
        for c, leaf in enumerate(leaves):
            if _occurs(doc, leaf):
                held.append((row, c))
                segments.append((doc, leaf))
                lengths.append(doc.n)
    for run in _runs(lengths):
        values = _term_profiles(segments[run], kernel)
        for (row, c), mean in zip(held[run], _slice_means(values, lengths[run])):
            row[c] = mean
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
