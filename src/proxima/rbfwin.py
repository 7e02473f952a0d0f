"""Sliding-window RBF boost on top of the positional relevance model.

Around each position x, the relevance values of the neighboring positions
(up to ``kf`` on each side) form a small sample with mean mu and population
standard deviation sigma.  Neighbors inside the one-sigma band (scaled by a
configurable multiplier) count as the semantic neighborhood of x; each kept
neighbor adds its value weighted by a Gaussian density centered at mu.  The
boosted relevance is the base value plus that sum, clamped to 1 by default
so downstream scoring keeps its [0, 1] range.

A neighbor's value is its relevance with respect to the focal term's own
occurrences, i.e. how deep inside the term's influence zone it sits.
The window settings, ``RbfConfig``, are defined in ``kernels``, without
numpy, and re-exported here.

A window's boost depends only on its tuple of neighbor values and the band
multiplier, and ``window_boost`` is the one function that sums it, for the
scalar ``rbf_local_relevance`` (the unmemoised oracle) and the array path
alike.  The array path is ``_rbf_term_profiles``, which profiles a block:
a list of (document, stem) segments laid end to end, such as one leaf in
the documents of a run that hold it (``proxcore._fold``), or the one
segment of ``rbf_term_profile``.  Each segment's digits come from one shared
``searchsorted`` (``proxcore._segment_digits``): a position's digit is its
distance to the nearest occurrence in its own segment, clipped to top =
min(k, longest segment), an index into the kernel's table of values.  One
more digit, top + 1, means "outside the segment".  The segments are
written into rows of digits with kf' outside digits before, between and
after them (kf' = min(kf, longest)), so no window reaches across a segment
edge; a row holds about ``_ROW_DIGITS`` digits, or one longer segment.
Each window's 2*kf' digits in radix top + 2 fill as many int64 words as
they need: its code, an int for one word and a tuple of ints for more.
Documents repeat the same few windows over and over, so each code's boost
is memoised per window geometry (kernel shape, k, radix, kf', multiplier)
in a process-wide dict, which is cleared when it reaches a fixed size.
The memo is exact: a code fixes its window of table values, a code
missing from the memo is decoded to exactly the tuple the scalar path
builds and summed by the same ``window_boost``, and the same tuple always
gives the same float.  So memoised and fresh boosts are bit-identical, and
values on the band edge cannot flip, whatever block or row a window is
scored in.  An all-zero window's boost is exactly 0.0, so such windows are
not looked up at all, and a document whose query fails ``has_terms`` is
not profiled.  ``window_stats`` adds left to right, as the builtin
``sum()`` does only before Python 3.12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from operator import add

import numpy as np

from .kernels import RbfConfig
from .posindex import PositionalDocument
from .proxcore import (
    _fold,
    _occurs,
    _segment_digits,
    _Segments,
    _similarity,
    fold_query,
    local_relevance,
)
from .querylang import QueryNode

__all__ = [
    "RbfConfig",
    "WindowStats",
    "window_neighbor_relevances",
    "window_stats",
    "gaussian_rbf",
    "semantic_neighbors",
    "window_boost",
    "rbf_local_relevance",
    "rbf_term_profile",
    "rbf_eval_query_at",
    "rbf_query_profile",
    "rbf_similarity",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# The window memo holds at most this many codes, over all geometries; it is
# cleared when a lookup would take it past that.  That is more than the
# distinct windows of any benchmark workload (about 2,250 at most).  A
# one-word entry is an int and a float.  A kf=200 window at k=5 takes 19
# words, so a full memo of those is about 4 MB.
_WINDOW_CACHE_SIZE = 4096

# window geometry (kernel shape, k, radix, kf', threshold_scale) -> code -> boost
_WINDOWS: dict[tuple, dict] = {}

# A row of digits holds segments of about this many digits in all (or one
# longer segment), so the kf "outside" digits between short segments cannot
# make it long, and its windows are copied out for coding this many digits
# at a time.  Either way a row's arrays stay small, and the Python lists of
# its live windows' codes hold at most this many.  On the three benchmark
# workloads, 2**13 and 2**16 score equally fast.
_ROW_DIGITS = 1 << 13


@dataclass(frozen=True)
class WindowStats:
    """Mean and population standard deviation of a window's relevance values."""

    mu: float = 0.0
    sigma: float = 0.0
    count: int = 0


def window_stats(values) -> WindowStats:
    """Stats of a value list; empty windows give (0, 0, 0), singletons sigma 0."""
    vs = list(values)
    n = len(vs)
    if n == 0:
        return WindowStats()
    # summed left to right: the builtin sum() compensates its rounding from
    # Python 3.12 on, which would make these floats depend on the interpreter
    mu = reduce(add, vs, 0.0) / n
    sigma = math.sqrt(reduce(add, [(v - mu) ** 2 for v in vs], 0.0) / n)
    return WindowStats(mu=mu, sigma=sigma, count=n)


def window_neighbor_relevances(
    doc: PositionalDocument, x: int, cfg: RbfConfig, term: str
) -> list[tuple[int, float]]:
    """(position, relevance of ``term``) for every window neighbor of x, boundaries clipped.

    The window spans [x-kf, x+kf] intersected with the document, excluding x
    itself.
    """
    n = doc.n
    if not 0 <= x < n:
        raise ValueError(f"position {x} outside document of length {n}")
    return [
        (i, local_relevance(doc, term, i, cfg.kernel))
        for i in range(max(0, x - cfg.kf), min(n - 1, x + cfg.kf) + 1)
        if i != x
    ]


def gaussian_rbf(value: float, stats: WindowStats) -> float:
    """Gaussian density of ``value`` under the window's (mu, sigma).

    A degenerate window (sigma 0) acts as a point mass: 1 at mu, else 0.
    """
    if stats.sigma == 0.0:
        return 1.0 if value == stats.mu else 0.0
    z = (value - stats.mu) / stats.sigma
    return math.exp(-0.5 * z * z) / (stats.sigma * _SQRT_TWO_PI)


def semantic_neighbors(
    neighbors: list[tuple[int, float]],
    stats: WindowStats,
    scale: float = 1.0,
) -> list[tuple[int, float]]:
    """Neighbors whose value lies within ``scale`` standard deviations of the mean.

    With sigma 0 the band is the single point mu, so a constant window keeps
    everything.
    """
    band = scale * stats.sigma
    return [(i, v) for i, v in neighbors if abs(v - stats.mu) <= band]


def window_boost(values: tuple[float, ...], threshold_scale: float) -> float:
    """Sum of value * gaussian_rbf(value) over the window's semantic neighborhood."""
    stats = window_stats(values)
    boost = 0.0
    for _, value in semantic_neighbors(list(enumerate(values)), stats, threshold_scale):
        boost += value * gaussian_rbf(value, stats)
    return boost


def rbf_local_relevance(doc: PositionalDocument, term: str, x: int, cfg: RbfConfig) -> float:
    """Window-boosted relevance of ``term`` at position x.

    base + the ``window_boost`` of x's window, clamped to 1 if the config asks.
    """
    base = local_relevance(doc, term, x, cfg.kernel)
    window = tuple(v for _, v in window_neighbor_relevances(doc, x, cfg, term))
    raw = base + window_boost(window, cfg.threshold_scale)
    return min(raw, 1.0) if cfg.clamp_output else raw


def _rbf_term_profiles(segments: _Segments, cfg: RbfConfig) -> np.ndarray:
    """``rbf_term_profile`` of each (document, stem) segment, laid end to end in one array.

    Every stem must occur in its document.  The segments share one
    ``searchsorted`` for their distance digits (``_segment_digits``); their
    windows are coded in rows of about ``_ROW_DIGITS`` digits
    (``_row_boosts``), usually one, and looked up in the window memo.
    """
    digits, table, lengths = _segment_digits(segments, cfg.kernel)
    base = table[digits]
    # every window is clipped to its segment, so any kf >= n gives the same
    # windows; capping it keeps the index sums inside int64
    kf = min(cfg.kf, max(lengths))
    geometry = (cfg.kernel.shape, cfg.kernel.k, len(table) + 1, kf, cfg.threshold_scale)
    boosts = np.zeros(len(digits), dtype=np.float64)
    first = at = 0
    while first < len(lengths):
        # the next segments whose digits and outside digits fit one row (at least one)
        last, size = first + 1, lengths[first]
        while last < len(lengths) and size + (last + 2 - first) * kf + lengths[last] <= _ROW_DIGITS:
            size += lengths[last]
            last += 1
        row = slice(at, at + size)
        _row_boosts(digits[row], base[row], lengths[first:last], geometry, table, boosts[row])
        first, at = last, at + size
    # elementwise float64 addition and min round exactly like the scalar forms
    raw = np.add(base, boosts, out=boosts)
    return np.minimum(raw, 1.0, out=raw) if cfg.clamp_output else raw


def _row_boosts(digits, base, lengths, geometry: tuple, table: np.ndarray, out: np.ndarray) -> None:
    """Write the window boost of each of some segments' positions into ``out`` (zeros).

    The segments' digits go into one row with kf "outside" digits before,
    between and after them, so that no window reaches across a segment
    edge.  A window whose values are all 0 has mu = sigma = 0 and a boost
    of exactly 0.0, so only the windows holding a nonzero value besides
    their centre's are looked up; the others keep their 0.0.
    """
    radix, kf = geometry[2], geometry[3]
    # ``real`` picks the segments' positions out of the row, and ``centres``
    # the windows around them.  A lone segment, as when one document is
    # scored, is one slice of the row and its windows are all the row's, so
    # it needs neither.
    lone = len(lengths) == 1
    if lone:
        real = slice(kf, kf + len(digits))
    else:
        real = np.zeros(2 * len(lengths) + 1, dtype=bool)
        real[1::2] = True
        real = real.repeat([kf, *chain.from_iterable((n, kf) for n in lengths)])
        centres = np.flatnonzero(real[kf:-kf])
    padded = np.full(len(digits) + (len(lengths) + 1) * kf, radix - 1, dtype=np.int64)
    padded[real] = digits
    nonzero = np.zeros(len(padded), dtype=bool)
    nonzero[real] = base != 0.0
    # window w is the one around padded position w + kf; seen[w + 2kf + 1] - seen[w]
    # counts its nonzero values
    seen = np.zeros(len(padded) + 1, dtype=np.int64)
    np.cumsum(nonzero, out=seen[1:])
    count = len(padded) - 2 * kf
    holds = seen[2 * kf + 1 :] - seen[:count] > nonzero[kf : kf + count]
    del nonzero, seen
    live = np.flatnonzero(holds if lone else holds[centres])
    wanted = live if lone else centres[live]
    words = [word.tolist() for word in _window_codes(padded, kf, radix, wanted)]
    codes = words[0] if len(words) == 1 else list(zip(*words))
    out[live] = _window_boosts(codes, geometry, table)


def rbf_term_profile(doc: PositionalDocument, term: str, cfg: RbfConfig) -> np.ndarray:
    """rbf_local_relevance of ``term`` at every position, as one array."""
    if not _occurs(doc, term):
        return np.zeros(doc.n, dtype=np.float64)
    return _rbf_term_profiles([(doc, term)], cfg)


@lru_cache(maxsize=64)
def _window_layout(radix: int, kf: int) -> tuple[int, list[tuple[int, int, np.ndarray]]]:
    """Digits per word, and each word's columns of the window matrix with their weights.

    A word holds as many digits as keep radix**digits - 1, its largest
    value, inside int64.  Column j of the window matrix is position
    x - kf + j; column kf is x itself and weighs 0.
    """
    per_word = 1
    while radix ** (per_word + 1) <= 2**63:
        per_word += 1
    columns = [j for j in range(2 * kf + 1) if j != kf]
    words = []
    for first in range(0, 2 * kf, per_word):
        used = columns[first : first + per_word]
        weights = [0] * (used[-1] + 1 - used[0])
        for power, column in enumerate(used):
            weights[column - used[0]] = radix**power
        words.append((used[0], used[-1] + 1, np.array(weights, dtype=np.int64)))
    return per_word, words


def _window_codes(padded: np.ndarray, kf: int, radix: int, wanted: np.ndarray) -> list[np.ndarray]:
    """The code of the window ``padded[w : w + 2*kf + 1]`` of each w in ``wanted``, one int64 array per word.

    A window's code is its 2*kf neighbours' digits in base ``radix``, the
    first neighbour lowest: a neighbour's digit is its clipped distance (an
    index into the kernel table), or radix - 1 where it falls outside its
    segment.  The digits fill as many int64 words as they need.  Equal
    codes are equal windows of table values, so a code stands for its
    window exactly.
    """
    words = _window_layout(radix, kf)[1]
    width = 2 * kf + 1
    # windows[w] is padded[w : w + width], as a read-only view
    shape, strides = (len(padded) - width + 1, width), padded.strides * 2
    windows = np.ndarray(shape, padded.dtype, padded, strides=strides)
    windows.flags.writeable = False
    if 16 * len(wanted) >= len(windows):
        # Coding every window in place reads the view with no copy, one word
        # at a time, and is the cheapest unless nearly all windows are
        # unwanted: per call it took 19 us against 34 us copying out on
        # index-arabic's documents, and 9 us against 13 us on rank-sparse's,
        # where one window in nine is wanted.
        return [(windows[:, first:last] @ weights)[wanted] for first, last, weights in words]
    # Few windows are wanted, as in a row of many short segments between
    # wide runs of outside digits: copy out only those, this many at a time,
    # so a wide window costs no more memory than a narrow one.
    step = max(1, _ROW_DIGITS // width)
    codes = [np.empty(len(wanted), dtype=np.int64) for _ in words]
    for start in range(0, len(wanted), step):
        picked = windows[wanted[start : start + step]]
        for code, (first, last, weights) in zip(codes, words):
            np.matmul(picked[:, first:last], weights, out=code[start : start + step])
    return codes


def _window_values(code, geometry: tuple, table: list[float]) -> tuple[float, ...]:
    """The window of table values that ``code`` stands for, as ``rbf_local_relevance`` builds it."""
    _, _, radix, kf, _ = geometry
    per_word = _window_layout(radix, kf)[0]
    digits: list[int] = []
    for word in (code,) if isinstance(code, int) else code:
        for _ in range(min(per_word, 2 * kf - len(digits))):
            word, digit = divmod(word, radix)
            digits.append(digit)
    return tuple(table[digit] for digit in digits if digit != radix - 1)


def _window_boosts(codes: list, geometry: tuple, table: np.ndarray) -> list[float]:
    """``window_boost`` of each code's window, from the memo.

    A code missing from the memo is decoded to exactly the tuple of values
    the scalar path builds and summed by ``window_boost``, so a memoised
    boost is the same float as a fresh one.  The memo is cleared whenever
    adding this call's new codes would take it past its cap.
    """
    memo = _WINDOWS.setdefault(geometry, {})
    try:
        return list(map(memo.__getitem__, codes))
    except KeyError:
        pass
    missing = set(codes).difference(memo)
    if sum(map(len, _WINDOWS.values())) + len(missing) > _WINDOW_CACHE_SIZE:
        _WINDOWS.clear()
        memo = _WINDOWS[geometry] = {}
        missing = set(codes)
    values = table.tolist()
    for code in missing:
        memo[code] = window_boost(_window_values(code, geometry, values), geometry[-1])
    return list(map(memo.__getitem__, codes))


def rbf_eval_query_at(doc: PositionalDocument, node: QueryNode, x: int, cfg: RbfConfig) -> float:
    """Positional query relevance with every term boosted by its window."""
    return float(fold_query(node, lambda stem, cfg: rbf_local_relevance(doc, stem, x, cfg), cfg))


def rbf_query_profile(doc: PositionalDocument, node: QueryNode, cfg: RbfConfig) -> np.ndarray:
    """rbf_eval_query_at over all positions, as one array."""
    return _fold([doc], node, _rbf_term_profiles, cfg)


def rbf_similarity(doc: PositionalDocument, node: QueryNode, cfg: RbfConfig) -> float:
    """``similarity`` with ``rbf_term_profile`` as the leaf; stays in [0, 1] while clamping is on.

    A document that fails ``has_terms`` scores exactly 0: every window of an
    absent term is all 0, so its boost is 0 too.
    """
    return _similarity(doc, node, _rbf_term_profiles, cfg)
