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
min(k, longest segment), an index into the kernel's table of values.
Digit d always stands for ``at(d)``, whatever the run.  The digits are
stored in the smallest unsigned dtype that holds top + 1 (uint8 for every
k below 255), and that dtype's largest value, never a table index, means
"outside the segment".  A block's segments are written into one row of
digits with kf' outside digits before, between and after them (kf' =
min(kf, longest)), so no window reaches across a segment edge.  The row
needs no cut of its own: ``proxcore._similarities`` bounds a run's count
times its longest segment by ``proxcore.RUN_POSITIONS``, so a row of wide
windows between many short segments stays short too.  A window's key is
the bytes of its 2*kf' + 1 digits, its centre set to the outside digit.
Documents repeat the same few windows over and over, so each key's boost
is memoised per window geometry (kernel shape, k, digit dtype,
multiplier) in a process-wide dict, which is cleared when its entries
reach a fixed number of bytes (about 2 MB).  The memo is exact: a key is
its window's digits, so it fixes the window's table values, and its
length fixes the window's width.  A key missing from the memo is read
back digit by digit, the outside digits are dropped, and the rest give
exactly the tuple the scalar path builds, summed by the same
``window_boost``; the same tuple always gives the same float.  So
memoised and fresh boosts are bit-identical, and values on the band edge
cannot flip, whatever block a window is scored in.  An all-zero window's
boost is exactly 0.0, so such windows are not looked up at all, and a
document whose query fails ``has_terms`` is not profiled.
``window_stats`` adds left to right, as the builtin ``sum()`` does only
before Python 3.12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, itemgetter

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

# The window memo holds entries of at most this many bytes, over all
# geometries; it is cleared when a lookup would take it past that.  An
# entry is charged its key's length plus _ENTRY_BYTES for the bytes
# object's header, the float and the dict slot (about 87-94 bytes measured
# on CPython 3.11, for 11- and 401-byte keys).  So the memo holds 18,893
# keys of a k=5, kf=5 window (11 bytes), more than the 5,007 distinct
# windows of C5 (600 documents, seed 7) at the CLI's defaults, and 4,185
# keys of a kf=200 window (401 bytes), about 2 MB of either.
_WINDOW_CACHE_SIZE = 2 << 20
_ENTRY_BYTES = 100

# window geometry (kernel shape, k, digit dtype, threshold_scale) -> key -> boost;
# a plain dict, since itemgetter looks keys up in a subclass about half as fast
_WINDOWS: dict[tuple, dict] = {}
# window geometry -> the bytes charged for its memo's entries, reset when the memo is made
_CHARGED: dict[tuple, int] = {}


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
    ``searchsorted`` for their distance digits (``_segment_digits``), and
    their digits go into one row with kf' "outside" digits before, between
    and after them, so that no window reaches across a segment edge.  A
    window whose values are all 0 has mu = sigma = 0 and a boost of exactly
    0.0, so only the windows holding a nonzero value besides their centre's
    are looked up in the window memo; the others keep their 0.0.
    """
    digits, table, lengths = _segment_digits(segments, cfg.kernel)
    base = table[digits]
    # every window is clipped to its segment, so any kf >= n gives the same
    # windows; capping it keeps the row as short as ``proxcore.RUN_POSITIONS``
    # allows and the index sums inside int64
    kf = min(cfg.kf, max(lengths))
    dtype = np.min_scalar_type(len(table))
    geometry = (cfg.kernel.shape, cfg.kernel.k, dtype, cfg.threshold_scale)
    outside = (1 << 8 * dtype.itemsize) - 1  # the dtype's largest value
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
    padded = np.full(len(digits) + (len(lengths) + 1) * kf, outside, dtype=dtype)
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
    # windows[w] is padded[w : w + 2kf + 1], as a read-only view; the wanted
    # ones are copied out, their centres masked, and each row's bytes are its key
    width = 2 * kf + 1
    windows = np.ndarray((count, width), dtype, padded, strides=padded.strides * 2)
    windows.flags.writeable = False
    keys = windows[live if lone else centres[live]]
    keys[:, kf] = outside
    keys = keys.view(f"V{width * keys.itemsize}").ravel().tolist()
    boosts = np.zeros(len(digits), dtype=np.float64)
    boosts[live] = _window_boosts(keys, geometry, table)
    # elementwise float64 addition and min round exactly like the scalar forms
    raw = np.add(base, boosts, out=boosts)
    return np.minimum(raw, 1.0, out=raw) if cfg.clamp_output else raw


def rbf_term_profile(doc: PositionalDocument, term: str, cfg: RbfConfig) -> np.ndarray:
    """rbf_local_relevance of ``term`` at every position, as one array."""
    if not _occurs(doc, term):
        return np.zeros(doc.n, dtype=np.float64)
    return _rbf_term_profiles([(doc, term)], cfg)


def _window_boosts(keys: list[bytes], geometry: tuple, table: np.ndarray):
    """``window_boost`` of each key's window, from the memo.

    A key missing from the memo is read back as its digits, and its
    neighbours' table values, outside digits dropped, are exactly the tuple
    the scalar path builds; ``window_boost`` sums it, so a memoised boost is
    the same float as a fresh one.  The memo is cleared whenever adding
    this call's new keys would take its bytes past the cap.
    """
    if not keys:
        return []
    memo = _WINDOWS.get(geometry)
    if memo is None:
        memo = _WINDOWS[geometry] = {}
        _CHARGED[geometry] = 0
    # one C loop over the keys; it gives a float for one key, a tuple for more
    lookup = itemgetter(*keys)
    try:
        return lookup(memo)
    except KeyError:
        pass
    entry = len(keys[0]) + _ENTRY_BYTES  # a call's windows all have one width
    missing = set(keys).difference(memo)
    if sum(map(_CHARGED.__getitem__, _WINDOWS)) + entry * len(missing) > _WINDOW_CACHE_SIZE:
        _WINDOWS.clear()
        memo = _WINDOWS[geometry] = {}
        missing = set(keys)
        _CHARGED[geometry] = 0
    _CHARGED[geometry] += entry * len(missing)
    dtype, threshold_scale = geometry[2], geometry[3]
    outside = (1 << 8 * dtype.itemsize) - 1
    values = table.tolist()
    for key in missing:
        digits = memoryview(key).cast(dtype.char)
        memo[key] = window_boost(tuple(values[d] for d in digits if d != outside), threshold_scale)
    return lookup(memo)


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
