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

``window_boost`` is the one scalar definition of a window's boost, and
``rbf_local_relevance``, the unmemoised oracle, sums with it.
``_rbf_term_profiles`` profiles a block of (document, stem) segments laid
out on ``proxcore._segment_digits``' number line: each window is keyed by
the bytes of its distance digits, its boost is memoised per window
geometry in a process-wide dict of about 2 MB, and a call's misses are
computed together by ``_batch_boosts``.  README's determinism notes say
why memoised, batched and scalar boosts are the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import filterfalse, repeat
from operator import add, itemgetter

import numpy as np

from . import proxcore
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
# on CPython 3.11, for 11- and 401-byte keys).
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

    Every stem must occur in its document.  A window whose values are all 0
    has a boost of exactly 0.0, so only the windows holding a nonzero value
    besides their centre's are looked up in the window memo.
    """
    digits, table, xs, gap = _segment_digits(segments, cfg.kernel, cfg.kf)
    base = table[digits]
    # every window is clipped to its segment, so any kf >= n gives the same
    # windows; kf' = min(kf, gap) = min(kf, longest) fits in every gap of the line
    kf = min(cfg.kf, gap)
    dtype = np.min_scalar_type(len(table))
    geometry = (cfg.kernel.shape, cfg.kernel.k, dtype, cfg.threshold_scale)
    outside = (1 << 8 * dtype.itemsize) - 1  # the dtype's largest value
    # the row is the line with kf outside digits added at each end, so a
    # position's digit sits at xs + kf and the window around it is windows[xs];
    # a lone segment, as when one document is scored, is one slice of the row
    lone = len(segments) == 1
    real = slice(kf, kf + len(digits)) if lone else xs + kf
    padded = np.full(int(xs[-1]) + 1 + 2 * kf, outside, dtype=dtype)
    padded[real] = digits
    centre = base != 0.0
    nonzero = np.zeros(len(padded), dtype=bool)
    nonzero[real] = centre
    # window w is the one around padded position w + kf; seen[w + 2kf + 1] - seen[w]
    # counts its nonzero values, and only the windows at xs are compared
    seen = np.zeros(len(padded) + 1, dtype=np.int64)
    np.cumsum(nonzero, out=seen[1:])
    width = 2 * kf + 1
    counts = seen[width:] - seen[:-width]
    live = np.flatnonzero((counts if lone else counts[xs]) > centre)
    del nonzero, seen, counts
    # windows[w] is padded[w : w + 2kf + 1], as a read-only view; the wanted
    # ones are copied out, their centres masked, and each row's bytes are its key
    count = len(padded) - 2 * kf
    windows = np.ndarray((count, width), dtype, padded, strides=padded.strides * 2)
    windows.flags.writeable = False
    keys = windows[live if lone else xs[live]]
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
    """``window_boost`` of each key's window, from the memo; ``_batch_boosts`` computes its misses.

    The memo is cleared whenever adding them would take its bytes past the cap.
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
    missing = set(filterfalse(memo.__contains__, keys))
    if sum(map(_CHARGED.__getitem__, _WINDOWS)) + entry * len(missing) > _WINDOW_CACHE_SIZE:
        _WINDOWS.clear()
        memo = _WINDOWS[geometry] = {}
        missing = set(keys)
        _CHARGED[geometry] = 0
    _CHARGED[geometry] += entry * len(missing)
    missing = list(missing)
    memo.update(zip(missing, _batch_boosts(missing, geometry, table)))
    return lookup(memo)


def _batch_boosts(keys: list[bytes], geometry: tuple, table: np.ndarray) -> list[float]:
    """``window_boost`` of each key's window, as the same floats, computed for all keys at once.

    Every window must hold a digit besides its outside ones.  README's
    determinism notes say why each step rounds as ``window_boost``'s does.
    """
    dtype, threshold_scale = geometry[2], geometry[3]
    outside = (1 << 8 * dtype.itemsize) - 1
    gather = np.append(table, 0.0)  # an outside digit reads +0.0
    width = len(keys[0]) // dtype.itemsize
    step = max(1, proxcore.RUN_POSITIONS // width)  # so wide windows' misses stay small
    boosts = []
    for start in range(0, len(keys), step):
        # row i holds neighbour i of every window, so reducing the rows adds
        # each window's values left to right, as window_stats does
        digits = np.frombuffer(b"".join(keys[start : start + step]), dtype).reshape(-1, width).T.copy()
        inside = digits != outside
        values = gather[np.minimum(digits, len(table))]
        n = np.count_nonzero(inside, axis=0)
        mu = reduce(add, values, 0.0) / n
        deviations = values - mu
        distances = np.abs(deviations)
        squares = np.zeros_like(values)
        # |d| ** 2.0 is what float ** 2 hands the libm pow, for any d
        wanted = distances[inside]
        squares[inside] = np.fromiter(map(math.pow, wanted.tolist(), repeat(2.0)), np.float64, len(wanted))
        sigma = np.sqrt(reduce(add, squares, 0.0) / n)
        kept = inside & (distances <= threshold_scale * sigma)
        # sigma 0 is the point mass: value * 1.0 where value == mu, else + 0.0
        point = sigma == 0.0
        terms = np.where(kept & point & (values == mu), values, 0.0)
        dense = kept & ~point
        spread = np.broadcast_to(sigma, values.shape)[dense]
        z = deviations[dense] / spread
        densities = np.fromiter(map(math.exp, (-0.5 * z * z).tolist()), np.float64, len(z))
        terms[dense] = values[dense] * (densities / (spread * _SQRT_TWO_PI))
        boosts += reduce(add, terms, 0.0).tolist()
    return boosts


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
