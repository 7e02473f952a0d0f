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

A window's boost depends only on its tuple of neighbor values and the band
multiplier, and ``window_boost`` is the one function that sums it, for the
scalar ``rbf_local_relevance`` (the unmemoised oracle) and the array
``rbf_term_profile`` alike.  The array path names each window by an integer
code.  A neighbor's digit is its distance to the nearest occurrence, clipped
to top = min(k, n): an index into the kernel's table of values.  One more
digit, top + 1, means "outside the document".  The 2*kf' digits (kf' =
min(kf, n)) in radix top + 2 fill as many int64 words as they need, and a
code is an int for one word and a tuple of ints for more.  Documents repeat
the same few windows over and over, so each code's boost is memoised per
window geometry (kernel shape, k, radix, kf', multiplier) in a process-wide
dict, which is cleared when it reaches a fixed size.  The memo is exact: a
code fixes its window of table values, a code missing from the memo is
decoded to exactly the tuple the scalar path builds and summed by the same
``window_boost``, and the same tuple always gives the same float.  So
memoised and fresh boosts are bit-identical, and values on the band edge
cannot flip.  An all-zero window's boost is exactly 0.0, so
``rbf_term_profile`` does not look such windows up at all, and a document
whose query fails ``has_terms`` is not profiled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .posindex import PositionalDocument
from .proxcore import (
    InfluenceKernel,
    _distance_digits,
    _similarity,
    fold_query,
    local_relevance,
    present_profile,
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

# the window codes are made for this many digits' worth of positions at a
# time, so memory stays bounded even when kf' is the document's length
_BLOCK_DIGITS = 1 << 20


@dataclass(frozen=True)
class RbfConfig:
    """Window size, base kernel and thresholding for the RBF boost."""

    kernel: InfluenceKernel
    kf: int = 5
    threshold_scale: float = 1.0
    clamp_output: bool = True

    def __post_init__(self):
        if self.kf < 1:
            raise ValueError(f"window size kf must be >= 1, got {self.kf}")
        if not (math.isfinite(self.threshold_scale) and self.threshold_scale >= 0.0):
            raise ValueError(f"threshold_scale must be finite and >= 0, got {self.threshold_scale}")

    def with_width(self, k: int) -> "RbfConfig":
        return replace(self, kernel=self.kernel.with_width(k))


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
    mu = sum(vs) / n
    sigma = math.sqrt(sum((v - mu) ** 2 for v in vs) / n)
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


def rbf_term_profile(doc: PositionalDocument, term: str, cfg: RbfConfig) -> np.ndarray:
    """rbf_local_relevance of ``term`` at every position, as one array.

    A window whose values are all 0 has mu = sigma = 0 and a boost of exactly
    0.0, so only the windows holding a nonzero value are looked up; the
    others keep a boost of 0.0.  A looked-up window is one code (see
    ``_window_codes``), and its boost comes from the window memo.
    """
    n = doc.n
    found = _distance_digits(doc, term, cfg.kernel)
    if found is None:
        return np.zeros(n, dtype=np.float64)
    digits, table = found
    base = table[digits]
    # every window is clipped to the document, so any kf >= n gives the same
    # windows; capping it keeps the index sums inside int64
    kf = min(cfg.kf, n)
    nonzero = base != 0.0
    # seen[x + 2kf + 1] - seen[x] counts the nonzero values in [x - kf, x + kf]
    seen = np.zeros(n + 2 * kf + 1, dtype=np.int64)
    np.cumsum(nonzero, out=seen[kf + 1 : n + kf + 1])
    seen[n + kf + 1 :] = seen[n + kf]
    # the window around x holds a nonzero value when its count, less x's own, is positive
    live = np.flatnonzero(seen[2 * kf + 1 :] - seen[:n] > nonzero)
    radix = len(table) + 1
    words = [word[live].tolist() for word in _window_codes(digits, kf, radix)]
    codes = words[0] if len(words) == 1 else list(zip(*words))
    geometry = (cfg.kernel.shape, cfg.kernel.k, radix, kf, cfg.threshold_scale)
    boosts = np.zeros(n, dtype=np.float64)
    boosts[live] = _window_boosts(codes, geometry, table)
    # elementwise float64 addition and min round exactly like the scalar forms
    raw = base + boosts
    return np.minimum(raw, 1.0) if cfg.clamp_output else raw


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


def _window_codes(digits: np.ndarray, kf: int, radix: int) -> list[np.ndarray]:
    """Each position's window code, as one int64 array per word.

    A window's code is its 2*kf neighbours' digits in base ``radix``, the
    first neighbour lowest: a neighbour's digit is its clipped distance (an
    index into the kernel table), or radix - 1 where it falls outside the
    document.  The digits fill as many int64 words as they need.  Equal
    codes are equal windows of table values, so a code stands for its
    window exactly.
    """
    per_word, words = _window_layout(radix, kf)
    n, width = len(digits), 2 * kf + 1
    padded = np.full(n + width - 1, radix - 1, dtype=np.int64)
    padded[kf : kf + n] = digits
    # row x is padded[x : x + width], the window around x, as a read-only view
    strides = padded.strides * 2
    windows = np.lib.stride_tricks.as_strided(padded, (n, width), strides, writeable=False)
    step = max(1, _BLOCK_DIGITS // width)
    return [
        np.concatenate([windows[row : row + step, first:last] @ weights for row in range(0, n, step)])
        for first, last, weights in words
    ]


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
    return present_profile(doc, node, rbf_term_profile, cfg)


def rbf_similarity(doc: PositionalDocument, node: QueryNode, cfg: RbfConfig) -> float:
    """``similarity`` with ``rbf_term_profile`` as the leaf; stays in [0, 1] while clamping is on.

    A document that fails ``has_terms`` scores exactly 0: every window of an
    absent term is all 0, so its boost is 0 too.
    """
    return _similarity(doc, node, rbf_term_profile, cfg)
