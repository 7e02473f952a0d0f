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
scalar ``rbf_local_relevance`` and the array ``rbf_term_profile`` alike.
Window values come from the finite set of kernel values plus 0, so documents
repeat the same few windows over and over, and ``window_boost`` memoises the
boost per (window, multiplier) in a process-wide cache of fixed size.  The
memo is exact: each entry is computed once by the same scalar code, and the
same tuple always gives the same float, so cached and fresh boosts are
bit-identical and values on the band edge cannot flip.  An all-zero window's
boost is exactly 0.0, so ``rbf_term_profile`` does not look such windows up
at all, and a document whose query fails ``has_terms`` is not profiled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .posindex import PositionalDocument
from .proxcore import (
    InfluenceKernel,
    _similarity,
    fold_query,
    local_relevance,
    present_profile,
    term_profile,
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

# The window-boost memo holds at most this many windows: more than the
# distinct windows of any benchmark workload (2,292 at most), and about 13 MB
# when every entry is a kf=200 window.
_WINDOW_CACHE_SIZE = 4096


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


@lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def window_boost(values: tuple[float, ...], threshold_scale: float) -> float:
    """Sum of value * gaussian_rbf(value) over the window's semantic neighborhood, memoised."""
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
    others keep a boost of 0.0.
    """
    base = term_profile(doc, term, cfg.kernel)
    n = doc.n
    if n == 0:
        return base
    # every window is clipped to the document, so any kf >= n gives the same
    # slices and indices; capping it keeps the index sums inside int64
    kf = min(cfg.kf, n)
    values = tuple(base.tolist())
    nonzero = base != 0.0
    seen = np.concatenate(([0], np.cumsum(nonzero)))
    xs = np.arange(n)
    # the window around x holds a nonzero value when its count, less x's own, is positive
    in_window = seen[np.minimum(xs + kf + 1, n)] - seen[np.maximum(xs - kf, 0)]
    live = np.flatnonzero(in_window > nonzero).tolist()
    scale = cfg.threshold_scale
    boosts = np.zeros(n, dtype=np.float64)
    boosts[live] = [
        window_boost(values[max(0, x - kf) : x] + values[x + 1 : x + kf + 1], scale) for x in live
    ]
    # elementwise float64 addition and min round exactly like the scalar forms
    raw = base + boosts
    return np.minimum(raw, 1.0) if cfg.clamp_output else raw


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
