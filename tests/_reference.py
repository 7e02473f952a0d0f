"""Naive reference evaluators used as test oracles.

Everything here is straight-line loop code over plain stem lists, written
independently of the library's engine: kernels are recomputed from their
formulas, maxima run over full occurrence sets, and window statistics are
recomputed per position.  Only the query AST dataclasses and the Arabic
fold table are shared, as pure data.
"""

from __future__ import annotations

import math
import re

from proxima.querylang import And, Near, Or, Term
from proxima.textprep import _FOLD_TABLE


def fold(text: str) -> str:
    """The character fold as one dict lookup per character."""
    return text.translate(_FOLD_TABLE)


def tokenize(text: str) -> list[str]:
    """Runs of letters and digits, "_" a separator, minus the runs of digits only."""
    return [t for t in re.findall(r"[^\W_]+", text) if not re.fullmatch(r"\d+", t)]


def preprocess(text: str, stoplist, strip) -> tuple[str, ...]:
    """Fold, tokenize, drop stop words, stem each token with ``strip``, drop stemmed stop words."""
    tokens = [t for t in tokenize(fold(text)) if t not in stoplist]
    stop_stems = {strip(w) for w in stoplist}
    return tuple(s for s in (strip(t) for t in tokens) if s not in stop_stems)


def kernel_value(shape: str, k: int, offset: int) -> float:
    ax = abs(offset)
    if shape == "triangular":
        return max((k - ax) / k, 0.0)
    if shape == "rectangular":
        return 1.0 if ax < k else 0.0
    if shape == "hanning":
        return 0.5 * (1.0 + math.cos(math.pi * ax / k)) if ax < k else 0.0
    if shape == "gaussian":
        if ax >= k:
            return 0.0
        s = k / 3.0
        return math.exp(-(ax * ax) / (2.0 * s * s))
    raise ValueError(f"unknown shape {shape!r}")


def occurrences(stems: list[str], term: str) -> list[int]:
    return [i for i, stem in enumerate(stems) if stem == term]


def local_relevance(stems: list[str], term: str, x: int, shape: str, k: int) -> float:
    best = 0.0
    for i in occurrences(stems, term):
        best = max(best, kernel_value(shape, k, x - i))
    return best


def near_boolean(stems: list[str], a: str, b: str, k: int) -> bool:
    return any(
        abs(i - j) < k for i in occurrences(stems, a) for j in occurrences(stems, b)
    )


def near_relevance(stems: list[str], a: str, b: str, k: int) -> float:
    best = 0.0
    for i in occurrences(stems, a):
        for j in occurrences(stems, b):
            best = max(best, max((k - abs(j - i)) / k, 0.0))
    return best


def eval_query_at(stems: list[str], node, x: int, shape: str, k: int) -> float:
    if isinstance(node, Term):
        return local_relevance(stems, node.stem, x, shape, k)
    if isinstance(node, And):
        return min(
            eval_query_at(stems, node.left, x, shape, k),
            eval_query_at(stems, node.right, x, shape, k),
        )
    if isinstance(node, Or):
        return max(
            eval_query_at(stems, node.left, x, shape, k),
            eval_query_at(stems, node.right, x, shape, k),
        )
    if isinstance(node, Near):
        return min(
            local_relevance(stems, node.left.stem, x, shape, node.k),
            local_relevance(stems, node.right.stem, x, shape, node.k),
        )
    raise TypeError(f"not a query node: {node!r}")


def score(stems: list[str], node, shape: str, k: int) -> float:
    return sum(eval_query_at(stems, node, x, shape, k) for x in range(len(stems)))


def similarity(stems: list[str], node, shape: str, k: int) -> float:
    return score(stems, node, shape, k) / len(stems) if stems else 0.0


def rbf_local_relevance(
    stems: list[str],
    term: str,
    x: int,
    shape: str,
    k: int,
    kf: int,
    scale: float = 1.0,
    clamp: bool = True,
    neighbor_mode: str = "focal",
) -> float:
    base = local_relevance(stems, term, x, shape, k)
    values = []
    for i in range(x - kf, x + kf + 1):
        if i == x or i < 0 or i >= len(stems):
            continue
        if neighbor_mode == "focal":
            values.append(local_relevance(stems, term, i, shape, k))
        else:
            values.append(local_relevance(stems, stems[i], i, shape, k))
    n = len(values)
    mu = sum(values) / n if n else 0.0
    sigma = math.sqrt(sum((v - mu) ** 2 for v in values) / n) if n else 0.0
    total = base
    for v in values:
        if abs(v - mu) <= scale * sigma:
            if sigma == 0.0:
                phi = 1.0 if v == mu else 0.0
            else:
                phi = math.exp(-((v - mu) ** 2) / (2.0 * sigma * sigma)) / (
                    sigma * math.sqrt(2.0 * math.pi)
                )
            total += v * phi
    return min(total, 1.0) if clamp else total
