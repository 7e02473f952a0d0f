"""Naive evaluators the benchmark checks the engine against.

Nothing here imports proxima.  Queries are the benchmark's own trees:

    ("term", stem)
    ("and", [child, ...])      n-ary min
    ("or", [child, ...])       n-ary max
    ("near", k, stem_a, stem_b)

Relevance at a position is the best kernel value over every occurrence
(a full scan, no nearest-occurrence search), window statistics are
recomputed per position, and sums use math.fsum.  The results are compared
with the engine's within a tolerance, never bit for bit.
"""

from __future__ import annotations

import math

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def triangular(k: int, offset: int) -> float:
    return max((k - abs(offset)) / k, 0.0)


def occurrences(stems: list[str], term: str) -> list[int]:
    return [i for i, stem in enumerate(stems) if stem == term]


def term_values(stems: list[str], term: str, k: int) -> list[float]:
    """Triangular local relevance of ``term`` at every position."""
    occ = occurrences(stems, term)
    return [max((triangular(k, x - i) for i in occ), default=0.0) for x in range(len(stems))]


def query_values(stems: list[str], node, k: int) -> list[float]:
    kind = node[0]
    if kind == "term":
        return term_values(stems, node[1], k)
    if kind == "near":
        a = term_values(stems, node[2], node[1])
        b = term_values(stems, node[3], node[1])
        return [min(x, y) for x, y in zip(a, b)]
    columns = [query_values(stems, child, k) for child in node[1]]
    pick = min if kind == "and" else max
    return [pick(column[x] for column in columns) for x in range(len(stems))]


def similarity(stems: list[str], node, k: int) -> float:
    if not stems:
        return 0.0
    return math.fsum(query_values(stems, node, k)) / len(stems)


def required_terms(node) -> frozenset[str]:
    """Terms every document scoring above zero must contain."""
    kind = node[0]
    if kind == "term":
        return frozenset([node[1]])
    if kind == "near":
        return frozenset(node[2:])
    sets = [required_terms(child) for child in node[1]]
    if kind == "and":
        return frozenset().union(*sets)
    return frozenset.intersection(*sets)


def rbf_term_values(stems: list[str], term: str, k: int, kf: int) -> list[float]:
    """Window-boosted relevance (focal neighbours, threshold 1, clamped to 1)."""
    base = term_values(stems, term, k)
    n = len(stems)
    out = []
    for x in range(n):
        window = [base[i] for i in range(x - kf, x + kf + 1) if i != x and 0 <= i < n]
        m = len(window)
        mu = math.fsum(window) / m if m else 0.0
        sigma = math.sqrt(math.fsum((v - mu) ** 2 for v in window) / m) if m else 0.0
        terms = [base[x]]
        for v in window:
            if abs(v - mu) <= sigma:
                if sigma == 0.0:
                    phi = 1.0 if v == mu else 0.0
                else:
                    phi = math.exp(-((v - mu) ** 2) / (2.0 * sigma * sigma)) / (sigma * SQRT_TWO_PI)
                terms.append(v * phi)
        out.append(min(math.fsum(terms), 1.0))
    return out


def category_similarity(
    stems: list[str],
    descriptors: list[str],
    equivalents: dict[str, str],
    k: int,
    kf: int,
    mode: str,
) -> float:
    """OR over the descriptors after rewriting equivalents, in one mode."""
    rewritten = [equivalents.get(stem, stem) for stem in stems]
    if not rewritten:
        return 0.0
    present = set(rewritten)
    columns = []
    for descriptor in descriptors:
        if descriptor not in present:
            continue  # an absent term is zero everywhere in both modes
        if mode == "standard":
            columns.append(term_values(rewritten, descriptor, k))
        else:
            columns.append(rbf_term_values(rewritten, descriptor, k, kf))
    if not columns:
        return 0.0
    best = [max(column[x] for column in columns) for x in range(len(rewritten))]
    return math.fsum(best) / len(rewritten)


def macro_f1(names: list[str], confusion: list[list[int]]) -> float:
    """Unweighted mean of per-category F1 from a confusion matrix."""
    total = 0.0
    for i in range(len(names)):
        true_count = sum(confusion[i])
        predicted = sum(row[i] for row in confusion)
        recall = confusion[i][i] / true_count if true_count else 0.0
        precision = confusion[i][i] / predicted if predicted else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / len(names)
