"""Anatomy of the sliding-window boost.

At each position, the relevance values of the surrounding window form a
sample with mean mu and standard deviation sigma.  Neighbors inside the
sigma band are the position's semantic neighborhood; each one adds its value
weighted by a Gaussian density centered at mu, and ``window_boost`` sums
those terms.  Homogeneous high-value windows (occurrence clusters) therefore
amplify strongly, while the ragged mix of values around an isolated
occurrence is filtered away or adds little.

Run:  python demos/03_window_boost_anatomy.py
"""

from proxima import (
    InfluenceKernel,
    RbfConfig,
    build_document,
    local_relevance,
    rbf_local_relevance,
    rbf_similarity,
    semantic_neighbors,
    similarity,
    window_boost,
    window_neighbor_relevances,
    window_stats,
)
from proxima.querylang import Term

kernel = InfluenceKernel("triangular", 3)
cfg = RbfConfig(kernel=kernel, kf=2)

# one tight cluster of "ore" versus one isolated occurrence
doc = build_document("d", ["ore", "ore", "ore", "x", "y", "z", "w", "ore", "v", "u"])


def dissect(x: int) -> None:
    base = local_relevance(doc, "ore", x, kernel)
    neighbors = window_neighbor_relevances(doc, x, cfg, term="ore")
    stats = window_stats(v for _, v in neighbors)
    kept = semantic_neighbors(neighbors, stats, cfg.threshold_scale)
    boost = window_boost(tuple(v for _, v in neighbors), cfg.threshold_scale)
    final = rbf_local_relevance(doc, "ore", x, cfg)
    print(f"position {x} ({doc.stems[x]!r}):")
    print(f"  window values   {[round(v, 3) for _, v in neighbors]}")
    print(f"  mu={stats.mu:.3f} sigma={stats.sigma:.3f}  kept={[i for i, _ in kept]}")
    print(f"  base {base:.3f} + boost {boost:.3f} -> clamped {final:.3f}")


print("inside the cluster:")
dissect(1)
print("\nnext to the cluster:")
dissect(3)
print("\nnext to the isolated occurrence:")
dissect(6)

# ---------------------------------------------------------------------------
# Two guarantees of the boosted model:
#
# 1. Reduction: if the band filters every neighbor (or the window is empty),
#    the boosted value equals the plain one exactly.
# 2. Dominance: with clamping on, a single-term boosted similarity is never
#    below the plain similarity, and never above 1.

tight = RbfConfig(kernel=kernel, kf=1, threshold_scale=0.5)
plain = similarity(doc, Term("ore"), kernel)
boosted = rbf_similarity(doc, Term("ore"), cfg)
print(f"\nplain similarity          {plain:.4f}")
print(f"boosted similarity        {boosted:.4f}  (>= plain, <= 1)")

absent_plain = similarity(doc, Term("gold"), kernel)
absent_boosted = rbf_similarity(doc, Term("gold"), cfg)
print(f"absent term, both modes   {absent_plain:.4f} == {absent_boosted:.4f}")

# a window holding exactly two distinct values puts both of them one sigma
# from the mean, so a half-sigma band keeps neither: the boost vanishes
print(f"half-sigma band reduces to plain: "
      f"{rbf_similarity(doc, Term('ore'), tight) == similarity(doc, Term('ore'), kernel)}")
