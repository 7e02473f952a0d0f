"""Influence kernels and positional relevance.

Every occurrence of a term radiates influence to nearby positions through a
bounded symmetric kernel.  This script prints the four kernel shapes side by
side, then shows how the per-position relevance profile of a term arises as
the upper envelope of its occurrences' influence.

Run:  python demos/01_kernels_and_local_relevance.py
"""

from proxima import InfluenceKernel, build_document, local_relevance, term_profile

# ---------------------------------------------------------------------------
# The four kernel shapes at width k = 5.
#
# All of them peak at 1 on the occurrence itself and reach 0 at |offset| >= k;
# the gaussian uses sigma = k/3 and is truncated at the support boundary.

k = 5
offsets = range(-6, 7)
print(f"kernel values, width k = {k}")
print("offset:     " + "  ".join(f"{x:5d}" for x in offsets))
for shape in ("triangular", "rectangular", "gaussian", "hanning"):
    kernel = InfluenceKernel(shape, k)
    row = "  ".join(f"{kernel.at(x):5.3f}" for x in offsets)
    print(f"{shape:<12}" + row)

# ---------------------------------------------------------------------------
# Local relevance of a term = strongest influence of any of its occurrences.
#
# The document below contains "storm" at positions 2 and 9.  Between the two
# occurrences the triangular slopes cross; each position takes the higher one.

doc = build_document(
    "weather-report",
    ["calm", "wind", "storm", "rain", "flood", "calm", "sun", "dry", "heat", "storm"],
)
kernel = InfluenceKernel("triangular", 5)

print("\nrelevance of 'storm' across the document (occurrences at 2 and 9):")
profile = term_profile(doc, "storm", kernel)
for position, (stem, value) in enumerate(zip(doc.stems, profile)):
    bar = "#" * round(value * 20)
    print(f"  {position:2d} {stem:<6} {value:5.3f} {bar}")

# Influence overflows the document edges: positions outside 0..N-1 still see
# the nearest occurrence.
print("\nrelevance just outside the document:")
for x in (-2, -1, 10, 11):
    print(f"  x = {x:3d}: {local_relevance(doc, 'storm', x, kernel):.3f}")

# An absent term is 0 everywhere.
print(f"\nrelevance of an absent term anywhere: {local_relevance(doc, 'snow', 4, kernel):.3f}")
