"""Correctness checks on the program's outputs.

Each check takes an output and what it should be, and returns a list of
problems (empty when the output is right).  ``selftest.py`` feeds every check
a corrupted output to show that it can fail.
"""

from __future__ import annotations

from collections import Counter

import reference as ref
from workloads import FORBIDDEN_CHARS

TOLERANCE = 1e-12


def ranking(ranked: list[tuple[str, float]], doc_terms: dict[str, set[str]], required, what: str) -> list[str]:
    """Order by descending similarity then doc id, values in (0, 1], required terms present."""
    problems = []
    for (a, va), (b, vb) in zip(ranked, ranked[1:]):
        if (-va, a) >= (-vb, b):
            problems.append(f"{what}: {a} ({va!r}) ranked above {b} ({vb!r})")
            break
    for doc_id, value in ranked:
        if not 0.0 < value <= 1.0:
            problems.append(f"{what}: {doc_id} has similarity {value!r} outside (0, 1]")
        missing = set(required) - doc_terms.get(doc_id, set())
        if missing:
            problems.append(f"{what}: {doc_id} ranked without required terms {sorted(missing)}")
    return problems


def close(pairs: list[tuple[str, float, float]], tolerance: float = TOLERANCE) -> list[str]:
    """(label, engine value, reference value) agree within ``tolerance``."""
    return [
        f"{label}: engine {got!r} vs reference {want!r}"
        for label, got, want in pairs
        if not abs(got - want) <= tolerance
    ]


def repeatable(pairs: list[tuple[str, float, float]]) -> list[str]:
    """(label, value in the output, value of a fresh call) are the same float, bit for bit."""
    return [
        f"{label}: output {got!r} but the same call gives {again!r}"
        for label, got, again in pairs
        if got.hex() != again.hex()
    ]


def top1(label: str, ranked: list[tuple[str, float]], reference_scores: dict[str, float]) -> list[str]:
    """The ranking is ordered by (-value, name) and its head is a reference top-1.

    Categories whose reference scores lie within the tolerance of the best
    are tied: equal in exact arithmetic, their floats may differ in the last
    bits, so the engine's own order among them decides (checked just above).
    """
    problems = []
    if sorted(ranked, key=lambda pair: (-pair[1], pair[0])) != ranked:
        problems.append(f"{label}: categories not ordered by similarity then name: {ranked}")
    best = max(reference_scores.values())
    tied = sorted(c for c, v in reference_scores.items() if best - v <= TOLERANCE)
    if ranked[0][0] not in tied:
        problems.append(f"{label}: top-1 {ranked[0][0]} but the reference gives {' or '.join(tied)}")
    return problems


def stems(got: dict[str, list[str]], want: dict[str, list[str]], forbidden_stems=frozenset()) -> list[str]:
    """Documents hold exactly the planted stems, free of foldable characters and stop words."""
    problems = []
    if list(got) != list(want):
        problems.append(f"documents {list(got)[:5]}... differ from {list(want)[:5]}...")
    for doc_id, expected in want.items():
        actual = got.get(doc_id)
        if actual != expected:
            where = next((i for i, (a, b) in enumerate(zip(actual or [], expected)) if a != b), None)
            problems.append(f"{doc_id}: stems differ from the planted roots (first at position {where})")
    for doc_id, actual in got.items():
        for stem in actual:
            if FORBIDDEN_CHARS.intersection(stem) or stem in forbidden_stems:
                problems.append(f"{doc_id}: stem {stem!r} is unfolded or a stop word")
                break
    return problems


def labels(got: dict[str, str], want: dict[str, str], what: str) -> list[str]:
    return [] if got == want else [f"{what}: labels differ from the ones written"]


def index_summary(stdout: str, want: dict[str, list[str]]) -> list[str]:
    """`index` prints the generator's document, position and distinct-stem counts."""
    positions = sum(map(len, want.values()))
    distinct = len({stem for doc in want.values() for stem in doc})
    expected = f"indexed {len(want)} documents, {positions} term positions, {distinct} distinct stems"
    head = stdout.split(" -> ")[0]
    return [] if head == expected else [f"index printed {head!r}, expected {expected!r}"]


def query_cli(stdout: str, texts: list[str], rankings: list[list[tuple[str, float]]]) -> list[str]:
    """`query --query-file` prints the same rankings the library gives, six decimals."""
    expected = []
    for number, (text, ranked) in enumerate(zip(texts, rankings), start=1):
        expected.append(f"# query {number}: {text}")
        expected.extend(f"{rank}\t{doc_id}\t{value:.6f}" for rank, (doc_id, value) in enumerate(ranked, start=1))
    got = stdout.splitlines()
    if got == expected:
        return []
    where = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
    return [f"query output line {where + 1}: {got[where:where + 1]} expected {expected[where:where + 1]}"]


def parse_eval(stdout: str, names: list[str]) -> tuple[list[list[int]], float]:
    """The confusion matrix and the macro-F1 record from `eval` output."""
    lines = stdout.splitlines()
    start = lines.index("confusion (rows: true, columns: predicted)") + 2
    confusion = []
    for name, line in zip(names, lines[start : start + len(names)]):
        fields = line.split()
        if fields[0] != name:
            raise ValueError(f"confusion row {fields[0]!r}, expected {name!r}")
        confusion.append([int(v) for v in fields[1:]])
    macro = [line for line in lines if line.startswith("macro\t")]
    return confusion, float(macro[0].split("\t")[3])


def evaluation(stdout: str, names: list[str], labels: dict[str, str], library_confusion) -> list[str]:
    """Confusion sums match the labels, printed macro-F1 matches the matrix and the library."""
    try:
        confusion, printed_f1 = parse_eval(stdout, names)
    except (ValueError, IndexError) as exc:
        return [f"eval output unreadable: {exc}"]
    problems = []
    if sum(map(sum, confusion)) != len(labels):
        problems.append(f"confusion sums to {sum(map(sum, confusion))}, {len(labels)} docs are labeled")
    for name, row in zip(names, confusion):
        count = sum(1 for label in labels.values() if label == name)
        if sum(row) != count:
            problems.append(f"confusion row {name} sums to {sum(row)}, {count} docs carry that label")
    if f"{ref.macro_f1(names, confusion):.6f}" != f"{printed_f1:.6f}":
        problems.append(f"eval prints macro-F1 {printed_f1}, its matrix gives {ref.macro_f1(names, confusion)}")
    if confusion != library_confusion:
        problems.append("eval confusion differs from the top-1 of library classify")
    return problems


def categories(got: list[tuple[str, list[str], list[tuple[str, str]]]], want) -> list[str]:
    """`load_categories` gives back the categories written: (name, descriptors, equivalents) each."""
    got, want = sorted(got), sorted(want)
    return [] if got == want else [f"categories read back as {got}, expected {want}"]


def planted_corpus(docs: dict[str, list[str]], labels: dict[str, str], spec: dict, vocabulary: set[str],
                   n_categories: int) -> list[str]:
    """gen-synth's corpus has the spec's shape: docs per category, doc length, vocabulary."""
    problems = []
    counts = sorted(Counter(labels.values()).values())
    if counts != [spec["docs_per_category"]] * n_categories or len(labels) != len(docs):
        problems.append(f"gen-synth made {counts} labeled docs per category out of {len(docs)}")
    for doc_id, stems in docs.items():
        if len(stems) != spec["doc_length"] or not vocabulary.issuperset(stems):
            problems.append(f"gen-synth doc {doc_id} has the wrong length or vocabulary")
            break
    return problems


def same_digest(digest: str, first: str | None) -> list[str]:
    """gen-synth gives the same bytes for the same seed every time."""
    return [] if first in (None, digest) else ["gen-synth gave different corpora for the same seed"]


def same_rankings(first: list, again: list, what: str) -> list[str]:
    return [] if first == again else [f"a repeated {what} gave different rankings"]


def rbf_gain(rbf_f1: float, standard_f1: float) -> list[str]:
    """The paper's property on the planted corpus: the window boost raises macro-F1."""
    return [] if rbf_f1 > standard_f1 else [f"rbf macro-F1 {rbf_f1} does not exceed standard {standard_f1}"]


def span_tree(start, end, parent) -> list[str]:
    """Every span is closed and lies within its parent's interval."""
    for i, (s, e, p) in enumerate(zip(start, end, parent)):
        if e < s:
            return [f"span {i} was never closed"]
        if p >= 0 and not start[p] <= s <= e <= end[p]:
            return [f"span {i} [{s}, {e}] lies outside its parent {p} [{start[p]}, {end[p]}]"]
    return []


def self_time_sum(self_ns: list[float], wall_ns: int) -> list[str]:
    """The layers' self times add up to the traced wall time."""
    total = sum(self_ns)
    if abs(total - wall_ns) <= 1e-6 * wall_ns + 1000:
        return []
    return [f"layer self times sum to {total} ns, traced wall time is {wall_ns} ns"]
