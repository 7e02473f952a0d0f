"""Seeded inputs for the three workloads.

Each ``make_*`` function writes one workload's input files into a directory
and returns a ``Workload`` describing what it wrote and what the program
must make of it.  The same seed gives the same files.  Nothing here imports
proxima.  ``classify-planted`` takes its corpus from the program's own
``gen-synth`` command: ``write_planted_spec`` writes its input and
``make_classify_planted`` reads what it wrote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

QUERY_KINDS = ("term", "and", "or", "near", "nested")


@dataclass
class Category:
    name: str
    descriptors: list[str]
    equivalents: dict[str, str] = field(default_factory=dict)


@dataclass
class Workload:
    """One workload's inputs as written to disk, plus what to expect back."""

    name: str
    texts: dict[str, str]  # doc id -> raw text of docs/<doc id>.txt
    docs: dict[str, list[str]]  # doc id -> expected stems, in doc id order
    labels: dict[str, str]  # labeled subset: doc id -> category name
    raw_tokens: int  # word tokens in the .txt files, stop words and numbers included
    categories: list[Category]
    queries: list[tuple[str, tuple]]  # (query text, benchmark query tree)
    cli_queries: int  # the first this many queries also go through `proxima query`
    k: int  # triangular kernel width, for the library and every command
    kf: int  # window half-width of the rbf boost
    fault_queries: list[tuple[str, tuple]] = field(default_factory=list)
    fault_docs: dict[str, list[str]] = field(default_factory=dict)
    fault_category: Category | None = None
    forbidden_stems: frozenset[str] = frozenset()
    rbf_beats_standard: bool = False


# ---------------------------------------------------------------------------
# Query trees (see reference.py for the node forms)


def _random_tree(kind: str, pick: Callable[[], str], rng: random.Random, shape: int) -> tuple:
    term = lambda: ("term", pick())  # noqa: E731
    if kind == "term":
        return term()
    if kind == "and":
        return ("and", [term(), term()])
    if kind == "or":
        return ("or", [term(), term(), term()])
    if kind == "near":
        return ("near", rng.randint(2, 8), pick(), pick())
    if shape == 0:
        return ("and", [("or", [term(), term()]), term()])
    if shape == 1:
        return ("and", [term(), ("near", rng.randint(2, 8), pick(), pick())])
    return ("or", [("near", rng.randint(2, 8), pick(), pick()), ("and", [term(), term()])])


def render(node, surface: Callable[[str], str] = lambda stem: stem) -> str:
    """Query text for a tree; every compound operand is parenthesised."""
    kind = node[0]
    if kind == "term":
        return surface(node[1])
    if kind == "near":
        return f"{surface(node[2])} NEAR/{node[1]} {surface(node[3])}"

    def operand(child) -> str:
        text = render(child, surface)
        return text if child[0] == "term" else f"({text})"

    return f" {kind.upper()} ".join(operand(child) for child in node[1])


def make_queries(
    per_kind: int,
    pick: Callable[[], str],
    rng: random.Random,
    surface: Callable[[str], str] = lambda stem: stem,
) -> list[tuple[str, tuple]]:
    """``per_kind`` queries of each kind, interleaved so any prefix mixes kinds."""
    queries = []
    for i in range(per_kind):
        for kind in QUERY_KINDS:
            tree = _random_tree(kind, pick, rng, i % 3)
            queries.append((render(tree, surface), tree))
    return queries


def long_or_queries(vocabulary: list[str], sizes: tuple[int, ...]) -> list[tuple[str, tuple]]:
    """OR chains deeper than the interpreter's recursion limit; seed-independent."""
    out = []
    for size in sizes:
        tree = ("or", [("term", vocabulary[i % len(vocabulary)]) for i in range(size)])
        out.append((render(tree), tree))
    return out


# ---------------------------------------------------------------------------
# Files


def write_docs(directory: Path, workload: Workload) -> None:
    """The input of `proxima index`: one .txt file per doc, plus the label manifest."""
    docs = directory / "docs"
    docs.mkdir()
    for doc_id, text in workload.texts.items():
        (docs / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    manifest = "".join(f"{doc_id}.txt\t{label}\n" for doc_id, label in workload.labels.items())
    (directory / "manifest.tsv").write_text(manifest, encoding="utf-8")


def categories_text(categories: list[Category], surface=lambda stem: stem) -> str:
    """Category blocks in the format `load_categories` and `gen-synth` read."""
    blocks = []
    for cat in categories:
        lines = [f"category: {cat.name}", "descriptors: " + " ".join(map(surface, cat.descriptors))]
        if cat.equivalents:
            pairs = (f"{surface(s)}={surface(d)}" for s, d in cat.equivalents.items())
            lines.append("equivalents: " + " ".join(pairs))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_query_file(path: Path, workload: Workload) -> None:
    lines = [text for text, _ in workload.queries[: workload.cli_queries]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# rank-sparse: the C8 document shape (200 stems drawn uniformly from w000-w799),
# with fewer documents so that a round stays a few seconds long (README.md)

SPARSE_DOCS = 600
SPARSE_DOC_LENGTH = 200
SPARSE_VOCABULARY = 800


def make_rank_sparse(directory: Path, seed: int) -> Workload:
    rng = random.Random(f"rank-sparse/{seed}")
    vocabulary = [f"w{i:03d}" for i in range(SPARSE_VOCABULARY)]
    docs: dict[str, list[str]] = {}
    labels: dict[str, str] = {}
    names = ["alpha", "beta", "gamma"]
    for i in range(SPARSE_DOCS):
        doc_id = f"d{i:04d}"
        docs[doc_id] = [rng.choice(vocabulary) for _ in range(SPARSE_DOC_LENGTH)]
        if i % 12 == 0:
            labels[doc_id] = rng.choice(names)
    stems = rng.sample(vocabulary, 15)
    categories = [
        Category(name, stems[5 * c : 5 * c + 3], {stems[5 * c + 3]: stems[5 * c], stems[5 * c + 4]: stems[5 * c + 1]})
        for c, name in enumerate(names)
    ]
    directory.mkdir(parents=True)
    (directory / "categories.txt").write_text(categories_text(categories), encoding="utf-8")
    fault_docs = {f"fixed{j}": [vocabulary[7 * i + 3 * j] for i in range(12)] for j in range(4)}
    return Workload(
        name="rank-sparse",
        texts={doc_id: " ".join(stems) for doc_id, stems in docs.items()},
        docs=docs,
        labels=labels,
        raw_tokens=sum(map(len, docs.values())),
        categories=categories,
        queries=make_queries(20, lambda: rng.choice(vocabulary), rng),
        cli_queries=15,
        k=5,
        kf=5,
        fault_queries=long_or_queries(vocabulary, (3000, 3500, 4000)),
        fault_docs=fault_docs,
    )


# ---------------------------------------------------------------------------
# classify-planted: the C5 planted corpus, made by `proxima gen-synth`

PLANTED_SPEC = {
    "docs_per_category": 100,  # C5 has 200; halved so that a run holds more rounds (README.md)
    "doc_length": 150,
    "injection_rate": 0.7,
    "noise_rate": 0.30,
    "cross_rate": 0.52,
    "noise_vocab_size": 40,
}


def planted_categories() -> list[Category]:
    cats = []
    for c in range(3):
        name = f"cat{c}"
        descriptors = [f"{name}d0", f"{name}d1"]
        cats.append(Category(name, descriptors, {f"{name}e{j}": descriptors[j % 2] for j in range(4)}))
    return cats


def planted_vocabulary() -> list[str]:
    """Every stem gen-synth may write for the spec: noise stems, descriptors, equivalents."""
    vocabulary = [f"noise{i:02d}" for i in range(PLANTED_SPEC["noise_vocab_size"])]
    for cat in planted_categories():
        vocabulary += cat.descriptors + list(cat.equivalents)
    return vocabulary


def read_corpus_file(path: Path) -> tuple[dict[str, list[str]], dict[str, str]]:
    """The corpus file format read with plain string operations."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "#proxima-corpus v1":
        raise ValueError(f"{path}: not a corpus file")
    docs, labels = {}, {}
    for line in lines[1:]:
        doc_id, label, stems = line.split("\t")
        docs[doc_id] = stems.split()
        if label != "-":
            labels[doc_id] = label
    return docs, labels


def write_planted_spec(directory: Path) -> None:
    """The input of `proxima gen-synth`: the C5 parameters and categories."""
    params = "".join(f"{key} = {value}\n" for key, value in PLANTED_SPEC.items())
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "spec.txt").write_text(params + categories_text(planted_categories()), encoding="utf-8")


def gen_synth_args(seed: int) -> list[str]:
    return ["gen-synth", "spec.txt", "--out-corpus", "synth.tsv", "--out-categories", "categories.txt",
            "--seed", str(seed)]


def make_classify_planted(directory: Path) -> Workload:
    """The workload around the corpus `gen-synth` wrote into ``directory``."""
    categories = planted_categories()
    docs, labels = read_corpus_file(directory / "synth.tsv")
    vocabulary = planted_vocabulary()
    # the vocabulary and its frequencies do not depend on the seed, so neither do the queries
    qrng = random.Random("classify-planted/queries")
    oversized = Category("oversized", [f"big{i:04d}" for i in range(3000)])
    fault_docs = {f"fixed{j}": [f"big{(37 * i + j) % 3000:04d}" for i in range(12)] for j in range(3)}
    return Workload(
        name="classify-planted",
        texts={doc_id: " ".join(stems) for doc_id, stems in docs.items()},
        docs=docs,
        labels=labels,
        raw_tokens=sum(map(len, docs.values())),
        categories=categories,
        queries=make_queries(20, lambda: qrng.choice(vocabulary), qrng),
        cli_queries=5,
        k=1,
        kf=2,
        fault_docs=fault_docs,
        fault_category=oversized,
        rbf_beats_standard=True,
    )


# ---------------------------------------------------------------------------
# index-arabic: long raw Arabic articles
#
# Roots avoid every letter an affix rule can start or end with at the edge
# they touch, so the packaged rule table strips exactly the affixes planted
# around them and nothing else.

_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
_PREFIX_HEADS = set("وفبكلا")
_SUFFIX_TAILS = set("انتهي")
_PREFIXES = ["", "", "و", "ال", "وال", "بال", "فال", "كال", "لل"]
_SUFFIXES = ["", "", "ها", "ان", "ات", "ون", "ين", "ه", "ة", "ي", "ى"]
_ALEF_VARIANTS = "أإآ"
_DIACRITICS = "ًٌٍَُِّْ"
_TATWEEL = "ـ"
_PUNCTUATION = ["،", "؛", "؟", ".", "!", ":", ","]
_ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"
_FOLD = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ى": "ي", "ة": "ه", _TATWEEL: None,
                       **{d: None for d in _DIACRITICS}})

FORBIDDEN_CHARS = frozenset(_ALEF_VARIANTS + "ىة" + _TATWEEL + _DIACRITICS)


def _data_lines(path: Path) -> list[str]:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _naive_stem(word: str, prefixes: list[str], suffixes: list[str]) -> str:
    for prefix in prefixes:
        if word.startswith(prefix) and len(word) - len(prefix) >= 2:
            word = word[len(prefix):]
    for suffix in suffixes:
        if word.endswith(suffix) and len(word) - len(suffix) >= 2:
            word = word[: -len(suffix)]
    return word


def stop_forms(data_dir: Path) -> tuple[list[str], frozenset[str]]:
    """Stop words as written in the packaged list, and every folded or stemmed form."""
    raw = _data_lines(data_dir / "stopwords_ar.txt")
    rules = _data_lines(data_dir / "stemmer_rules_ar.txt")
    split = rules.index("SUFFIXES")
    prefixes = [r.translate(_FOLD) for r in rules[1:split]]
    suffixes = [r.translate(_FOLD) for r in rules[split + 1 :]]
    folded = {w.translate(_FOLD) for w in raw}
    return raw, frozenset(folded | {_naive_stem(w, prefixes, suffixes) for w in folded})


def _make_roots(rng: random.Random, count: int, forbidden: frozenset[str]) -> list[str]:
    roots: list[str] = []
    seen = set(forbidden)
    while len(roots) < count:
        # lengths alternate 3, 4 down the frequency ranking, so text size does not depend on the seed
        middle = "".join(rng.choice(_LETTERS) for _ in range(1 + len(roots) % 2))
        head = rng.choice([c for c in _LETTERS if c not in _PREFIX_HEADS])
        tail = rng.choice([c for c in _LETTERS if c not in _SUFFIX_TAILS])
        root = head + middle + tail
        if root not in seen:
            seen.add(root)
            roots.append(root)
    return roots


def _decorate(rng: random.Random, word: str) -> str:
    """Spell a folded word with alef variants, diacritics and tatweel."""
    chars = []
    for i, ch in enumerate(word):
        if ch == "ا" and 0 < i and rng.random() < 0.5:
            ch = rng.choice(_ALEF_VARIANTS)
        chars.append(ch)
        if i < len(word) - 1 and rng.random() < 0.06:
            chars.append(_TATWEEL)
        if rng.random() < 0.08:
            chars.append(rng.choice(_DIACRITICS))
    return "".join(chars)


def _surface(rng: random.Random, root: str, forbidden: frozenset[str]) -> str:
    """An affixed, decorated spelling of ``root`` that is not itself a stop word."""
    while True:
        prefix, suffix = rng.choice(_PREFIXES), rng.choice(_SUFFIXES)
        if (prefix + root + suffix).translate(_FOLD) not in forbidden:
            return _decorate(rng, prefix + root) + suffix


def make_index_arabic(directory: Path, seed: int, data_dir: Path) -> Workload:
    rng = random.Random(f"index-arabic/{seed}")
    stop_words, forbidden = stop_forms(data_dir)
    roots = _make_roots(rng, 300, forbidden)
    names = ["economy", "science", "sport"]
    topics = {name: roots[25 * t : 25 * (t + 1)] for t, name in enumerate(names)}
    general = roots[75:]
    docs: dict[str, list[str]] = {}
    texts: dict[str, str] = {}
    labels: dict[str, str] = {}
    raw_tokens = 0
    for i in range(120):
        doc_id = f"article{i:03d}"
        topic = names[i % 3]
        stems: list[str] = []
        words: list[str] = []
        for _ in range(1200):
            roll = rng.random()
            if roll < 0.33:
                words.append(rng.choice(stop_words))
            elif roll < 0.37:
                digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4)))
                words.append(digits if rng.random() < 0.5 else digits.translate(str.maketrans("0123456789", _ARABIC_DIGITS)))
            else:
                pool = topics[topic] if rng.random() < 0.4 else general
                root = pool[min(int(rng.paretovariate(1.2)) - 1, len(pool) - 1)]
                stems.append(root)
                words.append(_surface(rng, root, forbidden))
            raw_tokens += 1
            if rng.random() < 0.08:
                words[-1] += rng.choice(_PUNCTUATION)
        for j in range(len(words) - 1, 0, -1):
            if rng.random() < 0.02:
                words[j - 1 : j + 1] = [f"«{words[j - 1]}_{words[j]}»"]
        texts[doc_id] = "\n".join(" ".join(words[j : j + 14]) for j in range(0, len(words), 14))
        docs[doc_id] = stems
        if i < 12:
            labels[doc_id] = topic
    categories = [
        Category(name, topics[name][:3], {topics[name][3 + j]: topics[name][j % 3] for j in range(3)})
        for name in names
    ]
    directory.mkdir(parents=True)
    text = categories_text(categories, lambda stem: _surface(rng, stem, forbidden))
    (directory / "categories.txt").write_text(text, encoding="utf-8")
    # Query terms are drawn by frequency rank with a fixed generator, so the
    # cost of the query set does not depend on which roots a seed made.
    qrng = random.Random("index-arabic/queries")
    return Workload(
        name="index-arabic",
        texts=texts,
        docs=docs,
        labels=labels,
        raw_tokens=raw_tokens,
        categories=categories,
        queries=make_queries(20, lambda: qrng.choice(roots), qrng, lambda stem: _surface(rng, stem, forbidden)),
        cli_queries=30,
        k=5,
        kf=5,
        forbidden_stems=forbidden,
    )
