"""Category models, similarity classification, evaluation, synthetic corpora.

A category is a set of descriptor stems plus a map of equivalent stems onto
those descriptors.  A document is scored, unchanged, by the OR-query of the
category's descriptors, where each descriptor is a class leaf that also
matches its equivalents; the highest-similarity category wins, with
alphabetical tie-breaking.  The evaluation harness reports per-category
recall/precision/F1 and unweighted macro averages over top-1 predictions.

``evaluate``, ``proxima classify`` and ``proxima query`` score each query
over all their documents at once (``mode_similarities``, and per category
``classify_documents`` in rbf mode), through ``proxcore._similarities``.
Each query is folded over a run's documents laid end to end, and each
document's similarity is the sum of its own slice of that fold, over its
length: the same float as scoring the document alone (README's
semantics notes).

In standard mode a category's query is one class leaf of all its
descriptors and equivalents (``CategoryModel.leaf``, from
``query_plan(query, merged=True)``), which is exact because OR is a max and
every kernel table is non-increasing.  So there ``classify_documents``
profiles every (document, category) pair that can score in blocks, with
no fold (``proxcore._leaf_similarities``), and ``classify(doc)`` is
``classify_documents([doc])``.  In rbf mode each descriptor's boost
depends on its own windows, so each is profiled on its own, and library
``classify`` makes one ``rbf_similarity`` call per category.

This module imports no numpy: ``proxcore`` and ``rbfwin`` are imported
when a function first scores (``_scoring_module``), so ``proxima
gen-synth``, which only reads a spec and writes a corpus, never loads
them.  The scoring functions are read from their modules at each call,
so a name rebound there (as a tracer does) is the one called.

The synthetic generator stands in for a real labeled corpus: each document
mixes clustered own-category vocabulary (descriptors with equivalent terms
planted next to them), optional scattered vocabulary from other categories,
and shared noise terms that match no category at all.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .kernels import RbfConfig
from .posindex import Corpus, PositionalDocument, build_document, write_text_atomic
from .textprep import (
    LightStemmer,
    check_field,
    is_storable_stem,
    read_lines,
    read_settings,
    stem_to_fixpoint,
)

if TYPE_CHECKING:
    from .querylang import QueryNode

__all__ = [
    "CategoryModel",
    "CategoryFormatError",
    "CategoryMetrics",
    "EvalReport",
    "SyntheticSpec",
    "SynthSpecError",
    "MODES",
    "category_query",
    "substitute_equivalents",
    "mode_similarities",
    "classify",
    "classify_documents",
    "rank_by_score",
    "evaluate",
    "metrics_from_confusion",
    "load_categories",
    "save_categories",
    "generate_synthetic_corpus",
    "uniform_synthetic_spec",
    "load_synthetic_spec",
]

MODES = ("standard", "rbf")

# reserved: names the macro row in machine-readable eval records
_MACRO = "macro"


@dataclass(frozen=True)
class CategoryModel:
    """Named descriptor-stem set plus equivalent-stem -> descriptor-stem map."""

    name: str
    descriptors: frozenset[str]
    equivalents: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name or self.name != self.name.strip():
            raise ValueError(
                f"category name {self.name!r} may not be empty or start or end with whitespace"
            )
        check_field(self.name, "category name")
        if self.name == _MACRO:
            raise ValueError(f"category name {_MACRO!r} is reserved")
        if not self.descriptors:
            raise ValueError(f"category {self.name!r} has no descriptors")
        for stem in self.descriptors:
            if not is_storable_stem(stem):
                raise ValueError(f"category {self.name!r}: bad descriptor {stem!r}")
        for surface, descriptor in self.equivalents.items():
            if descriptor not in self.descriptors:
                raise ValueError(
                    f"category {self.name!r}: equivalent {surface!r} maps to "
                    f"unknown descriptor {descriptor!r}"
                )
            if surface in self.descriptors:
                raise ValueError(
                    f"category {self.name!r}: {surface!r} is both descriptor and equivalent"
                )
            if "=" in surface or not is_storable_stem(surface):
                raise ValueError(f"category {self.name!r}: bad equivalent {surface!r}")

    @cached_property
    def query(self) -> QueryNode:
        """``category_query(self)``, built once per model so its plan is reused."""
        return category_query(self)

    @cached_property
    def leaf(self) -> str | tuple[str, ...]:
        """The stem of the one leaf of ``query``'s merged plan, which standard mode scores."""
        from .querylang import query_plan

        [(stem, _)] = query_plan(self.query, merged=True)
        return stem


def _equivalents_by_descriptor(model: CategoryModel) -> dict[str, list[str]]:
    """Each descriptor's equivalent stems, sorted."""
    members: dict[str, list[str]] = {descriptor: [] for descriptor in model.descriptors}
    for surface, descriptor in sorted(model.equivalents.items()):
        members[descriptor].append(surface)
    return members


def category_query(model: CategoryModel) -> QueryNode:
    """OR-tree over the category's descriptors (sorted, balanced).

    A descriptor with equivalents is one class leaf, ``Term((descriptor,
    *sorted_equivalents))`` (see ``positions_of``); a class has no query text,
    so ``render_query`` raises TypeError.  Neighbours are paired level by
    level, so n descriptors give a tree of depth ceil(log2 n); max is exact,
    so the shape does not change a score.
    """
    from .querylang import Or, Term

    classes = sorted(_equivalents_by_descriptor(model).items())
    nodes: list[QueryNode] = [Term((d, *eqs) if eqs else d) for d, eqs in classes]
    while len(nodes) > 1:
        paired: list[QueryNode] = [Or(a, b) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = paired + nodes[len(paired) * 2 :]
    return nodes[0]


def substitute_equivalents(doc: PositionalDocument, model: CategoryModel) -> PositionalDocument:
    """Rewrite the category's equivalent stems to their descriptors, keeping positions.

    The result is ``build_document`` over the rewritten stems, or ``doc``
    itself when it holds no equivalent.  Scoring reads class leaves
    instead; this is their oracle.
    """
    table = model.equivalents
    if table.keys().isdisjoint(doc.inverted):
        return doc
    return build_document(doc.doc_id, map(table.get, doc.stems, doc.stems))


@cache
def _scoring_module(name: str):
    """The scoring module ``proxima.<name>``, imported on first use.

    Library ``classify`` asks for it once per document.  There a
    function-local import statement cost 1.4-2.5 us a call, and library
    ``classify`` lost 2-6% of its documents per second; this cached lookup
    costs about 0.1 us more than reading a global (2-core VM, Python 3.11.7).
    """
    return importlib.import_module(f"{__package__}.{name}")


def classify(
    doc: PositionalDocument,
    categories: Sequence[CategoryModel],
    cfg: RbfConfig,
    mode: str = "standard",
) -> list[tuple[str, float]]:
    """Rank categories by similarity, highest first, ties by ascending name.

    In standard mode this is ``classify_documents([doc])``.  In rbf mode
    each category is one ``rbf_similarity`` call, which folds a run of this
    one document; ``classify_documents`` gives the same floats.
    """
    if mode != "rbf":
        return classify_documents([doc], categories, cfg, mode)[0]
    if not categories:
        raise ValueError("need at least one category")
    score = _scoring_module("rbfwin").rbf_similarity
    return rank_by_score((model.name, score(doc, model.query, cfg)) for model in categories)


def classify_documents(
    docs: Iterable[PositionalDocument],
    categories: Sequence[CategoryModel],
    cfg: RbfConfig,
    mode: str = "standard",
) -> list[list[tuple[str, float]]]:
    """``classify`` of each document, every category scored over all of them at once.

    In standard mode that is ``proxcore._leaf_similarities`` of the
    categories' leaves, in rbf mode ``mode_similarities`` per category;
    either gives each document the same floats as scoring it alone.
    """
    if not categories:
        raise ValueError("need at least one category")
    docs = list(docs)
    if mode == "standard":
        leaves = [model.leaf for model in categories]
        rows = _scoring_module("proxcore")._leaf_similarities(docs, leaves, cfg.kernel)
    else:
        rows = zip(*[mode_similarities(docs, model.query, cfg, mode) for model in categories])
    names = [model.name for model in categories]
    return [rank_by_score(zip(names, row)) for row in rows]


def mode_similarities(
    docs: Sequence[PositionalDocument], node: QueryNode, cfg: RbfConfig, mode: str
) -> list[float]:
    """The mode's similarity of each document, folded in runs (``proxcore._similarities``).

    That is ``similarity`` in standard mode and ``rbf_similarity`` in rbf
    mode.  This is the one mode check: any other mode raises ValueError
    here, before anything is scored.
    """
    if mode == "standard":
        profiles, settings = _scoring_module("proxcore")._term_profiles, cfg.kernel
    elif mode == "rbf":
        profiles, settings = _scoring_module("rbfwin")._rbf_term_profiles, cfg
    else:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    return _scoring_module("proxcore")._similarities(docs, node, profiles, settings)


def rank_by_score(pairs: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """Sort ``(name, score)`` pairs by descending score, ties by ascending name."""
    return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class CategoryMetrics:
    recall: float
    precision: float
    f1: float
    true_count: int
    predicted_count: int
    correct: int

    @property
    def recall_defined(self) -> bool:
        return self.true_count > 0

    @property
    def precision_defined(self) -> bool:
        return self.predicted_count > 0


@dataclass(frozen=True)
class EvalReport:
    """Per-category metrics, macro averages and the confusion matrix.

    ``confusion[i][j]`` counts documents of true category ``categories[i]``
    predicted as ``categories[j]``; row sums are the per-category true counts.
    """

    categories: tuple[str, ...]
    metrics: dict[str, CategoryMetrics]
    confusion: tuple[tuple[int, ...], ...]
    macro_recall: float
    macro_precision: float
    macro_f1: float

    def as_table(self) -> str:
        """Aligned plain-text rendering (a '*' marks zero-denominator metrics)."""
        width = max(len(c) for c in (*self.categories, _MACRO, "category"))

        def cell(value: float, flagged: bool = False) -> str:
            return f"{value:.6f}{'*' if flagged else ''}".rjust(11)

        rows = [
            f"{'category'.ljust(width)}  {'recall':>11}  {'precision':>11}  {'f1':>11}  {'docs':>6}"
        ]
        starred = False
        for name in self.categories:
            m = self.metrics[name]
            starred = starred or not (m.recall_defined and m.precision_defined)
            rows.append(
                f"{name.ljust(width)}  {cell(m.recall, not m.recall_defined)}  "
                f"{cell(m.precision, not m.precision_defined)}  {cell(m.f1)}  "
                f"{m.true_count:>6}"
            )
        total = sum(m.true_count for m in self.metrics.values())
        rows.append(
            f"{_MACRO.ljust(width)}  {cell(self.macro_recall)}  "
            f"{cell(self.macro_precision)}  {cell(self.macro_f1)}  {total:>6}"
        )
        rows.append("")
        rows.append("confusion (rows: true, columns: predicted)")
        rows.append(f"{''.ljust(width)}  " + "  ".join(c.rjust(width) for c in self.categories))
        for name, row in zip(self.categories, self.confusion):
            rows.append(f"{name.ljust(width)}  " + "  ".join(str(v).rjust(width) for v in row))
        if starred:
            rows.append("")
            rows.append("* metric had a zero denominator and defaults to 0")
        return "\n".join(rows)

    def as_records(self) -> str:
        """Machine-readable lines: category TAB recall TAB precision TAB f1."""
        lines = [
            f"{name}\t{m.recall:.6f}\t{m.precision:.6f}\t{m.f1:.6f}"
            for name, m in ((c, self.metrics[c]) for c in self.categories)
        ]
        lines.append(
            f"{_MACRO}\t{self.macro_recall:.6f}\t{self.macro_precision:.6f}\t{self.macro_f1:.6f}"
        )
        return "\n".join(lines)


def _safe_div(num: int, den: int) -> float:
    return num / den if den else 0.0


def metrics_from_confusion(
    categories: Sequence[str], confusion: Sequence[Sequence[int]]
) -> EvalReport:
    """Compute recall/precision/F1 per category from a confusion matrix."""
    names = tuple(categories)
    if not names:
        raise ValueError("need at least one category")
    if len(confusion) != len(names) or any(len(row) != len(names) for row in confusion):
        raise ValueError("confusion matrix shape does not match the category list")
    matrix = tuple(tuple(int(v) for v in row) for row in confusion)
    metrics: dict[str, CategoryMetrics] = {}
    for i, name in enumerate(names):
        correct = matrix[i][i]
        true_count = sum(matrix[i])
        predicted_count = sum(row[i] for row in matrix)
        recall = _safe_div(correct, true_count)
        precision = _safe_div(correct, predicted_count)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        metrics[name] = CategoryMetrics(
            recall=recall,
            precision=precision,
            f1=f1,
            true_count=true_count,
            predicted_count=predicted_count,
            correct=correct,
        )
    count = len(names)
    # macro means summed left to right, as in ``rbfwin.window_stats``, so
    # that they do not depend on the Python version
    return EvalReport(
        categories=names,
        metrics=metrics,
        confusion=matrix,
        macro_recall=reduce(add, [m.recall for m in metrics.values()], 0.0) / count,
        macro_precision=reduce(add, [m.precision for m in metrics.values()], 0.0) / count,
        macro_f1=reduce(add, [m.f1 for m in metrics.values()], 0.0) / count,
    )


def evaluate(
    corpus: Corpus,
    categories: Sequence[CategoryModel],
    cfg: RbfConfig,
    mode: str = "standard",
) -> EvalReport:
    """Top-1 classification quality over the labeled part of ``corpus``."""
    if not corpus.labels:
        raise ValueError("corpus has no labels")
    names = sorted(model.name for model in categories)
    if len(set(names)) != len(names):
        raise ValueError("duplicate category names")
    index = {name: i for i, name in enumerate(names)}
    labeled = [doc for doc in corpus if doc.doc_id in corpus.labels]
    for doc in labeled:
        label = corpus.labels[doc.doc_id]
        if label not in index:
            raise ValueError(f"document {doc.doc_id!r} has unknown label {label!r}")

    confusion = [[0] * len(names) for _ in names]
    for doc, ranking in zip(labeled, classify_documents(labeled, categories, cfg, mode)):
        confusion[index[corpus.labels[doc.doc_id]]][index[ranking[0][0]]] += 1
    return metrics_from_confusion(names, confusion)


# ---------------------------------------------------------------------------
# Category files
#
# Block format, '#' comment lines and blank lines ignored:
#
#     category: sport
#     descriptors: stem stem ...
#     equivalents: surface=stem surface=stem ...
#
# Terms are folded and stemmed on load, like query terms.


class CategoryFormatError(ValueError):
    """Raised for malformed category files; messages carry the line number."""


@dataclass
class _Block:
    name: str
    lineno: int
    descriptors: list[str] = field(default_factory=list)
    equivalents: list[tuple[str, str]] = field(default_factory=list)


def _finish_block(block: _Block, path: str | Path) -> CategoryModel:
    descriptors = frozenset(block.descriptors)
    equivalents: dict[str, str] = {}
    for surface, descriptor in block.equivalents:
        if surface in descriptors:
            continue  # identity mapping after stemming; nothing to rewrite
        if surface in equivalents and equivalents[surface] != descriptor:
            raise CategoryFormatError(
                f"{path}:{block.lineno}: category {block.name!r}: equivalent "
                f"{surface!r} maps to two descriptors"
            )
        equivalents[surface] = descriptor
    try:
        return CategoryModel(block.name, descriptors, equivalents)
    except ValueError as exc:
        raise CategoryFormatError(f"{path}:{block.lineno}: {exc}") from exc


def _parse_categories(
    lines: list[tuple[int, str]],
    path: str | Path,
    stemmer: LightStemmer | None,
) -> list[CategoryModel]:
    models: list[CategoryModel] = []
    block: _Block | None = None
    for lineno, line in lines:
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "category":
            if block is not None:
                models.append(_finish_block(block, path))
            if not rest:
                raise CategoryFormatError(f"{path}:{lineno}: category needs a name")
            block = _Block(name=rest, lineno=lineno)
        elif key == "descriptors":
            if block is None:
                raise CategoryFormatError(f"{path}:{lineno}: descriptors outside a category")
            block.descriptors.extend(stem_to_fixpoint(t, stemmer) for t in rest.split())
        elif key == "equivalents":
            if block is None:
                raise CategoryFormatError(f"{path}:{lineno}: equivalents outside a category")
            for pair in rest.split():
                surface, eq, descriptor = pair.partition("=")
                if not eq or not surface or not descriptor:
                    raise CategoryFormatError(
                        f"{path}:{lineno}: expected surface=descriptor, got {pair!r}"
                    )
                block.equivalents.append(
                    (stem_to_fixpoint(surface, stemmer), stem_to_fixpoint(descriptor, stemmer))
                )
        else:
            raise CategoryFormatError(f"{path}:{lineno}: unrecognized line {line!r}")
    if block is not None:
        models.append(_finish_block(block, path))
    if not models:
        raise CategoryFormatError(f"{path}:1: no categories found")
    seen: set[str] = set()
    for model in models:
        if model.name in seen:
            raise CategoryFormatError(f"{path}: duplicate category {model.name!r}")
        seen.add(model.name)
    return models


def load_categories(path: str | Path, stemmer: LightStemmer | None = None) -> list[CategoryModel]:
    """Read a category file (see module docs for the block grammar)."""
    return _parse_categories(read_lines(path), path, stemmer)


def save_categories(models: Sequence[CategoryModel], path: str | Path) -> None:
    """Write category blocks that ``load_categories`` restores exactly."""
    chunks = []
    for model in models:
        lines = [f"category: {model.name}", f"descriptors: {' '.join(sorted(model.descriptors))}"]
        if model.equivalents:
            pairs = " ".join(f"{s}={d}" for s, d in sorted(model.equivalents.items()))
            lines.append(f"equivalents: {pairs}")
        chunks.append("\n".join(lines))
    write_text_atomic(path, "\n\n".join(chunks) + "\n")


# ---------------------------------------------------------------------------
# Synthetic corpora


class SynthSpecError(ValueError):
    """Raised for invalid synthetic-corpus parameters or spec files."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters for a labeled synthetic corpus.

    Per position, a document draws noise with probability ``noise_rate``,
    another category's vocabulary with ``cross_rate``, and otherwise one of
    its own descriptors; a planted descriptor drags 1-2 of its equivalent
    terms in right next to it with probability ``injection_rate``.
    """

    categories: tuple[CategoryModel, ...]
    docs_per_category: int = 200
    doc_length: int = 120
    injection_rate: float = 0.8
    noise_rate: float = 0.3
    cross_rate: float = 0.0
    noise_vocab_size: int = 40

    def __post_init__(self):
        if not self.categories:
            raise SynthSpecError("need at least one category")
        if self.docs_per_category < 1:
            raise SynthSpecError("docs_per_category must be >= 1")
        if self.doc_length < 1:
            raise SynthSpecError("doc_length must be >= 1")
        for name, rate in (
            ("injection_rate", self.injection_rate),
            ("noise_rate", self.noise_rate),
            ("cross_rate", self.cross_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise SynthSpecError(f"{name} must lie in [0, 1], got {rate}")
        if self.noise_rate + self.cross_rate >= 1.0:
            raise SynthSpecError("noise_rate + cross_rate must leave room for own-category terms")
        if self.noise_vocab_size < 1:
            raise SynthSpecError("noise_vocab_size must be >= 1")


def uniform_synthetic_spec(
    n_categories: int = 3,
    n_descriptors: int = 2,
    n_equivalents: int = 4,
    **overrides,
) -> SyntheticSpec:
    """A ready-made spec with generated vocabulary (cat0d0, cat0e1, noise07, ...)."""
    if n_categories < 1 or n_descriptors < 1 or n_equivalents < 0:
        raise SynthSpecError("category/descriptor/equivalent counts out of range")
    categories = []
    for c in range(n_categories):
        name = f"cat{c}"
        descriptors = [f"{name}d{i}" for i in range(n_descriptors)]
        equivalents = {f"{name}e{j}": descriptors[j % n_descriptors] for j in range(n_equivalents)}
        categories.append(CategoryModel(name, frozenset(descriptors), equivalents))
    return SyntheticSpec(categories=tuple(categories), **overrides)


def generate_synthetic_corpus(
    spec: SyntheticSpec, seed: int
) -> tuple[Corpus, list[CategoryModel]]:
    """Deterministically generate a labeled corpus for the given spec and seed."""
    rng = random.Random(seed)
    noise_vocab = [f"noise{i:02d}" for i in range(spec.noise_vocab_size)]
    corpus = Corpus()
    models = list(spec.categories)
    cross_pools = {
        model.name: sorted(
            stem
            for other in models
            if other.name != model.name
            for stem in list(other.descriptors) + list(other.equivalents)
        )
        for model in models
    }
    for model in models:
        descriptors = sorted(model.descriptors)
        by_descriptor = _equivalents_by_descriptor(model)
        cross_pool = cross_pools[model.name]
        for j in range(spec.docs_per_category):
            tokens: list[str] = []
            while len(tokens) < spec.doc_length:
                roll = rng.random()
                if roll < spec.noise_rate or (roll < spec.noise_rate + spec.cross_rate and not cross_pool):
                    tokens.append(rng.choice(noise_vocab))
                elif roll < spec.noise_rate + spec.cross_rate:
                    tokens.append(rng.choice(cross_pool))
                else:
                    descriptor = rng.choice(descriptors)
                    tokens.append(descriptor)
                    pool = by_descriptor[descriptor]
                    if pool and rng.random() < spec.injection_rate:
                        for surface in rng.sample(pool, k=min(rng.randint(1, 2), len(pool))):
                            tokens.append(surface)
            doc_id = f"{model.name}-{j:04d}"
            corpus.add(build_document(doc_id, tokens[: spec.doc_length]), label=model.name)
    return corpus, models


def load_synthetic_spec(path: str | Path, stemmer: LightStemmer | None = None) -> SyntheticSpec:
    """Read a generator spec file: `key = value` parameters, then category blocks."""
    lines = read_lines(path)
    body = next(
        (i for i, (_, line) in enumerate(lines) if ":" in line.partition("=")[0]), len(lines)
    )
    try:
        params = read_settings(lines[:body], SyntheticSpec, path)
        categories = _parse_categories(lines[body:], path, stemmer)
        return SyntheticSpec(categories=tuple(categories), **params)  # type: ignore[arg-type]
    except SynthSpecError as exc:  # a parameter rejected by the spec: name the file
        raise SynthSpecError(f"{path}: {exc}") from exc
    except ValueError as exc:  # the readers name path:lineno themselves
        raise SynthSpecError(str(exc)) from exc
