"""Fuzzy positional proximity search and classification.

Documents are sequences of stems indexed by position; every occurrence of a
term spreads influence to nearby positions through a bounded kernel.  Queries
(terms, AND, OR, NEAR/k) are evaluated position by position and aggregated
into a length-normalized similarity.  An optional sliding-window RBF boost
folds the relevance of a position's semantic neighborhood back into its own
relevance before aggregation.

The names from ``proxcore`` and ``rbfwin``, the two modules that import
numpy, and from the query parser ``querylang`` are resolved when first
read (``_LAZY``, PEP 562), so importing the package, or running ``proxima
index`` or ``proxima gen-synth``, loads none of the three.  ``from proxima
import similarity`` works as before.  ``classify`` stays eager: the
package's ``classify`` is the function, which a lazily imported
submodule of that name would replace.
"""

import importlib

from .classify import (
    CategoryModel,
    EvalReport,
    SyntheticSpec,
    category_query,
    classify,
    evaluate,
    generate_synthetic_corpus,
    load_categories,
    metrics_from_confusion,
    save_categories,
    substitute_equivalents,
    uniform_synthetic_spec,
)
from .kernels import InfluenceKernel, RbfConfig
from .posindex import (
    Corpus,
    CorpusFormatError,
    PositionalDocument,
    build_document,
    load_corpus,
    positions_of,
    save_corpus,
)
from .textprep import (
    LightStemmer,
    light_stem,
    normalize_text,
    preprocess,
    remove_stopwords,
    tokenize,
)

__version__ = "0.1.0"

# public name -> the module it is read from on first use
_LAZY = {
    **dict.fromkeys(
        ("eval_query_at", "local_relevance", "near_boolean", "near_doc_relevance",
         "query_profile", "score", "similarity", "term_profile"),
        "proxcore",
    ),
    **dict.fromkeys(
        ("WindowStats", "gaussian_rbf", "rbf_local_relevance", "rbf_similarity",
         "semantic_neighbors", "window_boost", "window_neighbor_relevances", "window_stats"),
        "rbfwin",
    ),
    **dict.fromkeys(
        ("And", "Near", "Or", "QueryParseError", "Term", "parse_query", "render_query"), "querylang"
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])
