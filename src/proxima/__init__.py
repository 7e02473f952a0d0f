"""Fuzzy positional proximity search and classification.

Documents are sequences of stems indexed by position; every occurrence of a
term spreads influence to nearby positions through a bounded kernel.  Queries
(terms, AND, OR, NEAR/k) are evaluated position by position and aggregated
into a length-normalized similarity.  An optional sliding-window RBF boost
folds the relevance of a position's semantic neighborhood back into its own
relevance before aggregation.
"""

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
from .posindex import (
    Corpus,
    CorpusFormatError,
    PositionalDocument,
    build_document,
    load_corpus,
    positions_of,
    save_corpus,
)
from .proxcore import (
    InfluenceKernel,
    eval_query_at,
    local_relevance,
    near_boolean,
    near_doc_relevance,
    query_profile,
    score,
    similarity,
    term_profile,
)
from .querylang import And, Near, Or, QueryParseError, Term, parse_query, render_query
from .rbfwin import (
    RbfConfig,
    WindowStats,
    gaussian_rbf,
    rbf_local_relevance,
    rbf_score,
    rbf_similarity,
    semantic_neighbors,
    window_neighbor_relevances,
    window_stats,
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
