"""The README's library quickstart runs as written, and every public name resolves."""

import ast
import importlib
import inspect
import io
from contextlib import redirect_stdout
from pathlib import Path

import proxima

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("textprep", "posindex", "querylang", "kernels", "proxcore", "rbfwin", "classify", "cli")
# every name the package exports, the ones read on first use included
PUBLIC = (
    "And", "CategoryModel", "Corpus", "CorpusFormatError", "EvalReport", "InfluenceKernel",
    "LightStemmer", "Near", "Or", "PositionalDocument", "QueryParseError", "RbfConfig",
    "SyntheticSpec", "Term", "WindowStats", "build_document", "category_query", "classify",
    "eval_query_at", "evaluate", "gaussian_rbf", "generate_synthetic_corpus", "light_stem",
    "load_categories", "load_corpus", "local_relevance", "metrics_from_confusion",
    "near_boolean", "near_doc_relevance", "normalize_text", "parse_query", "positions_of",
    "preprocess", "query_profile", "rbf_local_relevance", "rbf_similarity", "remove_stopwords",
    "render_query", "save_categories", "save_corpus", "score", "semantic_neighbors",
    "similarity", "substitute_equivalents", "term_profile", "tokenize", "uniform_synthetic_spec",
    "window_boost", "window_neighbor_relevances", "window_stats",
)


def test_quickstart_prints_its_two_similarities():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart") :]
    start = section.index("```python\n") + len("```python\n")
    block = section[start : section.index("```", start)]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().split() == ["0.36", "1.0"]


def test_every_public_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"proxima.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    # the package re-exports only names its modules list as public
    tree = ast.parse(Path(proxima.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        public = importlib.import_module(f"proxima.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module
    # the names read on first use resolve to their modules' public names, and dir() lists them
    assert proxima._LAZY
    for name, module_name in proxima._LAZY.items():
        module = importlib.import_module(f"proxima.{module_name}")
        assert name in module.__all__, name
        assert getattr(proxima, name) is getattr(module, name), name
    assert set(proxima._LAZY) <= set(dir(proxima))
    # a package attribute that is not lazy still raises
    assert not hasattr(proxima, "no_such_name")
    # the function, not the submodule of the same name
    assert proxima.classify is importlib.import_module("proxima.classify").classify
    # the scoring modules re-export the kernel settings, not copies
    assert importlib.import_module("proxima.proxcore").InfluenceKernel is proxima.InfluenceKernel
    assert importlib.import_module("proxima.rbfwin").RbfConfig is proxima.RbfConfig


def test_the_package_exports_its_listed_names():
    assert [name for name in PUBLIC if not hasattr(proxima, name)] == []
    exported = {
        name for name in dir(proxima)
        if not name.startswith("_") and not inspect.ismodule(getattr(proxima, name))
    }
    assert sorted(exported) == sorted(PUBLIC)
