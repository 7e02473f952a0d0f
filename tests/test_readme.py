"""The README's library quickstart runs as written, and every public name resolves."""

import ast
import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import proxima

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("textprep", "posindex", "querylang", "kernels", "proxcore", "rbfwin", "classify", "cli")


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
