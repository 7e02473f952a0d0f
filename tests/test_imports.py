"""Commands that score nothing import no numpy.

``index``, ``gen-synth``, ``--help`` and a rejected setting run in a fresh
interpreter with ``src`` on the path, and must finish with numpy and the two
scoring modules (``proxcore``, ``rbfwin``) still unimported; the first three
leave the query parser (``querylang``) unimported too.  A scoring
command imports them where it first scores, and prints what it printed
in-process; in standard mode it never imports ``rbfwin``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proxima.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SCORING = ("numpy", "proxima.proxcore", "proxima.rbfwin")

# runs main() on the arguments after its first, then prints the exit code and
# which of the modules named by its first argument (a JSON list) the run
# imported as the last line of stdout
RUNNER = """
import json, sys
from proxima.cli import main
watched = json.loads(sys.argv[1])
code = main(sys.argv[2:])
print(json.dumps({"code": code, "loaded": [m for m in watched if m in sys.modules]}))
"""


def run_fresh(*argv, watched=SCORING):
    """(exit code, ``watched`` modules loaded, stdout before the report, stderr) of ``main(argv)``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(watched), *map(str, argv)],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=120,
    )
    *out, last = result.stdout.splitlines()
    report = json.loads(last)
    return report["code"], report["loaded"], "".join(line + "\n" for line in out), result.stderr


def test_index_imports_no_numpy(tmp_path):
    out = tmp_path / "press.tsv"
    code, loaded, stdout, _ = run_fresh(
        "index", DATA / "press", "--out", out, "--manifest", DATA / "press-labels.tsv"
    )
    assert (code, loaded) == (0, [])
    assert stdout.startswith("indexed 4 documents")
    assert out.read_text(encoding="utf-8").count("\teconomy\t") == 2


def test_gen_synth_imports_no_numpy(tmp_path):
    corpus, cats = tmp_path / "synth.tsv", tmp_path / "cats.txt"
    code, loaded, stdout, _ = run_fresh(
        "gen-synth", DATA / "synth-spec.txt", "--out-corpus", corpus, "--out-categories", cats
    )
    assert (code, loaded) == (0, [])
    assert stdout.startswith("generated 36 documents across 3 categories")


def test_help_imports_no_numpy():
    code, loaded, stdout, _ = run_fresh("--help")
    assert (code, loaded) == (0, [])
    assert stdout.startswith("usage: proxima")


def test_commands_that_parse_no_query_import_no_query_parser(tmp_path):
    corpus = tmp_path / "press.tsv"
    for argv in (
        ("index", DATA / "press", "--out", corpus),
        ("gen-synth", DATA / "synth-spec.txt", "--out-corpus", tmp_path / "synth.tsv",
         "--out-categories", tmp_path / "cats.txt"),
        ("--help",),
    ):
        code, loaded, _, _ = run_fresh(*argv, watched=(*SCORING, "proxima.querylang"))
        assert (code, loaded) == (0, [])
    # the check can see the parser: a query loads it
    code, loaded, _, _ = run_fresh("query", corpus, "الأسواق", watched=("proxima.querylang",))
    assert (code, loaded) == (0, ["proxima.querylang"])


def test_rejected_setting_exits_2_without_numpy(tmp_path):
    code, loaded, stdout, stderr = run_fresh("index", DATA / "press", "--out", tmp_path / "c.tsv", "--k", "0")
    assert (code, loaded, stdout) == (2, [], "")
    assert stderr == "error: kernel width must be >= 1, got 0\n"
    assert not (tmp_path / "c.tsv").exists()


@pytest.mark.parametrize(
    "mode, loaded", [("standard", ["numpy", "proxima.proxcore"]), ("rbf", list(SCORING))]
)
def test_query_imports_what_it_scores_with(capsys, tmp_path, mode, loaded):
    corpus = tmp_path / "press.tsv"
    assert main(["index", str(DATA / "press"), "--out", str(corpus)]) == 0
    argv = ["query", str(corpus), "الأسواق OR (المباراة NEAR/4 الفريق)", "--mode", mode]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert len(expected.splitlines()) == 4
    assert run_fresh(*argv) == (0, loaded, expected, "")


@pytest.mark.parametrize("command", ["classify", "eval"])
def test_standard_classification_imports_no_rbf_module(capsys, tmp_path, command):
    corpus, cats = tmp_path / "synth.tsv", tmp_path / "cats.txt"
    assert main(["gen-synth", str(DATA / "synth-spec.txt"), "--out-corpus", str(corpus),
                 "--out-categories", str(cats)]) == 0
    argv = [command, str(corpus), "--categories", str(cats), "--mode", "standard"]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert expected
    assert run_fresh(*argv) == (0, ["numpy", "proxima.proxcore"], expected, "")
