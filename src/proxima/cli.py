"""Batch command-line front end.

Subcommands: ``index`` a directory of .txt files into a corpus file, ``query``
a corpus, ``classify`` it against category models, ``eval`` labeled corpora,
and ``gen-synth`` synthetic labeled corpora.  Settings come from built-in
defaults, then an optional ``key = value`` config file, then ``--preset``,
then individual flags, each layer overriding the previous one.

Exit codes: 0 success, 1 I/O failure, 2 usage or content errors.

This module imports nothing that needs numpy.  ``RunConfig`` checks the
scoring settings with the scalar classes of ``kernels``, and ``classify``
imports ``proxcore`` and ``rbfwin`` only where it scores, so ``index``,
``gen-synth``, ``--help`` and every usage or settings error run without
loading numpy.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .classify import (
    MODES,
    classify_documents,
    evaluate,
    generate_synthetic_corpus,
    load_categories,
    load_synthetic_spec,
    mode_similarities,
    rank_by_score,
    save_categories,
)
from .kernels import KERNEL_SHAPES, InfluenceKernel, RbfConfig
from .posindex import Corpus, build_document, load_corpus, save_corpus
from .querylang import parse_query
from .textprep import (
    LightStemmer,
    default_stemmer,
    default_stoplist,
    load_stemmer_rules,
    load_stoplist,
    preprocess,
    read_lines,
    read_settings,
    read_text,
)

__all__ = ["RunConfig", "ConfigError", "main"]

PRESET_WIDTHS = {"phrase": 5, "paragraph": 100}


class ConfigError(ValueError):
    """Bad config-file entry or flag combination."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings shared by all subcommands.

    The scoring settings are checked by the library classes they build, whose
    ValueError becomes a ConfigError here.
    """

    kernel: str = "triangular"
    k: int = 5
    kf: int = 5
    threshold: float = 1.0
    clamp: bool = True
    mode: str = "standard"
    stoplist: str | None = None
    stemmer_rules: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        try:
            rbf = RbfConfig(InfluenceKernel(self.kernel, self.k), self.kf, self.threshold, self.clamp)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "_rbf", rbf)

    def rbf_config(self) -> RbfConfig:
        return self._rbf

    def load_stemmer(self) -> LightStemmer:
        return load_stemmer_rules(self.stemmer_rules) if self.stemmer_rules else default_stemmer()

    def load_stoplist(self) -> frozenset[str]:
        return load_stoplist(self.stoplist) if self.stoplist else default_stoplist()


def _with_preset(cfg: RunConfig, preset: str) -> RunConfig:
    if preset not in PRESET_WIDTHS:
        raise ConfigError(f"unknown preset {preset!r}, expected one of {tuple(PRESET_WIDTHS)}")
    return replace(cfg, k=PRESET_WIDTHS[preset])


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config file, preset and explicit flags into a RunConfig."""
    cfg = RunConfig()
    if path := getattr(args, "config", None):
        try:
            entries = read_settings(
                read_lines(path), RunConfig, path, extra={"workers": int, "preset": str}
            )
            preset = entries.pop("preset", None)
            entries.pop("workers", None)  # accepted for compatibility; has no effect
            cfg = RunConfig(**entries)  # type: ignore[arg-type]
            if preset is not None:
                cfg = _with_preset(cfg, preset)  # type: ignore[arg-type]
        except ConfigError as exc:  # a value the file layer rejects: name the file
            raise ConfigError(f"{path}: {exc}") from exc
        except ValueError as exc:  # read_settings names path:lineno itself
            raise ConfigError(str(exc)) from exc
    if getattr(args, "preset", None):
        cfg = _with_preset(cfg, args.preset)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    if getattr(args, "no_clamp", False):
        overrides["clamp"] = False
    return replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# Subcommands


def _read_manifest(path: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    for lineno, line in read_lines(path):
        cells = line.split("\t")
        if len(cells) != 2:
            raise ValueError(f"{path}:{lineno}: expected filename<TAB>label")
        labels[cells[0]] = cells[1]
    return labels


def cmd_index(args: argparse.Namespace, cfg: RunConfig) -> int:
    input_dir = Path(args.input_dir)
    if not input_dir.is_dir():
        print(f"error: {input_dir} is not a directory", file=sys.stderr)
        return 1
    manifest = _read_manifest(args.manifest) if args.manifest else {}
    stoplist = cfg.load_stoplist()
    stemmer = cfg.load_stemmer()
    corpus = Corpus()
    indexed: set[str] = set()  # the names and stems a manifest entry can match
    for path in sorted(input_dir.glob("*.txt")):
        try:
            text = read_text(path)
        except (OSError, ValueError) as exc:  # unreadable, or not UTF-8
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        label = manifest.get(path.name, manifest.get(path.stem))
        corpus.add(build_document(path.stem, preprocess(text, stoplist, stemmer)), label=label)
        indexed.update((path.name, path.stem))
    if not corpus.documents:
        print(f"error: no documents indexed from {input_dir}", file=sys.stderr)
        return 1
    for entry in manifest:
        if entry not in indexed:  # a typo would otherwise leave its document unlabeled
            print(f"warning: manifest entry {entry!r} matches no indexed file", file=sys.stderr)
    save_corpus(corpus, args.out)
    positions = sum(doc.n for doc in corpus)
    distinct = len(set().union(*(doc.stems for doc in corpus)))
    print(
        f"indexed {len(corpus)} documents, {positions} term positions, "
        f"{distinct} distinct stems -> {args.out}"
    )
    return 0


def cmd_query(args: argparse.Namespace, cfg: RunConfig) -> int:
    if (args.query is None) == (args.query_file is None):
        print("error: provide exactly one of QUERY or --query-file", file=sys.stderr)
        return 2
    corpus = load_corpus(args.corpus)
    stemmer = cfg.load_stemmer()
    if args.query is not None:
        queries = [(args.query, parse_query(args.query, stemmer))]
    else:
        queries = []  # all parsed before any is scored, so a bad line prints nothing
        for lineno, line in enumerate(read_text(args.query_file).splitlines(), start=1):
            if text := line.strip():
                try:
                    queries.append((text, parse_query(text, stemmer)))
                except ValueError as exc:
                    raise ValueError(f"{args.query_file}:{lineno}: {exc}") from exc
        if not queries:
            raise ValueError(f"{args.query_file}: no queries")
    rbf = cfg.rbf_config()
    docs = list(corpus)
    for number, (text, node) in enumerate(queries, start=1):
        scores = mode_similarities(docs, node, rbf, cfg.mode)
        ranked = rank_by_score((doc.doc_id, value) for doc, value in zip(docs, scores) if value > 0.0)
        if len(queries) > 1:
            print(f"# query {number}: {text}")
        for rank, (doc_id, value) in enumerate(ranked, start=1):
            print(f"{rank}\t{doc_id}\t{value:.6f}")
    return 0


def cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    categories = load_categories(args.categories, cfg.load_stemmer())
    rbf = cfg.rbf_config()
    docs = list(corpus)
    tops = [ranking[0] for ranking in classify_documents(docs, categories, rbf, cfg.mode)]
    for doc, (name, value) in zip(docs, tops):
        print(f"{doc.doc_id}\t{name}\t{value:.6f}")
    return 0


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    categories = load_categories(args.categories, cfg.load_stemmer())
    report = evaluate(corpus, categories, cfg.rbf_config(), cfg.mode)
    print(report.as_table())
    print()
    print(report.as_records())
    return 0


def cmd_gen_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = load_synthetic_spec(args.spec, cfg.load_stemmer())
    corpus, models = generate_synthetic_corpus(spec, cfg.seed)
    save_corpus(corpus, args.out_corpus)
    save_categories(models, args.out_categories)
    print(
        f"generated {len(corpus)} documents across {len(models)} categories "
        f"-> {args.out_corpus}, {args.out_categories}"
    )
    return 0


# ---------------------------------------------------------------------------
# Wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key = value settings file")
    common.add_argument("--kernel", choices=KERNEL_SHAPES, help="influence kernel shape")
    common.add_argument("--k", type=int, help="kernel width (area of influence)")
    common.add_argument("--kf", type=int, help="sliding-window half-width for rbf mode")
    common.add_argument("--threshold", type=float, help="semantic band width in standard deviations")
    common.add_argument("--mode", choices=MODES, help="scoring mode")
    common.add_argument("--no-clamp", action="store_true", help="let boosted relevance exceed 1")
    common.add_argument("--stoplist", metavar="FILE", help="stop-word file (default: packaged Arabic list)")
    common.add_argument(
        "--stemmer-rules", dest="stemmer_rules", metavar="FILE",
        help="affix-rule file (default: packaged Arabic rules)",
    )
    common.add_argument("--seed", type=int, help="random seed for gen-synth")
    common.add_argument("--workers", type=int, help="accepted for compatibility; has no effect")
    common.add_argument("--preset", choices=tuple(PRESET_WIDTHS), help="kernel width preset")

    parser = argparse.ArgumentParser(
        prog="proxima",
        description="Fuzzy positional proximity search and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[common], help="preprocess a directory of .txt files")
    p.add_argument("input_dir", help="directory of UTF-8 .txt files (file name = doc id)")
    p.add_argument("--out", required=True, help="corpus file to write")
    p.add_argument("--manifest", help="optional filename<TAB>label list for labels")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", parents=[common], help="rank corpus documents against a query")
    p.add_argument("corpus", help="corpus file")
    p.add_argument("query", nargs="?", help="query string, e.g. 'a AND (b NEAR/5 c)'")
    p.add_argument("--query-file", dest="query_file", help="file with one query per line")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("classify", parents=[common], help="label each document with its best category")
    p.add_argument("corpus", help="corpus file")
    p.add_argument("--categories", required=True, help="category definition file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", parents=[common], help="score top-1 predictions against corpus labels")
    p.add_argument("corpus", help="labeled corpus file")
    p.add_argument("--categories", required=True, help="category definition file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen-synth", parents=[common], help="generate a labeled synthetic corpus")
    p.add_argument("spec", help="generator spec file")
    p.add_argument("--out-corpus", dest="out_corpus", required=True)
    p.add_argument("--out-categories", dest="out_categories", required=True)
    p.set_defaults(func=cmd_gen_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args, resolve_config(args))
    except ValueError as exc:  # ConfigError and every format error are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
