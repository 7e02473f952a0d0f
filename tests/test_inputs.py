"""Input files and settings: the shared line readers, storable fields, finite thresholds, widths.

The fuzz tests feed arbitrary text to every file reader, directly and through
``main()``: each reader returns a value or raises its module's format error,
and the command line exits 0, 1 or 2 without a traceback.
"""

import argparse
import io
import math
import re
from dataclasses import fields
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxima.classify import (
    CategoryFormatError,
    CategoryModel,
    SynthSpecError,
    SyntheticSpec,
    classify,
    evaluate,
    load_categories,
    load_synthetic_spec,
    save_categories,
)
from proxima.cli import (
    ConfigError,
    RunConfig,
    _read_manifest,
    build_parser,
    main,
    resolve_config,
)
from proxima.posindex import (
    CORPUS_HEADER,
    Corpus,
    CorpusFormatError,
    build_document,
    load_corpus,
    save_corpus,
)
from proxima.proxcore import InfluenceKernel, near_boolean, near_doc_relevance
from proxima.querylang import QueryParseError, parse_query
from proxima.rbfwin import RbfConfig
from proxima.textprep import load_stemmer_rules, load_stoplist, read_lines, read_text

# A tab and every character at which str.splitlines breaks a line.
UNSTORABLE = "\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

FUZZ = settings(max_examples=60, deadline=None)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    docs = root / "docs"
    docs.mkdir()
    (docs / "d1.txt").write_text("الكتاب جديد في المكتبة kora", encoding="utf-8")
    (docs / "d2.txt").write_text("قرأ الولد الكتاب القديم suq", encoding="utf-8")
    corpus = Corpus()
    corpus.add(build_document("d1", ["kora", "suq", "kora"]), label="sport")
    corpus.add(build_document("d2", ["suq", "mal"]))
    save_corpus(corpus, root / "corpus.tsv")
    return root


class TestReadLines:
    def test_strips_and_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("  # note\n\n  x = 1 \n#y\n\tz\u2028w\n", encoding="utf-8")
        assert read_lines(path) == [(3, "x = 1"), (5, "z"), (6, "w")]

    def test_manifest_takes_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# labels\n\na.txt\tsport\n", encoding="utf-8")
        assert _read_manifest(path) == {"a.txt": "sport"}
        path.write_text("# labels\na.txt sport\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            _read_manifest(path)


class TestSettings:
    def test_spec_keys_read_dash_as_underscore(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("Doc-Length = 7\ncategory: x\ndescriptors: kora\n", encoding="utf-8")
        assert load_synthetic_spec(path).doc_length == 7

    def test_spec_and_config_errors_name_line_and_key(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "# c\ndoc_length = 4\nnoise_rate = lots\ncategory: x\ndescriptors: kora\n",
            encoding="utf-8",
        )
        with pytest.raises(SynthSpecError, match=r"spec\.txt:3: noise_rate: "):
            load_synthetic_spec(spec)
        config = tmp_path / "run.conf"
        config.write_text("k = 3\nclamp = maybe\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.conf:2: clamp: expected a boolean"):
            resolve_config(argparse.Namespace(config=str(config)))

    def test_config_overrides_come_from_run_config_fields(self):
        args = argparse.Namespace(
            config=None, kernel="gaussian", k=3, kf=4, threshold=0.5, mode="rbf",
            stoplist="s.txt", stemmer_rules="r.txt", seed=9, workers=2, preset=None, no_clamp=True,
        )
        assert resolve_config(args) == RunConfig(
            kernel="gaussian", k=3, kf=4, threshold=0.5, clamp=False, mode="rbf",
            stoplist="s.txt", stemmer_rules="r.txt", seed=9,
        )


# each RunConfig field, plus the two keys that are not fields: config file
# line, and the flags that set the same
KEY_AND_FLAG = {
    "kernel": ("kernel = gaussian", ["--kernel", "gaussian"]),
    "k": ("k = 9", ["--k", "9"]),
    "kf": ("kf = 3", ["--kf", "3"]),
    "threshold": ("threshold = 0.5", ["--threshold", "0.5"]),
    "clamp": ("clamp = off", ["--no-clamp"]),
    "mode": ("mode = rbf", ["--mode", "rbf"]),
    "stoplist": ("stoplist = stop.txt", ["--stoplist", "stop.txt"]),
    "stemmer_rules": ("stemmer-rules = rules.txt", ["--stemmer-rules", "rules.txt"]),
    "seed": ("seed = 7", ["--seed", "7"]),
    "workers": ("workers = 2", ["--workers", "2"]),
    "preset": ("preset = paragraph", ["--preset", "paragraph"]),
}

# each SyntheticSpec parameter: its spec line and the value read
SPEC_KEYS = {
    "docs_per_category": ("docs_per_category = 7", 7),
    "doc_length": ("doc_length = 9", 9),
    "injection_rate": ("injection_rate = 0.5", 0.5),
    "noise_rate": ("noise_rate = 0.25", 0.25),
    "cross_rate": ("cross_rate = 0.125", 0.125),
    "noise_vocab_size": ("noise_vocab_size = 3", 3),
}


class TestOneSettingsRule:
    def test_the_cases_cover_every_key(self):
        assert set(KEY_AND_FLAG) == {f.name for f in fields(RunConfig)} | {"workers", "preset"}
        assert set(SPEC_KEYS) == {f.name for f in fields(SyntheticSpec)} - {"categories"}

    @pytest.mark.parametrize("key", KEY_AND_FLAG)
    def test_config_key_equals_its_flag(self, key, tmp_path):
        line, flags = KEY_AND_FLAG[key]
        config = tmp_path / "run.conf"
        config.write_text(line + "\n", encoding="utf-8")
        parse = build_parser().parse_args
        from_file = resolve_config(parse(["query", "c.tsv", "q", "--config", str(config)]))
        from_flags = resolve_config(parse(["query", "c.tsv", "q", *flags]))
        assert from_file == from_flags
        assert (from_file == RunConfig()) == (key == "workers")  # workers has no effect

    @pytest.mark.parametrize("key", SPEC_KEYS)
    def test_spec_key_sets_its_parameter(self, key, tmp_path):
        line, value = SPEC_KEYS[key]
        path = tmp_path / "spec.txt"
        path.write_text(f"{line}\ncategory: x\ndescriptors: kora\n", encoding="utf-8")
        spec = load_synthetic_spec(path)
        assert spec == SyntheticSpec(categories=spec.categories, **{key: value})
        assert type(getattr(spec, key)) is type(value)

    @pytest.mark.parametrize(
        "line, flags",
        [
            ("mode = RBF", ["--mode", "rbf"]),
            ("kernel = Gaussian", ["--kernel", "gaussian"]),
            ("k = 0", ["--k", "3"]),
            ("preset = chapter", ["--preset", "phrase"]),
        ],
        ids=["mode", "kernel", "k", "preset"],
    )
    def test_bad_config_value_names_the_file(self, line, flags, workdir, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text(line + "\n", encoding="utf-8")
        # each layer is checked on its own, so a flag that overrides the value
        # does not make the file valid
        for extra in ([], flags):
            code, out, err = run_main(
                ["query", workdir / "corpus.tsv", "kora", "--config", config, *extra]
            )
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {config}: ")


class TestStorableFields:
    def test_lone_surrogates_are_rejected_where_saved(self, tmp_path):
        # str allows them, but no UTF-8 file can hold one
        with pytest.raises(ValueError, match="lone surrogates"):
            CategoryModel("a\ud800", frozenset({"kora"}))
        with pytest.raises(ValueError, match="bad descriptor"):
            CategoryModel("x", frozenset({"a\ud800"}))
        with pytest.raises(ValueError, match="bad equivalent"):
            CategoryModel("x", frozenset({"kora"}), {"a\udfff": "kora"})
        corpus = Corpus()
        corpus.add(build_document("d", ["kora"]), label="\udfff")
        with pytest.raises(ValueError, match="lone surrogates"):
            save_corpus(corpus, tmp_path / "c.tsv")
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("ch", UNSTORABLE)
    def test_tabs_and_line_breaks_are_rejected_where_saved(self, ch, tmp_path):
        bad = f"a{ch}b"
        with pytest.raises(ValueError, match="line breaks"):
            CategoryModel(bad, frozenset({"kora"}))
        by_id = Corpus()
        by_id.add(build_document(bad, ["kora"]))
        with pytest.raises(ValueError, match="line breaks"):
            save_corpus(by_id, tmp_path / "c.tsv")
        by_label = Corpus()
        by_label.add(build_document("d", ["kora"]), label=bad)
        with pytest.raises(ValueError, match="line breaks"):
            save_corpus(by_label, tmp_path / "c.tsv")
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("name", [" ab", "ab ", "ab\x1f"])
    def test_category_names_with_outer_whitespace_are_rejected(self, name):
        with pytest.raises(ValueError, match="whitespace"):
            CategoryModel(name, frozenset({"kora"}))

    def test_equivalent_with_equals_sign_is_rejected(self):
        # saved as 'a=b=c', it would reload as the equivalent 'a' of descriptor 'b=c'
        with pytest.raises(ValueError, match="bad equivalent"):
            CategoryModel("x", frozenset({"c", "b=c"}), {"a=b": "c"})

    @pytest.mark.parametrize("name", ["a b", "#x", "a:b=c", "a\x1fb", "-x"])
    def test_ordinary_punctuation_round_trips(self, name, tmp_path):
        corpus = Corpus()
        corpus.add(build_document(name, ["kora"]), label=name)
        save_corpus(corpus, tmp_path / "c.tsv")
        assert load_corpus(tmp_path / "c.tsv") == corpus
        models = [CategoryModel(name, frozenset({"kora"}))]
        save_categories(models, tmp_path / "k.txt")
        assert load_categories(tmp_path / "k.txt") == models

    def test_index_rejects_a_file_name_with_a_line_break(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a\u2028b.txt").write_text("الكتاب جديد", encoding="utf-8")
        out = tmp_path / "idx.tsv"
        code, _, err = run_main(["index", docs, "--out", out])
        assert code == 2
        assert "line breaks" in err
        assert not out.exists()


# Text that mixes arbitrary characters with the pieces the readers look for.
# Decimal digits are removed, so no fuzzed setting can ask for a huge corpus.
_FRAGMENTS = [
    "category:", "descriptors:", "equivalents:", "PREFIXES", "SUFFIXES", "#", "=", ":",
    "\t", " ", "\n", "\r\n", "\x85", "\u2028", "\f", "kora", "suq", "bnk=suq", "ال", "ة",
    "kernel", "mode", "rbf", "threshold", "clamp", "preset", "doc-length", "noise_rate",
    "nan", "inf", "true", "-", CORPUS_HEADER, "d1.txt", "macro",
]
fuzz_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_FRAGMENTS) | st.text(max_size=3), max_size=25).map("".join),
).map(lambda text: "".join(ch for ch in text if not ch.isdecimal()))


def _load_config(path):
    return resolve_config(argparse.Namespace(config=str(path)))


def _index_with(flag):
    return lambda f, w: ["index", w / "docs", "--out", w / "o.tsv", flag, f]


# reader, the error it raises for bad content, and a command that reads the file
READERS = {
    "stoplist": (load_stoplist, ValueError, _index_with("--stoplist")),
    "stemmer-rules": (load_stemmer_rules, ValueError, _index_with("--stemmer-rules")),
    "manifest": (_read_manifest, ValueError, _index_with("--manifest")),
    "corpus": (load_corpus, CorpusFormatError, lambda f, w: ["query", f, "kora OR suq"]),
    "categories": (
        load_categories, CategoryFormatError,
        lambda f, w: ["classify", w / "corpus.tsv", "--categories", f, "--mode", "rbf"],
    ),
    "spec": (
        load_synthetic_spec, SynthSpecError,
        lambda f, w: ["gen-synth", f, "--out-corpus", w / "s.tsv", "--out-categories", w / "s.txt"],
    ),
    "config": (
        _load_config, ConfigError,
        lambda f, w: ["query", w / "corpus.tsv", "kora", "--config", f],
    ),
}


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(text=fuzz_text)
def test_any_text_reads_or_fails_cleanly(kind, text, workdir):
    reader, format_error, argv = READERS[kind]
    path = workdir / f"fuzz-{kind}.txt"
    path.write_text(text, encoding="utf-8")
    try:
        reader(path)
    except format_error:
        pass
    code, _, err = run_main(argv(path, workdir))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


names = st.text(st.characters() | st.sampled_from(UNSTORABLE + " \x1f"), max_size=8)


@FUZZ
@given(
    doc_id=names,
    label=st.none() | names,
    stems=st.lists(st.sampled_from(["kora", "suq", "كتاب"]), max_size=4),
)
def test_whatever_save_corpus_writes_loads_back_equal(doc_id, label, stems, workdir):
    corpus = Corpus()
    corpus.add(build_document(doc_id, stems), label=label)
    try:
        save_corpus(corpus, workdir / "round-trip.tsv")
    except ValueError:
        return
    assert load_corpus(workdir / "round-trip.tsv") == corpus


def test_a_corpus_cut_mid_record_exits_2(tmp_path):
    """d2's record has no line end, so the file was cut inside it; nothing is ranked."""
    path = tmp_path / "cut.tsv"
    path.write_text(f"{CORPUS_HEADER}\nd1\t-\tb c\nd2\t-\ta b", encoding="utf-8")
    code, out, err = run_main(["query", path, "a"])
    assert (code, out) == (2, "")
    assert err == f"error: {path}:3: the file ends mid-line, as if cut short\n"


@FUZZ
@given(name=names)
def test_whatever_save_categories_writes_loads_back_equal(name, workdir):
    try:
        models = [CategoryModel(name, frozenset({"kora", "suq"}), {"bnk": "suq"})]
    except ValueError:
        return
    save_categories(models, workdir / "round-trip.txt")
    assert load_categories(workdir / "round-trip.txt") == models


class TestFiniteThreshold:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_run_config_rejects_non_finite_threshold(self, value):
        with pytest.raises(ConfigError, match="threshold_scale must be finite"):
            RunConfig(threshold=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rbf_config_rejects_non_finite_threshold_scale(self, value):
        with pytest.raises(ValueError, match="threshold_scale must be finite"):
            RbfConfig(InfluenceKernel("rectangular", 3), kf=2, threshold_scale=value)

    def test_command_line_exits_2(self, workdir):
        corpus = workdir / "corpus.tsv"
        code, _, err = run_main(["query", corpus, "kora", "--mode", "rbf", "--threshold", "nan"])
        assert code == 2 and "threshold" in err
        config = workdir / "inf.conf"
        config.write_text("threshold = inf\n", encoding="utf-8")
        code, _, err = run_main(["query", corpus, "kora", "--config", config])
        assert code == 2 and "threshold" in err


# A width that no float can hold (about 1.8e308 is the largest).
HUGE = "9" * 401


class TestWidths:
    def test_library_rejects_widths_without_a_float(self):
        doc = build_document("d", ["kora", "suq"])
        with pytest.raises(ValueError, match="kernel width is too large"):
            InfluenceKernel("triangular", int(HUGE))
        for near in (near_doc_relevance, near_boolean):
            with pytest.raises(ValueError, match="NEAR width is too large"):
                near(doc, "kora", "suq", int(HUGE))
        with pytest.raises(QueryParseError, match="column 6: .*NEAR width is too large") as raised:
            parse_query(f"kora NEAR/{HUGE} suq")
        assert raised.value.column == 6

    @pytest.mark.parametrize("mode", ["standard", "rbf"])
    def test_huge_k_exits_2(self, mode, workdir, tmp_path):
        corpus = workdir / "corpus.tsv"
        categories = tmp_path / "cats.txt"
        categories.write_text("category: sport\ndescriptors: kora\n", encoding="utf-8")
        config = tmp_path / "huge.conf"
        config.write_text(f"k = {HUGE}\n", encoding="utf-8")
        for argv in (
            ["query", corpus, "kora", "--mode", mode, "--k", HUGE],
            ["query", corpus, "kora", "--mode", mode, "--config", config],
            ["eval", corpus, "--categories", categories, "--mode", mode, "--k", HUGE],
        ):
            code, out, err = run_main(argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "kernel width is too large" in err

    # d1 holds both terms, d2 only one of them, and neither term is in any document
    @pytest.mark.parametrize("query", ["kora NEAR/{} suq", "mal NEAR/{} kora", "x NEAR/{} y"])
    def test_huge_near_width_is_a_parse_error(self, query, workdir):
        code, out, err = run_main(["query", workdir / "corpus.tsv", query.format(HUGE)])
        column = query.index("NEAR") + 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: column {column}: ") and "NEAR width is too large" in err

    def test_largest_power_of_two_width_runs(self, workdir):
        for mode in ("standard", "rbf"):
            code, out, err = run_main(
                ["query", workdir / "corpus.tsv", "kora", "--mode", mode, "--k", str(2**1023)]
            )
            assert (code, err) == (0, "")
            assert [line.split("\t")[1] for line in out.splitlines()] == ["d1"]

    @pytest.mark.parametrize(
        "setting", ["kernel = boxcar", "k = 0", "kf = 0", "threshold = -1", "mode = fast"]
    )
    def test_bad_scoring_settings_exit_2(self, setting, workdir, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text(setting + "\n", encoding="utf-8")
        key, _, value = setting.partition(" = ")
        for argv in (["--config", config], [f"--{key}", value]):
            code, out, err = run_main(["query", workdir / "corpus.tsv", "kora", *argv])
            assert (code, out) == (2, "")
            assert "error: " in err and "Traceback" not in err


# input kind: its text, a command that reads it from f (with the shared files in
# w and any output going to o), and a check that its first line took effect
BOM_CASES = {
    "query-file": (
        "kora\nmal\n",
        lambda f, w, o: ["query", w / "corpus.tsv", "--query-file", f],
        lambda out, written: "# query 1: kora\n1\td1\t" in out,
    ),
    "manifest": (
        "d1.txt\tsport\n",
        lambda f, w, o: ["index", w / "docs", "--out", o, "--manifest", f],
        lambda out, written: "d1\tsport\t" in written,
    ),
    "stoplist": (
        "kora\n",
        lambda f, w, o: ["index", w / "docs", "--out", o, "--stoplist", f],
        lambda out, written: "kora" not in written,
    ),
    "stemmer-rules": (
        "SUFFIXES\nra\n",
        lambda f, w, o: ["index", w / "docs", "--out", o, "--stemmer-rules", f],
        lambda out, written: " ko" in written and "kora" not in written,
    ),
    "categories": (
        "category: sport\ndescriptors: kora\n",
        lambda f, w, o: ["classify", w / "corpus.tsv", "--categories", f],
        lambda out, written: out.startswith("d1\tsport\t"),
    ),
    "config": (
        "mode = rbf\nk = 2\n",
        lambda f, w, o: ["query", w / "corpus.tsv", "kora", "--config", f],
        lambda out, written: out == "1\td1\t1.000000\n",
    ),
    "spec": (
        "doc_length = 3\nnoise_rate = 0\ncategory: x\ndescriptors: kora\n",
        lambda f, w, o: ["gen-synth", f, "--out-corpus", o, "--out-categories", f"{o}.cats"],
        lambda out, written: written.count("\tkora kora kora\n") == 200,
    ),
    "corpus": (
        f"{CORPUS_HEADER}\nd1\tsport\tkora suq\n",
        lambda f, w, o: ["query", f, "kora"],
        lambda out, written: out == "1\td1\t0.900000\n",
    ),
    "document": (
        "kora suq",
        lambda f, w, o: ["index", f.parent, "--out", o],
        lambda out, written: "\tkora suq\n" in written,
    ),
}


class TestUndecodableInput:
    def test_read_text_names_the_line_of_the_bad_byte(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xef\xbb\xbfa\nb\nc\xfe\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: not UTF-8: byte 0xfe"):
            read_text(path)
        # past the first chunk a decoder reads, the line still counts from the file's start
        path.write_bytes(b"abc\n" * 5000 + b"x\xff\n")
        with pytest.raises(ValueError, match=r":5001: not UTF-8: byte 0xff \(invalid start byte\)$"):
            read_text(path)

    @pytest.mark.parametrize("kind", ["categories", "config", "corpus", "query-file"])
    def test_bad_byte_exits_2_naming_the_line(self, kind, workdir, tmp_path):
        text, argv, _ = BOM_CASES[kind]
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(text.encode("utf-8") + b"#\xff\n")
        code, out, err = run_main(argv(path, workdir, tmp_path / "out.tsv"))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:3: not UTF-8: byte 0xff (invalid start byte)\n"

    def test_index_skips_an_undecodable_document(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "good.txt").write_text("kora suq", encoding="utf-8")
        (docs / "bad.txt").write_bytes(b"kora\n\xffsuq")
        out_path = tmp_path / "out.tsv"
        code, out, err = run_main(["index", docs, "--out", out_path])
        assert code == 0 and out.startswith("indexed 1 documents")
        bad = docs / "bad.txt"
        assert err == f"warning: skipping {bad}: {bad}:2: not UTF-8: byte 0xff (invalid start byte)\n"
        assert list(load_corpus(out_path).documents) == ["good"]


class TestByteOrderMark:
    def test_read_text_drops_a_leading_mark_only(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("\ufeffa\ufeffb\n", encoding="utf-8")
        assert read_text(path) == "a\ufeffb\n"
        assert read_lines(path) == [(1, "a\ufeffb")]

    @pytest.mark.parametrize("kind", sorted(BOM_CASES))
    def test_marked_and_unmarked_files_give_the_same_result(self, kind, workdir, tmp_path):
        text, argv, took_effect = BOM_CASES[kind]
        inputs = tmp_path / "in"
        inputs.mkdir()
        path, written = inputs / f"{kind}.txt", tmp_path / "out.tsv"
        results = []
        for mark in ("", "\ufeff"):
            path.write_text(mark + text, encoding="utf-8")
            written.unlink(missing_ok=True)
            code, out, err = run_main(argv(path, workdir, written))
            assert (code, err) == (0, ""), (mark, err)
            results.append((out, written.read_text(encoding="utf-8") if written.exists() else ""))
        assert results[0] == results[1]
        assert took_effect(*results[1])


class TestRareInputErrors:
    """Input errors that ordinary inputs can reach: each exits 2 with its message, or raises."""

    @pytest.mark.parametrize("term", ["\u0640", "\u064e"], ids=["tatweel", "fatha"])
    def test_a_query_term_that_folds_to_nothing(self, term, workdir):
        code, out, err = run_main(["query", workdir / "corpus.tsv", term])
        assert (code, out) == (2, "")
        assert err == f"error: column 1: {term!r} normalizes to nothing\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            # a category's own line, where its equivalents are checked as a whole
            ("equivalents: b=a b=c", "1: category 'x': equivalent 'b' maps to two descriptors"),
            ("equivalents: b", "3: expected surface=descriptor, got 'b'"),
        ],
        ids=["two-descriptors", "no-equals"],
    )
    def test_a_bad_equivalent(self, line, message, workdir, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text(f"category: x\ndescriptors: a c\n{line}\n", encoding="utf-8")
        code, out, err = run_main(["classify", workdir / "corpus.tsv", "--categories", path])
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{message}\n"

    def test_a_corpus_record_with_an_empty_doc_id(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"{CORPUS_HEADER}\n\t-\tkora\n", encoding="utf-8")
        code, out, err = run_main(["query", path, "kora"])
        assert (code, out) == (2, "")
        assert err == f"error: {path}:2: empty doc_id\n"

    @pytest.mark.parametrize("word, value", [("yes", True), ("On", True), ("1", True), ("no", False)])
    def test_a_config_boolean(self, word, value, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(f"clamp = off\nclamp = {word}\n", encoding="utf-8")
        assert _load_config(path).clamp is value

    def test_rbf_classify_needs_a_category(self):
        with pytest.raises(ValueError, match="need at least one category"):
            classify(build_document("d", ["kora"]), [], RbfConfig(InfluenceKernel()), "rbf")

    def test_evaluate_rejects_two_categories_of_one_name(self):
        corpus = Corpus()
        corpus.add(build_document("d", ["kora"]), label="x")
        models = [CategoryModel("x", frozenset({"kora"})), CategoryModel("x", frozenset({"suq"}))]
        with pytest.raises(ValueError, match="duplicate category names"):
            evaluate(corpus, models, RbfConfig(InfluenceKernel()))
