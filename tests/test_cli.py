"""End-to-end command-line tests."""

import argparse

import pytest

from proxima.cli import PRESET_WIDTHS, ConfigError, RunConfig, main, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tiny_corpus(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "d1.txt").write_text("الكتاب جديد في المكتبة", encoding="utf-8")
    (docs / "d2.txt").write_text("قرأ الولد الكتاب القديم ومضى", encoding="utf-8")
    (docs / "d3.txt").write_text("لا كتب هنا ابدا سوى الماء", encoding="utf-8")
    corpus = tmp_path / "corpus.tsv"
    return docs, corpus


class TestIndex:
    def test_index_directory(self, capsys, tiny_corpus):
        docs, corpus = tiny_corpus
        code, out, err = run(capsys, "index", str(docs), "--out", str(corpus))
        assert code == 0
        assert out.startswith("indexed 3 documents")
        lines = corpus.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#proxima-corpus v1"
        assert len(lines) == 4

    def test_rerun_is_byte_identical(self, capsys, tiny_corpus):
        docs, corpus = tiny_corpus
        run(capsys, "index", str(docs), "--out", str(corpus))
        first = corpus.read_bytes()
        run(capsys, "index", str(docs), "--out", str(corpus))
        assert corpus.read_bytes() == first

    def test_manifest_labels(self, capsys, tiny_corpus, tmp_path):
        docs, corpus = tiny_corpus
        manifest = tmp_path / "labels.tsv"
        manifest.write_text("d1.txt\tlib\nd2.txt\tread\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "index", str(docs), "--out", str(corpus), "--manifest", str(manifest)
        )
        assert code == 0
        body = corpus.read_text(encoding="utf-8")
        assert "d1\tlib\t" in body
        assert "d3\t-\t" in body

    def test_stemmer_affix_that_normalizes_to_nothing_exits_2(self, capsys, tiny_corpus, tmp_path):
        docs, corpus = tiny_corpus
        rules = tmp_path / "rules.txt"
        rules.write_text("SUFFIXES\n\u064e\n", encoding="utf-8")
        code, out, err = run(
            capsys, "index", str(docs), "--out", str(corpus), "--stemmer-rules", str(rules)
        )
        assert (code, out) == (2, "")
        assert f"{rules}:2: affix" in err and "normalizes to nothing" in err
        assert "Traceback" not in err
        assert not corpus.exists()

    def test_empty_directory_fails(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "index", str(empty), "--out", str(tmp_path / "c.tsv"))
        assert code == 1
        assert "no documents" in err

    def test_missing_directory_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "index", str(tmp_path / "nope"), "--out", str(tmp_path / "c.tsv"))
        assert code == 1

    def test_failed_save_names_the_output_not_a_temp_file(self, capsys, tiny_corpus):
        docs, _ = tiny_corpus
        before = sorted(p.name for p in docs.iterdir())
        code, out, err = run(capsys, "index", str(docs), "--out", str(docs))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(docs)!r}\n")
        assert sorted(p.name for p in docs.iterdir()) == before
        assert [p.name for p in docs.parent.iterdir() if p.name.startswith(".")] == []


class TestQuery:
    def _indexed(self, capsys, tiny_corpus):
        docs, corpus = tiny_corpus
        run(capsys, "index", str(docs), "--out", str(corpus))
        return corpus

    def test_ranked_output_format(self, capsys, tiny_corpus):
        corpus = self._indexed(capsys, tiny_corpus)
        code, out, _ = run(capsys, "query", str(corpus), "الكتاب")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) >= 2  # d1 and d2 both contain the stem
        rank, doc_id, value = lines[0].split("\t")
        assert rank == "1"
        float(value)
        assert len(value.split(".")[1]) == 6
        # descending similarity
        values = [float(line.split("\t")[2]) for line in lines]
        assert values == sorted(values, reverse=True)

    def test_no_matches_is_empty_success(self, capsys, tiny_corpus):
        corpus = self._indexed(capsys, tiny_corpus)
        code, out, _ = run(capsys, "query", str(corpus), "قمر")
        assert code == 0
        assert out == ""

    def test_malformed_query_exits_2(self, capsys, tiny_corpus):
        corpus = self._indexed(capsys, tiny_corpus)
        code, _, err = run(capsys, "query", str(corpus), "a NEAR/0 b")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("depth", [300, 1000])
    def test_too_deeply_nested_query_exits_2(self, capsys, tiny_corpus, depth):
        corpus = self._indexed(capsys, tiny_corpus)
        code, _, err = run(capsys, "query", str(corpus), "(" * depth + "a" + ")" * depth)
        assert code == 2
        assert "column 101" in err
        assert "Traceback" not in err

    def test_missing_corpus_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "query", str(tmp_path / "nope.tsv"), "a")
        assert code == 1

    def test_rbf_mode_runs(self, capsys, tiny_corpus):
        corpus = self._indexed(capsys, tiny_corpus)
        code, out, _ = run(capsys, "query", str(corpus), "الكتاب", "--mode", "rbf")
        assert code == 0
        assert out

    def test_query_file_with_headers(self, capsys, tiny_corpus, tmp_path):
        corpus = self._indexed(capsys, tiny_corpus)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("الكتاب\nقمر\n", encoding="utf-8")
        code, out, _ = run(capsys, "query", str(corpus), "--query-file", str(qfile))
        assert code == 0
        assert "# query 1:" in out
        assert "# query 2:" in out

    def test_bad_line_in_query_file_prints_nothing_and_names_the_line(
        self, capsys, tiny_corpus, tmp_path
    ):
        corpus = self._indexed(capsys, tiny_corpus)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("الكتاب\nقمر AND\nكتب\n", encoding="utf-8")
        code, out, err = run(capsys, "query", str(corpus), "--query-file", str(qfile))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {qfile}:2: column ")

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"])
    def test_query_file_without_queries_exits_2(self, capsys, tiny_corpus, tmp_path, text):
        corpus = self._indexed(capsys, tiny_corpus)
        qfile = tmp_path / "queries.txt"
        qfile.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "query", str(corpus), "--query-file", str(qfile))
        assert (code, out, err) == (2, "", f"error: {qfile}: no queries\n")

    def test_query_and_file_are_exclusive(self, capsys, tiny_corpus):
        corpus = self._indexed(capsys, tiny_corpus)
        code, _, err = run(capsys, "query", str(corpus))
        assert code == 2


@pytest.fixture()
def synth_setup(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "docs_per_category = 12\n"
        "doc_length = 40\n"
        "injection_rate = 0.7\n"
        "noise_rate = 0.3\n"
        "cross_rate = 0.15\n"
        "noise_vocab_size = 20\n"
        "category: alpha\n"
        "descriptors: alphad0 alphad1\n"
        "equivalents: alphae0=alphad0 alphae1=alphad1\n"
        "category: beta\n"
        "descriptors: betad0 betad1\n"
        "equivalents: betae0=betad0\n"
        "category: gamma\n"
        "descriptors: gammad0\n"
        "equivalents: gammae0=gammad0 gammae1=gammad0\n",
        encoding="utf-8",
    )
    return spec, tmp_path / "synth.tsv", tmp_path / "cats.txt"


class TestGenSynth:
    def test_deterministic_outputs(self, capsys, synth_setup):
        spec, corpus, cats = synth_setup
        code, out, _ = run(
            capsys, "gen-synth", str(spec), "--out-corpus", str(corpus),
            "--out-categories", str(cats), "--seed", "42",
        )
        assert code == 0
        assert "generated 36 documents across 3 categories" in out
        first_corpus = corpus.read_bytes()
        first_cats = cats.read_bytes()
        run(
            capsys, "gen-synth", str(spec), "--out-corpus", str(corpus),
            "--out-categories", str(cats), "--seed", "42",
        )
        assert corpus.read_bytes() == first_corpus
        assert cats.read_bytes() == first_cats

    def test_category_file_lists_all_categories(self, capsys, synth_setup):
        spec, corpus, cats = synth_setup
        run(capsys, "gen-synth", str(spec), "--out-corpus", str(corpus), "--out-categories", str(cats))
        text = cats.read_text(encoding="utf-8")
        assert text.count("category: ") == 3

    def test_save_into_a_missing_directory_names_the_output(self, capsys, synth_setup, tmp_path):
        spec, _, cats = synth_setup
        out_corpus = tmp_path / "missing" / "o.tsv"
        code, out, err = run(
            capsys, "gen-synth", str(spec), "--out-corpus", str(out_corpus),
            "--out-categories", str(cats),
        )
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(out_corpus)!r}\n"
        assert not (tmp_path / "missing").exists()
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_invalid_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("doc_length = 0\ncategory: x\ndescriptors: a\n", encoding="utf-8")
        code, _, err = run(
            capsys, "gen-synth", str(bad), "--out-corpus", str(tmp_path / "c.tsv"),
            "--out-categories", str(tmp_path / "k.txt"),
        )
        assert code == 2
        assert "error" in err


class TestClassifyAndEval:
    def _generated(self, capsys, synth_setup):
        spec, corpus, cats = synth_setup
        run(capsys, "gen-synth", str(spec), "--out-corpus", str(corpus),
            "--out-categories", str(cats), "--seed", "7")
        return corpus, cats

    def test_classify_outputs_one_line_per_document(self, capsys, synth_setup):
        corpus, cats = self._generated(capsys, synth_setup)
        code, out, _ = run(capsys, "classify", str(corpus), "--categories", str(cats))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 36
        doc_id, predicted, value = lines[0].split("\t")
        assert predicted in {"alpha", "beta", "gamma"}
        float(value)

    def test_eval_both_modes_and_formats(self, capsys, synth_setup):
        corpus, cats = self._generated(capsys, synth_setup)
        code, out_standard, _ = run(capsys, "eval", str(corpus), "--categories", str(cats))
        assert code == 0
        assert "category" in out_standard and "macro" in out_standard
        assert "confusion" in out_standard
        records = [
            line for line in out_standard.splitlines()
            if line.startswith(("alpha\t", "beta\t", "gamma\t", "macro\t"))
        ]
        assert len(records) == 4
        for record in records:
            fields = record.split("\t")
            assert len(fields) == 4
        code, out_rbf, _ = run(
            capsys, "eval", str(corpus), "--categories", str(cats), "--mode", "rbf"
        )
        assert code == 0

    def test_eval_on_unlabeled_corpus_exits_2(self, capsys, tiny_corpus, synth_setup, tmp_path):
        docs, corpus = tiny_corpus
        run(capsys, "index", str(docs), "--out", str(corpus))
        _, cats = self._generated(capsys, synth_setup)
        code, _, err = run(capsys, "eval", str(corpus), "--categories", str(cats))
        assert code == 2
        assert "no labels" in err

    @pytest.mark.parametrize("kf", [str(10**20), str(2**63 - 2)])
    def test_huge_window_equals_one_spanning_every_document(self, capsys, synth_setup, kf):
        corpus, cats = self._generated(capsys, synth_setup)
        for command in ("eval", "classify"):
            argv = [command, str(corpus), "--categories", str(cats), "--mode", "rbf", "--kf"]
            # every generated document has doc_length = 40 positions
            spanning = run(capsys, *argv, "40")
            assert spanning[0] == 0
            assert run(capsys, *argv, kf) == spanning

    def test_workers_do_not_change_output(self, capsys, synth_setup):
        corpus, cats = self._generated(capsys, synth_setup)
        _, serial, _ = run(capsys, "eval", str(corpus), "--categories", str(cats), "--mode", "rbf")
        _, parallel, _ = run(
            capsys, "eval", str(corpus), "--categories", str(cats), "--mode", "rbf",
            "--workers", "4",
        )
        assert serial == parallel


class TestConfigResolution:
    def _namespace(self, **kwargs):
        base = dict(
            config=None, kernel=None, k=None, kf=None, threshold=None, mode=None,
            stoplist=None, stemmer_rules=None, seed=None, workers=None,
            preset=None, no_clamp=False,
        )
        base.update(kwargs)
        return argparse.Namespace(**base)

    def test_defaults(self):
        cfg = resolve_config(self._namespace())
        assert cfg == RunConfig()
        assert cfg.kernel == "triangular" and cfg.k == 5 and cfg.kf == 5
        assert cfg.mode == "standard" and cfg.clamp

    def test_preset_sets_width(self):
        cfg = resolve_config(self._namespace(preset="paragraph"))
        assert cfg.k == PRESET_WIDTHS["paragraph"] == 100

    def test_flag_overrides_preset(self):
        cfg = resolve_config(self._namespace(preset="paragraph", k=9))
        assert cfg.k == 9

    def test_config_file_then_flags(self, tmp_path):
        path = tmp_path / "proxima.conf"
        path.write_text(
            "# settings\nkernel = gaussian\nk = 11\nclamp = false\nmode = rbf\n",
            encoding="utf-8",
        )
        cfg = resolve_config(self._namespace(config=str(path)))
        assert (cfg.kernel, cfg.k, cfg.clamp, cfg.mode) == ("gaussian", 11, False, "rbf")
        cfg = resolve_config(self._namespace(config=str(path), kernel="hanning"))
        assert cfg.kernel == "hanning"

    def test_no_clamp_flag(self):
        assert resolve_config(self._namespace(no_clamp=True)).clamp is False

    def test_bad_values_raise_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="kernel"):
            resolve_config(self._namespace(kernel="boxcar"))
        with pytest.raises(ConfigError, match="preset"):
            resolve_config(self._namespace(preset="chapter"))
        path = tmp_path / "bad.conf"
        path.write_text("mystery = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown setting"):
            resolve_config(self._namespace(config=str(path)))
        path.write_text("k\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            resolve_config(self._namespace(config=str(path)))

    def test_usage_error_exit_code(self, capsys):
        assert main(["mystery-command"]) == 2
        capsys.readouterr()
