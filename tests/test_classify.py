"""Category models, classification, evaluation and synthetic corpus tests."""

import os
import sys
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import _reference as ref
from proxima import proxcore, rbfwin
from proxima.classify import (
    MODES,
    CategoryFormatError,
    CategoryModel,
    SynthSpecError,
    SyntheticSpec,
    category_query,
    classify,
    evaluate,
    generate_synthetic_corpus,
    load_categories,
    load_synthetic_spec,
    metrics_from_confusion,
    mode_similarities,
    save_categories,
    substitute_equivalents,
    uniform_synthetic_spec,
)
from proxima.posindex import Corpus, build_document, positions_of, write_text_atomic
from proxima.proxcore import KERNEL_SHAPES, InfluenceKernel, similarity
from proxima.querylang import Or, Term, query_plan, render_query
from proxima.rbfwin import RbfConfig, rbf_similarity

TRI5 = InfluenceKernel("triangular", 5)
CFG = RbfConfig(kernel=TRI5, kf=5)


def make_corpus(docs: dict[str, list[str]], labels: dict[str, str] | None = None) -> Corpus:
    corpus = Corpus()
    for doc_id, stems in docs.items():
        corpus.add(build_document(doc_id, stems), label=(labels or {}).get(doc_id))
    return corpus


class TestCategoryModel:
    def test_invariants(self):
        with pytest.raises(ValueError, match="no descriptors"):
            CategoryModel("x", frozenset())
        with pytest.raises(ValueError, match="unknown descriptor"):
            CategoryModel("x", frozenset({"a"}), {"e": "b"})
        with pytest.raises(ValueError, match="both descriptor and equivalent"):
            CategoryModel("x", frozenset({"a", "b"}), {"a": "b"})
        with pytest.raises(ValueError, match="reserved"):
            CategoryModel("macro", frozenset({"a"}))

    def test_category_query_shapes(self):
        assert category_query(CategoryModel("x", frozenset({"a"}))) == Term("a")
        assert category_query(CategoryModel("x", frozenset({"a", "b"}))) == Or(
            Term("a"), Term("b")
        )
        three = category_query(CategoryModel("x", frozenset({"c", "a", "b"})))
        assert three == Or(Or(Term("a"), Term("b")), Term("c"))
        four = category_query(CategoryModel("x", frozenset({"d", "c", "a", "b"})))
        assert four == Or(Or(Term("a"), Term("b")), Or(Term("c"), Term("d")))

    def test_descriptors_with_equivalents_become_class_leaves(self):
        model = CategoryModel("x", frozenset({"b", "a"}), {"f": "a", "e": "a"})
        assert category_query(model) == Or(Term(("a", "e", "f")), Term("b"))

    def test_class_leaves_have_no_query_text(self):
        with pytest.raises(TypeError):
            render_query(category_query(CategoryModel("x", frozenset({"a"}), {"e": "a"})))
        assert render_query(category_query(CategoryModel("x", frozenset({"a", "b"})))) == "(a OR b)"


class TestSubstitution:
    MODEL = CategoryModel("x", frozenset({"a"}), {"e": "a"})

    def test_equivalents_rewrite_to_descriptor(self):
        doc = build_document("d", ["e", "n", "a"])
        swapped = substitute_equivalents(doc, self.MODEL)
        assert swapped.stems == ("a", "n", "a")
        assert swapped.inverted["a"] == [0, 2]

    def test_untouched_document_is_reused(self):
        doc = build_document("d", ["n", "a"])
        assert substitute_equivalents(doc, self.MODEL) is doc

    @given(
        stems=st.lists(st.sampled_from(["a", "b", "e", "f", "g", "n"]), max_size=30),
        targets=st.lists(st.sampled_from(["a", "b"]), min_size=3, max_size=3),
    )
    def test_equals_rebuilding_the_rewritten_document(self, stems, targets):
        # e, f and g map onto a or b, so a descriptor may take over several lists
        table = dict(zip(["e", "f", "g"], targets))
        model = CategoryModel("x", frozenset({"a", "b"}), table)
        doc = build_document("d", stems)
        swapped = substitute_equivalents(doc, model)
        assert swapped == build_document("d", [table.get(stem, stem) for stem in stems])
        assert doc == build_document("d", stems)  # the input is left as it was


class TestClassLeaves:
    """``classify`` reads equivalents through class leaves on the document as it is.

    The oracle is the old route: substitute the equivalents into the document,
    then score the descriptor-only query.  Documents draw from descriptors,
    equivalents and noise alike, so many hold an equivalent without its
    descriptor, and a descriptor may have no equivalents at all.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        stems=st.lists(st.sampled_from(["a", "b", "c", "e", "f", "g", "n"]), max_size=40),
        targets=st.lists(st.sampled_from(["a", "b", "c", None]), min_size=3, max_size=3),
        shape=st.sampled_from(KERNEL_SHAPES),
        k=st.integers(1, 9),
        kf=st.integers(1, 12),
        threshold=st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 2.0),
        clamp=st.booleans(),
        mode=st.sampled_from(MODES),
    )
    def test_classify_equals_scoring_the_substituted_document(
        self, stems, targets, shape, k, kf, threshold, clamp, mode
    ):
        table = {surface: d for surface, d in zip(["e", "f", "g"], targets) if d is not None}
        model = CategoryModel("x", frozenset({"a", "b", "c"}), table)
        doc = build_document("d", stems)
        cfg = RbfConfig(InfluenceKernel(shape, k), kf, threshold, clamp)
        swapped = substitute_equivalents(doc, model)
        plain = category_query(CategoryModel("x", model.descriptors))
        if mode == "standard":
            expected = similarity(swapped, plain, cfg.kernel)
        else:
            expected = rbf_similarity(swapped, plain, cfg)
        [(_, value)] = classify(doc, [model], cfg, mode)
        assert value.hex() == expected.hex()
        for step in query_plan(model.query):
            if isinstance(step, tuple):  # a leaf; the other steps are Or
                stem = step[0]
                descriptor = stem if isinstance(stem, str) else stem[0]
                assert positions_of(doc, stem) == positions_of(swapped, descriptor)

    def test_classify_does_not_rewrite_documents(self, monkeypatch):
        spec = uniform_synthetic_spec(3, 2, 4, docs_per_category=6, doc_length=40, cross_rate=0.3)
        corpus, models = generate_synthetic_corpus(spec, 5)
        cfg = RbfConfig(InfluenceKernel("triangular", 2), kf=3)

        def results():
            return [
                ([classify(doc, models, cfg, mode) for doc in corpus], evaluate(corpus, models, cfg, mode))
                for mode in MODES
            ]

        expected = results()

        def refuse(*args):
            raise AssertionError("classify rewrote a document")

        # the package exports a function named classify, so fetch the module itself
        monkeypatch.setattr(sys.modules["proxima.classify"], "substitute_equivalents", refuse)
        assert results() == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_each_present_class_leaf_is_merged_once(self, monkeypatch, mode):
        spec = uniform_synthetic_spec(3, 2, 4, docs_per_category=6, doc_length=40, cross_rate=0.3)
        corpus, models = generate_synthetic_corpus(spec, 5)
        merged = Counter()
        lay_out = proxcore._segment_digits

        def counting(segments, *args):
            merged.update((doc.doc_id, stem) for doc, stem in segments if not isinstance(stem, str))
            return lay_out(segments, *args)

        # rbfwin calls the name it imported from proxcore
        monkeypatch.setattr(proxcore, "_segment_digits", counting)
        monkeypatch.setattr(rbfwin, "_segment_digits", counting)
        for doc in corpus:
            classify(doc, models, CFG, mode)
        # a class leaf is present when one of its members is; an absent one is never laid out.
        # Standard mode folds the merged plan, where each category is one class leaf
        # of all its stems, so it lays out once per (document, category) that holds one.
        plans = [query_plan(model.query, merged=mode == "standard") for model in models]
        if mode == "standard":
            assert [len(plan) for plan in plans] == [1] * len(models)
        expected = Counter(
            (doc.doc_id, step[0])
            for doc in corpus
            for plan in plans
            for step in plan
            if isinstance(step, tuple) and isinstance(step[0], tuple)
            if any(stem in doc.inverted for stem in step[0])
        )
        assert expected and merged == expected


class TestClassify:
    def test_descriptor_only_document_wins_its_category(self):
        categories = [
            CategoryModel("sport", frozenset({"kora"})),
            CategoryModel("econ", frozenset({"suq"})),
        ]
        doc = build_document("d", ["kora", "noise", "kora"])
        ranking = classify(doc, categories, CFG)
        assert ranking[0][0] == "sport"
        assert ranking[0][1] > ranking[1][1]

    def test_no_shared_terms_ties_break_alphabetically(self):
        categories = [
            CategoryModel("zeta", frozenset({"zz"})),
            CategoryModel("alpha", frozenset({"aa"})),
        ]
        doc = build_document("d", ["noise", "words"])
        ranking = classify(doc, categories, CFG)
        assert ranking == [("alpha", 0.0), ("zeta", 0.0)]

    def test_hand_computed_two_category_ranking(self):
        # doc [a n1 b n2 a], k=5 triangular:
        #   category x={a}: profile 1, .8, .6, .8, 1  -> sim 4.2/5 = 0.84
        #   category y={b}: profile .6, .8, 1, .8, .6 -> sim 3.8/5 = 0.76
        stems = ["a", "n1", "b", "n2", "a"]
        doc = build_document("d", stems)
        categories = [
            CategoryModel("x", frozenset({"a"})),
            CategoryModel("y", frozenset({"b"})),
        ]
        ranking = classify(doc, categories, CFG)
        assert ranking[0][0] == "x"
        assert ranking[0][1] == pytest.approx(0.84)
        assert ranking[1][1] == pytest.approx(0.76)
        # cross-check against the naive reference evaluator
        assert ranking[0][1] == pytest.approx(
            ref.similarity(stems, Term("a"), "triangular", 5), abs=1e-12
        )
        assert ranking[1][1] == pytest.approx(
            ref.similarity(stems, Term("b"), "triangular", 5), abs=1e-12
        )

    def test_equivalents_count_toward_their_category(self):
        categories = [
            CategoryModel("x", frozenset({"a"}), {"e": "a"}),
            CategoryModel("y", frozenset({"b"})),
        ]
        doc = build_document("d", ["e", "e", "e"])
        ranking = classify(doc, categories, CFG)
        assert ranking[0] == ("x", 1.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_three_thousand_descriptors_match_reference(self, mode):
        descriptors = [f"t{i:04d}" for i in range(3000)]
        categories = [
            CategoryModel("big", frozenset(descriptors)),
            CategoryModel("small", frozenset({"z"})),
        ]
        stems = ["t0007", "n", "t2999", "z", "n", "t0007"]
        configuration = RbfConfig(kernel=TRI5, kf=2)

        def relevance(term, x):
            if mode == "standard":
                return ref.local_relevance(stems, term, x, "triangular", 5)
            return ref.rbf_local_relevance(stems, term, x, "triangular", 5, 2)

        expected = {
            model.name: sum(
                max(relevance(term, x) for term in model.descriptors) for x in range(len(stems))
            )
            / len(stems)
            for model in categories
        }
        ranking = classify(build_document("d", stems), categories, configuration, mode)
        assert [name for name, _ in ranking] == ["big", "small"]
        for name, value in ranking:
            assert value == pytest.approx(expected[name], abs=1e-12)

    def test_mode_and_category_validation(self):
        doc = build_document("d", ["a"])
        with pytest.raises(ValueError, match="mode"):
            classify(doc, [CategoryModel("x", frozenset({"a"}))], CFG, mode="super")
        with pytest.raises(ValueError, match="category"):
            classify(doc, [], CFG)

    @pytest.mark.parametrize("mode", ["RBF", "", "Standard"])
    def test_unknown_mode_raises_everywhere(self, mode):
        model = CategoryModel("x", frozenset({"a"}))
        corpus = make_corpus({"d": ["a", "b"], "e": ["z"]}, {"d": "x", "e": "x"})
        calls = [lambda doc=doc: mode_similarities([doc], model.query, CFG, mode) for doc in corpus]
        calls += [lambda doc=doc: classify(doc, [model], CFG, mode) for doc in corpus]
        calls.append(lambda: evaluate(corpus, [model], CFG, mode))
        for call in calls:
            with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
                call()


class TestMetrics:
    def test_confusion_example(self):
        report = metrics_from_confusion(["x", "y"], [[8, 2], [3, 7]])
        x = report.metrics["x"]
        assert x.precision == pytest.approx(8 / 11)
        assert x.recall == pytest.approx(8 / 10)
        y = report.metrics["y"]
        assert y.precision == pytest.approx(7 / 9)
        assert y.recall == pytest.approx(7 / 10)
        assert report.macro_recall == pytest.approx(0.75)
        assert report.confusion == ((8, 2), (3, 7))

    def test_row_sums_are_true_counts(self):
        report = metrics_from_confusion(["x", "y"], [[8, 2], [3, 7]])
        for i, name in enumerate(report.categories):
            assert sum(report.confusion[i]) == report.metrics[name].true_count

    def test_zero_denominators_flagged(self):
        report = metrics_from_confusion(["x", "y"], [[0, 0], [5, 0]])
        assert report.metrics["x"].recall == 0.0
        assert not report.metrics["x"].recall_defined
        assert report.metrics["y"].precision == 0.0
        assert not report.metrics["y"].precision_defined
        assert "*" in report.as_table()

    def test_f1_in_unit_interval_and_harmonic(self):
        report = metrics_from_confusion(["x", "y"], [[8, 2], [3, 7]])
        x = report.metrics["x"]
        expected = 2 * x.precision * x.recall / (x.precision + x.recall)
        assert x.f1 == pytest.approx(expected)
        assert 0.0 <= report.macro_f1 <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            metrics_from_confusion(["x"], [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="need at least one category"):
            metrics_from_confusion([], [])

    def test_records_format(self):
        report = metrics_from_confusion(["x"], [[3]])
        assert report.as_records() == "x\t1.000000\t1.000000\t1.000000\nmacro\t1.000000\t1.000000\t1.000000"


class TestEvaluate:
    CATEGORIES = [
        CategoryModel("x", frozenset({"a"})),
        CategoryModel("y", frozenset({"b"})),
    ]

    def test_perfect_predictions(self):
        corpus = make_corpus(
            {"d1": ["a", "a", "n"], "d2": ["b", "b", "n"]},
            {"d1": "x", "d2": "y"},
        )
        report = evaluate(corpus, self.CATEGORIES, CFG)
        assert report.macro_recall == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_f1 == 1.0

    def test_all_wrong_predictions(self):
        corpus = make_corpus(
            {"d1": ["b", "b"], "d2": ["a", "a"]},
            {"d1": "x", "d2": "y"},
        )
        report = evaluate(corpus, self.CATEGORIES, CFG)
        assert report.macro_recall == 0.0
        assert report.macro_precision == 0.0

    def test_micro_identity(self):
        corpus = make_corpus(
            {"d1": ["a"], "d2": ["a"], "d3": ["b"], "d4": ["b", "a", "b"]},
            {"d1": "x", "d2": "y", "d3": "y", "d4": "y"},
        )
        report = evaluate(corpus, self.CATEGORIES, CFG)
        correct = sum(report.confusion[i][i] for i in range(len(report.categories)))
        predicted = [
            classify(doc, self.CATEGORIES, CFG)[0][0]
            for doc in corpus
        ]
        labels = [corpus.labels[d.doc_id] for d in corpus]
        assert correct == sum(p == t for p, t in zip(predicted, labels))

    def test_unlabeled_corpus_rejected(self):
        corpus = make_corpus({"d1": ["a"]})
        with pytest.raises(ValueError, match="no labels"):
            evaluate(corpus, self.CATEGORIES, CFG)

    def test_unknown_label_names_document(self):
        corpus = make_corpus({"d1": ["a"]}, {"d1": "mystery"})
        with pytest.raises(ValueError, match="d1"):
            evaluate(corpus, self.CATEGORIES, CFG)

    def test_rbf_equals_standard_when_nothing_boosts(self):
        # no document contains any descriptor: every window is all-zero and
        # contributes nothing, so both modes yield the same all-zero report
        corpus = make_corpus(
            {"d1": ["n1", "n2", "n3"], "d2": ["n2", "n2"]},
            {"d1": "x", "d2": "y"},
        )
        standard = evaluate(corpus, self.CATEGORIES, CFG, "standard")
        boosted = evaluate(corpus, self.CATEGORIES, CFG, "rbf")
        assert standard == boosted

    def test_rbf_equals_standard_on_single_position_documents(self):
        corpus = make_corpus(
            {"d1": ["a"], "d2": ["b"], "d3": ["a"]},
            {"d1": "x", "d2": "y", "d3": "x"},
        )
        standard = evaluate(corpus, self.CATEGORIES, CFG, "standard")
        boosted = evaluate(corpus, self.CATEGORIES, CFG, "rbf")
        assert standard == boosted
        assert standard.macro_f1 == 1.0


class TestReplicationInvariance:
    def test_top1_stable_under_body_replication(self):
        spec = uniform_synthetic_spec(
            3, 1, 0, docs_per_category=8, doc_length=40, injection_rate=0.0, cross_rate=0.1
        )
        corpus, models = generate_synthetic_corpus(spec, 11)
        for doc in corpus:
            base_top = classify(doc, models, CFG)[0][0]
            for copies in (2, 3):
                replicated = build_document(doc.doc_id, doc.stems * copies)
                assert classify(replicated, models, CFG)[0][0] == base_top


class TestCategoryFiles:
    def test_round_trip(self, tmp_path):
        models = [
            CategoryModel("econ", frozenset({"suq", "mal"}), {"bnk": "mal"}),
            CategoryModel("sport", frozenset({"kora"})),
        ]
        path = tmp_path / "cats.txt"
        save_categories(models, path)
        loaded = load_categories(path)
        assert loaded == models

    def test_failed_saves_keep_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cats.txt"
        save_categories([CategoryModel("sport", frozenset({"kora"}))], path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="bad descriptor"):  # rejected before writing
            CategoryModel("econ", frozenset({"\ud800"}))
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate cannot be encoded
            write_text_atomic(path, "\ud800")
        assert path.read_bytes() == before

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            save_categories([CategoryModel("econ", frozenset({"mal"}))], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cats.txt"]

    def test_arabic_surface_forms_fold_to_stems(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text(
            "category: مكتبه\ndescriptors: الكتاب الأقلام\nequivalents: الكتب=الكتاب\n",
            encoding="utf-8",
        )
        (model,) = load_categories(path)
        assert model.descriptors == frozenset({"كتاب", "اقلام"})
        assert model.equivalents == {"كتب": "كتاب"}

    def test_identity_equivalents_are_dropped(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text("category: x\ndescriptors: kora\nequivalents: الكورا=kora\n", encoding="utf-8")
        # surface stems to something new -> kept; exact identity -> dropped
        path.write_text("category: x\ndescriptors: kora\nequivalents: kora=kora\n", encoding="utf-8")
        (model,) = load_categories(path)
        assert model.equivalents == {}

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text("descriptors: a\n", encoding="utf-8")
        with pytest.raises(CategoryFormatError, match=":1:"):
            load_categories(path)
        path.write_text("category: x\n", encoding="utf-8")
        with pytest.raises(CategoryFormatError, match="no descriptors"):
            load_categories(path)
        path.write_text("category: x\ndescriptors: a\nequivalents: e=zz\n", encoding="utf-8")
        with pytest.raises(CategoryFormatError, match="unknown descriptor"):
            load_categories(path)
        path.write_text("", encoding="utf-8")
        with pytest.raises(CategoryFormatError, match="no categories"):
            load_categories(path)
        path.write_text("category: x\ndescriptors: a\ncategory: x\ndescriptors: b\n", encoding="utf-8")
        with pytest.raises(CategoryFormatError, match="duplicate"):
            load_categories(path)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(SynthSpecError, match="category"):
            SyntheticSpec(categories=())
        with pytest.raises(SynthSpecError, match="docs_per_category"):
            uniform_synthetic_spec(docs_per_category=0)
        with pytest.raises(SynthSpecError, match="doc_length"):
            uniform_synthetic_spec(doc_length=0)
        with pytest.raises(SynthSpecError, match="noise_rate"):
            uniform_synthetic_spec(noise_rate=1.2)
        with pytest.raises(SynthSpecError, match="room"):
            uniform_synthetic_spec(noise_rate=0.6, cross_rate=0.5)

    def test_spec_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text(
            "docs_per_category = 4\n"
            "doc_length = 25\n"
            "injection_rate = 0.5\n"
            "noise_rate = 0.2\n"
            "cross_rate = 0.1\n"
            "noise_vocab_size = 9\n"
            "\n"
            "category: sport\n"
            "descriptors: kora\n"
            "equivalents: laaib=kora\n"
            "category: econ\n"
            "descriptors: suq\n",
            encoding="utf-8",
        )
        spec = load_synthetic_spec(path)
        assert spec.docs_per_category == 4
        assert spec.doc_length == 25
        assert spec.noise_vocab_size == 9
        assert [c.name for c in spec.categories] == ["sport", "econ"]

    def test_spec_file_errors(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("docs_per_category = 4\n", encoding="utf-8")
        with pytest.raises(SynthSpecError, match="no categories"):
            load_synthetic_spec(path)
        path.write_text("mystery = 4\ncategory: x\ndescriptors: a\n", encoding="utf-8")
        with pytest.raises(SynthSpecError, match="unknown setting"):
            load_synthetic_spec(path)
        path.write_text("doc_length = four\ncategory: x\ndescriptors: a\n", encoding="utf-8")
        with pytest.raises(SynthSpecError, match="doc_length"):
            load_synthetic_spec(path)


class TestSyntheticGenerator:
    def test_deterministic_for_fixed_seed(self):
        spec = uniform_synthetic_spec(2, 2, 3, docs_per_category=6, doc_length=30, cross_rate=0.1)
        first, _ = generate_synthetic_corpus(spec, 42)
        second, _ = generate_synthetic_corpus(spec, 42)
        assert {d.doc_id: d.stems for d in first} == {d.doc_id: d.stems for d in second}
        assert first.labels == second.labels

    def test_seed_changes_the_draw(self):
        spec = uniform_synthetic_spec(2, 2, 3, docs_per_category=6, doc_length=30)
        first, _ = generate_synthetic_corpus(spec, 1)
        second, _ = generate_synthetic_corpus(spec, 2)
        assert {d.doc_id: d.stems for d in first} != {d.doc_id: d.stems for d in second}

    def test_injection_rate_zero_means_descriptors_and_noise_only(self):
        spec = uniform_synthetic_spec(2, 2, 3, docs_per_category=5, doc_length=40, injection_rate=0.0)
        corpus, models = generate_synthetic_corpus(spec, 5)
        allowed = {stem for model in models for stem in model.descriptors}
        allowed |= {f"noise{i:02d}" for i in range(spec.noise_vocab_size)}
        for doc in corpus:
            assert set(doc.stems) <= allowed

    def test_cardinality_and_labels(self):
        spec = uniform_synthetic_spec(3, 2, 2, docs_per_category=50, doc_length=20)
        corpus, models = generate_synthetic_corpus(spec, 9)
        assert len(corpus) == 150
        assert len(models) == 3
        for doc in corpus:
            assert corpus.labels[doc.doc_id] in {m.name for m in models}
            assert doc.n == 20

    def test_planted_equivalents_sit_next_to_their_descriptor(self):
        spec = uniform_synthetic_spec(
            1, 1, 2, docs_per_category=4, doc_length=60, injection_rate=1.0, noise_rate=0.5
        )
        corpus, (model,) = generate_synthetic_corpus(spec, 3)
        descriptor = next(iter(model.descriptors))
        for doc in corpus:
            for i, stem in enumerate(doc.stems):
                if stem in model.equivalents:
                    window = doc.stems[max(0, i - 2) : i + 3]
                    assert descriptor in window or any(
                        s in model.equivalents for s in window if s != stem
                    )
