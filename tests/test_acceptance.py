"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value is produced by the independent straight-line evaluators
in tests/_reference.py or by construction; nothing is read back from the
engine under test.
"""

import random
import time

import _reference as ref
from proxima.classify import evaluate, generate_synthetic_corpus, uniform_synthetic_spec
from proxima.cli import main
from proxima.posindex import Corpus, build_document
from proxima.proxcore import (
    KERNEL_SHAPES,
    InfluenceKernel,
    eval_query_at,
    influence,
    near_boolean,
    near_doc_relevance,
    similarity,
)
from proxima.querylang import And, Near, Or, Term
from proxima.rbfwin import RbfConfig, rbf_local_relevance, rbf_similarity


def verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def random_doc(rng: random.Random, max_len: int, vocabulary: str) -> list[str]:
    return [rng.choice(vocabulary) for _ in range(rng.randint(0, max_len))]


def random_query(rng: random.Random, vocabulary: str, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return Term(rng.choice(vocabulary))
    kind = rng.choice(["and", "or", "near"])
    if kind == "near":
        return Near(rng.randint(1, 8), Term(rng.choice(vocabulary)), Term(rng.choice(vocabulary)))
    node = And if kind == "and" else Or
    return node(random_query(rng, vocabulary, depth - 1), random_query(rng, vocabulary, depth - 1))


class TestCriterion1BooleanNearOracle:
    def test_boolean_near_agrees_with_pair_scan(self):
        rng = random.Random(20_001)
        started = time.perf_counter()
        disagreements = 0
        for _ in range(1000):
            stems = random_doc(rng, 30, "abcde")
            doc = build_document("d", stems)
            a, b = rng.choice("abcde"), rng.choice("abcde")
            k = rng.randint(1, 10)
            expected = ref.near_boolean(stems, a, b, k)
            got = near_boolean(doc, a, b, k)
            fuzzy_positive = near_doc_relevance(doc, a, b, k) > 0.0
            if got != expected or fuzzy_positive != expected:
                disagreements += 1
        elapsed = time.perf_counter() - started
        verdict(
            "C1 boolean-NEAR oracle equivalence",
            disagreements == 0 and elapsed < 5.0,
            f"0 disagreements required, saw {disagreements}; {elapsed:.2f}s",
        )


class TestCriterion2ScoreBruteForce:
    def test_engine_matches_naive_reference(self):
        rng = random.Random(20_002)
        started = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            stems = random_doc(rng, 40, "abcdef")
            doc = build_document("d", stems)
            shape = rng.choice(KERNEL_SHAPES)
            k = rng.randint(1, 8)
            kernel = InfluenceKernel(shape, k)
            node = random_query(rng, "abcdef", 3)
            expected = ref.similarity(stems, node, shape, k)
            worst = max(worst, abs(similarity(doc, node, kernel) - expected))
        elapsed = time.perf_counter() - started
        verdict(
            "C2 score brute-force equivalence",
            worst <= 1e-12 and elapsed < 10.0,
            f"max |engine - naive| = {worst:.2e}; {elapsed:.2f}s",
        )


class TestCriterion3RbfOracle:
    def test_boost_matches_straight_line_evaluation(self):
        rng = random.Random(20_003)
        worst = 0.0
        cases = 0
        for i in range(1000):
            if i % 5 == 0:
                # constant documents exercise the sigma = 0 window path
                stems = [rng.choice("ab")] * rng.randint(1, 12)
            else:
                stems = random_doc(rng, 20, "abcd") or ["a"]
            doc = build_document("d", stems)
            shape = rng.choice(KERNEL_SHAPES)
            k = rng.randint(1, 7)
            kf = rng.randint(1, 6)
            scale = rng.choice([0.0, 0.5, 1.0, 2.0])
            clamp = rng.random() < 0.5
            cfg = RbfConfig(
                kernel=InfluenceKernel(shape, k),
                kf=kf,
                threshold_scale=scale,
                clamp_output=clamp,
            )
            term = rng.choice("abcd")
            positions = {0, len(stems) - 1, rng.randrange(len(stems))}
            for x in positions:
                expected = ref.rbf_local_relevance(
                    stems, term, x, shape, k, kf, scale=scale, clamp=clamp
                )
                worst = max(worst, abs(rbf_local_relevance(doc, term, x, cfg) - expected))
                cases += 1
        verdict(
            "C3 sliding-window boost oracle equivalence",
            worst <= 1e-9,
            f"max |engine - oracle| = {worst:.2e} over {cases} positions",
        )


class TestCriterion4ReductionAndDominance:
    def test_filtered_windows_reduce_and_clamped_boost_dominates(self):
        rng = random.Random(20_004)
        kernel = InfluenceKernel("triangular", 5)

        # instances whose semantic filter provably keeps no nonzero neighbor,
        # verified with the independent reference implementation
        reduced_instances = 0
        reduction_exact = True
        half_band = RbfConfig(kernel=kernel, kf=1, threshold_scale=0.5)
        for _ in range(2000):
            stems = random_doc(rng, 12, "qxyz") or ["x"]
            doc = build_document("d", stems)
            keeps_nonzero = False
            for x in range(len(stems)):
                values = [
                    ref.local_relevance(stems, "q", i, "triangular", 5)
                    for i in range(max(0, x - 1), min(len(stems), x + 2))
                    if i != x
                ]
                if not values:
                    continue
                mu = sum(values) / len(values)
                sigma = (sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5
                if any(v > 0 and abs(v - mu) <= 0.5 * sigma for v in values):
                    keeps_nonzero = True
                    break
            if keeps_nonzero:
                continue
            reduced_instances += 1
            if rbf_similarity(doc, Term("q"), half_band) != similarity(doc, Term("q"), kernel):
                reduction_exact = False
        # absent terms and single-position documents always reduce
        for stems in (["a"], ["a", "b", "c", "a"], ["z"] * 6):
            doc = build_document("d", stems)
            cfg = RbfConfig(kernel=kernel, kf=3)
            if rbf_similarity(doc, Term("missing"), cfg) != similarity(doc, Term("missing"), kernel):
                reduction_exact = False
        single = build_document("d", ["a"])
        if rbf_similarity(single, Term("a"), RbfConfig(kernel=kernel, kf=4)) != similarity(
            single, Term("a"), kernel
        ):
            reduction_exact = False

        dominance_holds = True
        for _ in range(1000):
            stems = random_doc(rng, 30, "abq")
            doc = build_document("d", stems)
            cfg = RbfConfig(kernel=kernel, kf=rng.randint(1, 5))
            node = Term("q")
            boosted = rbf_similarity(doc, node, cfg)
            if boosted < similarity(doc, node, kernel) or boosted > 1.0:
                dominance_holds = False
        verdict(
            "C4 reduction equality and clamped dominance",
            reduction_exact and dominance_holds and reduced_instances >= 200,
            f"{reduced_instances} fully-filtered instances reduced exactly; "
            f"dominance on 1000 instances",
        )


class TestCriterion5DirectionalImprovement:
    SEEDS = (7, 101, 2024)

    def test_window_boost_improves_macro_f1_on_planted_corpora(self):
        # The narrow base kernel makes the baseline a positional term-frequency
        # classifier; the window boost then rewards positions whose k_f
        # neighborhood is dominated by planted descriptor/equivalent clusters,
        # which scattered cross-category terms cannot imitate.
        cfg = RbfConfig(kernel=InfluenceKernel("triangular", 1), kf=2)
        started = time.perf_counter()
        gains = []
        for seed in self.SEEDS:
            spec = uniform_synthetic_spec(
                3,
                2,
                4,
                docs_per_category=200,
                doc_length=150,
                injection_rate=0.7,
                noise_rate=0.30,
                cross_rate=0.52,
            )
            corpus, models = generate_synthetic_corpus(spec, seed)
            standard = evaluate(corpus, models, cfg, "standard")
            boosted = evaluate(corpus, models, cfg, "rbf")
            gains.append(boosted.macro_f1 - standard.macro_f1)
        elapsed = time.perf_counter() - started
        detail = ", ".join(f"seed {s}: {g:+.4f}" for s, g in zip(self.SEEDS, gains))
        verdict(
            "C5 directional macro-F1 improvement",
            all(g >= 0.0 for g in gains) and any(g >= 0.02 for g in gains) and elapsed < 60.0,
            f"{detail}; {elapsed:.1f}s",
        )


class TestCriterion6RangeAndLattice:
    def test_fuzz_invariants(self):
        rng = random.Random(20_006)
        docs = [build_document("d", random_doc(rng, 25, "abc")) for _ in range(100)]
        violations = 0
        for _ in range(10_000):
            doc = rng.choice(docs)
            shape = rng.choice(KERNEL_SHAPES)
            k = rng.randint(1, 9)
            kernel = InfluenceKernel(shape, k)
            x = rng.randint(-5, 30)
            a, b, c = Term("a"), Term("b"), Term("c")

            def at(node):
                return eval_query_at(doc, node, x, kernel)

            value = at(rng.choice([a, b, c]))
            if not 0.0 <= value <= 1.0:
                violations += 1
            if at(And(a, a)) != at(a) or at(Or(b, b)) != at(b):
                violations += 1
            if at(And(a, b)) != at(And(b, a)) or at(Or(a, b)) != at(Or(b, a)):
                violations += 1
            if at(And(And(a, b), c)) != at(And(a, And(b, c))):
                violations += 1
            if at(Or(Or(a, b), c)) != at(Or(a, Or(b, c))):
                violations += 1
            width = rng.randint(1, 10)
            if near_doc_relevance(doc, "a", "b", width) != near_doc_relevance(doc, "b", "a", width):
                violations += 1
            if influence(kernel, k) != 0.0 or influence(kernel, -k) != 0.0:
                violations += 1
            if shape != "gaussian" and influence(kernel, 0) != 1.0:
                violations += 1
        verdict("C6 range and lattice fuzz (10k cases)", violations == 0, f"{violations} violations")


class TestCriterion7PipelineDeterminism:
    SPEC_TEXT = (
        "docs_per_category = 30\n"
        "doc_length = 60\n"
        "injection_rate = 0.7\n"
        "noise_rate = 0.3\n"
        "cross_rate = 0.3\n"
        "noise_vocab_size = 25\n"
        "category: alpha\ndescriptors: alphad0 alphad1\nequivalents: alphae0=alphad0\n"
        "category: beta\ndescriptors: betad0 betad1\nequivalents: betae0=betad0\n"
        "category: gamma\ndescriptors: gammad0\nequivalents: gammae0=gammad0\n"
    )

    def _run(self, capsys, *argv) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def _pipeline(self, capsys, monkeypatch, root, run_id, workers):
        # each run works in its own directory with identical relative paths,
        # so every output (including printed summaries) is comparable
        workdir = root / run_id
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        (workdir / "spec.txt").write_text(self.SPEC_TEXT, encoding="utf-8")
        self._run(capsys, "gen-synth", "spec.txt", "--out-corpus", "synth.tsv",
                  "--out-categories", "cats.txt", "--seed", "13")
        # round-trip the generated corpus through plain text files + index
        from proxima.posindex import load_corpus

        (workdir / "docs").mkdir()
        generated = load_corpus("synth.tsv")
        with (workdir / "manifest.tsv").open("w", encoding="utf-8") as handle:
            for doc in generated:
                (workdir / "docs" / f"{doc.doc_id}.txt").write_text(
                    " ".join(doc.stems), encoding="utf-8"
                )
                handle.write(f"{doc.doc_id}.txt\t{generated.labels[doc.doc_id]}\n")
        index_out = self._run(capsys, "index", "docs", "--out", "corpus.tsv",
                              "--manifest", "manifest.tsv")
        classify_out = self._run(capsys, "classify", "corpus.tsv", "--categories", "cats.txt",
                                 "--mode", "rbf", "--workers", str(workers))
        eval_out = self._run(capsys, "eval", "corpus.tsv", "--categories", "cats.txt",
                             "--mode", "rbf", "--workers", str(workers))
        return (
            (workdir / "synth.tsv").read_bytes(),
            (workdir / "corpus.tsv").read_bytes(),
            index_out,
            classify_out,
            eval_out,
        )

    def test_two_runs_and_worker_counts_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        first = self._pipeline(capsys, monkeypatch, tmp_path, "a", workers=1)
        second = self._pipeline(capsys, monkeypatch, tmp_path, "b", workers=1)
        fanned = self._pipeline(capsys, monkeypatch, tmp_path, "c", workers=4)
        verdict(
            "C7 pipeline determinism (reruns and worker counts)",
            first == second == fanned,
            "gen-synth + index + classify + eval outputs identical",
        )


class TestCriterion8Throughput:
    def test_desk_scale_indexing_and_query(self):
        rng = random.Random(20_008)
        vocabulary = [f"w{i:03d}" for i in range(800)]
        raw_docs = [
            [rng.choice(vocabulary) for _ in range(200)] for _ in range(5000)
        ]
        node = And(Term("w001"), Or(Term("w002"), Term("w003")))
        kernel = InfluenceKernel("triangular", 5)
        started = time.perf_counter()
        corpus = Corpus()
        for i, stems in enumerate(raw_docs):
            corpus.add(build_document(f"doc{i:05d}", stems))
        ranked = sorted(
            ((doc.doc_id, value) for doc in corpus if (value := similarity(doc, node, kernel)) > 0),
            key=lambda pair: (-pair[1], pair[0]),
        )
        elapsed = time.perf_counter() - started
        verdict(
            "C8 desk-scale throughput (5000 docs, 3-term query)",
            elapsed < 10.0 and len(ranked) > 0,
            f"{elapsed:.2f}s for index + score + rank",
        )
