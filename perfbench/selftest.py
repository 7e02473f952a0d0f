#!/usr/bin/env python3
"""Show that every correctness check rejects a corrupted output.

    python3 perfbench/selftest.py [--seed N]

Runs `proxima index`, `query` and `eval` and the library on the index-arabic
inputs, `gen-synth` and `eval` on the planted corpus, and a traced classify.
It passes each real output to its check (which must accept it), then a copy
with one deliberate fault (which must be rejected): two ranked docs swapped,
one similarity off by one ulp, one stem changed, one confusion cell altered,
and one fault for every other check.  Exits 0 when every check behaves.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import shutil
import sys

import checks
import reference as ref
import run
import workloads
from spans import Tracer


def expect_planted(s: run.Session, directory, expect) -> None:
    """gen-synth's corpus shape and determinism, and the rbf gain on it as `eval` prints it."""
    run.gen_synth(s, directory)
    digest = s.synth_digest
    w = workloads.make_classify_planted(directory)
    spec = workloads.PLANTED_SPEC
    vocabulary = set(workloads.planted_vocabulary())
    n = len(w.categories)
    expect("gen-synth: corpus shape", checks.planted_corpus(w.docs, w.labels, spec, vocabulary, n), False)
    docs = copy.deepcopy(w.docs)
    docs[next(iter(docs))].pop()
    expect("gen-synth: one doc a stem short", checks.planted_corpus(docs, w.labels, spec, vocabulary, n), True)
    labels = dict(w.labels)
    labels.pop(next(iter(labels)))
    expect("gen-synth: one labeled doc dropped", checks.planted_corpus(w.docs, labels, spec, vocabulary, n), True)
    docs = copy.deepcopy(w.docs)
    docs[next(iter(docs))][0] = "stray"
    expect("gen-synth: one stem outside the vocabulary", checks.planted_corpus(docs, w.labels, spec, vocabulary, n), True)
    expect("gen-synth: same bytes again", checks.same_digest(digest, digest), False)
    expect("gen-synth: different bytes", checks.same_digest(digest[::-1], digest), True)

    names = sorted(c.name for c in w.categories)
    f1 = {}
    for mode in run.MODES:
        out = s.cli(["eval", "synth.tsv", "--categories", "categories.txt", "--mode", mode, "--k", "1", "--kf", "2"],
                    directory)
        confusion, _ = checks.parse_eval(out.stdout, names)
        f1[mode] = ref.macro_f1(names, confusion)
    expect("eval: rbf macro-F1 above standard", checks.rbf_gain(f1["rbf"], f1["standard"]), False)
    expect("eval: the two macro-F1 swapped", checks.rbf_gain(f1["standard"], f1["rbf"]), True)


def expect_spans(E, docs, models, cfg, expect) -> None:
    """The span tree and the self-time sum of a small traced classify."""
    tracer = Tracer()
    restore = tracer.install()
    root = tracer.open("bench.run")
    try:
        for doc in docs:
            E.classify.classify(doc, models, cfg, "rbf")
    finally:
        tracer.close(root)
        restore()
    start, end, parent = list(tracer.start), list(tracer.end), list(tracer.parent)
    wall = end[0] - start[0]
    expect("trace: span tree as recorded", checks.span_tree(start, end, parent), False)
    child = next(i for i, p in enumerate(parent) if p > 0)
    unclosed = end[:child] + [-1] + end[child + 1 :]
    expect("trace: one span never closed", checks.span_tree(start, unclosed, parent), True)
    outlives = end[:child] + [end[parent[child]] + 1] + end[child + 1 :]
    expect("trace: one span outlives its parent", checks.span_tree(start, outlives, parent), True)
    shares = tracer.self_times()
    expect("trace: self times sum to wall time", checks.self_time_sum(shares, wall), False)
    dropped = list(shares)
    dropped.remove(max(dropped))
    expect("trace: one span's self time dropped", checks.self_time_sum(dropped, wall), True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not (run.SRC / "proxima" / "__init__.py").is_file():
        print(f"error: no proxima package under {run.SRC}", file=sys.stderr)
        return 2
    run.load_engine()
    E = run.E
    workdir = run.WORK / f"selftest-{os.getpid()}"
    results: list[tuple[str, bool]] = []

    def expect(what: str, problems: list[str], corrupted: bool) -> None:
        ok = bool(problems) == corrupted
        results.append((what, ok))
        verdict = ("rejected" if problems else "accepted") + ("" if ok else "  <-- WRONG")
        print(f"{what:58s} {verdict}")

    try:
        s = run.Session("index-arabic", args.seed)
        inp, _ = run.setup(s, workdir / "inputs")
        w, d = inp.workload, inp.directory
        workloads.write_docs(d, w)

        out = s.cli(["index", "docs", "--out", "corpus.tsv", "--manifest", "manifest.tsv"], d)
        written, _ = workloads.read_corpus_file(d / "corpus.tsv")
        expect("index: stems as written", checks.stems(written, w.docs, w.forbidden_stems), False)
        doc_id = next(iter(written))
        bad = copy.deepcopy(written)
        bad[doc_id][3] = bad[doc_id][3][:-1] + ("ب" if bad[doc_id][3][-1] != "ب" else "ج")
        expect("index: one stem changed", checks.stems(bad, w.docs, w.forbidden_stems), True)
        bad = copy.deepcopy(written)
        bad[doc_id][5] = "ال" + bad[doc_id][5]
        expect("index: one stem keeps its article", checks.stems(bad, w.docs, w.forbidden_stems), True)
        # got == want below, so only the test for foldable characters and stop words can reject
        bad = {doc_id: written[doc_id][:3] + [written[doc_id][3] + "َ"]}
        expect("index: a planted stem carries a diacritic", checks.stems(bad, copy.deepcopy(bad)), True)
        stop_word = next(iter(w.forbidden_stems))
        bad = {doc_id: written[doc_id][:3] + [stop_word]}
        expect("index: a planted stem is a stop word", checks.stems(bad, copy.deepcopy(bad), w.forbidden_stems), True)
        expect("index: printed counts", checks.index_summary(out.stdout, w.docs), False)
        expect("index: one count off", checks.index_summary(out.stdout.replace(" documents", "1 documents"), w.docs), True)

        corpus = E.posindex.load_corpus(d / "corpus.tsv")
        expect("load_corpus: labels as written", checks.labels(corpus.labels, w.labels, "l"), False)
        bad = dict(corpus.labels)
        bad[next(iter(bad))] = next(name for name in inp.names if name != bad[next(iter(bad))])
        expect("load_corpus: one label altered", checks.labels(bad, w.labels, "l"), True)

        got = [(m.name, sorted(m.descriptors), sorted(m.equivalents.items())) for m in inp.models]
        want = [(c.name, sorted(c.descriptors), sorted(c.equivalents.items())) for c in w.categories]
        expect("load_categories: categories as read", checks.categories(got, want), False)
        expect("load_categories: one category dropped", checks.categories(got[1:], want), True)
        kernel = E.proxcore.InfluenceKernel("triangular", w.k)
        docs = list(corpus)
        text, tree = next(
            (t, q) for t, q in w.queries if ref.required_terms(q) and len(run.rank(t, docs, kernel)) >= 3
        )
        ranked = run.rank(text, docs, kernel)
        required = ref.required_terms(tree)
        expect("query: ranking as ranked", checks.ranking(ranked, inp.doc_terms, required, "q"), False)
        swapped = list(ranked)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        expect("query: two ranked docs swapped", checks.ranking(swapped, inp.doc_terms, required, "q"), True)
        lacking = next(doc.doc_id for doc in docs if not required <= inp.doc_terms[doc.doc_id])
        missing = [(lacking, ranked[-1][1] / 2)]  # ordered and in range: only the required terms are wrong
        expect("query: a doc lacking a required term ranked", checks.ranking(ranked + missing, inp.doc_terms, required, "q"), True)

        doc_id, value = ranked[0]
        want = ref.similarity(w.docs[doc_id], tree, w.k)
        again = E.proxcore.similarity(corpus.documents[doc_id], E.querylang.parse_query(text), kernel)
        nudged = math.nextafter(value, math.inf)
        expect("similarity: engine vs reference", checks.close([("s", value, want)]), False)
        expect("similarity: off by 1e-9 vs reference", checks.close([("s", value + 1e-9, want)]), True)
        expect("similarity: repeated call", checks.repeatable([("s", value, again)]), False)
        expect("similarity: perturbed by one ulp", checks.repeatable([("s", nudged, again)]), True)

        (d / "queries.txt").write_text(f"{text}\n{text}\n", encoding="utf-8")  # two, so blocks get headers
        out = s.cli(["query", "corpus.tsv", "--query-file", "queries.txt"], d)
        expect("query CLI: output as printed", checks.query_cli(out.stdout, [text] * 2, [ranked] * 2), False)
        lines = out.stdout.splitlines()
        lines[1], lines[2] = lines[2].replace("2\t", "1\t", 1), lines[1].replace("1\t", "2\t", 1)
        expect("query CLI: two ranked docs swapped", checks.query_cli("\n".join(lines), [text] * 2, [ranked] * 2), True)

        cfg = E.rbfwin.RbfConfig(kernel=kernel, kf=w.kf)
        doc = corpus.documents[next(iter(w.labels))]
        ranking = E.classify.classify(doc, inp.models, cfg, "rbf")
        scores = {
            c.name: ref.category_similarity(w.docs[doc.doc_id], c.descriptors, c.equivalents, w.k, w.kf, "rbf")
            for c in w.categories
        }
        expect("classify: top-1 as ranked", checks.top1("c", ranking, scores), False)
        expect("classify: categories reversed", checks.top1("c", ranking[::-1], scores), True)

        names = inp.names
        index = {name: i for i, name in enumerate(names)}
        confusion = [[0] * len(names) for _ in names]
        for doc_id, label in w.labels.items():
            top = E.classify.classify(corpus.documents[doc_id], inp.models, cfg, "rbf")[0][0]
            confusion[index[label]][index[top]] += 1
        out = s.cli(["eval", "corpus.tsv", "--categories", "categories.txt", "--mode", "rbf", "--workers", "2"], d)
        expect("eval: output as printed", checks.evaluation(out.stdout, names, w.labels, confusion), False)
        lines = out.stdout.splitlines()
        row = lines.index("confusion (rows: true, columns: predicted)") + 2
        fields = lines[row].split(" ")
        fields[-1] = str(int(fields[-1]) + 1)
        lines[row] = " ".join(fields)
        expect("eval: one confusion cell altered", checks.evaluation("\n".join(lines), names, w.labels, confusion), True)
        lines = out.stdout.splitlines()
        macro = next(i for i, line in enumerate(lines) if line.startswith("macro\t"))
        lines[macro] = lines[macro][:-1] + ("1" if lines[macro][-1] != "1" else "2")
        expect("eval: printed macro-F1 altered", checks.evaluation("\n".join(lines), names, w.labels, confusion), True)

        standard = [E.classify.classify(doc, inp.models, cfg, "standard") for doc in docs[:40]]
        again = [E.classify.classify(doc, inp.models, cfg, "standard") for doc in docs[:40]]
        expect("classify: repeated standard pass", checks.same_rankings(standard, again, "pass"), False)
        again[7] = [again[7][1], again[7][0], *again[7][2:]]
        expect("classify: repeated pass with two categories swapped", checks.same_rankings(standard, again, "pass"), True)

        expect_planted(s, workdir / "planted", expect)
        expect_spans(E, docs[:6], inp.models, cfg, expect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    wrong = [what for what, ok in results if not ok]
    print(f"{len(results) - len(wrong)} of {len(results)} checks behaved")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
