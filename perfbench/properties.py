#!/usr/bin/env python3
"""Measure the workload properties that later optimisations depend on.

    python3 perfbench/properties.py [--seed N]

Prints, for the given seed:
- the share of (query, doc) and (category, doc) pairs that score above zero
  on rank-sparse and classify-planted (what candidate pruning can skip);
- on rank-sparse, the cost per query of its corpus and of a full-size C8
  corpus (5000 docs of the same shape), and the share of docs the C8 query
  ``w001 AND (w002 OR w003)`` scores above zero on each;
- on classify-planted in rbf mode, the number of windows, of distinct
  neighbour-value tuples, and the share of all-zero windows (what a memo of
  the window boost and a zero-window skip can save);
- `evaluate` in rbf mode against standard mode, and `proxima eval --workers 2`
  against one worker, on the classify-planted corpus (medians of three).
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import sys
import time

import run
import workloads


def median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def query_pairs(s: run.Session, directory) -> tuple[int, int, object, run.Inputs]:
    inp, _ = run.setup(s, directory)
    corpus_docs = inp.workload.docs
    corpus = run.E.posindex.Corpus()
    for doc_id, stems in corpus_docs.items():
        corpus.add(run.E.posindex.build_document(doc_id, stems), inp.workload.labels.get(doc_id))
    kernel = run.E.proxcore.InfluenceKernel("triangular", inp.workload.k)
    docs = list(corpus)
    nonzero = sum(len(run.rank(text, docs, kernel)) for text, _ in inp.workload.queries)
    return nonzero, len(inp.workload.queries) * len(docs), corpus, inp


def c8_comparison(inp: run.Inputs) -> None:
    """rank-sparse against the full C8 corpus of tests/test_acceptance.py: same shape, 5000 docs."""
    rng = random.Random(20_008)
    vocabulary = [f"w{i:03d}" for i in range(workloads.SPARSE_VOCABULARY)]
    c8 = [run.E.posindex.build_document(f"doc{i:05d}", [rng.choice(vocabulary) for _ in range(200)])
          for i in range(5000)]
    ours = [run.E.posindex.build_document(doc_id, stems) for doc_id, stems in inp.workload.docs.items()]
    kernel = run.E.proxcore.InfluenceKernel("triangular", inp.workload.k)
    texts = [text for text, _ in inp.workload.queries[:20]]
    for name, docs in (("rank-sparse", ours), ("C8", c8)):
        started = time.perf_counter()
        for text in texts:
            run.rank(text, docs, kernel)
        per_query = (time.perf_counter() - started) / len(texts)
        hits = len(run.rank("w001 AND (w002 OR w003)", docs, kernel))
        print(f"{name} ({len(docs)} docs): {per_query * 1e3:.1f} ms per query over the first {len(texts)} queries; "
              f"w001 AND (w002 OR w003) scores > 0 on {hits} docs ({hits / len(docs):.2%})")


def category_pairs(corpus, inp: run.Inputs) -> tuple[int, int]:
    w = inp.workload
    cfg = run.E.rbfwin.RbfConfig(kernel=run.E.proxcore.InfluenceKernel("triangular", w.k), kf=w.kf)
    scores = [v for doc in corpus for _, v in run.E.classify.classify(doc, inp.models, cfg, "standard")]
    return sum(v > 0.0 for v in scores), len(scores)


def windows(corpus, inp: run.Inputs) -> tuple[int, int, int]:
    """Windows, distinct neighbour-value tuples and all-zero windows of rbf classification."""
    w = inp.workload
    kernel = run.E.proxcore.InfluenceKernel("triangular", w.k)
    total, zero, distinct = 0, 0, set()
    for doc in corpus:
        for model in inp.models:
            prepared = run.E.classify.substitute_equivalents(doc, model)
            for descriptor in model.descriptors:
                values = run.E.proxcore.term_profile(prepared, descriptor, kernel).tolist()
                for x in range(len(values)):
                    window = tuple(values[max(0, x - w.kf) : x] + values[x + 1 : x + w.kf + 1])
                    total += 1
                    zero += not any(window) and values[x] == 0.0
                    distinct.add(window)
    return total, len(distinct), zero


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run.load_engine()
    workdir = run.WORK / f"properties-{os.getpid()}"
    try:
        for name in ("rank-sparse", "classify-planted"):
            s = run.Session(name, args.seed)
            nonzero, pairs, corpus, inp = query_pairs(s, workdir / name)
            print(f"{name}: {nonzero} of {pairs} (query, doc) pairs score > 0 ({nonzero / pairs:.2%})")
            nonzero, pairs = category_pairs(corpus, inp)
            print(f"{name}: {nonzero} of {pairs} (category, doc) pairs score > 0 in standard mode ({nonzero / pairs:.2%})")
            if name == "rank-sparse":
                c8_comparison(inp)
        total, distinct, zero = windows(corpus, inp)
        print(f"classify-planted rbf: {total} windows, {distinct} distinct neighbour-value tuples, "
              f"{zero} all-zero windows with a zero base ({zero / total:.2%})")

        w = inp.workload
        cfg = run.E.rbfwin.RbfConfig(kernel=run.E.proxcore.InfluenceKernel("triangular", w.k), kf=w.kf)
        times = {mode: median_time(lambda: run.E.classify.evaluate(corpus, inp.models, cfg, mode)) for mode in run.MODES}
        print(f"classify-planted evaluate: rbf {times['rbf']:.2f} s, standard {times['standard']:.2f} s "
              f"({times['rbf'] / times['standard']:.1f}x)")
        workloads.write_docs(inp.directory, w)
        s.cli(["index", "docs", "--out", "corpus.tsv", "--manifest", "manifest.tsv"], inp.directory)
        cli = {}
        for workers in (1, 2):
            argv = ["eval", "corpus.tsv", "--categories", "categories.txt", "--mode", "rbf",
                    "--workers", str(workers), "--k", str(w.k), "--kf", str(w.kf)]
            cli[workers] = median_time(lambda: s.cli(argv, inp.directory))
        print(f"classify-planted `eval --mode rbf`: --workers 2 {cli[2]:.2f} s, --workers 1 {cli[1]:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
