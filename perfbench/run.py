#!/usr/bin/env python3
"""Benchmark for proxima.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the repository root; it needs ``src/proxima``.  The workload's
inputs are made from the seed.  Every run goes through one user session on
those inputs, in rounds, until S seconds have passed: ``proxima index``
writes the corpus, ``load_corpus`` reads it back, a set of plain queries is
ranked in the library and again through ``proxima query``, the library
classifies every doc in standard mode (twice) and the labeled docs in rbf
mode, and ``proxima eval --mode rbf --workers 2`` scores them twice.  CLI
commands run through peak_cli.py, which records each process's peak RSS.  Each
output is checked against reference.py or against properties the method
must have.  The workloads differ in their inputs, and so in which layer
dominates (see README.md).

Every timing is scaled to the reference machine's speed by calibrations
taken around it (calibration.py), since that machine's speed drifts by up
to 1.7x while a run measures; stderr shows the unscaled values too.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` the run does one untraced and
one traced pass of setup plus one round, and the metrics are the per-layer
ones from the traced pass (spans.py).
"""

from __future__ import annotations

import os

# numpy's BLAS would start a thread per core in every process; nothing here uses it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from calibration import calibration  # noqa: E402
from spans import TRACED, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
MODES = ("standard", "rbf")
SETUPS = 5  # set-ups before the first round; setup_s is the median of these and one after every round
SLICES = 8  # the round's library work runs in this many slices between its other steps
CLI_TIMEOUT = 150
# each kind of calibration's median seconds on the reference machine; every
# sample is scaled to that speed (calibration.py, README.md)
REFERENCE_S = {"library": 0.00244, "process": 0.196}
CALIBRATION_WINDOW = 1.0  # seconds on either side of a sample whose calibrations set its scale
# timings of CLI processes, scaled by the process probe; every other timing is a library call
PROCESS_TIMINGS = {"query_cli", "eval_cli", "index", "setup_cli"}
SETUP_SAMPLE_S = 0.1  # a set-up shorter than this is repeated until its samples add up to it

MAKERS = {
    "rank-sparse": workloads.make_rank_sparse,
    "classify-planted": lambda d, seed: workloads.make_classify_planted(d),
    "index-arabic": lambda d, seed: workloads.make_index_arabic(d, seed, SRC / "proxima" / "data"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_cli_s": "s",
    "classify_standard_docs_per_s": "docs/s",
    "classify_rbf_docs_per_s": "docs/s",
    "eval_cli_s": "s",
    "index_tokens_per_s": "tokens/s",
    "corpus_load_s": "s",
    "corpus_bytes": "bytes",
}

E = SimpleNamespace()  # proxima modules; module attributes are what the tracer wraps


def load_engine() -> None:
    sys.path.insert(0, str(SRC))
    for layer in ("classify", "posindex", "proxcore", "querylang", "rbfwin"):
        # import_module, because the package re-exports a function named `classify`
        setattr(E, layer, importlib.import_module(f"proxima.{layer}"))


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    started: float
    ended: float

    @property
    def seconds(self) -> float:
        return self.ended - self.started


class Session:
    """One pass over a workload: CLI runner, timing samples, problems found, op counts."""

    def __init__(self, workload: str, seed: int, tracer: Tracer | None = None, calibrated: bool = False):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.calibrated = calibrated  # whether to take the machine's speed around timed work
        # timing -> operation -> (seconds, started, ended), as measured
        self.samples: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        self.calibrations: dict[str, list] = {"library": [], "process": []}  # kind -> (started, ended, seconds)
        self.corpus_bytes = 0
        self.peak_kb = 0  # largest peak RSS of a CLI process
        self.tokens_indexed = 0  # raw tokens sent through `proxima index`
        self.synth_digest: str | None = None  # gen-synth must give the same corpus in every set-up
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def cli(self, argv: list[str], cwd: Path) -> CliRun:
        """Run one `proxima` command as its own process, timed from spawn to exit."""
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        if self.tracer is None:
            peak_file = cwd / "peak.txt"
            command = [sys.executable, str(BENCH / "peak_cli.py"), str(peak_file), *argv]
        else:
            span = self.tracer.open("cli.process")
            spans_file = cwd / f"spans-{span}.json"
            command = [sys.executable, str(BENCH / "trace_cli.py"), str(spans_file), *argv]
        self.calibrate("process")
        started = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT)
        finally:
            ended = time.perf_counter()
            if self.tracer is not None:
                self.tracer.close(span)
        if self.tracer is not None:
            self.tracer.merge(spans_file, span)
            spans_file.unlink()
        elif peak_file.exists():
            self.peak_kb = max(self.peak_kb, int(peak_file.read_text()))
            peak_file.unlink()
        self.calibrate("process")
        return CliRun(proc.returncode, proc.stdout, proc.stderr, started, ended)

    def calibrate(self, kind: str = "library") -> None:
        """Take the machine's speed now, in a calibrated session: a
        calibration() call, or the seconds of one probe process."""
        if not self.calibrated:
            return
        started = time.perf_counter()
        if kind == "library":
            seconds = calibration()
        else:
            # through pipes, as cli() runs a command: without them, wait() polls in steps of up to 50 ms
            probe = subprocess.run(
                [sys.executable, str(BENCH / "calibration.py")], capture_output=True, timeout=CLI_TIMEOUT
            )
            seconds = time.perf_counter() - started
            if probe.returncode != 0:
                raise RuntimeError(f"the calibration probe exited {probe.returncode}")
        self.calibrations[kind].append((started, time.perf_counter(), seconds))

    def timed(self, timing: str, operation, started: float, ended: float | None = None,
              seconds: float | None = None) -> None:
        """One sample of an operation that ran from ``started`` to ``ended`` (now if not given);
        its seconds are that interval unless given."""
        ended = time.perf_counter() if ended is None else ended
        self.samples[timing][operation].append((ended - started if seconds is None else seconds, started, ended))

    def scale(self, kind: str, started: float, ended: float) -> float:
        """Reference speed over the machine's speed around an interval: the
        median of the calibrations of ``kind`` within CALIBRATION_WINDOW
        seconds of it, or of all of them if none is that near."""
        taken = self.calibrations[kind]
        if not taken:
            return 1.0
        starts = [c[0] for c in taken]
        first = bisect.bisect_left(starts, started - CALIBRATION_WINDOW)
        last = bisect.bisect_right(starts, ended + CALIBRATION_WINDOW)
        near = [c[2] for c in taken[first:last]] or [c[2] for c in taken]
        return REFERENCE_S[kind] / statistics.median(near)

    def time_of(self, timing: str, scaled: bool = True) -> dict:
        """Each operation's time over the run: the median of its samples,
        each scaled to the reference machine's speed unless ``scaled`` is false."""
        kind = "process" if timing in PROCESS_TIMINGS else "library"
        return {
            operation: statistics.median(
                seconds * (self.scale(kind, started, ended) if scaled else 1.0) for seconds, started, ended in values
            )
            for operation, values in self.samples[timing].items()
        }

    def op(self, run: CliRun, what: str) -> bool:
        self.attempted += 1
        if run.returncode != 0:
            self.failed += 1
            self.problems.append(f"{what} exited {run.returncode}: {run.stderr.strip()[-500:]}")
        return run.returncode == 0

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    @contextmanager
    def checking(self):
        """The benchmark's own engine calls, which a trace should not count."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False


@dataclass
class Inputs:
    workload: workloads.Workload
    directory: Path
    models: list  # CategoryModel, as load_categories read them
    fault_docs: list  # PositionalDocument
    fault_models: list  # CategoryModel
    stems: dict[str, list[str]]  # doc id -> planted stems, fixed fault docs included
    doc_terms: dict[str, set[str]]
    names: list[str]


# ---------------------------------------------------------------------------
# Set-up


def setup(s: Session, directory: Path) -> tuple[Inputs, float]:
    """Make the inputs, all but the doc files, and run the program's set-up on them.

    Returns the inputs and the seconds spent in the program's part of
    set-up (``program_setup``).  The benchmark's own generation of inputs
    is left out of that time, and so is ``write_docs``: writing thousands of
    small files varies several-fold with the file system's state.
    """
    seconds = 0.0
    if s.workload == "classify-planted":
        seconds += gen_synth(s, directory).seconds
    w = MAKERS[s.workload](directory, s.seed)
    if w.name == "classify-planted":
        vocabulary = set(workloads.planted_vocabulary())
        s.check(checks.planted_corpus(w.docs, w.labels, workloads.PLANTED_SPEC, vocabulary, len(w.categories)))
    workloads.write_query_file(directory / "queries.txt", w)
    models, fault_docs, fault_models, started, ended = program_setup(s, w, directory)
    stems = {**w.fault_docs, **w.docs}
    doc_terms = {d: set(doc) for d, doc in stems.items()}
    names = sorted(c.name for c in w.categories)
    return Inputs(w, directory, models, fault_docs, fault_models, stems, doc_terms, names), seconds + ended - started


def setup_again(s: Session, inp: Inputs, directory: Path) -> float:
    """The program's part of set-up once more, in a fresh directory, as one
    sample of ``setup_s``: its CLI part (timing ``setup_cli``) and its
    library part (``setup_lib``), under the same number.  Returns its seconds."""
    number = len(s.samples["setup_lib"])
    seconds = 0.0
    if s.workload == "classify-planted":
        run = gen_synth(s, directory)
        s.timed("setup_cli", number, run.started, run.ended)
        seconds += run.seconds
    else:
        directory = inp.directory
    *_, started, ended = program_setup(s, inp.workload, directory)
    s.timed("setup_lib", number, started, ended)
    if directory != inp.directory:
        shutil.rmtree(directory)
    return seconds + ended - started


def gen_synth(s: Session, directory: Path) -> CliRun:
    """`proxima gen-synth` writes the planted corpus and categories."""
    workloads.write_planted_spec(directory)
    run = s.cli(workloads.gen_synth_args(s.seed), directory)
    if run.returncode != 0:
        raise RuntimeError(f"gen-synth failed: {run.stderr.strip()}")
    digest = hashlib.sha256((directory / "synth.tsv").read_bytes()).hexdigest()
    s.check(checks.same_digest(digest, s.synth_digest))
    s.synth_digest = digest
    return run


def program_setup(s: Session, w: workloads.Workload, directory: Path):
    """The engine objects a session starts from: the categories read back, and the fixed docs built."""
    started = time.perf_counter()
    models = E.classify.load_categories(directory / "categories.txt")
    fault_docs = [E.posindex.build_document(d, stems) for d, stems in w.fault_docs.items()]
    fault_models = []
    if w.fault_category is not None:
        fault_models = [E.classify.CategoryModel(w.fault_category.name, frozenset(w.fault_category.descriptors))]
    ended = time.perf_counter()
    got = [(m.name, sorted(m.descriptors), sorted(m.equivalents.items())) for m in models]
    want = [(c.name, sorted(c.descriptors), sorted(c.equivalents.items())) for c in w.categories]
    s.check(checks.categories(got, want))
    return models, fault_docs, fault_models, started, ended


# ---------------------------------------------------------------------------
# One round


def rank(text: str, docs, kernel) -> list[tuple[str, float]]:
    """What `proxima query` does per query: parse, score every doc, rank the nonzero."""
    node = E.querylang.parse_query(text)
    similarity = E.proxcore.similarity
    scored = ((doc.doc_id, value) for doc in docs if (value := similarity(doc, node, kernel)) > 0.0)
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def run_round(s: Session, inp: Inputs, round_no: int) -> None:
    """One round: the CLI commands and known-fault operations, with the
    library work in SLICES slices between them, so that every timing samples
    the whole round rather than one stretch of it (README.md)."""
    w = inp.workload
    rng = random.Random(f"{s.workload}/{s.seed}/check/{round_no}")
    kernel = E.proxcore.InfluenceKernel("triangular", w.k)
    cfg = E.rbfwin.RbfConfig(kernel=kernel, kf=w.kf)
    index_command(s, inp)
    corpus = load(s, inp)
    docs = list(corpus)
    labeled = [corpus.documents[doc_id] for doc_id in w.labels]
    rankings: list = [None] * len(w.queries)
    # standard mode is an order of magnitude cheaper, so it covers every doc, twice
    passes = {"standard": [None] * len(docs), "again": [None] * len(docs), "rbf": [None] * len(labeled)}
    slices = iter(range(SLICES))

    def library_slice() -> None:
        """One slice of each library operation: queries, both classify passes, a load."""
        b = next(slices)
        s.calibrate()
        for number in part(len(w.queries), b):
            started = time.perf_counter()
            rankings[number] = rank(w.queries[number][0], docs, kernel)
            s.timed("query", number, started)
            s.attempted += 1
        classify_slice(s, inp, docs, passes["standard"], b, cfg, "standard")
        classify_slice(s, inp, docs, passes["again"], (b + SLICES // 2) % SLICES, cfg, "standard")
        classify_slice(s, inp, labeled, passes["rbf"], b, cfg, "rbf")
        load(s, inp)
        s.calibrate()

    library_slice()
    fault_queries(s, inp, kernel, rng)
    library_slice()
    evaluations = [eval_command(s, inp)]
    library_slice()
    query_command(s, inp, rankings)
    library_slice()
    fault_categories(s, inp, cfg)
    library_slice()
    index_command(s, inp)
    library_slice()
    evaluations.append(eval_command(s, inp))
    library_slice()
    query_command(s, inp, rankings)
    library_slice()
    if next(slices, None) is not None:
        raise AssertionError("a slice of library work was left out of the round")

    s.check(checks.same_rankings(passes["standard"], passes["again"], "standard classify pass"))
    with s.checking():
        check_rankings(s, inp, corpus.documents, w.queries, rankings, kernel, rng, 12)
        confusion = category_checks(s, inp, docs, labeled, passes, cfg, rng)
    for evaluation in evaluations:
        if evaluation is not None:
            check_eval(s, inp, evaluation, confusion)


def part(n: int, b: int) -> range:
    """Slice ``b`` of ``n`` items."""
    return range(b * n // SLICES, (b + 1) * n // SLICES)


def fault_queries(s: Session, inp: Inputs, kernel, rng) -> None:
    """The known-fault queries, each against the fixed docs."""
    for text, tree in inp.workload.fault_queries:
        s.attempted += 1
        try:
            ranked = rank(text, inp.fault_docs, kernel)
        except RecursionError:
            s.failed += 1
            continue
        with s.checking():
            fault_docs = {doc.doc_id: doc for doc in inp.fault_docs}
            check_rankings(s, inp, fault_docs, [(text, tree)], [ranked], kernel, rng, len(fault_docs))


def category_checks(s: Session, inp: Inputs, docs, labeled, passes, cfg, rng) -> dict[str, list[list[int]]]:
    """Sampled checks of both modes' category rankings, and their confusion matrices."""
    w = inp.workload
    index = {name: i for i, name in enumerate(inp.names)}
    confusion = {}
    for mode, subset in (("standard", docs), ("rbf", labeled)):
        results = passes[mode]
        for i in rng.sample(range(len(subset)), 3):
            check_categories(s, inp, subset[i], results[i], inp.models, w.categories, cfg, mode)
        confusion[mode] = [[0] * len(index) for _ in index]
        for doc, ranked in zip(subset, results):
            if doc.doc_id in w.labels:
                confusion[mode][index[w.labels[doc.doc_id]]][index[ranked[0][0]]] += 1
    return confusion


def fault_categories(s: Session, inp: Inputs, cfg) -> None:
    """The known-fault category, in both modes, against the fixed docs."""
    w = inp.workload
    for mode in MODES:
        if not inp.fault_models:
            break
        s.attempted += 1
        try:
            results = [E.classify.classify(doc, inp.fault_models, cfg, mode) for doc in inp.fault_docs]
        except RecursionError:
            s.failed += 1
            continue
        with s.checking():
            for doc, ranked in zip(inp.fault_docs, results):
                check_categories(s, inp, doc, ranked, inp.fault_models, [w.fault_category], cfg, mode)


def eval_command(s: Session, inp: Inputs) -> CliRun | None:
    w = inp.workload
    flags = ["--k", str(w.k), "--kf", str(w.kf)]
    argv = ["eval", "corpus.tsv", "--categories", "categories.txt", "--mode", "rbf", "--workers", "2", *flags]
    run = s.cli(argv, inp.directory)
    if not s.op(run, "eval"):
        return None
    s.timed("eval_cli", 0, run.started, run.ended)
    return run


def check_eval(s: Session, inp: Inputs, run: CliRun, confusion: dict) -> None:
    """`eval` against the library's confusion matrices; on classify-planted, rbf beats standard."""
    w = inp.workload
    s.check(checks.evaluation(run.stdout, inp.names, w.labels, confusion["rbf"]))
    if w.rbf_beats_standard:
        standard_f1 = ref.macro_f1(inp.names, confusion["standard"])
        _, rbf_f1 = checks.parse_eval(run.stdout, inp.names)
        s.check(checks.rbf_gain(rbf_f1, standard_f1))


def index_command(s: Session, inp: Inputs) -> None:
    w, d = inp.workload, inp.directory
    run = s.cli(["index", "docs", "--out", "corpus.tsv", "--manifest", "manifest.tsv"], d)
    s.tokens_indexed += w.raw_tokens
    if s.op(run, "index"):
        s.timed("index", 0, run.started, run.ended)
        s.corpus_bytes = (d / "corpus.tsv").stat().st_size
        s.check(checks.index_summary(run.stdout, w.docs))
        written, labels = workloads.read_corpus_file(d / "corpus.tsv")
        s.check(checks.stems(written, w.docs, w.forbidden_stems))
        s.check(checks.labels(labels, w.labels, "corpus file"))


def query_command(s: Session, inp: Inputs, rankings) -> None:
    w = inp.workload
    argv = ["query", "corpus.tsv", "--query-file", "queries.txt", "--k", str(w.k), "--kf", str(w.kf)]
    if None in rankings[: w.cli_queries]:
        raise AssertionError("`proxima query` ran before the library ranked its queries")
    run = s.cli(argv, inp.directory)
    if s.op(run, "query"):
        s.timed("query_cli", 0, run.started, run.ended)
        n = w.cli_queries
        s.check(checks.query_cli(run.stdout, [text for text, _ in w.queries[:n]], rankings[:n]))


def load(s: Session, inp: Inputs):
    started = time.perf_counter()
    corpus = E.posindex.load_corpus(inp.directory / "corpus.tsv")
    s.timed("load", 0, started)
    s.attempted += 1
    s.check(checks.stems({doc.doc_id: list(doc.stems) for doc in corpus}, inp.workload.docs))
    s.check(checks.labels(corpus.labels, inp.workload.labels, "load_corpus"))
    return corpus


def classify_slice(s: Session, inp: Inputs, docs, results: list, b: int, cfg, mode: str) -> None:
    """Library classify of slice ``b`` of the docs, into the same places of ``results``."""
    chunk = part(len(docs), b)
    started = time.perf_counter()
    results[chunk.start : chunk.stop] = [E.classify.classify(docs[i], inp.models, cfg, mode) for i in chunk]
    s.timed(f"classify_{mode}", b, started)
    s.attempted += len(chunk)


def check_rankings(s: Session, inp: Inputs, documents, queries, rankings, kernel, rng, samples: int) -> None:
    """Every ranking's order, range and required terms; a seeded sample against the reference."""
    for (text, tree), ranked in zip(queries, rankings):
        s.check(checks.ranking(ranked, inp.doc_terms, ref.required_terms(tree), f"query {text[:80]!r}"))
    doc_ids = list(documents)
    close, repeat = [], []
    for _ in range(samples):
        q = rng.randrange(len(queries))
        text, tree = queries[q]
        ranked = rankings[q]
        doc_id = rng.choice(ranked)[0] if ranked and rng.random() < 0.5 else rng.choice(doc_ids)
        value = dict(ranked).get(doc_id, 0.0)
        label = f"query {text[:80]!r} on {doc_id}"
        close.append((label, value, ref.similarity(inp.stems[doc_id], tree, kernel.k)))
        repeat.append((label, value, E.proxcore.similarity(documents[doc_id], E.querylang.parse_query(text), kernel)))
    s.check(checks.close(close))
    s.check(checks.repeatable(repeat))


def check_categories(s: Session, inp: Inputs, doc, ranked, models, categories, cfg, mode: str) -> None:
    """One doc's category ranking against the reference, its top-1, and a repeat call."""
    w = inp.workload
    want = {
        c.name: ref.category_similarity(inp.stems[doc.doc_id], c.descriptors, c.equivalents, w.k, w.kf, mode)
        for c in categories
    }
    label = f"{mode} classify {doc.doc_id}"
    s.check(checks.close([(f"{label} {name}", value, want[name]) for name, value in ranked]))
    s.check(checks.top1(label, ranked, want))
    again = E.classify.classify(doc, models, cfg, mode)
    s.check(checks.repeatable([(f"{label} {n}", v, a) for (n, v), (_, a) in zip(ranked, again)]))


# ---------------------------------------------------------------------------
# Runs


def settle() -> None:
    """Move everything set-up made out of the collector's reach.

    The benchmark's own inputs are hundreds of thousands of objects; left in
    the collected generations, every full collection during a timing would
    walk them too.  Objects the program makes later are collected as usual.
    """
    gc.collect()
    gc.freeze()


def timed_setup(s: Session, inp: Inputs, directory: Path) -> None:
    """More set-ups of the program, as samples of ``setup_s``: one, or as
    many as add up to SETUP_SAMPLE_S where one takes less."""
    s.calibrate()
    total = 0.0
    while total < SETUP_SAMPLE_S:
        total += setup_again(s, inp, directory)
    s.calibrate()


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> tuple[Session, dict]:
    s = Session(name, seed, calibrated=True)
    inp, _ = setup(s, workdir / "inputs")  # the first set-up is a warm-up, as it makes the inputs too
    for number in range(1, SETUPS + 1):
        timed_setup(s, inp, workdir / f"setup{number}")
    workloads.write_docs(inp.directory, inp.workload)
    settle()
    started = time.perf_counter()
    round_no = 0
    # whole rounds only, and none that would end past the deadline at the mean round length
    while round_no == 0 or (time.perf_counter() - started) * (round_no + 1) / round_no <= seconds:
        run_round(s, inp, round_no)
        round_no += 1
        # one more set-up after every round spreads its samples over the run
        timed_setup(s, inp, workdir / f"setup{SETUPS + round_no}")
    print(f"{name} seed {seed}: {round_no} rounds, {len(s.samples['query'])} queries timed", file=sys.stderr)
    for kind, taken in s.calibrations.items():
        ms = [c[2] * 1e3 for c in taken]
        print(
            f"{kind} calibration: {min(ms):.3f}/{statistics.median(ms):.3f}/{max(ms):.3f} ms (min/median/max "
            f"of {len(ms)}) against {REFERENCE_S[kind] * 1e3:.3f} ms on the reference machine",
            file=sys.stderr,
        )
    unscaled = headline(s, inp, scaled=False)
    print("unscaled: " + json.dumps({key: round(value, 6) for key, value in unscaled.items()}), file=sys.stderr)
    metrics = headline(s, inp, scaled=True)
    return s, {key: (metrics[key], unit) for key, unit in END_TO_END_UNITS.items()}


def headline(s: Session, inp: Inputs, scaled: bool) -> dict[str, float]:
    """The end-to-end metrics from a run's samples."""

    def time_of(timing: str) -> dict:
        return s.time_of(timing, scaled)

    latencies = sorted(t * 1e3 for t in time_of("query").values())
    classified = {"standard": len(inp.workload.docs), "rbf": len(inp.workload.labels)}
    setup_lib, setup_cli = time_of("setup_lib"), time_of("setup_cli")
    metrics = {
        "setup_s": statistics.median(setup_lib[n] + setup_cli.get(n, 0.0) for n in setup_lib),
        "peak_rss_mb": s.peak_kb / 1024,
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "query_cli_s": time_of("query_cli")[0],
        "eval_cli_s": time_of("eval_cli")[0],
        "index_tokens_per_s": inp.workload.raw_tokens / time_of("index")[0],
        "corpus_load_s": time_of("load")[0],
        "corpus_bytes": s.corpus_bytes,
    }
    for mode in MODES:
        metrics[f"classify_{mode}_docs_per_s"] = classified[mode] / sum(time_of(f"classify_{mode}").values())
    return metrics


def traced(name: str, seed: int, workdir: Path) -> tuple[list[Session], dict]:
    plain = Session(name, seed)
    started = time.perf_counter()
    inp, _ = setup(plain, workdir / "untraced")
    workloads.write_docs(inp.directory, inp.workload)
    settle()
    run_round(plain, inp, 0)
    untraced_wall = time.perf_counter() - started

    tracer = Tracer()
    s = Session(name, seed, tracer)
    restore = tracer.install()
    root = tracer.open("bench.run")
    try:
        inp, _ = setup(s, workdir / "traced")
        workloads.write_docs(inp.directory, inp.workload)
        settle()
        run_round(s, inp, 0)
    finally:
        tracer.close(root)
        restore()
    metrics = layer_metrics(tracer, s, untraced_wall)
    return [plain, s], metrics


# spans whose self time is reported on its own; every other span counts toward its layer's self_s
SELF_BUCKETS = {
    "cli.import": "cli.import_s",
    "cli.process": "cli.startup_s",
    "cli.main": "cli.self_s",
    "bench.run": "bench.self_s",
}


def layer_metrics(tracer: Tracer, s: Session, untraced_wall: float) -> dict:
    problems = checks.span_tree(tracer.start, tracer.end, tracer.parent)
    s.check(problems)
    shares = [0.0] * len(tracer.start) if problems else tracer.self_times()
    inclusive: Counter = Counter()
    self_ns: Counter = Counter({f"{layer}.self_s": 0.0 for layer in TRACED})
    self_ns.update(dict.fromkeys(SELF_BUCKETS.values(), 0.0))
    for i, share in enumerate(shares):
        span = tracer.names[tracer.name[i]]
        inclusive[span] += tracer.end[i] - tracer.start[i]
        self_ns[SELF_BUCKETS.get(span) or span.split(".")[0] + ".self_s"] += share
    wall = tracer.end[0] - tracer.start[0]
    s.check(checks.self_time_sum(list(self_ns.values()), wall))
    counts = tracer.counts()

    def seconds(span: str) -> float:
        return inclusive[span] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "textprep.preprocess_s": (seconds("textprep.preprocess"), "s"),
        "textprep.tokens_per_s": (ratio(s.tokens_indexed, seconds("textprep.preprocess")), "tokens/s"),
        "posindex.build_document_s": (seconds("posindex.build_document"), "s"),
        "posindex.save_corpus_s": (seconds("posindex.save_corpus"), "s"),
        "posindex.load_corpus_s": (seconds("posindex.load_corpus"), "s"),
        "posindex.positions": (counts["posindex.positions"], "count"),
        "querylang.parse_query_s": (seconds("querylang.parse_query"), "s"),
        "querylang.leaves": (counts["querylang.leaves"], "count"),
        "proxcore.similarity_s": (seconds("proxcore.similarity"), "s"),
        "proxcore.similarity_calls": (counts["proxcore.calls"], "count"),
        "proxcore.positions": (counts["proxcore.positions"], "count"),
        "proxcore.nonzero_ratio": (ratio(counts["proxcore.nonzero"], counts["proxcore.calls"]), "ratio"),
        "rbfwin.rbf_similarity_s": (seconds("rbfwin.rbf_similarity"), "s"),
        "rbfwin.rbf_similarity_calls": (counts["rbfwin.calls"], "count"),
        "rbfwin.windows": (counts["rbfwin.windows"], "count"),
        "rbfwin.nonzero_ratio": (ratio(counts["rbfwin.nonzero"], counts["rbfwin.calls"]), "ratio"),
        "classify.classify_s": (seconds("classify.classify"), "s"),
        "classify.substitute_equivalents_s": (seconds("classify.substitute_equivalents"), "s"),
        "classify.evaluate_s": (seconds("classify.evaluate"), "s"),
        "classify.generate_s": (seconds("classify.generate_synthetic_corpus"), "s"),
        "classify.rebuilt_docs": (counts["classify.rebuilt_docs"], "count"),
    }
    m.update({bucket: (value / 1e9, "s") for bucket, value in sorted(self_ns.items())})
    m["trace.wall_s"] = (wall / 1e9, "s")
    m["trace.overhead_s"] = (wall / 1e9 - untraced_wall, "s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "proxima" / "__init__.py").is_file():
        print(f"error: no proxima package under {SRC}; run from a proxima checkout", file=sys.stderr)
        return 2
    load_engine()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            sessions, metrics = traced(args.workload, args.seed, workdir)
        else:
            session, metrics = end_to_end(args.workload, args.seed, args.seconds, workdir)
            sessions = [session]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    problems = [p for s in sessions for p in s.problems]
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
