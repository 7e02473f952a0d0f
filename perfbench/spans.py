"""Spans for the traced run: one per call into a layer's public function.

The tracer replaces, in every proxima module, each name bound to one of the
functions in ``TRACED``, so a call is recorded whichever module makes it
(``proxima.classify.similarity``, ``proxima.cli.load_corpus``, ...).  Spans
live in memory as integer columns and are written out once, at the end.
A CLI process traced by ``trace_cli.py`` writes its spans to a file that the
benchmark merges under the span of the call that started the process.

Self time is wall-clock attribution: at every instant the open spans with no
open child share the instant equally.  A span waiting on children in other
threads or processes therefore gets no time while they run, and the self
times of all spans add up to the root span's wall time.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from collections import Counter

clock = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes

LAYERS = ("textprep", "posindex", "querylang", "proxcore", "rbfwin", "classify", "cli")

TRACED = {
    "textprep": ("preprocess",),
    "posindex": ("build_document", "save_corpus", "load_corpus"),
    "querylang": ("parse_query",),
    "proxcore": ("similarity",),
    "rbfwin": ("rbf_similarity",),
    "classify": (
        "classify",
        "substitute_equivalents",
        "evaluate",
        "load_categories",
        "save_categories",
        "generate_synthetic_corpus",
    ),
}


def count_leaves(node) -> int:
    """Term leaves of an engine query tree, without recursion.

    Nodes are told apart by class name so that this module imports nothing
    from proxima: trace_cli.py times the import of proxima.cli itself.
    """
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        name = type(node).__name__
        if name == "Term":
            count += 1
        elif name == "Near":
            count += 2
        else:
            stack.append(node.left)
            stack.append(node.right)
    return count


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._counters: list[Counter] = []
        self.paused = False  # while set, wrapped calls run untraced (the benchmark's own checks)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def counter(self) -> Counter:
        """This thread's counters (threads never share one, so += is safe)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._counters.append(counts)
        return counts

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:  # a worker thread's call belongs to what the main thread waits in
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.end.append(-1)
            self.start.append(clock())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.counter(), args, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> callable:
        """Wrap every binding of the traced functions; returns the undo."""
        wrappers = {}
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"proxima.{layer}")
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self.wrap(fn, f"{layer}.{fn_name}", _HOOKS.get(fn_name))
        undo = []
        for module_name in ("proxima",) + tuple(f"proxima.{layer}" for layer in LAYERS):
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, value))

        def restore():
            for module, attr, value in undo:
                setattr(module, attr, value)

        return restore

    # -- persistence -------------------------------------------------------

    def counts(self) -> Counter:
        total = Counter()
        for counts in self._counters:
            total.update(counts)
        return total

    def dump(self, path) -> None:
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": dict(self.counts()),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def merge(self, path, parent: int) -> None:
        """Add a child process's spans; its top-level spans become children of ``parent``."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        with self._lock:
            offset = len(self.start)
            ids = []
            for name in data["names"]:
                if name not in self._name_ids:
                    self._name_ids[name] = len(self.names)
                    self.names.append(name)
                ids.append(self._name_ids[name])
            self.name.extend(ids[i] for i in data["name"])
            self.start.extend(data["start"])
            self.end.extend(data["end"])
            self.parent.extend(p + offset if p >= 0 else parent for p in data["parent"])
        self.counter().update(data["counts"])

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's share of wall time, in nanoseconds (see module docs)."""
        n = len(self.start)
        if any(end < 0 for end in self.end):
            raise RuntimeError("a span was never closed")
        events = [(self.start[i], 1, i) for i in range(n)]
        events += [(self.end[i], 0, -i) for i in range(n)]
        events.sort()
        open_children = [0] * n
        leaves: set[int] = set()
        share = [0.0] * n
        last = None
        for t, is_start, key in events:
            if leaves and t > last:
                part = (t - last) / len(leaves)
                for leaf in leaves:
                    share[leaf] += part
            last = t
            i = key if is_start else -key
            p = self.parent[i]
            if is_start:
                leaves.add(i)
                if p >= 0:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                leaves.discard(i)
                if p >= 0:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        leaves.add(p)
        return share


def _after_build(counts, args, doc):
    counts["posindex.positions"] += doc.n


def _after_parse(counts, args, node):
    counts["querylang.leaves"] += count_leaves(node)


def _scored(prefix: str, work: str):
    def after(counts, args, value):
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.nonzero"] += value > 0.0
        counts[f"{prefix}.{work}"] += args[0].n * count_leaves(args[1])

    return after


def _after_substitute(counts, args, doc):
    counts["classify.rebuilt_docs"] += doc is not args[0]


_HOOKS = {
    "build_document": _after_build,
    "parse_query": _after_parse,
    "similarity": _scored("proxcore", "positions"),
    "rbf_similarity": _scored("rbfwin", "windows"),
    "substitute_equivalents": _after_substitute,
}
