"""Positional documents, the term -> position-set map, and corpus persistence.

A document is a sequence of stems indexed by position 0..N-1 together with
the inverted view mapping each stem to its sorted occurrence positions,
built on first read, so a document that is never scored never builds it.
Corpora persist as line-delimited UTF-8 (`#proxima-corpus v1` header,
one `doc_id<TAB>label<TAB>stems` record per document).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .textprep import check_field, is_storable_stem, read_text

__all__ = [
    "PositionalDocument",
    "Corpus",
    "CorpusFormatError",
    "build_document",
    "positions_of",
    "save_corpus",
    "load_corpus",
    "write_text_atomic",
    "CORPUS_HEADER",
]

CORPUS_HEADER = "#proxima-corpus v1"
_UNLABELED = "-"


@dataclass(frozen=True)
class PositionalDocument:
    """A stem sequence plus its position map, built on first read (treat both as read-only)."""

    doc_id: str
    stems: tuple[str, ...]

    @cached_property
    def inverted(self) -> dict[str, list[int]]:
        """Each stem -> its sorted positions, keyed in order of first occurrence."""
        inverted: dict[str, list[int]] = {}
        for position, stem in enumerate(self.stems):
            inverted.setdefault(stem, []).append(position)
        return inverted

    @property
    def n(self) -> int:
        """Number of positions (document length after preprocessing)."""
        return len(self.stems)


def build_document(doc_id: str, stems: Iterable[str]) -> PositionalDocument:
    """A positional document over a stem sequence; its map waits for its first read."""
    return PositionalDocument(doc_id=doc_id, stems=tuple(stems))


_NO_POSITIONS: list[int] = []


def positions_of(doc: PositionalDocument, term: str | tuple[str, ...]) -> list[int]:
    """Sorted occurrence positions of ``term`` in ``doc`` (empty if absent).

    A tuple of stems is a class: its positions are its members', merged.
    The scalar oracles read it; profiles do not merge per document, but
    sort all of a call's class occurrences at once
    (``proxcore._segment_digits``).
    """
    inverted = doc.inverted
    if isinstance(term, str):
        return inverted.get(term, _NO_POSITIONS)
    return sorted(chain.from_iterable(inverted.get(stem, _NO_POSITIONS) for stem in term))


@dataclass
class Corpus:
    """Documents keyed by id, with an optional doc_id -> category label map."""

    documents: dict[str, PositionalDocument] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)

    def add(self, doc: PositionalDocument, label: str | None = None) -> None:
        if doc.doc_id in self.documents:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        self.documents[doc.doc_id] = doc
        if label is not None:
            self.labels[doc.doc_id] = label

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[PositionalDocument]:
        return iter(self.documents.values())


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; messages carry the line number."""


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus file; ``load_corpus`` restores it exactly."""
    lines = [CORPUS_HEADER]
    storable: set[str] = set()  # the stems of the documents written so far
    for doc in corpus:
        check_field(doc.doc_id, "doc_id")
        if not doc.doc_id:
            raise ValueError("doc_id may not be empty")
        label = corpus.labels.get(doc.doc_id, _UNLABELED)
        check_field(label, "label")
        if label == _UNLABELED and doc.doc_id in corpus.labels:
            raise ValueError(f"label {_UNLABELED!r} is reserved for unlabeled documents")
        fresh = set(doc.stems) - storable  # each distinct stem of the corpus is checked once
        if not all(map(is_storable_stem, fresh)):
            stem = next(stem for stem in doc.stems if not is_storable_stem(stem))
            raise ValueError(f"stem {stem!r} in {doc.doc_id!r} is not storable")
        storable |= fresh
        lines.append(f"{doc.doc_id}\t{label}\t{' '.join(doc.stems)}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 ``text`` to ``path`` whole or not at all.

    The text goes to a temp file beside ``path`` that ``os.replace`` then
    moves over it, so a failed or interrupted write leaves the old file as it
    was; on failure the temp file is removed, and an OSError names ``path``.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        handle = open(temp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if exc.errno is None:  # raised with a message only, which names no file
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file written by ``save_corpus``.

    ``save_corpus`` ends every line with a line end, so a last line without
    one was cut short, mid-record, and raises CorpusFormatError.
    """
    text = read_text(path)
    cut = text[-1:].splitlines() == [text[-1:]]  # the last character breaks no line
    lines = text.splitlines()
    del text  # the lines hold it all, and the loop below is the load's peak
    if not lines:
        raise CorpusFormatError(f"{path}:1: empty file, expected {CORPUS_HEADER!r} header")
    if lines[0] != CORPUS_HEADER:
        if lines[0].startswith("#proxima-corpus"):
            raise CorpusFormatError(
                f"{path}:1: unsupported corpus version {lines[0]!r}, expected {CORPUS_HEADER!r}"
            )
        raise CorpusFormatError(f"{path}:1: missing {CORPUS_HEADER!r} header")
    corpus = Corpus()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 3:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        doc_id, label, stem_field = fields
        if not doc_id:
            raise CorpusFormatError(f"{path}:{lineno}: empty doc_id")
        if doc_id in corpus.documents:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
        corpus.add(
            build_document(doc_id, stem_field.split()),
            label=None if label == _UNLABELED else label,
        )
    if cut:
        raise CorpusFormatError(f"{path}:{len(lines)}: the file ends mid-line, as if cut short")
    return corpus
