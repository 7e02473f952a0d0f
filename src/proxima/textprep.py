"""Text preparation: character folding, tokenization, stop words, light stemming.

    normalize -> tokenize -> remove stop words -> stem -> assign positions

Each step runs in C over a whole text, chunk or token list; README's
semantics notes say why each fast form gives the same strings as the
plain one that ``tests/_reference.py`` keeps as its oracle.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import MISSING, fields
from functools import cache
from importlib import resources
from itertools import filterfalse
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "LightStemmer",
    "normalize_text",
    "tokenize",
    "remove_stopwords",
    "light_stem",
    "stem_to_fixpoint",
    "preprocess",
    "load_stoplist",
    "load_stemmer_rules",
    "default_stoplist",
    "default_stemmer",
    "read_text",
    "read_lines",
    "read_settings",
    "check_field",
    "is_storable_stem",
]

_ALEF = "ا"
_YA = "ي"
_HA = "ه"

# Standard Arabic search folding: hamza-carrying alefs and madda collapse to
# bare alef, alef maqsura to ya, ta marbuta to ha; tatweel and the short
# vowel / gemination marks are deleted.  Everything else passes through.
_FOLD_TABLE: dict[int, str | None] = {
    0x0622: _ALEF,  # alef with madda
    0x0623: _ALEF,  # alef with hamza above
    0x0625: _ALEF,  # alef with hamza below
    0x0649: _YA,    # alef maqsura
    0x0629: _HA,    # ta marbuta
    0x0640: None,   # tatweel
    0x064B: None,   # fathatan
    0x064C: None,   # dammatan
    0x064D: None,   # kasratan
    0x064E: None,   # fatha
    0x064F: None,   # damma
    0x0650: None,   # kasra
    0x0651: None,   # shadda
    0x0652: None,   # sukun
}

# The fold as chained str.replace calls, one per entry of _FOLD_TABLE.
_FOLDS = tuple((chr(code), new or "") for code, new in _FOLD_TABLE.items())
# Text holding none of the folded characters folds to itself.
_find_folded = re.compile("[" + re.escape("".join(map(chr, _FOLD_TABLE))) + "]").search

# Word = run of letters/digits; underscore counts as punctuation, so
# tokenize reads each "_" as a space.
_find_words = re.compile(r"\w+").findall
# A lone surrogate is a str character that UTF-8 cannot encode.
_find_surrogate = re.compile("[\ud800-\udfff]").search

# An affix is stripped only when at least this many characters remain.
_MIN_STEM = 2


def normalize_text(text: str) -> str:
    """Fold Arabic letter variants and drop diacritics; idempotent."""
    if text.isascii() or _find_folded(text) is None:
        return text
    for old, new in _FOLDS:
        text = text.replace(old, new)
    return text


def tokenize(text: str) -> list[str]:
    """Split normalized text on whitespace/punctuation, dropping digit-only tokens.

    The text is split on whitespace first; a chunk of letters and digits
    only is a word as it stands, and the regex runs on the other chunks.
    """
    words: list[str] = []
    for chunk in text.replace("_", " ").split():
        if chunk.isalnum():
            words.append(chunk)
        else:
            words += _find_words(chunk)
    return list(filterfalse(str.isdecimal, words))


def remove_stopwords(tokens: Iterable[str], stoplist: frozenset[str] | set[str]) -> list[str]:
    """Drop tokens found in ``stoplist``, preserving the order of survivors."""
    return list(filterfalse(stoplist.__contains__, tokens))


class LightStemmer:
    """Rule-table affix stripper.

    Each affix is tried once, in table order, against the current form of
    the token; a rule fires only when it matches and at least two characters
    would remain.  Prefix rules run before suffix rules.  The result is
    deterministic but not guaranteed idempotent: stripping one affix may
    expose another that sits earlier in the table.
    """

    def __init__(self, prefixes: Iterable[str], suffixes: Iterable[str]):
        self.prefixes = tuple(prefixes)
        self.suffixes = tuple(suffixes)
        self._memo = _StemMemo(self._strip)
        self._frozen_stop_stems: dict[frozenset[str], frozenset[str]] = {}

    def __call__(self, token: str) -> str:
        return self._memo[token]

    def _stop_stems(self, stoplist: frozenset[str] | set[str]) -> frozenset[str]:
        """The stems of the entries of ``stoplist``, made once per frozen stop list."""
        if not isinstance(stoplist, frozenset):
            return frozenset(map(self._memo.__getitem__, stoplist))
        stems = self._frozen_stop_stems.get(stoplist)
        if stems is None:
            stems = frozenset(map(self._memo.__getitem__, stoplist))
            self._frozen_stop_stems[stoplist] = stems
        return stems

    def _strip(self, token: str) -> str:
        stem = token
        for prefix in self.prefixes:
            if stem.startswith(prefix) and len(stem) - len(prefix) >= _MIN_STEM:
                stem = stem[len(prefix):]
        for suffix in self.suffixes:
            if stem.endswith(suffix) and len(stem) - len(suffix) >= _MIN_STEM:
                stem = stem[: -len(suffix)]
        return stem

    def __repr__(self) -> str:  # pragma: no cover
        return f"LightStemmer({len(self.prefixes)} prefixes, {len(self.suffixes)} suffixes)"


class _StemMemo(dict):
    """Token -> stem; a token seen for the first time is stripped on lookup."""

    def __init__(self, strip: Callable[[str], str]):
        super().__init__()
        self.strip = strip

    def __missing__(self, token: str) -> str:
        stem = self[token] = self.strip(token)
        return stem


def light_stem(token: str, stemmer: LightStemmer | None = None) -> str:
    """Stem one token with ``stemmer`` (packaged Arabic rules by default)."""
    return (stemmer or default_stemmer())(token)


def stem_to_fixpoint(word: str, stemmer: LightStemmer | None = None) -> str:
    """Apply normalize+stem repeatedly until the form stops changing.

    Query and category terms use this so that a rendered term re-parses to
    itself; document tokens are stemmed single-pass (see ``preprocess``).
    Terminates because each round either shortens the word or leaves it
    unchanged.
    """
    stemmer = stemmer or default_stemmer()
    current = normalize_text(word)
    while True:
        nxt = normalize_text(stemmer(current))
        if nxt == current:
            return current
        current = nxt


def preprocess(
    text: str,
    stoplist: frozenset[str] | set[str] | None = None,
    stemmer: LightStemmer | None = None,
) -> tuple[str, ...]:
    """Run the full pipeline on raw text; the position of a stem is its index.

    Stop words are filtered twice: on the normalized surface form, and again
    on the stemmed form so that no surviving stem collides with a stemmed
    stop-list entry.
    """
    if stoplist is None:
        stoplist = default_stoplist()
    if stemmer is None:
        stemmer = default_stemmer()
    words = remove_stopwords(tokenize(normalize_text(text)), stoplist)
    stems = map(stemmer._memo.__getitem__, words)
    return tuple(filterfalse(stemmer._stop_stems(stoplist).__contains__, stems))


# ---------------------------------------------------------------------------
# Data files


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file without a leading byte-order mark; every input file is read here.

    A byte that is not UTF-8 raises ValueError naming ``path:lineno``.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        lineno = _undecodable_line(path)
        raise ValueError(f"{path}:{lineno}: not UTF-8: byte 0x{byte:02x} ({exc.reason})") from None


def _undecodable_line(path: str | Path) -> int:
    """The line number of the first byte of ``path`` that is not UTF-8.

    A decode error's offset counts from the chunk being decoded, so the
    whole file is decoded again here, after the same byte-order mark rule.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 1  # the file changed since it was read


def read_lines(path: str | Path) -> list[tuple[int, str]]:
    """The (line number, stripped line) pairs of a UTF-8 file, minus blank and '#' lines.

    Every line-oriented input but the corpus and the query file is read here;
    those keep their own loops because a doc id or a query may start with '#'.
    """
    lines = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    return lines


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def read_settings(
    lines: Iterable[tuple[int, str]],
    target: type,
    path: str | Path,
    extra: dict[str, Callable[[str], object]] | None = None,
) -> dict[str, object]:
    """Parse ``key = value`` lines from ``read_lines`` into fields of the dataclass ``target``.

    Each field with a default is a key, read as its default's type: a bool as
    true/yes/1/on or false/no/0/off, a None default as text.  ``extra`` adds
    keys that ``target`` lacks, each with its converter.  Keys are lower-cased
    and read '-' as '_'; a later line overrides an earlier one.  Raises
    ValueError, naming ``path:lineno``, for a line without '=', an unknown key,
    or a value its converter rejects.
    """
    converters: dict[str, Callable[[str], object]] = {
        f.name: {bool: _parse_bool, type(None): str}.get(type(f.default), type(f.default))
        for f in fields(target)
        if f.default is not MISSING
    }
    converters.update(extra or {})
    settings: dict[str, object] = {}
    for lineno, line in lines:
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key = key.strip().lower().replace("-", "_")
        converter = converters.get(key)
        if converter is None:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            settings[key] = converter(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return settings


def check_field(value: str, what: str) -> None:
    """Raise ValueError unless ``value`` fits in one tab-separated field of one line.

    A field may hold no tab and no character at which ``str.splitlines``, and
    so every file reader, breaks a line (``\\n \\r \\v \\f \\x1c-\\x1e \\x85
    U+2028 U+2029``), and no lone surrogate, which UTF-8 cannot encode.
    """
    if "\t" in value or value.splitlines() not in ([], [value]):
        raise ValueError(f"{what} {value!r} may not contain tabs or line breaks")
    if _find_surrogate(value):
        raise ValueError(f"{what} {value!r} may not contain lone surrogates")


def is_storable_stem(stem: str) -> bool:
    """Whether ``stem`` is non-empty and holds no whitespace and no lone surrogate.

    Corpus and category files are UTF-8 and store stems space-separated; they
    are read back with ``str.split``, which returns such a stem, and only such
    a stem, whole.
    """
    return stem.split() == [stem] and _find_surrogate(stem) is None


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Read a stop-list file (one word per line, '#' comments); entries are normalized."""
    return frozenset(normalize_text(line) for _, line in read_lines(path))


def load_stemmer_rules(path: str | Path) -> LightStemmer:
    """Read an affix-rule file with PREFIXES / SUFFIXES sections, kept in file order.

    Raises ValueError, naming ``path:lineno``, for an affix before any header
    or one that normalizes to the empty string (such as a lone diacritic).
    """
    prefixes: list[str] = []
    suffixes: list[str] = []
    section: list[str] | None = None
    for lineno, line in read_lines(path):
        upper = line.upper()
        if upper == "PREFIXES":
            section = prefixes
        elif upper == "SUFFIXES":
            section = suffixes
        elif section is None:
            raise ValueError(f"{path}:{lineno}: affix before a PREFIXES/SUFFIXES header")
        elif affix := normalize_text(line):
            section.append(affix)
        else:
            # an empty affix would strip every token down to nothing
            raise ValueError(f"{path}:{lineno}: affix {line!r} normalizes to nothing")
    return LightStemmer(prefixes, suffixes)


def _data_path(name: str) -> Path:
    return Path(str(resources.files("proxima").joinpath("data", name)))


@cache
def default_stoplist() -> frozenset[str]:
    """The packaged Arabic stop list, loaded once per process."""
    return load_stoplist(_data_path("stopwords_ar.txt"))


@cache
def default_stemmer() -> LightStemmer:
    """The packaged Arabic light-stemming rules, loaded once per process."""
    return load_stemmer_rules(_data_path("stemmer_rules_ar.txt"))
