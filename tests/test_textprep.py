"""Preprocessing pipeline tests: folding, tokenization, stop words, stemming."""

import re
import sys

import hypothesis.strategies as st
from hypothesis import given

import _reference as ref
from proxima.textprep import (
    _FOLD_TABLE,
    LightStemmer,
    default_stemmer,
    default_stoplist,
    light_stem,
    load_stemmer_rules,
    load_stoplist,
    normalize_text,
    preprocess,
    remove_stopwords,
    stem_to_fixpoint,
    tokenize,
)
import pytest


class TestNormalize:
    def test_alef_variants_fold(self):
        assert normalize_text("أحمد") == "احمد"
        assert normalize_text("إلى") == "الي"  # hamza-below alef and alef maqsura
        assert normalize_text("آمن") == "امن"

    def test_ta_marbuta_and_tatweel(self):
        assert normalize_text("مدرسة") == "مدرسه"
        assert normalize_text("كـــتاب") == "كتاب"

    def test_diacritics_removed(self):
        assert normalize_text("كَتَبَ") == "كتب"
        assert normalize_text("مُحَمَّدٌ") == "محمد"

    def test_non_arabic_identity(self):
        assert normalize_text("abc") == "abc"
        assert normalize_text("Hello, World! 42") == "Hello, World! 42"

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


class TestTokenize:
    def test_splits_whitespace_and_punctuation(self):
        assert tokenize("الكتاب جديد.") == ["الكتاب", "جديد"]
        assert tokenize("a,b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize(" .,;! ") == []

    def test_digit_only_tokens_dropped(self):
        assert tokenize("page 42 of ١٢٣ items") == ["page", "of", "items"]
        assert tokenize("ab12 mixed") == ["ab12", "mixed"]

    def test_underscore_is_a_separator(self):
        assert tokenize("a_b") == ["a", "b"]


class TestStopwords:
    def test_membership_filter(self):
        assert remove_stopwords(["في", "البيت"], {"في"}) == ["البيت"]

    def test_empty_stoplist_is_identity(self):
        tokens = ["a", "b", "c"]
        assert remove_stopwords(tokens, frozenset()) == tokens

    def test_all_stopwords(self):
        assert remove_stopwords(["في", "عن"], {"في", "عن"}) == []


class TestLightStem:
    def test_definite_article(self):
        assert light_stem("الكتاب") == "كتاب"

    def test_no_affix_matches(self):
        assert light_stem("كتاب") == "كتاب"

    def test_residual_guard(self):
        assert light_stem("ال") == "ال"
        assert light_stem("في") == "في"

    def test_suffixes(self):
        assert light_stem("بيتها") == "بيت"
        assert light_stem("مسلمون") == "مسلم"

    def test_conjunction_then_article(self):
        assert light_stem("والكتاب") == "كتاب"

    def test_cascading_suffixes(self):
        # strip "ها", then "ات" further down the table
        assert light_stem("كتاباتها") == "كتاب"

    def test_latin_passthrough(self):
        assert light_stem("engine") == "engine"

    def test_deterministic(self):
        stemmer = default_stemmer()
        assert stemmer("المدرسة") == stemmer("المدرسة")


class TestFixpointStemming:
    def test_reaches_fixed_point(self):
        stemmer = default_stemmer()
        stem = stem_to_fixpoint("والكتاب", stemmer)
        assert normalize_text(stemmer(stem)) == stem

    @given(st.text(alphabet="والكتبمنسه", min_size=1, max_size=10))
    def test_always_fixed_point(self, word):
        stemmer = default_stemmer()
        stem = stem_to_fixpoint(word, stemmer)
        assert stem_to_fixpoint(stem, stemmer) == stem


class TestPreprocess:
    def test_pipeline(self):
        stream = preprocess("في البيت الكبير", {"في"})
        assert list(enumerate(stream)) == [(0, "بيت"), (1, "كبير")]

    def test_empty_inputs(self):
        assert list(enumerate(preprocess(""))) == []
        assert list(enumerate(preprocess("في عن من"))) == []  # stop words only

    def test_positions_contiguous(self):
        stream = preprocess("قرأ الطالب الكتاب الجديد في المكتبة")
        assert [p for p, _ in enumerate(stream)] == list(range(len(stream)))

    def test_stopword_soundness_after_stemming(self):
        # "الهم" stems to "هم", which is itself a (stemmed) stop word
        stream = preprocess("الهم كتاب", {"هم"})
        assert list(stream) == ["كتاب"]

    def test_default_stoplist_applies(self):
        stream = preprocess("هذا كتاب")
        assert list(stream) == ["كتاب"]

    def test_deterministic(self):
        text = "قرأ الطالب الكتاب ثم كتب ملاحظاته"
        assert preprocess(text) == preprocess(text)

    @given(st.text(max_size=120))
    def test_positions_always_contiguous(self, text):
        stream = preprocess(text)
        assert [p for p, _ in enumerate(stream)] == list(range(len(stream)))


class TestDataFiles:
    def test_default_stoplist_normalized(self):
        stops = default_stoplist()
        assert "في" in stops
        assert "الي" in stops  # file spells it with hamza + maqsura
        for word in stops:
            assert normalize_text(word) == word

    def test_load_stoplist_ignores_comments(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\nفي\n\nعن\n", encoding="utf-8")
        assert load_stoplist(path) == frozenset({"في", "عن"})

    def test_load_rules_sections(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("PREFIXES\nال\nSUFFIXES\nة\n", encoding="utf-8")
        stemmer = load_stemmer_rules(path)
        assert stemmer.prefixes == ("ال",)
        # affixes fold like document text: ta marbuta becomes ha
        assert stemmer.suffixes == ("ه",)
        assert stemmer(normalize_text("المدرسة")) == "مدرس"

    def test_load_rules_requires_section(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("ال\n", encoding="utf-8")
        with pytest.raises(ValueError, match="PREFIXES/SUFFIXES"):
            load_stemmer_rules(path)

    @pytest.mark.parametrize("affix", ["\u064e", "\u0640\u0651"])
    def test_load_rules_rejects_affix_that_normalizes_to_nothing(self, tmp_path, affix):
        path = tmp_path / "rules.txt"
        path.write_text(f"PREFIXES\nال\nSUFFIXES\n{affix}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"rules.txt:4: affix {affix!r} normalizes to nothing"):
            load_stemmer_rules(path)


EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))
FOLDED = "".join(map(chr, _FOLD_TABLE)) + "اىه"
# raw press text in small pieces: words under affixes, stop words, digits of
# several scripts, separators
PIECES = st.sampled_from(
    ["في", "والذي", "الكتاب", "وفي", "بالمدرسة", "كتابات", "هم", "الهم", "أحمد", "إلى",
     "٢٠٢٤", "42", "۱۹", "४", "x²", "ab12", "_", " ", "\n", "،", ".", "«", "ـ", "\u064e", "\u0651"]
)
TEXTS = st.lists(PIECES | st.text(max_size=3), max_size=40).map("".join)
CUSTOM = LightStemmer(["و", "ال", "x"], ["ه", "ات", "2"])


class TestFastFormsMatchOracles:
    """normalize_text, tokenize and preprocess give the plain forms' strings."""

    def test_fold_on_every_code_point(self):
        assert normalize_text(EVERY_CODE_POINT) == ref.fold(EVERY_CODE_POINT)

    @pytest.mark.parametrize("char", FOLDED)
    def test_fold_of_each_folded_character(self, char):
        for text in (char, "abc" + char, "كتاب" + char + "x", char * 3):
            assert normalize_text(text) == ref.fold(text)

    def test_no_replacement_is_itself_folded(self):
        assert not {ord(c) for new in _FOLD_TABLE.values() if new for c in new} & set(_FOLD_TABLE)

    @given(st.text(alphabet=st.sampled_from(FOLDED) | st.characters(), max_size=60))
    def test_fold_on_text(self, text):
        assert normalize_text(text) == ref.fold(text)

    def test_decimal_is_the_digit_class_on_every_code_point(self):
        decimal = set(filter(str.isdecimal, EVERY_CODE_POINT))
        assert decimal == set(re.findall(r"\d", EVERY_CODE_POINT))
        assert len(decimal) > 600  # every script's digits, not only ASCII and Arabic-Indic

    def test_tokenize_on_every_code_point(self):
        for text in (EVERY_CODE_POINT, " ".join(EVERY_CODE_POINT), "_".join(EVERY_CODE_POINT)):
            assert tokenize(text) == ref.tokenize(text)

    @given(TEXTS)
    def test_tokenize_on_text(self, text):
        assert tokenize(text) == ref.tokenize(text)

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozenset", "set"])
    @pytest.mark.parametrize("stemmer", [default_stemmer(), CUSTOM], ids=["default", "custom"])
    @given(text=TEXTS)
    def test_preprocess_on_text(self, stemmer, frozen, text):
        stops = {"في", "والذي", "هم", "ab12", "x²"} | default_stoplist()
        stoplist = frozenset(stops) if frozen else set(stops)
        assert preprocess(text, stoplist, stemmer) == ref.preprocess(text, stoplist, stemmer._strip)

    def test_a_set_stop_list_is_read_at_each_call(self):
        stemmer = LightStemmer(["ال"], [])
        stoplist = {"في"}
        assert preprocess("الكتاب في البيت", stoplist, stemmer) == ("كتاب", "بيت")
        stoplist.add("بيت")  # its stem, not the surface word, is a stop stem
        assert preprocess("الكتاب في البيت", stoplist, stemmer) == ("كتاب",)

    def test_frozen_stop_lists_keep_their_own_stems(self):
        stemmer = LightStemmer(["ال"], [])
        assert preprocess("الكتاب البيت", frozenset({"الكتاب"}), stemmer) == ("بيت",)
        assert preprocess("الكتاب البيت", frozenset({"بيت"}), stemmer) == ("كتاب",)
        assert preprocess("الكتاب البيت", frozenset({"الكتاب"}), stemmer) == ("بيت",)
