"""Golden outputs: the stdout of `query`, `classify` and `eval`, pinned by SHA-256.

A fixed `gen-synth` corpus is scored in both modes under four settings, and
every output must hash to the digest recorded here.  A change that is meant
to leave every score bit-identical must pass this unchanged; a change that
means to alter output updates the digests and says why.

The CLI prints scores to 6 decimals, so a last-bit change would not show in
its stdout.  The float-level digests pin ``float.hex`` of the library's rbf
``classify`` scores and of every ``rbf_term_profile`` value on the same
corpus under the same four settings.

Each setting starts from an empty window memo, so every rbf window is
computed by the batched form whatever order the tests run in, and the same
outputs made again at once, with every window a memo hit, must be the same
bytes.

The index digest pins the corpus file `proxima index` writes for a fixed set
of raw Arabic texts, so the text preparation it runs stays byte-identical.
"""

import contextlib
import hashlib
import io

import pytest

from proxima import rbfwin
from proxima.classify import classify, load_categories
from proxima.cli import build_parser, main, resolve_config
from proxima.posindex import load_corpus
from proxima.querylang import parse_query, query_plan
from proxima.rbfwin import rbf_term_profile
from proxima.textprep import _FOLD_TABLE

SPEC = (
    "docs_per_category = 15\n"
    "doc_length = 24\n"
    "injection_rate = 0.5\n"
    "noise_rate = 0.4\n"
    "cross_rate = 0.3\n"
    "noise_vocab_size = 20\n"
    "category: alpha\n"
    "descriptors: alphad0 alphad1\n"
    "equivalents: alphae0=alphad0 alphae1=alphad1\n"
    "category: beta\n"
    "descriptors: betad0 betad1\n"
    "equivalents: betae0=betad0\n"
    "category: gamma\n"
    "descriptors: gammad0\n"
    "equivalents: gammae0=gammad0 gammae1=gammad0\n"
)

QUERIES = (
    "alphad0\n"
    "alphad0 AND alphad1\n"
    "betad0 OR gammad0\n"
    "alphad0 NEAR/3 alphae0\n"
    "(alphad0 OR betad0) AND noise03\n"
    "(gammad0 NEAR/6 gammae0) OR (betad1 NEAR/2 noise05)\n"
)

SETTINGS = {
    "default": (),
    "gaussian-k7-kf3": ("--kernel", "gaussian", "--k", "7", "--kf", "3"),
    "hanning-k3-kf2-t0.5-noclamp": (
        "--kernel", "hanning", "--k", "3", "--kf", "2", "--threshold", "0.5", "--no-clamp",
    ),
    "rectangular-k2-kf1": ("--kernel", "rectangular", "--k", "2", "--kf", "1"),
}

COMMANDS = ("query", "classify", "eval")

DIGESTS = {
    ("default", "rbf", "classify"): "57af251f1c58065720f02bdadeef88e213201a61c6cc2b5fa7d97393f5158751",
    ("default", "rbf", "eval"): "535d63c971135c2685e32b7067d0c81aba66708d089ada521fc7903cc47dacfc",
    ("default", "rbf", "query"): "d681d4c58a863a34ad8c2b43a184d09770b15ea729721d4eb5247cf8b3b5806d",
    ("default", "standard", "classify"): "4ca18b73cdccb507a2eab4f18cde255e7838cccede981599bfee931c5f4bd0dc",
    ("default", "standard", "eval"): "90063d0b2312a295bf97921cdc2e02fbdf0ffa660c2989b39cfaa7b047b73498",
    ("default", "standard", "query"): "d8ab07439f26d95b399d2d6eddd71c736208654e00ec0c781ad30fad912f6f5f",
    ("gaussian-k7-kf3", "rbf", "classify"): "c6ee757960498927d69f37931c98ce16fe23611bf68cbe1fba4ecea735d41fe1",
    ("gaussian-k7-kf3", "rbf", "eval"): "9ed44f25f5385f6bacd7978393401df2ee1098ebd49e3ce23ef6930bbf744d72",
    ("gaussian-k7-kf3", "rbf", "query"): "65228ca0b8ae97b2949fc1be579c59413ca406509caf15483ca9170a8cb243f8",
    ("gaussian-k7-kf3", "standard", "classify"): "c0b52ddf6873e2a428b68196dac2f33cb78562b3fd0a7ab5f0592bcb0e839ace",
    ("gaussian-k7-kf3", "standard", "eval"): "3e3ddf2fda628111aefc3fa5a4a99e1df7da62e515a736758c6bb35128ffde70",
    ("gaussian-k7-kf3", "standard", "query"): "8369ae51df4135ad9887ca8a87c7f2f7b80d0e13789dda8bae46ba9afeae0d45",
    ("hanning-k3-kf2-t0.5-noclamp", "rbf", "classify"): "ea6511fe70b6618e89d9112cc0f41fdbf5826bd1f99a1f4f15aff5bae2d0893f",
    ("hanning-k3-kf2-t0.5-noclamp", "rbf", "eval"): "c65a0252c7ff317da1b34694c26d42b128920c575361cdfaca10c33ed12cfb4d",
    ("hanning-k3-kf2-t0.5-noclamp", "rbf", "query"): "3290a3463ce3351e44ec485f2d85fc1730f2cde0e41008e6beadfc34da9e02c7",
    ("hanning-k3-kf2-t0.5-noclamp", "standard", "classify"): "7d1788dabf54f2b87b5d96ffbf567e277afce89140944262cd97235f02e163bb",
    ("hanning-k3-kf2-t0.5-noclamp", "standard", "eval"): "9d5d7cca71dfdac178d76a59c394022392e2db2744e5b80dabcfd5b3b9dfcf93",
    ("hanning-k3-kf2-t0.5-noclamp", "standard", "query"): "4c1efc76fa8cda4d049347e18e1bc790a5c99d3002e84d551848fe8ebf095599",
    ("rectangular-k2-kf1", "rbf", "classify"): "6900490889ba7bc31982156de0ae111318c5a8472aa372e949e71afb5743ca21",
    ("rectangular-k2-kf1", "rbf", "eval"): "979a4f6b7af421c09b3c6091bc5667510f3aaffb8ca8d2fa013a17ee758cc3e5",
    ("rectangular-k2-kf1", "rbf", "query"): "e7efba0be80aafe3a3cd92a0367708171e69051e7ffc0ef6329368ce5752c0fb",
    ("rectangular-k2-kf1", "standard", "classify"): "849ff37a12d6f320173b3b91772bad472e329ab86388666a081d7caaf112632f",
    ("rectangular-k2-kf1", "standard", "eval"): "10f9624f9ee304443439f63f280817bb9de328ba640121282820885faa25535a",
    ("rectangular-k2-kf1", "standard", "query"): "aa165c5b3819b061ebda35474a5911b6d658fa4bbdfd128f343b35669717a036",
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def golden_files(root):
    """Write the spec and query file under ``root`` and generate the corpus and categories."""
    spec, corpus, cats, queries = (root / name for name in ("spec.txt", "c.tsv", "k.txt", "q.txt"))
    spec.write_text(SPEC, encoding="utf-8")
    queries.write_text(QUERIES, encoding="utf-8")
    _stdout(["gen-synth", str(spec), "--out-corpus", str(corpus),
             "--out-categories", str(cats), "--seed", "11"])
    return corpus, cats, queries


def _settings(warm: bool):
    """Each (setting, flags) of ``SETTINGS``, the window memo emptied before it.

    With ``warm`` each is yielded twice in a row, so outputs keyed by setting
    keep the second pass, made with the memo the first one filled.
    """
    for setting, flags in SETTINGS.items():
        rbfwin._WINDOWS.clear()
        rbfwin._CHARGED.clear()
        for _ in range(1 + warm):
            yield setting, flags


def golden_outputs(root, warm: bool = False) -> dict[tuple[str, str, str], str]:
    """Every pinned stdout, keyed by (setting, mode, command), made under directory ``root``."""
    corpus, cats, queries = golden_files(root)
    args = {
        "query": (str(corpus), "--query-file", str(queries)),
        "classify": (str(corpus), "--categories", str(cats)),
        "eval": (str(corpus), "--categories", str(cats)),
    }
    return {
        (setting, mode, command): _stdout([command, *args[command], "--mode", mode, *flags])
        for setting, flags in _settings(warm)
        for mode in ("standard", "rbf")
        for command in COMMANDS
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="/".join)
def test_output_matches_golden_digest(outputs, key):
    assert hashlib.sha256(outputs[key].encode("utf-8")).hexdigest() == DIGESTS[key]


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(DIGESTS)


# recorded before the coded window memo replaced the per-tuple one
FLOAT_DIGESTS = {
    ("default", "classify"): "2a6b44fd16f29a8484938680208430d8e09b4b6bbbf74563dab0a68d8a11456e",
    ("default", "profile"): "5aa51e589b141bf3ea06bb7faa102afc1aa831cc8b5ac7924019d8ad386809ac",
    ("gaussian-k7-kf3", "classify"): "00f4d8de16c634a87841d0c256d49de7f2e6169d3ecf85937cade814688db053",
    ("gaussian-k7-kf3", "profile"): "46299192a1f694e62c3cf0380aac4c3d571922e7eea049d64511bf3c36a8ba82",
    ("hanning-k3-kf2-t0.5-noclamp", "classify"): "4be8522c93d9dce8597756ac0446cb42c85e7cfd52e90d427c08eb216ab9ca14",
    ("hanning-k3-kf2-t0.5-noclamp", "profile"): "3a6ab32db06767d285596ad1b866241bb3080600e16127be978da6bb9c45c9ea",
    ("rectangular-k2-kf1", "classify"): "1456c2b3ef14d450f5e331fa2f13a46579b0a612f70928fbc4d207a6e406f60c",
    ("rectangular-k2-kf1", "profile"): "b4f44213be72277e63a88825ba3abff0037d80e8b8e20e2bb56716726bfda0af",
}


def float_outputs(root, warm: bool = False) -> dict[tuple[str, str], str]:
    """``float.hex`` lines of rbf scores and profiles, keyed by (setting, "classify" | "profile").

    The profiles cover every leaf of every category query and of the query
    file, NEAR sides narrowed to their width, at every document.
    """
    corpus_path, cats, queries = golden_files(root)
    corpus = load_corpus(corpus_path)
    models = load_categories(cats)
    nodes = [model.query for model in models]
    nodes += [parse_query(line) for line in QUERIES.splitlines()]
    leaves = [step for node in nodes for step in query_plan(node) if isinstance(step, tuple)]
    outputs = {}
    for setting, flags in _settings(warm):
        argv = ["classify", str(corpus_path), "--categories", str(cats), *flags]
        cfg = resolve_config(build_parser().parse_args(argv)).rbf_config()
        scores, profiles = [], []
        for doc_id, doc in corpus.documents.items():
            for name, value in classify(doc, models, cfg, "rbf"):
                scores.append(f"{doc_id} {name} {value.hex()}")
            for stem, width in leaves:
                leaf_cfg = cfg if width is None else cfg.with_width(width)
                values = " ".join(v.hex() for v in rbf_term_profile(doc, stem, leaf_cfg).tolist())
                profiles.append(f"{doc_id} {stem} {width} {values}")
        outputs[setting, "classify"] = "\n".join(scores)
        outputs[setting, "profile"] = "\n".join(profiles)
    return outputs


@pytest.fixture(scope="module")
def floats(tmp_path_factory):
    return float_outputs(tmp_path_factory.mktemp("floats"))


@pytest.mark.parametrize("key", sorted(FLOAT_DIGESTS), ids="/".join)
def test_floats_match_golden_digest(floats, key):
    assert hashlib.sha256(floats[key].encode("utf-8")).hexdigest() == FLOAT_DIGESTS[key]


def test_every_float_output_is_pinned(floats):
    assert sorted(floats) == sorted(FLOAT_DIGESTS)


def test_a_warm_memo_gives_the_same_bytes(outputs, floats, tmp_path):
    for name in ("stdout", "floats"):
        (tmp_path / name).mkdir()
    assert golden_outputs(tmp_path / "stdout", warm=True) == outputs
    assert float_outputs(tmp_path / "floats", warm=True) == floats


# Raw Arabic text through `proxima index`: every folded character, digits of
# several scripts, digits inside words, underscores and stop words under
# affixes.  The digest was recorded before the fold, the digit filter and the
# stemming loop of textprep took their fast forms.
INDEX_TEXTS = {
    "fold": (
        "آمن أحمد إلى مدرسة كـــتاب كَتَبَ مُحَمَّدٌ كتابًا بيتٍ مِنْ هدىً\n"
        "الإمارات الأسواق المالية والمدرسة بمدرستها فالقرآن عــلـى\r\n"
        "Engine ENGINE engines"
    ),
    "digits": "عام ٢٠٢٤ و 2024 و ۱۹۹۹ و ४२ و ３ و 𝟘𝟙 صفحة ² ½ Ⅷ ٣٫٥ 3.5",
    "mixed": "عام٢٠٢٤ ab12 12ب ٣كتب x² والكتاب٢ ١٢_٣٤ ق٣ ٣٣٣س",
    "underscore": "«الكتاب_الجديد» _ __ a_b_ج _بيت_ المدرسة_ ۱_۲",
    "stops": "وفي والذي فالتي بالذي لكنها وقد الذي كتابهم وإلى فإن ولكن هذا هذه بالتي الكتاب",
    "stops-only": "في ١٢ من _ على ... 42 إلى",
}
INDEX_MANIFEST = "fold.txt\tfolding\ndigits\tnumbers\nstops.txt\tfunction\n"
INDEX_DIGEST = "8d7e546deea2b85765253877a80de1b9354b9518f46bbb04d7ee5581b4ca9191"


def index_output(root) -> bytes:
    """The corpus file `proxima index` writes for ``INDEX_TEXTS`` under directory ``root``."""
    docs = root / "docs"
    docs.mkdir()
    for name, text in INDEX_TEXTS.items():
        (docs / f"{name}.txt").write_text(text, encoding="utf-8")
    manifest, out = root / "manifest.tsv", root / "corpus.tsv"
    manifest.write_text(INDEX_MANIFEST, encoding="utf-8")
    _stdout(["index", str(docs), "--out", str(out), "--manifest", str(manifest)])
    return out.read_bytes()


def test_index_fixture_covers_every_folded_character_and_digit_script():
    text = "".join(INDEX_TEXTS.values())
    assert [hex(c) for c in _FOLD_TABLE if chr(c) not in text] == []
    assert {"٢", "۱", "४", "３", "𝟘", "2"} <= set(text)


def test_index_output_matches_golden_digest(tmp_path):
    assert hashlib.sha256(index_output(tmp_path)).hexdigest() == INDEX_DIGEST
