"""Arabic text preparation, from raw strings to a searchable corpus.

The pipeline folds letter variants, strips diacritics, tokenizes, removes
function words and light-stems the survivors; positions are assigned after
filtering so proximity counts content terms only.

Run:  python demos/04_arabic_pipeline.py
"""

from proxima import (
    Corpus,
    InfluenceKernel,
    build_document,
    light_stem,
    normalize_text,
    parse_query,
    preprocess,
    similarity,
    tokenize,
)

# ---------------------------------------------------------------------------
# Character folding: hamza-carrying alefs, alef maqsura, ta marbuta, tatweel
# and the short-vowel marks all collapse, and the fold is idempotent.

for raw in ("أَحْمَدُ", "إلى المَكْتَبَةِ", "مدرســـة"):
    print(f"{raw!r:>24}  ->  {normalize_text(raw)!r}")

# ---------------------------------------------------------------------------
# Light stemming strips one layer of affixes per table entry, guarding a
# two-character minimum stem.

for token in ("الكتاب", "والكتاب", "كتاباتها", "مسلمون", "ال", "django"):
    print(f"{token!r:>16}  ->  {light_stem(token)!r}")

# ---------------------------------------------------------------------------
# The full pipeline on a sentence: stop words vanish, survivors are stemmed,
# and positions close the gaps.

sentence = "في البيت الكبير قرأ الأولاد الكتب الجديدة"
print(f"\nraw tokens : {tokenize(normalize_text(sentence))}")
print(f"pipeline   : {list(enumerate(preprocess(sentence)))}")

# ---------------------------------------------------------------------------
# A miniature press corpus, queried in both surface and stemmed form; query
# terms run through the same folding and stemming at parse time.

articles = {
    "sport-1": "فاز الفريق بالمباراة بعد هدف اللاعب الأخير",
    "sport-2": "تعادل الفريقان في مباراة كرة القدم",
    "econ-1": "ارتفعت الأسواق المالية بعد قرار البنك المركزي",
    "econ-2": "انخفض سعر النفط في الأسواق العالمية",
}
corpus = Corpus()
for doc_id, text in articles.items():
    corpus.add(build_document(doc_id, preprocess(text)))

kernel = InfluenceKernel("triangular", 5)
for query_text in ("المباراة", "الأسواق NEAR/4 البنك"):
    node = parse_query(query_text)
    ranked = sorted(
        ((d.doc_id, s) for d in corpus if (s := similarity(d, node, kernel)) > 0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    print(f"\nquery {query_text!r}:")
    for rank, (doc_id, value) in enumerate(ranked, start=1):
        print(f"  {rank}. {doc_id:<8} {value:.4f}")
