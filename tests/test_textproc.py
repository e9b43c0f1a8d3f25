"""Tokenizer, stopword, and stemmer behavior.

The stemmer vectors below were traced by hand against the published
algorithm description and frozen; they cover every rule step at least
once, including the measure conditions and the double-consonant and
cvc special cases.
"""

import random
import string

import pytest
from hypothesis import given, strategies as st

from headingrank import porter
from headingrank.textproc import (
    DEFAULT_CONFIG,
    HEADING_CONFIG,
    TokenPipelineConfig,
    heading_key,
    load_stopwords,
    normalize_heading,
    tokenize,
)

PLAIN = TokenPipelineConfig(stopwords=frozenset(), stem=False)

# (input, expected stem) — hand-traced, do not regenerate mechanically.
STEM_VECTORS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubling", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("running", "run"),
    ("dogs", "dog"),
    ("history", "histori"),
    ("demographics", "demograph"),
]


@pytest.mark.parametrize("word,expected", STEM_VECTORS)
def test_stem_vectors(word, expected):
    assert porter.stem(word) == expected


def test_memoised_stem_equals_unmemoised():
    unmemoised = porter.stem.__wrapped__
    for word, _ in STEM_VECTORS:
        assert porter.stem(word) == unmemoised(word)
    rng = random.Random(5)
    for _ in range(2000):
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 14)))
        assert porter.stem(word) == unmemoised(word)
    assert porter.stem.cache_info().maxsize == porter.STEM_CACHE_SIZE <= 1 << 14


def test_stem_short_words_untouched():
    for w in ("a", "be", "oh", "as", "is"):
        assert porter.stem(w) == w


def test_tokenize_stem_and_stopwords():
    assert tokenize("Running the dogs") == ["run", "dog"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


def test_tokenize_digit_handling():
    assert tokenize("History 2004") == ["histori", "2004"]
    assert tokenize("History 2004", HEADING_CONFIG) == ["histori"]


def test_tokenize_mixed_alphanumeric_kept():
    # "1990s" is not a pure digit run, so digit dropping leaves it alone,
    # and non-alphabetic tokens bypass the stemmer.
    assert normalize_heading("The 1990s") == ["1990s"]


def test_tokenize_splits_on_punctuation():
    assert tokenize("state-of-the-art", PLAIN) == ["state", "of", "the", "art"]
    assert tokenize("New York, NY!", PLAIN) == ["new", "york", "ny"]


def test_heading_key_merges_plural():
    assert heading_key("Demographics") == heading_key("Demographic") == "demograph"


def test_heading_key_ignores_case_and_punctuation():
    assert heading_key("EARLY-history") == heading_key("early History")


def test_normalize_heading_matches_tokenize():
    for h in ("Population and Demographics", "History of the 1990s", "See also"):
        assert normalize_heading(h) == tokenize(h, HEADING_CONFIG)


def test_load_stopwords_default_list():
    words = load_stopwords()
    assert "the" in words and "of" in words
    assert 100 <= len(words) <= 400
    assert all(w == w.lower() and w.strip() == w for w in words)


def test_stopwords_never_in_output():
    out = tokenize("the cat sat on the mat because it was the mat of cats")
    assert not set(out) & DEFAULT_CONFIG.stopwords


@given(st.text(alphabet=string.ascii_letters + string.digits + " .,-'!", max_size=80))
def test_tokens_lowercase_nonempty(text):
    for tok in tokenize(text):
        assert tok and tok == tok.lower()
        assert tok.strip() == tok


@given(st.text(alphabet=string.ascii_lowercase + " ", max_size=60))
def test_tokenize_deterministic(text):
    assert tokenize(text) == tokenize(text)


@given(st.lists(st.sampled_from([w for w, _ in STEM_VECTORS]), max_size=8))
def test_stemmed_output_stable_under_retokenization(words):
    # Retokenizing the joined output reproduces it as long as each stem
    # is itself a fixed point of the stemmer. Most are; the exceptions
    # (e.g. "agreed" -> "agre" -> "agr") come with the published rules
    # and are pinned in test_known_non_fixed_point below.
    first = tokenize(" ".join(words))
    fixed = [t for t in first if porter.stem(t) == t]
    if fixed == first:
        assert tokenize(" ".join(first)) == first


def test_known_non_fixed_point():
    assert porter.stem("agreed") == "agre"
    assert porter.stem("agre") == "agr"


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_output_shape(word):
    out = porter.stem(word)
    assert out and out == out.lower()
    assert len(out) <= len(word)
