"""Porter suffix-stripping stemmer.

Implements the 1980 rule tables as published (steps 1a through 5b),
without the later extensions found in some library variants. The
measure m of a stem counts vowel-consonant sequences in the form
[C](VC)^m[V]; conditions on each rule are evaluated against the stem
left after removing the candidate suffix.

Input is assumed to be a lowercase alphabetic word; callers filter
anything else before stemming. Stems are memoised, because a corpus
repeats the same words many times; at most STEM_CACHE_SIZE are kept.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"
STEM_CACHE_SIZE = 1 << 14


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        # y is a consonant at the word start or after a vowel
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(word: str, end: int) -> int:
    """m of the prefix word[:end]."""
    m = 0
    prev_vowel = False
    for i in range(end):
        vowel = not _is_consonant(word, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(word: str, end: int) -> bool:
    return any(not _is_consonant(word, i) for i in range(end))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Tail is consonant-vowel-consonant and the last consonant is not w, x or y."""
    n = len(word)
    if n < 3:
        return False
    return (
        _is_consonant(word, n - 3)
        and not _is_consonant(word, n - 2)
        and _is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w, len(w) - 3) > 0:
            return w[:-1]
        return w
    if w.endswith("ed") and _has_vowel(w, len(w) - 2):
        w = w[:-2]
    elif w.endswith("ing") and _has_vowel(w, len(w) - 3):
        w = w[:-3]
    else:
        return w
    # second-pass cleanup after ed/ing removal
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_consonant(w) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w, len(w)) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w, len(w) - 1):
        return w[:-1] + "i"
    return w


# (suffix, replacement) tried longest-first; the first suffix that
# matches decides the step, whether or not its m-condition passes.
_STEP2_RULES = (
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ion",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "al",
    "er",
    "ic",
    "ou",
)


def _apply_rules(w: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem_end = len(w) - len(suffix)
            if _measure(w, stem_end) >= min_measure:
                return w[:stem_end] + repl
            return w
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            stem_end = len(w) - len(suffix)
            if suffix == "ion" and (stem_end == 0 or w[stem_end - 1] not in "st"):
                return w
            if _measure(w, stem_end) > 1:
                return w[:stem_end]
            return w
    return w


def _step5a(w: str) -> str:
    if not w.endswith("e"):
        return w
    m = _measure(w, len(w) - 1)
    if m > 1:
        return w[:-1]
    if m == 1 and not _ends_cvc(w[:-1]):
        return w[:-1]
    return w


def _step5b(w: str) -> str:
    if w.endswith("ll") and _measure(w, len(w)) > 1:
        return w[:-1]
    return w


@lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(word: str) -> str:
    """Stem one lowercase alphabetic word.

    Words of length <= 2 are returned unchanged, following the
    reference implementations (the published rules alone would strip
    e.g. "as" to "a" and "s" to the empty string).
    """
    if len(word) <= 2:
        return word
    w = _step1a(word)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_rules(w, _STEP2_RULES, 1)
    w = _apply_rules(w, _STEP3_RULES, 1)
    w = _step4(w)
    w = _step5a(w)
    w = _step5b(w)
    return w
