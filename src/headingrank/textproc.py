"""Shared text analysis: tokenization, stopword removal, stemming.

Every lexical component (index statistics, query terms, heading keys)
goes through the same pipeline so that scores stay comparable:

    lowercase -> split on non-alphanumeric runs -> drop stopwords
    -> drop pure-digit tokens (heading normalization only) -> stem

Stemming uses the in-repo Porter implementation and is applied only to
purely alphabetic tokens; mixed tokens such as "1990s" pass through
unchanged so they keep their surface form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from . import porter

# Non-alphanumeric characters separate tokens; underscore is not
# treated as alphanumeric. Hyphens and apostrophes split. The gazetteer
# linker splits surfaces and text with the same pattern.
TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Read a stopword file (one lowercase word per line).

    With no path, the packaged default list (~170 common English
    words) is used.
    """
    if path is None:
        text = (
            resources.files("headingrank")
            .joinpath("data/stopwords.txt")
            .read_text(encoding="utf-8")
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return frozenset(w.strip().lower() for w in text.split() if w.strip())


_DEFAULT_STOPWORDS = load_stopwords()


@dataclass(frozen=True)
class TokenPipelineConfig:
    stopwords: frozenset[str] = field(default=_DEFAULT_STOPWORDS)
    stem: bool = True
    drop_digits: bool = False


DEFAULT_CONFIG = TokenPipelineConfig()
HEADING_CONFIG = TokenPipelineConfig(drop_digits=True)


def tokenize(text: str, cfg: TokenPipelineConfig = DEFAULT_CONFIG) -> list[str]:
    """Analyze text into the pipeline's token list. Empty output is fine."""
    out = []
    for raw in TOKEN_RE.findall(text.lower()):
        if raw in cfg.stopwords:
            continue
        if cfg.drop_digits and raw.isdigit():
            continue
        if cfg.stem and raw.isalpha():
            raw = porter.stem(raw)
        out.append(raw)
    return out


def normalize_heading(heading: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Token list used as the same-heading match key (stem on, digits dropped)."""
    if stopwords is None:
        cfg = HEADING_CONFIG
    else:
        cfg = TokenPipelineConfig(stopwords=stopwords, stem=True, drop_digits=True)
    return tokenize(heading, cfg)


def heading_key(heading: str, stopwords: frozenset[str] | None = None) -> str:
    """normalize_heading joined by single spaces."""
    return " ".join(normalize_heading(heading, stopwords))
