"""Immutable inverted index and the lexical scorers built on it.

Scoring functions:
  - bm25_score: Okapi BM25 with a positive idf, ln(1 + (N+0.5)/(df+0.5)).
  - tfidf_vector: logarithmic L2-normalized TF-IDF, (1+ln tf) * ln(N/df).
  - lm_dirichlet_scores: Dirichlet-smoothed query log-likelihood of a pool.

All logs are natural; cosine and argmax ranking are invariant to the
base anyway. Ties in rankings always break by ascending paragraph id.

Whatever does not depend on the paragraph is computed once per query,
not once per (query, paragraph) pair: BM25 callers look up each term's
idf once (bm25_weight is the per-pair formula), and
lm_dirichlet_scores computes each term's smoothing mass once per pool.
A SparseVector computes its norm once, on first use, and keeps it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .textproc import TokenPipelineConfig, DEFAULT_CONFIG, tokenize

INDEX_FORMAT = "headingrank-index"
INDEX_VERSION = 1


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass(frozen=True)
class SparseVector:
    """Term-keyed vector; produced L2-normalized by tfidf_vector.

    Treat entries as read-only: the norm is computed on first use and
    kept. It is not a field, so == still compares entries only.
    """

    entries: dict[str, float]

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.entries.values()))

    def norm(self) -> float:
        return self._norm

    def dot(self, other: "SparseVector") -> float:
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        return sum(w * b[t] for t, w in a.items() if t in b)


@dataclass(frozen=True)
class Ranking:
    """Scored paragraphs, descending score, ties by ascending id."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def paragraph_ids(self) -> list[str]:
        return [pid for pid, _ in self.items]


def rank_items(query_id: str, scored: Mapping[str, float], k: int | None = None) -> Ranking:
    """Order scored paragraphs under the tie rule and truncate to k."""
    ordered = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
    if k is not None:
        ordered = ordered[:k]
    return Ranking(query_id=query_id, items=tuple(ordered))


class Index:
    """Inverted index over a paragraph collection. Read-only after build."""

    def __init__(self, postings: dict[str, list[tuple[str, int]]],
                 doc_lengths: dict[str, int]):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.n_docs = len(doc_lengths)
        self.doc_freq = {t: len(pl) for t, pl in postings.items()}
        self.collection_tf = {t: sum(tf for _, tf in pl) for t, pl in postings.items()}
        self.collection_len = sum(doc_lengths.values())
        self.avg_doc_len = self.collection_len / self.n_docs if self.n_docs else 0.0
        self.doc_tf: dict[str, dict[str, int]] = {pid: {} for pid in doc_lengths}
        for term, plist in postings.items():
            for pid, tf in plist:
                self.doc_tf[pid][term] = tf

    def __contains__(self, paragraph_id: str) -> bool:
        return paragraph_id in self.doc_lengths

    def require(self, paragraph_id: str) -> None:
        if paragraph_id not in self.doc_lengths:
            raise KeyError(f"unknown paragraph id {paragraph_id!r}")


def build_index(paragraphs: Mapping[str, str],
                cfg: TokenPipelineConfig = DEFAULT_CONFIG) -> Index:
    """Index a paragraph id -> text map. Deterministic for equal content."""
    if not paragraphs:
        raise ValueError("cannot index an empty paragraph map")
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_lengths: dict[str, int] = {}
    for pid in sorted(paragraphs):
        tokens = tokenize(paragraphs[pid], cfg)
        doc_lengths[pid] = len(tokens)
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for t in sorted(counts):
            postings.setdefault(t, []).append((pid, counts[t]))
    return Index(postings=postings, doc_lengths=doc_lengths)


def tfidf_idf(doc_freq: Mapping[str, int], n_docs: int, key: str) -> float:
    """ln(n_docs / df) of a term or entity; 0.0 when df is 0.

    Callers drop a key whose idf is 0.0: one no document holds, or one
    every document holds.
    """
    df = doc_freq.get(key, 0)
    if df == 0:
        return 0.0
    return math.log(n_docs / df)


def bm25_idf(ix: Index, term: str) -> float:
    df = ix.doc_freq.get(term, 0)
    return math.log(1.0 + (ix.n_docs + 0.5) / (df + 0.5))


def bm25_length_norm(ix: Index, paragraph_id: str, params: Bm25Params) -> float:
    """1 - b + b * |d| / avgdl."""
    return 1.0 - params.b + params.b * ix.doc_lengths[paragraph_id] / ix.avg_doc_len


def bm25_weight(idf: float, tf: int, length_norm: float,
                params: Bm25Params) -> float:
    """One term's BM25 contribution from its parts (0 when tf is 0)."""
    if tf == 0:
        return 0.0
    return idf * tf * (params.k1 + 1.0) / (tf + params.k1 * length_norm)


def bm25_term_score(ix: Index, term: str, paragraph_id: str,
                    params: Bm25Params) -> float:
    """One term's BM25 contribution (0 when the term misses the doc)."""
    tf = ix.doc_tf[paragraph_id].get(term, 0)
    if tf == 0:
        return 0.0
    return bm25_weight(bm25_idf(ix, term), tf,
                       bm25_length_norm(ix, paragraph_id, params), params)


def bm25_score(ix: Index, q: Sequence[str], paragraph_id: str,
               params: Bm25Params = Bm25Params()) -> float:
    """Okapi BM25; query terms count with multiplicity."""
    ix.require(paragraph_id)
    return sum(bm25_term_score(ix, t, paragraph_id, params) for t in q)


def tfidf_vector(ix: Index, bag: Sequence[str] | Mapping[str, int]) -> SparseVector:
    """Logarithmic L2-normalized TF-IDF of a token bag.

    weight(t) = (1 + ln tf) * ln(N/df); terms unseen by the index and
    terms present in every document (idf 0) are dropped; the result is
    unit length unless empty. The bag may be given pre-counted as a
    term -> frequency map.
    """
    if isinstance(bag, Mapping):
        counts = dict(bag)
    else:
        counts = {}
        for t in bag:
            counts[t] = counts.get(t, 0) + 1
    entries: dict[str, float] = {}
    for t, tf in counts.items():
        idf = tfidf_idf(ix.doc_freq, ix.n_docs, t)
        if idf == 0.0:
            continue
        entries[t] = (1.0 + math.log(tf)) * idf
    norm = math.sqrt(sum(w * w for w in entries.values()))
    if norm > 0.0:
        entries = {t: w / norm for t, w in entries.items()}
    return SparseVector(entries=entries)


def lm_dirichlet_scores(ix: Index, q: Sequence[str], paragraph_ids: Iterable[str],
                        mu: float = 1500.0) -> dict[str, float]:
    """Dirichlet-smoothed log P(q|d) of each paragraph in a pool.

    Terms with zero collection frequency are skipped. Each term's
    smoothing mass mu * cf / |C| is computed once for the whole pool.
    """
    if mu <= 0:
        raise ValueError("mu must be > 0")
    smoothing: list[tuple[str, float]] = []
    for t in q:
        cf = ix.collection_tf.get(t, 0)
        if cf == 0:
            continue
        smoothing.append((t, mu * cf / ix.collection_len))
    scores: dict[str, float] = {}
    for pid in paragraph_ids:
        ix.require(pid)
        doc = ix.doc_tf[pid]
        denominator = ix.doc_lengths[pid] + mu
        score = 0.0
        for t, mass in smoothing:
            score += math.log((doc.get(t, 0) + mass) / denominator)
        scores[pid] = score
    return scores


Scorer = Callable[[Sequence[str], str], float]


def matching_paragraphs(ix: Index, terms: Sequence[str]) -> set[str]:
    """Paragraphs containing at least one of the given terms."""
    pool: set[str] = set()
    for t in set(terms):
        for pid, _ in ix.postings.get(t, ()):
            pool.add(pid)
    return pool


def retrieve_topk(ix: Index, scorer: Scorer, q: Sequence[str], k: int,
                  query_id: str = "") -> Ranking:
    """Top-k among paragraphs matching >=1 query term (disjunctive pool)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = {pid: scorer(q, pid) for pid in matching_paragraphs(ix, q)}
    return rank_items(query_id, scored, k)


def save_index(ix: Index, path: str) -> None:
    """Single-line JSON artifact; byte-stable for identical input corpora."""
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_lengths": ix.doc_lengths,
        "postings": {t: [[pid, tf] for pid, tf in pl] for t, pl in ix.postings.items()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_index(path: str) -> Index:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != INDEX_FORMAT:
        raise ValueError(f"not an index artifact: {path}")
    if payload.get("version") != INDEX_VERSION:
        raise ValueError(f"unsupported index version {payload.get('version')}")
    postings = {t: [(pid, int(tf)) for pid, tf in pl]
                for t, pl in payload["postings"].items()}
    return Index(postings=postings, doc_lengths={p: int(n) for p, n in payload["doc_lengths"].items()})
