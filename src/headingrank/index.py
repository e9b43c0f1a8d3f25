"""Immutable inverted index and the lexical scorers built on it.

Scoring functions:
  - bm25_scores: Okapi BM25 of a pool, with a positive idf,
    ln(1 + (N+0.5)/(df+0.5)); bm25_score is one paragraph of it.
  - tfidf_vector: logarithmic L2-normalized TF-IDF, (1+ln tf) * ln(N/df).
    It is one sparse_sum, the idf sum that also builds the tf-idf
    feedback vector of relevance-model expansion.
  - lm_dirichlet_scores: Dirichlet-smoothed query log-likelihood of a pool.

All logs are natural; cosine and argmax ranking are invariant to the
base anyway. Ties in rankings always break by ascending paragraph id.

Whatever does not depend on the paragraph is computed once per query,
not once per (query, paragraph) pair: bm25_scores looks up each term's
idf once per pool, and lm_dirichlet_scores computes each term's
smoothing mass once per pool.
A SparseVector computes its norm once, on first use, and keeps it, and
an Index builds its per-paragraph term counts (doc_tf) the same way, so
building and saving an index never pays for them.

An index records a fingerprint of what its statistics depend on: a
sha256 of the paragraph texts and one of the token config. A saved
index keeps it, so a command can tell an index of other text from its
own corpus's.

SparseVector and semvec.DenseVector share one interface (norm, dot,
plus, scaled, divided, zero), and same_space is the one check that two
vectors can be combined. Float sums add left to right, never through
the builtin sum, which compensates from Python 3.12 on, so every score
has the same bits under every supported Python.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

from .textproc import TokenPipelineConfig, DEFAULT_CONFIG, tokenize
from .utils import InputError, ordered_sum

INDEX_FORMAT = "headingrank-index"
INDEX_VERSION = 2


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.k1 < math.inf:
            raise InputError("k1 must be > 0 and finite")
        if not 0.0 <= self.b <= 1.0:
            raise InputError("b must be in [0, 1]")


def same_space(a, b) -> None:
    """The check of every two-vector operation: one type, one dimension."""
    if type(a) is not type(b):
        raise ValueError(f"mismatched vector spaces: {type(a).__name__} "
                         f"vs {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True)
class SparseVector:
    """Term-keyed vector; produced L2-normalized by tfidf_vector.

    Treat entries as read-only: the norm is computed on first use and
    kept. It is not a field, so == still compares entries only.
    """

    entries: dict[str, float]
    shape: ClassVar[None] = None  # every term is an axis

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(ordered_sum(w * w for w in self.entries.values()))

    def norm(self) -> float:
        return self._norm

    def dot(self, other: "SparseVector") -> float:
        same_space(self, other)
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        total = 0.0  # added left to right, as ordered_sum
        for t, w in a.items():
            if t in b:
                total += w * b[t]
        return total

    def plus(self, other: "SparseVector") -> "SparseVector":
        same_space(self, other)
        entries = dict(self.entries)
        for t, w in other.entries.items():
            entries[t] = entries.get(t, 0.0) + w
        return SparseVector(entries)

    def scaled(self, c: float) -> "SparseVector":
        return SparseVector({t: c * w for t, w in self.entries.items()})

    def divided(self, c: float) -> "SparseVector":
        return SparseVector({t: w / c for t, w in self.entries.items()})

    def zero(self) -> "SparseVector":
        return SparseVector({})


@dataclass(frozen=True)
class Ranking:
    """Scored paragraphs, descending score, ties by ascending id."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def paragraph_ids(self) -> list[str]:
        return [pid for pid, _ in self.items]


def rank_items(query_id: str, scored: Mapping[str, float], k: int | None = None) -> Ranking:
    """Order scored paragraphs under the tie rule and truncate to k >= 1."""
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
    if k is not None:
        ordered = ordered[:k]
    return Ranking(query_id=query_id, items=tuple(ordered))


class Index:
    """Inverted index over a paragraph collection. Read-only after build."""

    def __init__(self, postings: dict[str, list[tuple[str, int]]],
                 doc_lengths: dict[str, int], fingerprint: dict[str, str]):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.fingerprint = fingerprint
        self.n_docs = len(doc_lengths)
        self.doc_freq = {t: len(pl) for t, pl in postings.items()}
        self.collection_tf = {t: sum(tf for _, tf in pl) for t, pl in postings.items()}
        self.collection_len = sum(doc_lengths.values())
        self.avg_doc_len = self.collection_len / self.n_docs if self.n_docs else 0.0

    @cached_property
    def doc_tf(self) -> dict[str, dict[str, int]]:
        """Paragraph id -> term -> tf, built from the postings on first read."""
        doc_tf: dict[str, dict[str, int]] = {pid: {} for pid in self.doc_lengths}
        for term, plist in self.postings.items():
            for pid, tf in plist:
                doc_tf[pid][term] = tf
        return doc_tf

    def __contains__(self, paragraph_id: str) -> bool:
        return paragraph_id in self.doc_lengths

    def require(self, paragraph_id: str) -> None:
        if paragraph_id not in self.doc_lengths:
            raise KeyError(f"unknown paragraph id {paragraph_id!r}")


def index_fingerprint(paragraphs: Mapping[str, str],
                      cfg: TokenPipelineConfig) -> dict[str, str]:
    """sha256 of the paragraph texts by id ("texts") and of the token
    config: stopword set, stem and drop_digits ("tokens")."""
    texts = json.dumps(sorted(paragraphs.items()))
    tokens = json.dumps([sorted(cfg.stopwords), cfg.stem, cfg.drop_digits])
    return {"texts": hashlib.sha256(texts.encode("utf-8")).hexdigest(),
            "tokens": hashlib.sha256(tokens.encode("utf-8")).hexdigest()}


def build_index(paragraphs: Mapping[str, str],
                cfg: TokenPipelineConfig = DEFAULT_CONFIG) -> Index:
    """Index a paragraph id -> text map. Deterministic for equal content."""
    if not paragraphs:
        raise InputError("cannot index an empty paragraph map")
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
    return Index(postings=postings, doc_lengths=doc_lengths,
                 fingerprint=index_fingerprint(paragraphs, cfg))


def tfidf_idf(doc_freq: Mapping[str, int], n_docs: int, key: str) -> float:
    """ln(n_docs / df) of a term or entity; 0.0 when df is 0.

    Callers drop a key whose idf is 0.0: one no document holds, or one
    every document holds.
    """
    df = doc_freq.get(key, 0)
    if df == 0:
        return 0.0
    return math.log(n_docs / df)


def sparse_sum(weighted: Iterable[tuple[str, float]], doc_freq: Mapping[str, int],
               n_docs: int) -> SparseVector:
    """Σ coef * ln(n_docs / df(key)) * e_key over (key, coef) pairs.

    The sparse twin of semvec.embedding_sum: a key with idf 0 carries
    no axis, and a repeated key adds up on its one axis, in pair order.
    """
    entries: dict[str, float] = {}
    for key, coef in weighted:
        idf = tfidf_idf(doc_freq, n_docs, key)
        if idf != 0.0:
            entries[key] = entries.get(key, 0.0) + coef * idf
    return SparseVector(entries)


def bm25_idf(ix: Index, term: str) -> float:
    df = ix.doc_freq.get(term, 0)
    return math.log(1.0 + (ix.n_docs + 0.5) / (df + 0.5))


def bm25_scores(ix: Index, weighted_terms: Iterable[tuple[str, float]],
                paragraph_ids: Iterable[str],
                params: Bm25Params = Bm25Params()) -> dict[str, float]:
    """Okapi BM25 of each paragraph in a pool.

    A paragraph's score sums w * weight(t) over the (term, w) pairs in
    the order given, where weight(t) = idf * tf * (k1 + 1) /
    (tf + k1 * (1 - b + b * |d| / avgdl)) and terms missing from the
    paragraph add nothing. A repeated term counts once per pair. Each
    pair's idf is looked up once for the whole pool and each
    paragraph's length norm once.
    """
    k1, b = params.k1, params.b
    k1_plus_1 = k1 + 1.0
    terms = [(t, w, bm25_idf(ix, t)) for t, w in weighted_terms]
    scores: dict[str, float] = {}
    for pid in paragraph_ids:
        ix.require(pid)
        doc = ix.doc_tf[pid]
        score = 0.0
        # a tokenless paragraph matches no term, and avg_doc_len may be 0
        if doc:
            length_norm = 1.0 - b + b * ix.doc_lengths[pid] / ix.avg_doc_len
            for t, w, idf in terms:
                tf = doc.get(t, 0)
                if tf:
                    score += w * (idf * tf * k1_plus_1 / (tf + k1 * length_norm))
        scores[pid] = score
    return scores


def bm25_score(ix: Index, q: Sequence[str], paragraph_id: str,
               params: Bm25Params = Bm25Params()) -> float:
    """Okapi BM25 of one paragraph; query terms count with multiplicity."""
    return bm25_scores(ix, [(t, 1.0) for t in q], [paragraph_id], params)[paragraph_id]


def tfidf_vector(ix: Index, bag: Sequence[str] | Mapping[str, int]) -> SparseVector:
    """Logarithmic L2-normalized TF-IDF of a token bag.

    weight(t) = (1 + ln tf) * ln(N/df); terms unseen by the index and
    terms present in every document (idf 0) are dropped; the result is
    unit length unless empty. The bag may be given pre-counted as a
    term -> frequency map.
    """
    vec = sparse_sum(((t, 1.0 + math.log(tf)) for t, tf in Counter(bag).items()),
                     ix.doc_freq, ix.n_docs)
    norm = vec.norm()
    return vec.divided(norm) if norm > 0.0 else vec


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
        "fingerprint": ix.fingerprint,
        "postings": ix.postings,  # json writes each (pid, tf) as [pid, tf]
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_index(path: str) -> Index:
    """The index save_index wrote to path. A file that is not JSON, not
    an index artifact or of another version, or whose postings are not
    [paragraph id, tf >= 1] pairs adding up to its doc_lengths, raises
    InputError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"index artifact {path} is not JSON: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise InputError(f"not an index artifact: {path}")
    if payload.get("version") != INDEX_VERSION:
        raise InputError(f"unsupported index version {payload.get('version')} "
                         f"in {path}; rebuild it with the index command")
    missing = [k for k in ("doc_lengths", "fingerprint", "postings") if k not in payload]
    if missing:
        raise InputError(f"index artifact {path} lacks {', '.join(missing)}")
    fingerprint = payload["fingerprint"]
    if not isinstance(fingerprint, dict) or set(fingerprint) != {"texts", "tokens"}:
        raise InputError(f"index artifact {path} has a malformed fingerprint")
    doc_lengths, listed = payload["doc_lengths"], payload["postings"]
    if not (isinstance(doc_lengths, dict) and isinstance(listed, dict)
            and all(isinstance(pl, list) for pl in listed.values())):
        raise InputError(f"index artifact {path}: doc_lengths must be an object, "
                         f"and postings an object of lists")
    tf_sums = dict.fromkeys(doc_lengths, 0)
    postings: dict[str, list[tuple[str, int]]] = {}
    for term, pl in listed.items():
        postings[term] = pairs = []
        for posting in pl:
            if not (isinstance(posting, list) and len(posting) == 2
                    and isinstance(posting[0], str) and posting[0] in tf_sums
                    and type(posting[1]) is int and posting[1] >= 1):
                raise InputError(f"index artifact {path}: posting {posting!r} of {term!r} "
                                 f"is not a [paragraph id, tf >= 1] pair")
            tf_sums[posting[0]] += posting[1]
            pairs.append((posting[0], posting[1]))
    if tf_sums != doc_lengths:
        raise InputError(f"index artifact {path}: postings do not add up to doc_lengths")
    return Index(postings=postings, doc_lengths=tf_sums, fingerprint=fingerprint)
