"""Retrieval methods and their legal expansion pairings.

One engine instance owns the index, the paragraph texts, and whatever
semantic resources the chosen method needs, then turns heading queries
into rankings either over the full collection or over a fixed
candidate pool. Combining a method with an expansion it cannot express
(bm25 has no vector space for Rocchio, entity feedback only lives in
the entity space) is rejected up front, as is an engine that lacks a
resource its pair needs: embeddings, linker, entity stats, Rocchio support.
MethodParams is the one check of the scorer parameters: rm1_terms,
rm1_entities, rocchio_expand and lm_dirichlet_scores, which the engine
calls, take theirs as checked.

Relevance-model feedback reaches the scorer one way, as the (term or
entity, weight) pairs of ExpandedQuery.feedback: bm25 weights its terms
with them, and a vector method sums them into its space with one idf sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import HeadingQuery
from .expansion import (ExpandedQuery, HeadingSupportIndex, mix_vectors,
                        mixed_term_weights, rm1_entities, rm1_terms, rocchio_expand)
from .index import (Bm25Params, Index, Ranking, bm25_scores, matching_paragraphs,
                    rank_items, sparse_sum, tfidf_vector)
from .semvec import (EmbeddingStore, EntityLinker, EntityStats, Vector, cosine,
                     embedding_sum, entity_vector, link_or_warn, text_vector)
from .utils import InputError

METHODS = ("bm25", "tfidf-cs", "glove-cs", "entity-cs")
EXPANSIONS = ("none", "rm1", "ent-rm1", "rocchio")

VALID_COMBINATIONS: dict[str, frozenset[str]] = {
    "bm25": frozenset({"none", "rm1"}),
    "tfidf-cs": frozenset({"none", "rm1", "rocchio"}),
    "glove-cs": frozenset({"none", "rm1", "rocchio"}),
    "entity-cs": frozenset({"none", "ent-rm1", "rocchio"}),
}


class InvalidCombinationError(InputError):
    def __init__(self, method: str, expansion: str):
        valid = ", ".join(sorted(VALID_COMBINATIONS[method]))
        super().__init__(f"expansion {expansion!r} cannot be applied to "
                         f"method {method!r} (valid: {valid})")


@dataclass(frozen=True)
class MethodParams:
    method: str = "bm25"
    expansion: str = "none"
    k1: float = 1.2
    b: float = 0.75
    mu: float = 1500.0
    lam: float = 0.5
    fb_docs: int = 10
    fb_terms: int = 10
    fb_entities: int = 10
    rocchio_passages: int = 5

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}")
        if self.expansion not in VALID_COMBINATIONS[self.method]:
            raise InvalidCombinationError(self.method, self.expansion)
        if not 0.0 <= self.lam <= 1.0:
            raise InputError("lambda must be in [0, 1]")
        self.bm25_params()  # Bm25Params validates k1 and b
        if not 0.0 < self.mu < math.inf:
            raise InputError("mu must be > 0 and finite")
        if min(self.fb_docs, self.fb_terms, self.fb_entities,
               self.rocchio_passages) < 1:
            raise InputError("feedback budgets must be >= 1")

    def bm25_params(self) -> Bm25Params:
        return Bm25Params(k1=self.k1, b=self.b)

    # What the scorer needs besides the index and the texts. The
    # entity-cs method also needs entity link statistics.
    @property
    def needs_embeddings(self) -> bool:
        return self.method in ("glove-cs", "entity-cs")

    @property
    def needs_linker(self) -> bool:
        return self.method == "entity-cs" or self.expansion == "ent-rm1"


class MethodEngine:
    """Scores heading queries with one (method, expansion) combination.

    Document representations are cached per paragraph, and each vector
    keeps its norm, so reranking thousands of queries over the same
    collection stays cheap. Per-query terms are computed once per query:
    the mixed query vector and its norm, or each BM25 term's weight and idf.
    """

    def __init__(self, ix: Index, texts: Mapping[str, str],
                 params: MethodParams = MethodParams(),
                 embeddings: EmbeddingStore | None = None,
                 linker: EntityLinker | None = None,
                 entity_stats: EntityStats | None = None,
                 support: HeadingSupportIndex | None = None):
        self.ix = ix
        self.texts = texts
        self.params = params
        self.embeddings = embeddings
        self.linker = linker
        self.entity_stats = entity_stats
        self.support = support
        self._doc_vectors: dict[str, Vector] = {}
        self._check_resources()

    def _check_resources(self) -> None:
        p = self.params
        if p.needs_embeddings and self.embeddings is None:
            raise ValueError(f"method {p.method!r} requires an embedding store")
        if p.needs_linker and self.linker is None:
            raise ValueError(f"method {p.method!r} requires an entity linker")
        if p.method == "entity-cs" and self.entity_stats is None:
            raise ValueError("method 'entity-cs' requires entity link statistics")
        if p.expansion == "rocchio" and self.support is None:
            raise ValueError("expansion 'rocchio' requires a heading support index")

    # --- document representations -------------------------------------

    def doc_vector(self, pid: str) -> Vector:
        vec = self._doc_vectors.get(pid)
        if vec is None:
            vec = self._doc_vectors[pid] = self._vector(
                self.ix.doc_tf[pid], self.texts[pid], "paragraph", pid)
        return vec

    def _vector(self, bag: Sequence[str] | Mapping[str, int], text: str,
                kind: str, name: str) -> Vector:
        """The method's vector of a paragraph or query: of its token bag,
        or for entity-cs of the entities linked in its text."""
        method = self.params.method
        if method == "tfidf-cs":
            return tfidf_vector(self.ix, bag)
        if method == "glove-cs":
            return text_vector(bag, self.embeddings, self.ix)
        if method == "entity-cs":
            return entity_vector(link_or_warn(self.linker, text, kind, name),
                                 self.embeddings, self.entity_stats)
        raise ValueError(f"method {method!r} has no vectors")

    # --- query expansion ----------------------------------------------

    def expand(self, query: HeadingQuery) -> ExpandedQuery:
        """The query with rm1 terms (which also widen the full-collection
        pool), ent-rm1 entities or Rocchio's centroid; or unexpanded."""
        p = self.params
        if p.expansion == "rocchio":
            return rocchio_expand(query, self.support, self.doc_vector,
                                  max_passages=p.rocchio_passages, lam=p.lam)
        feedback: tuple[tuple[str, float], ...] = ()
        if p.expansion == "rm1":
            feedback = tuple(rm1_terms(self.ix, query, fb_docs=p.fb_docs,
                                       fb_terms=p.fb_terms, mu=p.mu))
        elif p.expansion == "ent-rm1":
            feedback = tuple(rm1_entities(self.ix, self.texts, query, self.linker,
                                          fb_docs=p.fb_docs, fb_entities=p.fb_entities,
                                          mu=p.mu))
        if not feedback:
            return ExpandedQuery(original=query)
        match_terms = tuple(t for t, _ in feedback) if p.expansion == "rm1" else ()
        return ExpandedQuery(original=query, feedback=feedback,
                             interpolation=p.lam, match_terms=match_terms)

    # --- query representations ----------------------------------------

    def _feedback_vector(self, eq: ExpandedQuery) -> Vector | None:
        """Rocchio's centroid, or Σ weight * idf * vector(key) over the
        feedback pairs in the method's space."""
        if not eq.feedback:
            return eq.expansion_vector
        method = self.params.method
        if method == "tfidf-cs":
            return sparse_sum(eq.feedback, self.ix.doc_freq, self.ix.n_docs)
        if method == "glove-cs":
            doc_freq, n_docs = self.ix.doc_freq, self.ix.n_docs
        else:
            doc_freq, n_docs = self.entity_stats.link_doc_freq, self.entity_stats.n_docs
        return embedding_sum(((key, weight, 0) for key, weight in eq.feedback),
                             self.embeddings, doc_freq, n_docs)

    # --- scoring --------------------------------------------------------

    def rank(self, query: HeadingQuery, k: int | None = 100,
             candidates: Sequence[str] | None = None) -> Ranking:
        """Rank the candidate pool (or the whole collection) for a query.

        Full-collection mode pools every paragraph that shares a term
        with the query or its expansion (for bm25, a term of positive
        weight); candidate mode scores exactly the ids given, and an id
        the index lacks raises KeyError where it is scored.
        """
        eq = self.expand(query)
        pool: Iterable[str] | None = candidates
        if self.params.method == "bm25":
            weights = mixed_term_weights(eq)
            if pool is None:
                positive = [t for t, w in weights.items() if w > 0.0]
                pool = matching_paragraphs(self.ix, positive)
            scored = bm25_scores(self.ix, weights.items(), pool,
                                 self.params.bm25_params())
        else:
            if pool is None:
                widen = eq.match_terms if eq.interpolation < 1.0 else ()
                pool = matching_paragraphs(self.ix, query.terms + widen)
            query_vector = self._vector(query.terms, query.raw_text, "query",
                                        query.query_id)
            mixed = mix_vectors(query_vector, self._feedback_vector(eq),
                                eq.interpolation)
            scored = {pid: cosine(mixed, self.doc_vector(pid)) for pid in pool}
        return rank_items(query.query_id, scored,
                          k if candidates is None else None)
