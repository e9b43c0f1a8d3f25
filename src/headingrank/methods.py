"""Retrieval methods and their legal expansion pairings.

One engine instance owns the index, the paragraph texts, and whatever
semantic resources the chosen method needs, then turns heading queries
into rankings either over the full collection or over a fixed
candidate pool. Combining a method with an expansion it cannot express
(bm25 has no vector space for Rocchio, entity feedback only lives in
the entity space) is rejected up front.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import HeadingQuery
from .expansion import (ExpandedQuery, HeadingSupportIndex, entity_feedback_vector,
                        expand_entities, expand_rm3, mix_vectors,
                        mixed_term_weights, rm1_entities, rm1_terms,
                        rocchio_expand, term_feedback_dense, term_feedback_vector)
from .index import (Bm25Params, Index, Ranking, SparseVector, bm25_term_score,
                    matching_paragraphs, rank_items, tfidf_vector)
from .semvec import (DenseVector, EmbeddingStore, EntityLinker, EntityStats,
                     LinkerError, cosine, entity_vector, text_vector)

log = logging.getLogger(__name__)

METHODS = ("bm25", "tfidf-cs", "glove-cs", "entity-cs")
EXPANSIONS = ("none", "rm1", "ent-rm1", "rocchio")

VALID_COMBINATIONS: dict[str, frozenset[str]] = {
    "bm25": frozenset({"none", "rm1"}),
    "tfidf-cs": frozenset({"none", "rm1", "rocchio"}),
    "glove-cs": frozenset({"none", "rm1", "rocchio"}),
    "entity-cs": frozenset({"none", "ent-rm1", "rocchio"}),
}


class InvalidCombinationError(ValueError):
    def __init__(self, method: str, expansion: str):
        valid = ", ".join(sorted(VALID_COMBINATIONS.get(method, frozenset())))
        super().__init__(
            f"expansion {expansion!r} cannot be applied to method {method!r}"
            + (f" (valid: {valid})" if valid else ""))


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
            raise ValueError(f"unknown method {self.method!r}")
        if self.expansion not in EXPANSIONS:
            raise ValueError(f"unknown expansion {self.expansion!r}")
        if self.expansion not in VALID_COMBINATIONS[self.method]:
            raise InvalidCombinationError(self.method, self.expansion)
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        self.bm25_params()  # Bm25Params validates k1 and b
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if min(self.fb_docs, self.fb_terms, self.fb_entities,
               self.rocchio_passages) < 1:
            raise ValueError("feedback budgets must be >= 1")

    def bm25_params(self) -> Bm25Params:
        return Bm25Params(k1=self.k1, b=self.b)


class MethodEngine:
    """Scores heading queries with one (method, expansion) combination.

    Document representations are cached per paragraph, so reranking
    thousands of queries over the same collection stays cheap.
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
        self._doc_vectors: dict[str, SparseVector | DenseVector] = {}
        self._check_resources()

    def _check_resources(self) -> None:
        p = self.params
        if p.method in ("glove-cs", "entity-cs") and self.embeddings is None:
            raise ValueError(f"method {p.method!r} requires an embedding store")
        if p.method == "entity-cs":
            if self.linker is None:
                raise ValueError("method 'entity-cs' requires an entity linker")
            if self.entity_stats is None:
                raise ValueError("method 'entity-cs' requires entity link statistics")
        if p.expansion == "ent-rm1" and self.linker is None:
            raise ValueError("expansion 'ent-rm1' requires an entity linker")
        if p.expansion == "rocchio" and self.support is None:
            log.warning("no heading support index supplied; "
                        "rocchio falls back to query-only ranking")

    # --- document representations -------------------------------------

    def doc_vector(self, pid: str) -> SparseVector | DenseVector:
        cached = self._doc_vectors.get(pid)
        if cached is not None:
            return cached
        method = self.params.method
        if method == "tfidf-cs":
            vec: SparseVector | DenseVector = tfidf_vector(self.ix, self.ix.doc_tf[pid])
        elif method == "glove-cs":
            assert self.embeddings is not None
            vec = text_vector(self.ix.doc_tf[pid], self.embeddings, self.ix)
        elif method == "entity-cs":
            assert self.embeddings is not None and self.entity_stats is not None
            vec = entity_vector(self._mentions(pid), self.embeddings,
                                self.entity_stats)
        else:
            raise ValueError(f"method {method!r} has no document vectors")
        self._doc_vectors[pid] = vec
        return vec

    def _mentions(self, pid: str):
        assert self.linker is not None
        try:
            return self.linker.link(self.texts[pid])
        except LinkerError as exc:
            log.warning("linker failed on paragraph %s: %s", pid, exc)
            return []

    # --- query expansion ----------------------------------------------

    def expand(self, query: HeadingQuery) -> ExpandedQuery:
        p = self.params
        if p.expansion == "none":
            return ExpandedQuery(original=query)
        if p.expansion == "rm1":
            terms = rm1_terms(self.ix, query, fb_docs=p.fb_docs,
                              fb_terms=p.fb_terms, mu=p.mu)
            return expand_rm3(query, terms, lam=p.lam)
        if p.expansion == "ent-rm1":
            assert self.linker is not None
            entities = rm1_entities(self.ix, self.texts, query, self.linker,
                                    fb_docs=p.fb_docs, fb_entities=p.fb_entities,
                                    mu=p.mu)
            return expand_entities(query, entities, lam=p.lam)
        assert p.expansion == "rocchio"
        if self.support is None:
            return ExpandedQuery(original=query)
        return rocchio_expand(query, self.support, self.doc_vector,
                              max_passages=p.rocchio_passages, lam=p.lam)

    # --- query representations ----------------------------------------

    def _query_vector(self, query: HeadingQuery) -> SparseVector | DenseVector:
        method = self.params.method
        if method == "tfidf-cs":
            return tfidf_vector(self.ix, list(query.terms))
        if method == "glove-cs":
            assert self.embeddings is not None
            return text_vector(list(query.terms), self.embeddings, self.ix)
        assert method == "entity-cs"
        assert (self.embeddings is not None and self.linker is not None
                and self.entity_stats is not None)
        try:
            mentions = self.linker.link(query.raw_text)
        except LinkerError as exc:
            log.warning("linker failed on query %s: %s", query.query_id, exc)
            mentions = []
        return entity_vector(mentions, self.embeddings, self.entity_stats)

    def _feedback_vector(self, eq: ExpandedQuery) -> SparseVector | DenseVector | None:
        p = self.params
        if eq.expansion_vector is not None:
            return eq.expansion_vector
        if eq.added_terms:
            if p.method == "tfidf-cs":
                return term_feedback_vector(eq.added_terms, self.ix)
            if p.method == "glove-cs":
                assert self.embeddings is not None
                return term_feedback_dense(eq.added_terms, self.embeddings, self.ix)
        if eq.added_entities and p.method == "entity-cs":
            assert self.embeddings is not None and self.entity_stats is not None
            return entity_feedback_vector(eq.added_entities, self.embeddings,
                                          self.entity_stats)
        return None

    # --- scoring --------------------------------------------------------

    def rank(self, query: HeadingQuery, k: int | None = 100,
             candidates: Sequence[str] | None = None) -> Ranking:
        """Rank the candidate pool (or the whole collection) for a query.

        Full-collection mode pools every paragraph that shares a term
        with the query or its expansion; candidate mode scores exactly
        the ids given, unknown ids rejected.
        """
        eq = self.expand(query)
        if candidates is not None:
            for pid in candidates:
                self.ix.require(pid)
            pool: Sequence[str] | set[str] = list(candidates)
        else:
            pool = self._match_pool(eq)
        if self.params.method == "bm25":
            weights = mixed_term_weights(eq)
            bm = self.params.bm25_params()

            def score(pid: str) -> float:
                return sum(w * bm25_term_score(self.ix, t, pid, bm)
                           for t, w in weights.items())
        else:
            mixed = mix_vectors(self._query_vector(query),
                                self._feedback_vector(eq), eq.interpolation)

            def score(pid: str) -> float:
                return cosine(mixed, self.doc_vector(pid))

        scored = {pid: score(pid) for pid in pool}
        return rank_items(query.query_id, scored,
                          k if candidates is None else None)

    def _match_pool(self, eq: ExpandedQuery) -> set[str]:
        terms = list(eq.original.terms)
        if eq.interpolation < 1.0:
            terms.extend(eq.match_terms)
        if self.params.method == "bm25":
            terms = [t for t, w in mixed_term_weights(eq).items() if w > 0.0]
        return matching_paragraphs(self.ix, terms)
