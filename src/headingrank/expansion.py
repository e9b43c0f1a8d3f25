"""Query expansion: relevance-model terms, entity feedback, and
heading-support (Rocchio-style) pseudo-relevance vectors.

All three flavors produce an ExpandedQuery that carries the original
query untouched plus whatever the expander added; downstream scorers
interpolate the two sides with a single lambda, so lambda=1 always
reproduces the unexpanded ranking.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, FoldAssignment, HeadingQuery, iter_sections
from .index import (Index, SparseVector, lm_dirichlet_scores, matching_paragraphs,
                    rank_items, tfidf_idf)
from .semvec import (DenseVector, EmbeddingStore, EntityLinker, EntityStats,
                     LinkerError, entity_vector, normalized)
from .textproc import heading_key

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WeightedTerm:
    term: str
    weight: float


@dataclass(frozen=True)
class WeightedEntity:
    entity_id: str
    weight: float


@dataclass(frozen=True)
class HeadingSupportIndex:
    """heading key -> supporting (pageId, paragraphId) pairs, ascending.

    Built from the training folds only; held_out records which fold was
    excluded (-1 when nothing was).
    """
    entries: dict[str, tuple[tuple[str, str], ...]]
    held_out: int = -1

    def support_for(self, heading: str) -> tuple[tuple[str, str], ...]:
        return self.entries.get(heading_key(heading), ())


@dataclass(frozen=True)
class ExpandedQuery:
    original: HeadingQuery
    added_terms: tuple[WeightedTerm, ...] = ()
    added_entities: tuple[WeightedEntity, ...] = ()
    interpolation: float = 1.0  # weight on the original query side
    # Pre-built feedback vector in the active scoring space (set by the
    # Rocchio expander, where the feedback evidence is whole passages
    # rather than weighted terms).
    expansion_vector: SparseVector | DenseVector | None = None
    # Extra terms that should widen the candidate pool in full-corpus
    # retrieval (the expansion itself may live in a non-lexical space).
    match_terms: tuple[str, ...] = ()

    @property
    def is_expanded(self) -> bool:
        return bool(self.added_terms or self.added_entities
                    or self.expansion_vector is not None)


def _feedback_docs(ix: Index, terms: Sequence[str], fb_docs: int,
                   mu: float) -> list[tuple[str, float]]:
    """Top fb_docs paragraphs by query-likelihood, with their log scores."""
    pool = matching_paragraphs(ix, terms)
    if not pool:
        return []
    scored = lm_dirichlet_scores(ix, terms, pool, mu=mu)
    return list(rank_items("", scored, k=fb_docs).items)


def _doc_posteriors(scored: Sequence[tuple[str, float]]) -> dict[str, float]:
    """Softmax the feedback documents' log-likelihoods into P(q|d)."""
    peak = max(s for _, s in scored)
    exps = [(pid, math.exp(s - peak)) for pid, s in scored]
    total = sum(e for _, e in exps)
    return {pid: e / total for pid, e in exps}


def rm1_terms(ix: Index, query: HeadingQuery, fb_docs: int = 10,
              fb_terms: int = 10, mu: float = 1500.0) -> list[WeightedTerm]:
    """Relevance-model term distribution from pseudo-relevant paragraphs.

    weight(t) = sum over feedback docs of P(t|d) * P(q|d), original
    query terms excluded, truncated to the fb_terms heaviest and
    renormalized to sum 1. Ties break on the term string. Queries that
    match nothing expand to nothing.
    """
    if fb_docs < 1 or fb_terms < 1:
        raise ValueError("fb_docs and fb_terms must be >= 1")
    feedback = _feedback_docs(ix, query.terms, fb_docs, mu)
    if not feedback:
        return []
    posterior = _doc_posteriors(feedback)
    skip = set(query.terms)
    weights: dict[str, float] = {}
    for pid, _ in feedback:
        length = ix.doc_lengths[pid]
        if length == 0:
            continue
        p_q = posterior[pid]
        for term, tf in ix.doc_tf[pid].items():
            if term in skip:
                continue
            weights[term] = weights.get(term, 0.0) + (tf / length) * p_q
    if not weights:
        return []
    top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:fb_terms]
    total = sum(w for _, w in top)
    return [WeightedTerm(t, w / total) for t, w in top]


def expand_rm3(query: HeadingQuery, terms: Sequence[WeightedTerm],
               lam: float = 0.5) -> ExpandedQuery:
    """Interpolate the original query with relevance-model terms.

    No feedback terms at all leaves the query unchanged (rather than
    diluting it against an empty distribution).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    if not terms:
        return ExpandedQuery(original=query)
    return ExpandedQuery(
        original=query,
        added_terms=tuple(terms),
        interpolation=lam,
        match_terms=tuple(t.term for t in terms),
    )


def rm1_entities(ix: Index, texts: Mapping[str, str], query: HeadingQuery,
                 linker: EntityLinker, fb_docs: int = 10, fb_entities: int = 10,
                 mu: float = 1500.0) -> list[WeightedEntity]:
    """Entity analogue of the relevance model.

    weight(e) is proportional to sum over feedback docs of
    freq(e in d) * P(q|d), normalized to sum 1. A linker failure on one
    paragraph drops that paragraph's evidence and is logged, not fatal.
    """
    if fb_docs < 1 or fb_entities < 1:
        raise ValueError("fb_docs and fb_entities must be >= 1")
    feedback = _feedback_docs(ix, query.terms, fb_docs, mu)
    if not feedback:
        return []
    posterior = _doc_posteriors(feedback)
    weights: dict[str, float] = {}
    for pid, _ in feedback:
        try:
            mentions = linker.link(texts[pid])
        except LinkerError as exc:
            log.warning("linker failed on paragraph %s: %s", pid, exc)
            continue
        p_q = posterior[pid]
        for m in mentions:
            weights[m.entity_id] = weights.get(m.entity_id, 0.0) + m.count * p_q
    if not weights:
        return []
    top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:fb_entities]
    total = sum(w for _, w in top)
    return [WeightedEntity(e, w / total) for e, w in top]


def expand_entities(query: HeadingQuery, entities: Sequence[WeightedEntity],
                    lam: float = 0.5) -> ExpandedQuery:
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    if not entities:
        return ExpandedQuery(original=query)
    return ExpandedQuery(
        original=query,
        added_entities=tuple(entities),
        interpolation=lam,
    )


def build_heading_support(corpus: Corpus, folds: FoldAssignment | None = None,
                          held_out: int = -1) -> HeadingSupportIndex:
    """Map each normalized heading to the paragraphs filed under it.

    Only pages outside the held-out fold contribute, so a query from
    that fold never sees its own page's paragraphs as support. Headings
    that normalize to nothing are dropped.
    """
    if folds is None and held_out >= 0:
        raise ValueError("held_out requires a fold assignment")
    entries: dict[str, list[tuple[str, str]]] = {}
    for page in corpus.pages:
        if folds is not None and folds.fold_of(page.id) == held_out:
            continue
        for section in iter_sections(page):
            key = heading_key(section.heading)
            if not key:
                continue
            entries.setdefault(key, []).extend(
                (page.id, pid) for pid in section.paragraphs)
    return HeadingSupportIndex(
        entries={k: tuple(sorted(v)) for k, v in entries.items()},
        held_out=held_out,
    )


def rocchio_expand(query: HeadingQuery, support: HeadingSupportIndex,
                   vectorizer: Callable[[str], SparseVector | DenseVector],
                   max_passages: int = 5, lam: float = 0.5) -> ExpandedQuery:
    """Expand with the centroid of same-heading passages from other pages.

    Takes up to max_passages supporting paragraphs in ascending
    (pageId, paragraphId) order, skipping the query's own page as a
    final guard on top of fold-based exclusion. The expansion vector is
    the unweighted mean of the unit-normalized passage vectors in the
    active scoring space. No usable support leaves the query unchanged.
    """
    if max_passages < 1:
        raise ValueError("max_passages must be >= 1")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    pairs = [p for p in support.support_for(query.heading)
             if p[0] != query.page_id][:max_passages]
    if not pairs:
        return ExpandedQuery(original=query)
    units: list[SparseVector | DenseVector] = []
    for _, pid in pairs:
        unit = normalized(vectorizer(pid))
        if unit is not None:
            units.append(unit)
    if not units:
        return ExpandedQuery(original=query)
    centroid = _mean_vector(units)
    match_terms: tuple[str, ...] = ()
    if isinstance(centroid, SparseVector):
        match_terms = tuple(sorted(centroid.entries))
    return ExpandedQuery(
        original=query,
        interpolation=lam,
        expansion_vector=centroid,
        match_terms=match_terms,
    )


def _mean_vector(vectors: Sequence[SparseVector | DenseVector]):
    n = len(vectors)
    first = vectors[0]
    if isinstance(first, SparseVector):
        acc: dict[str, float] = {}
        for v in vectors:
            assert isinstance(v, SparseVector)
            for t, w in v.entries.items():
                acc[t] = acc.get(t, 0.0) + w
        return SparseVector(entries={t: w / n for t, w in acc.items()})
    total = np.zeros_like(first.values)
    for v in vectors:
        assert isinstance(v, DenseVector)
        total = total + v.values
    return DenseVector(values=total / n, empty=False)


def term_feedback_vector(terms: Sequence[WeightedTerm], ix: Index) -> SparseVector:
    """Feedback terms as a sparse vector: weight(t) * idf(t) per axis.

    Terms the index has never seen carry no axis (idf undefined).
    """
    entries: dict[str, float] = {}
    for wt in terms:
        idf = tfidf_idf(ix.doc_freq, ix.n_docs, wt.term)
        if idf == 0.0:
            continue
        entries[wt.term] = entries.get(wt.term, 0.0) + wt.weight * idf
    return SparseVector(entries=entries)


def term_feedback_dense(terms: Sequence[WeightedTerm], store: EmbeddingStore,
                        ix: Index) -> DenseVector:
    """Feedback terms mapped into the word-embedding space."""
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = False
    for wt in terms:
        vec = store.get(wt.term)
        if vec is None:
            continue
        idf = tfidf_idf(ix.doc_freq, ix.n_docs, wt.term)
        if idf == 0.0:
            continue
        acc += wt.weight * idf * vec
        covered = True
    return DenseVector(values=acc, empty=not covered)


def entity_feedback_vector(entities: Sequence[WeightedEntity],
                           store: EmbeddingStore,
                           stats: EntityStats) -> DenseVector:
    """Feedback entities mapped into the entity-embedding space."""
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = False
    for we in entities:
        vec = store.get(we.entity_id)
        if vec is None:
            continue
        idf = tfidf_idf(stats.link_doc_freq, stats.n_docs, we.entity_id)
        if idf == 0.0:
            continue
        acc += we.weight * idf * vec
        covered = True
    return DenseVector(values=acc, empty=not covered)


def mix_vectors(original: SparseVector | DenseVector,
                feedback: SparseVector | DenseVector | None,
                lam: float) -> SparseVector | DenseVector:
    """lam * unit(original) + (1 - lam) * unit(feedback).

    Either side being zero (or lam at an extreme) degrades gracefully
    to the other side alone; cosine scoring is scale-free, so the mix
    is not renormalized.
    """
    u_orig = normalized(original)
    u_fb = normalized(feedback) if feedback is not None else None
    if lam >= 1.0 or u_fb is None:
        return original if u_orig is None else u_orig
    if lam <= 0.0 or u_orig is None:
        return u_fb
    if isinstance(u_orig, SparseVector) and isinstance(u_fb, SparseVector):
        entries = {t: lam * w for t, w in u_orig.entries.items()}
        for t, w in u_fb.entries.items():
            entries[t] = entries.get(t, 0.0) + (1.0 - lam) * w
        return SparseVector(entries=entries)
    if isinstance(u_orig, DenseVector) and isinstance(u_fb, DenseVector):
        return DenseVector(values=lam * u_orig.values + (1.0 - lam) * u_fb.values,
                           empty=False)
    raise ValueError("cannot mix sparse and dense vectors")


def mixed_term_weights(eq: ExpandedQuery) -> dict[str, float]:
    """Per-term multipliers for weighted lexical scoring.

    The original side spreads lam uniformly over the query's term
    occurrences; the feedback side contributes (1 - lam) times each
    relevance-model weight. With lam = 1 every multiplier is 1/|q|, a
    constant positive scaling, so the induced ranking is exactly the
    unexpanded one.
    """
    lam = eq.interpolation
    terms = eq.original.terms
    weights: dict[str, float] = {}
    if lam > 0.0 and terms:
        per_occurrence = lam / len(terms)
        for t in terms:
            weights[t] = weights.get(t, 0.0) + per_occurrence
    if lam < 1.0:
        for wt in eq.added_terms:
            weights[wt.term] = weights.get(wt.term, 0.0) + (1.0 - lam) * wt.weight
    return weights
