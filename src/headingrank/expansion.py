"""Query expansion: relevance-model terms, entity feedback, and
heading-support (Rocchio-style) pseudo-relevance vectors.

Every flavor produces an ExpandedQuery that carries the original query
untouched plus what the expander added; downstream scorers interpolate
the two sides with a single lambda, so lambda=1 always reproduces the
unexpanded ranking.

rm1_terms and rm1_entities are one relevance model over two kinds of
feedback evidence, and both hand back weighted keys: (term, weight) or
(entity, weight) pairs. An ExpandedQuery carries either kind in one
feedback field, which the scorer sums into its own space with one idf
sum (index.sparse_sum or semvec.embedding_sum); Rocchio instead
carries a finished centroid. Mixing and Rocchio centroids use the
vector interface that the sparse and dense vectors share, so they run
one path in every space.

rocchio_expand holds out the query's own page and, when the support
index keeps a fold assignment, every page of the query's fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Corpus, FoldAssignment, HeadingQuery, iter_sections
from .index import (Index, SparseVector, lm_dirichlet_scores, matching_paragraphs,
                    rank_items)
from .semvec import EntityLinker, Vector, link_or_warn, normalized
from .textproc import heading_key
from .utils import ordered_sum


class WeightedTerm(NamedTuple):
    term: str
    weight: float


class WeightedEntity(NamedTuple):
    entity_id: str
    weight: float


@dataclass(frozen=True)
class HeadingSupportIndex:
    """heading key -> supporting (pageId, paragraphId) pairs, ascending,
    and the fold assignment that rocchio_expand holds a query's fold out
    by (None: only the query's own page is held out).
    """
    entries: dict[str, tuple[tuple[str, str], ...]]
    folds: FoldAssignment | None = None

    def support_for(self, heading: str) -> tuple[tuple[str, str], ...]:
        return self.entries.get(heading_key(heading), ())


@dataclass(frozen=True)
class ExpandedQuery:
    original: HeadingQuery
    # Relevance-model feedback as (term or entity, weight) pairs.
    feedback: tuple[tuple[str, float], ...] = ()
    interpolation: float = 1.0  # weight on the original query side
    # Pre-built feedback vector in the active scoring space (set by the
    # Rocchio expander, where the feedback evidence is whole passages
    # rather than weighted terms).
    expansion_vector: Vector | None = None
    # Extra terms that should widen the candidate pool in full-corpus
    # retrieval (the expansion itself may live in a non-lexical space).
    match_terms: tuple[str, ...] = ()

    @property
    def is_expanded(self) -> bool:
        return bool(self.feedback or self.expansion_vector is not None)


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
    total = ordered_sum(e for _, e in exps)
    return {pid: e / total for pid, e in exps}


def _relevance_model(ix: Index, query: HeadingQuery, fb_docs: int, keep: int,
                     mu: float, evidence: Callable[[str], Iterable[tuple[str, float]]]
                     ) -> list[tuple[str, float]]:
    """The keep heaviest keys by Σ over feedback docs d of freq(k, d) * P(q|d),
    renormalized to sum 1, ties by key; evidence(d) yields d's (key, freq)."""
    feedback = _feedback_docs(ix, query.terms, fb_docs, mu)
    if not feedback:
        return []
    posterior = _doc_posteriors(feedback)
    weights: dict[str, float] = {}
    for pid, _ in feedback:
        p_q = posterior[pid]
        for key, freq in evidence(pid):
            weights[key] = weights.get(key, 0.0) + freq * p_q
    top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:keep]
    total = ordered_sum(w for _, w in top)
    return [(key, w / total) for key, w in top]


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
    skip = set(query.terms)

    def evidence(pid: str) -> Iterable[tuple[str, float]]:
        length = ix.doc_lengths[pid]
        return ((t, tf / length) for t, tf in ix.doc_tf[pid].items() if t not in skip)

    return [WeightedTerm(t, w) for t, w in
            _relevance_model(ix, query, fb_docs, fb_terms, mu, evidence)]


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

    def evidence(pid: str) -> Iterable[tuple[str, float]]:
        return ((m.entity_id, m.count)
                for m in link_or_warn(linker, texts[pid], "paragraph", pid))

    return [WeightedEntity(e, w) for e, w in
            _relevance_model(ix, query, fb_docs, fb_entities, mu, evidence)]


def build_heading_support(corpus: Corpus, folds: FoldAssignment | None = None,
                          held_out: int = -1) -> HeadingSupportIndex:
    """Map each normalized heading to the paragraphs filed under it.

    Pages in fold held_out are left out. The index keeps folds, so that
    rocchio_expand holds each query's fold out of one index built without
    held_out. Headings that normalize to nothing are dropped.
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
        folds=folds,
    )


def rocchio_expand(query: HeadingQuery, support: HeadingSupportIndex,
                   vectorizer: Callable[[str], Vector],
                   max_passages: int = 5, lam: float = 0.5) -> ExpandedQuery:
    """Expand with the centroid of same-heading passages from other pages.

    Takes the first max_passages supporting (pageId, paragraphId) pairs,
    ascending, from pages outside the query's page and, when the index
    keeps folds, outside its page's fold. The expansion vector is the
    unweighted mean of the unit-normalized passage vectors in the active
    scoring space; no usable support leaves the query unchanged.
    """
    if max_passages < 1:
        raise ValueError("max_passages must be >= 1")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    # without folds, each page is a fold of its own
    fold_of = support.folds.fold_of if support.folds is not None else lambda p: p
    held_out = fold_of(query.page_id)
    pairs = list(islice((p for p in support.support_for(query.heading)
                         if fold_of(p[0]) != held_out), max_passages))
    if not pairs:
        return ExpandedQuery(original=query)
    units: list[Vector] = []
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


def _mean_vector(vectors: Sequence[Vector]) -> Vector:
    total = vectors[0].zero()
    for v in vectors:
        total = total.plus(v)
    return total.divided(len(vectors))


def mix_vectors(original: Vector, feedback: Vector | None, lam: float) -> Vector:
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
    return u_orig.scaled(lam).plus(u_fb.scaled(1.0 - lam))


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
        for term, weight in eq.feedback:
            weights[term] = weights.get(term, 0.0) + (1.0 - lam) * weight
    return weights
