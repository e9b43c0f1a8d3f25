"""Shared fixtures: tiny hand-built corpora and a plain token pipeline.

Most unit tests want scorer arithmetic isolated from stemming and
stopword removal, so they index with PLAIN_CFG (no stopwords, no
stemming). Anything exercising the real pipeline uses the defaults.
"""

import json
import math
import os
import signal
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from headingrank.corpus import Corpus, parse_corpus
from headingrank.index import (Index, SparseVector, bm25_idf, build_index,
                               matching_paragraphs, rank_items)
from headingrank.semvec import DenseVector, LinkerError
from headingrank.textproc import TokenPipelineConfig, heading_key

PLAIN_CFG = TokenPipelineConfig(stopwords=frozenset(), stem=False)


def corpus_from_pages(pages: list[dict]) -> Corpus:
    """Build a corpus through the real parser from page dicts."""
    return parse_corpus(json.dumps(p) for p in pages)


def page(page_id: str, title: str, sections: list[dict]) -> dict:
    return {"id": page_id, "title": title, "sections": sections}


def section(heading: str, paragraphs=None, children=None) -> dict:
    out: dict = {"heading": heading}
    if paragraphs:
        out["paragraphs"] = [
            {"id": pid, "text": text} if text is not None else pid
            for pid, text in paragraphs
        ]
    if children:
        out["children"] = children
    return out


def plain_index(paragraphs: dict[str, str]) -> Index:
    return build_index(paragraphs, PLAIN_CFG)


@pytest.fixture
def two_page_corpus() -> Corpus:
    """Two small pages sharing vocabulary; used across modules.

    Page A "Rivers" has a nested section; page B "Lakes" is flat.
    """
    return corpus_from_pages([
        page("a", "Rivers", [
            section("Flow", [("p1", "water flows downhill fast"),
                             ("p2", "the river flow rate varies")]),
            section("Delta", [("p3", "sediment settles in the delta")],
                    children=[section("Birds", [("p4", "herons hunt in the delta marsh")])]),
        ]),
        page("b", "Lakes", [
            section("Depth", [("p5", "lake depth varies with season")]),
            section("Flow", [("p6", "lakes drain through outlet rivers")]),
        ]),
    ])


# --entity-stats contents with no valid idf or no integer count, each with
# the message's start; the file's line numbers count its blank lines
BAD_ENTITY_STATS = [
    ("Ndocs\t0\nE1\t0\n", "line 1: Ndocs must be >= 1, got 0"),
    ("\nNdocs\t-2\n", "line 2: Ndocs must be >= 1, got -2"),
    ("Ndocs\t4\nE1\t4\n\nE2\t5\n", "line 4: link doc freq 5 of 'E2'"),
    ("Ndocs\t4\nE1\t-1\n", "line 2: link doc freq -1 of 'E1'"),
    ("Ndocs\t4\nE1\tx\n", "line 2: link doc freq of 'E1' must be an integer, got 'x'"),
    ("Ndocs\tfive\nE1\t1\n", "line 1: Ndocs must be an integer, got 'five'"),
]


# --- reference scoring: one (query, paragraph) pair at a time --------------
# The library computes per-query and per-vector invariants once (idf,
# length norms, smoothing mass, vector norms). These references recompute
# every one of them for every pair, in the same operand order, so tests
# can require bitwise equality.

def ref_bm25_term_score(ix, term, pid, params):
    tf = ix.doc_tf[pid].get(term, 0)
    if tf == 0:
        return 0.0
    length_norm = 1.0 - params.b + params.b * ix.doc_lengths[pid] / ix.avg_doc_len
    return bm25_idf(ix, term) * tf * (params.k1 + 1.0) / (tf + params.k1 * length_norm)


def ref_lm_dirichlet_score(ix, q, pid, mu):
    doc = ix.doc_tf[pid]
    doc_len = ix.doc_lengths[pid]
    score = 0.0
    for t in q:
        cf = ix.collection_tf.get(t, 0)
        if cf == 0:
            continue
        score += math.log(
            (doc.get(t, 0) + mu * cf / ix.collection_len) / (doc_len + mu))
    return score


def ref_feedback_docs(ix, terms, fb_docs, mu):
    pool = matching_paragraphs(ix, terms)
    if not pool:
        return []
    scored = {pid: ref_lm_dirichlet_score(ix, terms, pid, mu) for pid in pool}
    return list(rank_items("", scored, k=fb_docs).items)


def ref_dense_dot(xs, ys):
    """Σ x·y added left to right from 0.0: sum() compensates from Python
    3.12, and a BLAS dot picks its order per CPU kernel."""
    total = 0.0
    for x, y in zip(xs.tolist(), ys.tolist()):
        total += x * y
    return total


def ref_norm(v):
    """A vector's norm computed afresh, never read from the vector."""
    if isinstance(v, SparseVector):
        total = 0.0  # left to right: sum() compensates from Python 3.12
        for w in v.entries.values():
            total += w * w
        return math.sqrt(total)
    return math.sqrt(ref_dense_dot(v.values, v.values))


def ref_cosine(a, b):
    na, nb = ref_norm(a), ref_norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    if isinstance(a, SparseVector):
        return a.dot(b) / (na * nb)
    return ref_dense_dot(a.values, b.values) / (na * nb)


def ref_normalized(v):
    n = ref_norm(v)
    if n == 0.0:
        return None
    if isinstance(v, SparseVector):
        return SparseVector(entries={t: w / n for t, w in v.entries.items()})
    return DenseVector(values=v.values / n)


# --- the vector and relevance-model paths, one branch per space --------------
# mix_vectors, _mean_vector, rm1_terms and rm1_entities as they were written
# before the sparse and dense vectors shared one interface, with every float
# sum added left to right. Tests require the library to match them bit for bit.

def ref_mix_vectors(original, feedback, lam):
    u_orig = ref_normalized(original)
    u_fb = ref_normalized(feedback) if feedback is not None else None
    if lam >= 1.0 or u_fb is None:
        return original if u_orig is None else u_orig
    if lam <= 0.0 or u_orig is None:
        return u_fb
    if isinstance(u_orig, SparseVector):
        entries = {t: lam * w for t, w in u_orig.entries.items()}
        for t, w in u_fb.entries.items():
            entries[t] = entries.get(t, 0.0) + (1.0 - lam) * w
        return SparseVector(entries=entries)
    return DenseVector(values=lam * u_orig.values + (1.0 - lam) * u_fb.values)


def ref_mean_vector(vectors):
    n = len(vectors)
    if isinstance(vectors[0], SparseVector):
        acc: dict = {}
        for v in vectors:
            for t, w in v.entries.items():
                acc[t] = acc.get(t, 0.0) + w
        return SparseVector(entries={t: w / n for t, w in acc.items()})
    total = np.zeros_like(vectors[0].values)
    for v in vectors:
        total = total + v.values
    return DenseVector(values=total / n)


def _ref_relevance_model(feedback, weights_of, keep):
    peak = max(s for _, s in feedback)
    exps = [(pid, math.exp(s - peak)) for pid, s in feedback]
    total = 0.0
    for _, e in exps:
        total += e
    posterior = {pid: e / total for pid, e in exps}
    weights: dict = {}
    for pid, _ in feedback:
        for key, freq in weights_of(pid):
            weights[key] = weights.get(key, 0.0) + freq * posterior[pid]
    top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:keep]
    total = 0.0
    for _, w in top:
        total += w
    return [(key, w / total) for key, w in top]


def ref_rm1_terms(ix, query, fb_docs, fb_terms, mu):
    """(term, weight) pairs; a tokenless feedback paragraph gives nothing."""
    feedback = ref_feedback_docs(ix, query.terms, fb_docs, mu)
    if not feedback:
        return []

    def weights_of(pid):
        length = ix.doc_lengths[pid]
        if length == 0:
            return []
        return [(t, tf / length) for t, tf in ix.doc_tf[pid].items()
                if t not in query.terms]
    return _ref_relevance_model(feedback, weights_of, fb_terms)


def ref_rm1_entities(ix, texts, query, linker, fb_docs, fb_entities, mu):
    """(entity, weight) pairs; a paragraph the linker fails on gives nothing."""
    feedback = ref_feedback_docs(ix, query.terms, fb_docs, mu)
    if not feedback:
        return []

    def weights_of(pid):
        try:
            return [(m.entity_id, m.count) for m in linker.link(texts[pid])]
        except LinkerError:
            return []
    return _ref_relevance_model(feedback, weights_of, fb_entities)


# --- tf-idf vectors and relevance-model feedback vectors, one routine each ----
# tfidf_vector and the per-kind feedback vectors as they were written before
# the feedback travelled as one field of weighted keys and tf-idf vectors and
# feedback vectors shared one idf sum. Tests require the library to match
# them bit for bit.

def _ref_idf(doc_freq, n_docs, key):
    df = doc_freq.get(key, 0)
    return 0.0 if df == 0 else math.log(n_docs / df)


def ref_tfidf_vector(ix, bag):
    entries = {}
    for t, tf in Counter(bag).items():
        idf = _ref_idf(ix.doc_freq, ix.n_docs, t)
        if idf == 0.0:
            continue
        entries[t] = (1.0 + math.log(tf)) * idf
    norm = ref_norm(SparseVector(entries))
    if norm > 0.0:
        entries = {t: w / norm for t, w in entries.items()}
    return SparseVector(entries)


def ref_term_feedback_vector(pairs, ix):
    """tf-idf space: weight * idf per term axis, repeated terms added up."""
    entries = {}
    for term, weight in pairs:
        idf = _ref_idf(ix.doc_freq, ix.n_docs, term)
        if idf == 0.0:
            continue
        entries[term] = entries.get(term, 0.0) + weight * idf
    return SparseVector(entries)


def ref_dense_feedback_vector(pairs, store, doc_freq, n_docs):
    """Word or entity space: Σ weight * idf * vector(key), undivided."""
    acc = np.zeros(store.dim, dtype=np.float64)
    for key, weight in pairs:
        vec = store.get(key)
        if vec is None:
            continue
        idf = _ref_idf(doc_freq, n_docs, key)
        if idf != 0.0:
            acc += weight * idf * vec
    return DenseVector(acc)


# --- word and entity vectors, the Rocchio centroid and the match pool ----------
# text_vector, entity_vector, rocchio_expand's centroid and MethodEngine's
# full-collection pool, written out from their formulas rather than through
# the library's shared idf sum, vector interface or postings. Tests require
# the engine to match them bit for bit.

def ref_text_vector(bag, store, ix):
    """Σ tf * (1 + ln tf) * idf * vector(t) over the covered occurrences,
    divided by their count; a token without a vector is not covered."""
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for t, tf in Counter(bag).items():
        vec = store.get(t)
        if vec is None:
            continue
        covered += tf
        idf = _ref_idf(ix.doc_freq, ix.n_docs, t)
        if idf != 0.0:
            acc += tf * (1.0 + math.log(tf)) * idf * vec
    return DenseVector(acc / covered if covered else acc)


def ref_link(linker, text):
    """The linker's mentions, or none where it fails on the text."""
    try:
        return linker.link(text)
    except LinkerError:
        return []


def ref_entity_vector(mentions, store, stats):
    """Σ (1 + ln count) * link idf * vector(e) over the distinct entities
    with a vector, divided by their number."""
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for m in mentions:
        vec = store.get(m.entity_id)
        if vec is None:
            continue
        covered += 1
        idf = _ref_idf(stats.link_doc_freq, stats.n_docs, m.entity_id)
        if idf != 0.0:
            acc += (1.0 + math.log(m.count)) * idf * vec
    return DenseVector(acc / covered if covered else acc)


def ref_rocchio_centroid(query, support, doc_vector, max_passages):
    """Mean unit vector of the first max_passages same-heading passages,
    ascending, from pages outside the query's page and, when the index
    keeps folds, outside its page's fold; None without a usable one."""
    folds = support.folds

    def held_out(page_id):
        return page_id == query.page_id or (
            folds is not None and folds.mapping[page_id] == folds.mapping[query.page_id])

    pairs = [p for p in support.entries.get(heading_key(query.heading), ())
             if not held_out(p[0])][:max_passages]
    units = [u for u in (ref_normalized(doc_vector(pid)) for _, pid in pairs)
             if u is not None]
    return ref_mean_vector(units) if units else None


def ref_match_pool(ix, terms):
    """Every paragraph whose text holds at least one of the terms."""
    wanted = set(terms)
    return {pid for pid, tf in ix.doc_tf.items() if not wanted.isdisjoint(tf)}


# --- fold worker processes ------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="folds train in forked worker processes only on Linux")

_TEST_PID = os.getpid()


def exit_in_worker(*args):
    """Stand-in for ltr._train_fold: the worker process running it dies."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("the fold task ran in the test process")
    os._exit(3)


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError inside the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
