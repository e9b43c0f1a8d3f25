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
from contextlib import contextmanager

import numpy as np
import pytest

from headingrank.corpus import Corpus, parse_corpus
from headingrank.index import (Index, SparseVector, bm25_idf, build_index,
                               matching_paragraphs, rank_items)
from headingrank.semvec import DenseVector
from headingrank.textproc import TokenPipelineConfig

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


def ref_norm(v):
    """A vector's norm computed afresh, never read from the vector."""
    if isinstance(v, SparseVector):
        return math.sqrt(sum(w * w for w in v.entries.values()))
    return float(np.linalg.norm(v.values))


def ref_cosine(a, b):
    na, nb = ref_norm(a), ref_norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    if isinstance(a, SparseVector):
        return a.dot(b) / (na * nb)
    return float(np.dot(a.values, b.values)) / (na * nb)


def ref_normalized(v):
    n = ref_norm(v)
    if isinstance(v, SparseVector):
        if n == 0.0:
            return None
        return SparseVector(entries={t: w / n for t, w in v.entries.items()})
    if v.empty or n == 0.0:
        return None
    return DenseVector(values=v.values / n, empty=False)


# --- fold worker processes ------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux") or sys.version_info < (3, 11),
    reason="folds train in forked worker processes only on Linux, Python 3.11+")

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
