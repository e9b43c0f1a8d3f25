"""Relevance-model and Rocchio expansion plus query/feedback mixing."""

import logging
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from headingrank.corpus import HeadingQuery, all_queries, assign_folds
from headingrank.expansion import (
    ExpandedQuery,
    HeadingSupportIndex,
    WeightedEntity,
    WeightedTerm,
    _feedback_docs,
    _mean_vector,
    build_heading_support,
    mix_vectors,
    mixed_term_weights,
    rm1_entities,
    rm1_terms,
    rocchio_expand,
)
from headingrank.index import (SparseVector, bm25_score, rank_items, sparse_sum,
                               tfidf_vector)
from headingrank.methods import MethodEngine, MethodParams
from headingrank.semvec import (
    DenseVector,
    EntityStats,
    GazetteerLinker,
    LinkerError,
    build_entity_stats,
    cosine,
    embedding_sum,
    load_embeddings,
    normalized,
)
from headingrank.textproc import heading_key

from conftest import (PLAIN_CFG, corpus_from_pages, page, plain_index,
                      ref_dense_feedback_vector,
                      ref_feedback_docs, ref_mean_vector, ref_mix_vectors,
                      ref_rm1_entities, ref_rm1_terms, ref_term_feedback_vector,
                      ref_tfidf_vector, section)


def hq(terms, page_id="pg", heading="H", qid="pg/H"):
    return HeadingQuery(query_id=qid, raw_text=" ".join(terms),
                        terms=tuple(terms), page_id=page_id,
                        heading=heading, path=())


# --- RM1 term extraction --------------------------------------------------

def test_rm1_single_doc_arithmetic():
    # One feedback doc "q x x y": within-doc term probabilities are
    # x 2/4 and y 1/4 once the original query term is excluded, so the
    # renormalized relevance model is x 2/3, y 1/3.
    ix = plain_index({"d1": "q x x y"})
    terms = rm1_terms(ix, hq(["q"]), fb_docs=1, fb_terms=10)
    assert [t.term for t in terms] == ["x", "y"]
    assert terms[0].weight == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert terms[1].weight == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rm1_two_doc_posterior_oracle():
    # Literal-formula oracle for the two-document case, kept numeric on
    # purpose: d1 = "q x x y", d2 = "q q y z z", query "q", mu = 7.
    ix = plain_index({"d1": "q x x y", "d2": "q q y z z"})
    got = {t.term: t.weight for t in rm1_terms(ix, hq(["q"]), fb_docs=2,
                                               fb_terms=10, mu=7.0)}
    # Dirichlet log scores: collection has q 3 times in 9 tokens.
    s1 = math.log((1 + 7 * 3 / 9) / (4 + 7))
    s2 = math.log((2 + 7 * 3 / 9) / (5 + 7))
    p1 = math.exp(s1) / (math.exp(s1) + math.exp(s2))
    p2 = 1.0 - p1
    raw = {
        "x": (2 / 4) * p1,
        "y": (1 / 4) * p1 + (1 / 5) * p2,
        "z": (2 / 5) * p2,
    }
    total = sum(raw.values())
    for term, weight in raw.items():
        assert got[term] == pytest.approx(weight / total, abs=1e-12)


def test_rm1_truncates_and_renormalizes():
    ix = plain_index({"d1": "q x x x y y z"})
    terms = rm1_terms(ix, hq(["q"]), fb_docs=1, fb_terms=2)
    assert [t.term for t in terms] == ["x", "y"]
    assert sum(t.weight for t in terms) == pytest.approx(1.0, abs=1e-9)
    assert terms[0].weight == pytest.approx(3.0 / 5.0, abs=1e-12)


def test_rm1_no_match_is_empty():
    ix = plain_index({"d1": "a b"})
    assert rm1_terms(ix, hq(["zz"])) == []


def test_rm1_excludes_all_query_terms():
    ix = plain_index({"d1": "q r q r"})
    assert rm1_terms(ix, hq(["q", "r"]), fb_docs=1) == []


def test_feedback_docs_match_per_pair_reference():
    # the pool-level LM scorer must pick and score the same feedback docs
    # as scoring every paragraph with its own smoothing arithmetic
    rng = random.Random(99)
    words = [f"w{i}" for i in range(10)]
    for _ in range(60):
        texts = {f"p{i:03d}": " ".join(rng.choices(words, k=rng.randint(0, 10)))
                 for i in range(rng.randint(1, 30))}
        ix = plain_index(texts)
        for _ in range(4):
            terms = tuple(rng.choices(words + ["zz"], k=rng.randint(1, 4)))
            fb_docs = rng.randint(1, 8)
            mu = rng.choice([0.5, 10.0, 1500.0, rng.uniform(1.0, 3000.0)])
            assert _feedback_docs(ix, terms, fb_docs, mu) == \
                ref_feedback_docs(ix, terms, fb_docs, mu)


def test_rm1_validates_budgets():
    ix = plain_index({"d1": "a"})
    with pytest.raises(ValueError):
        rm1_terms(ix, hq(["a"]), fb_docs=0)
    with pytest.raises(ValueError):
        rm1_terms(ix, hq(["a"]), fb_terms=0)


@settings(max_examples=25)
@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                min_size=1, max_size=3),
       st.integers(1, 4), st.integers(1, 5))
def test_rm1_weight_properties(query_terms, fb_docs, fb_terms):
    ix = plain_index({
        "d1": "a b b c", "d2": "b c c d", "d3": "c d d e",
        "d4": "d e e f", "d5": "e f f a",
    })
    terms = rm1_terms(ix, hq(query_terms), fb_docs=fb_docs, fb_terms=fb_terms)
    assert len(terms) <= fb_terms
    assert not {t.term for t in terms} & set(query_terms)
    if terms:
        assert sum(t.weight for t in terms) == pytest.approx(1.0, abs=1e-9)
        weights = [t.weight for t in terms]
        assert all(w > 0 for w in weights)
        assert weights == sorted(weights, reverse=True)


# --- RM3 interpolation ----------------------------------------------------

def rm1_engine(texts, **overrides):
    return MethodEngine(plain_index(texts), texts,
                        MethodParams(method="bm25", expansion="rm1", **overrides))


def test_rm1_expand_fields():
    eq = rm1_engine({"d1": "a x"}, lam=0.3).expand(hq(["a"]))
    assert eq.is_expanded
    assert eq.feedback == (("x", 1.0),)
    assert eq.interpolation == 0.3
    assert eq.match_terms == ("x",)
    assert eq.expansion_vector is None


def test_rm1_expand_feedback_is_the_relevance_model():
    texts = {"d1": "q x x y", "d2": "q q y z z"}
    eq = rm1_engine(texts, mu=7.0, fb_docs=2).expand(hq(["q"]))
    assert eq.feedback == tuple(rm1_terms(plain_index(texts), hq(["q"]),
                                          fb_docs=2, mu=7.0))
    assert eq.match_terms == tuple(t for t, _ in eq.feedback)


def test_rm1_expand_empty_feedback_unchanged():
    eq = rm1_engine({"d1": "a x"}, lam=0.3).expand(hq(["zz"]))
    assert not eq.is_expanded
    assert eq.feedback == ()
    assert eq.interpolation == 1.0
    assert eq.match_terms == ()


def test_expansion_validates_lambda():
    with pytest.raises(ValueError, match="lambda"):
        MethodParams(method="bm25", expansion="rm1", lam=1.5)
    with pytest.raises(ValueError, match="lambda"):
        MethodParams(method="entity-cs", expansion="ent-rm1", lam=-0.1)


def test_mixed_term_weights_formula():
    eq = ExpandedQuery(original=hq(["a", "b", "a"]),
                       feedback=(("c", 0.75), ("a", 0.25)),
                       interpolation=0.5)
    w = mixed_term_weights(eq)
    assert w["b"] == pytest.approx(0.5 / 3.0)
    assert w["c"] == pytest.approx(0.5 * 0.75)
    # A feedback term that is also an original term outweighs either
    # component alone.
    assert w["a"] == pytest.approx(0.5 * (2.0 / 3.0) + 0.5 * 0.25)
    assert w["a"] > 0.5 * (2.0 / 3.0) and w["a"] > 0.5 * 0.25


def test_mixed_term_weights_lambda_one_uniform():
    eq = ExpandedQuery(original=hq(["a", "b"]),
                       feedback=(("c", 1.0),),
                       interpolation=1.0)
    assert mixed_term_weights(eq) == {"a": 0.5, "b": 0.5}


def test_lambda_one_preserves_bm25_order():
    ix = plain_index({"d1": "a a x", "d2": "a y", "d3": "x y"})
    q = hq(["a", "x"])
    plain_scores = {p: bm25_score(ix, list(q.terms), p) for p in ("d1", "d2", "d3")}
    eq = ExpandedQuery(original=q, feedback=(("y", 1.0),),
                       interpolation=1.0)
    mixed = mixed_term_weights(eq)
    mixed_scores = {
        p: sum(w * bm25_score(ix, [t], p) for t, w in mixed.items())
        for p in ("d1", "d2", "d3")
    }
    assert rank_items("q", plain_scores).paragraph_ids() == \
        rank_items("q", mixed_scores).paragraph_ids()


# --- entity RM1 -----------------------------------------------------------

def test_rm1_entities_single_doc_counts():
    texts = {"d1": "q alpha alpha beta"}
    ix = plain_index(texts)
    linker = GazetteerLinker({"alpha": "E", "beta": "F"})
    ents = rm1_entities(ix, texts, hq(["q"]), linker, fb_docs=1)
    assert [(e.entity_id, pytest.approx(e.weight)) for e in ents] == \
        [("E", pytest.approx(2.0 / 3.0)), ("F", pytest.approx(1.0 / 3.0))]


def test_rm1_entities_linker_failure_skips_paragraph(caplog):
    texts = {"d1": "q alpha", "d2": "q beta"}
    ix = plain_index(texts)
    inner = GazetteerLinker({"alpha": "E", "beta": "F"})

    class Flaky:
        def link(self, text):
            if "beta" in text:
                raise LinkerError("boom")
            return inner.link(text)

    with caplog.at_level(logging.WARNING):
        ents = rm1_entities(ix, texts, hq(["q"]), Flaky(), fb_docs=2)
    assert [e.entity_id for e in ents] == ["E"]
    assert ents[0].weight == pytest.approx(1.0)
    assert any("linker failed" in r.message for r in caplog.records)


def test_rm1_entities_none_linked():
    texts = {"d1": "q plain words"}
    ix = plain_index(texts)
    linker = GazetteerLinker({"absent": "E"})
    assert rm1_entities(ix, texts, hq(["q"]), linker) == []


def ent_rm1_engine(texts, **overrides):
    linker = GazetteerLinker({"alpha": "E"})
    return MethodEngine(plain_index(texts), texts,
                        MethodParams(method="entity-cs", expansion="ent-rm1",
                                     **overrides),
                        embeddings=load_embeddings(["E 1.0 0.0"]), linker=linker,
                        entity_stats=build_entity_stats(texts, linker))


def test_ent_rm1_expand_empty_unchanged():
    eq = ent_rm1_engine({"d1": "q plain words"}, lam=0.4).expand(hq(["q"]))
    assert not eq.is_expanded
    assert eq.feedback == ()
    assert eq.interpolation == 1.0
    eq = ent_rm1_engine({"d1": "q alpha"}, lam=0.4).expand(hq(["q"]))
    assert eq.feedback == (WeightedEntity("E", 1.0),) == (("E", 1.0),)
    assert eq.interpolation == 0.4
    assert eq.match_terms == ()  # entities widen no term pool


# --- heading support ------------------------------------------------------

def _demo_corpus():
    return corpus_from_pages([
        page("a", "Springfield", [
            section("Demographics", [("a1", "population census counts"),
                                     ("a2", "city growth data")]),
        ]),
        page("b", "Shelbyville", [
            section("Demographic", [("b1", "population census counts")]),
        ]),
        page("c", "Ogdenville", [
            section("History", [("c1", "the town is old")]),
        ]),
    ])


def test_support_merges_singular_and_plural_headings():
    support = build_heading_support(_demo_corpus())
    assert support.entries["demograph"] == (("a", "a1"), ("a", "a2"), ("b", "b1"))
    assert support.support_for("Demographics") == support.support_for("Demographic")


def test_support_respects_held_out_fold():
    corpus = _demo_corpus()
    folds = assign_folds(corpus, k=3, seed=0)
    fold_of_b = folds.mapping["b"]
    support = build_heading_support(corpus, folds, held_out=fold_of_b)
    assert support.folds == folds
    assert all(pair[0] != "b" for pair in support.entries.get("demograph", ()))


HEADINGS = ["Intro", "History", "Histories", "Flow", "Climate"]


@st.composite
def outline_corpora(draw):
    """Pages whose sections share headings across and within pages, nest,
    and sometimes reference another page's paragraph."""
    n_pages = draw(st.integers(2, 7))
    words = ["alpha", "beta", "gamma", "delta", "omega"]
    defined: list[str] = []

    def sections(depth, page_id, used):
        out = []
        for _ in range(draw(st.integers(0 if depth else 1, 3 - depth))):
            paras = []
            for _ in range(draw(st.integers(0, 2))):
                if defined and draw(st.integers(0, 4)) == 0:
                    pid = draw(st.sampled_from(defined))
                    if pid not in used:
                        used.add(pid)
                        paras.append((pid, None))
                    continue
                pid = f"{page_id}n{len(defined)}"
                defined.append(pid)
                used.add(pid)
                paras.append((pid, " ".join(draw(st.lists(st.sampled_from(words),
                                                          min_size=1, max_size=4)))))
            children = sections(depth + 1, page_id, used) if depth < 2 else []
            out.append(section(draw(st.sampled_from(HEADINGS)), paras, children))
        return out

    return corpus_from_pages([page(f"p{i}", f"T{i}", sections(0, f"p{i}", set()))
                              for i in range(n_pages)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(outline_corpora(), st.data())
def test_one_fold_aware_index_matches_per_fold_indexes(corpus, data):
    # the per-fold indexes and own-page filter that Rocchio used before the
    # index kept its folds, against one index that holds the fold out at lookup
    k = data.draw(st.integers(2, min(5, len(corpus.pages))))
    folds = assign_folds(corpus, k, data.draw(st.integers(0, 99)))
    one = build_heading_support(corpus, folds)
    per_fold = {f: build_heading_support(corpus, folds, f).entries for f in range(k)}
    max_passages = data.draw(st.integers(1, 6))
    for q in all_queries(corpus, PLAIN_CFG):
        entries = per_fold[folds.fold_of(q.page_id)]
        want_pairs = [p for p in entries.get(heading_key(q.heading), ())
                      if p[0] != q.page_id][:max_passages]
        seen: dict[str, list[str]] = {"one": [], "per-fold": []}

        def vectorizer(name):
            def vector(pid):
                seen[name].append(pid)
                counts = Counter(corpus.paragraphs[pid].text.split())
                return SparseVector({w: float(c) for w, c in counts.items()})
            return vector

        got = rocchio_expand(q, one, vectorizer("one"), max_passages=max_passages)
        want = rocchio_expand(q, HeadingSupportIndex(entries), vectorizer("per-fold"),
                              max_passages=max_passages)
        assert seen["one"] == seen["per-fold"] == [pid for _, pid in want_pairs]
        assert bits(got.expansion_vector) == bits(want.expansion_vector)
        assert got.match_terms == want.match_terms


def test_support_requires_folds_for_held_out():
    with pytest.raises(ValueError, match="fold assignment"):
        build_heading_support(_demo_corpus(), None, held_out=1)


def test_support_rejects_unmapped_page():
    corpus = _demo_corpus()
    folds = assign_folds(corpus, k=3, seed=0)
    folds.mapping.pop("c")
    with pytest.raises(ValueError, match="missing from fold"):
        build_heading_support(corpus, folds, held_out=0)


def test_support_drops_unkeyable_headings():
    corpus = corpus_from_pages([
        page("a", "T", [section("1990", [("a1", "text one")]),
                        section("The", [("a2", "text two")])]),
    ])
    support = build_heading_support(corpus)
    assert support.entries == {}


# --- Rocchio --------------------------------------------------------------

def _tfidf_vectorizer(ix):
    return lambda pid: tfidf_vector(ix, ix.doc_tf[pid])


def test_rocchio_no_support_unchanged():
    corpus = _demo_corpus()
    ix = plain_index({p: corpus.paragraphs[p].text for p in corpus.paragraphs})
    support = build_heading_support(corpus)
    q = hq(["town"], page_id="c", heading="History")
    eq = rocchio_expand(q, support, _tfidf_vectorizer(ix))
    assert not eq.is_expanded  # only its own page carries this heading


def test_rocchio_filters_own_page_and_sets_vector():
    corpus = _demo_corpus()
    ix = plain_index({p: corpus.paragraphs[p].text for p in corpus.paragraphs})
    support = build_heading_support(corpus)
    q = hq(["population"], page_id="a", heading="Demographics")
    eq = rocchio_expand(q, support, _tfidf_vectorizer(ix), lam=0.5)
    assert eq.is_expanded
    # Only b1 remains after the own-page filter; the centroid is its
    # unit vector.
    expected = normalized(tfidf_vector(ix, ix.doc_tf["b1"]))
    assert isinstance(eq.expansion_vector, SparseVector)
    assert set(eq.expansion_vector.entries) == set(expected.entries)
    for term, w in expected.entries.items():
        assert eq.expansion_vector.entries[term] == pytest.approx(w, abs=1e-12)
    assert eq.match_terms == tuple(sorted(expected.entries))


def test_rocchio_takes_first_five_in_ascending_order():
    pages = [
        page(f"p{i}", f"T{i}", [section("Shared", [(f"x{i}", f"text {i} words")])])
        for i in range(7)
    ]
    corpus = corpus_from_pages(pages)
    support = build_heading_support(corpus)
    seen = []

    def probe(pid):
        seen.append(pid)
        return SparseVector({pid: 1.0})

    q = hq(["words"], page_id="p6", heading="Shared")
    eq = rocchio_expand(q, support, probe, max_passages=5)
    assert seen == ["x0", "x1", "x2", "x3", "x4"]
    # Unweighted mean of five unit vectors on distinct axes.
    assert eq.expansion_vector.entries == pytest.approx(
        {f"x{i}": 0.2 for i in range(5)})


def test_rocchio_support_vectorizing_to_zero_unchanged():
    corpus = _demo_corpus()
    support = build_heading_support(corpus)
    q = hq(["population"], page_id="a", heading="Demographics")
    eq = rocchio_expand(q, support, lambda pid: SparseVector({}))
    assert not eq.is_expanded


def test_rocchio_identical_support_strictly_lifts_candidate():
    # b1 duplicates candidate a1's text, so the expansion vector points
    # straight at a1 and its cosine must strictly beat query-only.
    corpus = _demo_corpus()
    ix = plain_index({p: corpus.paragraphs[p].text for p in corpus.paragraphs})
    support = build_heading_support(corpus)
    q = hq(["population", "data"], page_id="a", heading="Demographics")
    qv = tfidf_vector(ix, list(q.terms))
    eq = rocchio_expand(q, support, _tfidf_vectorizer(ix), lam=0.5)
    mixed = mix_vectors(qv, eq.expansion_vector, eq.interpolation)
    cand = tfidf_vector(ix, ix.doc_tf["a1"])
    assert cosine(mixed, cand) > cosine(qv, cand)


# --- feedback vectors and mixing -------------------------------------------

def test_term_feedback_vector_weights_by_idf():
    ix = plain_index({"d1": "x y", "d2": "y z", "d3": "w w", "d4": "w v"})
    terms = [WeightedTerm("x", 0.6), WeightedTerm("ghost", 0.3),
             WeightedTerm("y", 0.1)]
    vec = sparse_sum(terms, ix.doc_freq, ix.n_docs)
    assert vec.entries["x"] == pytest.approx(0.6 * math.log(4.0 / 1.0))
    assert vec.entries["y"] == pytest.approx(0.1 * math.log(4.0 / 2.0))
    assert "ghost" not in vec.entries


def test_term_feedback_vector_drops_idf_zero():
    ix = plain_index({"d1": "x a", "d2": "x b"})
    vec = sparse_sum([WeightedTerm("x", 1.0)], ix.doc_freq, ix.n_docs)
    assert vec.entries == {}


def test_term_feedback_dense():
    ix = plain_index({"d1": "x y", "d2": "y z"})
    store = load_embeddings(["x 1.0 0.0", "z 0.0 1.0"])
    vec = embedding_sum([("x", 0.5, 0), ("q", 0.5, 0)], store,
                        ix.doc_freq, ix.n_docs)
    assert vec.values.tolist() == [0.5 * math.log(2.0), 0.0]
    empty = embedding_sum([("q", 1.0, 0)], store, ix.doc_freq, ix.n_docs)
    assert empty.values.tolist() == [0.0, 0.0]


def test_entity_feedback_vector():
    store = load_embeddings(["E1 1.0 0.0", "E2 0.0 2.0"])
    stats = EntityStats(link_doc_freq={"E1": 1, "E2": 4}, n_docs=4)
    vec = embedding_sum([("E1", 0.7, 0), ("E2", 0.3, 0)], store,
                        stats.link_doc_freq, stats.n_docs)
    # E2 has idf 0 and contributes nothing.
    assert vec.values == pytest.approx([0.7 * math.log(4.0), 0.0])


def test_mix_vectors_blend_and_extremes():
    orig = SparseVector({"a": 3.0})
    fb = SparseVector({"b": 4.0})
    mixed = mix_vectors(orig, fb, 0.25)
    assert mixed.entries["a"] == pytest.approx(0.25)
    assert mixed.entries["b"] == pytest.approx(0.75)
    assert mix_vectors(orig, fb, 1.0).entries == {"a": 1.0}
    assert mix_vectors(orig, fb, 0.0).entries == {"b": 1.0}
    assert mix_vectors(orig, None, 0.25).entries == {"a": 1.0}


def test_mix_vectors_zero_original_falls_back_to_feedback():
    mixed = mix_vectors(SparseVector({}), SparseVector({"b": 2.0}), 0.5)
    assert mixed.entries == {"b": 1.0}


def test_mix_vectors_dense():
    orig = DenseVector(values=np.array([2.0, 0.0]))
    fb = DenseVector(values=np.array([0.0, 5.0]))
    mixed = mix_vectors(orig, fb, 0.5)
    assert mixed.values == pytest.approx([0.5, 0.5])


def test_mix_vectors_rejects_mixed_spaces():
    orig = SparseVector({"a": 1.0})
    fb = DenseVector(values=np.array([1.0]))
    with pytest.raises(ValueError):
        mix_vectors(orig, fb, 0.5)


@given(st.floats(0.01, 0.99))
def test_mix_vectors_interpolates_between_units(lam):
    orig = SparseVector({"a": 2.0, "b": 1.0})
    fb = SparseVector({"b": 1.0, "c": 3.0})
    mixed = mix_vectors(orig, fb, lam)
    uo, uf = normalized(orig), normalized(fb)
    for t in ("a", "b", "c"):
        want = lam * uo.entries.get(t, 0.0) + (1 - lam) * uf.entries.get(t, 0.0)
        assert mixed.entries.get(t, 0.0) == pytest.approx(want, abs=1e-12)


# --- bitwise agreement with the one-branch-per-space references ---------------

FLOATS = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0]))


def sparse_vectors():
    # keys from a small alphabet, so two vectors often share some keys
    # and hold others alone; an empty map and all-zero weights are zero
    return st.dictionaries(st.sampled_from("abcdef"), FLOATS,
                           max_size=6).map(SparseVector)


def dense_vectors():
    return st.lists(FLOATS, min_size=3, max_size=3).map(
        lambda xs: DenseVector(np.array(xs)))


def bits(v):
    if v is None:
        return None
    if isinstance(v, SparseVector):
        return ("sparse", [(t, w.hex()) for t, w in v.entries.items()])
    return ("dense", v.values.tobytes())


LAMBDAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@given(st.one_of(st.tuples(sparse_vectors(), st.none() | sparse_vectors()),
                 st.tuples(dense_vectors(), st.none() | dense_vectors())),
       LAMBDAS)
@example((SparseVector({}), SparseVector({"a": 2.0})), 0.5)
@example((SparseVector({"a": 1.0, "b": -0.0}), SparseVector({"b": 2.0, "c": -3.0})), 0.3)
@example((DenseVector(np.zeros(3)), DenseVector(np.array([1.0, -0.0, 2.0]))), 0.5)
def test_mix_vectors_is_bitwise_the_reference(pair, lam):
    original, feedback = pair
    assert bits(mix_vectors(original, feedback, lam)) == \
        bits(ref_mix_vectors(original, feedback, lam))


@given(st.one_of(st.lists(sparse_vectors(), min_size=1, max_size=5),
                 st.lists(dense_vectors(), min_size=1, max_size=5)))
@example([SparseVector({"a": -0.0}), SparseVector({"b": 1.0, "a": -0.0})])
@example([DenseVector(np.zeros(3)), DenseVector(np.array([-0.0, 1.0, -2.0]))])
def test_mean_vector_is_bitwise_the_reference(vectors):
    assert bits(_mean_vector(vectors)) == bits(ref_mean_vector(vectors))


def test_mean_vector_rejects_mixed_spaces():
    with pytest.raises(ValueError):
        _mean_vector([SparseVector({"a": 1.0}), DenseVector(np.ones(1))])
    with pytest.raises(ValueError):
        _mean_vector([DenseVector(np.ones(2)), DenseVector(np.ones(3))])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rm1_pair_is_bitwise_the_reference(rng):
    words = [f"w{i}" for i in range(8)]
    texts = {f"d{i:02d}": " ".join(rng.choices(words, k=rng.randint(1, 9)))
             for i in range(rng.randint(1, 12))}
    ix = plain_index(texts)
    inner = GazetteerLinker({w: f"E_{w}" for w in words[:5]})
    fail_on = set(rng.sample(words, rng.randint(0, 3)))

    class FailsOnSome:
        def link(self, text):
            if fail_on & set(text.split()):
                raise LinkerError(f"cannot link {text!r}")
            return inner.link(text)

    linker = FailsOnSome()
    for _ in range(3):
        q = hq(rng.choices(words + ["zz"], k=rng.randint(1, 3)))
        fb_docs, keep, mu = rng.randint(1, 6), rng.randint(1, 6), rng.choice([5.0, 1500.0])
        got = [(t.term, t.weight.hex())
               for t in rm1_terms(ix, q, fb_docs=fb_docs, fb_terms=keep, mu=mu)]
        assert got == [(t, w.hex())
                       for t, w in ref_rm1_terms(ix, q, fb_docs, keep, mu)]
        got = [(e.entity_id, e.weight.hex())
               for e in rm1_entities(ix, texts, q, linker, fb_docs=fb_docs,
                                     fb_entities=keep, mu=mu)]
        assert got == [(e, w.hex()) for e, w in
                       ref_rm1_entities(ix, texts, q, linker, fb_docs, keep, mu)]


# "every" is in each paragraph (idf 0) and "ghost" in none (unseen)
VOCAB = ["a", "b", "c", "d", "every", "ghost"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(VOCAB[:4]), max_size=5),
                min_size=1, max_size=6),
       st.lists(st.sampled_from(VOCAB), max_size=8),
       st.lists(st.tuples(st.sampled_from(VOCAB), FLOATS), max_size=8))
@example([["a"], ["b"]], ["a", "a", "every", "ghost", "b", "a"],
         [("a", 0.5), ("every", 0.25), ("ghost", 0.125), ("a", 0.125)])
@example([["a"]], ["every"], [("b", -0.0), ("a", -0.0)])
def test_tfidf_query_and_feedback_vectors_are_bitwise_the_reference(docs, bag, pairs):
    texts = {f"d{i}": " ".join(words + ["every"]) for i, words in enumerate(docs)}
    ix = plain_index(texts)
    assert bits(tfidf_vector(ix, bag)) == bits(ref_tfidf_vector(ix, bag))
    assert bits(tfidf_vector(ix, Counter(bag))) == bits(ref_tfidf_vector(ix, bag))
    eng = MethodEngine(ix, texts, MethodParams(method="tfidf-cs", expansion="rm1"))
    eq = ExpandedQuery(original=hq(["a"]), feedback=tuple(pairs), interpolation=0.5)
    want = ref_term_feedback_vector(pairs, ix) if pairs else None
    assert bits(eng._feedback_vector(eq)) == bits(want)


def test_feedback_vector_is_the_parent_sum_in_every_space():
    # the engine's feedback vector, from real rm1 and ent-rm1 feedback,
    # against one reference routine per space
    texts = {"d1": "q alpha beta beta", "d2": "q gamma alpha", "d3": "beta gamma",
             "d4": "q alpha"}
    ix = plain_index(texts)
    store = load_embeddings(["alpha 1.0 0.5", "beta -0.25 2.0", "q 3.0 1.0",
                             "E_a 1.0 0.0", "E_b 0.5 -1.0"])
    linker = GazetteerLinker({"alpha": "E_a", "beta": "E_b", "gamma": "E_g"})
    stats = build_entity_stats(texts, linker)
    q = hq(["q"])
    for method, exp in [("tfidf-cs", "rm1"), ("glove-cs", "rm1"),
                        ("entity-cs", "ent-rm1")]:
        eng = MethodEngine(ix, texts, MethodParams(method=method, expansion=exp),
                           embeddings=store, linker=linker, entity_stats=stats)
        eq = eng.expand(q)
        assert eq.is_expanded and eq.expansion_vector is None
        if method == "tfidf-cs":
            want = ref_term_feedback_vector(eq.feedback, ix)
        elif method == "glove-cs":
            want = ref_dense_feedback_vector(eq.feedback, store, ix.doc_freq, ix.n_docs)
        else:
            want = ref_dense_feedback_vector(eq.feedback, store, stats.link_doc_freq,
                                             stats.n_docs)
        got = eng._feedback_vector(eq)
        assert got.norm() > 0.0
        assert bits(got) == bits(want)
