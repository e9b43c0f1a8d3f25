"""Scorer/expansion engine: validity matrix, resources, ranking modes."""

import random

import numpy as np
import pytest

from headingrank.corpus import HeadingQuery, assign_folds
from headingrank.expansion import build_heading_support
from headingrank.index import SparseVector, bm25_score, rank_items
from headingrank.methods import (
    EXPANSIONS,
    METHODS,
    VALID_COMBINATIONS,
    InvalidCombinationError,
    MethodEngine,
    MethodParams,
)
from headingrank.semvec import (
    EmbeddingStore,
    EntityStats,
    GazetteerLinker,
    build_entity_stats,
    load_embeddings,
)

from conftest import (corpus_from_pages, page, plain_index, ref_bm25_term_score,
                      ref_cosine, ref_dense_feedback_vector, ref_entity_vector,
                      ref_link, ref_match_pool, ref_mix_vectors, ref_rm1_entities,
                      ref_rm1_terms, ref_rocchio_centroid, ref_term_feedback_vector,
                      ref_text_vector, ref_tfidf_vector, section)


def hq(terms, page_id="pg", heading="H", qid=None):
    return HeadingQuery(query_id=qid or f"{page_id}/{heading}",
                        raw_text=" ".join(terms), terms=tuple(terms),
                        page_id=page_id, heading=heading, path=())


TEXTS = {
    "d1": "alpha beta gamma",
    "d2": "alpha alpha delta",
    "d3": "beta delta epsilon",
    "d4": "gamma epsilon zeta",
    "d5": "zeta alpha beta",
}

EMBED_LINES = [
    "alpha 1.0 0.1 0.0",
    "beta 0.9 0.3 0.0",
    "gamma 0.0 1.0 0.1",
    "delta 0.1 0.9 0.2",
    "epsilon 0.0 0.1 1.0",
    "zeta 0.2 0.0 0.9",
    "E_a 1.0 0.0 0.0",
    "E_b 0.0 1.0 0.0",
    "E_e 0.0 0.0 1.0",
]

GAZ = {"alpha": "E_a", "beta": "E_b", "epsilon": "E_e"}


@pytest.fixture
def ix():
    return plain_index(TEXTS)


@pytest.fixture
def resources(ix):
    store = load_embeddings(EMBED_LINES)
    linker = GazetteerLinker(GAZ)
    stats = build_entity_stats(TEXTS, linker)
    return store, linker, stats


def engine(ix, resources, method, expansion, support=None, **overrides):
    store, linker, stats = resources
    params = MethodParams(method=method, expansion=expansion, **overrides)
    return MethodEngine(ix, TEXTS, params, embeddings=store, linker=linker,
                        entity_stats=stats, support=support)


# --- combination matrix -----------------------------------------------------

def test_valid_combinations_table():
    assert VALID_COMBINATIONS == {
        "bm25": frozenset({"none", "rm1"}),
        "tfidf-cs": frozenset({"none", "rm1", "rocchio"}),
        "glove-cs": frozenset({"none", "rm1", "rocchio"}),
        "entity-cs": frozenset({"none", "ent-rm1", "rocchio"}),
    }
    assert set(METHODS) == set(VALID_COMBINATIONS)
    assert set(EXPANSIONS) == {"none", "rm1", "ent-rm1", "rocchio"}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("expansion", EXPANSIONS)
def test_matrix_enforced(method, expansion):
    if expansion in VALID_COMBINATIONS[method]:
        MethodParams(method=method, expansion=expansion)
    else:
        with pytest.raises(InvalidCombinationError) as exc:
            MethodParams(method=method, expansion=expansion)
        for legal in VALID_COMBINATIONS[method]:
            assert legal in str(exc.value)


def test_params_field_validation():
    with pytest.raises(ValueError):
        MethodParams(method="nope")
    with pytest.raises(InvalidCombinationError, match=r"'nope'.*\(valid: none, rm1\)"):
        MethodParams(expansion="nope")
    with pytest.raises(ValueError):
        MethodParams(k1=0.0)
    with pytest.raises(ValueError):
        MethodParams(b=2.0)
    with pytest.raises(ValueError):
        MethodParams(mu=-1.0)
    with pytest.raises(ValueError):
        MethodParams(mu=0.0)
    with pytest.raises(ValueError):
        MethodParams(lam=1.5)
    with pytest.raises(ValueError):
        MethodParams(fb_docs=0)
    with pytest.raises(ValueError):
        MethodParams(fb_terms=0)
    with pytest.raises(ValueError):
        MethodParams(fb_entities=0)
    with pytest.raises(ValueError):
        MethodParams(rocchio_passages=0)


# --- resource requirements ----------------------------------------------------

def test_dense_methods_require_embeddings(ix):
    params = MethodParams(method="glove-cs")
    with pytest.raises(ValueError, match="embedding store"):
        MethodEngine(ix, TEXTS, params)


def test_entity_method_requires_linker_and_stats(ix, resources):
    store, linker, stats = resources
    params = MethodParams(method="entity-cs")
    with pytest.raises(ValueError, match="entity linker"):
        MethodEngine(ix, TEXTS, params, embeddings=store, entity_stats=stats)
    with pytest.raises(ValueError, match="statistics"):
        MethodEngine(ix, TEXTS, params, embeddings=store, linker=linker)


def test_ent_rm1_only_pairs_with_entity_method():
    with pytest.raises(InvalidCombinationError):
        MethodParams(method="tfidf-cs", expansion="ent-rm1")
    with pytest.raises(InvalidCombinationError):
        MethodParams(method="bm25", expansion="ent-rm1")


def test_rocchio_requires_support(ix, resources):
    with pytest.raises(ValueError, match="heading support index"):
        engine(ix, resources, "tfidf-cs", "rocchio", support=None)


# --- ranking behavior -----------------------------------------------------------

def _support_corpus():
    # Same heading on two pages; pg owns d1/d2, other page owns d3.
    return corpus_from_pages([
        page("pg", "T1", [section("Shared", [("d1", TEXTS["d1"]),
                                             ("d2", TEXTS["d2"])])]),
        page("p2", "T2", [section("Shared", [("d3", TEXTS["d3"])]),
                          section("Lone", [("d4", TEXTS["d4"]),
                                           ("d5", TEXTS["d5"])])]),
    ])


@pytest.mark.parametrize("method,expansion", [
    ("bm25", "rm1"),
    ("tfidf-cs", "rm1"),
    ("glove-cs", "rm1"),
    ("entity-cs", "ent-rm1"),
    ("tfidf-cs", "rocchio"),
    ("glove-cs", "rocchio"),
    ("entity-cs", "rocchio"),
])
def test_lambda_one_reproduces_query_only_order(ix, resources, method, expansion):
    support = build_heading_support(_support_corpus())
    expanded = engine(ix, resources, method, expansion, support=support, lam=1.0)
    plain = engine(ix, resources, method, "none", support=support)
    q = hq(["alpha", "beta"], heading="Shared")
    got = expanded.rank(q, k=10).paragraph_ids()
    want = plain.rank(q, k=10).paragraph_ids()
    assert got == want


def test_bm25_none_matches_raw_scorer(ix, resources):
    eng = engine(ix, resources, "bm25", "none")
    q = hq(["alpha", "beta"])
    ranking = eng.rank(q, k=10)
    expected = {
        pid: bm25_score(ix, list(q.terms), pid) / len(q.terms)
        for pid in TEXTS
        if set(q.terms) & set(TEXTS[pid].split())
    }
    assert ranking.paragraph_ids() == \
        rank_items(q.query_id, expected).paragraph_ids()
    # Uniform per-term weights only rescale scores.
    for pid, score in ranking.items:
        assert score == pytest.approx(expected[pid], abs=1e-12)


def test_rm1_at_half_lambda_changes_ranking(ix, resources):
    plain = engine(ix, resources, "bm25", "none")
    fed = engine(ix, resources, "bm25", "rm1", lam=0.5, fb_docs=2, fb_terms=3)
    q = hq(["gamma"])
    before = plain.rank(q, k=10)
    after = fed.rank(q, k=10)
    # Expansion widens the pool beyond literal matches of "gamma".
    assert set(after.paragraph_ids()) > set(before.paragraph_ids())


def test_candidate_mode_scores_exactly_the_pool(ix, resources):
    eng = engine(ix, resources, "tfidf-cs", "none")
    q = hq(["alpha"])
    ranking = eng.rank(q, candidates=["d4", "d1", "d3"])
    assert sorted(ranking.paragraph_ids()) == ["d1", "d3", "d4"]
    # d4 shares no term with the query: present with score 0.
    scores = dict(ranking.items)
    assert scores["d4"] == 0.0
    assert ranking.paragraph_ids()[0] != "d4"


@pytest.mark.parametrize("method", METHODS)
def test_candidate_mode_rejects_unknown_ids(ix, resources, method):
    eng = engine(ix, resources, method, "none")
    with pytest.raises(KeyError):
        eng.rank(hq(["alpha"]), candidates=["d1", "ghost"])


def test_full_mode_truncates_to_k(ix, resources):
    eng = engine(ix, resources, "bm25", "none")
    q = hq(["alpha", "beta", "gamma", "delta", "epsilon", "zeta"])
    assert len(eng.rank(q, k=2).items) == 2
    assert len(eng.rank(q, k=None).items) == len(TEXTS)


def test_unindexed_query_ranks_nothing(ix, resources):
    eng = engine(ix, resources, "tfidf-cs", "none")
    assert eng.rank(hq(["unseen"])).items == ()


def test_rank_is_deterministic(ix, resources):
    support = build_heading_support(_support_corpus())
    for method, expansion in [("bm25", "rm1"), ("tfidf-cs", "rocchio"),
                              ("glove-cs", "none"), ("entity-cs", "ent-rm1")]:
        eng = engine(ix, resources, method, expansion, support=support, lam=0.5)
        q = hq(["alpha", "epsilon"], heading="Shared")
        assert eng.rank(q, k=10) == eng.rank(q, k=10)


def test_entity_query_with_no_linkable_text(ix, resources):
    eng = engine(ix, resources, "entity-cs", "none")
    # "gamma" is not in the gazetteer: the query vector is empty and
    # every cosine is 0, but candidate mode still returns the pool.
    ranking = eng.rank(hq(["gamma"]), candidates=["d1", "d2"])
    assert sorted(ranking.paragraph_ids()) == ["d1", "d2"]
    assert all(score == 0.0 for _, score in ranking.items)


def test_doc_vectors_cached(ix, resources):
    eng = engine(ix, resources, "tfidf-cs", "none")
    assert eng.doc_vector("d1") is eng.doc_vector("d1")


# --- bitwise agreement with per-pair reference scoring ------------------------

GRID = [("bm25", "none"), ("bm25", "rm1"),
        ("tfidf-cs", "none"), ("tfidf-cs", "rm1"), ("tfidf-cs", "rocchio"),
        ("glove-cs", "none"), ("glove-cs", "rm1"), ("glove-cs", "rocchio"),
        ("entity-cs", "none"), ("entity-cs", "ent-rm1"), ("entity-cs", "rocchio")]


def _random_collection(rng):
    """Pages sharing headings, vectors for most words and entities, a linker."""
    words = [f"w{i}" for i in range(10)]
    pages, n = [], 0
    for pi in range(rng.randint(2, 4)):
        secs = []
        for heading in rng.sample(["Intro", "History", "Flow"], rng.randint(1, 3)):
            paras = []
            for _ in range(rng.randint(1, 3)):
                paras.append((f"d{n:03d}", " ".join(rng.choices(words, k=rng.randint(1, 8)))))
                n += 1
            secs.append(section(heading, paras))
        pages.append(page(f"pg{pi}", f"T{pi}", secs))
    corpus = corpus_from_pages(pages)
    texts = {pid: p.text for pid, p in corpus.paragraphs.items()}
    if rng.random() < 0.3:
        texts["d999"] = ""  # indexed with no tokens
    linker = GazetteerLinker({w: f"E_{w}" for w in words[:6]})
    keys = [w for w in words if rng.random() < 0.8]
    keys += [f"E_{w}" for w in words[:6] if rng.random() < 0.8]
    store = EmbeddingStore(dim=3, table={k: np.array([rng.uniform(-1.0, 1.0)
                                                      for _ in range(3)])
                                         for k in keys})
    resources = (store, linker, build_entity_stats(texts, linker))
    return corpus, texts, plain_index(texts), resources, words


def _reference_ranking(eng, query, k, candidates):
    """eng.rank recomputed from the conftest references alone: expansion,
    every vector, the mix and the pool, with every norm, idf, length norm
    and smoothing mass fresh per pair."""
    p, ix, texts = eng.params, eng.ix, eng.texts
    store, linker, stats = eng.embeddings, eng.linker, eng.entity_stats

    def vector(bag, text):
        if p.method == "tfidf-cs":
            return ref_tfidf_vector(ix, bag)
        if p.method == "glove-cs":
            return ref_text_vector(bag, store, ix)
        return ref_entity_vector(ref_link(linker, text), store, stats)

    def doc_vector(pid):
        return vector(ix.doc_tf[pid], texts[pid])

    feedback, centroid, match_terms = [], None, ()
    if p.expansion == "rm1":
        feedback = ref_rm1_terms(ix, query, p.fb_docs, p.fb_terms, p.mu)
        match_terms = tuple(t for t, _ in feedback)
    elif p.expansion == "ent-rm1":
        feedback = ref_rm1_entities(ix, texts, query, linker, p.fb_docs,
                                    p.fb_entities, p.mu)
    elif p.expansion == "rocchio" and eng.support is not None:
        centroid = ref_rocchio_centroid(query, eng.support, doc_vector,
                                        p.rocchio_passages)
        if isinstance(centroid, SparseVector):
            match_terms = tuple(sorted(centroid.entries))
    lam = p.lam if feedback or centroid is not None else 1.0

    if p.method == "bm25":
        # lam spread over the query's term occurrences, 1 - lam over the feedback
        weights = {}
        for t in query.terms:
            weights[t] = weights.get(t, 0.0) + lam / len(query.terms)
        for t, w in feedback if lam < 1.0 else ():
            weights[t] = weights.get(t, 0.0) + (1.0 - lam) * w
        pool_terms = [t for t, w in weights.items() if w > 0.0]
    else:
        pool_terms = list(query.terms) + list(match_terms if lam < 1.0 else ())
    pool = ref_match_pool(ix, pool_terms) if candidates is None else candidates

    if p.method == "bm25":
        bm = p.bm25_params()
        scored = {}
        for pid in pool:
            score = 0.0
            for t, w in weights.items():
                score += w * ref_bm25_term_score(ix, t, pid, bm)
            scored[pid] = score
    else:
        if p.method == "tfidf-cs":
            fb_vector = ref_term_feedback_vector(feedback, ix) if feedback else centroid
        elif feedback:
            doc_freq, n_docs = ((ix.doc_freq, ix.n_docs) if p.method == "glove-cs"
                                else (stats.link_doc_freq, stats.n_docs))
            fb_vector = ref_dense_feedback_vector(feedback, store, doc_freq, n_docs)
        else:
            fb_vector = centroid
        mixed = ref_mix_vectors(vector(query.terms, query.raw_text), fb_vector, lam)
        scored = {pid: ref_cosine(mixed, doc_vector(pid)) for pid in pool}
    return rank_items(query.query_id, scored, k if candidates is None else None)


def test_engine_scores_match_per_pair_reference():
    rng = random.Random(2024)
    for _ in range(50):
        corpus, texts, ix, resources, words = _random_collection(rng)
        folds = assign_folds(corpus, rng.randint(2, len(corpus.pages)), rng.randrange(10))
        support = build_heading_support(corpus, folds)
        pids = sorted(ix.doc_lengths)
        queries = [hq(rng.choices(words + ["zz"], k=rng.randint(1, 3)),
                      page_id=rng.choice([p.id for p in corpus.pages]),
                      heading=rng.choice(["Intro", "History", "Flow"]), qid=f"q{i}")
                   for i in range(3)]
        for method, exp in GRID:
            store, linker, stats = resources
            params = MethodParams(
                method=method, expansion=exp, lam=rng.choice([0.3, 0.5, 1.0]),
                k1=rng.uniform(0.5, 2.0), b=rng.uniform(0.0, 1.0),
                mu=rng.choice([10.0, 1500.0]), fb_docs=rng.randint(1, 4),
                fb_terms=rng.randint(1, 5), fb_entities=rng.randint(1, 5),
                rocchio_passages=rng.randint(1, 3))
            eng = MethodEngine(ix, texts, params, embeddings=store, linker=linker,
                               entity_stats=stats, support=support)
            for q in queries:
                full = eng.rank(q, k=len(pids))
                assert full.items == _reference_ranking(eng, q, len(pids), None).items
                cands = rng.sample(pids, rng.randint(1, len(pids)))
                got = eng.rank(q, candidates=cands)
                assert got.items == _reference_ranking(eng, q, None, cands).items


def test_bm25_candidates_over_tokenless_collection_score_zero(resources):
    # every paragraph is empty, so the average length is 0 and no
    # length norm may be computed
    ix = plain_index({"a": "", "b": ""})
    eng = MethodEngine(ix, {"a": "", "b": ""}, MethodParams(method="bm25"))
    assert eng.rank(hq(["alpha"]), candidates=["b", "a"]).items == \
        (("a", 0.0), ("b", 0.0))
