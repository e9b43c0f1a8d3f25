"""Index construction and lexical scorers against frozen hand arithmetic.

The FROZEN_* values below were produced by a throwaway script that
applied the scoring formulas literally (math.log plus hand-tallied
collection counts) to the three-document fixture; they are pasted in,
not computed here, so a regression in the scorers cannot hide.
"""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from headingrank.index import (
    INDEX_FORMAT,
    INDEX_VERSION,
    Bm25Params,
    SparseVector,
    bm25_idf,
    bm25_score,
    bm25_scores,
    build_index,
    index_fingerprint,
    lm_dirichlet_scores,
    load_index,
    matching_paragraphs,
    rank_items,
    retrieve_topk,
    save_index,
    tfidf_vector,
)

from headingrank.utils import InputError

from conftest import (PLAIN_CFG, plain_index, ref_bm25_term_score,
                      ref_lm_dirichlet_score, ref_norm)

THREE_DOCS = {"d1": "a b a c", "d2": "b c d", "d3": "a d d e"}

# query -> {doc: score}, computed independently at full precision.
FROZEN_BM25 = {
    ("a",): {"d1": 1.173758639554813, "d2": 0.0, "d3": 0.8440774280463894},
    ("a", "d"): {"d1": 1.173758639554813, "d2": 0.9458189037484098,
                 "d3": 2.0178360676012024},
    ("a", "a", "b"): {"d1": 3.1915947071560153, "d2": 0.9458189037484098,
                      "d3": 1.6881548560927788},
    ("e",): {"d1": 0.0, "d2": 0.0, "d3": 1.1608024647285917},
    ("zz",): {"d1": 0.0, "d2": 0.0, "d3": 0.0},
}

FROZEN_LM = {
    ("a", "b"): {"d1": -3.000820373296662, "d2": -3.004367120862545,
                 "d3": -3.006915849557669},
    ("e",): {"d1": -2.400558390217854, "d2": -2.3998932754610434,
             "d3": -2.3932518150354163},
}


@pytest.fixture
def three_doc_index():
    return plain_index(THREE_DOCS)


def test_index_statistics(three_doc_index):
    ix = three_doc_index
    assert ix.n_docs == 3
    assert ix.collection_len == 11
    assert ix.avg_doc_len == pytest.approx(11 / 3)
    assert ix.doc_freq == {"a": 2, "b": 2, "c": 2, "d": 2, "e": 1}
    assert ix.collection_tf == {"a": 3, "b": 2, "c": 2, "d": 3, "e": 1}
    assert ix.doc_tf["d1"] == {"a": 2, "b": 1, "c": 1}
    assert "d1" in ix and "nope" not in ix


def test_build_index_rejects_empty():
    with pytest.raises(ValueError):
        build_index({})


@pytest.mark.parametrize("query,expected", sorted(FROZEN_BM25.items()))
def test_bm25_frozen_values(three_doc_index, query, expected):
    for pid, want in expected.items():
        got = bm25_score(three_doc_index, list(query), pid)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("query,expected", sorted(FROZEN_LM.items()))
def test_lm_dirichlet_frozen_values(three_doc_index, query, expected):
    for pid, want in expected.items():
        got = lm_dirichlet_scores(three_doc_index, list(query), [pid])[pid]
        assert got == pytest.approx(want, abs=1e-12)


def test_bm25_single_doc_is_ln2():
    ix = plain_index({"p1": "a"})
    assert bm25_score(ix, ["a"], "p1") == pytest.approx(math.log(2.0), abs=1e-12)


def test_bm25_idf_never_negative(three_doc_index):
    for term in ("a", "e", "absent"):
        assert bm25_idf(three_doc_index, term) > 0.0


def test_bm25_params_validated():
    with pytest.raises(ValueError):
        Bm25Params(k1=0.0)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)
    assert Bm25Params(k1=2.0, b=0.0).k1 == 2.0


def test_lm_skips_unseen_collection_terms(three_doc_index):
    assert lm_dirichlet_scores(three_doc_index, ["zz"], ["d1"])["d1"] == 0.0


def test_tfidf_worked_example():
    # Four documents give df(a)=1, df(b)=2; the bag "a a b" then weighs
    # a at (1+ln 2)*ln 4 and b at ln 2 before normalization.
    ix = plain_index({"D1": "a a b", "D2": "b x", "D3": "x y", "D4": "y z"})
    vec = tfidf_vector(ix, ["a", "a", "b"])
    wa = (1.0 + math.log(2.0)) * math.log(4.0)
    wb = math.log(2.0)
    nrm = math.hypot(wa, wb)
    assert vec.entries["a"] == pytest.approx(wa / nrm, abs=1e-12)
    assert vec.entries["b"] == pytest.approx(wb / nrm, abs=1e-12)
    assert vec.norm() == pytest.approx(1.0, abs=1e-9)


def test_tfidf_drops_df0_and_dfN(three_doc_index):
    vec = tfidf_vector(three_doc_index, ["a", "absent"])
    assert set(vec.entries) == {"a"}
    # A term in every document has idf 0 and is dropped too.
    ix = plain_index({"d1": "x a", "d2": "x b"})
    vec = tfidf_vector(ix, ["x", "a"])
    assert set(vec.entries) == {"a"}


def test_tfidf_empty_bag_gives_empty_vector(three_doc_index):
    vec = tfidf_vector(three_doc_index, [])
    assert vec.entries == {}
    assert vec.norm() == 0.0


def test_tfidf_accepts_counts_mapping(three_doc_index):
    from_seq = tfidf_vector(three_doc_index, ["a", "a", "b"])
    from_map = tfidf_vector(three_doc_index, {"a": 2, "b": 1})
    assert from_seq == from_map


def test_sparse_vector_dot_intersection_only():
    u = SparseVector({"a": 0.5, "b": 0.5})
    v = SparseVector({"b": 2.0, "c": 9.0})
    assert u.dot(v) == pytest.approx(1.0)
    assert v.dot(u) == pytest.approx(1.0)


def test_rank_items_tie_rule():
    ranking = rank_items("q", {"pb": 1.0, "pa": 1.0, "pc": 2.0})
    assert ranking.paragraph_ids() == ["pc", "pa", "pb"]
    assert rank_items("q", {"pa": 1.0, "pb": 2.0}, k=1).paragraph_ids() == ["pb"]


@pytest.mark.parametrize("k", [0, -1])
def test_rank_items_rejects_depth_below_one(k):
    # a negative slice would silently drop the last paragraphs
    with pytest.raises(ValueError, match="k must be >= 1"):
        rank_items("q", {"pa": 1.0, "pb": 2.0}, k=k)


def test_matching_paragraphs(three_doc_index):
    assert matching_paragraphs(three_doc_index, ["a"]) == {"d1", "d3"}
    assert matching_paragraphs(three_doc_index, ["a", "e"]) == {"d1", "d3"}
    assert matching_paragraphs(three_doc_index, ["zz"]) == set()


def test_retrieve_topk_pool_and_truncation(three_doc_index):
    ix = three_doc_index
    scorer = lambda q, pid: bm25_score(ix, q, pid)
    full = retrieve_topk(ix, scorer, ["a", "d"], k=10, query_id="q")
    assert full.paragraph_ids() == ["d3", "d1", "d2"]
    assert retrieve_topk(ix, scorer, ["a", "d"], k=1).paragraph_ids() == ["d3"]
    assert retrieve_topk(ix, scorer, ["zz"], k=5).items == ()
    with pytest.raises(ValueError):
        retrieve_topk(ix, scorer, ["a"], k=0)


def _random_corpus(rng: random.Random, n_docs: int, vocab: int) -> dict[str, str]:
    words = [f"w{i}" for i in range(vocab)]
    return {
        f"p{i:04d}": " ".join(rng.choices(words, k=rng.randint(1, 12)))
        for i in range(n_docs)
    }


def _oracle_topk(ix, texts, scorer, q, k):
    pool = [pid for pid, text in texts.items()
            if set(q) & set(text.split())]
    scored = sorted(((pid, scorer(q, pid)) for pid in pool),
                    key=lambda it: (-it[1], it[0]))
    return [pid for pid, _ in scored[:k]]


def test_retrieve_topk_matches_exhaustive_oracle():
    rng = random.Random(42)
    for trial in range(20):
        texts = _random_corpus(rng, n_docs=rng.randint(5, 60), vocab=15)
        ix = plain_index(texts)
        scorer = lambda q, pid: bm25_score(ix, q, pid)
        for _ in range(5):
            q = rng.choices([f"w{i}" for i in range(15)], k=rng.randint(1, 4))
            k = rng.randint(1, 20)
            got = retrieve_topk(ix, scorer, q, k).paragraph_ids()
            assert got == _oracle_topk(ix, texts, scorer, q, k)


def test_pool_scorers_match_per_pair_reference():
    # BM25 terms and the pool-level LM scorer, bitwise against references
    # that recompute idf, length norm and smoothing mass for every pair.
    rng = random.Random(1234)
    words = [f"w{i}" for i in range(12)]
    for trial in range(60):
        texts = _random_corpus(rng, n_docs=rng.randint(1, 25), vocab=12)
        if trial % 4 == 0:
            texts["p9999"] = ""  # a paragraph with no tokens
        ix = plain_index(texts)
        params = Bm25Params(k1=rng.uniform(0.1, 3.0), b=rng.uniform(0.0, 1.0))
        mu = rng.choice([0.5, 10.0, 1500.0, rng.uniform(1.0, 3000.0)])
        pids = sorted(ix.doc_lengths)
        for _ in range(4):
            q = rng.choices(words + ["zz"], k=rng.randint(1, 5))
            pool = rng.sample(pids, rng.randint(1, len(pids)))
            got = lm_dirichlet_scores(ix, q, pool, mu)
            assert list(got) == pool
            for pid in pool:
                want = ref_lm_dirichlet_score(ix, q, pid, mu)
                assert got[pid] == want
                assert lm_dirichlet_scores(ix, q, [pid], mu)[pid] == want
                for t in q:
                    assert bm25_scores(ix, [(t, 1.0)], [pid], params)[pid] == \
                        ref_bm25_term_score(ix, t, pid, params)


def test_lm_pool_scorer_validates(three_doc_index):
    with pytest.raises(KeyError):
        lm_dirichlet_scores(three_doc_index, ["a"], ["d1", "ghost"])
    assert lm_dirichlet_scores(three_doc_index, ["a"], []) == {}
    with pytest.raises(KeyError):
        bm25_scores(three_doc_index, [("a", 1.0)], ["d1", "ghost"])
    assert bm25_scores(three_doc_index, [("a", 1.0)], []) == {}


def test_sparse_vector_keeps_norm_outside_its_fields():
    rng = random.Random(5)
    for _ in range(50):
        entries = {f"t{i}": rng.uniform(-3.0, 3.0) for i in range(rng.randint(0, 8))}
        kept, fresh = SparseVector(dict(entries)), SparseVector(dict(entries))
        assert kept.norm() == ref_norm(fresh)
        assert kept.norm() == kept.norm()
        # equality compares entries, whether or not one side kept its norm
        assert kept == fresh and fresh == kept
        fresh.norm()
        assert kept == fresh
    assert [f.name for f in dataclasses.fields(SparseVector)] == ["entries"]
    assert SparseVector({"a": 1.0}) != SparseVector({"a": 2.0})


def test_index_roundtrip_and_byte_stability(tmp_path, three_doc_index):
    p1, p2 = tmp_path / "ix1.json", tmp_path / "ix2.json"
    save_index(three_doc_index, str(p1))
    again = load_index(str(p1))
    assert again.postings == three_doc_index.postings
    assert again.doc_lengths == three_doc_index.doc_lengths
    save_index(build_index(THREE_DOCS, PLAIN_CFG), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _listed_payload(ix):
    """The payload save_index built before it wrote postings as they are."""
    return {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_lengths": ix.doc_lengths,
        "fingerprint": ix.fingerprint,
        "postings": {t: [[pid, tf] for pid, tf in pl] for t, pl in ix.postings.items()},
    }


def test_save_index_bytes_equal_listed_payload(tmp_path):
    rng = random.Random(43)
    for trial in range(20):
        ix = plain_index(_random_corpus(rng, n_docs=rng.randint(1, 40), vocab=12))
        path = tmp_path / f"ix{trial}.json"
        save_index(ix, str(path))
        expected = json.dumps(_listed_payload(ix), sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        assert load_index(str(path)).postings == ix.postings


def _eager_doc_tf(ix):
    doc_tf = {pid: {} for pid in ix.doc_lengths}
    for term, plist in ix.postings.items():
        for pid, tf in plist:
            doc_tf[pid][term] = tf
    return doc_tf


def test_doc_tf_is_built_on_first_read_only(tmp_path):
    rng = random.Random(44)
    for trial in range(10):
        ix = plain_index(_random_corpus(rng, n_docs=rng.randint(1, 40), vocab=12))
        save_index(ix, str(tmp_path / "ix.json"))
        assert "doc_tf" not in vars(ix)
        expected = _eager_doc_tf(ix)
        assert ix.doc_tf == expected
        assert [list(d) for d in ix.doc_tf.values()] == [list(d) for d in expected.values()]
        assert ix.doc_tf is ix.doc_tf
        assert load_index(str(tmp_path / "ix.json")).doc_tf == expected


def test_fingerprint_tells_text_and_token_settings_apart(tmp_path):
    base = index_fingerprint(THREE_DOCS, PLAIN_CFG)
    assert set(base) == {"texts", "tokens"}
    reordered = dict(reversed(list(THREE_DOCS.items())))
    assert index_fingerprint(reordered, PLAIN_CFG) == base
    for texts in ({**THREE_DOCS, "d2": "zebra " + THREE_DOCS["d2"]},
                  {"d1": THREE_DOCS["d1"], "d2x": THREE_DOCS["d2"], "d3": THREE_DOCS["d3"]},
                  {"d1": "a b", "d2": "a c d", "d3": THREE_DOCS["d3"]}):
        other = index_fingerprint(texts, PLAIN_CFG)
        assert other["texts"] != base["texts"] and other["tokens"] == base["tokens"]
    for cfg in (dataclasses.replace(PLAIN_CFG, stopwords=frozenset({"a"})),
                dataclasses.replace(PLAIN_CFG, stem=True),
                dataclasses.replace(PLAIN_CFG, drop_digits=True)):
        other = index_fingerprint(THREE_DOCS, cfg)
        assert other["texts"] == base["texts"] and other["tokens"] != base["tokens"]
    ix = build_index(THREE_DOCS, PLAIN_CFG)
    assert ix.fingerprint == base
    save_index(ix, str(tmp_path / "ix.json"))
    assert load_index(str(tmp_path / "ix.json")).fingerprint == base


def test_load_index_rejects_other_version(tmp_path, three_doc_index):
    path = tmp_path / "ix.json"
    save_index(three_doc_index, str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported index version 1"):
        load_index(str(path))


@pytest.mark.parametrize("key", ["doc_lengths", "fingerprint", "postings"])
def test_load_index_rejects_artifact_without_a_field(tmp_path, three_doc_index, key):
    path = tmp_path / "ix.json"
    save_index(three_doc_index, str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload[key]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=f"lacks {key}"):
        load_index(str(path))


@pytest.mark.parametrize("fingerprint", ["x", [], {"texts": "a"},
                                         {"texts": "a", "tokens": "b", "c": "d"}])
def test_load_index_rejects_malformed_fingerprint(tmp_path, three_doc_index, fingerprint):
    path = tmp_path / "ix.json"
    save_index(three_doc_index, str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["fingerprint"] = fingerprint
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="malformed fingerprint"):
        load_index(str(path))


def _saved_payload(tmp_path, ix):
    save_index(ix, str(tmp_path / "ix.json"))
    return json.loads((tmp_path / "ix.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("change, message", [
    (lambda p: [p], "not an index artifact"),
    (lambda p: {**p, "postings": []}, "postings an object of lists"),
    (lambda p: {**p, "postings": {"a": 5}}, "postings an object of lists"),
    (lambda p: {**p, "doc_lengths": []}, "doc_lengths must be an object"),
    (lambda p: {**p, "postings": {**p["postings"], "a": [["d1"]]}}, "is not a"),
    (lambda p: {**p, "postings": {**p["postings"], "a": [["d1", "2"]]}}, "is not a"),
    (lambda p: {**p, "postings": {**p["postings"], "a": [["d1", 0]]}}, "is not a"),
    (lambda p: {**p, "postings": {**p["postings"], "a": [[["d1"], 2]]}}, "is not a"),
    (lambda p: {**p, "postings": {**p["postings"], "a": [["ghost", 2]]}}, "is not a"),
    (lambda p: {**p, "postings": {**p["postings"], "a": [["d1", 3]]}}, "do not add up"),
    (lambda p: {**p, "doc_lengths": {**p["doc_lengths"], "d2": 0}}, "do not add up"),
])
def test_load_index_rejects_malformed_statistics(tmp_path, three_doc_index, change,
                                                 message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(change(_saved_payload(tmp_path, three_doc_index))),
                    encoding="utf-8")
    with pytest.raises(InputError, match=message) as exc:
        load_index(str(path))
    assert str(path) in str(exc.value)


def test_load_index_rejects_a_cut_file_naming_it(tmp_path, three_doc_index):
    save_index(three_doc_index, str(tmp_path / "ix.json"))
    path = tmp_path / "cut.json"
    path.write_bytes((tmp_path / "ix.json").read_bytes()[:40])
    with pytest.raises(InputError, match="is not JSON") as exc:
        load_index(str(path))
    assert str(path) in str(exc.value)


def test_load_index_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError, match="not an index artifact"):
        load_index(str(path))


@given(st.integers(min_value=1, max_value=6))
def test_bm25_monotone_in_tf(extra):
    # More occurrences of the query term never lower the score.
    base = plain_index({"d": "t x", "e": "x y"})
    more = plain_index({"d": "t " * extra + "t x", "e": "x y"})
    assert bm25_score(more, ["t"], "d") >= bm25_score(base, ["t"], "d")


@settings(max_examples=30)
@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5))
def test_bm25_additive_over_query_terms(query):
    ix = plain_index(THREE_DOCS)
    for pid in THREE_DOCS:
        total = bm25_score(ix, query, pid)
        parts = sum(bm25_score(ix, [t], pid) for t in query)
        assert total == pytest.approx(parts, abs=1e-12)
