"""Train/test environment construction and first-stage candidate pools."""

import inspect
import random

import pytest

from headingrank.corpus import all_queries, derive_qrels, iter_sections
from headingrank.envgen import (
    PROVENANCE_OTHER,
    PROVENANCE_RETRIEVED,
    PROVENANCE_SAME,
    PROVENANCE_TRUE,
    CandidateSet,
    EnvSpec,
    _page_pools,
    build_test_env,
    build_train_env,
    generate_candidates,
    read_candidates,
    write_candidates,
)
from headingrank.index import bm25_score, retrieve_topk

from conftest import PLAIN_CFG, corpus_from_pages, page, plain_index, section


def _env_corpus(n_pages=4, paras_per_section=2, sections=3):
    pages = []
    for pi in range(n_pages):
        secs = []
        for si in range(sections):
            paras = [(f"p{pi}s{si}n{ni}", f"text page {pi} sec {si} item {ni}")
                     for ni in range(paras_per_section)]
            secs.append(section(f"Head{si}", paras))
        pages.append(page(f"pg{pi}", f"Title {pi}", secs))
    return corpus_from_pages(pages)


def test_env_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec(neg_same_article=-1)
    with pytest.raises(ValueError):
        EnvSpec(neg_other_article=-2)


def test_candidate_set_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate candidate"):
        CandidateSet(query_id="q", paragraph_ids=("a", "a"),
                     provenance={"a": PROVENANCE_TRUE})


# --- train environment ------------------------------------------------------

def test_train_env_budgets_and_recall():
    corpus = _env_corpus()
    qrels = derive_qrels(corpus)
    env = build_train_env(corpus, EnvSpec(seed=3))
    assert set(env) == set(qrels.positives)
    for qid, cs in env.items():
        true = [p for p in cs.paragraph_ids
                if cs.provenance[p] == PROVENANCE_TRUE]
        same = [p for p in cs.paragraph_ids
                if cs.provenance[p] == PROVENANCE_SAME]
        other = [p for p in cs.paragraph_ids
                 if cs.provenance[p] == PROVENANCE_OTHER]
        # Guaranteed recall: every positive present, in attachment order.
        assert set(true) == set(qrels.positives[qid])
        assert tuple(cs.paragraph_ids[:len(true)]) == tuple(true)
        n_true = len(true)
        assert len(same) <= 5 * n_true
        assert len(other) <= 5 * n_true
        assert len(cs.paragraph_ids) <= 22  # 2 + 10 + 10 at two positives


def test_train_env_pool_membership():
    corpus = _env_corpus()
    env = build_train_env(corpus, EnvSpec(seed=1))
    page_of = {}
    for pg in corpus.pages:
        for s in pg.sections:
            for pid in s.paragraphs:
                page_of[pid] = pg.id
    for qid, cs in env.items():
        own_page = qid.split("/")[0]
        for pid in cs.paragraph_ids:
            if cs.provenance[pid] == PROVENANCE_SAME:
                assert page_of[pid] == own_page
            elif cs.provenance[pid] == PROVENANCE_OTHER:
                assert page_of[pid] != own_page


def test_train_env_same_article_excludes_own_section():
    corpus = _env_corpus()
    qrels = derive_qrels(corpus)
    env = build_train_env(corpus, EnvSpec(seed=5))
    for qid, cs in env.items():
        same = {p for p in cs.paragraph_ids
                if cs.provenance[p] == PROVENANCE_SAME}
        assert not same & qrels.positives[qid]


def test_train_env_single_section_article_records_deficit():
    corpus = corpus_from_pages([
        page("solo", "Solo", [section("Only", [("s1", "lone text")])]),
        page("big", "Big", [section("H", [("b1", "one"), ("b2", "two")])]),
    ])
    env = build_train_env(corpus, EnvSpec(seed=0))
    solo = env["solo/Only"]
    assert solo.deficit_same == 5  # no other section to draw from
    assert solo.deficit_other == 3  # only two foreign paragraphs exist
    assert [p for p in solo.paragraph_ids
            if solo.provenance[p] == PROVENANCE_OTHER] != []


def test_train_env_zero_budgets():
    corpus = _env_corpus(n_pages=2)
    env = build_train_env(corpus, EnvSpec(neg_same_article=0,
                                          neg_other_article=0))
    for qid, cs in env.items():
        assert all(v == PROVENANCE_TRUE for v in cs.provenance.values())
        assert cs.deficit_same == 0 and cs.deficit_other == 0


def test_train_env_deterministic_and_seed_sensitive():
    corpus = _env_corpus()
    a = build_train_env(corpus, EnvSpec(seed=42))
    b = build_train_env(corpus, EnvSpec(seed=42))
    c = build_train_env(corpus, EnvSpec(seed=43))
    assert a == b
    assert any(a[q].paragraph_ids != c[q].paragraph_ids for q in a)


def test_train_env_skips_paragraphless_headings():
    corpus = corpus_from_pages([
        page("a", "A", [section("Empty", children=[
            section("Full", [("f1", "some text")])])]),
        page("b", "B", [section("H", [("b1", "other text")])]),
    ])
    env = build_train_env(corpus)
    assert "a/Empty" not in env
    assert "a/Empty/Full" in env


def test_shared_paragraph_is_never_other_article():
    # x1 is defined on page a and referenced from page b.
    corpus = corpus_from_pages([
        page("a", "A", [section("H", [("x1", "shared text"), ("a1", "alpha")]),
                        section("K", [("a2", "alpha two")])]),
        page("b", "B", [section("H", [("x1", None), ("b1", "beta")]),
                        section("K", [("b2", "beta two")])]),
        page("c", "C", [section("H", [("c1", "gamma")])]),
    ])
    spec = EnvSpec(neg_same_article=50, neg_other_article=50, seed=3)
    for env in (build_train_env(corpus, spec), build_test_env(corpus, seed=3)):
        for qid, cs in env.items():
            if qid.startswith(("a/", "b/")):
                assert cs.provenance.get("x1") != PROVENANCE_OTHER, qid
    # The budget takes the whole foreign pool, so x1 is foreign to c.
    assert build_train_env(corpus, spec)["c/H"].provenance["x1"] == PROVENANCE_OTHER


# --- per-page foreign pools -----------------------------------------------------

def _reference_page_pids(page):
    return [p for s in iter_sections(page) for p in s.paragraphs]


def _reference_foreign_pool(corpus, page):
    """The per-page rebuild that _page_pools replaced, kept as an oracle."""
    own = set(_reference_page_pids(page))
    pool = set()
    for other in corpus.pages:
        if other.id == page.id:
            continue
        pool.update(p for p in _reference_page_pids(other) if p not in own)
    return sorted(pool)


def _random_corpus(rng):
    """1-5 pages of nested, sometimes empty sections; some paragraphs are
    references to ones defined on an earlier page."""
    defined = []
    counter = iter(range(10**6))

    def sections(depth, used):
        out = []
        for _ in range(rng.randint(0 if depth else 1, 3)):
            paras = []
            for _ in range(rng.randint(0, 3)):
                shared = [p for p in defined if p not in used]
                if shared and rng.random() < 0.35:
                    pid = rng.choice(shared)
                    paras.append((pid, None))
                else:
                    pid = f"p{next(counter):03d}"
                    paras.append((pid, f"text {pid}"))
                used.add(pid)
            children = (sections(depth + 1, used)
                        if depth < 2 and rng.random() < 0.4 else None)
            out.append(section(f"H{next(counter)}", paras, children))
        return out

    pages = []
    for pi in range(rng.randint(1, 5)):
        used = set()
        pages.append(page(f"pg{pi}", f"Title {pi}", sections(0, used)))
        defined.extend(sorted(used - set(defined)))
    return corpus_from_pages(pages)


def test_page_pools_match_reference_pool():
    rng = random.Random(20)
    corpora_with_shared = 0
    for _ in range(60):
        corpus = _random_corpus(rng)
        pools = _page_pools(corpus)
        assert inspect.isgenerator(pools)
        triples = list(pools)
        assert [t[0] for t in triples] == list(corpus.pages)
        for pg, pids, foreign in triples:
            assert pids == _reference_page_pids(pg)
            assert foreign == _reference_foreign_pool(corpus, pg)
        holders = {}
        for pg in corpus.pages:
            for pid in _reference_page_pids(pg):
                holders.setdefault(pid, set()).add(pg.id)
        corpora_with_shared += any(len(h) > 1 for h in holders.values())
    assert corpora_with_shared >= 10


# --- test environment ---------------------------------------------------------

def test_test_env_doubles_article():
    corpus = _env_corpus(n_pages=4, paras_per_section=2, sections=3)
    env = build_test_env(corpus, seed=9)
    for pg in corpus.pages:
        article = {p for s in pg.sections for p in s.paragraphs}
        for qid, cs in env.items():
            if not qid.startswith(pg.id + "/"):
                continue
            assert len(cs.paragraph_ids) == 2 * len(article)
            assert article <= set(cs.paragraph_ids)
            foreign = [p for p in cs.paragraph_ids
                       if cs.provenance[p] == PROVENANCE_OTHER]
            assert len(foreign) == len(article)


def test_test_env_provenance_slices():
    corpus = _env_corpus(n_pages=3)
    qrels = derive_qrels(corpus)
    env = build_test_env(corpus, seed=2)
    for qid, cs in env.items():
        true = {p for p, v in cs.provenance.items() if v == PROVENANCE_TRUE}
        assert true == set(qrels.positives.get(qid, frozenset()))


def test_test_env_covers_every_heading_and_shuffles():
    corpus = _env_corpus(n_pages=3, sections=2)
    env = build_test_env(corpus, seed=7)
    n_sections = sum(1 for pg in corpus.pages for s in pg.sections)
    assert len(env) == n_sections
    # Some heading's order must differ from the unshuffled layout.
    assert any(
        list(cs.paragraph_ids[:6]) != sorted(cs.paragraph_ids[:6])
        for cs in env.values()
    )
    assert build_test_env(corpus, seed=7) == env


def test_test_env_small_corpus_takes_all_foreign():
    corpus = corpus_from_pages([
        page("big", "B", [section("H", [(f"b{i}", f"text {i}") for i in range(4)])]),
        page("tiny", "T", [section("H", [("t1", "little text")])]),
    ])
    env = build_test_env(corpus, seed=0)
    big = env["big/H"]
    assert big.deficit_other == 3  # wanted 4 foreign, corpus offers 1
    assert len(big.paragraph_ids) == 5


# --- first-stage retrieval pools ---------------------------------------------

def test_generate_candidates_matches_topk():
    corpus = _env_corpus()
    texts = {pid: p.text for pid, p in corpus.paragraphs.items()}
    ix = plain_index(texts)
    queries = all_queries(corpus, PLAIN_CFG)
    sets = generate_candidates(ix, queries, k=5)
    assert set(sets) == {q.query_id for q in queries}
    for q in queries:
        expected = retrieve_topk(
            ix, lambda terms, pid: bm25_score(ix, terms, pid), q.terms, 5,
            query_id=q.query_id)
        cs = sets[q.query_id]
        assert list(cs.paragraph_ids) == expected.paragraph_ids()
        assert all(v == PROVENANCE_RETRIEVED for v in cs.provenance.values())
        assert len(cs.paragraph_ids) <= 5


def test_generate_candidates_k_one_and_validation():
    corpus = _env_corpus(n_pages=2)
    texts = {pid: p.text for pid, p in corpus.paragraphs.items()}
    ix = plain_index(texts)
    queries = all_queries(corpus, PLAIN_CFG)[:1]
    sets = generate_candidates(ix, queries, k=1)
    assert len(sets[queries[0].query_id].paragraph_ids) == 1
    with pytest.raises(ValueError):
        generate_candidates(ix, queries, k=0)


# --- candidate file format -----------------------------------------------------

def test_candidates_roundtrip(tmp_path):
    corpus = _env_corpus(n_pages=2)
    env = build_train_env(corpus, EnvSpec(seed=4))
    path = tmp_path / "candidates.tsv"
    write_candidates(env, str(path))
    again = read_candidates(str(path))
    assert set(again) == set(env)
    for qid in env:
        assert again[qid].paragraph_ids == tuple(env[qid].paragraph_ids)
        assert again[qid].provenance == env[qid].provenance
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 3


def test_read_candidates_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("q1\tp1\n")
    with pytest.raises(ValueError, match="line 1"):
        read_candidates(str(path))
    path.write_text("q1\tp1\ttrue-section\nq1\tp1\ttrue-section\n")
    with pytest.raises(ValueError, match="duplicate candidate row"):
        read_candidates(str(path))
