"""Corpus parsing, query construction, qrels derivation, fold splits."""

import json

import pytest
from hypothesis import given, strategies as st

from headingrank.corpus import (
    IntegrityError,
    ParseError,
    all_queries,
    assign_folds,
    build_queries,
    derive_qrels,
    iter_sections,
    load_corpus,
    parse_corpus,
    read_qrels,
    section_query_id,
    write_corpus,
    write_qrels,
)
from headingrank.textproc import tokenize

from conftest import PLAIN_CFG, corpus_from_pages, page, section


def test_parse_one_page():
    corpus = corpus_from_pages([
        page("p", "Title", [section("Intro", [("x1", "alpha"), ("x2", "beta")])]),
    ])
    assert len(corpus.pages) == 1
    assert set(corpus.paragraphs) == {"x1", "x2"}
    assert corpus.paragraphs["x1"].text == "alpha"


def test_parse_unknown_reference_rejected():
    with pytest.raises(IntegrityError, match="ghost"):
        corpus_from_pages([
            page("p", "T", [{"heading": "H", "paragraphs": ["ghost"]}]),
        ])


def test_parse_duplicate_paragraph_definition_rejected():
    with pytest.raises(IntegrityError, match="duplicate paragraph"):
        corpus_from_pages([
            page("a", "A", [section("H", [("x1", "one")])]),
            page("b", "B", [section("H", [("x1", "two")])]),
        ])


def test_parse_duplicate_reference_within_page_rejected():
    with pytest.raises(IntegrityError, match="referenced twice"):
        corpus_from_pages([
            page("a", "A", [
                section("H1", [("x1", "one")]),
                {"heading": "H2", "paragraphs": ["x1"]},
            ]),
        ])


def test_cross_page_reference_by_id_allowed():
    corpus = corpus_from_pages([
        page("a", "A", [section("H", [("x1", "shared text")])]),
        page("b", "B", [{"heading": "H", "paragraphs": ["x1"]}]),
    ])
    assert corpus.pages[1].sections[0].paragraphs == ("x1",)


def test_parse_error_carries_line_number():
    lines = [json.dumps(page("a", "A", [section("H", [("x1", "t")])])), "{broken"]
    with pytest.raises(ParseError) as exc:
        parse_corpus(lines)
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_parse_rejects_duplicate_page_id():
    rec = json.dumps({"id": "a", "title": "A", "sections": []})
    with pytest.raises(IntegrityError, match="duplicate page"):
        parse_corpus([rec, rec])


def test_parse_rejects_empty_paragraph_text():
    with pytest.raises(IntegrityError, match="empty text"):
        corpus_from_pages([page("a", "A", [section("H", [("x1", "")])])])


@pytest.mark.parametrize("record", [
    {"id": "a", "title": "A", "sections": 5},
    {"id": "a", "title": "A", "sections": [{"heading": "H", "paragraphs": "x1"}]},
    {"id": "a", "title": "A", "sections": [{"heading": "H", "children": 5}]},
    {"id": "a", "title": "A", "sections": [{"heading": "H", "children": None}]},
])
def test_parse_rejects_a_field_that_is_not_a_list(record):
    lines = [json.dumps(page("b", "B", [])), json.dumps(record)]
    with pytest.raises(ParseError, match="must be a list") as exc:
        parse_corpus(lines)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("record, what", [
    ({"id": "a\ud800", "title": "A"}, "page id"),
    ({"id": "a", "title": "A", "sections": [{"heading": "H\udc00"}]}, "heading"),
    ({"id": "a", "title": "A", "sections": [{"heading": "H", "paragraphs": ["\ud800"]}]},
     "paragraph id"),
])
def test_parse_rejects_a_lone_surrogate_in_an_id(record, what):
    # JSON escapes can spell one; a query id or a run row could not encode it
    with pytest.raises(ParseError, match=f"line 1: {what} .* holds a lone surrogate"):
        parse_corpus([json.dumps(record)])


def test_parse_skips_blank_lines():
    lines = ["", json.dumps(page("a", "A", [])), "   "]
    assert len(parse_corpus(lines).pages) == 1


def test_raw_text_nested_leaf_to_root():
    pg = corpus_from_pages([
        page("pg", "T", [
            section("H2", children=[
                section("H2.3", children=[
                    section("H2.3.4", [("x1", "deep text")]),
                ]),
            ]),
        ]),
    ]).pages[0]
    raws = {q.heading: q.raw_text for q in build_queries(pg)}
    assert raws["H2.3.4"] == "H2.3.4 H2.3 H2 T"
    assert raws["H2.3"] == "H2.3 H2 T"
    assert raws["H2"] == "H2 T"


def test_raw_text_depth_one():
    pg = corpus_from_pages([
        page("pg", "X", [section("History", [("x1", "old text")])]),
    ]).pages[0]
    (q,) = build_queries(pg)
    assert q.raw_text == "History X"
    assert q.terms == tuple(tokenize("History X"))


def test_one_query_per_section_at_every_depth(two_page_corpus):
    for pg in two_page_corpus.pages:
        n_sections = sum(1 for _ in iter_sections(pg))
        assert len(build_queries(pg)) == n_sections


def test_query_ids_unique_and_encoded():
    pg = corpus_from_pages([
        page("my page", "T", [section("A/B", children=[section("C D")])]),
    ]).pages[0]
    qids = [q.query_id for q in build_queries(pg)]
    assert len(qids) == len(set(qids))
    for qid in qids:
        assert " " not in qid
    assert qids[0] == "my%20page/A%2FB"
    assert qids[1] == "my%20page/A%2FB/C%20D"


def test_derive_qrels_exact_section(two_page_corpus):
    qrels = derive_qrels(two_page_corpus)
    pg = two_page_corpus.pages[0]
    delta = next(s for s in iter_sections(pg) if s.heading == "Delta")
    birds = next(s for s in iter_sections(pg) if s.heading == "Birds")
    assert qrels.positives[section_query_id(pg, delta)] == {"p3"}
    assert qrels.positives[section_query_id(pg, birds)] == {"p4"}


def test_qrels_positive_count_equals_attachments(two_page_corpus):
    qrels = derive_qrels(two_page_corpus)
    n_attach = sum(
        len(s.paragraphs)
        for pg in two_page_corpus.pages
        for s in iter_sections(pg)
    )
    assert sum(len(v) for v in qrels.positives.values()) == n_attach


def test_qrels_skip_empty_sections():
    corpus = corpus_from_pages([
        page("a", "A", [section("Empty", children=[section("Full", [("x1", "t")])])]),
    ])
    qrels = derive_qrels(corpus)
    assert list(qrels.positives) == ["a/Empty/Full"]


def _n_page_corpus(n: int):
    return corpus_from_pages([
        page(f"p{i:03d}", f"T{i}", [section("H", [(f"x{i:03d}", f"text {i}")])])
        for i in range(n)
    ])


def test_assign_folds_balanced_201():
    folds = assign_folds(_n_page_corpus(201), k=5, seed=7)
    sizes = sorted(
        sum(1 for f in folds.mapping.values() if f == i) for i in range(5)
    )
    assert sizes == [40, 40, 40, 40, 41]


def test_assign_folds_partition_and_determinism():
    corpus = _n_page_corpus(10)
    a = assign_folds(corpus, k=5, seed=3)
    b = assign_folds(corpus, k=5, seed=3)
    assert a.mapping == b.mapping
    assert set(a.mapping) == {p.id for p in corpus.pages}
    assert all(0 <= f < 5 for f in a.mapping.values())
    sizes = [sum(1 for f in a.mapping.values() if f == i) for i in range(5)]
    assert sizes == [2, 2, 2, 2, 2]


def test_assign_folds_seed_changes_split():
    corpus = _n_page_corpus(20)
    a = assign_folds(corpus, k=5, seed=0)
    b = assign_folds(corpus, k=5, seed=1)
    assert a.mapping != b.mapping


def test_assign_folds_bad_k():
    corpus = _n_page_corpus(3)
    with pytest.raises(ValueError):
        assign_folds(corpus, k=1, seed=0)
    with pytest.raises(ValueError):
        assign_folds(corpus, k=4, seed=0)


def test_corpus_roundtrip(tmp_path, two_page_corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(two_page_corpus, str(path))
    again = load_corpus(str(path))
    assert again == two_page_corpus
    # A second write is byte-identical.
    path2 = tmp_path / "corpus2.jsonl"
    write_corpus(again, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_qrels_roundtrip(tmp_path, two_page_corpus):
    qrels = derive_qrels(two_page_corpus)
    path = tmp_path / "qrels.txt"
    write_qrels(qrels, str(path))
    assert read_qrels(str(path)).positives == qrels.positives
    first_line = path.read_text().splitlines()[0].split()
    assert first_line[1] == "0" and first_line[3] == "1"


def test_read_qrels_rejects_bad_grade(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q 0 p 2\n")
    with pytest.raises(ParseError):
        read_qrels(str(path))


def test_all_queries_covers_every_page(two_page_corpus):
    queries = all_queries(two_page_corpus)
    assert {q.page_id for q in queries} == {"a", "b"}
    assert len({q.query_id for q in queries}) == len(queries)


def test_build_queries_respects_token_config(two_page_corpus):
    pg = two_page_corpus.pages[0]
    plain = build_queries(pg, PLAIN_CFG)
    q = next(q for q in plain if q.heading == "Flow")
    assert q.terms == ("flow", "rivers")


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=99))
def test_fold_sizes_differ_by_at_most_one(k, seed):
    corpus = _n_page_corpus(23)
    folds = assign_folds(corpus, k=k, seed=seed)
    sizes = [sum(1 for f in folds.mapping.values() if f == i) for i in range(k)]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1
