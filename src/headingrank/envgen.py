"""Experimentation-environment generation.

A candidate environment fixes, per heading query, the exact paragraph
pool a scorer is allowed to rank. The train flavor pairs each true
paragraph with a budget of same-article and other-article negatives;
the test flavor hides the labels inside the full article plus an equal
volume of foreign paragraphs in shuffled order. Every heading draws
from its own seeded generator, so regenerating one heading never
perturbs another and the whole environment is reproducible from a
single master seed.

Each page's paragraph list and the sorted list of every referenced
paragraph are built once per corpus; a page's foreign pool is that
sorted list minus the page's own paragraphs, so a paragraph shared by
two pages is never foreign to a page that holds it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .corpus import Corpus, HeadingQuery, Page, iter_sections, section_query_id
from .index import Bm25Params, Index, bm25_score, retrieve_topk
from .utils import derive_seed

PROVENANCE_TRUE = "true-section"
PROVENANCE_SAME = "same-article"
PROVENANCE_OTHER = "other-article"
PROVENANCE_RETRIEVED = "retrieved"


@dataclass(frozen=True)
class EnvSpec:
    neg_same_article: int = 5
    neg_other_article: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.neg_same_article < 0 or self.neg_other_article < 0:
            raise ValueError("negative budgets must be >= 0")


@dataclass(frozen=True)
class CandidateSet:
    query_id: str
    paragraph_ids: tuple[str, ...]
    provenance: dict[str, str]
    # how many negatives the corpus could not supply
    deficit_same: int = 0
    deficit_other: int = 0

    def __post_init__(self):
        if len(set(self.paragraph_ids)) != len(self.paragraph_ids):
            raise ValueError(f"duplicate candidate for query {self.query_id!r}")


def _page_paragraph_ids(page: Page) -> list[str]:
    out: list[str] = []
    for section in iter_sections(page):
        out.extend(section.paragraphs)
    return out


def _page_pools(corpus: Corpus) -> Iterator[tuple[Page, list[str], list[str]]]:
    """(page, its paragraph ids, its sorted foreign pool) for every page.

    Sections are walked once per page and the referenced ids sorted once
    per corpus. A paragraph can be referenced from more than one page;
    anything a page already holds never reappears in its foreign pool.
    Pools are yielded one page at a time, so only one is alive at once.
    """
    page_pids = [_page_paragraph_ids(page) for page in corpus.pages]
    everything = sorted({p for pids in page_pids for p in pids})
    for page, pids in zip(corpus.pages, page_pids):
        own = set(pids)
        yield page, pids, [p for p in everything if p not in own]


def _sample(rng: random.Random, pool: Sequence[str], want: int) -> tuple[list[str], int]:
    """Up to `want` items without replacement, plus the unmet deficit."""
    take = min(want, len(pool))
    return rng.sample(pool, take), want - take


def build_train_env(corpus: Corpus, spec: EnvSpec = EnvSpec()) -> dict[str, CandidateSet]:
    """Labeled candidate pools for every heading with true paragraphs.

    Per true paragraph the pool budgets neg_same_article paragraphs
    from other sections of the same article and neg_other_article from
    other articles, all drawn without replacement under a seed derived
    from (master seed, query id). When a pool runs short the whole pool
    is taken and the shortfall recorded. A paragraph the page itself
    holds, even one shared with another page, is never other-article.
    """
    sets: dict[str, CandidateSet] = {}
    for page, page_pids, foreign in _page_pools(corpus):
        for section in iter_sections(page):
            if not section.paragraphs:
                continue
            qid = section_query_id(page, section)
            rng = random.Random(derive_seed(spec.seed, qid))
            own = set(section.paragraphs)
            same_pool = sorted(p for p in page_pids if p not in own)
            n_true = len(section.paragraphs)
            same, deficit_same = _sample(rng, same_pool,
                                         n_true * spec.neg_same_article)
            other, deficit_other = _sample(rng, foreign,
                                           n_true * spec.neg_other_article)
            ordered = list(section.paragraphs) + same + other
            provenance = {p: PROVENANCE_TRUE for p in section.paragraphs}
            provenance.update({p: PROVENANCE_SAME for p in same})
            provenance.update({p: PROVENANCE_OTHER for p in other})
            sets[qid] = CandidateSet(
                query_id=qid,
                paragraph_ids=tuple(ordered),
                provenance=provenance,
                deficit_same=deficit_same,
                deficit_other=deficit_other,
            )
    return sets


def build_test_env(corpus: Corpus, seed: int = 0) -> dict[str, CandidateSet]:
    """Unlabeled-looking pools for every heading of every page.

    Each pool holds the whole article's paragraphs plus an equal count
    sampled from other articles, shuffled under the heading's derived
    seed. Provenance still records where each candidate came from so
    downstream analysis can slice by origin. A paragraph the page itself
    holds, even one shared with another page, is never other-article.
    """
    sets: dict[str, CandidateSet] = {}
    for page, page_pids, foreign in _page_pools(corpus):
        for section in iter_sections(page):
            qid = section_query_id(page, section)
            rng = random.Random(derive_seed(seed, qid))
            own_section = set(section.paragraphs)
            other, deficit_other = _sample(rng, foreign, len(page_pids))
            ordered = list(page_pids) + other
            rng.shuffle(ordered)
            provenance = {}
            for p in page_pids:
                provenance[p] = PROVENANCE_TRUE if p in own_section else PROVENANCE_SAME
            provenance.update({p: PROVENANCE_OTHER for p in other})
            sets[qid] = CandidateSet(
                query_id=qid,
                paragraph_ids=tuple(ordered),
                provenance=provenance,
                deficit_other=deficit_other,
            )
    return sets


def generate_candidates(ix: Index, queries: Sequence[HeadingQuery], k: int = 100,
                        params: Bm25Params = Bm25Params()) -> dict[str, CandidateSet]:
    """First-stage pools: top-k paragraphs by query-only bm25."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sets: dict[str, CandidateSet] = {}
    for query in queries:
        ranking = retrieve_topk(
            ix, lambda terms, pid: bm25_score(ix, terms, pid, params),
            query.terms, k, query_id=query.query_id)
        pids = tuple(ranking.paragraph_ids())
        sets[query.query_id] = CandidateSet(
            query_id=query.query_id,
            paragraph_ids=pids,
            provenance={p: PROVENANCE_RETRIEVED for p in pids},
        )
    return sets


def write_candidates(sets: Mapping[str, CandidateSet], path: str) -> None:
    """One `queryId<TAB>paragraphId<TAB>provenance` row per candidate."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(sets):
            cs = sets[qid]
            for pid in cs.paragraph_ids:
                fh.write(f"{qid}\t{pid}\t{cs.provenance[pid]}\n")


def read_candidates(path: str) -> dict[str, CandidateSet]:
    rows: dict[str, list[tuple[str, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"line {line_no}: expected queryId<TAB>paragraphId<TAB>provenance")
            qid, pid, prov = parts
            rows.setdefault(qid, []).append((pid, prov))
    sets: dict[str, CandidateSet] = {}
    for qid, pairs in rows.items():
        pids = tuple(p for p, _ in pairs)
        if len(set(pids)) != len(pids):
            raise ValueError(f"duplicate candidate row for query {qid!r}")
        sets[qid] = CandidateSet(
            query_id=qid,
            paragraph_ids=pids,
            provenance={p: prov for p, prov in pairs},
        )
    return sets
