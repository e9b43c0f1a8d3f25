"""Experimentation-environment generation.

A candidate environment fixes, per heading query, the exact paragraph
pool a scorer is allowed to rank. The train flavor pairs each true
paragraph with a budget of same-article and other-article negatives;
the test flavor hides the labels inside the full article plus an equal
volume of foreign paragraphs in shuffled order. Every heading draws
from its own seeded generator, so regenerating one heading never
perturbs another and the whole environment is reproducible from a
single master seed.

Each page's paragraph list, the sorted list of every referenced
paragraph and each id's position in it are built once per corpus. A
page's foreign pool is that sorted list minus the page's own
paragraphs, so a paragraph shared by two pages is never foreign to a
page that holds it. The pool is a read-only view that skips the page's
own positions, not a copy, so a command costs O(paragraphs) plus a
little per draw instead of O(pages x paragraphs).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Mapping

from .corpus import Corpus, HeadingQuery, Page, iter_sections, section_query_id
from .index import (Bm25Params, Index, bm25_scores, matching_paragraphs,
                    rank_items)
from .utils import InputError, derive_seed

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
            raise InputError("negative budgets must be >= 0")


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


class _ForeignPool(Sequence):
    """Sorted ids minus the ones at a page's own positions, read-only.

    Item j (0 <= j < len; no negative indices) is ids[j + c], where c
    counts the own positions at or before it: with own positions
    o_0 < o_1 < ..., o_m - m ids precede o_m in the view, so c is how
    many of those counts are <= j.
    """

    __slots__ = ("_ids", "_skips", "_len")

    def __init__(self, ids: list[str], own_positions: list[int]):
        self._ids = ids
        self._skips = [pos - m for m, pos in enumerate(own_positions)]
        self._len = len(ids) - len(own_positions)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, j: int) -> str:
        if not 0 <= j < self._len:
            raise IndexError("foreign pool index out of range")
        return self._ids[j + bisect_right(self._skips, j)]


def _page_pools(corpus: Corpus) -> Iterator[tuple[Page, list[str], Sequence[str]]]:
    """(page, its paragraph ids, a view of its sorted foreign pool) per page.

    Sections are walked once per page; the referenced ids are sorted and
    their positions mapped once per corpus. A paragraph can be
    referenced from more than one page; anything a page already holds
    never appears in its foreign pool. The pool is a _ForeignPool over
    the shared sorted list, so building it costs O(the page's own ids),
    and random.sample draws from it exactly what it would draw from the
    equivalent list: it reads only len() and items, or list(pool).
    """
    page_pids = [_page_paragraph_ids(page) for page in corpus.pages]
    everything = sorted({p for pids in page_pids for p in pids})
    position = {p: i for i, p in enumerate(everything)}
    for page, pids in zip(corpus.pages, page_pids):
        own = sorted({position[p] for p in pids})
        yield page, pids, _ForeignPool(everything, own)


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
        scores = bm25_scores(ix, [(t, 1.0) for t in query.terms],
                             matching_paragraphs(ix, query.terms), params)
        pids = tuple(rank_items(query.query_id, scores, k).paragraph_ids())
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
                raise InputError(
                    f"line {line_no}: expected queryId<TAB>paragraphId<TAB>provenance")
            qid, pid, prov = parts
            rows.setdefault(qid, []).append((pid, prov))
    sets: dict[str, CandidateSet] = {}
    for qid, pairs in rows.items():
        pids = tuple(p for p, _ in pairs)
        if len(set(pids)) != len(pids):
            raise InputError(f"duplicate candidate row for query {qid!r}")
        sets[qid] = CandidateSet(
            query_id=qid,
            paragraph_ids=pids,
            provenance={p: prov for p, prov in pairs},
        )
    return sets
