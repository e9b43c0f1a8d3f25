"""Outline-structured corpus model: pages, sections, paragraphs.

Parses the line-delimited exchange format (one JSON page record per
line), derives heading queries and exact-section relevance judgments,
and assigns pages to folds.

A paragraph entry inside a section may either define the paragraph
inline ({"id", "text"}) or reference one defined elsewhere in the
stream (a bare id string, or an object without "text"). References to
ids that are never defined fail integrity validation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator
from urllib.parse import quote, unquote

from .textproc import TokenPipelineConfig, DEFAULT_CONFIG, tokenize
from .utils import InputError


class CorpusError(InputError):
    pass


class ParseError(CorpusError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(CorpusError):
    """Structurally valid input violating a corpus invariant."""


@dataclass(frozen=True)
class Paragraph:
    id: str
    text: str


@dataclass(frozen=True)
class Section:
    heading: str
    path: tuple[str, ...]  # ancestor headings, root first, title excluded
    paragraphs: tuple[str, ...]  # attached paragraph ids, in document order
    children: tuple["Section", ...]


@dataclass(frozen=True)
class Page:
    id: str
    title: str
    sections: tuple[Section, ...]


@dataclass(frozen=True)
class Corpus:
    pages: tuple[Page, ...]
    paragraphs: dict[str, Paragraph]

    def page(self, page_id: str) -> Page:
        for p in self.pages:
            if p.id == page_id:
                return p
        raise KeyError(page_id)


@dataclass(frozen=True)
class HeadingQuery:
    query_id: str
    raw_text: str
    terms: tuple[str, ...]
    page_id: str
    heading: str  # leaf heading
    path: tuple[str, ...]  # ancestors, root first


@dataclass(frozen=True)
class Qrels:
    """Positive (grade 1) judgments per query; everything else is 0."""

    positives: dict[str, frozenset[str]]

    def relevant(self, query_id: str) -> frozenset[str]:
        return self.positives.get(query_id, frozenset())


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    mapping: dict[str, int]  # pageId -> fold in [0, k)

    def fold_of(self, page_id: str) -> int:
        if page_id not in self.mapping:
            raise ValueError(f"page {page_id!r} missing from fold assignment")
        return self.mapping[page_id]


def iter_sections(page: Page) -> Iterator[Section]:
    """All sections of a page, depth-first pre-order."""

    def walk(sections: tuple[Section, ...]) -> Iterator[Section]:
        for s in sections:
            yield s
            yield from walk(s.children)

    yield from walk(page.sections)


def section_query_id(page: Page, section: Section) -> str:
    """Stable id: pageId plus the full heading path, '/'-joined.

    Components are percent-encoded so ids stay whitespace-free and fit
    the space-separated run/qrels formats.
    """
    parts = [quote(page.id, safe="")]
    parts.extend(quote(h, safe="") for h in (*section.path, section.heading))
    return "/".join(parts)


def query_page(query_id: str) -> str:
    """The page id in a section_query_id; an id without '/' is its own page."""
    return unquote(query_id.split("/", 1)[0])


def _list_field(record: dict, key: str, line_no: int) -> list:
    """record[key], or [] when it is absent; anything but a list is a ParseError."""
    value = record.get(key, [])
    if not isinstance(value, list):
        raise ParseError(line_no, f"{key!r} must be a list")
    return value


def _check_encodable(value: str, line_no: int, what: str) -> None:
    """Reject a lone surrogate, which a JSON escape can spell and no output
    file could encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(line_no, f"{what} {value!r} holds a lone surrogate") from None


def _parse_section(node: object, path: tuple[str, ...], line_no: int,
                   defs: dict[str, str], refs: list[tuple[str, str]],
                   page_id: str, seen_in_page: set[str]) -> Section:
    if not isinstance(node, dict):
        raise ParseError(line_no, "section must be an object")
    heading = node.get("heading")
    if not isinstance(heading, str) or not heading:
        raise ParseError(line_no, "section requires a non-empty 'heading'")
    _check_encodable(heading, line_no, "heading")
    para_ids = []
    for entry in _list_field(node, "paragraphs", line_no):
        if isinstance(entry, str):
            pid, text = entry, None
        elif isinstance(entry, dict) and isinstance(entry.get("id"), str):
            pid, text = entry["id"], entry.get("text")
        else:
            raise ParseError(line_no, "paragraph entry must be an id or an {id, text} object")
        _check_encodable(pid, line_no, "paragraph id")
        if pid in seen_in_page:
            raise IntegrityError(
                f"line {line_no}: paragraph {pid!r} referenced twice by page {page_id!r}")
        seen_in_page.add(pid)
        if text is not None:
            if not isinstance(text, str) or not text:
                raise IntegrityError(f"line {line_no}: paragraph {pid!r} has empty text")
            if pid in defs:
                raise IntegrityError(f"line {line_no}: duplicate paragraph id {pid!r}")
            defs[pid] = text
        else:
            refs.append((page_id, pid))
        para_ids.append(pid)
    children = tuple(
        _parse_section(c, (*path, heading), line_no, defs, refs, page_id, seen_in_page)
        for c in _list_field(node, "children", line_no)
    )
    return Section(heading=heading, path=path, paragraphs=tuple(para_ids), children=children)


def parse_corpus(lines: Iterable[str]) -> Corpus:
    """Parse the exchange format; validates referential integrity."""
    pages: list[Page] = []
    defs: dict[str, str] = {}
    refs: list[tuple[str, str]] = []
    seen_pages: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(line_no, f"invalid JSON ({e.msg})") from e
        if not isinstance(record, dict):
            raise ParseError(line_no, "page record must be an object")
        page_id = record.get("id")
        title = record.get("title")
        if not isinstance(page_id, str) or not page_id:
            raise ParseError(line_no, "page requires a non-empty 'id'")
        _check_encodable(page_id, line_no, "page id")
        if not isinstance(title, str):
            raise ParseError(line_no, "page requires a 'title'")
        if page_id in seen_pages:
            raise IntegrityError(f"line {line_no}: duplicate page id {page_id!r}")
        seen_pages.add(page_id)
        seen_in_page: set[str] = set()
        sections = tuple(
            _parse_section(s, (), line_no, defs, refs, page_id, seen_in_page)
            for s in _list_field(record, "sections", line_no)
        )
        pages.append(Page(id=page_id, title=title, sections=sections))
    for page_id, pid in refs:
        if pid not in defs:
            raise IntegrityError(
                f"page {page_id!r} references unknown paragraph id {pid!r}")
    paragraphs = {pid: Paragraph(pid, text) for pid, text in defs.items()}
    return Corpus(pages=tuple(pages), paragraphs=paragraphs)


def load_corpus(path: str) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh)


def write_corpus(corpus: Corpus, path: str) -> None:
    """Serialize back to the exchange format (inline definitions, one page per line)."""
    emitted: set[str] = set()

    def section_obj(s: Section) -> dict:
        paras: list[object] = []
        for pid in s.paragraphs:
            if pid in emitted:
                paras.append(pid)
            else:
                emitted.add(pid)
                paras.append({"id": pid, "text": corpus.paragraphs[pid].text})
        return {
            "heading": s.heading,
            "paragraphs": paras,
            "children": [section_obj(c) for c in s.children],
        }

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for page in corpus.pages:
            record = {
                "id": page.id,
                "title": page.title,
                "sections": [section_obj(s) for s in page.sections],
            }
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def build_queries(page: Page, cfg: TokenPipelineConfig = DEFAULT_CONFIG) -> list[HeadingQuery]:
    """One query per section at every depth.

    rawText lists headings leaf-to-root and ends with the page title:
    a section at H2/H2.3/H2.3.4 on page titled T yields
    "H2.3.4 H2.3 H2 T".
    """
    queries = []
    for section in iter_sections(page):
        parts = [section.heading, *reversed(section.path), page.title]
        raw = " ".join(parts)
        queries.append(
            HeadingQuery(
                query_id=section_query_id(page, section),
                raw_text=raw,
                terms=tuple(tokenize(raw, cfg)),
                page_id=page.id,
                heading=section.heading,
                path=section.path,
            )
        )
    return queries


def all_queries(corpus: Corpus, cfg: TokenPipelineConfig = DEFAULT_CONFIG) -> list[HeadingQuery]:
    out = []
    for page in corpus.pages:
        out.extend(build_queries(page, cfg))
    return out


def derive_qrels(corpus: Corpus) -> Qrels:
    """Grade 1 exactly for paragraphs attached to the query's own section.

    Descendant sections' paragraphs are not relevant to ancestor
    headings.
    """
    positives: dict[str, frozenset[str]] = {}
    for page in corpus.pages:
        for section in iter_sections(page):
            if section.paragraphs:
                qid = section_query_id(page, section)
                positives[qid] = frozenset(section.paragraphs)
    return Qrels(positives=positives)


def balanced_folds(ids: Iterable[str], k: int, seed: int) -> FoldAssignment:
    """Seeded partition of distinct ids into k folds whose sizes differ by at most 1."""
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    order = sorted(set(ids))
    if k > len(order):
        raise InputError(f"k={k} exceeds page count {len(order)}")
    random.Random(seed).shuffle(order)
    base, extra = divmod(len(order), k)
    # fold f takes the next base ids, and one more while f < extra
    labels = [f for f in range(k) for _ in range(base + (f < extra))]
    return FoldAssignment(k=k, mapping=dict(zip(order, labels)))


def assign_folds(corpus: Corpus, k: int, seed: int) -> FoldAssignment:
    """Balanced seeded partition of pages: the folds that Rocchio support
    holds out and that cross-validation tests each page's queries in."""
    return balanced_folds((p.id for p in corpus.pages), k, seed)


def write_qrels(qrels: Qrels, path: str) -> None:
    """TREC qrels text: `<queryId> 0 <paragraphId> 1` per positive row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(qrels.positives):
            for pid in sorted(qrels.positives[qid]):
                fh.write(f"{qid} 0 {pid} 1\n")


def read_qrels(path: str) -> Qrels:
    positives: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ParseError(row_no, f"expected 4 qrels fields, got {len(fields)}")
            qid, _, pid, grade = fields
            if grade not in ("0", "1"):
                raise ParseError(row_no, f"grade must be 0 or 1, got {grade!r}")
            positives.setdefault(qid, set())
            if grade == "1":
                positives[qid].add(pid)
    return Qrels(positives={q: frozenset(s) for q, s in positives.items()})
