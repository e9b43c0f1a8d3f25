"""Dense semantic representations for paragraphs and queries.

Word side: a text maps to the TF-IDF-weighted average of the word
vectors covering it. Entity side: a text maps to the bag of entities a
linker finds in it, averaged with link-frequency TF-IDF weights. Both,
and the feedback vectors of query expansion, are one embedding_sum.
A text that nothing covers maps to the zero vector.

DenseVector has index.SparseVector's interface, so cosine and
normalized, like the expansion code, run one path for the tf-idf, word
and entity spaces.

The default linker is a deterministic in-process gazetteer matcher
(exact surface dictionary, longest match, left-to-right,
case-insensitive), so the whole pipeline runs hermetically. Any other
linker can be plugged in behind the same one-method interface; a
remote implementation must raise LinkerUnavailableError on transport
failure so callers can tell "no entities" from "no linker".
link_or_warn is the one place a failure on one text is logged and
taken as no entities.

cosine and normalized read each vector's kept norm, which the vector
computes once, on first use: a cached paragraph vector's norm once per
engine, a query's mixed vector's once per query.

A dense dot product adds its elementwise products left to right from
0.0, like SparseVector.dot and ltr.linear_scores, and a norm is the
square root of a self-dot. No score goes through BLAS, whose kernel
(picked per CPU at run time) would choose the order of the additions.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .index import Index, SparseVector, same_space, tfidf_idf
from .textproc import TOKEN_RE
from .utils import InputError, ordered_sum

log = logging.getLogger(__name__)


class EmbeddingFormatError(InputError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LinkerError(RuntimeError):
    """A linker failed on one text."""


class LinkerUnavailableError(LinkerError):
    """The linker backend cannot be reached at all (distinct from 'no entities')."""


@dataclass(frozen=True)
class EmbeddingStore:
    dim: int
    table: dict[str, np.ndarray]

    def get(self, key: str) -> np.ndarray | None:
        return self.table.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.table

    def __len__(self) -> int:
        return len(self.table)


@dataclass(frozen=True, eq=False)
class DenseVector:
    """Embedding-space vector with index.SparseVector's interface.

    Treat values as read-only: the norm and shape are computed on first
    use and kept. dot adds Σ aᵢ·bᵢ left to right from 0.0, and the norm
    is the square root of the vector's dot with itself.
    """

    values: np.ndarray

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(self.dot(self))

    def norm(self) -> float:
        return self._norm

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def dot(self, other: "DenseVector") -> float:
        same_space(self, other)
        return ordered_sum((self.values * other.values).tolist())

    def plus(self, other: "DenseVector") -> "DenseVector":
        same_space(self, other)
        return DenseVector(self.values + other.values)

    def scaled(self, c: float) -> "DenseVector":
        return DenseVector(c * self.values)

    def divided(self, c: float) -> "DenseVector":
        return DenseVector(self.values / c)

    def zero(self) -> "DenseVector":
        return DenseVector(np.zeros_like(self.values))


Vector = SparseVector | DenseVector


@dataclass(frozen=True)
class EntityMention:
    entity_id: str
    count: int


@dataclass(frozen=True)
class EntityStats:
    link_doc_freq: dict[str, int]
    n_docs: int


def load_embeddings(source: str | Iterable[str]) -> EmbeddingStore:
    """Parse `key v1 ... v_dim` lines; dim is fixed by the first line."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            return load_embeddings(list(fh))
    dim: int | None = None
    table: dict[str, np.ndarray] = {}
    for line_no, line in enumerate(source, start=1):
        parts = line.split()
        if not parts:
            continue
        key, rest = parts[0], parts[1:]
        if dim is None:
            if not rest:
                raise EmbeddingFormatError(line_no, "no vector components on first line")
            dim = len(rest)
        if len(rest) != dim:
            raise EmbeddingFormatError(
                line_no, f"expected {dim} components, got {len(rest)}")
        try:
            vec = np.array([float(x) for x in rest], dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError(line_no, "non-numeric vector component") from None
        if not np.all(np.isfinite(vec)):
            raise EmbeddingFormatError(line_no, "non-finite vector component")
        table[key] = vec
    if dim is None:
        raise EmbeddingFormatError(1, "empty embedding file")
    return EmbeddingStore(dim=dim, table=table)


def embedding_sum(weighted: Iterable[tuple[str, float, int]], store: EmbeddingStore,
                  doc_freq: Mapping[str, int], n_docs: int) -> DenseVector:
    """Σ coef * ln(n_docs / df(key)) * vector(key) over (key, coef, mass).

    A key without a stored vector is skipped; one with idf 0 adds
    nothing, but its mass still counts as covered. The sum is divided
    by the covered mass when that is positive: a text nothing covers
    gives the zero vector, and feedback pairs (mass 0) an undivided sum.
    """
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for key, coef, mass in weighted:
        vec = store.get(key)
        if vec is None:
            continue
        covered += mass
        idf = tfidf_idf(doc_freq, n_docs, key)
        if idf != 0.0:
            acc += coef * idf * vec
    return DenseVector(acc / covered if covered else acc)


def text_vector(bag: Sequence[str] | Mapping[str, int], store: EmbeddingStore,
                ix: Index) -> DenseVector:
    """TF-IDF-weighted average of word vectors over covered occurrences.

    Every occurrence of a token with a stored vector counts toward the
    divisor |d|, whether or not its corpus idf is positive; tokens the
    index has never seen carry weight 0.
    """
    return embedding_sum(((t, tf * (1.0 + math.log(tf)), tf)
                          for t, tf in Counter(bag).items()),
                         store, ix.doc_freq, ix.n_docs)


class EntityLinker(Protocol):
    def link(self, text: str) -> list[EntityMention]: ...


class GazetteerLinker:
    """Exact-surface dictionary linker.

    Surfaces and text are lowercased and split on non-alphanumeric
    runs; matching is greedy longest-first scanning left to right, so
    the same text always produces the same mention multiset.
    """

    def __init__(self, surface_to_entity: Mapping[str, str]):
        self._table: dict[tuple[str, ...], str] = {}
        self._max_words = 0
        for surface, entity_id in surface_to_entity.items():
            words = tuple(TOKEN_RE.findall(surface.lower()))
            if not words:
                continue
            # first definition of a surface wins
            if words not in self._table:
                self._table[words] = entity_id
                self._max_words = max(self._max_words, len(words))

    def link(self, text: str) -> list[EntityMention]:
        words = TOKEN_RE.findall(text.lower())
        counts: dict[str, int] = {}
        i = 0
        n = len(words)
        while i < n:
            matched = False
            for length in range(min(self._max_words, n - i), 0, -1):
                entity = self._table.get(tuple(words[i:i + length]))
                if entity is not None:
                    counts[entity] = counts.get(entity, 0) + 1
                    i += length
                    matched = True
                    break
            if not matched:
                i += 1
        return [EntityMention(e, c) for e, c in sorted(counts.items())]


class CachingLinker:
    """Memoizes another linker so repeated runs stay deterministic."""

    def __init__(self, inner: EntityLinker):
        self._inner = inner
        self._cache: dict[str, list[EntityMention]] = {}

    def link(self, text: str) -> list[EntityMention]:
        if text not in self._cache:
            self._cache[text] = self._inner.link(text)
        return self._cache[text]


def load_gazetteer(path: str) -> GazetteerLinker:
    """TSV `surface<TAB>entityId`, one entry per line."""
    table: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise InputError(f"line {line_no}: expected surface<TAB>entityId")
            surface, entity_id = line.split("\t", 1)
            if surface and surface not in table:
                table[surface] = entity_id
    return GazetteerLinker(table)


def build_entity_stats(texts: Mapping[str, str], linker: EntityLinker) -> EntityStats:
    """Link document frequency of every entity over a document collection."""
    ldf: dict[str, int] = {}
    for pid in sorted(texts):
        for mention in linker.link(texts[pid]):
            ldf[mention.entity_id] = ldf.get(mention.entity_id, 0) + 1
    return EntityStats(link_doc_freq=ldf, n_docs=len(texts))


def _line_int(line_no: int, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"line {line_no}: {what} must be an integer, "
                         f"got {text!r}") from None


def load_entity_stats(path: str) -> EntityStats:
    """`Ndocs<TAB>n` header, then `entityId<TAB>linkDocFreq` rows.

    n must be an integer of at least 1 and every link doc freq an
    integer within [0, n], or idf would be undefined or negative; a
    violation names its line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, start=1)
                 if ln.strip()]
    if not lines or not lines[0][1].startswith("Ndocs\t"):
        raise InputError("entity stats file must start with 'Ndocs<TAB>n'")
    n_docs = _line_int(lines[0][0], "Ndocs", lines[0][1].split("\t", 1)[1])
    if n_docs < 1:
        raise InputError(f"line {lines[0][0]}: Ndocs must be >= 1, got {n_docs}")
    ldf: dict[str, int] = {}
    for line_no, line in lines[1:]:
        if "\t" not in line:
            raise InputError(f"line {line_no}: expected entityId<TAB>linkDocFreq")
        entity_id, count = line.split("\t", 1)
        ldf[entity_id] = _line_int(line_no, f"link doc freq of {entity_id!r}", count)
        if not 0 <= ldf[entity_id] <= n_docs:
            raise InputError(f"line {line_no}: link doc freq {ldf[entity_id]} of "
                             f"{entity_id!r} is outside [0, Ndocs={n_docs}]")
    return EntityStats(link_doc_freq=ldf, n_docs=n_docs)


def write_entity_stats(stats: EntityStats, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"Ndocs\t{stats.n_docs}\n")
        for entity_id in sorted(stats.link_doc_freq):
            fh.write(f"{entity_id}\t{stats.link_doc_freq[entity_id]}\n")


def entity_vector(mentions: Sequence[EntityMention], store: EmbeddingStore,
                  stats: EntityStats) -> DenseVector:
    """Link-frequency TF-IDF average over distinct covered entities.

    weight(e) = (1 + ln count(e)) * ln(Ndocs / linkDocFreq(e)); entities
    without a stored vector are skipped entirely; entities without link
    statistics contribute weight 0 but still count as covered.
    """
    return embedding_sum(((m.entity_id, 1.0 + math.log(m.count), 1) for m in mentions),
                         store, stats.link_doc_freq, stats.n_docs)


def link_or_warn(linker: EntityLinker, text: str, kind: str, name: str) -> list[EntityMention]:
    """The linker's mentions in text, or none, logged, when it fails on it."""
    try:
        return linker.link(text)
    except LinkerError as exc:
        log.warning("linker failed on %s %s: %s", kind, name, exc)
        return []


def cosine(a: Vector, b: Vector) -> float:
    """dot(a,b) / (|a||b|); 0.0 whenever either norm is 0."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        same_space(a, b)
        return 0.0
    return a.dot(b) / (na * nb)


def normalized(v: Vector) -> Vector | None:
    """Unit-length copy, or None for a zero vector."""
    n = v.norm()
    return v.divided(n) if n != 0.0 else None
