"""Dense semantic representations for paragraphs and queries.

Word side: a text maps to the TF-IDF-weighted average of the word
vectors covering it. Entity side: a text maps to the bag of entities a
linker finds in it, averaged with link-frequency TF-IDF weights.

The default linker is a deterministic in-process gazetteer matcher
(exact surface dictionary, longest match, left-to-right,
case-insensitive), so the whole pipeline runs hermetically. Any other
linker can be plugged in behind the same one-method interface; a
remote implementation must raise LinkerUnavailableError on transport
failure so callers can tell "no entities" from "no linker".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .index import Index, SparseVector
from .textproc import TOKEN_RE


class EmbeddingFormatError(ValueError):
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
    values: np.ndarray
    empty: bool = False  # True when nothing in the input was covered


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


def _bag_counts(bag: Sequence[str] | Mapping[str, int]) -> Mapping[str, int]:
    if isinstance(bag, Mapping):
        return bag
    counts: dict[str, int] = {}
    for t in bag:
        counts[t] = counts.get(t, 0) + 1
    return counts


def text_vector(bag: Sequence[str] | Mapping[str, int], store: EmbeddingStore,
                ix: Index) -> DenseVector:
    """TF-IDF-weighted average of word vectors over covered occurrences.

    Every occurrence of a token with a stored vector counts toward the
    divisor |d|, whether or not its corpus idf is positive; tokens the
    index has never seen carry weight 0. No coverage at all gives a
    zero vector flagged empty.
    """
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for token, tf in _bag_counts(bag).items():
        vec = store.get(token)
        if vec is None:
            continue
        covered += tf
        df = ix.doc_freq.get(token, 0)
        if df == 0:
            continue
        idf = math.log(ix.n_docs / df)
        if idf == 0.0:
            continue
        acc += tf * (1.0 + math.log(tf)) * idf * vec
    if covered == 0:
        return DenseVector(values=acc, empty=True)
    return DenseVector(values=acc / covered, empty=False)


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
                raise ValueError(f"line {line_no}: expected surface<TAB>entityId")
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


def load_entity_stats(path: str) -> EntityStats:
    """`Ndocs<TAB>n` header, then `entityId<TAB>linkDocFreq` rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("Ndocs\t"):
        raise ValueError("entity stats file must start with 'Ndocs<TAB>n'")
    n_docs = int(lines[0].split("\t", 1)[1])
    ldf: dict[str, int] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if "\t" not in line:
            raise ValueError(f"line {line_no}: expected entityId<TAB>linkDocFreq")
        entity_id, count = line.split("\t", 1)
        ldf[entity_id] = int(count)
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
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for mention in mentions:
        vec = store.get(mention.entity_id)
        if vec is None:
            continue
        covered += 1
        ldf = stats.link_doc_freq.get(mention.entity_id, 0)
        if ldf == 0:
            continue
        idf = math.log(stats.n_docs / ldf)
        if idf == 0.0:
            continue
        acc += (1.0 + math.log(mention.count)) * idf * vec
    if covered == 0:
        return DenseVector(values=acc, empty=True)
    return DenseVector(values=acc / covered, empty=False)


def cosine(a: DenseVector | SparseVector, b: DenseVector | SparseVector) -> float:
    """dot(a,b) / (|a||b|); 0.0 whenever either norm is 0."""
    if isinstance(a, SparseVector) and isinstance(b, SparseVector):
        na, nb = a.norm(), b.norm()
        if na == 0.0 or nb == 0.0:
            return 0.0
        return a.dot(b) / (na * nb)
    if isinstance(a, DenseVector) and isinstance(b, DenseVector):
        if a.values.shape != b.values.shape:
            raise ValueError(
                f"dimension mismatch: {a.values.shape} vs {b.values.shape}")
        na = float(np.linalg.norm(a.values))
        nb = float(np.linalg.norm(b.values))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(np.dot(a.values, b.values)) / (na * nb)
    raise ValueError("mismatched vector spaces (sparse vs dense)")


def normalized(v: DenseVector | SparseVector) -> DenseVector | SparseVector | None:
    """Unit-length copy, or None for zero/empty vectors."""
    if isinstance(v, SparseVector):
        n = v.norm()
        if n == 0.0:
            return None
        return SparseVector(entries={t: w / n for t, w in v.entries.items()})
    n = float(np.linalg.norm(v.values))
    if v.empty or n == 0.0:
        return None
    return DenseVector(values=v.values / n, empty=False)
