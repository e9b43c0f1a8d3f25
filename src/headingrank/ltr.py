"""Linear learning-to-rank with coordinate ascent on mean average
precision, plus the feature assembly and cross-validation around it.

Feature values are per-query min-max normalized retrieval scores, so
every feature lives in [0, 1] and queries with wildly different score
scales still contribute comparably. Training directly optimizes MAP:
each coordinate in turn tries a fixed family of step moves and keeps
the best strictly improving one, restarted from several deterministic
and seeded starting points.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .corpus import FoldAssignment, Qrels, balanced_folds, query_page
from .evaluation import RunFile
from .index import Ranking, rank_items
from .utils import derive_seed


@dataclass(frozen=True)
class FeatureVector:
    query_id: str
    paragraph_id: str
    features: tuple[float, ...]


@dataclass(frozen=True)
class LinearModel:
    feature_names: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.feature_names) != len(self.weights):
            raise ValueError("one weight per feature required")
        if not any(w != 0.0 for w in self.weights):
            raise ValueError("model weights must not all be zero")

    def score(self, features: Sequence[float]) -> float:
        return float(sum(w * f for w, f in zip(self.weights, features)))


@dataclass(frozen=True)
class CaConfig:
    restarts: int = 5
    iterations: int = 25
    step_sizes: tuple[float, ...] = (0.05, 0.2, 1.0)
    seed: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be >= 1")
        if not self.step_sizes or any(s <= 0 for s in self.step_sizes):
            raise ValueError("step sizes must be positive")


def assemble_features(rankings: Sequence[Ranking], query_id: str) -> list[FeatureVector]:
    """One feature row per paragraph any scorer returned for this query.

    Each scorer's scores are min-max scaled to [0, 1] within the query;
    a scorer with a single score value everywhere maps to 0.5, and a
    paragraph a scorer never returned gets 0 for that feature. Rows
    come back in ascending paragraph id.
    """
    score_maps: list[dict[str, float]] = []
    pids: set[str] = set()
    for ranking in rankings:
        if ranking.query_id != query_id:
            raise ValueError(
                f"ranking for {ranking.query_id!r} passed to query {query_id!r}")
        scores = dict(ranking.items)
        score_maps.append(scores)
        pids.update(scores)
    scaled: list[dict[str, float]] = []
    for scores in score_maps:
        if not scores:
            scaled.append({})
            continue
        lo = min(scores.values())
        hi = max(scores.values())
        if hi > lo:
            scaled.append({p: (s - lo) / (hi - lo) for p, s in scores.items()})
        else:
            scaled.append({p: 0.5 for p in scores})
    return [
        FeatureVector(query_id, pid,
                      tuple(m.get(pid, 0.0) for m in scaled))
        for pid in sorted(pids)
    ]


def assemble_feature_table(runs: Sequence[RunFile]) -> dict[str, list[FeatureVector]]:
    """Assemble features for every query any run covers; one run = one feature."""
    qids: set[str] = set()
    for run in runs:
        qids.update(run.queries())
    table: dict[str, list[FeatureVector]] = {}
    for qid in sorted(qids):
        rankings = [run.rankings.get(qid, Ranking(qid, ())) for run in runs]
        table[qid] = assemble_features(rankings, qid)
    return table


# Most cells (trials x relevant rows x rows) one chunk of a batched MAP
# call compares at once. A chunk's temporaries, about 12 bytes a cell,
# then stay near 3 MiB, the size that scored fastest at 50 and 200
# pages; a 5-page sweep of 12 trials (about 16k cells) is one chunk.
_MAP_CHUNK_CELLS = 1 << 18


class _PackedQueries:
    """Training queries as padded numpy tensors for fast MAP evaluation.

    Rows within a query are in ascending paragraph id, matching the tie
    rule used everywhere else. AP needs only the rank of each relevant
    row: 1 + the rows scoring strictly higher + the rows scoring equal
    at a lower row index. Padding rows score -inf, so they never
    displace a real paragraph, and no query is ever fully sorted.
    """

    def __init__(self, table: Mapping[str, Sequence[FeatureVector]], qrels: Qrels,
                 n_features: int):
        qids = [q for q in sorted(table) if qrels.relevant(q)]
        if not qids:
            raise ValueError("no training query has a relevant paragraph")
        self.query_ids = qids
        max_docs = max((len(table[q]) for q in qids), default=0)
        if max_docs == 0:
            raise ValueError("no feature rows for any training query")
        nq = len(qids)
        self.features = np.zeros((nq, max_docs, n_features), dtype=np.float64)
        self.pad = np.ones((nq, max_docs), dtype=bool)
        self.r_counts = np.zeros(nq, dtype=np.float64)
        rel_rows: list[tuple[int, int]] = []
        for qi, qid in enumerate(qids):
            positives = qrels.relevant(qid)
            self.r_counts[qi] = len(positives)
            rows = table[qid]
            for di, fv in enumerate(rows):
                if len(fv.features) != n_features:
                    raise ValueError(
                        f"feature row for {qid!r} has {len(fv.features)} values, "
                        f"expected {n_features}")
                self.features[qi, di] = fv.features
                self.pad[qi, di] = False
                if fv.paragraph_id in positives:
                    rel_rows.append((qi, di))
        # Flat (query, row) of every relevant row, grouped by query.
        rel = np.array(rel_rows, dtype=np.intp).reshape(-1, 2)
        self._rel_q, self._rel_d = rel.T.copy()
        # Per relevant row: the rows at a lower index in its query, which
        # win a tie against it.
        self._rel_lower = np.arange(max_docs) < self._rel_d[:, None]
        # Per relevant row: the relevant rows of its query, padded with the
        # row itself, which never outranks itself.
        per_query = np.bincount(self._rel_q, minlength=nq)
        first = (np.cumsum(per_query) - per_query)[self._rel_q, None]
        count = per_query[self._rel_q, None]
        slots = np.arange(count.max(initial=1))
        self._rel_peers = np.where(slots < count, first + slots,
                                   np.arange(len(rel))[:, None])

    def mean_ap(self, weights: np.ndarray) -> float | np.ndarray:
        """MAP of one weight vector (nf,), or of each row of a batch (T, nf).

        Bit-identical to sorting every query by score (stable, so ties
        keep ascending row order) and averaging precision at each hit.
        A batch is scored in chunks of trials that compare at most
        _MAP_CHUNK_CELLS cells; no trial's arithmetic depends on the
        others in its chunk, so the chunking never changes a bit.
        """
        batch = np.atleast_2d(weights)
        cells = max(1, len(self._rel_q) * self.pad.shape[1])  # per trial
        step = max(1, _MAP_CHUNK_CELLS // cells)
        maps = np.concatenate([self._chunk_map(batch[i:i + step])
                               for i in range(0, len(batch), step)])
        return float(maps[0]) if np.ndim(weights) == 1 else maps

    def _chunk_map(self, batch: np.ndarray) -> np.ndarray:
        """MAP of each row of a (T, nf) batch, all trials at once."""
        scores = np.empty((len(batch),) + self.pad.shape)
        for trial, w in enumerate(batch):
            # features @ w, one trial at a time: a single gemm over the
            # whole batch may round a score differently
            np.matmul(self.features, w, out=scores[trial])
        scores[:, self.pad] = -np.inf
        own = scores[:, self._rel_q, self._rel_d][..., None]
        rows = scores[:, self._rel_q]
        ranks = 1 + ((rows > own) | ((rows == own) & self._rel_lower)).sum(axis=-1)
        hits = 1 + (ranks[:, self._rel_peers] < ranks[..., None]).sum(axis=-1)
        # Precision at each relevant rank, laid out as the sorted ranking
        # would hold it, so the sums below add the same terms in order.
        precision = np.zeros_like(scores)
        precision[np.arange(len(batch))[:, None], self._rel_q, ranks - 1] = hits / ranks
        ap = precision.sum(axis=-1) / self.r_counts
        return ap.mean(axis=-1)


def training_map(model: LinearModel, table: Mapping[str, Sequence[FeatureVector]],
                 qrels: Qrels) -> float:
    """MAP of a linear model over the queries in the table that have positives."""
    packed = _PackedQueries(table, qrels, len(model.feature_names))
    return packed.mean_ap(np.array(model.weights, dtype=np.float64))


def _candidate_values(base: float, step_sizes: Sequence[float]) -> list[float]:
    values: list[float] = []
    seen: set[float] = set()
    for s in step_sizes:
        for v in (base + s, base - s, base * (1.0 + s), base * (1.0 - s)):
            if v != base and v not in seen:
                seen.add(v)
                values.append(v)
    return values


def train_coordinate_ascent(table: Mapping[str, Sequence[FeatureVector]],
                            qrels: Qrels,
                            feature_names: Sequence[str],
                            cfg: CaConfig = CaConfig()) -> LinearModel:
    """Maximize training MAP by greedy per-coordinate line search.

    Starting points are the unit vector of every feature plus
    cfg.restarts seeded uniform random vectors. Each pass sweeps the
    coordinates in order. A coordinate's sweep scores its bounded set
    of additive and multiplicative moves in one batched MAP call, never
    one that zeroes every weight, and keeps the first best move only if
    it improves MAP strictly. A start ends after cfg.iterations passes,
    or as soon as nf consecutive sweeps accept nothing: the weights are
    then a fixed point, and the rest of the pass would only re-score
    the same trial vectors. The best start wins, earlier start on ties,
    so retraining on the same data and seed is bit-identical.
    """
    nf = len(feature_names)
    if nf == 0:
        raise ValueError("at least one feature required")
    packed = _PackedQueries(table, qrels, nf)
    rng = np.random.default_rng(cfg.seed)
    starts = [np.eye(nf, dtype=np.float64)[i] for i in range(nf)]
    for _ in range(cfg.restarts):
        starts.append(rng.uniform(-1.0, 1.0, size=nf))
    best_weights: np.ndarray | None = None
    best_map = -math.inf
    for start in starts:
        w = start.astype(np.float64).copy()
        current = packed.mean_ap(w)
        idle = 0
        for _ in range(cfg.iterations):
            for coord in range(nf):
                values = _candidate_values(w[coord], cfg.step_sizes)
                if not np.any(np.delete(w, coord)):
                    # never let the model collapse to all zeros
                    values = [v for v in values if v != 0.0]
                trials = np.tile(w, (len(values), 1))
                trials[:, coord] = values
                chosen = None
                chosen_map = current
                for value, m in zip(values, packed.mean_ap(trials).tolist()):
                    if m > chosen_map + cfg.tolerance:
                        chosen_map = m
                        chosen = value
                if chosen is None:
                    idle += 1
                    if idle == nf:
                        break
                else:
                    w[coord] = chosen
                    current = chosen_map
                    idle = 0
            if idle == nf:
                break
        if current > best_map:
            best_map = current
            best_weights = w.copy()
    assert best_weights is not None
    return LinearModel(feature_names=tuple(feature_names),
                       weights=tuple(float(x) for x in best_weights))


@dataclass(frozen=True)
class FoldReport:
    fold: int
    train_queries: tuple[str, ...]
    test_queries: tuple[str, ...]
    model: LinearModel
    train_map: float


def _usable_cpus() -> int:
    """CPUs this process may run on, as the platform reports them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The running cross_validate's table, qrels, feature names, each fold's
# training queries and each fold's config, which every fold task reads.
# Forked workers inherit it, so it reaches them without being pickled.
_fold_inputs: tuple | None = None


def _train_fold(fold: int) -> tuple[LinearModel, float]:
    """One fold's model, trained on its training queries, and its training MAP."""
    table, qrels, feature_names, train_queries, configs = _fold_inputs
    train = {q: table[q] for q in train_queries[fold]}
    model = train_coordinate_ascent(train, qrels, feature_names, configs[fold])
    return model, training_map(model, train, qrels)


# What a fold task calls, as this module defines it; see _fold_workers.
_FOLD_CODE = (train_coordinate_ascent, training_map, _PackedQueries.mean_ap)


def _fold_workers(k: int) -> int:
    """Worker processes to train k folds in; 1 trains them in this process.

    Workers are forked only on Linux, where fork is the default start
    method (on macOS a fork after system frameworks have started can
    crash), and only with Python 3.11 or later, where ProcessPoolExecutor
    forks every worker before it starts its manager thread; before 3.11
    it forks each one on demand while that thread runs, which can
    deadlock the child. Folds also train here when
    something has wrapped a function a fold task calls since import (a
    tracer, a call counter): the wrapper keeps its records in this
    process, and a worker's copy of them would die with the worker.
    """
    if not sys.platform.startswith("linux") or sys.version_info < (3, 11):
        return 1
    if (train_coordinate_ascent, training_map, _PackedQueries.mean_ap) != _FOLD_CODE:
        return 1
    return min(k, _usable_cpus())


def cross_validate(table: Mapping[str, Sequence[FeatureVector]],
                   qrels: Qrels,
                   feature_names: Sequence[str],
                   k: int = 5,
                   cfg: CaConfig = CaConfig(),
                   folds: FoldAssignment | None = None,
                   ) -> tuple[dict[str, Ranking], list[FoldReport]]:
    """k-fold cross-validation over pages.

    Each query is tested in its page's fold (corpus.query_page) by a
    model trained on the other folds only, so no query is scored by a
    model that saw its labels or its page's other headings. The merged
    run covers every query exactly once. folds, if given, must have k
    folds and cover every query's page; by default the table's own
    pages are split by corpus.balanced_folds under the config seed.

    Folds train in up to min(k, usable CPUs) forked worker processes,
    which inherit the table and the other inputs through the fork; a
    task carries only its fold index, and folds are merged here in fold
    order. A fold's arithmetic is the same in any process, so every
    model, MAP and ranking is independent of the CPU count. With one
    usable CPU, off Linux, before Python 3.11, or while a fold task's
    code is wrapped (see _fold_workers), the folds train in this
    process. A worker that dies raises BrokenProcessPool.
    """
    qids = sorted(table)
    if folds is None:
        folds = balanced_folds(map(query_page, qids), k,
                               derive_seed(cfg.seed, "cv-partition"))
    elif folds.k != k:
        raise ValueError(f"fold assignment has {folds.k} folds, expected {k}")
    fold_of = {q: folds.fold_of(query_page(q)) for q in qids}
    test_queries = [[q for q in qids if fold_of[q] == f] for f in range(k)]
    train_queries = [[q for q in qids if fold_of[q] != f] for f in range(k)]
    global _fold_inputs
    _fold_inputs = (table, qrels, feature_names, train_queries,
                    [replace(cfg, seed=derive_seed(cfg.seed, "fold", f))
                     for f in range(k)])
    workers = _fold_workers(k)
    try:
        if workers > 1:
            # imported here so that importing the CLI does not pay for them
            import concurrent.futures
            import multiprocessing
            # fork: workers start from this process's memory, with no new
            # interpreter or imports, and inherit _fold_inputs; a fork
            # pool starts every worker at the first task
            pool = concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            try:
                trained = list(pool.map(_train_fold, range(k)))
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            trained = list(map(_train_fold, range(k)))
    finally:
        _fold_inputs = None
    merged: dict[str, Ranking] = {}
    reports: list[FoldReport] = []
    for f, (model, fold_train_map) in enumerate(trained):
        for qid in test_queries[f]:
            scored = {fv.paragraph_id: model.score(fv.features)
                      for fv in table[qid]}
            merged[qid] = rank_items(qid, scored)
        reports.append(FoldReport(
            fold=f,
            train_queries=tuple(train_queries[f]),
            test_queries=tuple(test_queries[f]),
            model=model,
            train_map=fold_train_map,
        ))
    return merged, reports


def save_model(model: LinearModel, path: str) -> None:
    """Feature-name header line, then one weight per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("features\t" + "\t".join(model.feature_names) + "\n")
        for w in model.weights:
            fh.write(f"{w!r}\n")


def load_model(path: str) -> LinearModel:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("features\t"):
        raise ValueError("model file must start with a 'features' header line")
    names = tuple(lines[0].split("\t")[1:])
    weights = tuple(float(ln) for ln in lines[1:])
    return LinearModel(feature_names=names, weights=weights)
