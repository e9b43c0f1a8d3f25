"""Linear learning-to-rank with coordinate ascent on mean average
precision, plus the packed feature table and cross-validation around it.

Feature values are per-query min-max normalized retrieval scores, so
every feature lives in [0, 1] and queries with wildly different score
scales still contribute comparably. Training directly optimizes MAP:
each coordinate in turn tries a fixed family of step moves and keeps
the best strictly improving one, restarted from several deterministic
and seeded starting points. Training trials and test folds are both
scored by linear_scores, in feature order and with no BLAS call.

Each function that computes with arrays imports numpy itself, so that
a command that fuses no runs never loads it.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .corpus import FoldAssignment, Qrels, balanced_folds, query_page
from .evaluation import RunFile
from .index import Ranking, rank_items
from .utils import InputError, derive_seed


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
        total = 0.0  # added in feature order, as linear_scores; sum() compensates from 3.12
        for w, f in zip(self.weights, features, strict=True):
            total += w * f
        return float(total)


def linear_scores(columns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Σⱼ weights[j]·columns[j] for columns (nf, ...) and weights (nf,) or a
    batch of trials (T, nf): scores (...) or (T, ...), added in feature order
    from +0.0 by elementwise ops, so with LinearModel.score's bits. A column
    whose weight every trial shares is multiplied once per batch; ±0.0 count
    as equal, since a running sum from +0.0 is never -0.0."""
    import numpy as np
    trials = np.atleast_2d(weights)
    shared = (trials == trials[0]).all(axis=0).tolist()
    cells = np.shape(columns)[1:]
    # flat cells: each product and sum is then one long run per trial
    flat = np.reshape(columns, (len(columns), math.prod(cells)))
    total = np.zeros(flat.shape[1])
    for column, w, same in zip(flat, trials.T[..., None], shared, strict=True):
        term = (w[0] if same else w) * column
        # total + term to the bit (addition commutes), into a fresh array
        total = np.add(term, total, out=term if term.ndim >= total.ndim else total)
    if np.ndim(weights) == 2 and total.ndim == 1:  # no column's weights differ
        total = np.repeat(total[None], len(trials), axis=0)
    return total.reshape(trials.shape[:np.ndim(weights) - 1] + cells)


@dataclass(frozen=True)
class CaConfig:
    restarts: int = 5
    iterations: int = 25
    step_sizes: tuple[float, ...] = (0.05, 0.2, 1.0)
    seed: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise InputError("restarts and iterations must be >= 1")
        if not self.step_sizes or any(s <= 0 for s in self.step_sizes):
            raise InputError("step sizes must be positive")


class FeatureTable(Mapping[str, "np.ndarray"]):
    """Every query's feature rows in one read-only (rows, features) matrix:
    table[qid] is a query's contiguous block, a view of the matrix, and
    table.paragraphs[qid] its rows' paragraph ids. rows gives each
    query's slice; by default the queries lie end to end in that order."""

    def __init__(self, matrix: np.ndarray, paragraphs: Mapping[str, Sequence[str]],
                 rows: Mapping[str, slice] | None = None):
        import numpy as np
        self.paragraphs = {q: tuple(pids) for q, pids in paragraphs.items()}
        if rows is None:
            ends = np.cumsum([0, *map(len, self.paragraphs.values())]).tolist()
            rows = dict(zip(self.paragraphs, map(slice, ends, ends[1:])))
        self._rows = dict(rows)
        self._matrix = matrix
        matrix.flags.writeable = False
        self.n_features = matrix.shape[1]

    def __getitem__(self, qid: str) -> np.ndarray:
        return self._matrix[self._rows[qid]]

    def __iter__(self):
        return iter(self.paragraphs)

    def __len__(self) -> int:
        return len(self.paragraphs)

    def select(self, query_ids: Sequence[str]) -> FeatureTable:
        """These queries' rows, in the order given, sharing the matrix."""
        return FeatureTable(self._matrix, {q: self.paragraphs[q] for q in query_ids},
                            {q: self._rows[q] for q in query_ids})

    def without(self, column: int) -> FeatureTable:
        """A copy of this table less one feature column."""
        import numpy as np
        return FeatureTable(np.delete(self._matrix, column, axis=1), self.paragraphs, self._rows)


def _as_table(table: FeatureTable | Mapping[str, Sequence[FeatureVector]],
              n_features: int) -> FeatureTable:
    """The table, or its FeatureVector rows packed in the order given;
    rejects a row of any query that does not hold n_features values."""
    import numpy as np
    if not isinstance(table, FeatureTable):
        values = [fv.features for rows in table.values() for fv in rows]
        if widths := {len(v) for v in values} - {n_features}:
            raise ValueError(f"a feature row has {min(widths)} values, expected {n_features}")
        table = FeatureTable(np.array(values, dtype=np.float64).reshape(len(values), n_features),
                             {q: [fv.paragraph_id for fv in rows] for q, rows in table.items()})
    if table.n_features != n_features:
        raise ValueError(f"a feature row has {table.n_features} values, expected {n_features}")
    return table


def assemble_feature_table(runs: Sequence[RunFile]) -> FeatureTable:
    """Feature rows for every query any run covers; one run = one feature.

    Queries, and a query's rows (the paragraphs any run returned for
    it), come in ascending id. Each run's scores are min-max scaled to
    [0, 1] within the query; a run with a single score value everywhere
    maps to 0.5, and a paragraph a run never returned gets 0.
    """
    import numpy as np
    paragraphs = {qid: sorted({pid for run in runs
                               for pid, _ in run.rankings.get(qid, Ranking(qid, ())).items})
                  for qid in sorted({q for run in runs for q in run.rankings})}
    matrix = np.zeros((sum(map(len, paragraphs.values())), len(runs)))
    start = 0
    for qid, pids in paragraphs.items():
        row_of = {pid: start + i for i, pid in enumerate(pids)}
        start += len(pids)
        for col, run in enumerate(runs):
            ranking = run.rankings.get(qid, Ranking(qid, ()))
            if ranking.query_id != qid:
                raise ValueError(f"ranking for {ranking.query_id!r} passed to query {qid!r}")
            scores = dict(ranking.items)
            if scores:
                lo, hi = min(scores.values()), max(scores.values())
                matrix[[row_of[pid] for pid in scores], col] = (
                    [(s - lo) / (hi - lo) for s in scores.values()] if hi > lo else 0.5)
    return FeatureTable(matrix, paragraphs)


# Most cells (trials x relevant rows x rows) one chunk of a batched MAP
# call compares at once. A chunk's temporaries, about 12 bytes a cell,
# then stay near 3 MiB, the size that scored fastest at 50 and 200
# pages; a 5-page sweep of 12 trials (about 16k cells) is one chunk.
# The batch's scores, 8 bytes a trial, query and row, are made whole.
_MAP_CHUNK_CELLS = 1 << 18


class _PackedQueries:
    """Training queries as padded numpy tensors for fast MAP evaluation.

    Query blocks are copied whole into (features, queries, rows) columns,
    rows in table order (ascending id, the tie rule used everywhere else),
    and trial batches are scored by linear_scores. AP needs only the rank
    of each relevant row: 1 + the rows scoring strictly higher + the rows
    scoring equal at a lower row index. Padding rows score -inf, so they
    never displace a real paragraph, and no query is ever fully sorted.
    """

    def __init__(self, table: FeatureTable, qrels: Qrels):
        import numpy as np
        qids = [q for q in sorted(table) if qrels.relevant(q)]
        if not qids:
            raise ValueError("no training query has a relevant paragraph")
        max_docs = max(len(table.paragraphs[q]) for q in qids)
        if max_docs == 0:
            raise ValueError("no feature rows for any training query")
        nq = len(qids)
        self.columns = np.zeros((table.n_features, nq, max_docs), dtype=np.float64)
        self.pad = np.ones((nq, max_docs), dtype=bool)
        self.r_counts = np.array([len(qrels.relevant(q)) for q in qids], dtype=np.float64)
        rel_rows: list[tuple[int, int]] = []
        for qi, qid in enumerate(qids):
            pids, positives = table.paragraphs[qid], qrels.relevant(qid)
            self.columns[:, qi, :len(pids)] = table[qid].T
            self.pad[qi, :len(pids)] = False
            rel_rows.extend((qi, di) for di, pid in enumerate(pids) if pid in positives)
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
        The batch is scored at once, then ranked in chunks of trials that
        compare at most _MAP_CHUNK_CELLS cells; no trial's arithmetic
        depends on the others in its chunk, so chunking never changes a bit.
        """
        import numpy as np
        scores = linear_scores(self.columns, np.atleast_2d(weights))
        scores[:, self.pad] = -np.inf
        cells = max(1, len(self._rel_q) * self.pad.shape[1])  # per trial
        step = max(1, _MAP_CHUNK_CELLS // cells)
        maps = np.concatenate([self._chunk_map(scores[i:i + step])
                               for i in range(0, len(scores), step)])
        return float(maps[0]) if np.ndim(weights) == 1 else maps

    def _chunk_map(self, scores: np.ndarray) -> np.ndarray:
        """MAP of each trial's (queries, rows) scores in a (T, nq, rows) stack."""
        import numpy as np
        own = scores[:, self._rel_q, self._rel_d][..., None]
        rows = scores[:, self._rel_q]
        ranks = 1 + ((rows > own) | ((rows == own) & self._rel_lower)).sum(axis=-1)
        hits = 1 + (ranks[:, self._rel_peers] < ranks[..., None]).sum(axis=-1)
        # Precision at each relevant rank, laid out as the sorted ranking
        # would hold it, so the sums below add the same terms in order.
        precision = np.zeros_like(scores)
        precision[np.arange(len(scores))[:, None], self._rel_q, ranks - 1] = hits / ranks
        ap = precision.sum(axis=-1) / self.r_counts
        return ap.mean(axis=-1)


def training_map(model: LinearModel, table: FeatureTable | Mapping[str, Sequence[FeatureVector]],
                 qrels: Qrels) -> float:
    """MAP of a linear model over the queries in the table that have positives."""
    import numpy as np
    packed = _PackedQueries(_as_table(table, len(model.feature_names)), qrels)
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


def train_coordinate_ascent(table: FeatureTable | Mapping[str, Sequence[FeatureVector]],
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
    import numpy as np
    nf = len(feature_names)
    if nf == 0:
        raise ValueError("at least one feature required")
    packed = _PackedQueries(_as_table(table, nf), qrels)
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
    train = table.select(train_queries[fold])
    model = train_coordinate_ascent(train, qrels, feature_names, configs[fold])
    return model, training_map(model, train, qrels)


# What a fold task calls, as this module defines it; see _fold_workers.
_FOLD_CODE = (train_coordinate_ascent, training_map, _PackedQueries.mean_ap)


def _fold_workers(k: int) -> int:
    """Worker processes to train k folds in; 1 trains them in this process.

    Workers are forked only on Linux, where fork is the default start
    method (on macOS a fork after system frameworks have started can
    crash). ProcessPoolExecutor forks every worker before it starts its
    manager thread, so no child is forked while that thread runs. Folds
    also train here when something has wrapped a function a fold task
    calls since import (a tracer, a call counter): the wrapper keeps its
    records in this process, and a worker's copy of them would die with
    the worker.
    """
    if not sys.platform.startswith("linux"):
        return 1
    if (train_coordinate_ascent, training_map, _PackedQueries.mean_ap) != _FOLD_CODE:
        return 1
    return min(k, _usable_cpus())


def cross_validate(table: FeatureTable | Mapping[str, Sequence[FeatureVector]],
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
    FeatureVector rows are packed into a FeatureTable once, on entry.

    Folds train in up to min(k, usable CPUs) forked worker processes,
    which inherit the table and the other inputs through the fork; a
    task carries only its fold index, and folds are merged here in fold
    order. Test queries are scored by linear_scores, as training trials
    are. A fold's arithmetic is the same in any process and makes no
    BLAS call, so every model, MAP and ranking is independent of the CPU
    count, BLAS build and CPU model. With one usable CPU, off Linux, or
    while a fold task's code is wrapped (see _fold_workers), the folds
    train in this process. A worker that dies raises BrokenProcessPool.
    """
    table = _as_table(table, len(feature_names))
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
            scores = linear_scores(table[qid].T, model.weights).tolist()
            merged[qid] = rank_items(qid, dict(zip(table.paragraphs[qid], scores)))
        reports.append(FoldReport(f, tuple(train_queries[f]), tuple(test_queries[f]),
                                  model, fold_train_map))
    return merged, reports


def save_model(model: LinearModel, path: str) -> None:
    """Feature-name header line, then one weight per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("features\t" + "\t".join(model.feature_names) + "\n")
        for w in model.weights:
            fh.write(f"{w!r}\n")
