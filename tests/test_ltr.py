"""Feature assembly, packed MAP evaluation, coordinate ascent, CV folds."""

import functools
import inspect
import math
import os
import pickle
import random
import re
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from headingrank import ltr
from headingrank.corpus import FoldAssignment, Qrels, all_queries, assign_folds
from headingrank.evaluation import RunFile, average_precision, write_run
from headingrank.index import Ranking, rank_items
from headingrank.ltr import (
    CaConfig,
    FeatureTable,
    FeatureVector,
    LinearModel,
    assemble_feature_table,
    cross_validate,
    save_model,
    train_coordinate_ascent,
    training_map,
    _candidate_values,
    _PackedQueries,
)

from conftest import (corpus_from_pages, exit_in_worker, needs_fork, page,
                      section, time_limit)


# --- feature assembly -----------------------------------------------------

def _one_query_table(*rankings):
    """The feature table of runs r0, r1, ... holding these rankings of query q."""
    return assemble_feature_table([RunFile(f"r{i}", {"q": r})
                                   for i, r in enumerate(rankings)])


def _rows(table, qid):
    """Paragraph id -> feature tuple of one query's rows."""
    return {pid: tuple(row) for pid, row in zip(table.paragraphs[qid], table[qid].tolist())}


def test_assemble_union_and_minmax():
    bm25 = Ranking("q", (("pa", 10.0), ("pb", 5.0), ("pc", 0.0)))
    cs = Ranking("q", (("pb", 0.8), ("pd", 0.2)))
    table = _one_query_table(bm25, cs)
    assert table.paragraphs["q"] == ("pa", "pb", "pc", "pd")
    by_id = _rows(table, "q")
    assert by_id["pa"] == (1.0, 0.0)          # top of run 1, absent from run 2
    assert by_id["pb"] == (0.5, 1.0)
    assert by_id["pc"] == (0.0, 0.0)
    assert by_id["pd"] == (0.0, 0.0)          # bottom of run 2's range


def test_assemble_constant_run_maps_to_half():
    flat = Ranking("q", (("pa", 3.0), ("pb", 3.0)))
    other = Ranking("q", (("pa", 1.0), ("pb", 0.0)))
    by_id = _rows(_one_query_table(flat, other), "q")
    assert by_id["pa"] == (0.5, 1.0)
    assert by_id["pb"] == (0.5, 0.0)


def test_assemble_rejects_foreign_query():
    with pytest.raises(ValueError, match="passed to query"):
        _one_query_table(Ranking("other", ()))


def test_assemble_feature_table_covers_all_queries():
    run_a = RunFile("a", {"q1": Ranking("q1", (("p1", 1.0),)),
                          "q2": Ranking("q2", (("p2", 2.0),))})
    run_b = RunFile("b", {"q2": Ranking("q2", (("p3", 1.0),))})
    table = assemble_feature_table([run_a, run_b])
    assert list(table) == ["q1", "q2"]
    assert table.paragraphs["q2"] == ("p2", "p3")
    assert all(block.shape == (len(table.paragraphs[q]), 2) for q, block in table.items())
    assert sum(len(rows) for rows in table.values()) == 3  # rows, as perfbench counts them


def test_feature_table_is_a_read_only_mapping_of_blocks():
    table = ltr._as_table(_separable_table(nq=4)[0], 2)
    with pytest.raises(ValueError, match="read-only"):
        table["q1"][0, 0] = 5.0
    train = table.select(["q3", "q1"])
    assert list(train) == ["q3", "q1"] and train.paragraphs["q1"] == table.paragraphs["q1"]
    assert np.shares_memory(train["q1"], table["q1"])  # a fold's table copies nothing
    assert train["q1"].tolist() == table["q1"].tolist()
    ablated = table.without(0)
    assert ablated.n_features == 1
    assert ablated["q2"].tolist() == table["q2"][:, 1:].tolist()


def _reference_features(rankings, query_id):
    """Row-object feature assembly, kept as the oracle of the packed table."""
    score_maps = []
    pids = set()
    for ranking in rankings:
        if ranking.query_id != query_id:
            raise ValueError(
                f"ranking for {ranking.query_id!r} passed to query {query_id!r}")
        scores = dict(ranking.items)
        score_maps.append(scores)
        pids.update(scores)
    scaled = []
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
    return [FeatureVector(query_id, pid, tuple(m.get(pid, 0.0) for m in scaled))
            for pid in sorted(pids)]


def _random_runs(rng):
    """Scorer runs over q0..q5 and an external run that alone has q-ext.

    Scores mix exact ties, constants, negatives and wide magnitudes; a
    run may leave out a query, give it an empty ranking, or miss some of
    the paragraphs other runs return.
    """
    pool = [f"p{i:02d}" for i in range(14)]
    runs = []
    for r in range(rng.randint(1, 4)):
        rankings = {}
        for qi in range(6):
            qid = f"q{qi}"
            kind = rng.random()
            if kind < 0.15:
                continue                                  # query absent
            if kind < 0.25:
                rankings[qid] = Ranking(qid, ())          # empty ranking
                continue
            pids = rng.sample(pool, rng.randint(1, len(pool)))
            if kind < 0.4:
                value = rng.choice((0.0, 2.5, -1.0))      # constant run
                scored = {p: value for p in pids}
            else:
                scale = rng.choice((1.0, 1e-9, 1e6, -3.0))
                scored = {p: rng.choice((0.0, 1.0, 0.5, rng.uniform(-1, 1))) * scale
                          for p in pids}
            rankings[qid] = rank_items(qid, scored)
        runs.append(RunFile(f"s{r}", rankings))
    external = {"q-ext": Ranking("q-ext", (("p99", 0.25), ("p00", 0.125)))}
    for qid in rng.sample([f"q{qi}" for qi in range(6)], 2):
        external[qid] = rank_items(qid, {p: rng.random() for p in rng.sample(pool, 3)})
    runs.append(RunFile("ext", external))
    return runs


def test_packed_table_is_the_row_object_assembly():
    rng = random.Random(1105)
    seen = set()
    for _ in range(80):
        runs = _random_runs(rng)
        table = assemble_feature_table(runs)
        qids = sorted({q for run in runs for q in run.rankings})
        assert list(table) == qids
        for qid in qids:
            rankings = [run.rankings.get(qid, Ranking(qid, ())) for run in runs]
            expected = _reference_features(rankings, qid)
            assert table.paragraphs[qid] == tuple(fv.paragraph_id for fv in expected)
            assert table[qid].dtype == np.float64
            assert table[qid].shape == (len(expected), len(runs))
            assert table[qid].tolist() == [list(fv.features) for fv in expected]
            for ranking in rankings:
                scores = [s for _, s in ranking.items]
                seen.add("empty" if not scores else
                         "constant" if len(set(scores)) == 1 else "scaled")
                if scores and len(scores) < len(expected):
                    seen.add("missing paragraph")
            if sum(qid in run.rankings for run in runs) == 1:
                seen.add("query of one run")
    assert seen == {"empty", "constant", "scaled", "missing paragraph", "query of one run"}


# --- model and config basics ------------------------------------------------

def test_linear_model_validation():
    with pytest.raises(ValueError):
        LinearModel(feature_names=("a", "b"), weights=(1.0,))
    with pytest.raises(ValueError):
        LinearModel(feature_names=("a",), weights=(0.0,))
    m = LinearModel(feature_names=("a", "b"), weights=(2.0, -1.0))
    assert m.score((0.5, 1.0)) == pytest.approx(0.0)
    # a row of the wrong width is an error, not truncated by zip
    for row in ((0.5,), (0.5, 1.0, 1.0)):
        with pytest.raises(ValueError):
            m.score(row)
    with pytest.raises(ValueError):
        ltr.linear_scores(np.ones((1, 4)), m.weights)
    with pytest.raises(ValueError):
        ltr.linear_scores(np.ones((3, 4)), np.ones((5, 2)))


def test_ca_config_validation():
    with pytest.raises(ValueError):
        CaConfig(restarts=0)
    with pytest.raises(ValueError):
        CaConfig(iterations=0)
    with pytest.raises(ValueError):
        CaConfig(step_sizes=())
    with pytest.raises(ValueError):
        CaConfig(step_sizes=(0.1, -0.2))


# --- packed MAP vs the evaluation module ------------------------------------

def _random_table(rng, nq=6, nf=3, quantize=False):
    table = {}
    qrels = {}
    for qi in range(nq):
        qid = f"q{qi}"
        n_docs = rng.randint(2, 9)
        rows = []
        for di in range(n_docs):
            feats = tuple(
                round(rng.random() * 2) / 2.0 if quantize else rng.random()
                for _ in range(nf)
            )
            rows.append(FeatureVector(qid, f"p{di}", feats))
        table[qid] = rows
        n_pos = rng.randint(1, n_docs)
        qrels[qid] = frozenset(f"p{d}" for d in rng.sample(range(n_docs), n_pos))
    return table, Qrels(positives=qrels)


@pytest.mark.parametrize("quantize", [False, True])
def test_training_map_matches_metric_module(quantize):
    # The vectorized MAP inside the trainer must agree with the plain
    # per-query evaluator, including on tied scores (quantized case).
    rng = random.Random(11 if quantize else 7)
    for _ in range(15):
        table, qrels = _random_table(rng, quantize=quantize)
        weights = tuple(rng.uniform(-1, 1) for _ in range(3))
        if not any(weights):
            continue
        model = LinearModel(feature_names=("f0", "f1", "f2"), weights=weights)
        fast = training_map(model, table, qrels)
        aps = []
        for qid, rows in table.items():
            ranking = rank_items(qid, {r.paragraph_id: model.score(r.features)
                                       for r in rows})
            aps.append(average_precision(ranking, qrels.relevant(qid)))
        assert fast == pytest.approx(sum(aps) / len(aps), abs=1e-12)


def test_training_map_requires_positives():
    table = {"q": [FeatureVector("q", "p", (1.0,))]}
    with pytest.raises(ValueError, match="no training query"):
        training_map(LinearModel(("f",), (1.0,)), table, Qrels(positives={}))


def test_training_map_checks_arity():
    table = {"q": [FeatureVector("q", "p", (1.0, 2.0))]}
    qrels = Qrels(positives={"q": frozenset({"p"})})
    with pytest.raises(ValueError, match="expected 1"):
        training_map(LinearModel(("f",), (1.0,)), table, qrels)


# --- packed MAP vs the sorted-ranking oracle ---------------------------------

class _SortedMap:
    """Reference MAP: stable-sort each query by score, average precision at hits."""

    def __init__(self, table, qrels, n_features):
        qids = [q for q in sorted(table) if qrels.relevant(q)]
        max_docs = max(len(table[q]) for q in qids)
        nq = len(qids)
        self.features = np.zeros((nq, max_docs, n_features), dtype=np.float64)
        self.rel = np.zeros((nq, max_docs), dtype=np.float64)
        self.pad = np.ones((nq, max_docs), dtype=bool)
        self.r_counts = np.zeros(nq, dtype=np.float64)
        for qi, qid in enumerate(qids):
            positives = qrels.relevant(qid)
            self.r_counts[qi] = len(positives)
            for di, fv in enumerate(table[qid]):
                self.features[qi, di] = fv.features
                self.pad[qi, di] = False
                if fv.paragraph_id in positives:
                    self.rel[qi, di] = 1.0
        self._ranks = np.arange(1, max_docs + 1, dtype=np.float64)

    def mean_ap(self, weights):
        # each row's weighted features added in feature order from 0.0
        scores = np.zeros(self.pad.shape)
        for j, w in enumerate(weights):
            scores = scores + w * self.features[..., j]
        scores[self.pad] = -np.inf
        order = np.argsort(-scores, axis=1, kind="stable")
        rel_sorted = np.take_along_axis(self.rel, order, axis=1)
        precision_at = np.cumsum(rel_sorted, axis=1) / self._ranks
        ap = (precision_at * rel_sorted).sum(axis=1) / self.r_counts
        return float(ap.mean())


def _tied_table(rng, nq, nf):
    # Features on a quarter grid tie often; 0-12 rows per query pad
    # unevenly; 1-6 positives, some of them absent from the rows.
    table = {}
    positives = {}
    for qi in range(nq):
        qid = f"q{qi}"
        n_docs = rng.randint(0 if qi else 1, 12)
        table[qid] = [
            FeatureVector(qid, f"p{di:02d}",
                          tuple(rng.randint(0, 4) / 4.0 for _ in range(nf)))
            for di in range(n_docs)
        ]
        pool = range(n_docs + 2)
        n_pos = min(rng.randint(1, 6), len(pool))
        positives[qid] = frozenset(f"p{d:02d}" for d in rng.sample(pool, n_pos))
    return table, Qrels(positives=positives)


def test_mean_ap_is_bitwise_the_sorted_ranking_map():
    rng = random.Random(2024)
    checked = 0
    most_hits = 0
    for _ in range(150):
        nf = rng.randint(1, 4)
        table, qrels = _tied_table(rng, rng.randint(1, 12), nf)
        most_hits = max(most_hits, *(
            sum(fv.paragraph_id in qrels.relevant(qid) for fv in rows)
            for qid, rows in table.items()))
        packed = _PackedQueries(ltr._as_table(table, nf), qrels)
        oracle = _SortedMap(table, qrels, nf)
        batch = np.array([
            [rng.choice((0.0, 0.5, -0.5, 1.0, -1.0, rng.uniform(-1, 1)))
             for _ in range(nf)]
            for _ in range(rng.randint(1, 12))
        ])
        maps = packed.mean_ap(batch)
        assert maps.shape == (len(batch),)
        for w, m in zip(batch, maps):
            expected = oracle.mean_ap(w.copy())
            assert packed.mean_ap(w) == expected  # exact, not approx
            assert m == expected
            checked += 1
    assert checked > 500
    assert most_hits >= 3  # AP sums three or more terms somewhere


def test_chunked_mean_ap_is_bitwise_one_chunk(monkeypatch):
    rng = random.Random(77)
    for _ in range(40):
        nf = rng.randint(1, 4)
        table, qrels = _tied_table(rng, rng.randint(1, 12), nf)
        packed = _PackedQueries(ltr._as_table(table, nf), qrels)
        batch = np.array([[rng.choice((0.0, 0.5, -1.0, rng.uniform(-1, 1)))
                           for _ in range(nf)] for _ in range(rng.randint(1, 12))])
        whole = packed.mean_ap(batch)
        cells = len(packed._rel_q) * packed.pad.shape[1]
        # one trial per chunk, then chunks of 1-5 trials with a short last one
        for limit in (1, cells * rng.randint(1, 5) + rng.randrange(max(cells, 1))):
            monkeypatch.setattr(ltr, "_MAP_CHUNK_CELLS", limit)
            chunked = packed.mean_ap(batch)
            assert chunked.shape == whole.shape
            assert chunked.tobytes() == whole.tobytes()
            assert packed.mean_ap(batch[0]) == whole[0]
        monkeypatch.undo()


def test_packed_trial_scores_are_linear_model_scores(monkeypatch):
    # What mean_ap ranks for each trial is LinearModel.score of each row,
    # bit for bit. Feature 0 is all zero; column 1's weights are +0.0 or
    # -0.0, equal as values, wherever the batch does not vary it; batches
    # vary in no column, the first, a middle one, the last, or several.
    monkeypatch.setattr(ltr, "_MAP_CHUNK_CELLS", 1)  # one trial per chunk
    ranked = []
    chunk_map = _PackedQueries._chunk_map

    def spy(self, scores):
        ranked.extend(scores.copy())
        return chunk_map(self, scores)

    monkeypatch.setattr(_PackedQueries, "_chunk_map", spy)
    rng = random.Random(1212)
    signed_zeros = set()
    for _ in range(25):
        nf = rng.randint(3, 5)
        table, qrels = _random_table(rng, nq=rng.randint(2, 7), nf=nf)
        table = {q: [FeatureVector(q, fv.paragraph_id, (0.0,) + fv.features[1:])
                     for fv in rows] for q, rows in table.items()}
        names = tuple(f"f{j}" for j in range(nf))
        packed = _PackedQueries(ltr._as_table(table, nf), qrels)
        qids = [q for q in sorted(table) if qrels.relevant(q)]
        base = [rng.uniform(-1, 1) for _ in range(nf)]
        for varying in ((), (0,), (nf // 2,), (nf - 1,), (0, nf // 2, nf - 1)):
            batch = np.array([[rng.uniform(-1, 1) if j in varying else base[j]
                               for j in range(nf)] for _ in range(rng.randint(1, 6))])
            if 1 not in varying:
                batch[:, 1] = [rng.choice((0.0, -0.0)) for _ in batch]
                signed_zeros.update(math.copysign(1, w) for w in batch[:, 1])
            ranked.clear()
            packed.mean_ap(batch)
            assert len(ranked) == len(batch)
            for w, scores in zip(batch, ranked):
                model = LinearModel(names, tuple(w.tolist()))
                for qi, qid in enumerate(qids):
                    rows = table[qid]
                    assert [s.hex() for s in scores[qi, :len(rows)].tolist()] == \
                        [model.score(fv.features).hex() for fv in rows]
    assert signed_zeros == {1.0, -1.0}


def test_ltr_makes_no_blas_call():
    # a matrix product's rounding depends on the BLAS kernel; every score
    # in ltr is elementwise, so a fold's bits cannot
    assert not re.search(r"matmul|\bdot\b|einsum|[\w)\]] @ ", inspect.getsource(ltr))


# --- coordinate ascent ------------------------------------------------------

def _separable_table(nq=8, noise_seed=3):
    # Feature 0 is the relevance indicator; feature 1 is pure noise.
    rng = random.Random(noise_seed)
    table = {}
    qrels = {}
    for qi in range(nq):
        qid = f"q{qi}"
        rows = []
        positives = set()
        for di in range(6):
            rel = di % 3 == 0
            if rel:
                positives.add(f"p{di}")
            rows.append(FeatureVector(qid, f"p{di}",
                                      (1.0 if rel else 0.0, rng.random())))
        table[qid] = rows
        qrels[qid] = frozenset(positives)
    return table, Qrels(positives=qrels)


def test_separable_fixture_reaches_map_one():
    table, qrels = _separable_table()
    model = train_coordinate_ascent(table, qrels, ("truth", "noise"),
                                    CaConfig(seed=5))
    assert training_map(model, table, qrels) == pytest.approx(1.0)


def test_trained_map_at_least_best_single_feature():
    rng = random.Random(23)
    for trial in range(5):
        table, qrels = _random_table(rng, nq=5, nf=3)
        names = ("f0", "f1", "f2")
        model = train_coordinate_ascent(table, qrels, names, CaConfig(seed=trial))
        fused = training_map(model, table, qrels)
        for i in range(3):
            unit = LinearModel(names, tuple(1.0 if j == i else 0.0
                                            for j in range(3)))
            assert fused >= training_map(unit, table, qrels) - 1e-12


def test_training_is_bit_identical_under_seed():
    table, qrels = _separable_table()
    cfg = CaConfig(seed=99)
    a = train_coordinate_ascent(table, qrels, ("t", "n"), cfg)
    b = train_coordinate_ascent(table, qrels, ("t", "n"), cfg)
    assert a.weights == b.weights  # exact float equality, not approx


def test_single_feature_keeps_feature_order():
    # One informative feature: the relevant paragraph scores highest.
    table = {}
    qrels = {}
    for qi in range(4):
        qid = f"q{qi}"
        table[qid] = [FeatureVector(qid, f"p{di}", ((di + qi) % 6 / 6.0,))
                      for di in range(6)]
        qrels[qid] = frozenset({f"p{(5 - qi) % 6}"})
    qrels = Qrels(positives=qrels)
    model = train_coordinate_ascent(table, qrels, ("only",), CaConfig(seed=1))
    (w,) = model.weights
    assert w > 0
    rows = table["q0"]
    ranked = rank_items("q0", {r.paragraph_id: model.score(r.features)
                               for r in rows})
    by_feature = rank_items("q0", {r.paragraph_id: r.features[0] for r in rows})
    assert ranked.paragraph_ids() == by_feature.paragraph_ids()


def test_train_requires_features_and_positives():
    table, qrels = _separable_table()
    with pytest.raises(ValueError, match="at least one feature"):
        train_coordinate_ascent(table, qrels, ())
    with pytest.raises(ValueError, match="no training query"):
        train_coordinate_ascent(table, Qrels(positives={}), ("t", "n"))


def test_every_query_rejects_wrong_width_rows():
    # qx has no positive, so no training set ever holds it; only its
    # test fold reads its rows
    table, qrels = _separable_table(nq=6)
    table["qx"] = [FeatureVector("qx", "pa", (1.0, 0.5, 0.0)),
                   FeatureVector("qx", "pb", (1.0,))]
    cfg = CaConfig(restarts=1, iterations=2)
    with pytest.raises(ValueError, match="has 1 values, expected 2"):
        cross_validate(table, qrels, ("t", "n"), k=2, cfg=cfg)
    with pytest.raises(ValueError, match="expected 2"):
        training_map(LinearModel(("t", "n"), (1.0, 0.0)), table, qrels)
    del table["qx"]
    packed = ltr._as_table(table, 2)
    for names in (("t",), ("t", "n", "x")):
        with pytest.raises(ValueError, match=f"has 2 values, expected {len(names)}"):
            cross_validate(packed, qrels, names, k=2, cfg=cfg)
        with pytest.raises(ValueError, match=f"has 2 values, expected {len(names)}"):
            train_coordinate_ascent(packed, qrels, names, cfg)


def test_trained_model_never_all_zero():
    # Even when no move helps (all features identical), the returned
    # model keeps a usable weight vector.
    table = {"q": [FeatureVector("q", "pa", (0.5,)),
                   FeatureVector("q", "pb", (0.5,))]}
    qrels = Qrels(positives={"q": frozenset({"pa"})})
    model = train_coordinate_ascent(table, qrels, ("flat",), CaConfig(seed=0))
    assert any(w != 0.0 for w in model.weights)


# --- early stop vs the full-pass trainer ------------------------------------

def _full_pass_ascent(table, qrels, nf, cfg):
    """Reference trainer: one MAP call per trial, every pass run to its end."""
    packed = _SortedMap(table, qrels, nf)
    rng = np.random.default_rng(cfg.seed)
    starts = [np.eye(nf, dtype=np.float64)[i] for i in range(nf)]
    for _ in range(cfg.restarts):
        starts.append(rng.uniform(-1.0, 1.0, size=nf))
    best_weights = None
    best_map = -math.inf
    for start in starts:
        w = start.astype(np.float64).copy()
        current = packed.mean_ap(w)
        for _ in range(cfg.iterations):
            improved = False
            for coord in range(nf):
                base = w[coord]
                chosen = None
                chosen_map = current
                for value in _candidate_values(base, cfg.step_sizes):
                    w[coord] = value
                    if not np.any(w):
                        continue
                    m = packed.mean_ap(w)
                    if m > chosen_map + cfg.tolerance:
                        chosen_map = m
                        chosen = value
                w[coord] = base
                if chosen is not None:
                    w[coord] = chosen
                    current = chosen_map
                    improved = True
            if not improved:
                break
        if current > best_map:
            best_map = current
            best_weights = w.copy()
    return tuple(float(x) for x in best_weights)


BINDING_CAP = CaConfig(restarts=1, iterations=2, step_sizes=(0.2,))


@pytest.mark.parametrize("cfg", [
    CaConfig(restarts=2),
    CaConfig(restarts=1, iterations=1),
    BINDING_CAP,
    CaConfig(restarts=3, step_sizes=(0.3, 1.0)),
], ids=["default", "one-pass", "binding-cap", "coarse-steps"])
def test_early_stop_matches_full_pass_trainer(cfg):
    rng = random.Random(cfg.iterations * 100 + cfg.restarts)
    cap_bound = False
    for trial in range(6):
        nf = 1 if trial == 0 else rng.randint(2, 4)
        table, qrels = _random_table(rng, nq=6, nf=nf, quantize=trial % 2 == 1)
        names = tuple(f"f{i}" for i in range(nf))
        trial_cfg = replace(cfg, seed=trial)
        expected = _full_pass_ascent(table, qrels, nf, trial_cfg)
        model = train_coordinate_ascent(table, qrels, names, trial_cfg)
        assert model.weights == expected  # exact float equality
        cap_bound |= expected != _full_pass_ascent(
            table, qrels, nf, replace(trial_cfg, iterations=25))
    if cfg is BINDING_CAP:
        assert cap_bound


def test_step_that_zeroes_the_only_weight_is_never_taken():
    # At weight 0 every row ties and keeps ascending id, which ranks the
    # positive first; any positive weight ranks it last. From the unit
    # start, the step of 1.0 to zero is the only improving move, and the
    # trainer must skip it.
    table = {f"q{qi}": [FeatureVector(f"q{qi}", f"p{di}", (di / 3.0,))
                        for di in range(4)]
             for qi in range(3)}
    qrels = Qrels(positives={qid: frozenset({"p0"}) for qid in table})
    oracle = _SortedMap(table, qrels, 1)
    assert oracle.mean_ap(np.zeros(1)) > oracle.mean_ap(np.ones(1))
    cfg = CaConfig(restarts=1, step_sizes=(1.0,))
    model = train_coordinate_ascent(table, qrels, ("f",), cfg)
    assert model.weights == _full_pass_ascent(table, qrels, 1, cfg)
    assert model.weights != (0.0,)


# --- cross-validation -------------------------------------------------------

def test_cross_validate_coverage_and_no_leakage():
    table, qrels = _separable_table(nq=11)
    merged, reports = cross_validate(table, qrels, ("t", "n"), k=3,
                                     cfg=CaConfig(seed=2, restarts=1,
                                                  iterations=5))
    assert sorted(merged) == sorted(table)
    assert len(reports) == 3
    all_test = [q for r in reports for q in r.test_queries]
    assert sorted(all_test) == sorted(table)  # each exactly once
    for r in reports:
        assert not set(r.train_queries) & set(r.test_queries)
        assert len(r.train_queries) + len(r.test_queries) == len(table)
        assert r.train_map >= 0.0
        sizes = {len(r.test_queries) for r in reports}
        assert max(sizes) - min(sizes) <= 1


def test_cross_validate_is_deterministic():
    table, qrels = _separable_table(nq=6)
    cfg = CaConfig(seed=4, restarts=1, iterations=5)
    merged_a, reports_a = cross_validate(table, qrels, ("t", "n"), k=2, cfg=cfg)
    merged_b, reports_b = cross_validate(table, qrels, ("t", "n"), k=2, cfg=cfg)
    assert merged_a == merged_b
    assert [r.model.weights for r in reports_a] == \
        [r.model.weights for r in reports_b]


def test_cross_validate_scores_queries_without_positives():
    table, qrels_full = _separable_table(nq=6)
    positives = dict(qrels_full.positives)
    positives.pop("q0")  # q0 keeps feature rows but has no judgments
    qrels = Qrels(positives=positives)
    merged, _ = cross_validate(table, qrels, ("t", "n"), k=2,
                               cfg=CaConfig(seed=1, restarts=1, iterations=3))
    assert "q0" in merged


def test_test_fold_scores_are_linear_model_scores(tmp_path):
    # Feature "anti" is 0 on every relevant row and positive elsewhere, so
    # the best models weight it negatively and score -0.0 products; "dead"
    # is an all-zero column. Scores are compared bit for bit.
    rng = random.Random(606)
    negative_zero_products = 0
    for trial in range(12):
        table, qrels = _random_table(rng, nq=rng.randint(4, 9), nf=2)
        table = {q: [FeatureVector(q, fv.paragraph_id, fv.features + (
                        0.0 if fv.paragraph_id in qrels.relevant(q) else rng.uniform(0.2, 1.0),
                        0.0)) for fv in rows] for q, rows in table.items()}
        names = ("t", "n", "anti", "dead")
        merged, reports = cross_validate(table, qrels, names, k=2,
                                         cfg=CaConfig(seed=trial, restarts=2, iterations=3))
        for rep in reports:
            for qid in rep.test_queries:
                expected = rank_items(qid, {fv.paragraph_id: rep.model.score(fv.features)
                                            for fv in table[qid]})
                assert [(p, s.hex()) for p, s in merged[qid].items] == \
                    [(p, s.hex()) for p, s in expected.items]
                negative_zero_products += sum(w < 0 and f == 0 for fv in table[qid]
                                              for w, f in zip(rep.model.weights, fv.features))
        path = tmp_path / f"run-fused-{trial}.txt"
        write_run(RunFile("fused", merged), str(path))
        assert all(line.split()[4] != "-0" for line in path.read_text().splitlines())
    assert negative_zero_products > 0


def test_cross_validate_validates_k():
    table, qrels = _separable_table(nq=4)
    with pytest.raises(ValueError):
        cross_validate(table, qrels, ("t", "n"), k=1)
    with pytest.raises(ValueError):
        cross_validate(table, qrels, ("t", "n"), k=5)


def _paged_corpus_table():
    """A corpus whose page ids include '/' and '%', and a separable
    table over its heading queries: query id -> page id, table, qrels."""
    shapes = {"a": 1, "a/b": 3, "50%/x": 2, "plain": 4, "z": 2}
    corpus = corpus_from_pages([
        page(pid, f"T{pi}", [
            section(f"H{si}", [(f"x{pi}s{si}", "text")],
                    [section("Sub/part", [(f"y{pi}s{si}", "text")])] if si % 2 else None)
            for si in range(n)])
        for pi, (pid, n) in enumerate(shapes.items())])
    page_of = {q.query_id: q.page_id for q in all_queries(corpus)}
    rng = random.Random(8)
    table = {q: [FeatureVector(q, f"p{di}", (float(di == 0), rng.random()))
                 for di in range(4)] for q in page_of}
    qrels = Qrels({q: frozenset({"p0"}) for q in page_of})
    return corpus, page_of, table, qrels


def test_cross_validate_tests_each_page_in_one_fold():
    corpus, page_of, table, qrels = _paged_corpus_table()
    n_pages = len(corpus.pages)
    for k in range(2, n_pages + 1):
        _, reports = cross_validate(table, qrels, ("t", "n"), k=k,
                                    cfg=CaConfig(seed=k, restarts=1, iterations=3))
        fold_pages = [{page_of[q] for q in r.test_queries} for r in reports]
        for pid in page_of.values():
            assert sum(pid in pages for pages in fold_pages) == 1, (k, pid)
        if k == n_pages:  # one page per fold: "a" and "a/b" stay apart
            assert all(len(pages) == 1 for pages in fold_pages)


def test_cross_validate_tests_each_query_in_its_page_fold():
    corpus, page_of, table, qrels = _paged_corpus_table()
    folds = assign_folds(corpus, 3, seed=5)
    merged, reports = cross_validate(table, qrels, ("t", "n"), k=3,
                                     cfg=CaConfig(seed=1, restarts=1, iterations=3),
                                     folds=folds)
    assert sorted(merged) == sorted(table)
    for r in reports:
        assert r.test_queries == tuple(
            q for q in sorted(table) if folds.fold_of(page_of[q]) == r.fold)
        assert r.train_queries == tuple(
            q for q in sorted(table) if folds.fold_of(page_of[q]) != r.fold)


def test_cross_validate_rejects_a_foreign_fold_assignment():
    corpus, _, table, qrels = _paged_corpus_table()
    folds = assign_folds(corpus, 3, seed=5)
    with pytest.raises(ValueError, match="has 3 folds, expected 2"):
        cross_validate(table, qrels, ("t", "n"), k=2, folds=folds)
    partial = FoldAssignment(k=3, mapping={p: f for p, f in folds.mapping.items()
                                           if p != "a/b"})
    with pytest.raises(ValueError, match="page 'a/b' missing from fold assignment"):
        cross_validate(table, qrels, ("t", "n"), k=3, folds=partial)


def _cross_validate_both_ways(monkeypatch, *args, **kwargs):
    """cross_validate's result, or its ValueError as (type, message), with
    one fold worker per fold and then in this process (one usable CPU)."""
    outcomes = []
    for cpus in (8, 1):
        monkeypatch.setattr(ltr, "_usable_cpus", lambda n=cpus: n)
        try:
            outcomes.append(cross_validate(*args, **kwargs))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


@needs_fork
def test_fold_workers_match_in_process_folds(monkeypatch):
    rng = random.Random(31)
    names = ("f0", "f1", "f2")
    for k in range(2, 7):
        for _ in range(2):
            table, qrels = _random_table(rng, nq=rng.randint(k, 3 * k),
                                         quantize=rng.random() < 0.5)
            cfg = CaConfig(seed=rng.randrange(1000), restarts=2, iterations=6)
            (merged_p, reports_p), (merged_s, reports_s) = \
                _cross_validate_both_ways(monkeypatch, table, qrels, names,
                                          k=k, cfg=cfg)
            assert merged_p == merged_s
            assert len(reports_p) == k
            assert reports_p == reports_s  # fold, queries, weights, train_map
    # Only q0 has a positive, so the fold that tests q0 has none to train
    # on: the same ValueError either way, which the CLI turns into exit 2.
    table, qrels = _separable_table(nq=4)
    only_q0 = Qrels(positives={"q0": qrels.relevant("q0")})
    pooled, in_process = _cross_validate_both_ways(
        monkeypatch, table, only_q0, ("t", "n"), k=2,
        cfg=CaConfig(restarts=1, iterations=2))
    assert pooled == in_process == (ValueError,
                                    "no training query has a relevant paragraph")


@needs_fork
def test_dead_fold_worker_raises_broken_pool(monkeypatch):
    table, qrels = _separable_table(nq=6)
    monkeypatch.setattr(ltr, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ltr, "_train_fold", exit_in_worker)
    with time_limit(30), pytest.raises(BrokenProcessPool):
        cross_validate(table, qrels, ("t", "n"), k=3,
                       cfg=CaConfig(restarts=1, iterations=2))



@needs_fork
def test_fold_tasks_get_an_index_and_never_pickle_a_feature_row(monkeypatch):
    # workers inherit the table through the fork; a task carries its fold
    table, qrels = _separable_table(nq=9)
    cfg = CaConfig(restarts=1, iterations=4)
    expected = cross_validate(table, qrels, ("t", "n"), k=3, cfg=cfg)
    task = ltr._train_fold

    @functools.wraps(task)  # pickled by reference, as the original is
    def index_only(fold):
        if type(fold) is not int:
            raise TypeError(f"fold task got a {type(fold).__name__}")
        return task(fold)

    def refuse(self, protocol):
        raise pickle.PicklingError(f"a {type(self).__name__} was pickled")

    monkeypatch.setattr(ltr, "_train_fold", index_only)
    monkeypatch.setattr(FeatureVector, "__reduce_ex__", refuse)
    monkeypatch.setattr(FeatureTable, "__reduce_ex__", refuse)
    with pytest.raises(pickle.PicklingError, match="a FeatureTable was pickled"):
        pickle.dumps(ltr._as_table(table, 2))
    pooled, in_process = _cross_validate_both_ways(
        monkeypatch, table, qrels, ("t", "n"), k=3, cfg=cfg)
    assert pooled == in_process == expected
    assert ltr._fold_inputs is None  # both runs let go of the table


def test_folds_fork_only_on_linux(monkeypatch):
    monkeypatch.setattr(ltr, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(sys, "platform", "linux")
    assert ltr._fold_workers(5) == 5
    assert ltr._fold_workers(12) == 8
    monkeypatch.setattr(sys, "platform", "darwin")
    assert ltr._fold_workers(5) == 1

@needs_fork
@pytest.mark.parametrize("owner, name", [(ltr, "train_coordinate_ascent"),
                                         (ltr, "training_map"),
                                         (_PackedQueries, "mean_ap")])
def test_wrapped_fold_code_trains_in_this_process(monkeypatch, owner, name):
    # a wrapper (a tracer, a call counter) keeps its records in this
    # process, so a forked worker must not be the one that calls it
    table, qrels = _separable_table(nq=6)
    cfg = CaConfig(restarts=1, iterations=2)
    monkeypatch.setattr(ltr, "_usable_cpus", lambda: 8)
    pooled = cross_validate(table, qrels, ("t", "n"), k=3, cfg=cfg)
    original, pids = getattr(owner, name), []

    def counting(*args, **kwargs):
        pids.append(os.getpid())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    assert cross_validate(table, qrels, ("t", "n"), k=3, cfg=cfg) == pooled
    assert pids and set(pids) == {os.getpid()}


# --- external runs and model files -------------------------------------------

def test_external_subset_fills_zero():
    internal = RunFile("a", {"q1": Ranking("q1", (("pa", 2.0), ("pb", 1.0)))})
    external = RunFile("x", {"q1": Ranking("q1", (("pa", 0.4),))})
    table = assemble_feature_table([internal, external])
    assert _rows(table, "q1")["pb"][1] == 0.0


def test_model_file_roundtrip(tmp_path):
    model = LinearModel(("bm25", "cs"), (0.1234567890123456, -2.0))
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    header, *weights = path.read_text(encoding="utf-8").splitlines()
    assert header == "features\tbm25\tcs"
    # repr()-precision floats survive exactly
    assert tuple(float(w) for w in weights) == model.weights
