"""Spans around headingrank's public functions, for the traced run only.

``Tracer.install`` wraps each traced function in every headingrank module
namespace that holds it, because the CLI imports most of them by value,
and wraps each traced method on its class. A call records a span (name,
layer, start, end, parent) in memory; ``summary`` reduces the spans of one
child to per-layer sums and ``layer_metrics`` turns the merged sums of one
pass over a run's fixtures into the benchmark's per-layer metrics.

A layer's self time is the time inside its spans minus the time inside
their child spans, so the self times of all layers plus the CLI's own
share add up to the traced wall time.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

from perfbench.workloads import EXPANDED, FEEDBACK, GRID, LTR_FOLDS

LAYERS = ("corpus", "textproc", "index", "semvec", "expansion", "methods",
          "envgen", "ltr", "evaluation")

# (module, function): span "<module>.<function>" in layer <module>.
FUNCTIONS = (
    ("corpus", "load_corpus"), ("corpus", "all_queries"),
    ("corpus", "derive_qrels"), ("corpus", "assign_folds"),
    ("corpus", "read_qrels"), ("corpus", "write_qrels"),
    ("textproc", "tokenize"),
    ("index", "build_index"), ("index", "save_index"), ("index", "load_index"),
    ("index", "matching_paragraphs"),
    ("semvec", "load_embeddings"), ("semvec", "load_gazetteer"),
    ("semvec", "build_entity_stats"),
    ("expansion", "build_heading_support"),
    ("envgen", "generate_candidates"), ("envgen", "build_train_env"),
    ("envgen", "build_test_env"), ("envgen", "write_candidates"),
    ("ltr", "assemble_feature_table"), ("ltr", "cross_validate"),
    ("ltr", "train_coordinate_ascent"), ("ltr", "training_map"),
    ("ltr", "save_model"),
    ("evaluation", "evaluate_run"), ("evaluation", "read_run"),
    ("evaluation", "write_run"), ("evaluation", "write_metrics"),
    ("evaluation", "paired_t_test"),
)
# (module, class, method, layer)
METHODS = (
    ("methods", "MethodEngine", "rank", "methods"),
    ("methods", "MethodEngine", "expand", "expansion"),
    ("semvec", "GazetteerLinker", "link", "semvec"),
    ("semvec", "CachingLinker", "link", "semvec"),
)

NAME, LAYER, START, END, PARENT, INFO = range(6)


def metric_key(scorer: str) -> str:
    """A scorer as it appears in a metric name ('+' is not allowed there)."""
    return scorer.replace("+", "_")


def _pair() -> dict:
    return {"sum": 0, "n": 0}


def _add(pair: dict, value: float) -> None:
    pair["sum"] += value
    pair["n"] += 1


def _mean(pair: dict) -> float:
    return pair["sum"] / pair["n"] if pair["n"] else 0.0


def _scorer(engine) -> str:
    p = engine.params
    return p.method if p.expansion == "none" else f"{p.method}+{p.expansion}"


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    # --- recording ------------------------------------------------------

    def open(self, name: str, layer: str, info: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, time.perf_counter(), 0.0, parent, info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.open(name, layer)
        try:
            yield s
        finally:
            self.close(s)

    def current(self) -> list | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def parent_of(self, span: list) -> list | None:
        return self.spans[span[PARENT]] if span[PARENT] >= 0 else None

    def _wrap(self, fn: Callable, name: str, layer: str,
              before: Callable | None, after: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name, layer,
                             before(self, args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, span, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and methods of an imported headingrank."""
        import headingrank.cli  # noqa: F401  (loads every traced module)

        namespaces = {name: mod for name, mod in sys.modules.items()
                      if name == "headingrank" or name.startswith("headingrank.")}
        for module, func in FUNCTIONS:
            original = getattr(namespaces[f"headingrank.{module}"], func)
            before, after = _HOOKS.get(func, (None, None))
            shared = None
            for ns_name, ns in namespaces.items():
                for attr, value in list(vars(ns).items()):
                    if value is not original:
                        continue
                    if func == "matching_paragraphs":
                        # one wrapper per caller, so feedback pools
                        # (expansion) and match pools (methods) stay apart
                        caller = ns_name.rpartition(".")[2]
                        wrapper = self._wrap(
                            original, f"{module}.{func}", module,
                            lambda t, a, k, c=caller: {"caller": c}, after)
                    else:
                        shared = shared or self._wrap(
                            original, f"{module}.{func}", module, before, after)
                        wrapper = shared
                    setattr(ns, attr, wrapper)
        for module, cls_name, meth, layer in METHODS:
            cls = getattr(namespaces[f"headingrank.{module}"], cls_name)
            before, after = _HOOKS.get(f"{cls_name}.{meth}", (None, None))
            setattr(cls, meth, self._wrap(getattr(cls, meth),
                                          f"{module}.{cls_name}.{meth}",
                                          layer, before, after))
        self._count_map_evals(namespaces["headingrank.ltr"])

    def _count_map_evals(self, ltr) -> None:
        """Count and time MAP evaluations in coordinate ascent (no spans)."""
        packed = getattr(ltr, "_PackedQueries", None)
        original = getattr(packed, "mean_ap", None)
        if original is None:
            self.counts["map_evals_absent"] = 1
            return
        counts = self.counts

        def mean_ap(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                counts["map_eval_s"] += time.perf_counter() - start
                counts["map_evals"] += 1
        packed.mean_ap = mean_ap

    # --- reduction ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer sums of this child's spans; see merge() and layer_metrics()."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        root = list(range(len(spans)))  # the fixture's top span
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                root[i] = root[s[PARENT]]
        indexed_roots: set[int] = set()
        counts = dict(self.counts)
        self_s: dict = defaultdict(float)
        time_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        out: dict = {
            "wall_s": sum(s[END] - s[START] for s in spans if s[PARENT] < 0),
            "self": self_s, "time": time_s, "calls": calls,
            "counts": counts,
            "rank_ms": defaultdict(list), "rank_pool": defaultdict(_pair),
            "expand_s": defaultdict(float), "unexpanded": defaultdict(_pair),
            "fb_pool": defaultdict(_pair), "match_pool": _pair(),
            "fold_train_s": defaultdict(float), "link": {"outer": 0, "inner": 0},
        }
        for i, s in enumerate(spans):
            name, dur, info = s[NAME], s[END] - s[START], s[INFO] or {}
            self_s[s[LAYER]] += dur - child_time[i]
            time_s[name] += dur
            calls[name] += 1
            if name == "methods.MethodEngine.rank":
                out["rank_ms"][info["scorer"]].append(dur * 1e3)
                _add(out["rank_pool"][info["scorer"]], info.get("pool", 0))
            elif name == "methods.MethodEngine.expand":
                out["expand_s"][info["scorer"]] += dur
                _add(out["unexpanded"][info["scorer"]],
                     0 if info.get("expanded") else 1)
            elif name == "index.matching_paragraphs":
                _add(out["match_pool"], info["pool"])
                if info["caller"] == "expansion":
                    scorer = self._enclosing_scorer(s)
                    if scorer is not None:
                        _add(out["fb_pool"][scorer], info["pool"])
            elif name in ("index.build_index", "index.load_index"):
                if root[i] not in indexed_roots:  # a fixture's first index
                    indexed_roots.add(root[i])
                    counts["index_terms"] = counts.get("index_terms", 0) + info["terms"]
            elif name == "ltr.train_coordinate_ascent":
                out["fold_train_s"][str(info["fold"])] += dur
            elif name.endswith("Linker.link"):
                parent = self.parent_of(s)
                nested = parent is not None and parent[NAME].endswith("Linker.link")
                out["link"]["inner" if nested else "outer"] += 1
        return out

    def _enclosing_scorer(self, span: list) -> str | None:
        while span is not None:
            if span[INFO] and "scorer" in span[INFO]:
                return span[INFO]["scorer"]
            span = self.parent_of(span)
        return None

    def write_spans(self, path: str) -> None:
        """All spans as JSON lines: run id, index, name, layer, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, s[NAME], s[LAYER], s[START],
                                     s[END], s[PARENT]]) + "\n")


# --- hooks: (before(tracer, args, kwargs) -> info, after(tracer, span, args, kwargs, result))

def _rank_before(tracer, args, kwargs):
    candidates = kwargs.get("candidates", args[3] if len(args) > 3 else None)
    info = {"scorer": _scorer(args[0])}
    if candidates is not None:
        info["pool"] = len(candidates)
    return info


def _expand_after(tracer, span, args, kwargs, result):
    span[INFO]["expanded"] = result.is_expanded


def _match_after(tracer, span, args, kwargs, result):
    span[INFO]["pool"] = len(result)
    parent = tracer.parent_of(span)
    if (span[INFO]["caller"] == "methods" and parent is not None
            and parent[NAME] == "methods.MethodEngine.rank"):
        parent[INFO]["pool"] = len(result)  # full-collection docs scored


def _index_after(tracer, span, args, kwargs, result):
    span[INFO] = {"terms": len(result.postings)}


def _save_index_after(tracer, span, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.counts["artifact_bytes"] += os.path.getsize(path)


def _candidates_after(tracer, span, args, kwargs, result):
    tracer.counts["candidate_rows"] += sum(len(c.paragraph_ids) for c in result.values())


def _env_after(tracer, span, args, kwargs, result):
    tracer.counts["env_rows"] += sum(len(c.paragraph_ids) for c in result.values())
    tracer.counts["short_headings"] += sum(
        1 for c in result.values() if c.deficit_same or c.deficit_other)


def _features_after(tracer, span, args, kwargs, result):
    tracer.counts["feature_rows"] += sum(len(rows) for rows in result.values())


def _cv_before(tracer, args, kwargs):
    return {"trained": 0}


def _train_before(tracer, args, kwargs):
    parent = tracer.current()
    if parent is None or parent[NAME] != "ltr.cross_validate":
        return {"fold": "x"}
    fold = parent[INFO]["trained"]
    parent[INFO]["trained"] += 1
    return {"fold": fold}


_HOOKS = {
    "MethodEngine.rank": (_rank_before, None),
    "MethodEngine.expand": (lambda t, a, k: {"scorer": _scorer(a[0])}, _expand_after),
    "matching_paragraphs": (None, _match_after),
    "build_index": (None, _index_after),
    "load_index": (None, _index_after),
    "save_index": (None, _save_index_after),
    "generate_candidates": (None, _candidates_after),
    "build_train_env": (None, _env_after),
    "build_test_env": (None, _env_after),
    "assemble_feature_table": (None, _features_after),
    "cross_validate": (_cv_before, None),
    "train_coordinate_ascent": (_train_before, None),
}


# --- merging and metrics ------------------------------------------------

def merge(a: dict, b: dict) -> dict:
    """Sum two summaries: numbers add, lists concatenate, dicts merge by key."""
    out = dict(a)
    for key, value in b.items():
        if key not in out:
            out[key] = value
        elif isinstance(value, dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = out[key] + value
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "corpus.load_s": "s", "corpus.queries_s": "s", "corpus.pages": "count",
        "corpus.paragraphs": "count", "corpus.queries": "count",
        "textproc.tokenize_s": "s", "textproc.tokenize_calls": "count",
        "index.build_s": "s", "index.save_s": "s", "index.load_s": "s",
        "index.artifact_bytes": "B", "index.terms": "count",
        "index.match_calls": "count", "index.match_pool_mean": "count",
        "semvec.embeddings_load_s": "s", "semvec.gazetteer_load_s": "s",
        "semvec.entity_stats_s": "s", "semvec.link_calls": "count",
        "semvec.link_cache_hit_ratio": "ratio",
    }
    for s in EXPANDED:
        units[f"expansion.expand_s.{metric_key(s)}"] = "s"
        units[f"expansion.unexpanded_frac.{metric_key(s)}"] = "ratio"
    for s in FEEDBACK:
        units[f"expansion.fb_pool_mean.{metric_key(s)}"] = "count"
    units["expansion.support_build_s"] = "s"
    for s in GRID:
        k = metric_key(s)
        units.update({f"methods.rank_s.{k}": "s", f"methods.rank_calls.{k}": "count",
                      f"methods.rank_ms_p50.{k}": "ms",
                      f"methods.rank_ms_tail.{k}": "ms",
                      f"methods.docs_scored_mean.{k}": "count"})
    units.update({
        "envgen.candidates_s": "s", "envgen.candidate_rows": "count",
        "envgen.train_env_s": "s", "envgen.test_env_s": "s",
        "envgen.env_rows": "count", "envgen.short_headings": "count",
        "envgen.write_s": "s",
        "ltr.features_s": "s", "ltr.feature_rows": "count", "ltr.cv_s": "s",
        "ltr.train_s": "s",
    })
    for f in range(LTR_FOLDS):
        units[f"ltr.train_s.fold{f}"] = "s"
    units.update({
        "ltr.training_map_s": "s", "ltr.map_evals": "count", "ltr.map_eval_us": "us",
        "evaluation.eval_s": "s", "evaluation.read_s": "s",
        "evaluation.write_s": "s", "evaluation.ttest_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "cli.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
        "quality.fused_map": "MAP", "quality.scorer_map_mean": "MAP",
        "check.failed_frac": "ratio",
    })
    return units


def tail_percentile(n: int) -> float:
    """Highest of a few standard percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0


def _percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(s: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its merged summaries.

    Quality, corpus sizes, failures and tracing overhead are measured by
    the harness and filled in there.
    """
    t, calls, c = s.get("time", {}), s.get("calls", {}), s.get("counts", {})
    m = {
        "corpus.load_s": t.get("corpus.load_corpus", 0.0),
        "corpus.queries_s": t.get("corpus.all_queries", 0.0),
        "textproc.tokenize_s": t.get("textproc.tokenize", 0.0),
        "textproc.tokenize_calls": calls.get("textproc.tokenize", 0),
        "index.build_s": t.get("index.build_index", 0.0),
        "index.save_s": t.get("index.save_index", 0.0),
        "index.load_s": t.get("index.load_index", 0.0),
        "index.artifact_bytes": c.get("artifact_bytes", 0),
        "index.terms": c.get("index_terms", 0),
        "index.match_calls": calls.get("index.matching_paragraphs", 0),
        "index.match_pool_mean": _mean(s.get("match_pool", _pair())),
        "semvec.embeddings_load_s": t.get("semvec.load_embeddings", 0.0),
        "semvec.gazetteer_load_s": t.get("semvec.load_gazetteer", 0.0),
        "semvec.entity_stats_s": t.get("semvec.build_entity_stats", 0.0),
        "expansion.support_build_s": t.get("expansion.build_heading_support", 0.0),
        "envgen.candidates_s": t.get("envgen.generate_candidates", 0.0),
        "envgen.candidate_rows": c.get("candidate_rows", 0),
        "envgen.train_env_s": t.get("envgen.build_train_env", 0.0),
        "envgen.test_env_s": t.get("envgen.build_test_env", 0.0),
        "envgen.env_rows": c.get("env_rows", 0),
        "envgen.short_headings": c.get("short_headings", 0),
        "envgen.write_s": t.get("envgen.write_candidates", 0.0),
        "ltr.features_s": t.get("ltr.assemble_feature_table", 0.0),
        "ltr.feature_rows": c.get("feature_rows", 0),
        "ltr.cv_s": t.get("ltr.cross_validate", 0.0),
        "ltr.train_s": t.get("ltr.train_coordinate_ascent", 0.0),
        "ltr.training_map_s": t.get("ltr.training_map", 0.0),
        "ltr.map_evals": c.get("map_evals", 0),
        "ltr.map_eval_us": (c["map_eval_s"] / c["map_evals"] * 1e6
                            if c.get("map_evals") else 0.0),
        "evaluation.eval_s": t.get("evaluation.evaluate_run", 0.0),
        "evaluation.read_s": t.get("evaluation.read_run", 0.0),
        "evaluation.write_s": (t.get("evaluation.write_run", 0.0)
                               + t.get("evaluation.write_metrics", 0.0)),
        "evaluation.ttest_s": t.get("evaluation.paired_t_test", 0.0),
        "cli.self_s": s.get("self", {}).get("cli", 0.0),
        "trace.wall_s": s.get("wall_s", 0.0),
    }
    link = s.get("link", {"outer": 0, "inner": 0})
    outer, inner = link["outer"], link["inner"]
    m["semvec.link_calls"] = outer
    m["semvec.link_cache_hit_ratio"] = 1.0 - inner / outer if outer else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s.get("self", {}).get(layer, 0.0)
    for f in range(LTR_FOLDS):
        m[f"ltr.train_s.fold{f}"] = s.get("fold_train_s", {}).get(str(f), 0.0)
    for sc in EXPANDED:
        k = metric_key(sc)
        m[f"expansion.expand_s.{k}"] = s.get("expand_s", {}).get(sc, 0.0)
        m[f"expansion.unexpanded_frac.{k}"] = _mean(
            s.get("unexpanded", {}).get(sc, _pair()))
    for sc in FEEDBACK:
        m[f"expansion.fb_pool_mean.{metric_key(sc)}"] = _mean(
            s.get("fb_pool", {}).get(sc, _pair()))
    for sc in GRID:
        k = metric_key(sc)
        samples = s.get("rank_ms", {}).get(sc, [])
        m[f"methods.rank_s.{k}"] = sum(samples) / 1e3
        m[f"methods.rank_calls.{k}"] = len(samples)
        m[f"methods.rank_ms_p50.{k}"] = statistics.median(samples) if samples else 0.0
        m[f"methods.rank_ms_tail.{k}"] = (
            _percentile(samples, tail_percentile(len(samples))) if samples else 0.0)
        m[f"methods.docs_scored_mean.{k}"] = _mean(
            s.get("rank_pool", {}).get(sc, _pair()))
    return m
