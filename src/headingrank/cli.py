"""Command-line interface.

Subcommands: index, env, run, eval, compare, pipeline. Exit codes:
0 on success, 2 for usage problems and malformed or inconsistent
inputs, 1 for internal faults. utils.InputError is the one type of
malformed input: every check of a flag or a file raises it, before a
command writes anything. A command exits 2 on it and on an OSError or
UnicodeDecodeError; any other exception, a plain ValueError included,
exits 1. Every random choice in a command is derived from its --seed,
so rerunning with equal inputs produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .corpus import (Corpus, FoldAssignment, HeadingQuery, Qrels, all_queries,
                     assign_folds, derive_qrels, iter_sections, load_corpus, read_qrels,
                     section_query_id, write_qrels)
from .envgen import (CandidateSet, EnvSpec, build_test_env, build_train_env,
                     generate_candidates, read_candidates, write_candidates)
from .evaluation import (MetricsReport, RunFile, evaluate_run, format_metrics,
                         format_p_value, paired_t_test, read_run, run_from_rankings,
                         write_metrics, write_run)
from .expansion import build_heading_support
from .index import (Index, Ranking, build_index, index_fingerprint, load_index,
                    save_index)
from .ltr import CaConfig, FeatureTable, assemble_feature_table, cross_validate, save_model
from .methods import MethodEngine, MethodParams, VALID_COMBINATIONS
from .semvec import (CachingLinker, build_entity_stats, load_embeddings,
                     load_entity_stats, load_gazetteer)
from .textproc import DEFAULT_CONFIG, TokenPipelineConfig, load_stopwords
from .utils import InputError, derive_seed

_INPUT_ERRORS = (InputError, OSError, UnicodeDecodeError)


# --- shared plumbing ----------------------------------------------------

def _token_config(args: argparse.Namespace) -> TokenPipelineConfig:
    path = getattr(args, "stopwords", None)
    if path is None:
        return DEFAULT_CONFIG
    return TokenPipelineConfig(stopwords=load_stopwords(path))


def _method_params(args: argparse.Namespace, method: str,
                   expansion: str) -> MethodParams:
    return MethodParams(
        method=method, expansion=expansion,
        k1=args.k1, b=args.b, mu=args.mu, lam=args.lam,
        fb_docs=args.fb_docs, fb_terms=args.fb_terms,
        fb_entities=args.fb_entities,
        rocchio_passages=args.rocchio_passages,
    )


def _load_resources(args: argparse.Namespace, corpus: Corpus, texts: Mapping[str, str],
                    folds: FoldAssignment | None,
                    scorers: Sequence[tuple[str, MethodParams]]) -> dict[str, object]:
    """MethodEngine keyword arguments holding every resource a scorer needs.

    Rejects a scorer whose --embeddings or --gazetteer was not given,
    then loads each needed resource once, so a command meets a missing
    flag or a malformed file before it writes anything. Entity link
    statistics come from --entity-stats or, without it, from the corpus.
    A Rocchio scorer gets the one heading support index of the command,
    built over every page with folds, which holds each query's fold out.
    """
    for name, params in scorers:
        if params.needs_embeddings and not args.embeddings:
            raise InputError(f"{name} requires --embeddings")
        if params.needs_linker and not args.gazetteer:
            raise InputError(f"{name} requires --gazetteer")
    res: dict[str, object] = {}
    if any(params.needs_embeddings for _, params in scorers):
        res["embeddings"] = load_embeddings(args.embeddings)
    if any(params.needs_linker for _, params in scorers):
        res["linker"] = CachingLinker(load_gazetteer(args.gazetteer))
    if any(params.method == "entity-cs" for _, params in scorers):
        res["entity_stats"] = (load_entity_stats(args.entity_stats)
                               if args.entity_stats
                               else build_entity_stats(texts, res["linker"]))
    if any(params.expansion == "rocchio" for _, params in scorers):
        res["support"] = build_heading_support(corpus, folds)
    return res


def _rank_queries(engine: MethodEngine, queries: Sequence[HeadingQuery],
                  candidates: Mapping[str, CandidateSet] | None,
                  k: int) -> list[Ranking]:
    return [engine.rank(q, k=k, candidates=None if candidates is None
                        else candidates[q.query_id].paragraph_ids)
            for q in sorted(queries, key=lambda q: q.query_id)]


def _validate_candidates(pools: Mapping[str, Iterable[str]], ix: Index,
                         known_queries: set[str], source: str) -> None:
    for qid, pids in pools.items():
        if qid not in known_queries:
            raise InputError(
                f"query {qid!r} in {source} does not belong to this corpus")
        for pid in pids:
            if pid not in ix:
                raise InputError(
                    f"paragraph {pid!r} in {source} is not in the index")


def _check_at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise InputError(f"{flag} must be >= 1, got {value}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InputError(f"--alpha must be in (0, 1), got {alpha:g}")


def _check_fold_training(queries: Sequence[HeadingQuery], qrels: Qrels,
                         folds: FoldAssignment, with_rows: set[str]) -> None:
    """What cross_validate needs of every fold: a training query with a
    relevant paragraph, and one such query with a feature row."""
    for f in range(folds.k):
        train = [q.query_id for q in queries
                 if folds.fold_of(q.page_id) != f and qrels.relevant(q.query_id)]
        if not train:
            raise InputError(f"--ltr-folds {folds.k}: no training query of "
                             f"fold {f} has a relevant paragraph")
        if with_rows.isdisjoint(train):
            raise InputError(f"--ltr-folds {folds.k}: no training query of "
                             f"fold {f} with a relevant paragraph has a candidate")


def _load_corpus(path: str) -> Corpus:
    """The corpus at path, whose sections must have distinct query ids:
    two sections of a page under one heading path would share one."""
    corpus = load_corpus(path)
    for page in corpus.pages:
        seen: set[tuple[str, ...]] = set()
        for section in iter_sections(page):
            heading_path = (*section.path, section.heading)
            if heading_path in seen:
                raise InputError(f"corpus {path}: two sections have the query id "
                                 f"{section_query_id(page, section)!r}")
            seen.add(heading_path)
    return corpus


def _texts(corpus: Corpus) -> dict[str, str]:
    return {pid: p.text for pid, p in corpus.paragraphs.items()}


def _corpus_index(args: argparse.Namespace, texts: Mapping[str, str],
                  cfg: TokenPipelineConfig) -> Index:
    """A fresh index, or the saved --index once its paragraph ids and
    fingerprint show it was built from this corpus's texts with the
    command's token config."""
    if not args.index:
        return build_index(texts, cfg)
    ix = load_index(args.index)
    if ix.doc_lengths.keys() != texts.keys():
        only_index = len(ix.doc_lengths.keys() - texts.keys())
        only_corpus = len(texts.keys() - ix.doc_lengths.keys())
        raise InputError(
            f"index {args.index} was not built from this corpus: "
            f"{only_index} paragraph ids only in the index, "
            f"{only_corpus} only in the corpus")
    expected = index_fingerprint(texts, cfg)
    for key, what in (("texts", "paragraph texts than this corpus's"),
                      ("tokens", "token settings (stopwords, stem, drop_digits) "
                                 "than this command's")):
        if ix.fingerprint[key] != expected[key]:
            raise InputError(f"index {args.index} was built from other {what}")
    return ix


# --- subcommands --------------------------------------------------------

def cmd_index(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.corpus)
    ix = build_index(_texts(corpus), _token_config(args))
    save_index(ix, args.out)
    print(f"indexed {ix.n_docs} paragraphs, {len(ix.postings)} terms -> {args.out}")
    return 0


def cmd_env(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.corpus)
    if args.mode == "train":
        spec = EnvSpec(neg_same_article=args.neg_same,
                       neg_other_article=args.neg_other, seed=args.seed)
        sets = build_train_env(corpus, spec)
    else:
        sets = build_test_env(corpus, seed=args.seed)
    write_candidates(sets, args.out)
    if args.qrels_out:
        write_qrels(derive_qrels(corpus), args.qrels_out)
    short = sum(1 for cs in sets.values()
                if cs.deficit_same or cs.deficit_other)
    total = sum(len(cs.paragraph_ids) for cs in sets.values())
    print(f"wrote {args.mode} environment: {len(sets)} headings, "
          f"{total} candidates, {short} headings short of budget -> {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    _check_at_least_one("--k", args.k)
    corpus = _load_corpus(args.corpus)
    texts = _texts(corpus)
    cfg = _token_config(args)
    ix = _corpus_index(args, texts, cfg)
    queries = all_queries(corpus, cfg)
    params = _method_params(args, args.method, args.expansion)
    scorer = (args.method if args.expansion == "none"
              else f"{args.method}+{args.expansion}")
    folds = (assign_folds(corpus, args.ltr_folds, args.seed)
             if params.expansion == "rocchio" else None)
    res = _load_resources(args, corpus, texts, folds, [(scorer, params)])
    engine = MethodEngine(ix, texts, params=params, **res)

    candidates = None
    skipped = 0
    if args.candidates:
        candidates = read_candidates(args.candidates)
        _validate_candidates({q: cs.paragraph_ids for q, cs in candidates.items()},
                             ix, {q.query_id for q in queries}, args.candidates)
        before = len(queries)
        queries = [q for q in queries if q.query_id in candidates]
        skipped = before - len(queries)

    rankings = _rank_queries(engine, queries, candidates, args.k)
    name = args.run_name or f"{args.method}+{args.expansion}"
    run = run_from_rankings(name, rankings)
    write_run(run, args.out)
    note = f", {skipped} corpus queries absent from the candidate file" if skipped else ""
    print(f"wrote run {name!r}: {len(rankings)} queries -> {args.out}{note}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    report = evaluate_run(read_run(args.run), read_qrels(args.qrels))
    text = format_metrics(report, per_query=args.per_query)
    sys.stdout.write(text)
    if args.out:
        write_metrics(report, args.out, per_query=args.per_query)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _check_alpha(args.alpha)
    qrels = read_qrels(args.qrels)
    run_a = read_run(args.run_a)
    run_b = read_run(args.run_b)
    report_a = evaluate_run(run_a, qrels)
    report_b = evaluate_run(run_b, qrels)
    ap_a = {q: v[0] for q, v in report_a.per_query.items()}
    ap_b = {q: v[0] for q, v in report_b.per_query.items()}
    result = paired_t_test(ap_a, ap_b, alpha=args.alpha)
    better = result.p_value < result.alpha and result.mean_diff > 0
    lines = [
        f"map-a\t{report_a.map:.6f}\t{run_a.name}",
        f"map-b\t{report_b.map:.6f}\t{run_b.name}",
        f"mean-diff\t{result.mean_diff:.6f}",
        f"t-statistic\t{result.t_statistic:.6f}",
        f"p-value\t{format_p_value(result.p_value)}",
        f"alpha\t{result.alpha:g}",
        f"a-significantly-worse\t{'yes' if result.significant_worse else 'no'}",
        f"a-significantly-better\t{'yes' if better else 'no'}",
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def _parse_scorers(args: argparse.Namespace) -> list[tuple[str, MethodParams]]:
    """(feature name, method parameters) pairs from --scorers."""
    if args.scorers:
        specs = [s.strip() for s in args.scorers.split(",") if s.strip()]
    else:
        specs = ["bm25", "tfidf-cs"]
        if args.embeddings:
            specs.append("glove-cs")
        if args.embeddings and args.gazetteer:
            specs.append("entity-cs")
    out: list[tuple[str, MethodParams]] = []
    for spec in specs:
        method, _, expansion = spec.partition("+")
        out.append((spec, _method_params(args, method.strip(),
                                         expansion.strip() or "none")))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise InputError("duplicate scorer in --scorers")
    return out


def _score_features(args: argparse.Namespace, out_dir: Path) -> tuple[
        FeatureTable, list[str], Qrels, FoldAssignment, dict[str, MetricsReport]]:
    """Check the inputs, write qrels, candidates and scorer runs, return what
    fusion reads; the corpus, index and engines die before fold workers fork."""
    _check_at_least_one("--candidate-k", args.candidate_k)
    corpus = _load_corpus(args.corpus)
    folds = assign_folds(corpus, args.ltr_folds, args.seed)
    scorers = _parse_scorers(args)
    texts = _texts(corpus)
    res = _load_resources(args, corpus, texts, folds, scorers)
    cfg = _token_config(args)
    ix = _corpus_index(args, texts, cfg)
    queries = sorted(all_queries(corpus, cfg), key=lambda q: q.query_id)
    feature_names = [name for name, _ in scorers]
    external = None
    if args.external_scores:
        external = read_run(args.external_scores)
        if external.name in feature_names:
            raise InputError(
                f"external run name {external.name!r} collides with a scorer")
        _validate_candidates(
            {q: r.paragraph_ids() for q, r in external.rankings.items()},
            ix, {q.query_id for q in queries}, args.external_scores)
        feature_names.append(external.name)
    if not feature_names:
        raise InputError("at least one feature required")
    if args.without:
        if args.without not in feature_names:
            raise InputError(
                f"--without {args.without!r} is not one of {feature_names}")
        if len(feature_names) < 2:
            raise InputError("cannot ablate the only feature")

    qrels = derive_qrels(corpus)
    candidates = generate_candidates(ix, queries, k=args.candidate_k)
    with_rows = ({q for q, cs in candidates.items() if cs.paragraph_ids}
                 if scorers else set())
    if external is not None:
        with_rows.update(q for q, r in external.rankings.items() if r.items)
    _check_fold_training(queries, qrels, folds, with_rows)

    write_qrels(qrels, str(out_dir / "qrels.txt"))
    write_candidates(candidates, str(out_dir / "candidates.tsv"))

    runs: list[RunFile] = []
    reports_by_name: dict[str, MetricsReport] = {}
    for name, params in scorers:
        engine = MethodEngine(ix, texts, params=params, **res)
        runs.append(run_from_rankings(name, _rank_queries(
            engine, queries, candidates, args.candidate_k)))
        reports_by_name[name] = _write_scored(runs[-1], qrels, out_dir)
    if external is not None:
        runs.append(external)
    return assemble_feature_table(runs), feature_names, qrels, folds, reports_by_name


def cmd_pipeline(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every parameter and input is checked before the first file is written
    _check_alpha(args.alpha)
    ca_cfg = CaConfig(seed=derive_seed(args.seed, "ltr"),
                      restarts=args.restarts, iterations=args.iterations)
    table, feature_names, qrels, folds, reports_by_name = _score_features(args, out_dir)
    merged, fold_reports = cross_validate(table, qrels, feature_names,
                                          k=args.ltr_folds, cfg=ca_cfg,
                                          folds=folds)
    fused_report = _write_scored(RunFile("fused", merged), qrels, out_dir)

    with open(out_dir / "folds.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fold\ttrain-queries\ttest-queries\ttrain-map\tweights\n")
        for rep in fold_reports:
            weights = " ".join(f"{w:.6f}" for w in rep.model.weights)
            fh.write(f"{rep.fold}\t{len(rep.train_queries)}\t"
                     f"{len(rep.test_queries)}\t{rep.train_map:.6f}\t{weights}\n")
            save_model(rep.model, str(out_dir / f"model-fold{rep.fold}.txt"))

    fused_ap = {q: v[0] for q, v in fused_report.per_query.items()}
    sig_lines = ["baseline\tmap\tfused-map\tmean-diff\tt\tp\tfused-worse"]
    for name, report in reports_by_name.items():
        ap = {q: v[0] for q, v in report.per_query.items()}
        result = paired_t_test(fused_ap, ap, alpha=args.alpha)
        sig_lines.append(
            f"{name}\t{report.map:.6f}\t{fused_report.map:.6f}\t"
            f"{result.mean_diff:.6f}\t{result.t_statistic:.4f}\t"
            f"{format_p_value(result.p_value)}\t"
            f"{'yes' if result.significant_worse else 'no'}")
    with open(out_dir / "significance.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(sig_lines) + "\n")

    summary = [f"{name}\tMAP {report.map:.6f}" for name, report in reports_by_name.items()]
    summary.append(f"fused\tMAP {fused_report.map:.6f}")

    if args.without:
        ab_merged, _ = cross_validate(
            table.without(feature_names.index(args.without)), qrels,
            [n for n in feature_names if n != args.without],
            k=args.ltr_folds, cfg=ca_cfg, folds=folds)
        ab_report = _write_scored(RunFile(f"fused-wo-{args.without}", ab_merged),
                                  qrels, out_dir)
        summary.append(f"fused-wo-{args.without}\tMAP {ab_report.map:.6f}")

    print("\n".join(summary))
    return 0


def _write_scored(run: RunFile, qrels: Qrels, out_dir: Path) -> MetricsReport:
    """Write run-<name>.txt and metrics-<name>.txt; return the metrics."""
    write_run(run, str(out_dir / f"run-{_safe(run.name)}.txt"))
    report = evaluate_run(run, qrels)
    write_metrics(report, str(out_dir / f"metrics-{_safe(run.name)}.txt"))
    return report


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


# --- parser -------------------------------------------------------------

def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fb-docs", type=int, default=10,
                   help="feedback paragraphs for relevance models")
    p.add_argument("--fb-terms", type=int, default=10,
                   help="feedback terms kept by rm1")
    p.add_argument("--fb-entities", type=int, default=10,
                   help="feedback entities kept by ent-rm1")
    p.add_argument("--rocchio-passages", type=int, default=5,
                   help="max same-heading passages per query")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="weight on the original query when mixing in feedback")
    p.add_argument("--mu", type=float, default=1500.0,
                   help="Dirichlet smoothing for feedback retrieval")
    p.add_argument("--k1", type=float, default=1.2, help="bm25 k1")
    p.add_argument("--b", type=float, default=0.75, help="bm25 b")
    p.add_argument("--embeddings", help="word/entity vector table")
    p.add_argument("--gazetteer", help="surface<TAB>entityId dictionary")
    p.add_argument("--entity-stats",
                   help="entity link-frequency file (default: derived from the corpus)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headingrank",
        description="Passage retrieval experiments over outline-structured corpora.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and save an inverted index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stopwords")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("env", help="generate a candidate environment")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=("train", "test"), required=True)
    p.add_argument("--out", required=True, help="candidate file to write")
    p.add_argument("--qrels-out", help="also write the derived labels here")
    p.add_argument("--neg-same", type=int, default=5,
                   help="same-article negatives per true paragraph (train mode)")
    p.add_argument("--neg-other", type=int, default=5,
                   help="other-article negatives per true paragraph (train mode)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_env)

    p = sub.add_parser("run", help="rank paragraphs for every heading query")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", help="saved index (default: build in memory)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--candidates", help="restrict scoring to this candidate file")
    group.add_argument("--env", dest="candidates",
                       help="alias for --candidates (environment file)")
    p.add_argument("--method", default="bm25",
                   choices=sorted(VALID_COMBINATIONS))
    p.add_argument("--expansion", default="none",
                   choices=("none", "rm1", "ent-rm1", "rocchio"))
    _add_method_flags(p)
    p.add_argument("--ltr-folds", type=int, default=5,
                   help="folds used to scope heading support for rocchio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=100,
                   help="ranking depth in full-collection mode")
    p.add_argument("--out", required=True)
    p.add_argument("--run-name")
    p.add_argument("--stopwords")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a run against labels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--per-query", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="paired t-test between two runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pipeline",
                       help="candidates, scorers, cross-validated fusion, reports")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", help="saved index (default: build in memory)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--candidate-k", type=int, default=100)
    p.add_argument("--scorers",
                   help="comma list like 'bm25,tfidf-cs+rocchio' "
                        "(default: bm25,tfidf-cs plus any method whose "
                        "resources were supplied)")
    p.add_argument("--external-scores",
                   help="run file of precomputed scores to add as a feature")
    p.add_argument("--without", help="drop this feature and refit for ablation")
    p.add_argument("--ltr-folds", type=int, default=5)
    p.add_argument("--restarts", type=int, default=5,
                   help="random restarts for coordinate ascent")
    p.add_argument("--iterations", type=int, default=25,
                   help="max ascent sweeps per restart")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stopwords")
    _add_method_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
