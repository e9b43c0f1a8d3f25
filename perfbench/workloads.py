"""The benchmark's workloads: fixture sets and the CLI commands run on them.

Every workload runs on a set of synthetic fixtures, each written by
``headingrank.synth.write_fixture`` from a seed derived from the
benchmark's ``--seed``. Averaging over several small fixtures keeps a
run's total steady across seeds while each run stays short.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

# The nine-scorer grid of scripts/run_experiments.py (DEFAULT_GRID), fixed
# here so the benchmark does not move when the script's default does.
GRID = (
    "bm25", "bm25+rm1",
    "tfidf-cs", "tfidf-cs+rm1", "tfidf-cs+rocchio",
    "glove-cs", "glove-cs+rm1",
    "entity-cs", "entity-cs+ent-rm1",
)
EXPANDED = tuple(s for s in GRID if "+" in s)
FEEDBACK = tuple(s for s in EXPANDED if s.endswith("rm1"))
CANDIDATE_K = 100
RUN_DEPTH = 100
LTR_FOLDS = 5
NEG_PER_TRUE = 5  # the CLI's default --neg-same and --neg-other


@dataclass(frozen=True)
class Workload:
    name: str
    pages: int  # pages per fixture
    fixtures: int  # fixtures per run
    min_passes: int  # untraced passes; later ones are checked against the first
    loaders: tuple[str, ...]  # public loaders its commands call
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fusion", pages=5, fixtures=16, min_passes=1,
            loaders=("corpus", "queries", "build_index", "embeddings",
                     "gazetteer", "entity_stats"),
            why="headingrank pipeline with the nine-scorer grid: the paper's "
                "full experiment, where coordinate-ascent LTR does nearly all "
                "the work"),
        Workload(
            name="retrieve", pages=20, fixtures=10, min_passes=2,
            loaders=("corpus", "queries", "load_index", "embeddings",
                     "gazetteer", "entity_stats"),
            why="headingrank index, then run in full-collection mode for each "
                "grid scorer: index, methods, expansion and semvec, no LTR"),
        Workload(
            name="ingest", pages=200, fixtures=8, min_passes=2,
            loaders=("corpus", "build_index"),
            why="headingrank index, then env --mode train and env --mode test: "
                "corpus, index and envgen writing artifacts, no scoring"),
    )
}


@dataclass(frozen=True)
class Fixture:
    seed: int
    corpus: str
    embeddings: str
    gazetteer: str
    index: str  # saved index of the corpus, for set-up probes that load one


def fixture_seed(seed: int, i: int) -> int:
    """Seed of the i-th fixture of a run; distinct across runs for any seed,
    since a run has fewer than 1000 fixtures."""
    return seed * 1000 + i


def scorer_file(scorer: str) -> str:
    """File-name form of a scorer, as the CLI's pipeline writes it."""
    return scorer.replace("+", "_")


def prepare_fixtures(workload: Workload, seed: int, root: Path) -> list[Fixture]:
    """Write every fixture of a run under root, and an index where probes load one."""
    from headingrank.cli import main as cli_main
    from headingrank.synth import SynthSpec, write_fixture

    fixtures = []
    for i in range(workload.fixtures):
        fseed = fixture_seed(seed, i)
        paths = write_fixture(SynthSpec(pages=workload.pages, seed=fseed),
                              str(root / f"fixture{i}"))
        index = str(root / f"fixture{i}" / "index.json")
        if "load_index" in workload.loaders:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["index", "--corpus", paths["corpus"], "--out", index])
            if code != 0:
                raise RuntimeError(f"could not index fixture {i} (exit {code})")
        fixtures.append(Fixture(seed=fseed, corpus=paths["corpus"],
                                embeddings=paths["embeddings"],
                                gazetteer=paths["gazetteer"], index=index))
    return fixtures


def commands(workload: str, fx: Fixture, out: Path) -> list[list[str]]:
    """The CLI argument lists one workload run passes to headingrank.cli.main."""
    seed = str(fx.seed)
    index = str(out / "index.json")
    if workload == "fusion":
        return [["pipeline", "--corpus", fx.corpus, "--out-dir", str(out),
                 "--embeddings", fx.embeddings, "--gazetteer", fx.gazetteer,
                 "--scorers", ",".join(GRID),
                 "--candidate-k", str(CANDIDATE_K),
                 "--ltr-folds", str(LTR_FOLDS), "--seed", seed]]
    if workload == "retrieve":
        argvs = [["index", "--corpus", fx.corpus, "--out", index]]
        for scorer in GRID:
            method, _, expansion = scorer.partition("+")
            argvs.append(["run", "--corpus", fx.corpus, "--index", index,
                          "--method", method, "--expansion", expansion or "none",
                          "--embeddings", fx.embeddings,
                          "--gazetteer", fx.gazetteer,
                          "--k", str(RUN_DEPTH), "--seed", seed,
                          "--run-name", scorer,
                          "--out", str(out / f"run-{scorer_file(scorer)}.txt")])
        return argvs
    if workload == "ingest":
        return [["index", "--corpus", fx.corpus, "--out", index],
                ["env", "--corpus", fx.corpus, "--mode", "train",
                 "--out", str(out / "train.tsv"), "--seed", seed],
                ["env", "--corpus", fx.corpus, "--mode", "test",
                 "--out", str(out / "test.tsv"),
                 "--qrels-out", str(out / "qrels.txt"), "--seed", seed]]
    raise ValueError(f"unknown workload {workload!r}")
