#!/usr/bin/env python3
"""Run the scorer/expansion grid over a synthetic fixture and fuse with LTR.

Generates a fixture (unless --fixture-dir already holds one), runs
every requested method+expansion combination as a pipeline feature,
cross-validates the linear fusion, and prints per-method MAP together
with fused-vs-baseline significance. All artifacts land under
--out-dir for inspection; rerunning with the same flags reproduces
them byte for byte. The pipeline's own time, and the peak resident
memory of this process and of its largest fold worker, go to standard
output only.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from headingrank.cli import main as cli
from headingrank.synth import SynthSpec, write_fixture

DEFAULT_GRID = ",".join((
    "bm25", "bm25+rm1",
    "tfidf-cs", "tfidf-cs+rm1", "tfidf-cs+rocchio",
    "glove-cs", "glove-cs+rm1",
    "entity-cs", "entity-cs+ent-rm1",
))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="experiments")
    ap.add_argument("--pages", type=int, default=50,
                    help="fixture size when one is generated")
    ap.add_argument("--fixture-dir",
                    help="reuse corpus.jsonl/embeddings.txt/gazetteer.tsv "
                         "from here instead of generating")
    ap.add_argument("--scorers", default=DEFAULT_GRID)
    ap.add_argument("--candidate-k", type=int, default=100)
    ap.add_argument("--ltr-folds", type=int, default=5)
    ap.add_argument("--without", help="also refit the fusion without this feature")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    out = Path(args.out_dir)
    if args.fixture_dir:
        fx = Path(args.fixture_dir)
        paths = {kind: str(fx / name)
                 for kind, name in (("corpus", "corpus.jsonl"),
                                    ("embeddings", "embeddings.txt"),
                                    ("gazetteer", "gazetteer.tsv"))}
    else:
        spec = SynthSpec(pages=args.pages, seed=args.seed)
        paths = write_fixture(spec, str(out / "fixture"))
    print(f"corpus: {paths['corpus']}")

    pipeline_dir = out / "pipeline"
    argv = ["pipeline",
            "--corpus", paths["corpus"],
            "--out-dir", str(pipeline_dir),
            "--embeddings", paths["embeddings"],
            "--gazetteer", paths["gazetteer"],
            "--scorers", args.scorers,
            "--candidate-k", str(args.candidate_k),
            "--ltr-folds", str(args.ltr_folds),
            "--seed", str(args.seed)]
    if args.without:
        argv += ["--without", args.without]
    cli_started = time.perf_counter()
    code = cli(argv)
    cli_s = time.perf_counter() - cli_started
    if code != 0:
        return code

    print()
    print("fused vs. each baseline (paired t-test on per-query AP):")
    print((pipeline_dir / "significance.txt").read_text(encoding="utf-8"))
    print(f"finished in {time.perf_counter() - started:.1f}s; "
          f"artifacts under {pipeline_dir}")
    print(f"pipeline: {cli_s:.2f} s")
    # ru_maxrss is in KiB on Linux and in bytes on macOS; RUSAGE_CHILDREN
    # reports the largest waited-for child, here a fold worker
    unit = 2**20 if sys.platform == "darwin" else 2**10
    parent, worker = (resource.getrusage(who).ru_maxrss / unit
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"peak RSS: parent {parent:.1f} MiB, largest worker process {worker:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
