#!/usr/bin/env python3
"""Rewrite tests/output_digests.sha256, the pinned bytes of every output.

Runs a fixed set of commands on the SynthSpec(pages=5, seed=3) fixture,
in this process, and records the sha256 of every file they write:
- the fixture itself;
- pipeline over the nine-scorer grid with --embeddings and --gazetteer,
  at the default folds, restarts and iterations;
- index, env --mode train, and env --mode test --qrels-out;
- each grid scorer's full-collection run --k 100, and its run over the
  saved index and the pipeline's candidates.tsv;
- a run named ext, and a pipeline that fuses it with three scorers and
  ablates bm25 (--ltr-folds 3 --seed 9).
tests/test_output_digests.py reruns the same commands and names every
file whose digest differs. A change that alters an output reruns this
script and says in CHANGES.md which files changed and why.
"""

import contextlib
import hashlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

from headingrank.cli import main as cli
from headingrank.synth import SynthSpec, write_fixture

SCRIPTS = Path(__file__).resolve().parent
DIGESTS = SCRIPTS.parent / "tests" / "output_digests.sha256"
GRID = runpy.run_path(str(SCRIPTS / "run_experiments.py"),
                      run_name="grid")["DEFAULT_GRID"].split(",")


def write_outputs(root: Path) -> None:
    """Write every pinned output under root."""
    fx = write_fixture(SynthSpec(pages=5, seed=3), str(root / "fixture"))
    corpus = ["--corpus", fx["corpus"]]
    resources = [*corpus, "--embeddings", fx["embeddings"], "--gazetteer", fx["gazetteer"]]
    argvs = [
        ["pipeline", *resources, "--out-dir", root / "pipeline", "--scorers", ",".join(GRID)],
        ["index", *corpus, "--out", root / "index.json"],
        ["env", *corpus, "--mode", "train", "--out", root / "env-train.tsv"],
        ["env", *corpus, "--mode", "test", "--out", root / "env-test.tsv",
         "--qrels-out", root / "qrels.txt"],
    ]
    for scorer in GRID:
        method, _, expansion = scorer.partition("+")
        run = ["run", *resources, "--method", method, "--expansion", expansion or "none",
               "--run-name", scorer]
        argvs += [
            [*run, "--k", "100", "--out", root / "run" / f"{scorer}.txt"],
            [*run, "--index", root / "index.json",
             "--candidates", root / "pipeline" / "candidates.tsv",
             "--out", root / "run-candidates" / f"{scorer}.txt"],
        ]
    argvs += [
        ["run", *resources, "--method", "glove-cs", "--run-name", "ext",
         "--out", root / "ext.txt"],
        ["pipeline", *resources, "--out-dir", root / "ablation",
         "--scorers", "bm25,tfidf-cs+rocchio,entity-cs",
         "--external-scores", root / "ext.txt", "--without", "bm25",
         "--ltr-folds", "3", "--seed", "9"],
    ]
    (root / "run").mkdir()
    (root / "run-candidates").mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            code = cli([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"exit {code}: {' '.join(map(str, argv))}")


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by its path relative to root."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_digests(path: Path = DIGESTS) -> dict[str, str]:
    """A digest file's entries; it holds "<sha256>  <path>" lines."""
    pairs = (line.split("  ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in pairs}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        found = digests(Path(tmp))
    DIGESTS.write_text("".join(f"{d}  {name}\n" for name, d in found.items()),
                       encoding="utf-8", newline="\n")
    print(f"wrote {len(found)} digests -> {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
