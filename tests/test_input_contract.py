"""The exit-code contract of every command, as a property.

Each example starts from a valid 5-page fixture and applies one
corruption: a JSON field's type or value, a number in a text line, a
cut line, a missing file, or an out-of-range flag. The command must
exit 0, or exit 2 with an `error:` line and no file written; it must
never exit 1, which is kept for internal faults. An out-of-range flag
and a missing file must exit 2.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from headingrank.cli import main
from headingrank.corpus import load_corpus
from headingrank.semvec import (CachingLinker, build_entity_stats, load_gazetteer,
                                write_entity_stats)
from headingrank.synth import SynthSpec, write_fixture


def contract(max_examples):
    return settings(max_examples=max_examples, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


# replacements for a JSON value, and for a number in a text line
JSON_VALUES = [None, True, 0, -1, 5, 1.5, float("nan"), "", "x", "\ud800", [], {}, [5],
               {"x": 1}]
BAD_NUMBERS = ["-1", "0", "1.5", "nan", "inf", "-inf", "1e999", "x", ""]
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")

# every input is one JSON document (whole), one per line (lines), or text
JSON_KINDS = {"corpus": "lines", "index": "whole"}
# the named fields of a corpus record and of an index artifact
FIELDS = {"id", "title", "sections", "heading", "paragraphs", "children", "text",
          "format", "version", "doc_lengths", "fingerprint", "postings", "texts", "tokens"}

# out-of-range values of the flags that take numbers
METHOD_FLAGS = [
    ("--mu", ["0", "-1", "nan", "inf"]), ("--k1", ["0", "-1", "nan", "inf"]),
    ("--b", ["-0.1", "1.5", "nan"]), ("--lambda", ["-0.5", "2", "nan"]),
    ("--fb-docs", ["0", "-1"]), ("--fb-terms", ["0"]), ("--fb-entities", ["0"]),
    ("--rocchio-passages", ["0"]),
]
FOLD_FLAG = ("--ltr-folds", ["-1", "0", "1", "6"])  # the fixture has 5 pages
ALPHA_FLAG = ("--alpha", ["0", "1", "-0.5", "1.5", "nan"])


def quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Paths of a valid 5-page fixture and of what the commands make of it."""
    root = tmp_path_factory.mktemp("valid")
    files = {name: Path(p) for name, p in
             write_fixture(SynthSpec(pages=5, seed=3), str(root)).items()}
    files.update({name: root / name for name in
                  ("index.json", "candidates", "qrels", "run-a", "run-b", "entity-stats")})
    files["index"] = files.pop("index.json")
    corpus = files["corpus"]
    for argv in (["index", "--out", files["index"]],
                 ["env", "--mode", "train", "--out", files["candidates"],
                  "--qrels-out", files["qrels"]],
                 ["run", "--method", "bm25", "--out", files["run-a"]],
                 ["run", "--method", "tfidf-cs", "--run-name", "prior",
                  "--out", files["run-b"]]):
        assert quiet_main([*argv, "--corpus", corpus])[0] == 0, argv
    texts = {pid: p.text for pid, p in load_corpus(str(corpus)).paragraphs.items()}
    linker = CachingLinker(load_gazetteer(str(files["gazetteer"])))
    write_entity_stats(build_entity_stats(texts, linker), str(files["entity-stats"]))
    return files


def _paths(node, path=()):
    """Every position in a JSON document, root first."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, (*path, key))


def _label(path):
    """A position's depth and field name; list items and data keys are "*"."""
    return len(path), path[-1] if path and path[-1] in FIELDS else "*"


def _corrupt_json(data, doc):
    """doc with the value at one position replaced, or removed from its
    parent. The position's label is drawn first, so that each field is
    as likely as the many postings and paragraphs."""
    paths = list(_paths(doc))
    label = data.draw(st.sampled_from(sorted({_label(p) for p in paths})), label="field")
    path = data.draw(st.sampled_from([p for p in paths if _label(p) == label]), label="path")
    value = data.draw(st.sampled_from(["remove", *JSON_VALUES]), label="value")
    if not path:
        return 5 if value == "remove" else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == "remove":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _corrupt(data, name: str, source: Path, kind: str, target: Path) -> None:
    raw = source.read_bytes()
    if kind == "cut":
        target.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut at")])
    elif kind == "number":
        text = raw.decode("utf-8")
        m = data.draw(st.sampled_from(list(NUMBER.finditer(text))), label="number")
        bad = data.draw(st.sampled_from(BAD_NUMBERS), label="to")
        target.write_text(text[:m.start()] + bad + text[m.end():], encoding="utf-8")
    elif JSON_KINDS[name] == "whole":
        target.write_text(json.dumps(_corrupt_json(data, json.loads(raw))), encoding="utf-8")
    else:
        lines = raw.decode("utf-8").splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i] = json.dumps(_corrupt_json(data, json.loads(lines[i])))
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_contract(data, valid, argv, flags=()):
    """Run argv, whose "<name>" items are the valid inputs and "<out>/..."
    items outputs, after one corruption; check the exit-code contract."""
    inputs = [a[1:-1] for a in argv if a.startswith("<") and a.endswith(">")]
    kinds = ["field", "number", "cut", "flag", "missing"]
    kind = data.draw(st.sampled_from([
        k for k in kinds if k in ("missing", "cut")
        or (k == "number" and set(inputs) - set(JSON_KINDS))
        or (k == "field" and set(inputs) & set(JSON_KINDS))
        or (k == "flag" and flags)]), label="corruption")
    with tempfile.TemporaryDirectory() as tmp:
        work, out = Path(tmp) / "in", Path(tmp) / "out"
        work.mkdir()
        out.mkdir()
        paths = {name: valid[name] for name in inputs}
        extra = []
        if kind == "flag":
            flag, values = data.draw(st.sampled_from(flags), label="flag")
            extra = [flag, data.draw(st.sampled_from(values), label="value")]
        else:
            name = data.draw(st.sampled_from(
                [n for n in inputs if (n in JSON_KINDS) == (kind == "field")
                 or kind in ("missing", "cut")]), label="file")
            paths[name] = work / valid[name].name
            if kind != "missing":
                _corrupt(data, name, valid[name], kind, paths[name])
        resolved = [str(out) + a[len("<out>"):] if a.startswith("<out>")
                    else paths[a[1:-1]] if a.startswith("<") else a for a in argv]
        code, err = quiet_main([*resolved, *extra])
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    event(f"{kind} -> {code}")
    assert code in (0, 2), err
    if kind in ("missing", "flag"):
        assert code == 2, f"{kind} exited 0"
    if code == 2:
        assert any(line.startswith("error: ") for line in err.splitlines()), err
        assert written == [], f"exit 2 after writing {written}: {err}"


@contract(30)
@given(data=st.data())
def test_index_contract(valid, data):
    check_contract(data, valid, ["index", "--corpus", "<corpus>", "--out", "<out>/index.json"])


@contract(30)
@given(data=st.data(), mode=st.sampled_from(["train", "test"]))
def test_env_contract(valid, data, mode):
    check_contract(data, valid, ["env", "--corpus", "<corpus>", "--mode", mode,
                                 "--out", "<out>/env.tsv", "--qrels-out", "<out>/qrels.txt"],
                   # test mode has no negative budgets
                   flags=[("--neg-same", ["-1"]), ("--neg-other", ["-2"])]
                   if mode == "train" else ())


# the resource flags a scorer reads
EMBEDDINGS = ["--embeddings", "<embeddings>"]
GAZETTEER = ["--gazetteer", "<gazetteer>"]
ENTITY = [*EMBEDDINGS, *GAZETTEER, "--entity-stats", "<entity-stats>"]


@contract(30)
@given(data=st.data(),
       scorer=st.sampled_from([("bm25", []), ("bm25+rm1", []), ("tfidf-cs+rocchio", []),
                               ("glove-cs+rm1", EMBEDDINGS), ("glove-cs+rocchio", EMBEDDINGS),
                               ("entity-cs+ent-rm1", ENTITY), ("entity-cs+rocchio", ENTITY)]),
       candidates=st.booleans())
def test_run_contract(valid, data, scorer, candidates):
    (method, _, expansion), resources = scorer[0].partition("+"), scorer[1]
    check_contract(data, valid, [
        "run", "--corpus", "<corpus>", "--index", "<index>", "--method", method,
        "--expansion", expansion or "none", *resources,
        *(["--candidates", "<candidates>"] if candidates else []),
        "--out", "<out>/run.txt"],
        # only rocchio splits pages into folds
        flags=[("--k", ["0", "-5"]), *METHOD_FLAGS,
               *([FOLD_FLAG] if expansion == "rocchio" else [])])


@contract(30)
@given(data=st.data())
def test_eval_contract(valid, data):
    check_contract(data, valid, ["eval", "--run", "<run-a>", "--qrels", "<qrels>",
                                 "--per-query", "--out", "<out>/metrics.txt"])


@contract(30)
@given(data=st.data())
def test_compare_contract(valid, data):
    check_contract(data, valid, ["compare", "--run-a", "<run-a>", "--run-b", "<run-b>",
                                 "--qrels", "<qrels>", "--out", "<out>/compare.txt"],
                   flags=[ALPHA_FLAG])


@contract(50)
@given(data=st.data(),
       scorers=st.sampled_from([("bm25,tfidf-cs+rocchio", []), ("bm25+rm1,glove-cs", EMBEDDINGS),
                                ("tfidf-cs,entity-cs+ent-rm1", ENTITY),
                                ("glove-cs+rocchio,bm25", EMBEDDINGS)]),
       external=st.booleans())
def test_pipeline_contract(valid, data, scorers, external):
    check_contract(data, valid, [
        "pipeline", "--corpus", "<corpus>", "--index", "<index>", "--scorers", scorers[0],
        *scorers[1], *(["--external-scores", "<run-b>"] if external else []),
        "--ltr-folds", "2", "--restarts", "1", "--iterations", "2",
        "--out-dir", "<out>/exp"],
        flags=[("--candidate-k", ["0", "-1"]), ("--restarts", ["0"]),
               ("--iterations", ["0", "-1"]), FOLD_FLAG, ALPHA_FLAG, *METHOD_FLAGS])
