"""Exercises every subcommand through main(): files, exit codes, determinism."""

import gc
import json
import os
import re
import runpy
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from headingrank import cli, ltr
from headingrank.cli import main
from headingrank.corpus import (CorpusError, all_queries, assign_folds, balanced_folds,
                                derive_qrels, load_corpus, write_corpus)
from headingrank.envgen import EnvSpec, read_candidates
from headingrank.evaluation import RunFormatError, read_run
from headingrank.index import Bm25Params, Index
from headingrank.ltr import CaConfig
from headingrank.methods import InvalidCombinationError, MethodParams
from headingrank.semvec import EmbeddingFormatError
from headingrank.synth import SynthSpec, write_fixture
from headingrank.utils import InputError

from conftest import (BAD_ENTITY_STATS, corpus_from_pages, exit_in_worker,
                      needs_fork, page, section, time_limit)

TOPICS = ("history", "climate", "economy", "wildlife", "culture", "geology")


def make_corpus_file(tmp_path, n_pages=6, name="corpus.jsonl"):
    pages = []
    for pi in range(n_pages):
        secs = []
        for si in range(2):
            topic = TOPICS[(pi + si) % len(TOPICS)]
            paras = [
                (f"p{pi}s{si}n{ni}",
                 f"{topic} survey {('alpha', 'beta')[ni]} zone {pi}")
                for ni in range(2)
            ]
            secs.append(section(topic.title(), paras))
        pages.append(page(f"pg{pi}", f"Region {pi}", secs))
    corpus = corpus_from_pages(pages)
    path = tmp_path / name
    write_corpus(corpus, str(path))
    return path


@pytest.fixture
def corpus_path(tmp_path):
    return make_corpus_file(tmp_path)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "concurrent.futures",
                                    "numpy"])
def test_importing_cli_leaves_module_unloaded(module):
    # only the t-test needs scipy, only cross-validation starts fold
    # workers, and only vectors and fusion need numpy; index, env and
    # a lexical run never pay these imports
    code = ("import sys, headingrank.cli; "
            f"sys.exit(1 if any(m == {module!r} or m.startswith({module + '.'!r}) "
            "for m in sys.modules) else 0)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or f"{module} was imported"


def _loaded_after(argvs: list[list[str]], module: str) -> bool:
    """Run the commands through main() in a fresh interpreter; whether
    module or a submodule of it was imported by the end."""
    code = ("import io, sys, contextlib; from headingrank.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            f"sys.exit(3 if any(m == {module!r} or m.startswith({module + '.'!r}) "
            "for m in sys.modules) else 0)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          capture_output=True, text=True)
    assert proc.returncode in (0, 3), proc.stderr
    return proc.returncode == 3


def test_pipeline_eval_and_compare_never_import_scipy(tmp_path):
    # the t-test's Student-t tail is computed in the package itself
    paths = write_fixture(SynthSpec(pages=3, seed=5), str(tmp_path / "fx"))
    out = tmp_path / "exp"
    argvs = [
        ["pipeline", "--corpus", paths["corpus"], "--out-dir", str(out),
         "--scorers", "bm25,tfidf-cs", *PIPELINE_ARGS],
        ["eval", "--run", str(out / "run-fused.txt"), "--qrels", str(out / "qrels.txt")],
        ["compare", "--run-a", str(out / "run-fused.txt"),
         "--run-b", str(out / "run-bm25.txt"), "--qrels", str(out / "qrels.txt")],
    ]
    assert not _loaded_after(argvs, "scipy")
    rows = (out / "significance.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2
    # the t-test ran on real differences, so the tail was computed
    assert any(0.0 < float(row.split("\t")[5]) < 1.0 for row in rows), rows


def test_lexical_commands_never_import_numpy(tmp_path):
    # written here, because synth itself imports numpy; five pages for
    # rocchio's five folds
    paths = write_fixture(SynthSpec(pages=5, seed=5), str(tmp_path / "fx"))
    corpus, index = paths["corpus"], str(tmp_path / "index.json")
    test_env, qrels = str(tmp_path / "test.tsv"), str(tmp_path / "qrels.txt")
    argvs = [["index", "--corpus", corpus, "--out", index],
             ["env", "--corpus", corpus, "--mode", "train",
              "--out", str(tmp_path / "train.tsv")],
             ["env", "--corpus", corpus, "--mode", "test", "--out", test_env,
              "--qrels-out", qrels]]
    runs = []
    for method, expansion in (("bm25", "none"), ("bm25", "rm1"), ("tfidf-cs", "none"),
                              ("tfidf-cs", "rm1"), ("tfidf-cs", "rocchio")):
        runs.append(str(tmp_path / f"run-{method}-{expansion}.txt"))
        argvs.append(["run", "--corpus", corpus, "--index", index, "--method", method,
                      "--expansion", expansion, "--out", runs[-1]])
    argvs[-1] += ["--candidates", test_env]
    argvs += [["eval", "--run", runs[0], "--qrels", qrels],
              ["compare", "--run-a", runs[0], "--run-b", runs[2], "--qrels", qrels]]
    assert not _loaded_after(argvs, "numpy")
    # the check sees numpy when a command does load it
    assert _loaded_after([["run", "--corpus", corpus, "--index", index, "--method", "glove-cs",
                           "--embeddings", paths["embeddings"],
                           "--out", str(tmp_path / "run-glove.txt")]], "numpy")


# --- exit codes ---------------------------------------------------------

def test_input_error_is_the_one_input_error_type():
    # a plain ValueError is an internal fault (exit 1), not a usage error
    assert cli._INPUT_ERRORS == (InputError, OSError, UnicodeDecodeError)
    assert not hasattr(cli, "CliInputError")
    for cls in (CorpusError, RunFormatError, InvalidCombinationError,
                EmbeddingFormatError):
        assert issubclass(cls, InputError)
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("make", [
    lambda: MethodParams(method="nope"), lambda: MethodParams(lam=float("nan")),
    lambda: MethodParams(mu=float("nan")), lambda: MethodParams(mu=float("inf")),
    lambda: MethodParams(fb_docs=0), lambda: Bm25Params(k1=float("nan")),
    lambda: Bm25Params(k1=float("inf")), lambda: Bm25Params(b=float("nan")),
    lambda: CaConfig(restarts=0), lambda: CaConfig(step_sizes=()),
    lambda: EnvSpec(neg_same_article=-1), lambda: balanced_folds(["a", "b"], 1, 0),
    lambda: balanced_folds(["a", "b"], 3, 0),
])
def test_flag_checks_raise_input_error(make):
    with pytest.raises(InputError):
        make()


# --- argparse surface ---------------------------------------------------

def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_unknown_flag_is_a_usage_error(corpus_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("index", "--corpus", corpus_path, "--out",
                tmp_path / "ix.json", "--frobnicate")
    assert exc.value.code == 2


# --- index ----------------------------------------------------------------

def test_index_builds_and_rebuilds_identically(corpus_path, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("index", "--corpus", corpus_path, "--out", a) == 0
    assert "indexed 24 paragraphs" in capsys.readouterr().out
    assert run_cli("index", "--corpus", corpus_path, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_index_missing_corpus_exits_2(tmp_path, capsys):
    code = run_cli("index", "--corpus", tmp_path / "absent.jsonl",
                   "--out", tmp_path / "ix.json")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_index_malformed_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"pageId": "x"}\n', encoding="utf-8")
    assert run_cli("index", "--corpus", bad, "--out", tmp_path / "ix.json") == 2


# --- env -------------------------------------------------------------------

def test_env_train_writes_candidates_and_qrels(corpus_path, tmp_path, capsys):
    cand = tmp_path / "train.tsv"
    qrels = tmp_path / "qrels.txt"
    code = run_cli("env", "--corpus", corpus_path, "--mode", "train",
                   "--out", cand, "--qrels-out", qrels)
    assert code == 0
    assert "wrote train environment" in capsys.readouterr().out
    sets = read_candidates(str(cand))
    positives = derive_qrels(load_corpus(str(corpus_path))).positives
    for qid, cs in sets.items():
        assert set(positives[qid]) <= set(cs.paragraph_ids)
        assert set(cs.provenance.values()) <= {"true-section", "same-article",
                                               "other-article"}
    assert qrels.exists()


def test_env_test_doubles_article_size(corpus_path, tmp_path):
    cand = tmp_path / "test.tsv"
    assert run_cli("env", "--corpus", corpus_path, "--mode", "test",
                   "--out", cand, "--seed", "7") == 0
    sets = read_candidates(str(cand))
    assert len(sets) == 12  # two headings per page
    for cs in sets.values():
        assert len(cs.paragraph_ids) == 8  # 4 on-page + 4 foreign


def test_env_is_seed_sensitive(corpus_path, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.tsv", "b.tsv", "c.tsv"))
    run_cli("env", "--corpus", corpus_path, "--mode", "test", "--out", a,
            "--seed", "1")
    run_cli("env", "--corpus", corpus_path, "--mode", "test", "--out", b,
            "--seed", "1")
    run_cli("env", "--corpus", corpus_path, "--mode", "test", "--out", c,
            "--seed", "2")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# --- run ----------------------------------------------------------------------

def test_run_full_collection(corpus_path, tmp_path, capsys):
    out = tmp_path / "run.txt"
    assert run_cli("run", "--corpus", corpus_path, "--out", out) == 0
    assert "wrote run 'bm25+none'" in capsys.readouterr().out
    run = read_run(str(out))
    assert run.name == "bm25+none"
    assert run.rankings


def test_run_same_config_twice_is_byte_identical(corpus_path, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ("run", "--corpus", corpus_path, "--method", "tfidf-cs",
            "--expansion", "rm1", "--seed", "3")
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_restricted_to_candidates(corpus_path, tmp_path):
    cand = tmp_path / "cand.tsv"
    run_cli("env", "--corpus", corpus_path, "--mode", "test", "--out", cand)
    out = tmp_path / "run.txt"
    assert run_cli("run", "--corpus", corpus_path, "--candidates", cand,
                   "--out", out) == 0
    sets = read_candidates(str(cand))
    run = read_run(str(out))
    for qid, ranking in run.rankings.items():
        assert set(ranking.paragraph_ids()) == set(sets[qid].paragraph_ids)


def test_run_rejects_candidates_outside_corpus(corpus_path, tmp_path, capsys):
    cand = tmp_path / "cand.tsv"
    cand.write_text("pg0/History\tghost\tretrieved\n", encoding="utf-8")
    assert run_cli("run", "--corpus", corpus_path, "--candidates", cand,
                   "--out", tmp_path / "r.txt") == 2
    assert "not in the index" in capsys.readouterr().err


def test_run_rejects_foreign_candidate_query(corpus_path, tmp_path, capsys):
    cand = tmp_path / "cand.tsv"
    cand.write_text("who/Knows\tp0s0n0\tretrieved\n", encoding="utf-8")
    assert run_cli("run", "--corpus", corpus_path, "--candidates", cand,
                   "--out", tmp_path / "r.txt") == 2
    assert "does not belong" in capsys.readouterr().err


def test_run_invalid_combination_exits_2(corpus_path, tmp_path, capsys):
    code = run_cli("run", "--corpus", corpus_path, "--method", "bm25",
                   "--expansion", "rocchio", "--out", tmp_path / "r.txt")
    assert code == 2
    assert "cannot be applied" in capsys.readouterr().err


def test_run_rejects_zero_mu(corpus_path, tmp_path, capsys):
    # bm25 never smooths, so mu=0 is caught by validation, not by scoring
    code = run_cli("run", "--corpus", corpus_path, "--method", "bm25",
                   "--mu", "0", "--out", tmp_path / "r.txt")
    assert code == 2
    assert "mu must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_run_rejects_depth_below_one_before_writing(corpus_path, tmp_path, capsys, k):
    code = run_cli("run", "--corpus", corpus_path, "--k", k,
                   "--out", tmp_path / "r.txt")
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --k must be >= 1, got {k}")
    assert not (tmp_path / "r.txt").exists()


def test_run_dense_method_needs_embeddings_flag(corpus_path, tmp_path, capsys):
    code = run_cli("run", "--corpus", corpus_path, "--method", "glove-cs",
                   "--out", tmp_path / "r.txt")
    assert code == 2
    assert "--embeddings" in capsys.readouterr().err


def test_run_with_rocchio_over_saved_index(corpus_path, tmp_path):
    ix = tmp_path / "ix.json"
    run_cli("index", "--corpus", corpus_path, "--out", ix)
    out = tmp_path / "run.txt"
    assert run_cli("run", "--corpus", corpus_path, "--index", ix,
                   "--method", "tfidf-cs", "--expansion", "rocchio",
                   "--ltr-folds", "2", "--out", out) == 0
    assert read_run(str(out)).rankings


def test_each_command_builds_one_support_index(tmp_path, monkeypatch):
    # one index over every page serves all five folds and every Rocchio scorer
    calls = []
    build = cli.build_heading_support
    monkeypatch.setattr(cli, "build_heading_support",
                        lambda *args: calls.append(args) or build(*args))
    paths = write_fixture(SynthSpec(pages=5, seed=0), str(tmp_path / "fx"))
    resources = ("--corpus", paths["corpus"], "--embeddings", paths["embeddings"])
    assert run_cli("pipeline", *resources, "--out-dir", tmp_path / "exp",
                   "--scorers", "tfidf-cs+rocchio,glove-cs+rocchio", "--restarts", "2",
                   "--iterations", "8", "--candidate-k", "20") == 0
    assert len(calls) == 1 and len(calls[0]) == 2  # no fold held out
    calls.clear()
    assert run_cli("run", *resources, "--method", "glove-cs", "--expansion", "rocchio",
                   "--out", tmp_path / "r.txt") == 0
    assert len(calls) == 1 and len(calls[0]) == 2


def test_run_rejects_index_of_another_corpus(tmp_path, capsys):
    # corpus b holds a subset of corpus a's paragraph ids
    ix = tmp_path / "ix-a.json"
    run_cli("index", "--corpus", make_corpus_file(tmp_path), "--out", ix)
    other = make_corpus_file(tmp_path, n_pages=3, name="b.jsonl")
    out = tmp_path / "run.txt"
    assert run_cli("run", "--corpus", other, "--index", ix, "--out", out) == 2
    err = capsys.readouterr().err
    assert "was not built from this corpus" in err
    assert "12 paragraph ids only in the index, 0 only in the corpus" in err
    assert not out.exists()


def test_pipeline_rejects_index_of_another_corpus(tmp_path, capsys):
    ix = tmp_path / "ix-b.json"
    run_cli("index", "--corpus", make_corpus_file(tmp_path, n_pages=3,
                                                  name="b.jsonl"), "--out", ix)
    code = run_cli("pipeline", "--corpus", make_corpus_file(tmp_path),
                   "--index", ix, "--out-dir", tmp_path / "out",
                   "--ltr-folds", "2")
    assert code == 2
    assert "0 paragraph ids only in the index, 12 only in the corpus" \
        in capsys.readouterr().err


def _prepend_to_page(path, page_no, prefix):
    """Rewrite a corpus file with prefix before each paragraph of one page."""
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[page_no])
    for sec in record["sections"]:
        for para in sec["paragraphs"]:
            para["text"] = prefix + para["text"]
    lines[page_no] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _index_of_edited_text(tmp_path, corpus):
    ix = tmp_path / "ix.json"
    run_cli("index", "--corpus", corpus, "--out", ix)
    _prepend_to_page(corpus, 1, "zebra quokka ")
    return ix, "was built from other paragraph texts than this corpus's"


def _index_with_other_stopwords(tmp_path, corpus):
    ix, stop = tmp_path / "ix.json", tmp_path / "stop.txt"
    stop.write_text("survey\nzone\nalpha\n", encoding="utf-8")
    run_cli("index", "--corpus", corpus, "--out", ix, "--stopwords", stop)
    return ix, ("was built from other token settings (stopwords, stem, "
                "drop_digits) than this command's")


def _version_1_index(tmp_path, corpus):
    ix = tmp_path / "ix.json"
    run_cli("index", "--corpus", corpus, "--out", ix)
    payload = json.loads(ix.read_text(encoding="utf-8"))
    payload["version"] = 1
    del payload["fingerprint"]
    ix.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return ix, "unsupported index version 1"


@pytest.mark.parametrize("command", ["run", "pipeline"])
@pytest.mark.parametrize("make_index", [_index_of_edited_text, _index_with_other_stopwords,
                                        _version_1_index])
def test_index_of_other_text_exits_2_before_any_write(tmp_path, capsys, command,
                                                      make_index):
    corpus = make_corpus_file(tmp_path)
    ix, message = make_index(tmp_path, corpus)
    out = tmp_path / "out"
    out.mkdir()
    if command == "run":
        argv = ["run", "--corpus", corpus, "--index", ix, "--out", out / "run.txt"]
    else:
        argv = ["pipeline", "--corpus", corpus, "--index", ix, "--out-dir", out,
                *PIPELINE_ARGS]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_index_of_same_text_and_settings_is_accepted(tmp_path):
    corpus = make_corpus_file(tmp_path)
    stop = tmp_path / "stop.txt"
    stop.write_text("survey\nzone\nalpha\n", encoding="utf-8")
    ix = tmp_path / "ix.json"
    assert run_cli("index", "--corpus", corpus, "--out", ix, "--stopwords", stop) == 0
    saved, fresh = tmp_path / "saved.txt", tmp_path / "fresh.txt"
    assert run_cli("run", "--corpus", corpus, "--index", ix, "--stopwords", stop,
                   "--out", saved) == 0
    assert run_cli("run", "--corpus", corpus, "--stopwords", stop, "--out", fresh) == 0
    assert saved.read_bytes() == fresh.read_bytes()


# --- eval / compare --------------------------------------------------------

@pytest.fixture
def run_and_qrels(corpus_path, tmp_path):
    run = tmp_path / "run.txt"
    qrels = tmp_path / "qrels.txt"
    run_cli("run", "--corpus", corpus_path, "--out", run)
    run_cli("env", "--corpus", corpus_path, "--mode", "test",
            "--out", tmp_path / "ignored.tsv", "--qrels-out", qrels)
    return run, qrels


def test_eval_prints_and_writes_metrics(run_and_qrels, tmp_path, capsys):
    run, qrels = run_and_qrels
    out = tmp_path / "metrics.txt"
    assert run_cli("eval", "--run", run, "--qrels", qrels, "--out", out,
                   "--per-query") == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("MAP\t")
    assert "query\tpg0/Climate\t" in stdout
    assert out.read_text(encoding="utf-8") == stdout


def test_eval_malformed_run_exits_2(run_and_qrels, tmp_path, capsys):
    _, qrels = run_and_qrels
    bad = tmp_path / "bad-run.txt"
    bad.write_text("just one field\n", encoding="utf-8")
    assert run_cli("eval", "--run", bad, "--qrels", qrels) == 2


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_eval_and_compare_reject_non_finite_scores(run_and_qrels, tmp_path,
                                                   capsys, score):
    run, qrels = run_and_qrels
    lines = run.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split()
    fields[4] = score
    lines[1] = " ".join(fields) + "\n"
    bad = tmp_path / "bad-run.txt"
    bad.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out.txt"
    message = f"error: row 2: score must be finite, got {score!r}"
    assert run_cli("eval", "--run", bad, "--qrels", qrels, "--out", out) == 2
    assert capsys.readouterr().err.startswith(message)
    assert run_cli("compare", "--run-a", run, "--run-b", bad, "--qrels", qrels,
                   "--out", out) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_compare_reports_significance_fields(corpus_path, run_and_qrels,
                                             tmp_path, capsys):
    run_a, qrels = run_and_qrels
    run_b = tmp_path / "run-b.txt"
    run_cli("run", "--corpus", corpus_path, "--method", "tfidf-cs",
            "--out", run_b)
    capsys.readouterr()  # drop the run command's own status line
    out = tmp_path / "cmp.txt"
    assert run_cli("compare", "--run-a", run_a, "--run-b", run_b,
                   "--qrels", qrels, "--out", out) == 0
    text = capsys.readouterr().out
    for key in ("map-a\t", "map-b\t", "mean-diff\t", "t-statistic\t",
                "p-value\t", "a-significantly-worse\t"):
        assert key in text
    assert out.read_text(encoding="utf-8") == text


def test_compare_needs_two_judged_queries(run_and_qrels, tmp_path, capsys):
    run, qrels = run_and_qrels
    one = tmp_path / "one-query.txt"
    one.write_text(qrels.read_text(encoding="utf-8").splitlines()[0] + "\n",
                   encoding="utf-8")
    out = tmp_path / "cmp.txt"
    assert run_cli("compare", "--run-a", run, "--run-b", run, "--qrels", one,
                   "--out", out) == 2
    assert capsys.readouterr().err.startswith(
        "error: paired t-test requires n >= 2 queries with a relevant paragraph, got 1")
    assert not out.exists()


def test_compare_run_against_itself_is_never_significant(run_and_qrels, capsys):
    run, qrels = run_and_qrels
    assert run_cli("compare", "--run-a", run, "--run-b", run,
                   "--qrels", qrels) == 0
    text = capsys.readouterr().out
    assert "p-value\t1\n" in text
    assert "a-significantly-worse\tno" in text
    assert "a-significantly-better\tno" in text


@pytest.mark.parametrize("alpha", ["-3", "0", "1", "1.5", "nan"])
def test_compare_rejects_alpha_outside_the_unit_interval(run_and_qrels, tmp_path,
                                                          capsys, alpha):
    run, qrels = run_and_qrels
    out = tmp_path / "cmp.txt"
    assert run_cli("compare", "--run-a", run, "--run-b", run, "--qrels", qrels,
                   "--alpha", alpha, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: --alpha must be in (0, 1)")
    assert not out.exists()


# --- pipeline -----------------------------------------------------------------

PIPELINE_ARGS = ("--ltr-folds", "3", "--restarts", "2", "--iterations", "8",
                 "--candidate-k", "20")


def test_pipeline_produces_all_artifacts(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   *PIPELINE_ARGS) == 0
    for name in ("qrels.txt", "candidates.tsv", "run-bm25.txt",
                 "run-tfidf-cs.txt", "metrics-bm25.txt",
                 "metrics-tfidf-cs.txt", "run-fused.txt",
                 "metrics-fused.txt", "folds.txt", "significance.txt",
                 "model-fold0.txt"):
        assert (out_dir / name).exists(), name
    stdout = capsys.readouterr().out
    assert "fused\tMAP" in stdout
    folds = (out_dir / "folds.txt").read_text(encoding="utf-8").splitlines()
    assert folds[0] == "fold\ttrain-queries\ttest-queries\ttrain-map\tweights"
    assert len(folds) == 4
    sig = (out_dir / "significance.txt").read_text(encoding="utf-8")
    assert sig.splitlines()[0].startswith("baseline\t")
    assert len(sig.splitlines()) == 3  # header + the two scorers


def test_pipeline_fused_run_covers_every_query(corpus_path, tmp_path):
    out_dir = tmp_path / "exp"
    run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
            *PIPELINE_ARGS)
    fused = read_run(str(out_dir / "run-fused.txt"))
    corpus = load_corpus(str(corpus_path))
    assert len(fused.rankings) == 12
    assert set(fused.rankings) == set(derive_qrels(corpus).positives)


def test_pipeline_same_seed_is_byte_identical(corpus_path, tmp_path):
    dirs = (tmp_path / "one", tmp_path / "two")
    for d in dirs:
        assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", d,
                       "--seed", "11", *PIPELINE_ARGS) == 0
    for name in ("run-fused.txt", "metrics-fused.txt", "folds.txt",
                 "significance.txt", "candidates.tsv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GRID = runpy.run_path(str(SCRIPTS / "run_experiments.py"),
                      run_name="grid")["DEFAULT_GRID"].split(",")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A 5-page make_fixture.py fixture: corpus, embeddings and gazetteer."""
    out = tmp_path_factory.mktemp("fixture")
    make_fixture = runpy.run_path(str(SCRIPTS / "make_fixture.py"),
                                  run_name="fixture")["main"]
    assert make_fixture(["--out-dir", str(out), "--pages", "5"]) == 0
    return out


def _fixture_args(fixture_dir):
    return ["--corpus", fixture_dir / "corpus.jsonl",
            "--embeddings", fixture_dir / "embeddings.txt",
            "--gazetteer", fixture_dir / "gazetteer.tsv"]


def test_pipeline_outputs_do_not_depend_on_the_hash_seed(fixture_dir, tmp_path):
    # set iteration order changes with PYTHONHASHSEED, which is fixed
    # within one process; so the two pipelines run in two processes
    argv = [sys.executable, "-m", "headingrank", "pipeline",
            *map(str, _fixture_args(fixture_dir)),
            "--scorers", "bm25+rm1,tfidf-cs+rocchio,glove-cs,entity-cs+ent-rm1",
            "--ltr-folds", "2", "--restarts", "1", "--iterations", "3"]
    dirs = []
    for seed in ("1", "2"):
        dirs.append(tmp_path / f"hash-seed-{seed}")
        proc = subprocess.run([*argv, "--out-dir", str(dirs[-1])],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                                   "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "run-fused.txt" in names
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_run_reproduces_each_pipeline_scorer_run(fixture_dir, tmp_path):
    # run and pipeline are two routes to one scorer: given the pipeline's
    # candidates and seed, run must write the pipeline's run file
    resources = _fixture_args(fixture_dir)
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", *resources, "--out-dir", out_dir,
                   "--scorers", ",".join(GRID), "--seed", "5", "--ltr-folds", "2",
                   "--restarts", "1", "--iterations", "3") == 0
    for scorer in GRID:
        method, _, expansion = scorer.partition("+")
        out = tmp_path / f"{scorer}.txt"
        assert run_cli("run", *resources, "--candidates", out_dir / "candidates.tsv",
                       "--method", method, "--expansion", expansion or "none",
                       "--seed", "5", "--ltr-folds", "2", "--run-name", scorer,
                       "--out", out) == 0
        expected = out_dir / f"run-{scorer.replace('+', '_')}.txt"
        assert out.read_bytes() == expected.read_bytes(), scorer


def test_pipeline_folds_are_the_page_folds(tmp_path):
    # pages of 1..5 headings: the page folds hold unequal query counts
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_from_pages([
        page(f"pg{pi}", f"Region {pi}", [
            section(TOPICS[si].title(), [(f"p{pi}s{si}", f"{TOPICS[si]} zone {pi}")])
            for si in range(pi % 5 + 1)])
        for pi in range(7)]), str(corpus_path))
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   "--seed", "4", *PIPELINE_ARGS) == 0
    corpus = load_corpus(str(corpus_path))
    folds = assign_folds(corpus, 3, seed=4)
    want = [0, 0, 0]
    for q in all_queries(corpus):
        want[folds.fold_of(q.page_id)] += 1
    lines = (out_dir / "folds.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert [int(line.split("\t")[2]) for line in lines] == want


def test_pipeline_fuses_after_the_scoring_stage_is_freed(corpus_path, tmp_path,
                                                         monkeypatch):
    # fold workers fork inside cross_validate; the index the scorers
    # ranked with must be gone by then, or every worker inherits it
    def live_indexes():
        return sum(isinstance(o, Index) for o in gc.get_objects())

    before = live_indexes()
    seen = []

    def spy(*args, **kwargs):
        seen.append(live_indexes())
        return ltr.cross_validate(*args, **kwargs)

    monkeypatch.setattr(cli, "cross_validate", spy)
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", tmp_path / "exp",
                   "--without", "bm25", *PIPELINE_ARGS) == 0
    assert seen == [before, before]


def test_pipeline_releases_the_index_and_engines_before_the_folds_fork(
        fixture_dir, tmp_path, monkeypatch):
    made, dead_at_fork = [], []

    def keep(make):
        def spy(*args, **kwargs):
            obj = make(*args, **kwargs)
            made.append(weakref.ref(obj))
            return obj
        return spy

    def cross_validate(*args, **kwargs):
        gc.collect()
        dead_at_fork.append([ref() is None for ref in made])
        return ltr.cross_validate(*args, **kwargs)

    monkeypatch.setattr(cli, "build_index", keep(cli.build_index))
    monkeypatch.setattr(cli, "MethodEngine", keep(cli.MethodEngine))
    monkeypatch.setattr(cli, "cross_validate", cross_validate)
    assert run_cli("pipeline", *_fixture_args(fixture_dir), "--out-dir", tmp_path / "exp",
                   "--scorers", "bm25,tfidf-cs+rocchio,glove-cs,entity-cs",
                   "--without", "bm25", "--ltr-folds", "2", "--restarts", "1",
                   "--iterations", "2") == 0
    assert len(made) == 5  # the index and four engines
    assert dead_at_fork == [[True] * 5] * 2


@needs_fork
def test_pipeline_dead_fold_worker_exits_1(corpus_path, tmp_path, monkeypatch,
                                          capsys):
    # a worker that dies is an internal fault, not a usage error or a hang
    monkeypatch.setattr(ltr, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ltr, "_train_fold", exit_in_worker)
    with time_limit(60):
        code = run_cli("pipeline", "--corpus", corpus_path,
                       "--out-dir", tmp_path / "exp", *PIPELINE_ARGS)
    assert code == 1
    assert "BrokenProcessPool" in capsys.readouterr().err


def test_pipeline_internal_fault_exits_1(corpus_path, tmp_path, monkeypatch, capsys):
    # a plain ValueError from inside the program is a fault, not bad input
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cross_validate", boom)
    assert run_cli("pipeline", "--corpus", corpus_path,
                   "--out-dir", tmp_path / "exp", *PIPELINE_ARGS) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError('boom')\n"
                          "Traceback (most recent call last):\n")
    # the traceback names the function that raised and its file
    assert re.search(rf'File ".*{re.escape(Path(__file__).name)}", line \d+, in boom\n',
                     err), err


def test_pipeline_ablation_writes_extra_run(corpus_path, tmp_path, capsys):
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   "--without", "bm25", *PIPELINE_ARGS) == 0
    assert (out_dir / "run-fused-wo-bm25.txt").exists()
    assert (out_dir / "metrics-fused-wo-bm25.txt").exists()
    assert "fused-wo-bm25\tMAP" in capsys.readouterr().out


def test_pipeline_unknown_ablation_target_exits_2(corpus_path, tmp_path, capsys):
    assert run_cli("pipeline", "--corpus", corpus_path,
                   "--out-dir", tmp_path / "exp", "--without", "ghost",
                   *PIPELINE_ARGS) == 2
    assert "--without" in capsys.readouterr().err


def test_pipeline_external_feature_joins_fusion(corpus_path, tmp_path):
    ext = tmp_path / "external.txt"
    run_cli("run", "--corpus", corpus_path, "--method", "tfidf-cs",
            "--expansion", "rm1", "--run-name", "prior-scores", "--out", ext)
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   "--external-scores", ext, *PIPELINE_ARGS) == 0
    folds = (out_dir / "folds.txt").read_text(encoding="utf-8").splitlines()
    # three features now: bm25, tfidf-cs, prior-scores
    assert all(len(line.split("\t")[4].split()) == 3 for line in folds[1:])


@pytest.mark.parametrize("row, message", [
    ("ghost%2Fpage/H Q0 p0s0n0 1 1.0 prior", "does not belong to this corpus"),
    ("pg0/History Q0 ghost 1 1.0 prior", "is not in the index"),
])
def test_pipeline_rejects_external_rows_outside_corpus(corpus_path, tmp_path,
                                                       capsys, row, message):
    ext = tmp_path / "external.txt"
    ext.write_text(row + "\n", encoding="utf-8")
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   "--external-scores", ext, *PIPELINE_ARGS) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_pipeline_rejects_non_finite_external_scores(corpus_path, tmp_path,
                                                     capsys, score):
    # rank 2 of every query, where a NaN once made each fused rank-1 score NaN
    ext = tmp_path / "external.txt"
    run_cli("run", "--corpus", corpus_path, "--run-name", "prior", "--out", ext)
    lines = ext.read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines]
    for row in rows:
        if row[3] == "2":
            row[4] = score
    ext.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
    first = next(no for no, row in enumerate(rows, start=1) if row[3] == "2")
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   "--external-scores", ext, *PIPELINE_ARGS) == 2
    assert capsys.readouterr().err.startswith(
        f"error: row {first}: score must be finite, got {score!r}")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--restarts=0", "--iterations=0",
                                  "--ltr-folds=1", "--ltr-folds=7", "--mu=0",
                                  "--scorers=bm25,glove-cs", "--scorers=,",
                                  "--candidate-k=0", "--alpha=0", "--alpha=1.5"])
def test_pipeline_rejects_bad_parameters_before_writing(corpus_path, tmp_path,
                                                        capsys, flag):
    # the corpus has 6 pages; a repeated --ltr-folds takes the last value
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   *PIPELINE_ARGS, flag) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("flow, lakes, message", [
    # page b has one heading and no paragraph, so the fold that tests
    # page a trains on no relevant paragraph
    ("the river flow rate", None, "has a relevant paragraph"),
    # no paragraph shares a term with the query of page a, so the fold
    # that tests page b trains on no feature row
    ("sediment settles", [("p3", "season varies")],
     "with a relevant paragraph has a candidate"),
])
def test_pipeline_rejects_a_fold_it_cannot_train_before_writing(
        tmp_path, capsys, flow, lakes, message):
    corpus = corpus_from_pages([
        page("a", "Rivers", [section("Flow", [("p1", "water downhill"),
                                              ("p2", flow)])]),
        page("b", "Lakes", [section("Depth", lakes)]),
    ])
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, str(path))
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", path, "--out-dir", out_dir,
                   "--ltr-folds", "2", "--restarts", "1", "--iterations", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --ltr-folds 2: no training query of fold ")
    assert err.rstrip().endswith(message)
    assert not out_dir.exists()


@pytest.mark.parametrize("scorer, given, missing", [
    ("entity-cs", "gazetteer", "embeddings"),
    ("entity-cs+ent-rm1", "embeddings", "gazetteer"),
])
def test_pipeline_rejects_missing_resource_before_writing(
        corpus_path, tmp_path, capsys, scorer, given, missing):
    paths = write_fixture(SynthSpec(pages=2, seed=2), str(tmp_path / "fx"))
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   "--scorers", f"bm25,{scorer}", f"--{given}", paths[given],
                   *PIPELINE_ARGS) == 2
    assert f"{scorer} requires --{missing}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("scorer, flag, content", [
    ("glove-cs", "embeddings", "w0 1.0 one\n"),
    ("entity-cs", "gazetteer", "surface without a tab\n"),
    ("entity-cs", "entity-stats", "E_w0\t3\n"),
    ("glove-cs", "embeddings", None),
])
def test_pipeline_rejects_bad_resource_file_before_writing(
        corpus_path, tmp_path, capsys, scorer, flag, content):
    # bm25 runs first, so a resource loaded inside the scoring loop
    # would fail only after qrels, candidates and bm25's run were written
    paths = write_fixture(SynthSpec(pages=2, seed=2), str(tmp_path / "fx"))
    bad = tmp_path / f"bad-{flag}.txt"
    if content is not None:
        bad.write_text(content, encoding="utf-8")
    given = {"embeddings": paths["embeddings"], "gazetteer": paths["gazetteer"],
             flag: str(bad)}
    resource_args = [f"--{name}={path}" for name, path in given.items()]
    out_dir = tmp_path / "exp"
    assert run_cli("pipeline", "--corpus", corpus_path, "--out-dir", out_dir,
                   "--scorers", f"bm25,{scorer}", *resource_args,
                   *PIPELINE_ARGS) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("content, message", BAD_ENTITY_STATS)
@pytest.mark.parametrize("command", ["pipeline", "run"])
def test_entity_stats_without_an_idf_exit_2_before_writing(
        corpus_path, tmp_path, capsys, command, content, message):
    paths = write_fixture(SynthSpec(pages=2, seed=2), str(tmp_path / "fx"))
    stats = tmp_path / "stats.tsv"
    stats.write_text(content, encoding="utf-8")
    resources = ("--embeddings", paths["embeddings"], "--gazetteer",
                 paths["gazetteer"], "--entity-stats", stats)
    out_dir = tmp_path / "exp"
    if command == "pipeline":
        argv = ("pipeline", "--out-dir", out_dir, "--scorers", "bm25,entity-cs",
                *PIPELINE_ARGS)
    else:
        out_dir.mkdir()
        argv = ("run", "--method", "entity-cs", "--out", out_dir / "run.txt")
    assert run_cli(*argv, "--corpus", corpus_path, *resources) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    if command == "pipeline":
        assert not out_dir.exists()
    else:
        assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["index", "env", "run", "pipeline"])
def test_sections_sharing_a_query_id_exit_2_before_writing(tmp_path, capsys, command):
    # two sibling sections under one heading would share one query id
    corpus = corpus_from_pages([
        page("a", "Rivers", [section("Flow", [("p1", "water downhill")]),
                             section("Flow", [("p2", "the river flow rate")])]),
        page("b", "Lakes", [section("Depth", [("p3", "lake depth")])]),
    ])
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, str(path))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {"index": ["--out", out_dir / "ix.json"],
            "env": ["--mode", "train", "--out", out_dir / "env.tsv",
                    "--qrels-out", out_dir / "qrels.txt"],
            "run": ["--out", out_dir / "run.txt"],
            "pipeline": ["--out-dir", out_dir, "--ltr-folds", "2"]}[command]
    assert run_cli(command, "--corpus", path, *argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: corpus {path}: two sections have the query id 'a/Flow'")
    assert list(out_dir.iterdir()) == []


def test_pipeline_external_name_collision_exits_2(corpus_path, tmp_path, capsys):
    ext = tmp_path / "external.txt"
    run_cli("run", "--corpus", corpus_path, "--run-name", "bm25", "--out", ext)
    assert run_cli("pipeline", "--corpus", corpus_path,
                   "--out-dir", tmp_path / "exp", "--external-scores", ext,
                   *PIPELINE_ARGS) == 2
    assert "collides" in capsys.readouterr().err


def test_pipeline_duplicate_scorer_exits_2(corpus_path, tmp_path, capsys):
    assert run_cli("pipeline", "--corpus", corpus_path,
                   "--out-dir", tmp_path / "exp",
                   "--scorers", "bm25,bm25", *PIPELINE_ARGS) == 2
    assert "duplicate scorer" in capsys.readouterr().err
