"""Smoke tests for the command-line scripts under scripts/."""

import re
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script_under_test")["main"]


def test_make_fixture_is_reproducible(tmp_path, capsys):
    main = _script_main("make_fixture.py")
    for out in ("a", "b"):
        assert main(["--out-dir", str(tmp_path / out), "--pages", "4",
                     "--seed", "7"]) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["corpus.jsonl", "embeddings.txt", "gazetteer.tsv"]
    for name in files:
        first = (tmp_path / "a" / name).read_bytes()
        assert first
        assert first == (tmp_path / "b" / name).read_bytes()
    assert "corpus.jsonl" in capsys.readouterr().out


def test_run_experiments_small_grid(tmp_path, capsys):
    main = _script_main("run_experiments.py")
    code = main(["--out-dir", str(tmp_path), "--pages", "3",
                 "--scorers", "bm25,tfidf-cs", "--ltr-folds", "2"])
    assert code == 0
    significance = tmp_path / "pipeline" / "significance.txt"
    assert significance.is_file()
    assert significance.read_text(encoding="utf-8").strip()
    out = capsys.readouterr().out
    assert "fused vs. each baseline" in out
    # time and memory go to stdout, never into the out-dir
    assert re.search(r"^pipeline: \d+\.\d\d s$", out, re.M)
    assert re.search(r"^peak RSS: parent \d+\.\d MiB, "
                     r"largest worker process \d+\.\d MiB$", out, re.M)
    assert not any(word in p.read_text(encoding="utf-8")
                   for p in tmp_path.rglob("*") if p.is_file()
                   for word in ("RSS", "pipeline:"))


def test_run_experiments_rejects_more_folds_than_pages(tmp_path, capsys):
    main = _script_main("run_experiments.py")
    code = main(["--out-dir", str(tmp_path), "--pages", "3",
                 "--scorers", "bm25,tfidf-cs", "--ltr-folds", "4"])
    assert code == 2
    assert "exceeds page count 3" in capsys.readouterr().err
    assert not list((tmp_path / "pipeline").glob("run-*.txt"))
