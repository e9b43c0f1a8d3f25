"""Tests of the benchmark itself, on one tiny fixture per workload.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

They check metric names and units, failure counting and that traced
counts repeat. No wall-clock time is asserted.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], pages=5, fixtures=1)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload untraced once and traced twice, same seed."""
    work = tmp_path_factory.mktemp("work")
    out = {}
    for name in WORKLOADS:
        out[name, 0] = harness.run_benchmark(tiny(name), SEED, 0, False, ROOT, work)
        for rep in (1, 2):
            out[name, rep] = harness.run_benchmark(tiny(name), SEED, 0, True,
                                                   ROOT, work)
    return out, work


def test_benchmark_json_lists_what_the_code_emits():
    assert list(BENCH["workloads"]) and [w["name"] for w in BENCH["workloads"]] \
        == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_layer_metrics_cover_every_per_layer_name():
    filled_by_harness = {"corpus.pages", "corpus.paragraphs", "corpus.queries",
                         "trace.overhead_s", "quality.fused_map",
                         "quality.scorer_map_mean", "check.failed_frac"}
    assert set(tracing.layer_metrics({})) | filled_by_harness \
        == set(tracing.per_layer_units())


def test_index_terms_count_each_fixture_once():
    tracer = tracing.Tracer()
    for terms in (10, 20):  # two fixtures, each indexed and then loaded
        with tracer.span("cli.workload", "cli"):
            for name in ("index.build_index", "index.load_index"):
                span = tracer.open(name, "index")
                tracer.close(span)
                span[tracing.INFO] = {"terms": terms}
    assert tracing.layer_metrics(tracer.summary())["index.terms"] == 30


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(runs, name):
    out, _ = runs
    plain, traced = out[name, 0], out[name, 1]
    for outcome in (plain, traced):
        assert outcome.correct and outcome.failed == 0 and outcome.attempted > 0
        line = json.loads(outcome.result_line())
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in plain.metrics.items()} == harness.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in plain.metrics.values())
    assert {k: m["unit"] for k, m in traced.metrics.items()} == tracing.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_add_up_to_the_traced_wall(runs, name):
    m = {k: v["value"] for k, v in runs[0][name, 1].metrics.items()}
    total = m["cli.self_s"] + sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_layers_are_zero_where_a_workload_does_not_reach_them(runs):
    out, _ = runs
    m = {name: {k: v["value"] for k, v in out[name, 1].metrics.items()}
         for name in WORKLOADS}
    assert m["fusion"]["ltr.map_evals"] > 0 and m["fusion"]["quality.fused_map"] > 0
    assert m["retrieve"]["ltr.self_s"] == 0 and m["ingest"]["ltr.self_s"] == 0
    assert m["ingest"]["methods.self_s"] == 0
    assert m["ingest"]["envgen.env_rows"] > 0 and m["retrieve"]["envgen.env_rows"] == 0
    assert m["retrieve"]["index.match_calls"] > 0 and m["retrieve"]["index.load_s"] > 0
    assert m["retrieve"]["quality.scorer_map_mean"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_and_outputs_repeat(runs, name):
    out, _ = runs
    a, b = out[name, 1], out[name, 2]
    for key in ("index.match_calls", "ltr.map_evals", "envgen.env_rows",
                "textproc.tokenize_calls", "semvec.link_calls"):
        assert a.metrics[key]["value"] == b.metrics[key]["value"]
    assert a.details["fixture_sha256"] == b.details["fixture_sha256"]
    assert a.details["output_sha256"] == b.details["output_sha256"]


def _copy_pass(work: Path, name: str, dest: Path) -> tuple[Path, checks.Labels]:
    run_dir = work / f"{name}-seed{SEED}-trace0"
    shutil.copytree(run_dir / "f0" / "p0", dest)
    return dest, checks.read_labels(str(run_dir / "fixtures" / "fixture0" / "corpus.jsonl"))


def test_a_corrupted_run_file_counts_as_failed(runs, tmp_path):
    out, labels = _copy_pass(runs[1], "fusion", tmp_path / "out")
    clean = checks.Report()
    checks.check_outputs("fusion", clean, out, labels, [""], checks.Quality())
    assert clean.failed == 0
    run = out / "run-bm25.txt"
    lines = run.read_text(encoding="utf-8").splitlines(keepends=True)
    run.write_text("".join(lines[1:]), encoding="utf-8")  # rank 1 of a query lost
    report = checks.Report()
    checks.check_outputs("fusion", report, out, labels, [""], checks.Quality())
    assert report.failed > 0 and report.failed / report.attempted > 0


def test_a_corrupted_env_pool_counts_as_failed(runs, tmp_path):
    out, labels = _copy_pass(runs[1], "ingest", tmp_path / "out")
    stdouts = runs[0]["ingest", 0].details["stdout_first_pass"][0]
    clean = checks.Report()
    checks.check_outputs("ingest", clean, out, labels, stdouts, checks.Quality())
    assert clean.failed == 0
    pools = out / "train.tsv"
    lines = pools.read_text(encoding="utf-8").splitlines(keepends=True)
    pools.write_text(lines[0] + "".join(lines), encoding="utf-8")  # a duplicate row
    report = checks.Report()
    checks.check_outputs("ingest", report, out, labels, stdouts, checks.Quality())
    assert report.failed > 0


def test_outputs_that_differ_from_an_earlier_run_count_as_failed(tmp_path):
    path = tmp_path / "digests.json"
    report = checks.Report()
    harness._compare_recorded(report, path, "key", {"f0": {"run.txt": "a"}})
    harness._compare_recorded(report, path, "key", {"f0": {"run.txt": "a"}})
    assert report.failed == 0
    harness._compare_recorded(report, path, "key", {"f0": {"run.txt": "b"}})
    assert report.failed == 1


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fusion", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", ["4000003", "-7"])
def test_the_command_accepts_any_integer_seed_and_cleans_up(
        monkeypatch, capsys, seed):
    from perfbench import run

    monkeypatch.setitem(WORKLOADS, "ingest", tiny("ingest"))
    assert run.main(["--workload", "ingest", "--seed", seed, "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    work = ROOT / "perfbench" / "_work"
    assert (work / "results" / f"ingest-seed{seed}-trace0.json").is_file()
    assert not (work / f"ingest-seed{seed}-trace0").exists()
