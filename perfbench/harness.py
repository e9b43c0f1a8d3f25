"""One benchmark run: fixtures, set-up probes, timed children, checks, metrics.

Each set-up probe and each pass happens in a fresh child
(``perfbench.worker``), so nothing one of them warms reaches another and
peak RSS is the child's own. A pass runs the workload's command sequence
on every fixture of the run in turn; passes repeat until ``seconds`` are
used up, with at least the workload's ``min_passes``. ``wall_s`` sums,
over the fixtures, the median time of the command sequence on that
fixture.

With tracing on, untraced and traced passes alternate: the traced ones
give the per-layer metrics and the difference of the two medians is the
tracing overhead. End-to-end metrics never come from a traced pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks, tracing
from perfbench.workloads import (GRID, Fixture, Workload, commands,
                                 prepare_fixtures)

SETUP_PROBES = 5
MIN_TRACED_PASSES = 1  # and one untraced pass besides, for the overhead
CHILD_TIMEOUT_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "throughput": "1/s",
                    "peak_rss_mb": "MiB"}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    details: dict = field(default_factory=dict)

    def result_line(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


def environment() -> dict:
    """What a number depends on beyond the code: machine and library versions."""
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def code_digest(src: Path) -> str:
    """One digest of the program's sources, to key recorded output digests."""
    parts = [f"{p.relative_to(src)}:{checks.sha256_file(p)}"
             for p in sorted(src.rglob("*")) if p.is_file() and p.suffix in (".py", ".txt")]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class Children:
    """Launches worker children from the repository root."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        paths = [str(root / "src"), str(root)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.count = 0

    def run(self, request: dict) -> dict | None:
        """Run one child; its result, or None if it failed."""
        self.count += 1
        stem = self.work / f"child{self.count:04d}"
        request = dict(request, result=f"{stem}.result.json", spans=f"{stem}.spans.jsonl")
        Path(f"{stem}.request.json").write_text(json.dumps(request), encoding="utf-8")
        with open(f"{stem}.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", f"{stem}.request.json"],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0 or not Path(request["result"]).is_file():
            return None
        return json.loads(Path(request["result"]).read_text(encoding="utf-8"))


def _fixture_dict(fx: Fixture) -> dict:
    return {"corpus": fx.corpus, "embeddings": fx.embeddings,
            "gazetteer": fx.gazetteer, "index": fx.index}


def _work_units(workload: str, labels: checks.Labels) -> int:
    if workload == "fusion":
        return len(labels.positives())  # queries fused
    if workload == "retrieve":
        return len(labels.queries()) * len(GRID)  # rankings
    return labels.n_paragraphs  # paragraphs ingested


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  root: Path, work_root: Path) -> Outcome:
    work = work_root / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    fixtures = prepare_fixtures(workload, seed, work / "fixtures")
    labels = [checks.read_labels(fx.corpus) for fx in fixtures]
    fixture_sha = {Path(p).relative_to(work).as_posix(): checks.sha256_file(Path(p))
                   for fx in fixtures for p in (fx.corpus, fx.embeddings, fx.gazetteer)}
    children = Children(root, work)
    report = checks.Report()

    setup = []
    for i in range(SETUP_PROBES):
        fx = fixtures[i % len(fixtures)]
        res = children.run({"mode": "setup", "loaders": list(workload.loaders),
                            "fixture": _fixture_dict(fx)})
        if report.op(res is not None, f"set-up probe {i} failed"):
            setup.append(res["setup_s"])

    # passes[p] = (traced, child result or None, [fixture result or None])
    passes: list[tuple[bool, dict | None, list[dict | None]]] = []
    started = time.perf_counter()
    while True:
        p = len(passes)
        traced = trace and p % 2 == 1
        argvs = []
        for i, fx in enumerate(fixtures):
            out = work / f"f{i}" / f"p{p}"
            out.mkdir(parents=True)
            argvs.append(commands(workload.name, fx, out))
        res = children.run({"mode": "run", "trace": traced, "commands": argvs,
                            "run_id": f"{work.name}-p{p}"})
        per_fixture = []
        for i, fixture_argvs in enumerate(argvs):
            fres = res["fixtures"][i] if res else None
            codes = fres["exit_codes"] if fres else [None] * len(fixture_argvs)
            ok = True
            for argv, code in zip(fixture_argvs, codes):
                ok &= report.op(code == 0, f"headingrank {argv[0]} on fixture {i} "
                                           f"in pass {p} exited {code}")
            per_fixture.append(fres if ok else None)
        passes.append((traced, res, per_fixture))
        elapsed = time.perf_counter() - started
        n_plain = sum(1 for t, _, _ in passes if not t)
        n_traced = len(passes) - n_plain
        enough = (n_plain >= 1 and n_traced >= MIN_TRACED_PASSES if trace
                  else n_plain >= workload.min_passes)
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    quality = checks.Quality()
    first = passes[0][2]
    output_sha = {}
    for i in range(len(fixtures)):
        out0 = work / f"f{i}" / "p0"
        if first[i] is not None:
            checks.check_outputs(workload.name, report, out0, labels[i],
                                 first[i]["stdout"], quality)
        output_sha[f"f{i}"] = checks.digests(out0)
        for p in range(1, len(passes)):
            checks.compare_digests(report, output_sha[f"f{i}"],
                                   checks.digests(work / f"f{i}" / f"p{p}"),
                                   f"fixture {i} pass {p}")
    _compare_recorded(report, work_root / "digests.json",
                      f"{workload.name}|seed{seed}|pages{workload.pages}|"
                      f"fixtures{workload.fixtures}|{code_digest(root / 'src')}",
                      output_sha)

    plain = [(res, fxs) for t, res, fxs in passes if not t]
    wall = _wall([fxs for _, fxs in plain])
    units = sum(_work_units(workload.name, lb) for lb in labels)
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "throughput": units / wall if wall else 0.0,
        "peak_rss_mb": max((res["peak_rss_mb"] for res, _ in plain if res),
                           default=0.0),
    }
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "work_dir": str(work),
        "pages_per_fixture": workload.pages,
        "fixture_seeds": [fx.seed for fx in fixtures],
        "fixture_sha256": fixture_sha, "output_sha256": output_sha,
        "work_units": units, "passes": len(passes),
        "pass_walls": [{"traced": t, "fixtures": [f and f["wall_s"] for f in fxs]}
                       for t, _, fxs in passes],
        "stdout_first_pass": [f["stdout"] if f else None for f in first],
        "setup_probes": setup, "environment": environment(),
        "end_to_end": e2e, "messages": report.messages,
        "fused_map": quality.map("fused"),
        "scorer_map": {s: quality.map(s) for s in GRID},
    }
    if trace:
        layer = _layer_metrics(passes, labels, quality, report)
        details["per_layer"] = layer
        details["map_evals_absent"] = any(
            res["layers"]["counts"].get("map_evals_absent")
            for traced, res, _ in passes if traced and res)
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in tracing.per_layer_units().items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    outcome = Outcome(correct=report.failed == 0, attempted=report.attempted,
                      failed=report.failed, metrics=metrics, details=details)
    results_dir = work_root / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(
        json.dumps({"result": json.loads(outcome.result_line()), **details},
                   indent=1, sort_keys=True), encoding="utf-8")
    return outcome


def _wall(passes: list[list[dict | None]]) -> float:
    """Sum over fixtures of the median wall time of the workload on it."""
    total = 0.0
    for i in range(len(passes[0])):
        times = [p[i]["wall_s"] for p in passes if p[i] is not None]
        total += statistics.median(times) if times else 0.0
    return total


def _compare_recorded(report: checks.Report, path: Path, key: str,
                      output_sha: dict) -> None:
    """Outputs of the same code, seed and sizes must match earlier runs."""
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    if key in recorded:
        for name in sorted(set(recorded[key]) | set(output_sha)):
            checks.compare_digests(report, recorded[key].get(name, {}),
                                   output_sha.get(name, {}), f"earlier run, {name}")
    else:
        recorded[key] = output_sha
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True),
                        encoding="utf-8")


def _layer_metrics(passes, labels, quality, report) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes."""
    per_pass = [tracing.layer_metrics(res["layers"])
                for traced, res, fxs in passes
                if traced and res and all(fxs)]
    plain_walls = [sum(f["wall_s"] for f in fxs) for traced, _, fxs in passes
                   if not traced and all(fxs)]
    layer = ({k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
             if per_pass else {})
    if per_pass and plain_walls:
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(plain_walls)
    layer.update({
        "corpus.pages": sum(len(lb.pages) for lb in labels),
        "corpus.paragraphs": sum(lb.n_paragraphs for lb in labels),
        "corpus.queries": sum(len(lb.queries()) for lb in labels),
        "quality.fused_map": quality.map("fused"),
        "quality.scorer_map_mean": quality.scorer_map_mean(),
        "check.failed_frac": report.failed / report.attempted if report.attempted else 0.0,
    })
    return {k: layer.get(k, 0.0) for k in tracing.per_layer_units()}
