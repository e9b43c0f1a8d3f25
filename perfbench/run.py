#!/usr/bin/env python3
"""Run one headingrank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fusion --seed 0 --seconds 20 --trace 0

Run from the repository root. Workloads: fusion, retrieve, ingest (see
perfbench/README.md). With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones from a traced run. Every
metric is printed by name with its unit, then the last line of standard
output is one JSON object: correct, attempted, failed, metrics. A full
record (environment, fixture and output digests, check messages) is
written under perfbench/_work/results/; the fixtures and outputs of a run
are deleted when every check passed.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed passes may run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "headingrank" / "cli.py").is_file():
        print(f"error: headingrank sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), ROOT, ROOT / "perfbench" / "_work")
    d = outcome.details
    env = d["environment"]
    print(f"# workload {d['workload']} seed {d['seed']}: {len(d['fixture_seeds'])} "
          f"fixtures x {d['pages_per_fixture']} pages, {d['work_units']} work units, "
          f"{d['passes']} passes")
    print(f"# nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, BLAS threads env "
          f"{env['blas_threads_env']}")
    for name, m in outcome.metrics.items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"# failed_frac {outcome.failed}/{outcome.attempted}")
    for message in d["messages"]:
        print(f"# check failed: {message}")
    if outcome.correct:
        # ~100 MB of fixtures and outputs per run; a failed run keeps them
        # for inspection, and the record under results/ stays either way.
        shutil.rmtree(d["work_dir"])
    print(outcome.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
