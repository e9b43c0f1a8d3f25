"""Child process of the benchmark: one set-up probe or one workload pass.

    python3 -m perfbench.worker <request.json>

The request names the mode and, for a pass, one list of CLI commands
per fixture, passed to ``headingrank.cli.main`` in turn. The child writes
its result as JSON to the request's ``result`` path. Timing starts once
the interpreter is up, so its start-up is never counted; a run's peak
RSS is this child's own ``ru_maxrss``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(req: dict) -> dict:
    """Import the CLI and call the public loaders the workload's commands call."""
    start = time.perf_counter()
    import headingrank.cli  # noqa: F401  (the import is what every command pays)
    from headingrank.corpus import all_queries, load_corpus
    from headingrank.index import build_index, load_index
    from headingrank.semvec import (CachingLinker, build_entity_stats,
                                    load_embeddings, load_gazetteer)

    loaders = req["loaders"]
    fx = req["fixture"]
    corpus = load_corpus(fx["corpus"])
    texts = {pid: p.text for pid, p in corpus.paragraphs.items()}
    if "queries" in loaders:
        all_queries(corpus)
    if "build_index" in loaders:
        build_index(texts)
    if "load_index" in loaders:
        load_index(fx["index"])
    if "embeddings" in loaders:
        load_embeddings(fx["embeddings"])
    if "gazetteer" in loaders:
        linker = load_gazetteer(fx["gazetteer"])
        if "entity_stats" in loaders:
            build_entity_stats(texts, CachingLinker(linker))
    return {"setup_s": time.perf_counter() - start}


def _call(cli_main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _run_sequence(cli_main, argvs: list[list[str]], tracer) -> dict:
    codes: list[int] = []
    stdouts: list[str] = []
    start = time.perf_counter()
    for argv in argvs:
        if tracer is None:
            code, text = _call(cli_main, argv)
        else:
            with tracer.span("cli.main", "cli"):
                code, text = _call(cli_main, argv)
        codes.append(code)
        stdouts.append(text)
    return {"wall_s": time.perf_counter() - start, "exit_codes": codes,
            "stdout": stdouts}


def workload_run(req: dict) -> dict:
    """Run the command sequence on each fixture in turn, timing each one."""
    from headingrank.cli import main as cli_main

    tracer = None
    if req["trace"]:
        from perfbench.tracing import Tracer
        tracer = Tracer(req["run_id"])
        tracer.install()
    fixtures = []
    for argvs in req["commands"]:
        if tracer is None:
            fixtures.append(_run_sequence(cli_main, argvs, None))
        else:
            with tracer.span("cli.workload", "cli"):
                fixtures.append(_run_sequence(cli_main, argvs, tracer))
    result = {"fixtures": fixtures, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(req["spans"])
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        req = json.load(fh)
    if req["mode"] == "setup":
        result = setup_probe(req)
    else:
        result = workload_run(req)
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
