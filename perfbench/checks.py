"""Output checks of the benchmark, independent of headingrank's own evaluation.

Labels come straight from the fixture's corpus file: each section's own
paragraphs are its positives. Average precision is computed here, not
by ``headingrank.evaluation``. Run files are parsed with the program's
``read_run``, which already rejects non-contiguous ranks, increasing
scores and duplicate paragraphs.

An operation is one query ranking, one fused query, one heading pool,
one CLI command or one cross-check (a metrics file, a digest, the saved
index). ``Report`` counts operations attempted and failed, and keeps a
few messages describing the failures.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

from perfbench.workloads import (CANDIDATE_K, GRID, NEG_PER_TRUE, RUN_DEPTH,
                                 scorer_file)

MAP_TOLERANCE = 1e-6  # metrics files print MAP to six decimals
MAX_MESSAGES = 20


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def op(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)
        return ok


# --- labels straight from the fixture ------------------------------------

@dataclass(frozen=True)
class LabeledSection:
    query_id: str
    paragraphs: tuple[str, ...]


@dataclass(frozen=True)
class LabeledPage:
    page_id: str
    sections: tuple[LabeledSection, ...]  # depth-first pre-order
    paragraphs: tuple[str, ...]  # of all its sections, in that order


@dataclass(frozen=True)
class Labels:
    pages: tuple[LabeledPage, ...]
    n_paragraphs: int

    def foreign(self, page: LabeledPage) -> set[str]:
        """Paragraphs of other pages that this page does not hold itself."""
        return {p for pg in self.pages for p in pg.paragraphs} - set(page.paragraphs)

    def queries(self) -> list[str]:
        return [s.query_id for p in self.pages for s in p.sections]

    def positives(self) -> dict[str, frozenset[str]]:
        return {s.query_id: frozenset(s.paragraphs)
                for p in self.pages for s in p.sections if s.paragraphs}


def read_labels(corpus_path: str) -> Labels:
    """Pages, sections, query ids and positives of a corpus.jsonl file."""
    pages = []
    defined: set[str] = set()

    def walk(page_id: str, node: dict, path: tuple[str, ...], out: list) -> None:
        pids = []
        for entry in node.get("paragraphs", []):
            if isinstance(entry, str):
                pids.append(entry)
            else:
                pids.append(entry["id"])
                if "text" in entry:
                    defined.add(entry["id"])
        qid = "/".join(quote(part, safe="")
                       for part in (page_id, *path, node["heading"]))
        out.append(LabeledSection(qid, tuple(pids)))
        for child in node.get("children", []):
            walk(page_id, child, (*path, node["heading"]), out)

    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            sections: list[LabeledSection] = []
            for node in record.get("sections", []):
                walk(record["id"], node, (), sections)
            pages.append(LabeledPage(record["id"], tuple(sections),
                                     tuple(p for s in sections for p in s.paragraphs)))
    return Labels(pages=tuple(pages), n_paragraphs=len(defined))


# --- digests ------------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under a directory, keyed by relative path."""
    return {str(p.relative_to(directory)): sha256_file(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


def compare_digests(report: Report, expected: dict[str, str],
                    actual: dict[str, str], what: str) -> None:
    for name in sorted(set(expected) | set(actual)):
        report.op(expected.get(name) == actual.get(name),
                  f"{what}: {name} differs")


# --- run files ----------------------------------------------------------

def average_precision(ranked: list[str], relevant: frozenset[str]) -> float:
    hits = 0
    total = 0.0
    for rank, pid in enumerate(ranked, start=1):
        if pid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def check_run(report: Report, path: Path, expected: list[str],
              positives: dict[str, frozenset[str]],
              max_items: int) -> dict[str, float]:
    """Check one run file; AP of every expected query that has positives.

    Each expected query is one operation: its ranking must exist and hold
    at most max_items paragraphs. A query the run has but nobody expected
    fails too. The tie rule (equal scores in ascending paragraph id) is
    not checked: run files keep six significant digits, so two different
    scores can print the same.
    """
    from headingrank.evaluation import read_run

    try:
        run = read_run(str(path))
    except (OSError, ValueError) as exc:
        for qid in expected:
            report.op(False, f"{path.name}: unreadable ({exc})")
        return {}
    ap: dict[str, float] = {}
    for qid in expected:
        ranking = run.rankings.get(qid)
        if not report.op(ranking is not None, f"{path.name}: {qid} missing"):
            continue
        items = ranking.items
        ok = report.op(len(items) <= max_items,
                       f"{path.name}: {qid} has {len(items)} items")
        if ok and qid in positives:
            ap[qid] = average_precision([pid for pid, _ in items], positives[qid])
    for qid in sorted(set(run.rankings) - set(expected)):
        report.op(False, f"{path.name}: unexpected query {qid}")
    return ap


def mean_ap(ap: dict[str, float], positives: dict[str, frozenset[str]]) -> float:
    """MAP over every query with positives; a query with no ranking scores 0."""
    return sum(ap.get(q, 0.0) for q in positives) / len(positives)


def _reported_map(path: Path) -> float | None:
    try:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("MAP\t"):
                return float(line.split("\t")[1])
    except (OSError, ValueError):
        pass
    return None


@dataclass
class Quality:
    """Per-query AP of each run, pooled over a run's fixtures."""

    ap: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def add(self, run: str, values: dict[str, float],
            positives: dict[str, frozenset[str]]) -> None:
        self.ap[run].extend(values.get(q, 0.0) for q in sorted(positives))

    def map(self, run: str) -> float:
        values = self.ap.get(run, [])
        return sum(values) / len(values) if values else 0.0

    def scorer_map_mean(self) -> float:
        if not any(s in self.ap for s in GRID):
            return 0.0
        return sum(self.map(s) for s in GRID) / len(GRID)


# --- per-workload checks ------------------------------------------------

def check_fusion(report: Report, out: Path, labels: Labels, quality: Quality) -> None:
    positives = labels.positives()
    queries = labels.queries()
    for run_name in (*GRID, "fused"):
        stem = scorer_file(run_name)
        ap = check_run(report, out / f"run-{stem}.txt", queries, positives,
                       CANDIDATE_K)
        quality.add(run_name, ap, positives)
        ours = mean_ap(ap, positives)
        theirs = _reported_map(out / f"metrics-{stem}.txt")
        report.op(theirs is not None and abs(ours - theirs) <= MAP_TOLERANCE,
                  f"metrics-{stem}.txt: MAP {theirs} but the run gives {ours:.6f}")


def check_retrieve(report: Report, out: Path, labels: Labels, quality: Quality) -> None:
    positives = labels.positives()
    queries = labels.queries()
    for scorer in GRID:
        ap = check_run(report, out / f"run-{scorer_file(scorer)}.txt", queries,
                       positives, RUN_DEPTH)
        quality.add(scorer, ap, positives)


def _read_pools(path: Path) -> dict[str, list[tuple[str, str]]]:
    pools: dict[str, list[tuple[str, str]]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, pid, provenance = line.rstrip("\n").split("\t")
            pools[qid].append((pid, provenance))
    return pools


def check_train_env(report: Report, path: Path, labels: Labels,
                    cli_stdout: str) -> None:
    """Pools start with the true paragraphs, then the budgeted negatives."""
    try:
        pools = _read_pools(path)
    except (OSError, ValueError) as exc:
        report.op(False, f"{path.name}: unreadable ({exc})")
        return
    expected_qids = set()
    short = 0
    for page in labels.pages:
        foreign = labels.foreign(page)
        for section in page.sections:
            if not section.paragraphs:
                continue
            qid = section.query_id
            expected_qids.add(qid)
            own = list(section.paragraphs)
            same_pool = set(page.paragraphs) - set(own)
            budget = len(own) * NEG_PER_TRUE
            n_same = min(budget, len(same_pool))
            n_other = min(budget, len(foreign))
            short += n_same < budget or n_other < budget
            rows = pools.get(qid, [])
            pids = [p for p, _ in rows]
            n_true = len(own)
            ok = (len(pids) == len(set(pids)) == n_true + n_same + n_other
                  and pids[:n_true] == own
                  and all(v == "true-section" for _, v in rows[:n_true])
                  and all(p in same_pool and v == "same-article"
                          for p, v in rows[n_true:n_true + n_same])
                  and all(p in foreign and v == "other-article"
                          for p, v in rows[n_true + n_same:]))
            report.op(ok, f"{path.name}: bad train pool for {qid}")
    for qid in sorted(set(pools) - expected_qids):
        report.op(False, f"{path.name}: unexpected pool {qid}")
    printed = re.search(r"(\d+) headings short of budget", cli_stdout)
    report.op(printed is not None and int(printed.group(1)) == short,
              f"train env: CLI reports {printed and printed.group(1)} short "
              f"headings, the fixture gives {short}")


def check_test_env(report: Report, path: Path, labels: Labels) -> None:
    """Each pool holds its whole page plus as many foreign paragraphs as fit."""
    try:
        pools = _read_pools(path)
    except (OSError, ValueError) as exc:
        report.op(False, f"{path.name}: unreadable ({exc})")
        return
    expected_qids = set()
    for page in labels.pages:
        foreign = labels.foreign(page)
        page_pids = set(page.paragraphs)
        for section in page.sections:
            qid = section.query_id
            expected_qids.add(qid)
            own = set(section.paragraphs)
            rows = pools.get(qid, [])
            pids = [p for p, _ in rows]
            others = [(p, v) for p, v in rows if p not in page_pids]
            ok = (len(pids) == len(set(pids))
                  and page_pids <= set(pids)
                  and len(others) == min(len(page_pids), len(foreign))
                  and all(v == ("true-section" if p in own else "same-article")
                          for p, v in rows if p in page_pids)
                  and all(p in foreign and v == "other-article" for p, v in others))
            report.op(ok, f"{path.name}: bad test pool for {qid}")
    for qid in sorted(set(pools) - expected_qids):
        report.op(False, f"{path.name}: unexpected pool {qid}")


def check_ingest(report: Report, out: Path, labels: Labels,
                 stdouts: list[str]) -> None:
    from headingrank.index import load_index

    printed = re.search(r"indexed (\d+) paragraphs, (\d+) terms", stdouts[0])
    try:
        ix = load_index(str(out / "index.json"))
        ok = (printed is not None and ix.n_docs == labels.n_paragraphs
              == int(printed.group(1)) and len(ix.postings) == int(printed.group(2)))
    except (OSError, ValueError):
        ok = False
    report.op(ok, "index.json: load_index round trip disagrees with the "
                  "corpus or the index command's counts")
    check_train_env(report, out / "train.tsv", labels, stdouts[1])
    check_test_env(report, out / "test.tsv", labels)
    try:
        rows = {tuple(line.split()) for line in
                (out / "qrels.txt").read_text(encoding="utf-8").splitlines()}
    except OSError:
        rows = set()
    expected = {(q, "0", p, "1") for q, ps in labels.positives().items() for p in ps}
    report.op(rows == expected, "qrels.txt: labels differ from the fixture's sections")


def check_outputs(workload: str, report: Report, out: Path, labels: Labels,
                  stdouts: list[str], quality: Quality) -> None:
    if workload == "fusion":
        check_fusion(report, out, labels, quality)
    elif workload == "retrieve":
        check_retrieve(report, out, labels, quality)
    else:
        check_ingest(report, out, labels, stdouts)
