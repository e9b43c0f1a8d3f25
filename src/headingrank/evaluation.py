"""Rank metrics (AP, R-Prec, RR), run file I/O, and paired significance tests."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Qrels
from .index import Ranking
from .utils import InputError, ordered_sum


class RunFormatError(InputError):
    """Run file violates the format contract; carries the 1-based row number."""

    def __init__(self, row_no: int, message: str):
        super().__init__(f"row {row_no}: {message}")
        self.row_no = row_no


@dataclass(frozen=True)
class RunFile:
    name: str
    rankings: dict[str, Ranking]  # queryId -> ordered ranking


@dataclass(frozen=True)
class MetricsReport:
    per_query: dict[str, tuple[float, float, float]]  # (AP, R-Prec, RR)
    map: float
    r_prec: float
    mrr: float
    evaluated: int
    skipped_no_positives: int


@dataclass(frozen=True)
class TTestResult:
    mean_diff: float
    t_statistic: float
    p_value: float
    alpha: float
    significant_worse: bool


def average_precision(ranking: Ranking, relevant: frozenset[str] | set[str]) -> float:
    """Mean of precision@r over relevant retrieved items; unretrieved relevant count 0."""
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = 0
    total = 0.0
    for rank, (pid, _) in enumerate(ranking.items, start=1):
        if pid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def r_precision(ranking: Ranking, relevant: frozenset[str] | set[str]) -> float:
    """|relevant within top R| / R with R = |relevant|; short rankings pad as non-relevant."""
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    r = len(relevant)
    found = sum(1 for pid, _ in ranking.items[:r] if pid in relevant)
    return found / r


def reciprocal_rank(ranking: Ranking, relevant: frozenset[str] | set[str]) -> float:
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    for rank, (pid, _) in enumerate(ranking.items, start=1):
        if pid in relevant:
            return 1.0 / rank
    return 0.0


_EMPTY_RANKING = Ranking(query_id="", items=())


def evaluate_run(run: RunFile, qrels: Qrels) -> MetricsReport:
    """Per-query metrics plus unweighted means over evaluated queries.

    A query is evaluated when qrels give it at least one positive;
    queries absent from the run score 0 everywhere. Queries with no
    positives (in the run or in qrels) are skipped and counted.
    """
    per_query: dict[str, tuple[float, float, float]] = {}
    evaluated = sorted(q for q, rel in qrels.positives.items() if rel)
    for qid in evaluated:
        ranking = run.rankings.get(qid, _EMPTY_RANKING)
        rel = qrels.positives[qid]
        per_query[qid] = (
            average_precision(ranking, rel),
            r_precision(ranking, rel),
            reciprocal_rank(ranking, rel),
        )
    seen = set(run.rankings) | set(qrels.positives)
    skipped = len(seen) - len(evaluated)
    n = len(evaluated)
    if n:
        mean_ap = ordered_sum(v[0] for v in per_query.values()) / n
        mean_rp = ordered_sum(v[1] for v in per_query.values()) / n
        mean_rr = ordered_sum(v[2] for v in per_query.values()) / n
    else:
        mean_ap = mean_rp = mean_rr = 0.0
    return MetricsReport(
        per_query=per_query,
        map=mean_ap,
        r_prec=mean_rp,
        mrr=mean_rr,
        evaluated=n,
        skipped_no_positives=skipped,
    )


_CF_TINY = 1e-300
_CF_MAX_TERMS = 100_000
# From this nu on, lgamma(a + 1/2) - lgamma(a) with a = nu/2 cancels
# about nu x 1e-16 relative, so its asymptotic series is used instead;
# the first omitted term, 1/(640 a^5), is below 1e-22 there.
_T_SERIES_MIN_NU = 1 << 14


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction in I_x(a, b), by the modified Lentz method.

    It converges in O(sqrt(max(a, b))) terms for x < (a+1) / (a+b+2).
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coeff in (even, odd):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coeff / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}")


def student_t_two_tailed(t: float, nu: int) -> float:
    """P(|T| >= |t|) for Student's t with nu >= 1 degrees of freedom.

    That is the regularized incomplete beta I_x(nu/2, 1/2) at
    x = nu / (nu + t^2), from a continued fraction and an lgamma
    prefactor. x and y = 1 - x are both formed from s^2 = t^2 / nu
    without a subtraction, so the symmetric branch 1 - I_y(1/2, nu/2),
    taken once x is large, keeps its precision as p nears 1, and no
    t^2 overflows. From _T_SERIES_MIN_NU on, the prefactor's
    lgamma(a + 1/2) - lgamma(a) is the series
    ln(a)/2 - 1/(8a) + 1/(192a^3).
    """
    s = abs(t) / math.sqrt(nu)
    if s == 0.0:
        return 1.0
    if s > 1.0:
        q = 1.0 / (s * s)
        x, y = q / (1.0 + q), 1.0 / (1.0 + q)
        log_x, log_y = -2.0 * math.log(s) - math.log1p(q), -math.log1p(q)
    else:
        q = s * s
        x, y = 1.0 / (1.0 + q), q / (1.0 + q)
        log_x, log_y = -math.log1p(q), 2.0 * math.log(s) - math.log1p(q)
    a, b = nu / 2.0, 0.5
    if nu >= _T_SERIES_MIN_NU:
        log_ratio = 0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a ** 3)
    else:
        log_ratio = math.lgamma(a + b) - math.lgamma(a)
    front = math.exp(log_ratio - math.lgamma(b) + a * log_x + b * log_y)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def paired_t_test(ap_a: Mapping[str, float], ap_b: Mapping[str, float],
                  alpha: float = 0.05) -> TTestResult:
    """Two-tailed paired t-test on per-query differences A - B.

    Uses the sample standard deviation (n-1) and Student's t
    distribution with n-1 degrees of freedom (student_t_two_tailed).
    All-zero differences are defined as p=1, zero variance otherwise as
    p=0. significant_worse flags A significantly below B at the given
    alpha.
    """
    keys_a, keys_b = set(ap_a), set(ap_b)
    if keys_a != keys_b:
        missing_b = sorted(keys_a - keys_b)
        missing_a = sorted(keys_b - keys_a)
        raise ValueError(
            f"mismatched query sets: only in A {missing_b}, only in B {missing_a}")
    n = len(keys_a)
    if n < 2:
        raise InputError(f"paired t-test requires n >= 2 queries with a relevant "
                         f"paragraph, got {n}")
    diffs = [ap_a[q] - ap_b[q] for q in sorted(keys_a)]
    mean = ordered_sum(diffs) / n
    if all(d == 0.0 for d in diffs):
        return TTestResult(0.0, 0.0, 1.0, alpha, False)
    var = ordered_sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    if sd == 0.0:
        t = math.inf if mean > 0 else -math.inf
        p = 0.0
    else:
        t = mean / (sd / math.sqrt(n))
        p = student_t_two_tailed(t, n - 1)
    return TTestResult(
        mean_diff=mean,
        t_statistic=t,
        p_value=min(p, 1.0),
        alpha=alpha,
        significant_worse=(p < alpha and mean < 0.0),
    )


P_VALUE_FLOOR = 1e-300


def format_p_value(p: float) -> str:
    """Six significant digits; a p-value that underflowed prints as '<1e-300'.

    The t tail underflows to 0 (or a subnormal) once |t| is large
    enough, and the zero-variance case defines p = 0, but no finite
    sample proves p = 0.
    """
    return f"{p:.6g}" if p >= P_VALUE_FLOOR else f"<{P_VALUE_FLOOR:g}"


def write_run(run: RunFile, path: str) -> None:
    """TREC run format, LF endings, scores with 6 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(run.rankings):
            for rank, (pid, score) in enumerate(run.rankings[qid].items, start=1):
                fh.write(f"{qid} Q0 {pid} {rank} {score:.6g} {run.name}\n")


def read_run(path: str) -> RunFile:
    """Parse and validate a TREC run file.

    Enforces finite scores and, per query: contiguous ranks 1..n,
    non-increasing scores, no duplicate paragraph ids.
    """
    rows: dict[str, list[tuple[int, str, float, int]]] = {}
    name = ""
    with open(path, encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 6:
                raise RunFormatError(row_no, f"expected 6 fields, got {len(fields)}")
            qid, q0, pid, rank_s, score_s, run_name = fields
            if q0 != "Q0":
                raise RunFormatError(row_no, f"second field must be Q0, got {q0!r}")
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise RunFormatError(row_no, "rank must be int and score float") from None
            if rank < 1:
                raise RunFormatError(row_no, f"rank must be >= 1, got {rank}")
            if not math.isfinite(score):
                raise RunFormatError(row_no, f"score must be finite, got {score_s!r}")
            name = run_name
            rows.setdefault(qid, []).append((rank, pid, score, row_no))
    rankings: dict[str, Ranking] = {}
    for qid, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        seen_pids: set[str] = set()
        items = []
        prev_score = math.inf
        for expected, (rank, pid, score, row_no) in enumerate(entries, start=1):
            if rank != expected:
                raise RunFormatError(
                    row_no, f"query {qid!r}: ranks not contiguous (expected {expected}, got {rank})")
            if pid in seen_pids:
                raise RunFormatError(row_no, f"query {qid!r}: duplicate paragraph {pid!r}")
            if score > prev_score:
                raise RunFormatError(
                    row_no, f"query {qid!r}: scores increase at rank {rank}")
            seen_pids.add(pid)
            prev_score = score
            items.append((pid, score))
        rankings[qid] = Ranking(query_id=qid, items=tuple(items))
    return RunFile(name=name or "run", rankings=rankings)


def run_from_rankings(name: str, rankings: Iterable[Ranking]) -> RunFile:
    return RunFile(name, {r.query_id: r for r in rankings})


def format_metrics(report: MetricsReport, per_query: bool = False) -> str:
    lines = [
        f"MAP\t{report.map:.6f}",
        f"R-Prec\t{report.r_prec:.6f}",
        f"MRR\t{report.mrr:.6f}",
        f"evaluated\t{report.evaluated}",
        f"skipped_no_positives\t{report.skipped_no_positives}",
    ]
    if per_query:
        for qid in sorted(report.per_query):
            ap, rp, rr = report.per_query[qid]
            lines.append(f"query\t{qid}\t{ap:.6f}\t{rp:.6f}\t{rr:.6f}")
    return "\n".join(lines) + "\n"


def write_metrics(report: MetricsReport, path: str, per_query: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_metrics(report, per_query=per_query))
