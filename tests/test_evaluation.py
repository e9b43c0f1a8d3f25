"""Rank metrics, run aggregation, the paired t-test, and run file I/O.

The t-test brackets use published Student-t critical values for 9
degrees of freedom (2.262 at two-tailed 5%, 1.833 at 10%, 2.821 at 2%)
rather than recomputing the CDF, so the p-values are checked against an
independent source.
"""

import math

import pytest
from hypothesis import given, strategies as st

from headingrank.corpus import Qrels
from headingrank.evaluation import (
    RunFile,
    RunFormatError,
    average_precision,
    evaluate_run,
    format_metrics,
    format_p_value,
    paired_t_test,
    r_precision,
    read_run,
    reciprocal_rank,
    run_from_rankings,
    student_t_two_tailed,
    write_run,
)
from headingrank.index import Ranking


def ranking(*pids: str) -> Ranking:
    items = tuple((pid, float(len(pids) - i)) for i, pid in enumerate(pids))
    return Ranking(query_id="q", items=items)


# --- per-query metrics --------------------------------------------------

def test_ap_perfect():
    assert average_precision(ranking("r1", "r2", "x"), {"r1", "r2"}) == 1.0


def test_ap_ranks_one_and_three():
    got = average_precision(ranking("r1", "x", "r2"), {"r1", "r2"})
    assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
    assert got == pytest.approx(0.8333, abs=5e-5)


def test_ap_nothing_retrieved():
    assert average_precision(ranking("x", "y"), {"r1"}) == 0.0
    assert average_precision(Ranking("q", ()), {"r1"}) == 0.0


def test_ap_unretrieved_relevant_count_against():
    # One of two relevant never retrieved: AP halves.
    assert average_precision(ranking("r1"), {"r1", "r2"}) == 0.5


def test_rprec_two_of_three():
    got = r_precision(ranking("r1", "x", "r2", "r3"), {"r1", "r2", "r3"})
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_rprec_short_ranking_pads():
    assert r_precision(ranking("r1"), {"r1", "r2"}) == 0.5


def test_rprec_perfect():
    assert r_precision(ranking("r1", "r2"), {"r1", "r2"}) == 1.0


def test_rr_cases():
    assert reciprocal_rank(ranking("r1", "x"), {"r1"}) == 1.0
    assert reciprocal_rank(ranking("x", "y", "z", "r1"), {"r1"}) == 0.25
    assert reciprocal_rank(ranking("x", "y"), {"r1"}) == 0.0


@pytest.mark.parametrize("fn", [average_precision, r_precision, reciprocal_rank])
def test_metrics_reject_empty_relevant(fn):
    with pytest.raises(ValueError):
        fn(ranking("x"), set())


# --- run-level aggregation ----------------------------------------------

def test_evaluate_perfect_run():
    qrels = Qrels(positives={"q1": frozenset({"a"}), "q2": frozenset({"b"})})
    run = run_from_rankings("r", [
        Ranking("q1", (("a", 2.0),)),
        Ranking("q2", (("b", 1.0),)),
    ])
    report = evaluate_run(run, qrels)
    assert report.map == report.r_prec == report.mrr == 1.0
    assert report.evaluated == 2
    assert report.skipped_no_positives == 0


def test_evaluate_mean_of_aps():
    qrels = Qrels(positives={"q1": frozenset({"a"}), "q2": frozenset({"b"})})
    run = run_from_rankings("r", [
        Ranking("q1", (("a", 2.0),)),
        Ranking("q2", (("x", 2.0), ("b", 1.0),)),
    ])
    assert evaluate_run(run, qrels).map == pytest.approx(0.75)


def test_evaluate_skips_zero_positive_queries():
    qrels = Qrels(positives={"q1": frozenset({"a"}), "q2": frozenset()})
    run = run_from_rankings("r", [Ranking("q1", (("a", 1.0),))])
    report = evaluate_run(run, qrels)
    assert report.evaluated == 1
    assert report.skipped_no_positives == 1
    assert "q2" not in report.per_query


def test_evaluate_absent_query_scores_zero():
    qrels = Qrels(positives={"q1": frozenset({"a"}), "q2": frozenset({"b"})})
    run = run_from_rankings("r", [Ranking("q1", (("a", 1.0),))])
    report = evaluate_run(run, qrels)
    assert report.per_query["q2"] == (0.0, 0.0, 0.0)
    assert report.map == pytest.approx(0.5)


def test_single_relevant_ap_equals_rr():
    qrels = Qrels(positives={"q": frozenset({"r"})})
    run = run_from_rankings("r", [Ranking("q", (("x", 3.0), ("r", 2.0), ("y", 1.0)))])
    report = evaluate_run(run, qrels)
    ap, _, rr = report.per_query["q"]
    assert ap == rr == 0.5


# --- paired t-test ------------------------------------------------------

def _paired(diffs):
    ap_b = {f"q{i}": 0.5 for i in range(len(diffs))}
    ap_a = {f"q{i}": 0.5 + d for i, d in enumerate(diffs)}
    return ap_a, ap_b


def _shifted_diffs(center: float) -> list[float]:
    # Symmetric spread with sample sd 0.302765; t = center/(sd/sqrt(10)).
    return [center - 0.45 + 0.1 * i for i in range(10)]


def test_ttest_textbook_significant_worse():
    # mean diff -0.25, t = -2.611: beyond the 2.262 critical value.
    ap_a, ap_b = _paired(_shifted_diffs(-0.25))
    res = paired_t_test(ap_a, ap_b, alpha=0.05)
    assert res.mean_diff == pytest.approx(-0.25)
    assert res.t_statistic == pytest.approx(-2.6111645, abs=1e-6)
    # df=9 table: 2.262 <-> p 0.05, 2.821 <-> p 0.02 (two-tailed).
    assert 0.02 < res.p_value < 0.05
    assert res.significant_worse


def test_ttest_textbook_not_significant():
    # mean diff -0.18, t = -1.880: inside the 2.262 critical value.
    ap_a, ap_b = _paired(_shifted_diffs(-0.18))
    res = paired_t_test(ap_a, ap_b, alpha=0.05)
    assert res.t_statistic == pytest.approx(-1.8800384, abs=1e-6)
    # df=9 table: 1.833 <-> p 0.10, 2.262 <-> p 0.05 (two-tailed).
    assert 0.05 < res.p_value < 0.10
    assert not res.significant_worse


def test_ttest_significant_but_better_is_not_worse():
    ap_a, ap_b = _paired(_shifted_diffs(0.25))
    res = paired_t_test(ap_a, ap_b, alpha=0.05)
    assert res.p_value < 0.05
    assert res.mean_diff > 0
    assert not res.significant_worse


def test_ttest_identical_inputs():
    ap = {f"q{i}": 0.1 * i for i in range(5)}
    res = paired_t_test(ap, dict(ap), alpha=0.05)
    assert res.t_statistic == 0.0
    assert res.p_value == 1.0
    assert not res.significant_worse


def test_ttest_symmetric_cancellation():
    res = paired_t_test({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5}, alpha=0.05)
    assert res.t_statistic == 0.0
    assert res.p_value == pytest.approx(1.0)


def test_ttest_constant_nonzero_diff_degenerate():
    res = paired_t_test({"a": 0.6, "b": 0.6}, {"a": 0.5, "b": 0.5}, alpha=0.05)
    assert res.t_statistic == math.inf
    assert res.p_value == 0.0
    assert not res.significant_worse
    assert format_p_value(res.p_value) == "<1e-300"


def test_underflowing_p_value_prints_as_floor():
    # A beats B by 0.5 on 50 queries with 1e-9 jitter: t is ~7e9 and
    # Student's t CDF underflows to exactly zero.
    ap_a = {f"q{i}": 0.5 + (i % 2) * 1e-9 for i in range(50)}
    ap_b = {q: 0.0 for q in ap_a}
    res = paired_t_test(ap_a, ap_b)
    assert res.p_value == 0.0
    assert format_p_value(res.p_value) == "<1e-300"
    assert format_p_value(5e-324) == "<1e-300"
    assert format_p_value(1e-300) == "1e-300"
    assert format_p_value(0.0123456789) == "0.0123457"
    assert format_p_value(1.0) == "1"


# |t| from 1e-12 (p within 1e-12 of 1) to 1000 (p far below 1e-300 at
# large nu), and nu from 1 to 5000: small samples, fusion's ~900 queries
# and beyond.
_T_GRID = sorted({0.0, 1e-12, 1e-8, 1e-4, 0.5, 1.0, 1.96, 2.0, 3.0, 10.0,
                  1000.0, *(10.0 ** (e / 8.0) for e in range(-48, 25))})
_NU_GRID = (1, 2, 3, 4, 5, 7, 9, 10, 15, 30, 49, 100, 250, 919, 1000, 2000, 5000)


def test_t_tail_matches_closed_forms_for_one_and_two_degrees():
    # nu=1 is the Cauchy law, p = (2/pi) atan(1/t); nu=2 gives
    # p = 1 - t/sqrt(2 + t^2), written without the cancellation
    for t in _T_GRID:
        cauchy = 2.0 / math.pi * math.atan2(1.0, t)
        root = math.sqrt(2.0 + t * t)
        two = 2.0 / (root * (root + t))
        assert student_t_two_tailed(t, 1) == pytest.approx(cauchy, rel=1e-13)
        assert student_t_two_tailed(-t, 2) == pytest.approx(two, rel=1e-13)


def test_t_tail_matches_scipy_stdtr_oracle():
    special = pytest.importorskip("scipy.special")
    compared = 0
    for nu in _NU_GRID:
        for t in _T_GRID:
            expected = 2.0 * float(special.stdtr(nu, -t))
            if expected < 1e-300:
                continue
            got = student_t_two_tailed(t, nu)
            assert abs(got - expected) <= 1e-8 * expected, (nu, t, got, expected)
            assert format_p_value(min(got, 1.0)) == format_p_value(min(expected, 1.0))
            compared += 1
    assert compared > 1000


def test_t_tail_keeps_precision_at_large_nu():
    # lgamma(nu/2 + 1/2) - lgamma(nu/2) cancels about nu x 1e-16, 2e-10
    # and 6e-9 relative at these nu; what is left is the continued
    # fraction's own rounding, up to about 7e-11 at nu = 10^6.
    special = pytest.importorskip("scipy.special")
    for nu in (10**5, 10**6):
        for i in range(1, 201):
            t = i / 20.0
            expected = 2.0 * float(special.stdtr(nu, -t))
            got = student_t_two_tailed(t, nu)
            assert abs(got - expected) <= 1e-10 * expected, (nu, t, got, expected)


def test_t_tail_is_exact_at_zero_and_finite_beyond_t_squared_overflow():
    assert student_t_two_tailed(0.0, 7) == 1.0
    # t^2 overflows, but the Cauchy tail is still far above the print floor
    assert student_t_two_tailed(1e200, 1) == pytest.approx(2.0 / math.pi * 1e-200,
                                                           rel=1e-13)
    assert student_t_two_tailed(math.inf, 5) == 0.0


def test_ttest_mismatched_queries_lists_difference():
    with pytest.raises(ValueError) as exc:
        paired_t_test({"a": 1.0, "b": 1.0}, {"a": 1.0, "c": 1.0}, alpha=0.05)
    assert "b" in str(exc.value) and "c" in str(exc.value)


def test_ttest_needs_two_pairs():
    with pytest.raises(ValueError, match="n >= 2"):
        paired_t_test({"a": 1.0}, {"a": 0.5}, alpha=0.05)


# --- run file I/O -------------------------------------------------------

def test_run_roundtrip(tmp_path):
    run = run_from_rankings("myrun", [
        Ranking("q1", (("a", 2.5), ("b", 1.25))),
        Ranking("q2", (("c", 0.125),)),
    ])
    path = tmp_path / "run.txt"
    write_run(run, str(path))
    text = path.read_text()
    assert "q1 Q0 a 1 2.5 myrun\n" in text
    again = read_run(str(path))
    assert again.name == "myrun"
    assert again.rankings["q1"].paragraph_ids() == ["a", "b"]
    assert again.rankings["q1"].items[1][1] == pytest.approx(1.25)


@pytest.mark.parametrize("row,fragment", [
    ("q1 a 1 2.0 r", "expected 6 fields"),
    ("q1 QX a 1 2.0 r", "must be Q0"),
    ("q1 Q0 a one 2.0 r", "rank must be int"),
    ("q1 Q0 a 0 2.0 r", "rank must be >= 1"),
    ("q1 Q0 a 1 nan r", "score must be finite, got 'nan'"),
    ("q1 Q0 a 1 inf r", "score must be finite, got 'inf'"),
    ("q1 Q0 a 1 -inf r", "score must be finite, got '-inf'"),
    ("q1 Q0 a 1 NaN r", "score must be finite, got 'NaN'"),
])
def test_read_run_row_errors(tmp_path, row, fragment):
    path = tmp_path / "run.txt"
    path.write_text(row + "\n")
    with pytest.raises(RunFormatError, match=fragment):
        read_run(str(path))


def test_read_run_rejects_rank_gap(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 a 1 2.0 r\nq1 Q0 b 3 1.0 r\n")
    with pytest.raises(RunFormatError, match="not contiguous"):
        read_run(str(path))


def test_read_run_rejects_increasing_scores(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 a 1 1.0 r\nq1 Q0 b 2 2.0 r\n")
    with pytest.raises(RunFormatError, match="scores increase"):
        read_run(str(path))


def test_read_run_rejects_nan_between_increasing_scores(tmp_path):
    # every comparison with NaN is false, so the order check alone would
    # pass scores 1, nan, 5
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 a 1 1.0 r\nq1 Q0 b 2 nan r\nq1 Q0 c 3 5.0 r\n")
    with pytest.raises(RunFormatError, match="score must be finite") as exc:
        read_run(str(path))
    assert exc.value.row_no == 2


def test_read_run_rejects_duplicate_paragraph(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 a 1 2.0 r\nq1 Q0 a 2 1.0 r\n")
    with pytest.raises(RunFormatError, match="duplicate paragraph") as exc:
        read_run(str(path))
    assert exc.value.row_no == 2


def test_error_carries_row_number(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 a 1 2.0 r\nbad row\n")
    with pytest.raises(RunFormatError) as exc:
        read_run(str(path))
    assert exc.value.row_no == 2


def test_format_metrics_per_query_flag():
    qrels = Qrels(positives={"q1": frozenset({"a"})})
    run = run_from_rankings("r", [Ranking("q1", (("a", 1.0),))])
    report = evaluate_run(run, qrels)
    brief = format_metrics(report)
    assert "MAP\t1.000000" in brief and "query\t" not in brief
    full = format_metrics(report, per_query=True)
    assert "query\tq1\t1.000000" in full


# --- metric properties --------------------------------------------------

ids = st.lists(st.integers(0, 19).map(lambda i: f"p{i}"), min_size=1,
               max_size=12, unique=True)


@given(ids, st.sets(st.integers(0, 19).map(lambda i: f"p{i}"), min_size=1, max_size=6))
def test_metrics_bounded(ranked, relevant):
    r = ranking(*ranked)
    for fn in (average_precision, r_precision, reciprocal_rank):
        assert 0.0 <= fn(r, relevant) <= 1.0


@given(ids, st.sets(st.integers(0, 19).map(lambda i: f"p{i}"), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_ap_ignores_tail_permutation(ranked, relevant, rng):
    r = ranking(*ranked)
    base = average_precision(r, relevant)
    hit_positions = [i for i, pid in enumerate(ranked) if pid in relevant]
    cut = (hit_positions[-1] + 1) if hit_positions else 0
    tail = ranked[cut:]
    rng.shuffle(tail)
    assert average_precision(ranking(*ranked[:cut], *tail), relevant) == \
        pytest.approx(base, abs=1e-12)


@given(ids, st.data())
def test_moving_relevant_up_never_hurts(ranked, data):
    relevant = {ranked[-1]}
    base = [average_precision(ranking(*ranked), relevant),
            r_precision(ranking(*ranked), relevant),
            reciprocal_rank(ranking(*ranked), relevant)]
    pos = data.draw(st.integers(0, len(ranked) - 1))
    moved = [p for p in ranked if p != ranked[-1]]
    moved.insert(pos, ranked[-1])
    after = [average_precision(ranking(*moved), relevant),
             r_precision(ranking(*moved), relevant),
             reciprocal_rank(ranking(*moved), relevant)]
    assert all(a >= b - 1e-12 for a, b in zip(after, base))


def test_candidate_ceiling_on_mrr():
    # Only half the queries have any relevant item retrievable: MRR <= 0.5.
    qrels = Qrels(positives={f"q{i}": frozenset({f"r{i}"}) for i in range(4)})
    run = run_from_rankings("r", [
        Ranking("q0", (("r0", 1.0),)),
        Ranking("q1", (("x", 1.0),)),
        Ranking("q2", (("r2", 2.0), ("y", 1.0))),
        Ranking("q3", (("z", 1.0),)),
    ])
    assert evaluate_run(run, qrels).mrr <= 0.5
