"""Embeddings, dense text/entity vectors, gazetteer linking, cosine."""

import ast
import dataclasses
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import headingrank
from headingrank.index import SparseVector
from headingrank.semvec import (
    CachingLinker,
    DenseVector,
    EmbeddingFormatError,
    EntityMention,
    EntityStats,
    GazetteerLinker,
    build_entity_stats,
    cosine,
    entity_vector,
    load_embeddings,
    load_entity_stats,
    load_gazetteer,
    normalized,
    text_vector,
    write_entity_stats,
)

from conftest import BAD_ENTITY_STATS, plain_index, ref_norm


def store_of(**vecs):
    lines = [f"{k} " + " ".join(str(x) for x in v) for k, v in vecs.items()]
    return load_embeddings(lines)


# --- embedding loading ----------------------------------------------------

def test_load_embeddings_basic():
    store = store_of(cat=(1.0, 0.0, 0.0), dog=(0.0, 1.0, 0.0))
    assert store.dim == 3
    assert len(store) == 2
    assert "cat" in store and "fish" not in store
    assert store.get("cat").tolist() == [1.0, 0.0, 0.0]


def test_load_embeddings_ragged_line_reports_number():
    lines = ["cat 1.0 0.0 0.0", "dog 0.0 1.0"]
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embeddings(lines)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("bad", ["dog 1.0 x 0.0", "dog 1.0 nan 0.0", "dog 1.0 inf 0.0"])
def test_load_embeddings_rejects_non_finite(bad):
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(["cat 1.0 0.0 0.0", bad])


def test_load_embeddings_rejects_empty():
    with pytest.raises(EmbeddingFormatError):
        load_embeddings([])


def test_load_embeddings_from_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 0.25 0.5\ndog -1 2\n")
    store = load_embeddings(str(path))
    assert store.dim == 2
    assert store.get("dog").tolist() == [-1.0, 2.0]


# --- text vectors ---------------------------------------------------------

def test_text_vector_single_covered_token():
    # One token with tf 1: output is idf * v exactly (division by one
    # covered occurrence).
    ix = plain_index({"d1": "i j", "d2": "j k"})
    store = store_of(i=(2.0, 0.0), j=(0.0, 1.0))
    vec = text_vector(["i"], store, ix)
    idf = math.log(2.0 / 1.0)
    assert vec.values.tolist() == [2.0 * idf, 0.0]


def test_text_vector_df_equals_n_is_zero_but_not_empty():
    ix = plain_index({"d1": "i j", "d2": "i k"})
    store = store_of(i=(1.0, 1.0), j=(2.0, 0.0))
    vec = text_vector(["i"], store, ix)
    assert vec.values == pytest.approx([0.0, 0.0])
    # "i" adds nothing but is covered: it still counts toward |d|
    with_j = text_vector(["i", "j"], store, ix)
    assert with_j.values.tolist() == [2.0 * math.log(2.0) / 2, 0.0]


def test_text_vector_oov_flagged_empty():
    ix = plain_index({"d1": "i j", "d2": "j k"})
    store = store_of(i=(1.0, 0.0))
    vec = text_vector(["zz", "qq"], store, ix)
    assert vec.values.tolist() == [0.0, 0.0]
    assert vec.norm() == 0.0


def test_text_vector_matches_scalar_oracle():
    texts = {"d1": "i j j", "d2": "j k i", "d3": "k k m"}
    ix = plain_index(texts)
    table = {"i": [1.0, 2.0], "j": [0.5, -1.0], "m": [3.0, 0.0]}
    store = store_of(**table)
    bag = ["i", "j", "j", "m", "oov"]
    # Scalar loop, written independently of the implementation.
    tf = {t: bag.count(t) for t in set(bag)}
    covered = 0
    acc = [0.0, 0.0]
    for tok in bag:
        if tok not in table:
            continue
        covered += 1
        w = (1.0 + math.log(tf[tok])) * math.log(3.0 / ix.doc_freq[tok])
        acc = [a + w * v for a, v in zip(acc, table[tok])]
    expected = [a / covered for a in acc]
    got = text_vector(bag, store, ix)
    assert got.values == pytest.approx(expected, abs=1e-9)


def test_text_vector_accepts_counts_mapping():
    ix = plain_index({"d1": "i j", "d2": "j k"})
    store = store_of(i=(1.0, 0.0), j=(0.0, 1.0))
    a = text_vector(["i", "j", "j"], store, ix)
    b = text_vector({"i": 1, "j": 2}, store, ix)
    assert a.values == pytest.approx(b.values)


# --- gazetteer linking ----------------------------------------------------

NYC_GAZ = {"new york": "E_ny", "new york city": "E_nyc", "york": "E_york"}


def test_linker_exact_match():
    linker = GazetteerLinker({"new york city": "E1"})
    assert linker.link("in New York City") == [EntityMention("E1", 1)]


def test_linker_longest_match_wins():
    linker = GazetteerLinker(NYC_GAZ)
    mentions = linker.link("I visited New York City yesterday")
    assert mentions == [EntityMention("E_nyc", 1)]


def test_linker_left_to_right_after_match():
    linker = GazetteerLinker(NYC_GAZ)
    # After consuming "new york", scanning resumes at "times"; the
    # shorter city entry matches, not E_york inside it.
    mentions = linker.link("the new york times building in york")
    assert mentions == [EntityMention("E_ny", 1), EntityMention("E_york", 1)]


def test_linker_counts_repeats():
    linker = GazetteerLinker({"york": "E_york"})
    assert linker.link("York and york again") == [EntityMention("E_york", 2)]


def test_linker_case_and_punctuation_insensitive():
    linker = GazetteerLinker(NYC_GAZ)
    assert linker.link("NEW-YORK-CITY!") == [EntityMention("E_nyc", 1)]


def test_linker_no_entities_is_empty_not_error():
    assert GazetteerLinker(NYC_GAZ).link("nothing to see here") == []


def test_linker_deterministic():
    linker = GazetteerLinker(NYC_GAZ)
    text = "New York, new york city, York"
    assert linker.link(text) == linker.link(text)


def test_caching_linker_counts_calls():
    calls = []

    class Probe:
        def link(self, text):
            calls.append(text)
            return [EntityMention("E", 1)]

    linker = CachingLinker(Probe())
    assert linker.link("abc") == linker.link("abc")
    assert calls == ["abc"]


def test_load_gazetteer_first_definition_wins(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("york\tE1\nYork\tE2\nNew York\tE3\n")
    linker = load_gazetteer(str(path))
    assert linker.link("york") == [EntityMention("E1", 1)]
    assert linker.link("new york") == [EntityMention("E3", 1)]


def test_load_gazetteer_rejects_missing_tab(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("york E1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_gazetteer(str(path))


# --- entity stats and vectors ----------------------------------------------

def test_build_entity_stats():
    linker = GazetteerLinker({"york": "E_york", "paris": "E_paris"})
    texts = {"d1": "york york", "d2": "york and paris", "d3": "nothing"}
    stats = build_entity_stats(texts, linker)
    assert stats.n_docs == 3
    assert stats.link_doc_freq == {"E_york": 2, "E_paris": 1}


def test_entity_stats_roundtrip(tmp_path):
    stats = EntityStats(link_doc_freq={"E1": 3, "E2": 1}, n_docs=7)
    path = tmp_path / "stats.tsv"
    write_entity_stats(stats, str(path))
    again = load_entity_stats(str(path))
    assert again == stats
    assert path.read_text().startswith("Ndocs\t7\n")


@pytest.mark.parametrize("content, message", BAD_ENTITY_STATS)
def test_load_entity_stats_rejects_values_without_an_idf(tmp_path, content, message):
    path = tmp_path / "stats.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_entity_stats(str(path))
    assert str(err.value).startswith(message)


def test_load_entity_stats_accepts_the_bounds(tmp_path):
    path = tmp_path / "stats.tsv"
    path.write_text("Ndocs\t1\nE0\t0\nE1\t1\n", encoding="utf-8")
    assert load_entity_stats(str(path)) == EntityStats({"E0": 0, "E1": 1}, 1)


def test_entity_vector_single_entity_hand_value():
    store = store_of(E1=(0.5, 1.0))
    stats = EntityStats(link_doc_freq={"E1": 2}, n_docs=8)
    vec = entity_vector([EntityMention("E1", 1)], store, stats)
    idf = math.log(8.0 / 2.0)
    assert vec.values == pytest.approx([0.5 * idf, 1.0 * idf], abs=1e-12)


def test_entity_vector_count_weighting_and_mean():
    store = store_of(E1=(1.0, 0.0), E2=(0.0, 1.0))
    stats = EntityStats(link_doc_freq={"E1": 1, "E2": 2}, n_docs=4)
    vec = entity_vector(
        [EntityMention("E1", 3), EntityMention("E2", 1)], store, stats)
    w1 = (1.0 + math.log(3.0)) * math.log(4.0 / 1.0)
    w2 = 1.0 * math.log(4.0 / 2.0)
    assert vec.values == pytest.approx([w1 / 2.0, w2 / 2.0], abs=1e-12)


def test_entity_vector_ldf_equals_ndocs_zero():
    store = store_of(E1=(1.0, 1.0))
    stats = EntityStats(link_doc_freq={"E1": 5}, n_docs=5)
    vec = entity_vector([EntityMention("E1", 2)], store, stats)
    assert vec.values == pytest.approx([0.0, 0.0])
    # E1 adds nothing but is covered: it still counts toward the divisor
    store = store_of(E1=(1.0, 1.0), E2=(2.0, 0.0))
    stats = EntityStats(link_doc_freq={"E1": 5, "E2": 1}, n_docs=5)
    both = entity_vector([EntityMention("E1", 2), EntityMention("E2", 1)], store, stats)
    assert both.values.tolist() == [2.0 * math.log(5.0) / 2, 0.0]


def test_entity_vector_skips_unstored_entities():
    store = store_of(E1=(2.0, 0.0))
    stats = EntityStats(link_doc_freq={"E1": 1, "E2": 1}, n_docs=4)
    with_ghost = entity_vector(
        [EntityMention("E1", 1), EntityMention("E2", 9)], store, stats)
    alone = entity_vector([EntityMention("E1", 1)], store, stats)
    assert with_ghost.values == pytest.approx(alone.values)


def test_entity_vector_no_coverage_flagged_empty():
    store = store_of(E1=(1.0, 0.0))
    stats = EntityStats(link_doc_freq={}, n_docs=4)
    for mentions in ([], [EntityMention("EX", 1)]):
        vec = entity_vector(mentions, store, stats)
        assert vec.values.tolist() == [0.0, 0.0]
        assert vec.norm() == 0.0


# --- cosine ---------------------------------------------------------------

def test_cosine_hand_values():
    a = DenseVector(values=np.array([1.0, 0.0]))
    b = DenseVector(values=np.array([1.0, 1.0]))
    assert cosine(a, b) == pytest.approx(0.70710678, abs=1e-8)
    assert cosine(a, a) == pytest.approx(1.0)
    c = DenseVector(values=np.array([0.0, 2.0]))
    assert cosine(a, c) == 0.0


def test_cosine_zero_norm_is_zero():
    z = DenseVector(values=np.zeros(2))
    a = DenseVector(values=np.array([1.0, 0.0]))
    assert cosine(z, a) == 0.0
    assert cosine(a, z) == 0.0


def test_cosine_sparse_pair():
    u = SparseVector({"a": 1.0})
    v = SparseVector({"a": 1.0, "b": 1.0})
    assert cosine(u, v) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_cosine_mixed_spaces_rejected():
    u = SparseVector({"a": 1.0})
    d = DenseVector(values=np.array([1.0]))
    with pytest.raises(ValueError):
        cosine(u, d)


def test_cosine_dimension_mismatch_rejected():
    a = DenseVector(values=np.array([1.0, 0.0]))
    b = DenseVector(values=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        cosine(a, b)


def test_normalized():
    a = DenseVector(values=np.array([3.0, 4.0]))
    unit = normalized(a)
    assert unit.values == pytest.approx([0.6, 0.8])
    assert normalized(DenseVector(values=np.zeros(2))) is None
    u = normalized(SparseVector({"a": 3.0, "b": 4.0}))
    assert u.entries["a"] == pytest.approx(0.6)
    assert normalized(SparseVector({})) is None


def test_dense_vector_keeps_norm_outside_its_fields():
    rng = np.random.default_rng(3)
    for _ in range(50):
        values = rng.normal(size=int(rng.integers(1, 6)))
        kept = DenseVector(values=values)
        assert kept.norm() == ref_norm(DenseVector(values=values.copy()))
        assert kept.norm() == kept.norm()
    assert [f.name for f in dataclasses.fields(DenseVector)] == ["values"]
    # equality stays identity (eq=False), before and after the norm is kept
    a, b = DenseVector(values=np.ones(2)), DenseVector(values=np.ones(2))
    assert a == a and a != b
    a.norm()
    assert a == a and a != b


vec3 = st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3)


@given(vec3, vec3)
def test_cosine_symmetric_and_bounded(xs, ys):
    a = DenseVector(values=np.array(xs))
    b = DenseVector(values=np.array(ys))
    assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
    assert abs(cosine(a, b)) <= 1.0 + 1e-9


@given(vec3, st.floats(0.1, 50))
def test_cosine_scale_invariant(xs, c):
    a = DenseVector(values=np.array(xs))
    scaled = DenseVector(values=np.array(xs) * c)
    if float(np.linalg.norm(a.values)) > 1e-6:
        assert cosine(a, scaled) == pytest.approx(1.0, abs=1e-9)


def test_global_embedding_scaling_preserves_order():
    ix = plain_index({"d1": "i j", "d2": "j k", "d3": "i k"})
    base = {"i": (1.0, 0.2), "j": (0.1, 0.9), "k": (0.7, 0.7)}
    doubled = {k: tuple(2.0 * x for x in v) for k, v in base.items()}
    q = ["i", "j"]
    orders = []
    for table in (base, doubled):
        store = store_of(**table)
        qv = text_vector(q, store, ix)
        scores = {pid: cosine(qv, text_vector(ix.doc_tf[pid], store, ix))
                  for pid in ("d1", "d2", "d3")}
        orders.append(sorted(scores, key=lambda p: (-scores[p], p)))
    assert orders[0] == orders[1]


# --- one dot product: no score depends on the BLAS kernel ---------------------

def test_dense_dot_adds_left_to_right():
    # (1e16 + 1) rounds back to 1e16, so only the left-to-right order gives 0
    a = DenseVector(values=np.array([1e16, 1.0, -1e16, 0.5]))
    ones = DenseVector(values=np.ones(4))
    assert a.dot(ones) == 0.5
    assert DenseVector(values=np.array([3.0, 4.0])).norm() == 5.0


# Scores every full-collection pool of a 3-page fixture with the dense
# methods, with and without feedback, and prints a digest of the bits.
_DENSE_POOL_DIGEST = """
import hashlib
from headingrank.corpus import all_queries
from headingrank.index import build_index
from headingrank.methods import MethodEngine, MethodParams
from headingrank.semvec import (CachingLinker, GazetteerLinker, build_entity_stats,
                                load_embeddings)
from headingrank.synth import SynthSpec, generate

art = generate(SynthSpec(pages=3, seed=1))
texts = {pid: p.text for pid, p in art.corpus.paragraphs.items()}
ix = build_index(texts)
store = load_embeddings(art.embedding_lines)
linker = CachingLinker(GazetteerLinker(dict(l.split("\\t") for l in art.gazetteer_lines)))
stats = build_entity_stats(texts, linker)
digest = hashlib.sha256()
for method, expansion in (("glove-cs", "none"), ("glove-cs", "rm1"),
                          ("entity-cs", "none"), ("entity-cs", "ent-rm1")):
    engine = MethodEngine(ix, texts, MethodParams(method=method, expansion=expansion),
                          embeddings=store, linker=linker, entity_stats=stats)
    for q in sorted(all_queries(art.corpus), key=lambda q: q.query_id):
        for pid, score in engine.rank(q, k=None).items:
            digest.update(f"{method} {expansion} {q.query_id} {pid} "
                          f"{score.hex()}\\n".encode())
print(digest.hexdigest())
"""

# OpenBLAS kernels a DYNAMIC_ARCH build can be forced to, with the x86 CPU
# flags each needs: forcing one the CPU lacks kills the process
_KERNELS = {"SkylakeX": {"avx512f", "avx512bw"}, "Haswell": {"avx2", "fma"},
            "Prescott": set()}


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def _runnable_kernels() -> list[str]:
    if platform.machine() not in ("x86_64", "AMD64"):
        return []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = next((set(line.split(":", 1)[1].split()) for line in fh
                          if line.startswith("flags")), set())
    except OSError:
        return []
    return [k for k, needs in _KERNELS.items() if needs <= flags]


def test_dense_scores_have_the_same_bits_under_every_blas_kernel():
    if not _dynamic_openblas():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    kernels = _runnable_kernels()
    if len(kernels) < 2:
        pytest.skip("this CPU runs fewer than two OpenBLAS kernels")
    digests = {}
    for kernel in kernels:
        proc = subprocess.run(
            [sys.executable, "-c", _DENSE_POOL_DIGEST],
            env={**os.environ, "OPENBLAS_CORETYPE": kernel,
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests[kernel] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests


# numpy names that reach a BLAS routine, as attributes or imports
_BLAS_NAMES = {"dot", "vdot", "inner", "linalg", "matmul", "einsum", "tensordot"}


def _blas_uses(tree: ast.AST) -> list[str]:
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append(f"line {node.lineno}: @")
        elif (isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            uses.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES - {"dot", "inner"}:
            uses.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            uses += [f"line {node.lineno}: from {node.module} import {a.name}"
                     for a in node.names
                     if a.name in _BLAS_NAMES or "linalg" in node.module]
        elif isinstance(node, ast.Import):
            uses += [f"line {node.lineno}: import {a.name}" for a in node.names
                     if a.name.startswith("numpy.linalg")]
    return uses


def test_no_module_makes_a_blas_call():
    # a BLAS routine's rounding depends on the kernel picked for the CPU;
    # every score adds its products left to right instead
    modules = sorted(Path(headingrank.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = {m.name: _blas_uses(ast.parse(m.read_text(encoding="utf-8")))
             for m in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}
    planted = "import numpy as np\nx = np.dot(a, b) + np.linalg.norm(a)\ny = a @ b\n"
    assert len(_blas_uses(ast.parse(planted))) == 3


def _scope(body: list[ast.stmt]) -> list[ast.AST]:
    """The nodes one scope runs: its statements less the bodies of the
    functions and classes defined in it, and less annotations, which
    `from __future__ import annotations` never evaluates."""
    nodes, stack = [], list(body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [*node.decorator_list, *node.args.defaults,
                      *filter(None, node.args.kw_defaults)]
        elif isinstance(node, ast.ClassDef):
            stack += [*node.decorator_list, *node.bases, *node.keywords]
        elif isinstance(node, ast.AnnAssign):
            stack += filter(None, (node.target, node.value))
        elif not isinstance(node, ast.arg):
            stack += ast.iter_child_nodes(node)
    return nodes


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def _numpy_faults(scope: ast.AST, name: str = "module", bound: bool = False,
                  at_import: bool = True) -> list[str]:
    """Module-level numpy imports, and reads of np in a scope where
    neither it nor a scope around it binds np."""
    nodes = _scope(scope.body)
    binds = bound or any(
        isinstance(n, ast.Import) and any((a.asname or a.name) == "np" for a in n.names)
        or isinstance(n, ast.Name) and n.id == "np" and isinstance(n.ctx, ast.Store)
        for n in nodes)
    faults = [f"line {n.lineno}: {name} imports numpy" for n in nodes
              if at_import and _imports_numpy(n)]
    faults += [f"line {n.lineno}: {name} reads np without binding it" for n in nodes
               if not binds and isinstance(n, ast.Name) and n.id == "np"
               and isinstance(n.ctx, ast.Load)]
    for n in nodes:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = n.name if name == "module" else f"{name}.{n.name}"
            faults += _numpy_faults(n, inner, binds, at_import and isinstance(n, ast.ClassDef))
    return faults


def test_only_synth_imports_numpy_at_module_level():
    # the CLI loads numpy on first use; a function that reads np without
    # binding it fails with NameError only on the path that reaches it
    modules = sorted(Path(headingrank.__file__).parent.glob("*.py"))
    found = {m.name: _numpy_faults(ast.parse(m.read_text(encoding="utf-8")))
             for m in modules}
    assert [f.split(": ", 1)[1] for f in found.pop("synth.py")] == ["module imports numpy"]
    assert {name: faults for name, faults in found.items() if faults} == {}
    planted = ("from __future__ import annotations\n"
               "def zero(v: np.ndarray) -> np.ndarray:\n"
               "    return np.zeros_like(v)\n"
               "def ones(n):\n"
               "    import numpy as np\n"
               "    return (lambda: np.ones(n))()\n"
               "class Table:\n"
               "    from numpy import float64\n"
               "    def without(self, c):\n"
               "        return np.delete(self.m, c)\n")
    assert set(_numpy_faults(ast.parse(planted))) == {
        "line 3: zero reads np without binding it", "line 8: Table imports numpy",
        "line 10: Table.without reads np without binding it"}
