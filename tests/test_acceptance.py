"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete.

Criterion 9 builds a 5,000-doc x 10,000-term synthetic corpus under a
1,023-node balanced tree and drives the full CLI twice (8 threads, then
1 thread); criterion 10 reads the per-level curves from that run.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hierlabel import cli
from hierlabel import coherence as coh
from hierlabel import corpus as corp
from hierlabel import labeling as lab
from hierlabel import queryeval as qe
from hierlabel import stats as st
from hierlabel.corpus import Vocabulary

import oracles
from conftest import (disjoint_vocab_instance, random_instance,
                      random_matrix, two_term_counts)


class _Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"[PASS] {self.name} ({elapsed:.2f}s, limit {self.limit}s)")
            assert elapsed < self.limit, \
                f"{self.name}: {elapsed:.1f}s exceeded {self.limit}s"
        else:
            print(f"[FAIL] {self.name} ({elapsed:.2f}s)")
        return False


# shared random suite for criteria 3, 5, 6 (built once, in criterion 3)
_SUITE = []


def _get_suite(tmp_root, n=200):
    if len(_SUITE) < n:
        rng = np.random.default_rng(2024)
        cfg = lab.LabelConfig()
        for k in range(len(_SUITE), n):
            m, h = random_instance(rng, tmp_root, max_docs=50, max_terms=60,
                                   max_nodes=15, name=f"suite{k}.json")
            stats = corp.build_node_stats(m, h)
            assignments = {meth: lab.label_hierarchy(stats, meth, cfg)
                           for meth in lab.METHODS}
            _SUITE.append((m, h, stats, assignments))
    return _SUITE[:n]


def test_c01_contingency_reproduction(table2):
    """Criterion 1: worked contingency cells reproduced exactly."""
    with _Timer("criterion 1: contingency reproduction", 1.0):
        _, h, stats = table2
        assert stats.node_total[h.root] == 45
        kids = [oracles.index_of(h, i) for i in (1, 2, 3)]
        assert [int(stats.node_total[i]) for i in kids] == [15, 17, 13]
        assert [oracles.freq_of(stats, i, 0) for i in kids] == [3, 4, 3]
        cells = oracles.contingency_popescul(stats, h.root, kids[0], 0)
        assert (cells.tp, cells.fn, cells.fp, cells.tn, cells.s) == \
            (3, 12, 7, 23, 45)


def test_c02_chi2_oracle_equivalence():
    """Criterion 2: chi-square equals textbook Pearson on random tables."""
    with _Timer("criterion 2: chi-square oracle equivalence", 5.0):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            tp, fp, fn, tn = (int(x) for x in rng.integers(0, 60, 4))
            s = tp + fp + fn + tn
            got = oracles.chi2_2x2(oracles.ContingencyCells(tp, fp, fn, tn, s))
            table = np.array([[tp, fn], [fp, tn]], float)
            if min(table.sum(0).min(), table.sum(1).min()) <= 0:
                assert got == 0.0
                continue
            e = np.outer(table.sum(1), table.sum(0)) / s
            pearson = float(((table - e) ** 2 / e).sum())
            assert got == pytest.approx(pearson, rel=1e-9, abs=1e-12)
        table2_value = oracles.chi2_2x2(oracles.ContingencyCells(3, 7, 12, 23, 45))
        assert table2_value == pytest.approx(10125 / 157500, rel=1e-12)
        assert table2_value == pytest.approx(0.0642857, abs=1e-7)


@pytest.mark.slow
def test_c03_method_invariant_suite(tmp_path):
    """Criterion 3: all sixteen methods hold their invariants on 200
    random instances."""
    with _Timer("criterion 3: method invariant suite", 60.0):
        suite = _get_suite(tmp_path, 200)
        cfg = lab.LabelConfig()
        for k, (m, h, stats, assignments) in enumerate(suite):
            for meth in lab.METHODS:
                a = assignments[meth]
                for i in range(h.n_nodes):
                    label = oracles.label_list(a, i)
                    assert len(label) <= cfg.p_cap
                    scores = [s for _, s in label]
                    assert all(s > 0 for s in scores)
                    assert scores == sorted(scores, reverse=True)
                    terms = [t for t, _ in label]
                    assert len(terms) == len(set(terms))
                    if not h.children[i].size and meth in (
                            lab.HIER_FREQ_SCHEMES + lab.HIER_RCL_SCHEMES):
                        assert label == []
            # RLUM: parent/child labels disjoint
            rlum = assignments["RLUM"]
            for i in range(h.n_nodes):
                mine = set(oracles.label_terms(rlum, i))
                for ch in h.children[i]:
                    assert not (mine & set(oracles.label_terms(rlum, int(ch))))
            # Popescul&Ungar: term appears at most once per root path
            pu = assignments["PopesculUngar"]
            for i in range(h.n_nodes):
                if h.children[i].size:
                    continue
                seen = set()
                for node in [i] + oracles.ancestors(h, i):
                    terms = set(oracles.label_terms(pu, node))
                    assert not (terms & seen)
                    seen |= terms
            # deterministic tie order: relabel from scratch on a sample
            if k % 4 == 0:
                stats2 = corp.build_node_stats(m, h)
                for meth in lab.METHODS:
                    again = lab.label_hierarchy(stats2, meth, cfg)
                    assert oracles.label_lists(again) == \
                        oracles.label_lists(assignments[meth])


@pytest.mark.slow
def test_c04_retrieval_correctness(tmp_path):
    """Criterion 4: perfect retrieval on node-owned vocabularies and
    brute-force equivalence on 1,000 random queries."""
    with _Timer("criterion 4: retrieval correctness", 30.0):
        rng = np.random.default_rng(11)
        for trial in range(3):
            m, h, owned = disjoint_vocab_instance(
                rng, tmp_path, n_docs=20 + 8 * trial, name=f"dv{trial}.json")
            stats = corp.build_node_stats(m, h)
            a = lab.label_hierarchy(stats, "MTWL_raw", lab.LabelConfig(p_cap=2))
            table, _ = qe.evaluate_all(m, h, {"MTWL_raw": a})
            for row in oracles.observation_rows(
                    table.take(table.kind == qe.KINDS.index("specific"))):
                assert row.precision == 1.0
                assert row.recall == 1.0
                assert row.f == 1.0

        def brute(mat, query, d):
            row_ = mat.csr.dense_row(d)
            if isinstance(query, oracles.Term):
                return row_[query.term] > 0
            if isinstance(query, oracles.Or):
                return any(brute(mat, c, d) for c in query.children)
            return all(brute(mat, c, d) for c in query.children)

        def random_query(n_terms, depth=0):
            kind = rng.integers(0, 3 if depth < 3 else 1)
            if kind == 0:
                return oracles.Term(int(rng.integers(n_terms)))
            arity = int(rng.integers(1, 4))
            parts = tuple(random_query(n_terms, depth + 1)
                          for _ in range(arity))
            return oracles.Or(parts) if kind == 1 else oracles.And(parts)

        m = random_matrix(rng, 40, 25)
        for _ in range(1000):
            q = random_query(m.n_terms)
            got = oracles.retrieve(m, q)
            expect = {d for d in range(m.n_docs) if brute(m, q, d)}
            assert got == expect
        # the library evaluates ORs of terms; ANDs only along root paths
        for _ in range(1000):
            terms = tuple(int(t) for t in rng.integers(
                0, m.n_terms, int(rng.integers(1, 6))))
            [row, _] = qe._or_rows(m, [terms])
            got = oracles.row_docs(row)
            q = oracles.specific_query(terms)
            assert got == {d for d in range(m.n_docs) if brute(m, q, d)}


def test_c05_generic_query_nesting(tmp_path):
    """Criterion 5: generic retrieval sets nest along every root path."""
    with _Timer("criterion 5: generic-query nesting", 120.0):
        suite = _get_suite(tmp_path, 100)
        for m, h, stats, assignments in suite:
            for meth in lab.METHODS:
                spec = qe.derive_specific_queries(h, assignments[meth])
                gen = qe.derive_generic_queries(h, spec)
                sets = {i: oracles.retrieve(m, oracles.generic_query(gen[i]))
                        for i in range(h.n_nodes)}
                for i in range(h.n_nodes):
                    if i != h.root:
                        assert sets[i] <= sets[int(h.parent[i])]


def test_c06_f_measure_zero_rule(tmp_path):
    """Criterion 6: emitted F is exactly 0 whenever precision or recall is."""
    with _Timer("criterion 6: F-measure zero rule", 120.0):
        suite = _get_suite(tmp_path, 100)
        rows = 0
        zero_hits = 0
        for m, h, stats, assignments in suite[:40]:
            table, _ = qe.evaluate_all(m, h, assignments)
            for row in oracles.observation_rows(table):
                rows += 1
                if row.precision == 0.0 or row.recall == 0.0:
                    zero_hits += 1
                    assert row.f == 0.0
                else:
                    assert row.f == pytest.approx(
                        2 * row.precision * row.recall
                        / (row.precision + row.recall))
        assert rows > 0 and zero_hits > 0


def test_c07_glm_snk_validation():
    """Criterion 7: balanced-design recovery, studentized-range anchors,
    and the worked SNK grouping."""
    with _Timer("criterion 7: GLM/SNK validation", 10.0):
        # balanced effects = marginal means - grand mean
        rng = np.random.default_rng(13)
        rows = []
        for method in ("A", "B", "C", "D"):
            for level in (0, 1, 2):
                for _ in range(5):
                    rows.append((method, level, float(rng.normal())))
        methods = ["A", "B", "C", "D"]
        y = np.array([v for _, _, v in rows])
        fit = st.fit_additive_model(
            y, np.array([lv for _, lv, _ in rows]),
            np.array([methods.index(m) for m, _, _ in rows]), methods)
        for method in ("A", "B", "C", "D"):
            marg = np.mean([v for mm, _, v in rows if mm == method])
            assert fit.effects["method"][method] == \
                pytest.approx(marg - y.mean(), abs=1e-10)
        for level in (0, 1, 2):
            marg = np.mean([v for _, ll, v in rows if ll == level])
            assert fit.effects["level"][level] == \
                pytest.approx(marg - y.mean(), abs=1e-10)

        published = {
            (2, 10): 3.151, (3, 10): 3.877, (5, 10): 4.654, (10, 10): 5.598,
            (2, 30): 2.888, (3, 30): 3.486, (5, 30): 4.102, (10, 30): 4.824,
            (2, math.inf): 2.772, (3, math.inf): 3.314,
            (5, math.inf): 3.858, (10, math.inf): 4.474,
        }
        for (k, df), expect in published.items():
            assert st.studentized_range_quantile(0.05, k, df) == \
                pytest.approx(expect, abs=1e-3), (k, df)

        # worked SNK example: means 10 / 9 / 8.2 / 7, n=6, MSE=1, df=20
        unit = np.array([1.5, -1.5, 0.5, -0.5, 0.0, 0.0])
        means = np.array([10.0, 9.0, 8.2, 7.0])
        lfit = st.fit_level_model((means[:, None] + unit).ravel(),
                                  np.repeat(np.arange(4), 6))
        grouping = st.snk_compare(lfit, "level", 0.05)
        assert [(lv, letters) for lv, _, letters in grouping] == \
            [(0, "a"), (1, "ab"), (2, "bc"), (3, "c")]


def test_c08_npmi_bounds_and_anchors():
    """Criterion 8: NPMI stays in [-1, 1] with the documented limits and
    OC matches brute-force pair enumeration."""
    with _Timer("criterion 8: NPMI bounds and anchors", 10.0):
        make = two_term_counts

        rng = np.random.default_rng(17)
        for _ in range(10000):
            n = int(rng.integers(1, 60))
            ua = int(rng.integers(0, n + 1))
            ub = int(rng.integers(0, n + 1))
            joint = int(rng.integers(0, min(ua, ub) + 1)) if min(ua, ub) else 0
            v = oracles.npmi(make(n, ua, ub, joint), 0, 1)
            assert -1.0 <= v <= 1.0
        assert oracles.npmi(make(10, 1, 1, 1), 0, 1) == pytest.approx(1.0, abs=1e-12)
        assert oracles.npmi(make(4, 2, 2, 1), 0, 1) == pytest.approx(0.0, abs=1e-12)
        assert oracles.npmi(make(9, 4, 5, 0), 0, 1) == -1.0

        vocab = Vocabulary(tuple(f"w{i}" for i in range(12)))
        corpus = [[f"w{int(t)}" for t in rng.integers(0, 12, 6)]
                  for _ in range(50)]
        counts = coh.count_cooccurrence([" ".join(d) for d in corpus],
                                        vocab)
        for _ in range(100):
            k = int(rng.integers(0, 7))
            terms = [int(t) for t in rng.choice(12, size=k, replace=False)]
            brute = sum(oracles.npmi(counts, terms[i], terms[j])
                        for i in range(k) for j in range(i + 1, k))
            if k < 2:
                brute = 0.0
            assert coh.oc_npmi(counts, terms, 10) == \
                pytest.approx(brute, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# criterion 9/10: full-scale smoke corpus
# ---------------------------------------------------------------------------

N_DOCS, N_TERMS, N_NODES = 5000, 10000, 1023
_SMOKE = {}


def build_smoke_fixture(root):
    """Balanced 1,023-node binary tree over 5,000 docs x 10,000 terms."""
    rng = np.random.default_rng(99)
    root.mkdir(parents=True, exist_ok=True)

    n_leaves = 512
    first_leaf = 511
    nodes = []
    leaf_docs = np.array_split(np.arange(N_DOCS), n_leaves)
    for i in range(N_NODES):
        parent = None if i == 0 else (i - 1) // 2
        children = [2 * i + 1, 2 * i + 2] if i < first_leaf else []
        docs = [] if i < first_leaf else [int(d) for d in
                                          leaf_docs[i - first_leaf]]
        nodes.append({"id": i, "parent": parent, "children": children,
                      "docs": docs})
    (root / "hier.json").write_text(json.dumps({"nodes": nodes}))

    # topic block of 18 terms per leaf (9,216 used) + shared tail terms
    leaf_of_doc = np.empty(N_DOCS, np.int64)
    for li, docs in enumerate(leaf_docs):
        leaf_of_doc[docs] = li
    topic = (leaf_of_doc[:, None] * 18
             + rng.integers(0, 18, (N_DOCS, 25))).ravel()
    shared = rng.integers(9216, N_TERMS, (N_DOCS, 12)).ravel()
    rows = np.concatenate([np.repeat(np.arange(N_DOCS), 25),
                           np.repeat(np.arange(N_DOCS), 12)])
    cols = np.concatenate([topic, shared])
    import scipy.sparse as sp
    csr = sp.csr_matrix(
        (np.ones(cols.size, np.int64), (rows, cols)),
        shape=(N_DOCS, N_TERMS))
    csr.sum_duplicates()
    csr.sort_indices()
    coo = csr.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{N_DOCS} {N_TERMS}"]
    lines.extend(f"{coo.row[i]} {coo.col[i]} {coo.data[i]}" for i in order)
    (root / "matrix.txt").write_text("\n".join(lines) + "\n")

    (root / "vocab.tsv").write_text(
        "".join(f"{i}\tterm{i}\n" for i in range(N_TERMS)))

    doc_lines = []
    for d in range(N_DOCS):
        terms = csr.indices[csr.indptr[d]:csr.indptr[d + 1]]
        doc_lines.append(" ".join(f"term{t}" for t in terms))
    (root / "reference.txt").write_text("\n".join(doc_lines) + "\n")

    cfg = {
        "matrix": "matrix.txt", "vocabulary": "vocab.tsv",
        "hierarchy": "hier.json", "reference_corpus": "reference.txt",
        "out_dir": "out",
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _report_files(out):
    return sorted(p for p in out.rglob("*") if p.is_file()
                  and p.name != "run_manifest.json")


# sha256 of every smoke report but the manifest, as ``sha256sum`` lists them
SMOKE_DIGESTS = Path(__file__).with_name("smoke_reports.sha256")


@pytest.mark.slow
def test_c09_determinism_and_scale(tmp_path_factory):
    """Criterion 9: the full pipeline at benchmark scale finishes inside
    ten minutes, is byte-deterministic across thread counts, and writes
    the pinned report bytes."""
    with _Timer("criterion 9: determinism & scale smoke test", 900.0):
        root = tmp_path_factory.mktemp("smoke")
        cfg_path = build_smoke_fixture(root)

        t0 = time.perf_counter()
        rc = cli.main(["all", "--config", str(cfg_path),
                       "--out", str(root / "o8"), "--threads", "8"])
        run_seconds = time.perf_counter() - t0
        assert rc == 0
        print(f"  pipeline run (8 threads): {run_seconds:.1f}s")
        assert run_seconds < 600.0, "pipeline exceeded the 10-minute budget"

        rc = cli.main(["all", "--config", str(cfg_path),
                       "--out", str(root / "o1"), "--threads", "1"])
        assert rc == 0

        files8 = _report_files(root / "o8")
        files1 = _report_files(root / "o1")
        assert [p.relative_to(root / "o8") for p in files8] == \
            [p.relative_to(root / "o1") for p in files1]
        for p8, p1 in zip(files8, files1):
            assert p8.read_bytes() == p1.read_bytes(), p8.name
        want = dict(line.split()[::-1]
                    for line in SMOKE_DIGESTS.read_text().splitlines())
        got = {p.relative_to(root / "o8").as_posix():
               hashlib.sha256(p.read_bytes()).hexdigest() for p in files8}
        assert got == want
        m8 = json.loads((root / "o8" / "run_manifest.json").read_text())
        m1 = json.loads((root / "o1" / "run_manifest.json").read_text())
        assert {k: v["sha256"] for k, v in m8["inputs"].items()} == \
            {k: v["sha256"] for k, v in m1["inputs"].items()}

        _SMOKE["out"] = root / "o8"


def test_c10_per_level_trend_diagnostic():
    """Criterion 10 (non-binding diagnostic): generic-F level curves exist
    for all sixteen methods and cover every level; the curve shapes are
    reported, not asserted."""
    with _Timer("criterion 10: per-level trend diagnostic", 30.0):
        out = _SMOKE.get("out")
        if out is None:
            pytest.skip("criterion 9 smoke run unavailable")
        levels = set(range(10))
        for meth in lab.METHODS:
            dat = out / "plots" / f"{meth}_f_generic.dat"
            assert dat.is_file(), dat.name
            got_levels = set()
            for line in dat.read_text().splitlines():
                lvl, _ = line.split()
                got_levels.add(int(lvl))
            assert got_levels == levels, meth
        for meth in ("RLUM", "PopesculUngar"):
            dat = out / "plots" / f"{meth}_f_generic.dat"
            print(f"  generic-F curve {meth}: " + " ".join(
                v.split()[1] for v in dat.read_text().splitlines()))
