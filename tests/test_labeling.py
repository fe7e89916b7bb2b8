"""The sixteen labeling methods: elementary scores against hand oracles,
contingency statistics against textbook formulas, and structural-method
invariants on random instances."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

from hierlabel import corpus as corp
from hierlabel import labeling as lab

import oracles
from conftest import (balanced_instance, hierarchy_from_records,
                      matrix_from_cells, random_instance, random_matrix,
                      random_tree_records, shuffled_instances)


def build(tmp_path, cells, records, n_docs, n_terms):
    m = matrix_from_cells(n_docs, n_terms, cells)
    h = hierarchy_from_records(records, m, tmp_path)
    return m, h, corp.build_node_stats(m, h)


class TestElementaryScores:

    def test_mtwl_raw_table2(self, table2):
        _, h, stats = table2
        assert oracles.score_mtwl_raw(stats, oracles.index_of(h, 0), 0) == 10.0

    def test_mtwl_raw_absent(self, table2):
        _, h, stats = table2
        # term 2 only occurs under child 3
        assert oracles.score_mtwl_raw(stats, oracles.index_of(h, 1), 2) == 0.0

    def test_mtwl_raw_leaf_matches_docset_sum(self, tmp_path):
        rng = np.random.default_rng(21)
        m, h = random_instance(rng, tmp_path, max_docs=20, max_terms=12)
        stats = corp.build_node_stats(m, h)
        dense = oracles.toarray(m.csr)
        for i in range(h.n_nodes):
            if h.children[i].size:
                continue
            for t in range(m.n_terms):
                brute = int(dense[h.docsets[i], t].sum())
                assert oracles.score_mtwl_raw(stats, i, t) == brute

    def test_idf_global(self, tmp_path):
        # 100 docs, term 0 in 10 of them, term 1 in all
        cells = [(d, 0, 1) for d in range(10)] + [(d, 1, 1) for d in range(100)]
        m, h, stats = build(
            tmp_path, cells,
            [{"id": 0, "parent": None, "children": [], "docs": list(range(100))}],
            100, 3)
        assert oracles.score_idf_global(stats, 0) == pytest.approx(math.log(10.0))
        assert oracles.score_idf_global(stats, 1) == 0.0
        assert oracles.score_idf_global(stats, 2) == 0.0   # df = 0 convention

    def test_idf_local(self, tmp_path):
        # parent holds 20 docs, term 0 in 5 of them; node is one child
        cells = [(d, 0, 1) for d in range(5)] + [(d, 1, 1) for d in range(20)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": list(range(10))},
            {"id": 2, "parent": 0, "children": [], "docs": list(range(10, 20))},
        ]
        m, h, stats = build(tmp_path, cells, records, 20, 2)
        child = oracles.index_of(h, 1)
        assert oracles.score_idf_local(stats, child, 0) == pytest.approx(math.log(4.0))
        assert oracles.score_idf_local(stats, child, 1) == 0.0
        # at the root the self-parent convention makes it global idf
        assert oracles.score_idf_local(stats, h.root, 0) == \
            pytest.approx(oracles.score_idf_global(stats, 0))

    def test_icf_concentrated_term(self, tmp_path):
        # parent with 4 children; term 0 in every doc of child 1 only
        cells = [(d, 0, 1) for d in range(3)] \
            + [(d, 1, 1) for d in range(12)]
        records = [{"id": 0, "parent": None, "children": [1, 2, 3, 4], "docs": []}]
        for j in range(4):
            records.append({"id": j + 1, "parent": 0, "children": [],
                            "docs": list(range(3 * j, 3 * j + 3))})
        m, h, stats = build(tmp_path, cells, records, 12, 2)
        node = oracles.index_of(h, 1)
        # exp(1) * ln(4/1 + 1), oracle-evaluated
        assert oracles.score_icf(stats, node, 0) == \
            pytest.approx(math.exp(1.0) * math.log(5.0), rel=1e-12)
        # term 1 in all docs of all 4 children: exp(1) * ln(4/4 + 1)
        assert oracles.score_icf(stats, node, 1) == \
            pytest.approx(math.exp(1.0) * math.log(2.0), rel=1e-12)
        # absent from the node: exp(0) * log factor
        node4 = oracles.index_of(h, 4)
        assert oracles.score_icf(stats, node4, 0) == \
            pytest.approx(math.log(5.0), rel=1e-12)

    def test_icf_zero_sibling_support(self, tmp_path):
        # a term absent from every sibling cluster scores 0, not an error
        cells = [(0, 0, 1), (1, 0, 1)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        m, h, stats = build(tmp_path, cells, records, 2, 2)
        assert oracles.score_icf(stats, oracles.index_of(h, 1), 1) == 0.0

    def test_score_flat_derived_value(self, table2):
        _, h, stats = table2
        node = oracles.index_of(h, 1)
        f = oracles.score_mtwl_raw(stats, node, 0)
        expect = (oracles.score_idf_global(stats, 0)
                  * oracles.score_idf_local(stats, node, 0) * f)
        assert oracles.score_flat("MTWL_idf", stats, node, 0) == pytest.approx(expect)

    def test_score_flat_zero_frequency(self, table2):
        _, h, stats = table2
        for scheme in lab.FLAT_SCHEMES:
            assert oracles.score_flat(scheme, stats, oracles.index_of(h, 1),
                                      2) == 0.0

    def test_mtwl_idf_hand_value(self):
        # idf_global = ln 10, idf_local = ln 4, f = 7 -> product
        expect = 7.0 * math.log(10.0) * math.log(4.0)
        assert expect == pytest.approx(22.3444251, abs=5e-7)

    def test_icwl_raw_is_icf_times_mtwl(self, tmp_path):
        rng = np.random.default_rng(22)
        m, h = random_instance(rng, tmp_path, max_docs=20, max_terms=12)
        stats = corp.build_node_stats(m, h)
        for i in range(h.n_nodes):
            for t in range(m.n_terms):
                assert oracles.score_flat("ICWL_raw", stats, i, t) == pytest.approx(
                    oracles.score_icf(stats, i, t) * oracles.score_mtwl_raw(stats, i, t),
                    rel=1e-12, abs=1e-15)


class TestSiblingCfAndHierWeight:

    def test_full_support(self, table2):
        _, h, stats = table2
        # term 1 lives under children 1 and 2 but not 3
        assert oracles.sibling_cf(stats, oracles.index_of(h, 1), 1) == \
            pytest.approx(2 / 3)
        # term 0 is in all three children
        assert oracles.sibling_cf(stats, oracles.index_of(h, 2), 0) == 1.0

    def test_quarter_support(self, tmp_path):
        cells = [(0, 0, 1)] + [(d, 1, 1) for d in range(4)]
        records = [{"id": 0, "parent": None, "children": [1, 2, 3, 4], "docs": []}]
        for j in range(4):
            records.append({"id": j + 1, "parent": 0, "children": [],
                            "docs": [j]})
        m, h, stats = build(tmp_path, cells, records, 4, 2)
        assert oracles.sibling_cf(stats, oracles.index_of(h, 1), 0) == 0.25

    def test_root_self_parent(self, table2):
        _, h, stats = table2
        # the root's sibling group is its own children
        assert oracles.sibling_cf(stats, h.root, 0) == 1.0

    def test_hier_weight_leaf_zero(self, table2):
        _, h, stats = table2
        assert oracles.hier_weight(stats, oracles.index_of(h, 1), 0,
                                   lambda g: 1.0) == 0.0

    def test_hier_weight_single_child(self, tmp_path):
        cells = [(0, 0, 1), (1, 0, 1)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        m, h, stats = build(tmp_path, cells, records, 2, 1)
        # both children contain term 0 -> cf = 1; distance 1; v = 5
        assert oracles.hier_weight(stats, h.root, 0, lambda g: 5.0) == \
            pytest.approx(10.0)   # two children, 5 each

    def test_hier_weight_hand_sum(self, table2):
        _, h, stats = table2
        # fake value function and verify the 1/e * cf * v sum by hand
        vals = {oracles.index_of(h, i): v
                for i, v in ((1, 4.0), (2, 6.0), (3, 0.0))}
        got = oracles.hier_weight(stats, h.root, 0, lambda g: vals[g])
        # all three children at distance 1 with cf = 1 for term 0
        assert got == pytest.approx(4.0 + 6.0 + 0.0)


class TestContingency:

    def test_popescul_table2(self, table2):
        _, h, stats = table2
        cells = oracles.contingency_popescul(stats, h.root,
                                             oracles.index_of(h, 1), 0)
        assert (cells.tp, cells.fn, cells.fp, cells.tn, cells.s) == \
            (3, 12, 7, 23, 45)

    def test_popescul_absent_term(self, tmp_path):
        cells_m = [(0, 0, 2), (1, 0, 3)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        m, h, stats = build(tmp_path, cells_m, records, 2, 2)
        c = oracles.contingency_popescul(stats, h.root,
                                         oracles.index_of(h, 1), 1)
        assert c.tp == 0 and c.fp == 0
        assert c.tp + c.fp + c.fn + c.tn == c.s

    def test_popescul_cells_sum_random(self, tmp_path):
        rng = np.random.default_rng(31)
        for trial in range(8):
            m, h = random_instance(rng, tmp_path, max_docs=25, max_terms=15,
                                   name=f"pc{trial}.json")
            stats = corp.build_node_stats(m, h)
            dense = oracles.toarray(m.csr)
            for i in range(h.n_nodes):
                for ch in h.children[i]:
                    ch = int(ch)
                    for t in range(0, m.n_terms, 3):
                        c = oracles.contingency_popescul(stats, i, ch, t)
                        # brute-force recount from the raw matrix
                        tp = int(dense[h.docsets[ch], t].sum())
                        s = int(dense[h.docsets[i]].sum())
                        assert c.tp == tp
                        assert c.s == s
                        assert c.tp + c.fp + c.fn + c.tn == c.s

    def test_rcl_reference_mass(self, table2):
        _, h, stats = table2
        c = oracles.contingency_rcl(stats, h.root, oracles.index_of(h, 1), 0)
        assert c.s == 30          # 45 - 15
        assert c.fp == 7          # 10 - 3
        assert c.tn == 23
        assert c.fp + c.tn == c.s

    def test_rcl_term_only_in_node(self, table2):
        _, h, stats = table2
        # term 2 occurs only under child 3
        c = oracles.contingency_rcl(stats, h.root, oracles.index_of(h, 3), 2)
        assert c.fp == 0

    def test_rcl_fp_brute_force(self, tmp_path):
        rng = np.random.default_rng(32)
        for trial in range(8):
            m, h = random_instance(rng, tmp_path, max_docs=25, max_terms=15,
                                   name=f"rc{trial}.json")
            stats = corp.build_node_stats(m, h)
            dense = oracles.toarray(m.csr)
            for i in range(h.n_nodes):
                for ch in h.children[i]:
                    ch = int(ch)
                    ref_docs = sorted(set(h.docsets[i].tolist())
                                      - set(h.docsets[ch].tolist()))
                    for t in range(0, m.n_terms, 4):
                        c = oracles.contingency_rcl(stats, i, ch, t)
                        assert c.fp == int(dense[ref_docs, t].sum())

    def test_rcl_literal_clamps(self, table2):
        _, h, stats = table2
        c = oracles.contingency_rcl(stats, h.root, oracles.index_of(h, 1), 0,
                                fp_mode="literal")
        assert c.fp == 4          # (10 - 3) - 3
        c2 = oracles.contingency_rcl(stats, h.root, oracles.index_of(h, 3), 2,
                                 fp_mode="literal")
        assert c2.fp == 0         # clamped at zero


class TestChi2AndJsd:

    def test_chi2_table2_value(self):
        cells = oracles.ContingencyCells(tp=3, fp=7, fn=12, tn=23, s=45)
        assert oracles.chi2_2x2(cells) == pytest.approx(225 * 45 / 157500, rel=1e-12)

    def test_chi2_proportional_zero(self):
        # tp*tn == fn*fp
        cells = oracles.ContingencyCells(tp=2, fp=4, fn=3, tn=6, s=15)
        assert oracles.chi2_2x2(cells) == 0.0

    def test_chi2_zero_marginal(self):
        cells = oracles.ContingencyCells(tp=0, fp=0, fn=3, tn=6, s=9)
        assert oracles.chi2_2x2(cells) == 0.0

    def test_chi2_matches_pearson_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            tp, fp, fn, tn = (int(x) for x in rng.integers(0, 40, 4))
            s = tp + fp + fn + tn
            cells = oracles.ContingencyCells(tp, fp, fn, tn, s)
            got = oracles.chi2_2x2(cells)
            # independent Pearson sum over observed vs expected
            table = np.array([[tp, fn], [fp, tn]], float)
            if min(table.sum(0).min(), table.sum(1).min()) <= 0:
                assert got == 0.0
                continue
            e = np.outer(table.sum(1), table.sum(0)) / s
            pearson = float(((table - e) ** 2 / e).sum())
            assert got == pytest.approx(pearson, rel=1e-9, abs=1e-12)

    def test_jsd_identical_distributions(self):
        # p = tp/(tp+fn) equals q = (tp+fp)/total
        cells = oracles.ContingencyCells(tp=2, fp=2, fn=2, tn=2, s=8)
        assert oracles.jsd_2x2(cells) == pytest.approx(0.0, abs=1e-15)

    def test_jsd_printed_expression(self):
        cells = oracles.ContingencyCells(tp=4, fp=2, fn=4, tn=6, s=16)
        p, q = 0.5, 0.375
        mid = 0.5 * (p + q)
        oracle = (p * math.log2(p) - p * math.log2(mid)
                  + q * math.log2(q) - q * math.log2(mid))
        assert oracles.jsd_2x2(cells) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.0129253, abs=1e-6)

    def test_jsd_nonnegative_random(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            tp, fp, fn, tn = (int(x) for x in rng.integers(0, 30, 4))
            cells = oracles.ContingencyCells(tp, fp, fn, tn, tp + fp + fn + tn)
            assert oracles.jsd_2x2(cells) >= -1e-15

    def test_chi2_critical_equals_scipy_ppf(self):
        """Within 1e-14 relative: scipy's own quantile is up to 25 ulp off
        the exact one on this grid, so bit equality is not the target."""
        for alpha in (0.001, 0.01, 0.025, 0.05, 0.1, 0.5, 0.9):
            for df in range(1, 300):
                assert lab._chi2_critical(alpha, df) == pytest.approx(
                    float(chi2.ppf(1.0 - alpha, df)), rel=1e-14, abs=0), \
                    (alpha, df)

    def test_chi2_critical_at_extreme_alpha(self):
        # 1 - alpha rounds to 1 (alpha <= 2^-54): no finite quantile
        for alpha in (2.0 ** -60, 2.0 ** -54, 1e-300):
            assert lab._chi2_critical(alpha, 3) == math.inf
        # 1 - alpha = 2^-53 exactly: a small finite quantile
        tiny = lab._chi2_critical(1.0 - 2.0 ** -53, 1)
        assert 0.0 < tiny < 1e-30
        assert tiny == pytest.approx(float(chi2.ppf(2.0 ** -53, 1)), rel=1e-12)
        # every alpha in (0, 1) and df up to a fan-out of 1,000 gives a
        # number scipy agrees with, or inf where scipy's is inf
        alphas = [2.0 ** -54 * (1 + 2.0 ** -52), 2.0 ** -53, 1e-12,
                  *np.geomspace(1e-9, 0.5, 12), 0.5 + 2.0 ** -53,
                  *(1.0 - np.geomspace(1e-15, 0.4, 8)), 1.0 - 2.0 ** -53]
        for alpha in alphas:
            for df in (1, 2, 3, 7, 23, 24, 100, 575, 999):
                got = lab._chi2_critical(float(alpha), df)
                want = float(chi2.ppf(1.0 - alpha, df))
                assert got == pytest.approx(want, rel=1e-12), (alpha, df)

    def test_pearson_children_table2(self, table2):
        _, h, stats = table2
        stat, df = oracles.pearson_chi2_children(stats, h.root, 0)
        assert df == 2
        # oracle: full 3x2 table evaluated term by term
        table = np.array([[3, 12], [4, 13], [3, 10]], float)
        e = np.outer(table.sum(1), table.sum(0)) / table.sum()
        oracle = float(((table - e) ** 2 / e).sum())
        assert stat == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.0651584, abs=1e-6)

    def test_pearson_children_proportional(self, tmp_path):
        # term spread exactly proportionally to child totals
        cells = [(0, 0, 2), (0, 1, 2), (1, 0, 4), (1, 1, 4)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        m, h, stats = build(tmp_path, cells, records, 2, 2)
        stat, _ = oracles.pearson_chi2_children(stats, h.root, 0)
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_pearson_children_scipy_oracle(self, tmp_path):
        rng = np.random.default_rng(43)
        checked = 0
        for trial in range(10):
            m, h = random_instance(rng, tmp_path, max_docs=25, max_terms=10,
                                   name=f"px{trial}.json")
            stats = corp.build_node_stats(m, h)
            for i in range(h.n_nodes):
                if h.children[i].size == 0 or stats.child_count[i] < 2:
                    continue
                for t in range(m.n_terms):
                    col = np.array([oracles.freq_of(stats, int(c), t)
                                    for c in h.children[i]], float)
                    tot = np.array([stats.node_total[int(c)]
                                    for c in h.children[i]], float)
                    table = np.stack([col, tot - col], axis=1)
                    got, df = oracles.pearson_chi2_children(stats, i, t)
                    if col.sum() == 0 or (tot - col).sum() == 0 \
                            or (tot == 0).any():
                        continue   # degenerate margins use the zero rule
                    expect = chi2_contingency(table, correction=False)[0]
                    assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)
                    assert df == len(tot) - 1
                    checked += 1
        assert checked > 50


class TestSelectTopk:

    def test_all_zero_scores(self):
        freqs = np.array([5, 5, 5])
        assert oracles.select_topk([(0, 0.0), (1, 0.0)], 10, freqs) == []

    def test_p_cap(self):
        pairs = [(t, 1.0 + t) for t in range(12)]
        freqs = np.ones(12)
        out = oracles.select_topk(pairs, 10, freqs)
        assert len(out) == 10
        assert out[0][0] == 11

    def test_tie_breaks_by_frequency_then_id(self):
        freqs = np.array([5.0, 7.0, 7.0])
        out = oracles.select_topk([(0, 1.0), (1, 1.0), (2, 1.0)], 3, freqs)
        assert [t for t, _ in out] == [1, 2, 0]

    def test_partition_keeps_ties_at_the_cut(self):
        # few distinct scores, so ties straddle the p_cap-th place
        rng = np.random.default_rng(62)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            terms = rng.permutation(n).astype(np.int64)
            scores = rng.integers(-1, 4, n).astype(np.float64)
            tie = rng.integers(0, 3, n).astype(np.float64)
            p_cap = int(rng.integers(1, n + 2))
            assert oracles.ranked_pairs(
                lab._topk_arrays(terms, scores, tie, p_cap)) == \
                oracles.topk(terms, scores, tie, p_cap)


class TestRankingMethods:

    def test_mtwl_raw_table2_score(self, table2):
        _, h, stats = table2
        a = lab.select_flat_or_hier(stats, "MTWL_raw", lab.LabelConfig())
        scores = dict(oracles.label_list(a, oracles.index_of(h, 0)))
        assert scores[0] == 10.0

    def test_hier_on_leaf_empty(self, table2):
        _, h, stats = table2
        for meth in lab.HIER_FREQ_SCHEMES + lab.HIER_RCL_SCHEMES:
            a = lab.label_hierarchy(stats, meth)
            for i in range(h.n_nodes):
                if h.children[i].size == 0:
                    assert oracles.label_list(a, i) == []

    def test_rcl_chi2_composition_oracle(self, tmp_path):
        rng = np.random.default_rng(51)
        cfg = lab.LabelConfig()
        for trial in range(6):
            m, h = random_instance(rng, tmp_path, max_docs=20, max_terms=12,
                                   name=f"cc{trial}.json")
            stats = corp.build_node_stats(m, h)
            a = lab.select_flat_or_hier(stats, "RCL_chi2", cfg)
            for i in range(h.n_nodes):
                parent = int(stats.hierarchy.parent[i])
                pairs = [(t, oracles.chi2_2x2(oracles.contingency_rcl(stats, parent, i, t)))
                         for t in range(m.n_terms)]
                freqs = stats.freq.dense_row(i)
                expect = oracles.select_topk(pairs, cfg.p_cap, freqs)
                got = oracles.label_list(a, i)
                assert [t for t, _ in got] == [t for t, _ in expect]
                for (_, s1), (_, s2) in zip(got, expect):
                    assert s1 == pytest.approx(s2, rel=1e-9)

    def test_hier_freq_composition_oracle(self, tmp_path):
        rng = np.random.default_rng(52)
        cfg = lab.LabelConfig()
        m, h = random_instance(rng, tmp_path, max_docs=20, max_terms=10)
        stats = corp.build_node_stats(m, h)
        a = lab.select_flat_or_hier(stats, "HierMTWL_raw", cfg)
        for i in range(h.n_nodes):
            pairs = [(t, oracles.hier_weight(stats, i, t,
                                         lambda g, t=t: oracles.score_mtwl_raw(stats, g, t)))
                     for t in range(m.n_terms)]
            expect = oracles.select_topk(pairs, cfg.p_cap,
                                         stats.freq.dense_row(i))
            got = oracles.label_list(a, i)
            assert [t for t, _ in got] == [t for t, _ in expect]
            for (_, s1), (_, s2) in zip(got, expect):
                assert s1 == pytest.approx(s2, rel=1e-9)

    def test_hier_rcl_composition_oracle(self, tmp_path):
        rng = np.random.default_rng(53)
        cfg = lab.LabelConfig()
        m, h = random_instance(rng, tmp_path, max_docs=18, max_terms=9,
                               max_nodes=9)
        stats = corp.build_node_stats(m, h)
        a = lab.select_flat_or_hier(stats, "HierRCL_chi2", cfg)
        for i in range(h.n_nodes):
            s = float(stats.node_total[int(stats.hierarchy.parent[i])])

            def v(g, t):
                tp = float(oracles.freq_of(stats, g, t))
                fn = float(stats.node_total[g]) - tp
                pg = int(h.parent[g])
                fp = float(oracles.freq_of(stats, pg, t)) - tp
                tn = s - (tp + fn + fp)
                return oracles.chi2_2x2(oracles.ContingencyCells(tp, fp, fn, tn, s))

            pairs = [(t, oracles.hier_weight(stats, i, t,
                                         lambda g, t=t: v(g, t)))
                     for t in range(m.n_terms)]
            expect = oracles.select_topk(pairs, cfg.p_cap,
                                         stats.freq.dense_row(i))
            got = oracles.label_list(a, i)
            assert [t for t, _ in got] == [t for t, _ in expect]
            for (_, s1), (_, s2) in zip(got, expect):
                assert s1 == pytest.approx(s2, rel=1e-9)


def edge_instance(rng, n_terms=5, base=0):
    """A 9-node tree whose HierRCL cells hit each zero guard: node 5 holds
    no cells (m1 = 0); node 4 holds all of its grandparent 1's mass, as 1
    is unary and 4's sibling is 5 (m2 = 0 against ancestor 3); and node 2's
    subtree holds term 0 alone (m4 = 0 for 7 and 8 against ancestor 6).
    Every count is ``base`` plus 1 to 6."""
    records = [
        {"id": 0, "parent": None, "children": [1, 2], "docs": []},
        {"id": 1, "parent": 0, "children": [3], "docs": []},
        {"id": 2, "parent": 0, "children": [6], "docs": []},
        {"id": 3, "parent": 1, "children": [4, 5], "docs": []},
        {"id": 4, "parent": 3, "children": [], "docs": [0, 1, 2]},
        {"id": 5, "parent": 3, "children": [], "docs": [3]},
        {"id": 6, "parent": 2, "children": [7, 8], "docs": []},
        {"id": 7, "parent": 6, "children": [], "docs": [4, 5]},
        {"id": 8, "parent": 6, "children": [], "docs": [6]},
    ]
    cells = [(d, int(t), base + int(rng.integers(1, 7))) for d in (0, 1, 2)
             for t in rng.choice(n_terms, int(rng.integers(1, n_terms + 1)),
                                 replace=False)]
    cells += [(d, 0, base + int(rng.integers(1, 7))) for d in (4, 5, 6)]
    return matrix_from_cells(7, n_terms, cells), records


def two_comb_instance(rng, n_terms=8):
    """Two combs of depth 4 under the root, nodes 1-4 and 5-8, the first
    on terms below n_terms / 2 and the second on the rest: the pre-order
    leaves the first comb for the second, which reuses its level rows on
    a disjoint term block.  One document per leaf, counts 1 to 6."""
    records = [{"id": 0, "parent": None, "children": [1, 5], "docs": []}]
    leaves, cells = [], []
    for first, block in ((1, np.arange(n_terms // 2)),
                         (5, np.arange(n_terms // 2, n_terms))):
        for sid in range(first, first + 4):
            kids = [] if sid == first + 3 else [sid + 1]
            for _ in range(len(kids), 2):
                doc = len(leaves)
                kids.insert(0, 9 + doc)
                leaves.append({"id": 9 + doc, "parent": sid, "children": [],
                               "docs": [doc]})
                cells += [(doc, int(t), int(rng.integers(1, 7)))
                          for t in rng.choice(block, int(rng.integers(
                              1, block.size + 1)), replace=False)]
            records.append({"id": sid,
                            "parent": 0 if sid == first else sid - 1,
                            "children": kids, "docs": []})
    return matrix_from_cells(len(leaves), n_terms, cells), records + leaves


class TestHierRclAgainstOracle:

    @pytest.mark.parametrize("rcl_fp", ["corrected", "literal"])
    def test_property_against_oracle(self, tmp_path, rcl_fp):
        # unary nodes, children declared out of id order, the edge
        # instances, the last with counts near 2^31, and two combs on
        # disjoint terms; every positive score is ranked and compared
        # exactly, and so are RCL's and the per-child 2x2 statistics
        rng = np.random.default_rng(61)
        seen = dict.fromkeys(("unary", "shuffled", "no_mass", "m2_zero",
                              "m4_zero", "per_term", "classes",
                              "key_overflow", "disjoint_reuse"), 0)
        for trial in range(19):
            if trial < 14:
                n_docs = int(rng.integers(4, 40))
                n_terms = int(rng.integers(3, 25))
                m = random_matrix(rng, n_docs, n_terms)
                records = random_tree_records(rng, n_docs,
                                              int(rng.integers(4, 24)))
            elif trial < 18:
                m, records = edge_instance(
                    rng, base=2 ** 31 if trial == 17 else 0)
                n_terms = m.n_terms
            else:
                m, records = two_comb_instance(rng)
                n_terms = m.n_terms
            for r in records:
                seen["unary"] += len(r["children"]) == 1
                before = list(r["children"])
                rng.shuffle(r["children"])
                seen["shuffled"] += r["children"] != before
            h = hierarchy_from_records(records, m, tmp_path, f"o{trial}.json")
            stats = corp.build_node_stats(m, h)
            # s, the mass of an ancestor's parent subtree, is smallest at
            # g's parent: a cell has m2 = s - m1 = 0 or m4 = s - f_pg = 0
            # (corrected fp) there
            mass = stats.node_total
            assert mass.max() < 2 ** 53     # every count is exact
            g = np.flatnonzero(h.level > 0)
            s_g = mass[stats.hierarchy.parent[h.parent[g]]]
            seen["no_mass"] += (mass[g] == 0).any()
            seen["m2_zero"] += ((mass[g] > 0) & (mass[g] == s_g)).any()
            for pg in np.unique(h.parent[g]):
                f = stats.freq.dense_row(int(pg))
                s_p = mass[stats.hierarchy.parent[pg]]
                seen["m4_zero"] += ((f > 0) & (f == s_p)).any()
            # the path _hier_rcl takes for each g with mass, by the rule it
            # reads (_class_width): per term near the root, by class deeper,
            # per term again where the packed class key could overflow
            # int64.  The counters show that the instances reach each path;
            # the exact comparison against the oracle below is the check.
            for gi in g[mass[g] > 0].tolist():
                if lab._class_width(stats, gi):
                    seen["classes"] += 1
                elif h.level[gi] < lab._CLASS_MIN_ROWS:
                    seen["per_term"] += 1
                else:
                    seen["key_overflow"] += 1
            # _hier_rcl keeps one accumulator row per level of the root
            # path: an internal node entered where the pre-order left a
            # subtree two levels deep or more on terms disjoint from its own
            # reuses rows that a stale cell would show in
            on_path = {}
            for gi in h.preorder.tolist():
                prev = on_path.get(int(h.level[gi]))
                seen["disjoint_reuse"] += bool(
                    prev is not None and stats.child_count[gi]
                    and stats.child_count[h.children[prev]].any()
                    and not np.intersect1d(stats.freq.row(prev)[0],
                                           stats.freq.row(gi)[0]).size)
                on_path[int(h.level[gi])] = gi
            # p_cap 1 as well: cells left out of a label stay in the row
            for p_cap, method in itertools.product(
                    (1, n_terms), lab.HIER_RCL_SCHEMES):
                cut = lab.LabelConfig(p_cap=p_cap, rcl_fp=rcl_fp)
                got = oracles.label_lists(
                    lab.label_hierarchy(stats, method, cut))
                want = oracles.label_lists(
                    oracles.hier_rcl(stats, method, cut))
                assert got == want, (trial, method, p_cap)
            cfg = lab.LabelConfig(p_cap=n_terms, rcl_fp=rcl_fp)
            for method in lab.RCL_SCHEMES:
                got = oracles.label_lists(
                    lab.label_hierarchy(stats, method, cfg))
                want = oracles.label_lists(oracles.rcl(stats, method, cfg))
                assert got == want, (trial, method)
            for i in np.flatnonzero(stats.child_count > 0):
                got = lab._children_max_2x2_vec(stats, int(i))
                want = oracles.children_max_2x2(stats, int(i))
                assert np.array_equal(got, want), (trial, i)
        assert all(seen.values()), seen


class TestLabelingPeak:
    """HierRCL keeps one accumulator row per level of the root path and
    RLUM a node's candidate row only until its parent has pruned it, so on
    a deep binary tree neither holds a row per node."""

    @pytest.mark.parametrize("method", ["HierRCL_chi2", "HierRCL_jsd",
                                        "RLUM"])
    def test_peak_below_an_internal_by_terms_array(self, tmp_path, method):
        m, h = balanced_instance(tmp_path, depth=8, docs_per_leaf=1,
                                 n_terms=4000, terms_per_doc=10)
        stats = corp.build_node_stats(m, h)
        cfg = lab.LabelConfig()
        if method == "RLUM":
            # the independence verdicts, which the statistics keep, are
            # filled by a first call; the bound is on one bool per cell
            lab.label_hierarchy(stats, method, cfg)
            bound = h.n_nodes * m.n_terms / 4
        else:
            bound = int((stats.child_count > 0).sum()) * m.n_terms * 8 / 4
        tracemalloc.start()
        try:
            lab.label_hierarchy(stats, method, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


class TestFrequencyMethodsAgainstOracle:

    def test_property_against_oracle(self, tmp_path):
        # the eight MTWL/ICWL methods on random trees with unary nodes: a
        # flat method scores score_flat at the node; a Hier method scores
        # hier_weight over freq at the node, times the idf and icf factors
        # its name selects.  The oracle sums and multiplies in other orders
        # than the library, so terms that tie exactly can differ in the
        # last bits there: every term's score must match the oracle's to
        # rel 1e-12 (0 where it is 0), and the term order must be exactly
        # that of those scores by (score desc, node frequency desc, term id
        # asc), which catches a wrong tie-break row.  A smaller p_cap keeps
        # a prefix of the same order.
        rng = np.random.default_rng(71)
        unary = 0
        for trial in range(12):
            n_docs = int(rng.integers(4, 40))
            n_terms = int(rng.integers(3, 25))
            m = random_matrix(rng, n_docs, n_terms)
            records = random_tree_records(rng, n_docs,
                                          int(rng.integers(4, 24)))
            unary += sum(len(r["children"]) == 1 for r in records)
            h = hierarchy_from_records(records, m, tmp_path, f"f{trial}.json")
            stats = corp.build_node_stats(m, h)
            all_terms = np.arange(n_terms)

            def oracle(method, i, t):
                if method in lab.FLAT_SCHEMES:
                    return oracles.score_flat(method, stats, i, t)
                v = oracles.hier_weight(
                    stats, i, t, lambda g: oracles.score_mtwl_raw(stats, g, t))
                if "_idf" in method:
                    v *= (oracles.score_idf_global(stats, t)
                          * oracles.score_idf_local(stats, i, t))
                if "ICWL" in method:
                    v *= oracles.score_icf(stats, i, t)
                return v

            for method in lab.FLAT_SCHEMES + lab.HIER_FREQ_SCHEMES:
                full = lab.label_hierarchy(stats, method,
                                           lab.LabelConfig(p_cap=n_terms))
                short = lab.label_hierarchy(stats, method,
                                            lab.LabelConfig(p_cap=3))
                for i in range(h.n_nodes):
                    want = np.array([oracle(method, i, t)
                                     for t in all_terms])
                    got = np.zeros(n_terms)
                    for t, score in oracles.label_list(full, i):
                        got[t] = score
                    where = (trial, method, i)
                    assert got == pytest.approx(want, rel=1e-12, abs=0), where
                    order = oracles.topk(all_terms, got,
                                         stats.freq.dense_row(i), n_terms)
                    assert oracles.label_list(full, i) == order, where
                    assert oracles.label_list(short, i) == order[:3], where
        assert unary


class TestPopesculUngar:

    def test_uniform_term_goes_to_parent(self, tmp_path):
        # term 0 uniform across children with f >= 5 everywhere
        cells = []
        for d in range(4):
            cells.append((d, 0, 6))
            cells.append((d, 1, 1 + d))
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0, 1]},
            {"id": 2, "parent": 0, "children": [], "docs": [2, 3]},
        ]
        m, h, stats = build(tmp_path, cells, records, 4, 2)
        a = lab.select_popescul_ungar(stats, lab.LabelConfig())
        root_terms = oracles.label_terms(a, h.root)
        assert 0 in root_terms
        for i in (oracles.index_of(h, 1), oracles.index_of(h, 2)):
            assert 0 not in oracles.label_terms(a, i)

    def test_low_frequency_no_decision(self, table2):
        # research appears 3/4/3: below the f >= 5 rule, so no root label
        _, h, stats = table2
        a = lab.select_popescul_ungar(stats, lab.LabelConfig())
        assert 0 not in oracles.label_terms(a, h.root)
        # the term stays available to the leaves
        assert any(0 in oracles.label_terms(a, oracles.index_of(h, i))
                   for i in (1, 2, 3))

    def test_path_uniqueness_random(self, tmp_path):
        rng = np.random.default_rng(61)
        for trial in range(10):
            m, h = random_instance(rng, tmp_path, name=f"pu{trial}.json")
            stats = corp.build_node_stats(m, h)
            a = lab.select_popescul_ungar(stats, lab.LabelConfig())
            for i in range(h.n_nodes):
                if h.children[i].size:
                    continue
                path = [i] + oracles.ancestors(h, i)
                seen = set()
                for node in path:
                    terms = set(oracles.label_terms(a, node))
                    assert not (terms & seen)
                    seen |= terms


class TestSharedIndependenceTest:

    @pytest.mark.parametrize("shape", ["full_table", "per_child_2x2"])
    def test_one_test_per_node_and_labels_unchanged(self, tmp_path,
                                                    monkeypatch, shape):
        """PopesculUngar and RLUM share each internal node's children
        test: run together, they test each node with two or more children
        once, and each method's labels equal those it gives on fresh
        statistics, bit for bit."""
        def bits(assignment):
            return {i: [(t, s.hex()) for t, s in per]
                    for i, per in oracles.label_lists(assignment).items()}

        calls = []
        for name in ("_children_chi2_vec", "_children_max_2x2_vec"):
            real = getattr(lab, name)
            monkeypatch.setattr(lab, name, lambda stats, node, real=real:
                                calls.append(node) or real(stats, node))
        rng = np.random.default_rng(62)
        methods = ("PopesculUngar", "RLUM")
        for trial in range(6):
            m, h = random_instance(rng, tmp_path, name=f"it{trial}.json")
            cfg = lab.LabelConfig(chi2_shape=shape)
            calls.clear()
            shared = lab.label_all(corp.build_node_stats(m, h), methods, cfg)
            tested = [i for i in range(h.n_nodes)
                      if len(h.children[i]) > 1]
            assert sorted(calls) == tested, trial
            for method in methods:
                alone = lab.label_hierarchy(corp.build_node_stats(m, h),
                                            method, cfg)
                assert bits(alone) == bits(shared[method]), (trial, method)


class TestRlum:

    def test_promote_and_delete(self, tmp_path):
        # term 0 in all children, one child frequency over the threshold,
        # distribution proportional to the child masses
        cells = [(0, 0, 6), (0, 1, 6), (1, 0, 6), (1, 1, 6)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        m, h, stats = build(tmp_path, cells, records, 2, 2)
        a = lab.select_rlum(stats, lab.LabelConfig())
        assert set(oracles.label_terms(a, h.root)) == {0, 1}
        assert oracles.label_terms(a, oracles.index_of(h, 1)) == []
        assert oracles.label_terms(a, oracles.index_of(h, 2)) == []

    def test_zero_in_one_child_stays(self, tmp_path):
        cells = [(0, 0, 9), (0, 1, 1), (1, 1, 9)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        m, h, stats = build(tmp_path, cells, records, 2, 2)
        a = lab.select_rlum(stats, lab.LabelConfig())
        assert 0 not in oracles.label_terms(a, h.root)
        assert 0 in oracles.label_terms(a, oracles.index_of(h, 1))

    def test_edge_disjoint_random(self, tmp_path):
        rng = np.random.default_rng(62)
        for trial in range(10):
            m, h = random_instance(rng, tmp_path, name=f"rl{trial}.json")
            stats = corp.build_node_stats(m, h)
            a = lab.select_rlum(stats, lab.LabelConfig())
            for i in range(h.n_nodes):
                mine = set(oracles.label_terms(a, i))
                for ch in h.children[i]:
                    assert not (mine & set(oracles.label_terms(a, int(ch))))
                # no zero-frequency term may be labeled
                row = stats.freq.dense_row(i)
                assert all(row[t] > 0 for t in mine)


class TestCfMethods:

    def test_cf_leaf_pure_case(self, tmp_path):
        # leaf holds the only occurrences of term 0 and nothing else
        cells = [(0, 0, 4), (1, 1, 2)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        m, h, stats = build(tmp_path, cells, records, 2, 2)
        assert oracles.cf_measure_leaf(stats, oracles.index_of(h, 1), 0) == 1.0

    def test_cf_leaf_zero(self, table2):
        _, h, stats = table2
        assert oracles.cf_measure_leaf(stats, oracles.index_of(h, 1), 2) == 0.0

    def test_cf_harmonic_value(self):
        # recall 0.5, precision 0.2 -> 2 * 0.1 / 0.7
        r, p = 0.5, 0.2
        assert 2 * r * p / (r + p) == pytest.approx(0.2857143, abs=1e-7)

    def test_cf_average_two_children(self, table2):
        _, h, stats = table2
        a = lab.select_cf_average(stats, lab.LabelConfig())
        root_scores = dict(oracles.label_list(a, h.root))
        expect = np.mean([
            oracles.cf_measure_leaf(stats, oracles.index_of(h, i), 0)
            for i in (1, 2, 3)])
        assert root_scores[0] == pytest.approx(expect, rel=1e-12)

    def test_cf_average_hand_recursion(self, tmp_path):
        rng = np.random.default_rng(63)
        m, h = random_instance(rng, tmp_path, max_docs=20, max_terms=8)
        stats = corp.build_node_stats(m, h)
        a = lab.select_cf_average(stats, lab.LabelConfig(p_cap=100))

        def oracle(i, t):
            if h.children[i].size == 0:
                return oracles.cf_measure_leaf(stats, i, t)
            kids = h.children[i]
            return sum(oracle(int(c), t) for c in kids) / len(kids)

        for i in range(h.n_nodes):
            got = dict(oracles.label_list(a, i))
            for t in range(m.n_terms):
                expect = oracle(i, t)
                if expect > 0:
                    assert got[t] == pytest.approx(expect, rel=1e-9)
                else:
                    assert t not in got

    def test_cf_average_equals_sparse_sums(self, tmp_path):
        """Labels and scores exactly as with scipy's sparse rows: children
        added in declared order, then divided by the child count."""
        rng = np.random.default_rng(62)
        for m, h in shuffled_instances(rng, tmp_path, 30):
            stats = corp.build_node_stats(m, h)
            cfg = lab.LabelConfig(p_cap=int(rng.choice([1, 3, 1000])))
            got = oracles.label_lists(lab.select_cf_average(stats, cfg))
            assert got == oracles.label_lists(oracles.cf_average(stats, cfg))

    def test_cf_loo_leaves_match_leaf_measure(self, table2):
        _, h, stats = table2
        a = lab.select_cf_leave_one_out(stats, lab.LabelConfig())
        for i in (1, 2, 3):
            node = oracles.index_of(h, i)
            for t, score in oracles.label_list(a, node):
                assert score == pytest.approx(
                    oracles.cf_measure_leaf(stats, node, t), rel=1e-12)

    def test_cf_loo_root_guard(self, table2):
        # level below the root holds only the root's own children
        _, h, stats = table2
        a = lab.select_cf_leave_one_out(stats, lab.LabelConfig())
        assert oracles.label_list(a, h.root) == []

    def test_cf_loo_two_subtrees(self, tmp_path):
        # two internal subtrees at level 1; for node A recall is its own
        # mass over the sibling subtree's mass at the children's level
        cells = [(0, 0, 2), (1, 0, 3), (2, 0, 4), (3, 0, 1),
                 (0, 1, 1), (2, 1, 5)]
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [3, 4], "docs": []},
            {"id": 2, "parent": 0, "children": [5, 6], "docs": []},
            {"id": 3, "parent": 1, "children": [], "docs": [0]},
            {"id": 4, "parent": 1, "children": [], "docs": [1]},
            {"id": 5, "parent": 2, "children": [], "docs": [2]},
            {"id": 6, "parent": 2, "children": [], "docs": [3]},
        ]
        m, h, stats = build(tmp_path, cells, records, 4, 2)
        node_a = oracles.index_of(h, 1)
        # term 0: f_A = 5, level-2 total = 10, own children 5 -> recall 1
        got = dict(oracles.label_list(
            lab.select_cf_leave_one_out(stats, lab.LabelConfig()), node_a))
        recall = 5 / (10 - 5)
        precision = 5 / 6
        assert got[0] == pytest.approx(2 * recall * precision / (recall + precision))


class TestMethodInvariants:

    def test_cap_positivity_order_all_methods(self, tmp_path):
        rng = np.random.default_rng(71)
        cfg = lab.LabelConfig(p_cap=5)
        for trial in range(4):
            m, h = random_instance(rng, tmp_path, name=f"mi{trial}.json")
            stats = corp.build_node_stats(m, h)
            for meth in lab.METHODS:
                a = lab.label_hierarchy(stats, meth, cfg)
                for i in range(h.n_nodes):
                    label = oracles.label_list(a, i)
                    assert len(label) <= 5
                    scores = [s for _, s in label]
                    assert all(s > 0 for s in scores)
                    assert scores == sorted(scores, reverse=True)
                    terms = [t for t, _ in label]
                    assert len(set(terms)) == len(terms)

    def test_label_all_threads_accepted_and_ignored(self, tmp_path):
        rng = np.random.default_rng(75)
        m, h = random_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        methods = ("MTWL_raw", "RLUM", "CFAverage")
        one = lab.label_all(stats, methods)
        assert list(one) == list(methods)

    def test_deterministic_reruns(self, tmp_path):
        rng = np.random.default_rng(72)
        m, h = random_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        stats2 = corp.build_node_stats(m, h)
        for meth in lab.METHODS:
            a1 = lab.label_hierarchy(stats, meth)
            a2 = lab.label_hierarchy(stats2, meth)
            assert oracles.label_lists(a1) == oracles.label_lists(a2)

    def test_mtwl_idf_pointwise_identity(self, tmp_path):
        rng = np.random.default_rng(73)
        m, h = random_instance(rng, tmp_path, max_docs=20, max_terms=12)
        stats = corp.build_node_stats(m, h)
        for i in range(h.n_nodes):
            for t in range(m.n_terms):
                raw = oracles.score_flat("MTWL_raw", stats, i, t)
                combo = raw * oracles.score_idf_global(stats, t) \
                    * oracles.score_idf_local(stats, i, t)
                assert oracles.score_flat("MTWL_idf", stats, i, t) == \
                    pytest.approx(combo, rel=1e-12, abs=1e-300)
                icwl_raw = oracles.score_flat("ICWL_raw", stats, i, t)
                combo2 = icwl_raw * oracles.score_idf_global(stats, t) \
                    * oracles.score_idf_local(stats, i, t)
                assert oracles.score_flat("ICWL_idf", stats, i, t) == \
                    pytest.approx(combo2, rel=1e-12, abs=1e-300)

    def test_count_scaling_preserves_order(self, tmp_path):
        rng = np.random.default_rng(74)
        m, h = random_instance(rng, tmp_path)
        scaled = oracles.scale(m, 3)
        s1 = corp.build_node_stats(m, h)
        s2 = corp.build_node_stats(scaled, h)
        for meth in ("MTWL_raw", "ICWL_raw"):
            a1 = lab.label_hierarchy(s1, meth)
            a2 = lab.label_hierarchy(s2, meth)
            for i in range(h.n_nodes):
                assert [t for t, _ in oracles.label_list(a1, i)] == \
                    [t for t, _ in oracles.label_list(a2, i)]

    def test_config_switches(self, tmp_path):
        rng = np.random.default_rng(75)
        m, h = random_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        from hierlabel.errors import ConfigError
        with pytest.raises(ConfigError):
            lab.LabelConfig(chi2_shape="diagonal")
        with pytest.raises(ConfigError):
            lab.LabelConfig(rcl_fp="negative")
        # the alternate readings still satisfy the method invariants
        alt = lab.LabelConfig(chi2_shape="per_child_2x2", rcl_fp="literal")
        for meth in ("PopesculUngar", "RLUM", "RCL_chi2", "HierRCL_jsd"):
            a = lab.label_hierarchy(stats, meth, alt)
            for i in range(h.n_nodes):
                assert len(oracles.label_list(a, i)) <= alt.p_cap
                assert all(s > 0 for _, s in oracles.label_list(a, i))
        # literal FP clamps at zero instead of going negative
        lit = lab.label_hierarchy(stats, "RCL_chi2", alt)
        assert isinstance(lit, lab.LabelAssignment)

    def test_single_node_hierarchy_all_methods(self, tmp_path):
        m = matrix_from_cells(2, 3, [(0, 0, 2), (0, 1, 1), (1, 0, 1)])
        h = hierarchy_from_records(
            [{"id": 0, "parent": None, "children": [], "docs": [0, 1]}],
            m, tmp_path)
        stats = corp.build_node_stats(m, h)
        for meth in lab.METHODS:
            a = lab.label_hierarchy(stats, meth)
            assert isinstance(a, lab.LabelAssignment)
            assert 0 in oracles.label_lists(a)
        # frequency ranking still works on the degenerate root
        assert oracles.label_terms(lab.label_hierarchy(stats, "MTWL_raw"),
                                   0) == [0, 1]
