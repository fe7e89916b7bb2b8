"""Query derivation, boolean retrieval, and per-node metric evaluation."""

import numpy as np
import pytest

from hierlabel import corpus as corp
from hierlabel import labeling as lab
from hierlabel import queryeval as qe
from hierlabel.errors import ValidationError

import oracles
from conftest import (hierarchy_from_records, matrix_from_cells,
                      random_instance, random_matrix, random_tree_records)

AGRI, TECHNO, PROCESS, RESEARCH, INNOV, TECH, UNIV = range(7)


@pytest.fixture
def labeled_tree(tmp_path):
    """The empty-label showcase: root and one whole branch unlabeled, the
    other branch labeled at its top, leaves labeled deeper down.

        n1 (-)
          n2 (-)
            n4 (-)   -> leaves n8 {research}, n9 {innovation}
            n5 (-)   -> leaves n10 {technology}, n11 {university}
          n3 {agriculture}
            n6 (-)   leaf
            n7 (-)   leaf
            n12 {technological, process} leaf
    """
    cells = [(d, AGRI, 1) for d in range(6, 9)]
    cells += [(0, RESEARCH, 2), (1, INNOV, 1), (2, TECH, 1), (3, UNIV, 3)]
    cells += [(6, TECHNO, 1), (6, PROCESS, 1)]
    cells += [(4, RESEARCH, 1), (5, TECH, 1)]
    m = matrix_from_cells(9, 7, cells)
    records = [
        {"id": 1, "parent": None, "children": [2, 3], "docs": []},
        {"id": 2, "parent": 1, "children": [4, 5], "docs": []},
        {"id": 3, "parent": 1, "children": [6, 7, 12], "docs": []},
        {"id": 4, "parent": 2, "children": [8, 9], "docs": []},
        {"id": 5, "parent": 2, "children": [10, 11], "docs": []},
        {"id": 6, "parent": 3, "children": [], "docs": [7]},
        {"id": 7, "parent": 3, "children": [], "docs": [8]},
        {"id": 8, "parent": 4, "children": [], "docs": [0, 4]},
        {"id": 9, "parent": 4, "children": [], "docs": [1]},
        {"id": 10, "parent": 5, "children": [], "docs": [2, 5]},
        {"id": 11, "parent": 5, "children": [], "docs": [3]},
        {"id": 12, "parent": 3, "children": [], "docs": [6]},
    ]
    h = hierarchy_from_records(records, m, tmp_path)
    label_terms = {3: [AGRI], 8: [RESEARCH], 9: [INNOV], 10: [TECH],
                   11: [UNIV], 12: [TECHNO, PROCESS]}
    lists = {}
    for i in range(h.n_nodes):
        nid = int(h.ids[i])
        lists[i] = [(t, 1.0) for t in label_terms.get(nid, [])]
    a = oracles.assignment("fixture", lists, h.n_nodes)
    return m, h, a


class TestSpecificQueries:

    def test_two_term_label_is_or(self, labeled_tree):
        m, h, a = labeled_tree
        q = qe.derive_specific_queries(h, a)
        assert q[oracles.index_of(h, 12)] == (TECHNO, PROCESS)
        assert oracles.specific_query(q[oracles.index_of(h, 12)]) == \
            oracles.Or((oracles.Term(TECHNO), oracles.Term(PROCESS)))

    def test_empty_node_inherits_labeled_ancestor(self, labeled_tree):
        m, h, a = labeled_tree
        q = qe.derive_specific_queries(h, a)
        assert q[oracles.index_of(h, 6)] == (AGRI,)
        assert q[oracles.index_of(h, 7)] == (AGRI,)

    def test_empty_node_with_empty_ancestors_ors_children(self, labeled_tree):
        m, h, a = labeled_tree
        q = qe.derive_specific_queries(h, a)
        assert q[oracles.index_of(h, 4)] == (RESEARCH, INNOV)
        assert q[oracles.index_of(h, 5)] == (TECH, UNIV)
        # and the chain keeps flattening upward
        assert q[oracles.index_of(h, 2)] == (RESEARCH, INNOV, TECH, UNIV)

    def test_unlabeled_leaf_with_empty_ancestors_is_unretrievable(self, tmp_path):
        m = matrix_from_cells(2, 1, [(0, 0, 1), (1, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        h = hierarchy_from_records(records, m, tmp_path)
        a = oracles.assignment("fixture", {0: [], 1: [], 2: [(0, 1.0)]},
                               h.n_nodes)
        q = qe.derive_specific_queries(h, a)
        assert q[1] is None
        assert q[0] == (0,)           # case (ii) via the one labeled child


def _comb_records(n_spine):
    """Spine 0..n_spine-1; each spine node has a leaf child and the next
    spine node, the last one two leaves."""
    records = [{"id": s, "parent": s - 1 if s else None, "children": []}
               for s in range(n_spine)]
    for s in range(n_spine):
        if s + 1 < n_spine:
            records[s]["children"].append(s + 1)
        for _ in range(1 if s + 1 < n_spine else 2):
            leaf = len(records)
            records.append({"id": leaf, "parent": s, "children": []})
            records[s]["children"].append(leaf)
    return records


def _wide_records(fanout):
    records = [{"id": 0, "parent": None, "children": []}]
    for _ in range(fanout):
        mid = len(records)
        records.append({"id": mid, "parent": 0, "children": []})
        records[0]["children"].append(mid)
        for _ in range(fanout):
            leaf = len(records)
            records.append({"id": leaf, "parent": mid, "children": []})
            records[mid]["children"].append(leaf)
    return records


def _with_docs(rng, records, n_docs=None):
    """Partition ``n_docs`` documents, by default a random number, over
    the leaves."""
    leaves = [r for r in records if not r["children"]]
    if n_docs is None:
        n_docs = len(leaves) + int(rng.integers(0, 2 * len(leaves)))
    cuts = np.sort(rng.choice(np.arange(1, n_docs), len(leaves) - 1,
                              replace=False))
    for r in records:
        r["docs"] = []
    for leaf, docs in zip(leaves, np.split(rng.permutation(n_docs), cuts)):
        leaf["docs"] = [int(d) for d in docs]


def _random_labels(rng, n_nodes, n_terms, empty=()):
    """Many empty labels, and every node of ``empty``; a small vocabulary
    so that siblings and ancestors repeat terms; now and then a term
    repeated in one label."""
    lists = {}
    for i in range(n_nodes):
        if rng.random() < 0.45 or i in empty:
            lists[i] = []
            continue
        terms = [int(t) for t in rng.integers(0, n_terms,
                                              int(rng.integers(1, 5)))]
        lists[i] = [(t, 1.0) for t in terms]
    return oracles.assignment("random", lists, n_nodes)


def _query_rows(m, h, spec):
    """The packed retrieved rows of one method's queries, (nodes, KINDS,
    words), each distinct tuple evaluated once, as ``evaluate_all`` does."""
    tuples = list(dict.fromkeys(t for t in spec.values() if t is not None))
    key = np.array([-1 if t is None else tuples.index(t)
                    for t in spec.values()], np.int64)
    return qe._query_rows(h, qe._or_rows(m, tuples), key)


class TestTupleQueriesAgainstOracle:
    """The term-tuple derivation, its memoised rendering and its packed
    retrieved rows against the structural oracle, ``query_to_prefix`` and
    ``retrieve``."""

    def _trees(self, rng):
        """(name, records with docs) for comb, wide and random trees, and
        a comb and a wide tree over a whole number of 64-bit words."""
        for n_docs in (64, 128):
            comb = _comb_records(int(rng.integers(2, 14)))
            _with_docs(rng, comb, n_docs)
            yield f"comb{n_docs}docs", comb
            wide = _wide_records(int(rng.integers(1, 5)))
            _with_docs(rng, wide, n_docs)
            yield f"wide{n_docs}docs", wide
        for trial in range(6):
            comb = _comb_records(int(rng.integers(2, 14)))
            _with_docs(rng, comb)
            yield f"comb{trial}", comb
            wide = _wide_records(int(rng.integers(1, 5)))
            _with_docs(rng, wide)
            yield f"wide{trial}", wide
            n = int(rng.integers(6, 40))
            yield f"random{trial}", random_tree_records(rng, n, max_nodes=15)

    def test_property_against_oracle(self, tmp_path):
        rng = np.random.default_rng(90)
        for k, (name, records) in enumerate(self._trees(rng)):
            n_docs = sum(len(r["docs"]) for r in records)
            n_terms = int(rng.integers(3, 9))
            m = random_matrix(rng, n_docs, n_terms)
            h = hierarchy_from_records(records, m, tmp_path, f"{name}.json")
            # one node's whole root path unlabeled; on every fourth tree,
            # every node, so that the root has no query either
            node = int(rng.integers(h.n_nodes))
            path = (range(h.n_nodes) if k % 4 == 3
                    else {node, *oracles.ancestors(h, node)})
            a = _random_labels(rng, h.n_nodes, n_terms, path)

            spec = qe.derive_specific_queries(h, a)
            gen = qe.derive_generic_queries(h, spec)
            want_spec = oracles.specific_queries(h, a)
            want_gen = oracles.generic_queries(h, want_spec)
            assert {i: oracles.specific_query(q)
                    for i, q in spec.items()} == want_spec, name
            assert {i: oracles.generic_query(q)
                    for i, q in gen.items()} == want_gen, name

            spec_texts, gen_texts = map(list, qe.prefix_strings(spec, gen))
            rows = _query_rows(m, h, spec)
            for i in range(h.n_nodes):
                assert spec_texts[i] == oracles.query_to_prefix(want_spec[i])
                assert gen_texts[i] == oracles.query_to_prefix(want_gen[i])
                assert oracles.row_docs(rows[i, 0]) == \
                    oracles.retrieve(m, want_spec[i]), (name, i)
                assert oracles.row_docs(rows[i, 1]) == \
                    oracles.retrieve(m, want_gen[i]), (name, i)

    def test_equal_tuples_share_one_query(self, labeled_tree):
        m, h, a = labeled_tree
        spec = qe.derive_specific_queries(h, a)
        n3, n6, n7 = (oracles.index_of(h, x) for x in (3, 6, 7))
        assert spec[n3] is spec[n6] is spec[n7]

    def test_renderer_keeps_distinct_temporaries_apart(self):
        spec = {t: (t,) for t in range(50)}
        gen = {t: (terms,) for t, terms in spec.items()}
        want = [f"t{t}" for t in range(50)]
        assert list(map(list, qe.prefix_strings(spec, gen))) == [want, want]


class TestGenericQueries:

    def test_root_generic_equals_specific(self, labeled_tree):
        m, h, a = labeled_tree
        spec = qe.derive_specific_queries(h, a)
        gen = qe.derive_generic_queries(h, spec)
        assert oracles.generic_query(gen[h.root]) == \
            oracles.specific_query(spec[h.root])

    def test_and_of_ancestor_conjuncts(self, labeled_tree):
        m, h, a = labeled_tree
        spec = qe.derive_specific_queries(h, a)
        gen = qe.derive_generic_queries(h, spec)
        n12 = oracles.index_of(h, 12)
        expect = oracles.And((oracles.specific_query(spec[h.root]),
                              oracles.Term(AGRI),
                              oracles.Or((oracles.Term(TECHNO),
                                          oracles.Term(PROCESS)))))
        assert oracles.generic_query(gen[n12]) == expect

    def test_inherited_copy_not_duplicated(self, labeled_tree):
        m, h, a = labeled_tree
        spec = qe.derive_specific_queries(h, a)
        gen = qe.derive_generic_queries(h, spec)
        # n6 inherited agriculture; its generic must not AND it twice
        n6, n3 = oracles.index_of(h, 6), oracles.index_of(h, 3)
        assert gen[n6] == gen[n3]

    def test_generic_nesting_random(self, tmp_path):
        rng = np.random.default_rng(81)
        for trial in range(8):
            m, h = random_instance(rng, tmp_path, name=f"gn{trial}.json")
            stats = corp.build_node_stats(m, h)
            a = lab.label_hierarchy(stats, "MTWL_idf")
            spec = qe.derive_specific_queries(h, a)
            gen = qe.derive_generic_queries(h, spec)
            for i in range(h.n_nodes):
                if i == h.root:
                    continue
                child_set = oracles.retrieve(m, oracles.generic_query(gen[i]))
                parent_set = oracles.retrieve(
                    m, oracles.generic_query(gen[int(h.parent[i])]))
                assert child_set <= parent_set


class TestRetrieve:

    def test_term_presence(self, tmp_path):
        m = matrix_from_cells(6, 2, [(1, 0, 2), (4, 0, 1), (5, 1, 1)])
        assert oracles.retrieve(m, oracles.Term(0)) == {1, 4}

    def brute(self, m, query, d):
        row = oracles.dense_row(m.csr, d)
        if isinstance(query, oracles.Term):
            return row[query.term] > 0
        if isinstance(query, oracles.Or):
            return any(self.brute(m, c, d) for c in query.children)
        return all(self.brute(m, c, d) for c in query.children)

    def _random_query(self, rng, n_terms, depth=0):
        kind = rng.integers(0, 3 if depth < 3 else 1)
        if kind == 0:
            return oracles.Term(int(rng.integers(n_terms)))
        arity = int(rng.integers(1, 4))
        parts = tuple(self._random_query(rng, n_terms, depth + 1)
                      for _ in range(arity))
        return oracles.Or(parts) if kind == 1 else oracles.And(parts)

    def test_random_queries_match_document_scan(self, tmp_path):
        rng = np.random.default_rng(82)
        from conftest import random_matrix
        m = random_matrix(rng, 30, 12)
        for _ in range(300):
            q = self._random_query(rng, m.n_terms)
            got = oracles.retrieve(m, q)
            expect = {d for d in range(m.n_docs) if self.brute(m, q, d)}
            assert got == expect

    def test_or_of_terms_equals_set_union(self):
        rng = np.random.default_rng(93)
        m = random_matrix(rng, 40, 50)
        docs_of = [{d for d in range(m.n_docs)
                    if oracles.csr_get(m.csr, d, t) > 0}
                   for t in range(m.n_terms)]
        queries = [tuple(int(t) for t in rng.integers(
            0, m.n_terms, int(rng.integers(1, 12)))) for _ in range(200)]
        rows = qe._or_rows(m, queries)
        assert len(rows) == len(queries) + 1
        for terms, row in zip(queries, rows):
            assert oracles.row_docs(row) == \
                set().union(*(docs_of[t] for t in terms))
        assert oracles.row_docs(rows[-1]) == set()
        for bad in (-1, m.n_terms):
            with pytest.raises(ValidationError,
                               match=f"query term {bad} out of range"):
                qe._or_rows(m, [(0,), (0, bad)])
        # the first bad term in the order the tuples are met
        with pytest.raises(ValidationError,
                           match=f"query term {m.n_terms + 5} out of range"):
            qe._or_rows(m, [(1, m.n_terms + 5, -3), (-1,)])

    def test_long_queries_span_blocks_of_term_rows(self):
        """Over 2^17 documents a term's row is 2,048 words, so a block of
        2^16 words holds 32 term rows, and a longer query ORs rows from
        several blocks."""
        rng = np.random.default_rng(95)
        n_docs, n_terms = 1 << 17, 120
        docs = rng.integers(0, n_docs, (n_terms, 4))
        docs[:, 0] = [0, 63, 64, n_docs - 1] * (n_terms // 4)
        cells = sorted({(int(d), t) for t in range(n_terms)
                        for d in docs[t]})
        m = corp.DocTermMatrix.from_cells(
            n_docs, n_terms, *zip(*cells), [1] * len(cells))
        queries = [tuple(rng.choice(n_terms, k, replace=False).tolist())
                   for k in (1, 31, 32, 33, 70, n_terms, 2)]
        for terms, row in zip(queries, qe._or_rows(m, queries)):
            assert oracles.row_docs(row) == \
                {d for t in terms for d in docs[t].tolist()}

    def test_and_or_containment(self, tmp_path):
        rng = np.random.default_rng(83)
        from conftest import random_matrix
        m = random_matrix(rng, 25, 10)
        for _ in range(100):
            q1 = self._random_query(rng, m.n_terms)
            q2 = self._random_query(rng, m.n_terms)
            both_and = oracles.retrieve(m, oracles.And((q1, q2)))
            both_or = oracles.retrieve(m, oracles.Or((q1, q2)))
            r1, r2 = oracles.retrieve(m, q1), oracles.retrieve(m, q2)
            assert both_and <= r1 and both_and <= r2
            assert both_or >= r1 and both_or >= r2

    def test_empty_operator_rejected(self):
        with pytest.raises(ValidationError):
            oracles.Or(())
        with pytest.raises(ValidationError):
            oracles.And(())

    def test_prefix_notation(self):
        q = oracles.And((oracles.Or((oracles.Term(12), oracles.Term(77))),
                         oracles.Or((oracles.Term(3),))))
        assert oracles.query_to_prefix(q) == "(AND (OR t12 t77) (OR t3))"
        assert [qe.query_to_prefix(t) for t in (None, (3,), (12, 77))] == \
            ["()", "t3", "(OR t12 t77)"]


class TestEvaluateNode:

    def test_perfect_retrieval(self, labeled_tree):
        m, h, a = labeled_tree
        node = oracles.index_of(h, 8)
        got = oracles.evaluate_node(h, node, set(h.docsets[node].tolist()))
        assert (got.precision, got.recall, got.f) == (1.0, 1.0, 1.0)

    def test_formula_arithmetic(self, tmp_path):
        m = matrix_from_cells(10, 1, [(d, 0, 1) for d in range(10)])
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0, 1, 2, 3, 4, 5]},
            {"id": 2, "parent": 0, "children": [], "docs": [6, 7, 8, 9]},
        ]
        h = hierarchy_from_records(records, m, tmp_path)
        got = oracles.evaluate_node(h, 1, {0, 1, 2, 8, 9})
        assert got.tp == 3 and got.fp == 2 and got.fn == 3 and got.tn == 2
        assert got.precision == pytest.approx(0.6)
        assert got.recall == pytest.approx(0.5)
        assert got.f == pytest.approx(2 * 0.6 * 0.5 / 1.1)
        assert got.f == pytest.approx(0.545455, abs=1e-6)

    def test_zero_rule(self, labeled_tree):
        m, h, a = labeled_tree
        node = oracles.index_of(h, 8)
        got = oracles.evaluate_node(h, node, set())
        assert (got.precision, got.recall, got.f) == (0.0, 0.0, 0.0)
        disjoint = oracles.evaluate_node(h, node, {8})
        assert disjoint.recall == 0.0 and disjoint.f == 0.0

    def test_contingency_identity(self, labeled_tree):
        m, h, a = labeled_tree
        rng = np.random.default_rng(84)
        for node in range(h.n_nodes):
            retrieved = set(int(d) for d in
                            rng.choice(9, size=rng.integers(0, 9), replace=False))
            got = oracles.evaluate_node(h, node, retrieved)
            assert got.tp + got.fp + got.fn + got.tn == m.n_docs
            assert got.tp + got.fp == len(retrieved)
            assert got.tp + got.fn == len(h.docsets[node])


class TestEvaluateAll:

    def test_row_cardinality(self, tmp_path):
        m = matrix_from_cells(3, 2, [(0, 0, 1), (1, 0, 1), (2, 1, 1)])
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0, 1]},
            {"id": 2, "parent": 0, "children": [], "docs": [2]},
        ]
        h = hierarchy_from_records(records, m, tmp_path)
        stats = corp.build_node_stats(m, h)
        assignments = {meth: lab.label_hierarchy(stats, meth)
                       for meth in ("MTWL_raw", "RLUM")}
        table, _ = qe.evaluate_all(m, h, assignments)
        rows = oracles.observation_rows(table)
        # 3 nodes x 2 methods x 2 kinds, each row carrying 3 measures
        assert len(rows) == 12
        assert len(rows) * 3 == 36

    def test_disjoint_vocabulary_perfect_f(self, tmp_path):
        from conftest import disjoint_vocab_instance
        rng = np.random.default_rng(89)
        m, h, owned = disjoint_vocab_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        a = lab.label_hierarchy(stats, "MTWL_raw", lab.LabelConfig(p_cap=2))
        for i in range(h.n_nodes):
            assert sorted(oracles.label_terms(a, i)) == owned[i]
        table, _ = qe.evaluate_all(m, h, {"MTWL_raw": a})
        for row in oracles.observation_rows(
                table.take(table.kind == qe.KINDS.index("specific"))):
            assert row.precision == 1.0 and row.recall == 1.0 and row.f == 1.0

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(85)
        m, h = random_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        assignments = {meth: lab.label_hierarchy(stats, meth)
                       for meth in ("MTWL_raw", "RCL_jsd")}
        t1, _ = qe.evaluate_all(m, h, assignments)
        t2, _ = qe.evaluate_all(m, h, assignments)
        assert oracles.observation_rows(t1) == oracles.observation_rows(t2)

    def test_zero_rule_over_all_rows(self, tmp_path):
        rng = np.random.default_rng(87)
        m, h = random_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        assignments = lab.label_all(stats)
        table, _ = qe.evaluate_all(m, h, assignments)
        for row in oracles.observation_rows(table):
            if row.precision == 0.0 or row.recall == 0.0:
                assert row.f == 0.0

    def test_metrics_equal_the_scalar_oracle(self, tmp_path):
        """Every row's precision, recall and F equal ``evaluate_node``'s on
        the documents its query retrieves, bit for bit, in method, node and
        kind order."""
        rng = np.random.default_rng(86)
        for trial in range(4):
            m, h = random_instance(rng, tmp_path, name=f"r{trial}.json")
            assignments = lab.label_all(corp.build_node_stats(m, h))
            table, queries = qe.evaluate_all(m, h, assignments)
            rows = iter(oracles.observation_rows(table))
            for method in assignments:
                for i in range(h.n_nodes):
                    for kind in qe.KINDS:
                        row = next(rows)
                        assert (row.method, row.node_id, row.level,
                                row.kind) == (method, int(h.ids[i]),
                                              int(h.level[i]), kind)
                        query = queries[method][kind][i]
                        want = oracles.evaluate_node(h, i, oracles.retrieve(
                            m, oracles.specific_query(query)
                            if kind == "specific"
                            else oracles.generic_query(query)))
                        assert [v.hex() for v in (row.precision, row.recall,
                                                  row.f)] == \
                            [v.hex() for v in (want.precision, want.recall,
                                               want.f)]
            assert next(rows, None) is None

    def test_each_distinct_tuple_evaluated_once(self, labeled_tree,
                                                monkeypatch):
        """Two methods that share term tuples: the run evaluates each
        distinct tuple once, in one call, and each method's rows equal
        those it gets alone."""
        m, h, a = labeled_tree
        lists = oracles.label_lists(a)
        lists[oracles.index_of(h, 12)] = [(AGRI, 1.0)]
        lists[oracles.index_of(h, 11)] = [(UNIV, 1.0), (TECH, 1.0)]
        b = oracles.assignment("other", lists, h.n_nodes)
        calls = []
        real = qe._or_rows
        monkeypatch.setattr(qe, "_or_rows", lambda matrix, queries:
                            calls.append(list(queries))
                            or real(matrix, queries))
        table, queries = qe.evaluate_all(m, h, {"one": a, "two": b})
        [evaluated] = calls
        per_method = [set(q["specific"].values()) - {None}
                      for q in queries.values()]
        assert per_method[0] & per_method[1]
        assert len(evaluated) == len(set(evaluated))
        assert set(evaluated) == per_method[0] | per_method[1]
        alone = [qe.evaluate_all(m, h, {name: x})[0]
                 for name, x in (("one", a), ("two", b))]
        for measure in qe.MEASURES:
            assert np.array_equal(
                getattr(table, measure),
                np.concatenate([getattr(t, measure) for t in alone]))

    def test_generic_masks_match_retrieve(self, tmp_path):
        # the incremental generic evaluation equals direct query retrieval
        rng = np.random.default_rng(88)
        m, h = random_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        a = lab.label_hierarchy(stats, "RCL_chi2")
        table, queries = qe.evaluate_all(m, h, {"RCL_chi2": a})
        gen = queries["RCL_chi2"]["generic"]
        by_key = {(r.node_id, r.kind): r
                  for r in oracles.observation_rows(table)}
        for i in range(h.n_nodes):
            got = by_key[(int(h.ids[i]), "generic")]
            expect = oracles.evaluate_node(
                h, i, oracles.retrieve(m, oracles.generic_query(gen[i])))
            assert got.precision == pytest.approx(expect.precision)
            assert got.recall == pytest.approx(expect.recall)
            assert got.f == pytest.approx(expect.f)
