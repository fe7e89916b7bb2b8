"""Matrix/hierarchy ingestion, the Salton df filter, and node statistics."""

import tracemalloc

import numpy as np
import pytest

from hierlabel import corpus as corp
from hierlabel.errors import ParseError, ValidationError

import oracles
from conftest import (balanced_instance, hierarchy_from_records,
                      matrix_from_cells, random_instance, random_matrix,
                      random_tree_records, shuffled_instances)


class TestLoadMatrix:

    def test_echo_of_input(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3 4\n0 1 2\n2 3 1\n")
        m = corp.load_matrix(p)
        assert (m.n_docs, m.n_terms) == (3, 4)
        assert m.csr.nnz == 2
        assert oracles.csr_get(m.csr, 0, 1) == 2
        assert oracles.csr_get(m.csr, 2, 3) == 1

    def test_empty_cell_section(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3 4\n")
        m = corp.load_matrix(p)
        assert m.csr.nnz == 0

    def test_doc_id_out_of_range(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3 4\n5 0 1\n")
        with pytest.raises(ValidationError, match="doc-id out of range"):
            corp.load_matrix(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3 4\n0 1 2\n0 1\n")
        with pytest.raises(ParseError, match=r":3:"):
            corp.load_matrix(p)

    def test_duplicate_cell(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3 4\n0 1 2\n0 1 3\n")
        with pytest.raises(ValidationError, match="duplicate"):
            corp.load_matrix(p)

    def test_nonpositive_count(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3 4\n0 1 0\n")
        with pytest.raises(ValidationError, match="count"):
            corp.load_matrix(p)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])   # bulk parse, line loop
    def test_mass_below_2_53_only(self, tmp_path, eol):
        # float64 holds the node sums exactly only below 2^53
        p = tmp_path / "m.txt"
        for total, ok in ((corp.MASS_END - 1, True), (corp.MASS_END, False)):
            p.write_text(eol.join(["2 2", "0 0 5", f"1 1 {total - 5}", ""]))
            if ok:
                assert int(corp.load_matrix(p).csr.data.sum()) == total
            else:
                with pytest.raises(ValidationError, match="2\\^53") as e:
                    corp.load_matrix(p)
                assert str(p) in str(e.value)

    def test_mass_check_does_not_wrap(self):
        # 2^12 counts of 2^52 sum to 2^64, which an int64 sum wraps to 0
        wraps = np.full(1 << 12, 1 << 52, np.int64)
        assert wraps.sum() == 0
        assert corp._mass_reaches(wraps, corp.MASS_END)
        assert corp._mass_reaches(np.array([1 << 62, 1 << 62]), corp.MASS_END)
        assert not corp._mass_reaches(np.array([corp.MASS_END - 2, 1]),
                                      corp.MASS_END)
        assert not corp._mass_reaches(np.array([], np.int64), corp.MASS_END)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        m = matrix_from_cells(5, 6, [(0, 1, 2), (4, 5, 1), (2, 0, 9)])
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        corp.save_matrix(m, p1)
        corp.save_matrix(corp.load_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestBulkMatrixAgainstLoop:
    """The bulk triplet parse must read exactly what the line loop reads:
    the same arrays, or the same error message."""

    # fields: plain, signed, padded, digit-grouped, non-ASCII digits, a
    # non-ASCII letter numpy's integer parser reads as a digit ("1\u01fe"),
    # the 64-bit boundaries and values just beyond them, non-integers
    ODD_FIELDS = ("+1", "-0", "007", "1_000", "\u0663", "1\u01fe", "x",
                  "1.0", "2e0", str(2**63 - 1), str(-2**63), str(2**63),
                  str(-2**63 - 1), "\x00", "")
    # separators inside a line: ASCII and non-ASCII blanks, and every line
    # break of str.splitlines that np.loadtxt reads as a blank
    BLANKS = (" ", "  ", "\t", " \t ", "\x1f", "\xa0", "\u3000")
    BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029")

    @staticmethod
    def outcome(load, path):
        try:
            m = load(path)
        except (ParseError, ValidationError) as e:
            return type(e).__name__, str(e)
        return (m.n_docs, m.n_terms, m.csr.data.dtype,
                m.csr.indptr.tolist(),
                m.csr.indices.tolist(), m.csr.data.tolist())

    def random_text(self, rng):
        n_docs, n_terms = 5, 7
        cells = rng.permutation(n_docs * n_terms)[:int(rng.integers(0, 9))]
        lines = [f"{n_docs} {n_terms}" if rng.random() > 0.05
                 else f"{n_docs}\x0b{n_terms}"]
        for cell in cells:
            fields = [str(cell // n_terms), str(cell % n_terms),
                      str(int(rng.integers(1, 4)))]
            roll = rng.random()
            if roll < 0.15:
                k = int(rng.integers(3))
                fields[k] = self.ODD_FIELDS[
                    int(rng.integers(len(self.ODD_FIELDS)))]
            elif roll < 0.2:
                fields = fields[:int(rng.integers(1, 3))]
            elif roll < 0.25:
                fields.append("1")
            pick = (self.BLANKS + self.BREAKS if rng.random() < 0.1
                    else self.BLANKS)
            line = "".join(f + pick[int(rng.integers(len(pick)))]
                           for f in fields[:-1]) + fields[-1]
            lead = rng.random()
            if lead < 0.1:
                line = " \t" + line + " "
            lines.append(line)
            if rng.random() < 0.1:
                lines.append(" \t " if rng.random() < 0.5 else "")
        end = ("\n", "\r\n")[int(rng.random() < 0.2)]
        return end.join(lines) + (end if rng.random() < 0.8 else "")

    def test_property_against_loop(self, tmp_path):
        rng = np.random.default_rng(505)
        path = tmp_path / "m.txt"
        kinds = set()
        for case in range(600):
            text = self.random_text(rng)
            path.write_bytes(text.encode("utf-8"))
            want = self.outcome(oracles.load_matrix, path)
            got = self.outcome(corp.load_matrix, path)
            assert got == want, (case, text)
            kinds.add(want[0] if isinstance(want[0], str) else "ok")
        assert {"ok", "ParseError", "ValidationError"} <= kinds

    @pytest.mark.parametrize("body", [
        "0 1 1\n1_000 2 1\n", "0 1 1\n\u0663 2 1\n", "0 1\x0b1\n",
        "0 1 1\x0c\n1 2 1\n", "0\u20281 1\n", "0 1 1\n1\u01fe 2 1\n",
        "0 1 1\r\n\r\n \t\r\n1\t2\t+1\r\n",
        f"0 1 {2**63}\n", f"0 1 {2**63 - 1}\n", f"{-2**63} 1 1\n",
        f"0 1 {2**53 - 1}\n",
    ])
    def test_cases_the_bulk_parse_must_hand_on(self, tmp_path, body):
        path = tmp_path / "m.txt"
        path.write_bytes(("2000 7\n" + body).encode("utf-8"))
        assert self.outcome(corp.load_matrix, path) == \
            self.outcome(oracles.load_matrix, path)


class TestVocabulary:

    def test_load_save_roundtrip(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("0\talpha\n1\tbeta\n")
        v = corp.load_vocabulary(p)
        assert v.surfaces == ("alpha", "beta")
        p2 = tmp_path / "v2.tsv"
        corp.save_vocabulary(v, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_noncontiguous_ids(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_text("0\talpha\n2\tbeta\n")
        with pytest.raises(ValidationError, match="contiguous"):
            corp.load_vocabulary(p)

    def test_duplicate_surface(self):
        with pytest.raises(ValidationError, match="duplicate"):
            corp.Vocabulary(("x", "x"))

    def test_empty_surface(self):
        with pytest.raises(ValidationError, match="empty"):
            corp.Vocabulary(("x", ""))


class TestLoadHierarchy:

    def test_smallest_tree(self, tmp_path):
        m = matrix_from_cells(3, 2, [(0, 0, 1), (1, 0, 1), (2, 1, 1)])
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0, 1]},
            {"id": 2, "parent": 0, "children": [], "docs": [2]},
        ]
        h = hierarchy_from_records(records, m, tmp_path)
        assert h.n_nodes == 3
        assert list(h.level) == [0, 1, 1]
        assert list(h.docsets[h.root]) == [0, 1, 2]

    def test_preorder_index_matches_stack_walk(self, tmp_path):
        # each subtree is a run of the pre-order, in the order of a stack
        # walk over the declared children, and levels count the ancestors
        rng = np.random.default_rng(63)
        for trial in range(10):
            n_docs = int(rng.integers(2, 30))
            records = random_tree_records(rng, n_docs, 20)
            for r in records:
                rng.shuffle(r["children"])
            m = random_matrix(rng, n_docs, 4)
            h = hierarchy_from_records(records, m, tmp_path, f"p{trial}.json")
            assert sorted(h.preorder) == list(range(h.n_nodes))
            for i in range(h.n_nodes):
                assert oracles.preorder_descendants(h, i) == \
                    oracles.descendants(h, i)
                assert h.level[i] == len(oracles.ancestors(h, i))

    def test_self_parent_cycle(self, tmp_path):
        m = matrix_from_cells(1, 1, [(0, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [], "docs": [0]},
            {"id": 1, "parent": 1, "children": [], "docs": []},
        ]
        with pytest.raises(ValidationError, match="cycle"):
            hierarchy_from_records(records, m, tmp_path)

    def test_two_node_cycle(self, tmp_path):
        m = matrix_from_cells(1, 1, [(0, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [], "docs": [0]},
            {"id": 1, "parent": 2, "children": [2], "docs": []},
            {"id": 2, "parent": 1, "children": [1], "docs": []},
        ]
        with pytest.raises(ValidationError, match="cycle"):
            hierarchy_from_records(records, m, tmp_path)

    def test_empty_leaf(self, tmp_path):
        m = matrix_from_cells(1, 1, [(0, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
            {"id": 2, "parent": 0, "children": [], "docs": []},
        ]
        with pytest.raises(ValidationError, match="empty leaf"):
            hierarchy_from_records(records, m, tmp_path)

    def test_multiple_roots(self, tmp_path):
        m = matrix_from_cells(2, 1, [(0, 0, 1), (1, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [], "docs": [0]},
            {"id": 1, "parent": None, "children": [], "docs": [1]},
        ]
        with pytest.raises(ValidationError, match="multiple roots"):
            hierarchy_from_records(records, m, tmp_path)

    def test_orphan_parent(self, tmp_path):
        m = matrix_from_cells(1, 1, [(0, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [], "docs": [0]},
            {"id": 1, "parent": 9, "children": [], "docs": []},
        ]
        with pytest.raises(ValidationError, match="orphan"):
            hierarchy_from_records(records, m, tmp_path)

    def test_doc_in_two_leaves(self, tmp_path):
        m = matrix_from_cells(2, 1, [(0, 0, 1), (1, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [1, 2], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0, 1]},
            {"id": 2, "parent": 0, "children": [], "docs": [1]},
        ]
        with pytest.raises(ValidationError, match="two leaves"):
            hierarchy_from_records(records, m, tmp_path)

    def test_doc_unassigned(self, tmp_path):
        m = matrix_from_cells(2, 1, [(0, 0, 1), (1, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [], "docs": [0]},
        ]
        with pytest.raises(ValidationError, match="not assigned"):
            hierarchy_from_records(records, m, tmp_path)

    def test_docs_on_internal_node(self, tmp_path):
        m = matrix_from_cells(2, 1, [(0, 0, 1), (1, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [1], "docs": [1]},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
        ]
        with pytest.raises(ValidationError, match="internal"):
            hierarchy_from_records(records, m, tmp_path)

    def test_children_mismatch(self, tmp_path):
        m = matrix_from_cells(1, 1, [(0, 0, 1)])
        records = [
            {"id": 0, "parent": None, "children": [], "docs": []},
            {"id": 1, "parent": 0, "children": [], "docs": [0]},
        ]
        with pytest.raises(ValidationError, match="children"):
            hierarchy_from_records(records, m, tmp_path)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        m, h = random_instance(rng, tmp_path)
        p1, p2 = tmp_path / "h1.json", tmp_path / "h2.json"
        corp.save_hierarchy(h, p1)
        corp.save_hierarchy(corp.load_hierarchy(p1, m), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSaltonFilter:

    @staticmethod
    def _df_matrix(n_docs, dfs):
        """One term per requested document frequency."""
        cells = []
        for t, df in enumerate(dfs):
            for d in range(df):
                cells.append((d, t, 1))
        return matrix_from_cells(n_docs, len(dfs), cells)

    def test_chemistry_band(self):
        # 328 docs with (0.01, 0.10) keeps exactly df in [3, 33]
        m = self._df_matrix(328, [2, 3, 33, 34])
        filtered, remap = corp.salton_df_filter(m, 0.01, 0.10)
        assert list(remap) == [-1, 0, 1, -1]
        assert filtered.n_terms == 2

    def test_ifm_band(self):
        # 385 docs with (0.01, 0.10) keeps exactly df in [4, 39]
        m = self._df_matrix(385, [3, 4, 39, 40])
        filtered, remap = corp.salton_df_filter(m, 0.01, 0.10)
        assert list(remap) == [-1, 0, 1, -1]

    def test_identity_bounds(self):
        m = self._df_matrix(10, [1, 5, 10])
        filtered, remap = corp.salton_df_filter(m, 0.0, 1.0)
        assert filtered.n_terms == 3
        assert list(remap) == [0, 1, 2]

    def test_empty_vocabulary(self):
        m = self._df_matrix(100, [50, 60])
        with pytest.raises(ValidationError, match="empty vocabulary"):
            corp.salton_df_filter(m, 0.0, 0.01)

    def test_idempotent(self):
        m = self._df_matrix(328, [1, 3, 20, 33, 34, 100])
        once, _ = corp.salton_df_filter(m, 0.01, 0.10)
        twice, remap = corp.salton_df_filter(once, 0.01, 0.10)
        assert twice.n_terms == once.n_terms
        assert np.count_nonzero(
            oracles.toarray(twice.csr) != oracles.toarray(once.csr)) == 0
        assert list(remap) == list(range(once.n_terms))

    def test_bad_bounds(self):
        m = self._df_matrix(10, [5])
        with pytest.raises(ValidationError):
            corp.salton_df_filter(m, 0.5, 0.5)


class TestNodeStats:

    def test_hier_base_equals_sparse_power_sum(self, tmp_path):
        rng = np.random.default_rng(64)
        for trial in range(12):
            n_docs = int(rng.integers(2, 40))
            records = random_tree_records(rng, n_docs,
                                          int(rng.integers(4, 30)))
            m = random_matrix(rng, n_docs, int(rng.integers(2, 30)))
            h = hierarchy_from_records(records, m, tmp_path, f"b{trial}.json")
            stats = corp.build_node_stats(m, h)
            got = stats.hier_base()
            assert got is stats.hier_base()
            assert_same_matrix(got, oracles.hier_base(stats))
            assert_shared_pattern(stats)

    def test_table2_totals(self, table2):
        _, h, stats = table2
        root = oracles.index_of(h, 0)
        assert oracles.freq_of(stats, root, 0) == 10
        assert stats.node_total[root] == 45
        assert [int(stats.node_total[oracles.index_of(h, i)])
                for i in (1, 2, 3)] == [15, 17, 13]

    def test_single_leaf_hierarchy(self, tmp_path):
        m = matrix_from_cells(1, 3, [(0, 0, 4), (0, 2, 1)])
        h = hierarchy_from_records(
            [{"id": 0, "parent": None, "children": [], "docs": [0]}],
            m, tmp_path)
        stats = corp.build_node_stats(m, h)
        assert oracles.freq_of(stats, 0, 0) == 4
        assert oracles.freq_of(stats, 0, 1) == 0
        assert oracles.freq_of(stats, 0, 2) == 1

    def test_parent_equals_child_sum(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(10):
            m, h = random_instance(rng, tmp_path, name=f"ps{trial}.json")
            stats = corp.build_node_stats(m, h)
            for i in range(h.n_nodes):
                if h.children[i].size == 0:
                    continue
                kid_sum = sum(
                    (stats.freq.dense_row(int(c))
                     for c in h.children[i]),
                    start=np.zeros(m.n_terms, np.int64),
                )
                assert np.array_equal(stats.freq.dense_row(i), kid_sum)

    def test_root_equals_grand_total(self, tmp_path):
        rng = np.random.default_rng(12)
        m, h = random_instance(rng, tmp_path)
        stats = corp.build_node_stats(m, h)
        assert stats.node_total[h.root] == m.csr.data.sum()

    def test_docfreq_vs_brute_force(self, tmp_path):
        rng = np.random.default_rng(13)
        m, h = random_instance(rng, tmp_path, max_docs=20, max_terms=15)
        stats = corp.build_node_stats(m, h)
        dense = oracles.toarray(m.csr)
        for i in range(h.n_nodes):
            docs = h.docsets[i]
            expect_df = (dense[docs] > 0).sum(axis=0)
            expect_f = dense[docs].sum(axis=0)
            assert np.array_equal(stats.docfreq.dense_row(i), expect_df)
            assert np.array_equal(stats.freq.dense_row(i), expect_f)
            assert stats.node_size[i] == len(docs)


def comb_instance(tmp_path, spine=30, docs_per_leaf=4, n_terms=300,
                  terms_per_doc=25):
    """A comb: each spine node has a leaf and the next spine node as
    children, the last one two leaves; every document holds
    ``terms_per_doc`` random terms, so the spine's rows are nearly full."""
    rng = np.random.default_rng(5)
    records, docs = [], 0

    def leaf(parent):
        nonlocal docs
        records.append({"id": len(records), "parent": parent,
                        "children": [],
                        "docs": list(range(docs, docs + docs_per_leaf))})
        docs += docs_per_leaf
        return len(records) - 1

    for k in range(spine):
        sid = 1000 + k
        kids = [leaf(sid), sid + 1 if k < spine - 1 else leaf(sid)]
        records.append({"id": sid, "parent": None if k == 0 else sid - 1,
                        "children": kids, "docs": []})
    cells = [(d, int(t), int(rng.integers(1, 5))) for d in range(docs)
             for t in rng.choice(n_terms, terms_per_doc, replace=False)]
    m = matrix_from_cells(docs, n_terms, cells)
    return m, hierarchy_from_records(records, m, tmp_path, "comb.json")


class TestHierBaseShapes:
    """The bottom-up Hier base on the shapes that stress its depth rows: a
    comb, whose spine shares one row per depth, and a balanced tree, which
    sums several rows at every depth."""

    def test_comb_equals_sparse_power_sum(self, tmp_path):
        m, h = comb_instance(tmp_path, spine=24)
        assert h.level.max() == 24
        stats = corp.build_node_stats(m, h)
        assert_same_matrix(stats.hier_base(), oracles.hier_base(stats))

    def test_balanced_equals_sparse_power_sum(self, tmp_path):
        m, h = balanced_instance(tmp_path, depth=6)
        stats = corp.build_node_stats(m, h)
        assert_same_matrix(stats.hier_base(), oracles.hier_base(stats))

    def test_peak_below_an_internal_by_terms_array(self, tmp_path):
        """The pass holds the depth rows of the nodes waiting for their
        parent, not one dense row per internal node."""
        m, h = balanced_instance(tmp_path, depth=8, docs_per_leaf=1,
                                 n_terms=4000, terms_per_doc=10)
        stats = corp.build_node_stats(m, h)
        dense_total = int((stats.child_count > 0).sum()) * m.n_terms * 8
        tracemalloc.start()
        try:
            stats.hier_base()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dense_total / 4, (peak, dense_total)


class TestSharedPattern:
    """The node statistics keep one term pattern and build it without
    holding their rows twice."""

    def test_kept_bytes(self, tmp_path):
        m, h = comb_instance(tmp_path)
        stats = corp.build_node_stats(m, h)
        tables = (stats.freq, stats.docfreq, stats.child_support,
                  stats.hier_base())
        arrays = {id(a): a for t in tables
                  for a in (t.indptr, t.indices, t.data)}
        assert sum(a.nbytes for a in arrays.values()) == \
            stats.freq.indptr.nbytes + stats.freq.nnz * (4 + 4 * 8)
        assert_shared_pattern(stats)

    def test_build_peak(self, tmp_path):
        """Building the statistics and the Hier base peaks below 1.5 times
        what they keep: the tables' own bytes, the dense accumulator rows
        and the Hier base's per-depth rows fit in that.  Four tables that
        store their pattern three times, or rows held in lists while they
        are concatenated, come to about twice."""
        m, h = comb_instance(tmp_path)
        tracemalloc.start()
        try:
            stats = corp.build_node_stats(m, h)
            stats.hier_base()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = stats.freq.indptr.nbytes + stats.freq.nnz * (4 + 4 * 8)
        assert peak <= 1.5 * kept, (peak, kept)


def assert_same_matrix(record, csr):
    """A table on the node statistics' shared pattern equal to a canonical
    scipy matrix: the same nonzero cells with the same values, and the
    same data dtype.  The record may store zeros besides."""
    assert record.shape == csr.shape
    assert record.data.dtype == csr.data.dtype
    kept = record.data != 0
    assert np.array_equal(record.row_ids()[kept],
                          np.repeat(np.arange(csr.shape[0]),
                                    np.diff(csr.indptr)))
    assert np.array_equal(record.indices[kept], csr.indices)
    assert np.array_equal(record.data[kept], csr.data)


def assert_shared_pattern(stats):
    """freq, docfreq, child_support and the Hier base hold one int32 term
    pattern, and store zeros on the leaves' rows only."""
    tables = (stats.freq, stats.docfreq, stats.child_support,
              stats.hier_base())
    for table in tables:
        assert table.indptr is stats.freq.indptr
        assert table.indices is stats.freq.indices
        zero_rows = table.row_ids()[table.data == 0]
        assert not stats.child_count[zero_rows].any()
    assert stats.freq.indices.dtype == np.int32
    assert stats.freq.data.all()


def assert_same_table(record, csr):
    """A CSR record equal to a canonical scipy matrix, array for array."""
    assert record.shape == csr.shape
    assert record.data.dtype == csr.data.dtype
    assert np.array_equal(record.indptr, csr.indptr)
    assert np.array_equal(record.indices, csr.indices)
    assert np.array_equal(record.data, csr.data)


class TestAgainstScipy:
    """The CSR records equal the scipy constructions they replaced."""

    def test_from_cells(self):
        rng = np.random.default_rng(65)
        for _ in range(40):
            n_docs, n_terms = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            cells = rng.permutation(n_docs * n_terms)[
                :int(rng.integers(0, n_docs * n_terms + 1))]
            if rng.random() < 0.5:
                cells = np.sort(cells)
            docs, terms = np.divmod(cells, n_terms)
            counts = rng.integers(1, 9, cells.size)
            m = corp.DocTermMatrix.from_cells(n_docs, n_terms, docs, terms,
                                              counts)
            want = oracles.csr_from_cells(n_docs, n_terms, docs, terms,
                                          counts)
            assert_same_table(m.csr, want)
            assert np.array_equal(oracles.toarray(m.csr), want.toarray())
            csc = want.tocsc()
            csc.sort_indices()
            assert np.array_equal(m.presence_csc.indptr, csc.indptr)
            assert np.array_equal(m.presence_csc.indices, csc.indices)
            assert np.array_equal(m.term_doc_freq(), np.diff(csc.indptr))

    def test_salton_filter_is_the_column_slice(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            m = random_matrix(rng, int(rng.integers(2, 40)),
                              int(rng.integers(2, 30)))
            low = float(rng.uniform(0, 0.3))
            try:
                sub, remap = corp.salton_df_filter(
                    m, low, float(rng.uniform(low + 0.05, 1.0)))
            except ValidationError:
                continue
            assert_same_table(sub.csr, oracles.df_filter_slice(
                m, np.flatnonzero(remap >= 0)))

    def test_node_stats_are_the_incidence_products(self, tmp_path):
        rng = np.random.default_rng(67)
        for m, h in shuffled_instances(rng, tmp_path, 30):
            stats = corp.build_node_stats(m, h)
            freq, docfreq, support = oracles.node_stats(m, h)
            assert_same_matrix(stats.freq, freq)
            assert_same_matrix(stats.docfreq, docfreq)
            assert_same_matrix(stats.child_support, support)
            assert np.array_equal(stats.node_total,
                                  np.asarray(freq.sum(axis=1)).ravel())
            assert_same_matrix(stats.hier_base(), oracles.hier_base(stats))
            assert_shared_pattern(stats)
