"""Shared fixtures: the worked 3-child contingency example, random
(matrix, hierarchy) instance generators used by the property suites and a
balanced binary tree for the memory bounds."""

import json

import numpy as np
import pytest

from hierlabel import coherence as coh
from hierlabel import corpus as corp
from hierlabel.errors import ValidationError


def matrix_from_cells(n_docs, n_terms, cells):
    if cells:
        docs, terms, counts = zip(*cells)
    else:
        docs = terms = counts = ()
    return corp.DocTermMatrix.from_cells(n_docs, n_terms, docs, terms, counts)


def two_term_counts(n, ua, ub, joint):
    """Counts of terms 0 and 1 over n windows with the given unary and
    joint counts: both bitsets hold the first ``joint`` windows, and the
    unary counts are given apart from them, so that any combination can
    be stated."""
    bits = np.zeros((2, (n + 63) // 64), np.uint64)
    for w in range(joint):
        bits[:, w // 64] |= np.uint64(1 << (w % 64))
    return coh.CooccurrenceCounts(
        n_windows=n, unary=np.array([ua, ub], np.int64),
        rows=np.array([0, 1], np.int64), bits=bits)


def hierarchy_from_records(records, matrix, tmp_path, name="h.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"nodes": records}), encoding="utf-8")
    return corp.load_hierarchy(path, matrix)


@pytest.fixture
def table2(tmp_path):
    """Root with three leaf children; child totals 15/17/13 and term 0
    ("research") distributed 3/4/3, so the root total is 45 and
    f_root(research) = 10."""
    cells = [
        (0, 0, 3), (0, 1, 12),
        (1, 0, 4), (1, 1, 13),
        (2, 0, 3), (2, 2, 10),
    ]
    matrix = matrix_from_cells(3, 3, cells)
    records = [
        {"id": 0, "parent": None, "children": [1, 2, 3], "docs": []},
        {"id": 1, "parent": 0, "children": [], "docs": [0]},
        {"id": 2, "parent": 0, "children": [], "docs": [1]},
        {"id": 3, "parent": 0, "children": [], "docs": [2]},
    ]
    hierarchy = hierarchy_from_records(records, matrix, tmp_path)
    stats = corp.build_node_stats(matrix, hierarchy)
    return matrix, hierarchy, stats


def random_matrix(rng, n_docs, n_terms, max_count=6):
    cells = []
    for d in range(n_docs):
        k = int(rng.integers(1, max(2, n_terms // 2)))
        terms = rng.choice(n_terms, size=min(k, n_terms), replace=False)
        for t in terms:
            cells.append((d, int(t), int(rng.integers(1, max_count + 1))))
    return matrix_from_cells(n_docs, n_terms, cells)


def random_tree_records(rng, n_docs, max_nodes=15, allow_unary=True):
    """Random tree whose leaves partition the documents."""
    docs = list(rng.permutation(n_docs))
    records = [{"id": 0, "parent": None, "children": [], "docs": docs}]
    expandable = [0]
    while expandable and len(records) < max_nodes:
        node = expandable.pop(int(rng.integers(len(expandable))))
        pool = records[node]["docs"]
        if len(pool) < 2:
            continue
        if allow_unary and rng.random() < 0.12 and len(records) + 1 <= max_nodes:
            n_parts = 1
        else:
            n_parts = int(rng.integers(2, min(3, len(pool)) + 1))
            if len(records) + n_parts > max_nodes:
                continue
        bounds = sorted(rng.choice(
            range(1, len(pool)), size=n_parts - 1, replace=False
        )) if n_parts > 1 else []
        parts = np.split(np.asarray(pool), bounds)
        records[node]["docs"] = []
        for part in parts:
            cid = len(records)
            records.append({"id": cid, "parent": node, "children": [],
                            "docs": [int(x) for x in part]})
            records[node]["children"].append(cid)
            if rng.random() < 0.8:
                expandable.append(cid)
    return records


def random_instance(rng, tmp_path, max_docs=50, max_terms=60, max_nodes=15,
                    name="r.json"):
    n_docs = int(rng.integers(4, max_docs + 1))
    n_terms = int(rng.integers(5, max_terms + 1))
    matrix = random_matrix(rng, n_docs, n_terms)
    records = random_tree_records(rng, n_docs, max_nodes)
    hierarchy = hierarchy_from_records(records, matrix, tmp_path, name)
    return matrix, hierarchy


def balanced_instance(tmp_path, depth=6, docs_per_leaf=2, n_terms=300,
                      terms_per_doc=25, seed=6):
    """A balanced binary tree of the given depth, each node's children
    listed larger id first; documents hold ``terms_per_doc`` random terms."""
    rng = np.random.default_rng(seed)
    n_nodes, first_leaf = 2 ** (depth + 1) - 1, 2 ** depth - 1
    records = []
    for i in range(n_nodes):
        leaf = i >= first_leaf
        docs = (list(range((i - first_leaf) * docs_per_leaf,
                           (i - first_leaf + 1) * docs_per_leaf))
                if leaf else [])
        records.append({"id": i, "parent": None if i == 0 else (i - 1) // 2,
                        "children": [] if leaf else [2 * i + 2, 2 * i + 1],
                        "docs": docs})
    n_docs = (n_nodes - first_leaf) * docs_per_leaf
    cells = [(d, int(t), int(rng.integers(1, 5))) for d in range(n_docs)
             for t in rng.choice(n_terms, terms_per_doc, replace=False)]
    m = matrix_from_cells(n_docs, n_terms, cells)
    return m, hierarchy_from_records(records, m, tmp_path, "balanced.json")


def disjoint_vocab_instance(rng, tmp_path, n_docs=24, max_nodes=13,
                            terms_per_node=2, name="dv.json"):
    """Corpus where every node owns ``terms_per_node`` private terms carried
    by every document of its subtree (count 1).  Term ids are handed out
    deepest level first, so at any node the frequency ranking with the id
    tie-break puts the node's own terms first; with p_cap = terms_per_node
    the top-frequency label is exactly the owned set and specific retrieval
    is perfect at every node."""
    records = random_tree_records(rng, n_docs, max_nodes, allow_unary=False)
    matrix0 = matrix_from_cells(n_docs, 1, [(d, 0, 1) for d in range(n_docs)])
    hierarchy0 = hierarchy_from_records(records, matrix0, tmp_path, "tmp_" + name)

    order = sorted(range(hierarchy0.n_nodes),
                   key=lambda i: -int(hierarchy0.level[i]))
    owned = {}
    nxt = 0
    for i in order:
        owned[i] = list(range(nxt, nxt + terms_per_node))
        nxt += terms_per_node
    cells = []
    for i in range(hierarchy0.n_nodes):
        for d in hierarchy0.docsets[i]:
            for t in owned[i]:
                cells.append((int(d), t, 1))
    matrix = matrix_from_cells(n_docs, nxt, cells)
    hierarchy = hierarchy_from_records(records, matrix, tmp_path, name)
    return matrix, hierarchy, owned


def shuffled_instances(rng, tmp_path, trials):
    """Random (matrix, hierarchy) pairs for the scipy oracles: trees with
    unary nodes and children declared in shuffled order; every other
    matrix through the Salton filter with random bounds."""
    for trial in range(trials):
        n_docs = int(rng.integers(2, 40))
        m = random_matrix(rng, n_docs, int(rng.integers(2, 30)))
        records = random_tree_records(rng, n_docs, int(rng.integers(2, 30)))
        for r in records:
            r["children"] = [r["children"][k]
                             for k in rng.permutation(len(r["children"]))]
            r["docs"] = [int(d) for d in r["docs"]]
        if trial % 2:
            low = float(rng.uniform(0, 0.3))
            try:
                m, _ = corp.salton_df_filter(
                    m, low, float(rng.uniform(low + 0.05, 1.0)))
            except ValidationError:         # nothing left in the band
                continue
        yield m, hierarchy_from_records(records, m, tmp_path,
                                        f"sc{trial}.json")
