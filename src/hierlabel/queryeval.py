"""Boolean query construction from node labels and retrieval evaluation.

Specific queries OR a node's label terms together; a node with an empty
label inherits the nearest labeled ancestor's query, or, with no labeled
ancestor anywhere above it, ORs its children's queries.  Generic queries
AND a node's specific query onto its parent's generic query, so the
retrieved sets nest along every root path.  A specific query is the tuple
of the term ids it ORs, a generic one the tuple of the specific tuples it
ANDs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import DocTermMatrix, Hierarchy, set_bits
from .errors import ValidationError
from .labeling import LabelAssignment


def query_to_prefix(terms) -> str:
    """One specific query in prefix notation: ``()`` for None, ``t12``
    for one term, ``(OR t12 t77)`` for more."""
    if terms is None:
        return "()"
    if len(terms) == 1:
        return f"t{terms[0]}"
    return "(OR " + " ".join(f"t{t}" for t in terms) + ")"


def prefix_strings(specific: dict, generic: dict) -> tuple:
    """(specific, generic): iterators over each node's queries in prefix
    notation, in node index order.  Each distinct specific tuple goes
    through ``query_to_prefix`` once; a generic chain of several conjuncts
    joins their strings into ``(AND ...)``.  The strings are made as they
    are read: on a deep tree one method's generic strings can take tens
    of MB."""
    one = functools.cache(query_to_prefix)

    def conjunction(conjuncts):
        if conjuncts is not None and len(conjuncts) > 1:
            return "(AND " + " ".join(map(one, conjuncts)) + ")"
        return one(conjuncts[0] if conjuncts else None)

    nodes = range(len(specific))
    return ((one(specific[i]) for i in nodes),
            (conjunction(generic[i]) for i in nodes))


def _union(parts) -> tuple:
    """Canonical OR operands of term-id tuples: nested ORs flattened,
    duplicates dropped, first occurrences kept in order."""
    return tuple(dict.fromkeys(chain.from_iterable(parts)))


def derive_specific_queries(hierarchy: Hierarchy,
                            labels: LabelAssignment) -> dict:
    """Node index -> the term-id tuple that its specific query ORs, None
    when the node is unretrievable.  Two passes: bottom-up to resolve
    empty-label nodes into ORs over their children's resolved queries,
    then top-down to let nodes below a labeled ancestor inherit that
    ancestor's own query instead.  A node that inherits a query shares its
    ancestor's tuple."""
    n = hierarchy.n_nodes
    terms, bounds = labels.term.tolist(), labels.indptr.tolist()
    own = [tuple(dict.fromkeys(terms[lo:hi])) or None
           for lo, hi in zip(bounds[:-1], bounds[1:])]

    down = list(own)
    for i in hierarchy.preorder[::-1].tolist():
        if down[i] is None and hierarchy.children[i].size:
            down[i] = _union(down[c] for c in hierarchy.children[i].tolist()
                             if down[c] is not None) or None

    out = [None] * n
    nearest = [None] * n               # nearest labeled ancestor's own query
    for i in hierarchy.preorder.tolist():
        # the tuples are never empty, so ``or`` passes over None only
        labeled = own[i] or nearest[i]
        out[i] = labeled or down[i]
        for c in hierarchy.children[i].tolist():
            nearest[c] = labeled
    return dict(enumerate(out))


def derive_generic_queries(hierarchy: Hierarchy, specific: dict) -> dict:
    """Node index -> the conjuncts that its generic query ANDs: the
    specific term tuples along its root path, each once (an inherited copy
    adds none), or None when there are none.  ``specific`` is
    ``derive_specific_queries``'s map.  A node that adds no conjunct
    shares its parent's tuple."""
    out = [None] * hierarchy.n_nodes
    for i in hierarchy.preorder.tolist():
        above = None if i == hierarchy.root else out[hierarchy.parent[i]]
        key = specific[i]
        if key is None or key in (above or ()):
            out[i] = above
        else:
            out[i] = (above or ()) + (key,)
    return dict(enumerate(out))


def _or_rows(matrix: DocTermMatrix, queries: list) -> np.ndarray:
    """The documents that each specific query of ``queries`` (term-id
    tuples) retrieves, one packed row each in ``set_bits``'s form, then one
    empty row."""
    flat = np.fromiter(chain.from_iterable(queries), np.int64)
    bad = flat[(flat < 0) | (flat >= matrix.n_terms)]
    if bad.size:
        raise ValidationError(f"query term {bad[0]} out of range")
    # the query terms' document rows, from the matrix cells that hold them
    terms, flat = np.unique(flat, return_inverse=True)
    held = np.isin(matrix.csr.indices, terms)
    words = -(-matrix.n_docs // 64)
    term_bits = np.zeros((terms.size, words), np.uint64)
    set_bits(term_bits, np.searchsorted(terms, matrix.csr.indices[held]),
             matrix.csr.row_ids()[held])
    # each query ORs in its terms' rows; the tuples' terms are taken about
    # 2^16 words of rows at a time, so a query may take several blocks
    out = np.zeros((len(queries) + 1, words), np.uint64)
    owner = np.repeat(np.arange(len(queries)), list(map(len, queries)))
    step = max(1, (1 << 16) // max(1, words))
    for lo in range(0, flat.size, step):
        block = owner[lo:lo + step]
        first = np.flatnonzero(np.diff(block, prepend=-1))
        out[block[first]] |= np.bitwise_or.reduceat(
            term_bits[flat[lo:lo + step]], first, axis=0)
    return out


def _metrics_from_counts(tp, n_retrieved, n_group) -> tuple:
    """(precision, recall, f) arrays of retrieved sets holding ``tp`` of
    their nodes' ``n_group`` documents, with the scalar formulas' operation
    order, so each value is the scalar one bit for bit."""
    precision = np.zeros(np.shape(tp))
    recall = np.zeros(np.shape(tp))
    np.divide(tp, n_retrieved, out=precision, where=n_retrieved > 0)
    np.divide(tp, n_group, out=recall, where=n_group > 0)
    # zero rule: with either factor zero the harmonic mean is taken as 0
    f = np.zeros(np.shape(tp))
    both = (precision > 0) & (recall > 0)
    np.divide(2.0 * precision * recall, precision + recall, out=f,
              where=both)
    return precision, recall, f


KINDS = ("specific", "generic")
MEASURES = ("precision", "recall", "f")


@dataclass
class ObservationTable:
    """One row per (method, node, query kind), held as columns.  ``method``
    codes index ``method_names`` and ``kind`` codes index ``KINDS``."""
    method_names: tuple
    method: np.ndarray             # int64
    node_id: np.ndarray            # int64
    level: np.ndarray              # int64
    kind: np.ndarray               # int64
    precision: np.ndarray          # float64
    recall: np.ndarray             # float64
    f: np.ndarray                  # float64

    def take(self, rows) -> "ObservationTable":
        """The rows a mask or an index array selects, in table order."""
        return ObservationTable(self.method_names, *(
            getattr(self, c)[rows]
            for c in ("method", "node_id", "level", "kind", *MEASURES)))


def _query_rows(hierarchy: Hierarchy, retrieved: np.ndarray,
                key: np.ndarray) -> np.ndarray:
    """The retrieved rows of every node and kind, (nodes, ``KINDS``,
    words): node i's specific query is row ``key[i]`` of ``retrieved``
    (-1: the last row, empty, for no query).  A generic row is the
    parent's generic row AND the node's own, one tree level at a time; a
    node without a query passes its parent's row through."""
    rows = np.repeat(retrieved[key][:, None], len(KINDS), axis=1)
    levels = np.split(np.argsort(hierarchy.level, kind="stable"),
                      np.cumsum(np.bincount(hierarchy.level))[:-1])
    for nodes in levels[1:]:
        up = rows[hierarchy.parent[nodes], 1]
        has = key[nodes] >= 0
        up[has] &= rows[nodes[has], 0]
        rows[nodes, 1] = up
    return rows


def evaluate_all(matrix: DocTermMatrix, hierarchy: Hierarchy,
                 assignments: dict):
    """Metrics for every (method, node, kind), in the order of
    ``assignments``, node index and ``KINDS``; also returns the derived
    queries as {method: {"specific": {...}, "generic": {...}}}, the maps
    of ``derive_specific_queries`` and ``derive_generic_queries``.  Each
    distinct specific tuple of the run is evaluated once."""
    n = hierarchy.n_nodes
    n_group = np.fromiter(map(len, hierarchy.docsets), np.int64, n)
    docset = np.zeros((n, -(-matrix.n_docs // 64)), np.uint64)
    set_bits(docset, np.repeat(np.arange(n), n_group),
             np.concatenate(hierarchy.docsets))
    specific = {method: derive_specific_queries(hierarchy, labels)
                for method, labels in assignments.items()}
    # each distinct tuple of the run -> its row of ``retrieved``
    row_of = {terms: k for k, terms in enumerate(dict.fromkeys(
        t for spec in specific.values() for t in spec.values()
        if t is not None))}
    retrieved = _or_rows(matrix, list(row_of))
    queries, measures = {}, []
    for method, spec in specific.items():
        rows = _query_rows(hierarchy, retrieved, np.fromiter(
            (row_of.get(t, -1) for t in spec.values()), np.int64, n))
        tp, got = (np.bitwise_count(r).sum(axis=2, dtype=np.int64)
                   for r in (rows & docset[:, None], rows))
        measures.append(_metrics_from_counts(tp, got, n_group[:, None]))
        queries[method] = {"specific": spec,
                           "generic": derive_generic_queries(hierarchy, spec)}
    k = len(assignments)
    table = ObservationTable(
        tuple(assignments),
        np.repeat(np.arange(k, dtype=np.int64), n * len(KINDS)),
        np.tile(np.repeat(hierarchy.ids, len(KINDS)), k),
        np.tile(np.repeat(hierarchy.level, len(KINDS)), k),
        np.tile(np.arange(len(KINDS), dtype=np.int64), n * k),
        *(np.concatenate([m[c].ravel() for m in measures] or [np.zeros(0)])
          for c in range(len(MEASURES))))
    return table, queries
