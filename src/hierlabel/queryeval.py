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

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import DocTermMatrix, Hierarchy
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
    cache = {}

    def one(terms):
        text = cache.get(terms)
        if text is None:
            text = cache[terms] = query_to_prefix(terms)
        return text

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
    nearest = {hierarchy.root: None}   # nearest labeled ancestor's own query
    for i in hierarchy.preorder.tolist():
        inherited = nearest.pop(i)
        if own[i] is not None:
            out[i] = own[i]
        elif inherited is not None:
            out[i] = inherited
        else:
            out[i] = down[i]
        for c in hierarchy.children[i]:
            nearest[int(c)] = own[i] if own[i] is not None else inherited
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


def _or_mask(matrix: DocTermMatrix, terms) -> np.ndarray:
    """The documents holding any of ``terms``, as a bool mask."""
    ids = np.asarray(terms, np.int64)
    bad = ids[(ids < 0) | (ids >= matrix.n_terms)]
    if bad.size:
        raise ValidationError(f"query term {bad[0]} out of range")
    # the terms' document lists, concatenated by index arithmetic
    # (measured faster than a slice per term)
    csc = matrix.presence_csc
    start = csc.indptr[ids]
    size = csc.indptr[ids + 1] - start
    at = np.arange(size.sum()) + np.repeat(start - size.cumsum() + size, size)
    mask = np.zeros(matrix.n_docs, bool)
    mask[csc.indices[at]] = True
    return mask


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

    def __len__(self):
        return self.method.size

    def take(self, rows) -> "ObservationTable":
        """The rows a mask or an index array selects, in table order."""
        return ObservationTable(self.method_names, *(
            getattr(self, c)[rows]
            for c in ("method", "node_id", "level", "kind", *MEASURES)))

    def method_rows(self, methods) -> np.ndarray:
        """Mask of the rows of any of the named ``methods``."""
        codes = [k for k, m in enumerate(self.method_names) if m in methods]
        return np.isin(self.method, codes)

    def filter(self, method=None, kind=None) -> "ObservationTable":
        keep = np.ones(len(self), bool)
        if method is not None:
            keep &= self.method_rows((method,))
        if kind is not None:
            keep &= self.kind == KINDS.index(kind)
        return self.take(keep)

    def methods(self) -> list:
        """The names of the methods present, in order of first row."""
        codes, first = np.unique(self.method, return_index=True)
        return [self.method_names[c] for c in codes[np.argsort(first)]]

    def values(self, measure: str) -> np.ndarray:
        return getattr(self, measure)


def _query_masks(matrix: DocTermMatrix, hierarchy: Hierarchy,
                 specific: dict):
    """Retrieved-document masks, one row per node, for the specific queries
    and for the generic ones.  Each distinct specific tuple is evaluated
    once; a generic mask is the parent's generic mask AND the node's own."""
    spec = np.zeros((hierarchy.n_nodes, matrix.n_docs), bool)
    first = {}                         # term tuple -> first node
    for i, terms in specific.items():
        if terms is None:
            continue
        j = first.setdefault(terms, i)
        spec[i] = _or_mask(matrix, terms) if j == i else spec[j]
    gen = np.empty_like(spec)
    for i in hierarchy.preorder.tolist():
        if i == hierarchy.root:
            gen[i] = spec[i]
        elif specific[i] is None:
            gen[i] = gen[hierarchy.parent[i]]
        else:
            np.logical_and(gen[hierarchy.parent[i]], spec[i], out=gen[i])
    return spec, gen


def evaluate_all(matrix: DocTermMatrix, hierarchy: Hierarchy,
                 assignments: dict):
    """Metrics for every (method, node, kind), in the order of
    ``assignments``, node index and ``KINDS``; also returns the derived
    queries as {method: {"specific": {...}, "generic": {...}}}, the maps
    of ``derive_specific_queries`` and ``derive_generic_queries``."""
    n = hierarchy.n_nodes
    n_group = np.fromiter(map(len, hierarchy.docsets), np.int64, n)
    # every docset's documents as flat indices into a node x document mask
    member = (np.repeat(np.arange(n) * matrix.n_docs, n_group)
              + np.concatenate(hierarchy.docsets))
    bounds = np.concatenate([[0], np.cumsum(n_group)])

    def tp(mask):
        """Each node's retrieved documents that its docset holds."""
        hits = np.concatenate([[0], np.cumsum(mask.ravel()[member])])
        return hits[bounds[1:]] - hits[bounds[:-1]]

    queries = {}
    measures = []
    for method, labels in assignments.items():
        specific = derive_specific_queries(hierarchy, labels)
        generic = derive_generic_queries(hierarchy, specific)
        masks = _query_masks(matrix, hierarchy, specific)
        measures.append(_metrics_from_counts(
            np.stack([tp(m) for m in masks], axis=1),
            np.stack([np.count_nonzero(m, axis=1) for m in masks], axis=1),
            n_group[:, None]))
        queries[method] = {"specific": specific, "generic": generic}
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
