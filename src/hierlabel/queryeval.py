"""Boolean query construction from node labels and retrieval evaluation.

Specific queries OR a node's label terms together; a node with an empty
label inherits the nearest labeled ancestor's query, or, with no labeled
ancestor anywhere above it, ORs its children's queries.  Generic queries
AND a node's specific query onto its parent's generic query, so the
retrieved sets nest along every root path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import DocTermMatrix, Hierarchy
from .errors import ConfigError, ValidationError
from .labeling import LabelAssignment


@dataclass(frozen=True)
class Term:
    term: int


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValidationError("OR node needs at least one child")


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValidationError("AND node needs at least one child")


def query_to_prefix(query) -> str:
    """Parenthesized prefix notation, e.g. (AND (OR t12 t77) (OR t3))."""
    if query is None:
        return "()"
    if isinstance(query, Term):
        return f"t{query.term}"
    op = "OR" if isinstance(query, Or) else "AND"
    return "(" + op + " " + " ".join(query_to_prefix(c) for c in query.children) + ")"


def prefix_renderer():
    """``query_to_prefix`` for the shared query objects of one derivation.

    Each distinct specific query (one object per term-id tuple) goes
    through ``query_to_prefix`` once; an And joins its conjuncts' cached
    strings.  The cache keeps every query it saw alive, so object ids are
    never reused while the renderer lives.
    """
    cache = {}

    def render(query) -> str:
        if isinstance(query, And):
            return "(AND " + " ".join(map(render, query.children)) + ")"
        hit = cache.get(id(query))
        if hit is None:
            hit = cache[id(query)] = (query, query_to_prefix(query))
        return hit[1]

    return render


def _union(parts) -> tuple:
    """Canonical OR operands of term-id tuples: nested ORs flattened,
    duplicates dropped, first occurrences kept in order."""
    return tuple(dict.fromkeys(chain.from_iterable(parts)))


def _specific_terms(hierarchy: Hierarchy, labels: LabelAssignment) -> list:
    """Node index -> term-id tuple of its specific query, None when the
    node is unretrievable.  Two passes: bottom-up to resolve empty-label
    nodes into ORs over their children's resolved queries, then top-down
    to let nodes below a labeled ancestor inherit that ancestor's own query
    instead."""
    n = hierarchy.n_nodes
    own = [tuple(dict.fromkeys(labels.terms(i))) or None for i in range(n)]

    down = list(own)
    for i in hierarchy.order_bottom_up():
        i = int(i)
        if down[i] is None and not hierarchy.is_leaf(i):
            down[i] = _union(down[int(c)] for c in hierarchy.children[i]
                             if down[int(c)] is not None) or None

    out = [None] * n
    nearest = {hierarchy.root: None}   # nearest labeled ancestor's own query
    for i in hierarchy.order_top_down():
        i = int(i)
        inherited = nearest.pop(i)
        if own[i] is not None:
            out[i] = own[i]
        elif inherited is not None:
            out[i] = inherited
        else:
            out[i] = down[i]
        for c in hierarchy.children[i]:
            nearest[int(c)] = own[i] if own[i] is not None else inherited
    return out


def _terms_of(query) -> tuple:
    """Term-id tuple of a Term or of an OR of Terms."""
    if isinstance(query, Term):
        return (query.term,)
    return tuple(c.term for c in query.children)


def derive_specific_queries(hierarchy: Hierarchy, labels: LabelAssignment) -> dict:
    """Map node index -> query (or None for unretrievable nodes).

    A single term is a bare Term, more terms an Or of Terms.  Nodes with
    the same term tuple share one query object, and queries share their
    Term objects.
    """
    terms, queries = {}, {}

    def term(t):
        q = terms.get(t)
        if q is None:
            q = terms[t] = Term(t)
        return q

    def query(key):
        if key is None:
            return None
        q = queries.get(key)
        if q is None:
            q = queries[key] = (term(key[0]) if len(key) == 1
                                else Or(tuple(map(term, key))))
        return q

    return {i: query(key)
            for i, key in enumerate(_specific_terms(hierarchy, labels))}


def derive_generic_queries(hierarchy: Hierarchy, specific: dict) -> dict:
    """AND each node's specific query onto its ancestors' conjuncts,
    skipping structurally duplicate conjuncts (inherited copies).

    ``specific`` maps node index -> Term, Or of Terms or None, as
    ``derive_specific_queries`` returns it.  A node that adds no conjunct
    shares its parent's query object.
    """
    tuples = {}                        # id(query) -> term-id tuple
    conjuncts = {}                     # node -> (term tuples, queries)
    out = {}
    for i in hierarchy.order_top_down():
        i = int(i)
        root = i == hierarchy.root
        keys, parts = ((), ()) if root else conjuncts[int(hierarchy.parent[i])]
        q = specific.get(i)
        key = None
        if q is not None:
            key = tuples.get(id(q))
            if key is None:
                key = tuples[id(q)] = _terms_of(q)
        if key is None or key in keys:
            out[i] = None if root else out[int(hierarchy.parent[i])]
        else:
            keys, parts = keys + (key,), parts + (q,)
            out[i] = q if len(parts) == 1 else And(parts)
        conjuncts[i] = (keys, parts)
    return out


def _eval_mask(matrix: DocTermMatrix, query) -> np.ndarray:
    if isinstance(query, Term):
        if not (0 <= query.term < matrix.n_terms):
            raise ValidationError(f"query term {query.term} out of range")
        mask = np.zeros(matrix.n_docs, bool)
        mask[matrix.doc_ids_for_term(query.term)] = True
        return mask
    if isinstance(query, Or):
        flat = [c.term for c in query.children if isinstance(c, Term)]
        if len(flat) == len(query.children):
            ids = np.asarray(flat, np.int64)
            bad = ids[(ids < 0) | (ids >= matrix.n_terms)]
            if bad.size:
                raise ValidationError(f"query term {bad[0]} out of range")
            # the terms' document lists, concatenated by index arithmetic
            # (measured faster than a slice per term)
            csc = matrix.presence_csc
            start = csc.indptr[ids]
            size = csc.indptr[ids + 1] - start
            at = np.arange(size.sum()) + np.repeat(start - size.cumsum() + size,
                                                   size)
            mask = np.zeros(matrix.n_docs, bool)
            mask[csc.indices[at]] = True
            return mask
        mask = np.zeros(matrix.n_docs, bool)
        for c in query.children:
            mask |= _eval_mask(matrix, c)
        return mask
    if isinstance(query, And):
        mask = _eval_mask(matrix, query.children[0])
        for c in query.children[1:]:
            mask &= _eval_mask(matrix, c)
        return mask
    raise ValidationError(f"not a query node: {query!r}")


def retrieve(matrix: DocTermMatrix, query) -> set:
    """Documents satisfying the query; presence-only semantics."""
    if query is None:
        return set()
    return set(np.flatnonzero(_eval_mask(matrix, query)).tolist())


@dataclass(frozen=True)
class RetrievalMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f: float


def _metrics_from_counts(tp, n_retrieved, n_group, n_docs) -> RetrievalMetrics:
    fp = n_retrieved - tp
    fn = n_group - tp
    tn = n_docs - tp - fp - fn
    precision = tp / n_retrieved if n_retrieved else 0.0
    recall = tp / n_group if n_group else 0.0
    # zero rule: with either factor zero the harmonic mean is taken as 0
    f = 2.0 * precision * recall / (precision + recall) \
        if precision > 0 and recall > 0 else 0.0
    return RetrievalMetrics(tp, fp, fn, tn, precision, recall, f)


def evaluate_node(hierarchy: Hierarchy, node: int, retrieved) -> RetrievalMetrics:
    docset = hierarchy.docsets[node]
    if len(docset) == 0:
        raise ValidationError(f"node {node} has an empty document set")
    got = retrieved if isinstance(retrieved, set) else set(retrieved)
    tp = sum(1 for d in docset if int(d) in got)
    return _metrics_from_counts(tp, len(got), len(docset), hierarchy.n_docs)


@dataclass
class ObservationRow:
    method: str
    node_id: int
    level: int
    kind: str          # "specific" | "generic"
    precision: float
    recall: float
    f: float

    def measure(self, name: str) -> float:
        return getattr(self, name)


@dataclass
class ObservationTable:
    """Rectangular record set: one row per (method, node, query kind)."""
    rows: list = field(default_factory=list)

    def filter(self, method=None, kind=None) -> "ObservationTable":
        out = [r for r in self.rows
               if (method is None or r.method == method)
               and (kind is None or r.kind == kind)]
        return ObservationTable(out)

    def methods(self):
        seen = []
        for r in self.rows:
            if r.method not in seen:
                seen.append(r.method)
        return seen

    def levels(self):
        return sorted({r.level for r in self.rows})

    def values(self, measure: str) -> np.ndarray:
        return np.asarray([r.measure(measure) for r in self.rows])


def _query_masks(matrix: DocTermMatrix, hierarchy: Hierarchy,
                 specific: dict):
    """Retrieved-document masks per node for the specific queries and for
    the generic ones.  Each shared specific query is evaluated once; a
    generic mask is the parent's generic mask AND the node's own."""
    no_docs = np.zeros(matrix.n_docs, bool)
    masks = {}                         # id(shared query) -> mask
    spec_masks = {}
    for i in range(hierarchy.n_nodes):
        q = specific[i]
        if q is None:
            spec_masks[i] = no_docs
            continue
        hit = masks.get(id(q))
        if hit is None:
            hit = masks[id(q)] = _eval_mask(matrix, q)
        spec_masks[i] = hit
    gen_masks = {}
    for i in hierarchy.order_top_down():
        i = int(i)
        if i == hierarchy.root:
            gen_masks[i] = spec_masks[i]
        else:
            parent_mask = gen_masks[int(hierarchy.parent[i])]
            if specific[i] is None:
                gen_masks[i] = parent_mask
            else:
                gen_masks[i] = parent_mask & spec_masks[i]
    return spec_masks, gen_masks


def evaluate_all(matrix: DocTermMatrix, hierarchy: Hierarchy,
                 assignments: dict, threads: int = 1):
    """Metrics for every (method, node, kind); also returns the derived
    queries as {method: {"specific": {...}, "generic": {...}}}.

    ``threads`` is accepted for compatibility and has no effect: the work
    holds the GIL, and a per-method thread pool measured slower than one
    thread.
    """
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    queries = {}
    table = ObservationTable()
    for method, labels in assignments.items():
        specific = derive_specific_queries(hierarchy, labels)
        generic = derive_generic_queries(hierarchy, specific)
        spec_masks, gen_masks = _query_masks(matrix, hierarchy, specific)
        for i in range(hierarchy.n_nodes):
            group = hierarchy.docsets[i]
            nid = int(hierarchy.ids[i])
            lvl = int(hierarchy.level[i])
            for kind, mask in (("specific", spec_masks[i]),
                               ("generic", gen_masks[i])):
                tp = int(mask[group].sum())
                m = _metrics_from_counts(tp, int(mask.sum()), len(group),
                                         matrix.n_docs)
                table.rows.append(ObservationRow(method, nid, lvl, kind,
                                                 m.precision, m.recall, m.f))
        queries[method] = {"specific": specific, "generic": generic}
    return table, queries
