"""Reference implementations that the tests compare the library against.

The query derivation here is the direct structural one: queries are built
as Term/Or/And objects from the start, ORs are canonicalised by a linear
membership scan, and generic conjuncts are deduplicated by structural
equality.  They are rendered by a recursive ``query_to_prefix`` and
evaluated by a recursive mask walk (``retrieve``).  The library derives the
same queries as term-id tuples; ``specific_query`` and ``generic_query``
turn those into the objects.

Observed coherence here is the scalar pair loop over ``npmi``;
the library scores every pair of a method in one vectorised pass.

The Hier frequency base here is the sparse matrix-power sum; the library
adds the same terms into dense rows.

HierRCL here is the per-(node, descendant) loop over dense term rows, with
the descendants found by a stack walk and the 2x2 statistics evaluated
under masks; the library scores each descendant once, against all its
ancestors, on a sparse row, and folds the guards into exact identities of
the cell counts.  RCL and the per-child 2x2 maximum here are the same
masked statistics on dense rows.  Top-P here sorts every positive score;
the library partitions first.

The matrix reader here parses every line in a Python loop; the library
parses the triplets in one numpy call and keeps the loop for the inputs
that call cannot read.

The sparse tables here are scipy's: the matrix's CSR, the node statistics
as incidence-matrix products, the Salton filter as a column slice,
CFAverage's means as sparse sums, and pair counts as the upper triangle of
``P.T @ P``.  The library builds the same arrays with numpy alone.

The report readers here go row by row: ``read_labels_csv`` and
``read_metrics_csv`` build per-row records and check each row as it comes,
and ``fit_additive_model``/``fit_level_model`` read those records, with
``_encode_sum_to_zero`` filling the design matrix one row at a time.
The library reads the same files into columns and checks them with array
operations.  ``observation_table``, ``observation_rows`` and
``label_dict`` convert between the library's columns and these row forms.

The query and CFAverage oracles here walk the tree by (level, id)
(``_top_down``); the library walks it in pre-order.  The tree and table
readers that only tests call live here too: ``index_of``, ``ancestors``,
``descendants`` (a stack walk), ``preorder_descendants`` (a run of the
library's pre-order), ``csr_get``, ``toarray``, ``dense_row``, ``freq_of``
and ``pairwise``.

Labels here are per-node lists of (term id, score) pairs; the library
holds each method's labels as one columnar ``LabelAssignment``.
``label_lists``, ``label_list``, ``label_terms``, ``assignment`` and
``label_columns`` convert between the two.

The scalar twins of the library's vectorised quantities live only here:
``score_mtwl_raw``, ``score_idf_global``, ``score_idf_local``,
``score_icf``, ``score_flat``, ``sibling_cf``, ``hier_weight``,
``cf_measure_leaf``, ``ContingencyCells``, ``contingency_popescul``,
``contingency_rcl``, ``chi2_2x2``, ``jsd_2x2``, ``pearson_chi2_children``,
``select_topk``, ``retrieve``, ``row_docs``, ``evaluate_node``,
``RetrievalMetrics``, ``metrics_from_counts`` and ``npmi``.
"""

import csv
import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from hierlabel.corpus import CSR, CellError, DocTermMatrix, utf8_fault
from hierlabel.errors import (ConfigError, NumericalError, ParseError,
                             ValidationError)
from hierlabel.labeling import LabelAssignment, _leaf_cf_row, _topk_arrays
from hierlabel import queryeval as qe
from hierlabel.cli import MEASURES
from hierlabel.stats import GlmFit


def index_of(hierarchy, node_id: int) -> int:
    """The internal index of an external node id."""
    return int(np.searchsorted(hierarchy.ids, node_id))


def ancestors(hierarchy, i: int) -> list:
    """Proper ancestors of node i, nearest first."""
    out = []
    while i != hierarchy.root:
        i = int(hierarchy.parent[i])
        out.append(i)
    return out


def _top_down(hierarchy) -> list:
    """Node indices by (level, id): parents before children, in another
    order than the library's pre-order walks."""
    return np.lexsort((hierarchy.ids, hierarchy.level)).tolist()


def csr_get(record: CSR, i: int, j: int):
    """Cell (i, j) of a CSR record, 0 when it is not stored."""
    idx, vals = record.row(i)
    k = int(np.searchsorted(idx, j))
    if k < idx.size and idx[k] == j:
        return vals[k]
    return record.data.dtype.type(0)


def toarray(record: CSR) -> np.ndarray:
    """A CSR record as a dense array."""
    out = np.zeros(record.shape, record.data.dtype)
    out[record.row_ids(), record.indices] = record.data
    return out


def dense_row(record: CSR, i: int) -> np.ndarray:
    """Row i of a CSR record as a dense array: ``toarray(record)[i]``
    without the other rows."""
    out = np.zeros(record.shape[1], record.data.dtype)
    idx, vals = record.row(i)
    out[idx] = vals
    return out


def freq_of(stats, i: int, term: int) -> int:
    return int(csr_get(stats.freq, i, term))


def score_mtwl_raw(stats, node: int, term: int) -> float:
    """Cumulated frequency of the term in the node's subtree."""
    return float(freq_of(stats, node, term))


def score_idf_global(stats, term: int) -> float:
    df = stats.global_df[term]
    if df == 0:
        return 0.0
    return math.log(stats.n_docs / df)


def score_idf_local(stats, node: int, term: int) -> float:
    p = int(stats.hierarchy.parent[node])
    df = int(csr_get(stats.docfreq, p, term))
    if df == 0:
        return 0.0
    return math.log(stats.node_size[p] / df)


def score_icf(stats, node: int, term: int) -> float:
    """Inverse cluster frequency: promotes terms concentrated in one sibling."""
    p = int(stats.hierarchy.parent[node])
    support = int(csr_get(stats.child_support, p, term))
    if support == 0:
        return 0.0
    frac = int(csr_get(stats.docfreq, node, term)) / stats.node_size[node]
    return math.exp(frac) * math.log(stats.child_count[p] / support + 1.0)


def score_flat(scheme: str, stats, node: int, term: int) -> float:
    f = score_mtwl_raw(stats, node, term)
    if f == 0.0:
        return 0.0
    if scheme == "MTWL_raw":
        return f
    if scheme == "MTWL_idf":
        return score_idf_global(stats, term) * score_idf_local(stats, node, term) * f
    if scheme == "ICWL_raw":
        return score_icf(stats, node, term) * f
    if scheme == "ICWL_idf":
        return (score_idf_global(stats, term) * score_idf_local(stats, node, term)
                * score_icf(stats, node, term) * f)
    raise ConfigError(f"unknown flat scheme {scheme!r}")


def sibling_cf(stats, node: int, term: int) -> float:
    """Fraction of the node's sibling group (its parent's direct children,
    the node included) whose subtree contains the term."""
    p = int(stats.hierarchy.parent[node])
    c = int(stats.child_count[p])
    if c == 0:
        return 0.0
    return int(csr_get(stats.child_support, p, term)) / c


def hier_weight(stats, node: int, term: int, value_fn) -> float:
    """Path-length-discounted sum over all proper descendants g:
    sum 1/e(node,g) * sibling_cf(g) * value_fn(g).  Leaves yield 0."""
    total = 0.0
    for g, e in descendants(stats.hierarchy, node):
        cf = sibling_cf(stats, g, term)
        if cf:
            total += cf * value_fn(g) / e
    return total


def cf_measure_leaf(stats, leaf: int, term: int) -> float:
    """Harmonic mean of clustering recall (leaf frequency over collection
    frequency) and clustering precision (leaf frequency over leaf mass)."""
    f = freq_of(stats, leaf, term)
    if f == 0:
        return 0.0
    recall = f / stats.global_freq[term]
    precision = f / stats.node_total[leaf]
    if recall == 0 or precision == 0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


@dataclass(frozen=True)
class ContingencyCells:
    """2x2 cell counts plus the total mass ``s`` used by the statistics."""
    tp: float
    fp: float
    fn: float
    tn: float
    s: float


def contingency_popescul(stats, parent: int, child: int,
                         term: int) -> ContingencyCells:
    """Child-versus-parent cells; s is the parent's total term mass."""
    tp = freq_of(stats, child, term)
    fn = int(stats.node_total[child]) - tp
    fp = freq_of(stats, parent, term) - tp
    s = int(stats.node_total[parent])
    tn = s - (tp + fn + fp)
    if min(tp, fn, fp, tn) < 0:
        raise ValidationError(
            f"negative contingency cell for node {child}, term {term}"
        )
    return ContingencyCells(tp, fp, fn, tn, s)


def contingency_rcl(stats, parent: int, node: int, term: int,
                    fp_mode: str = "corrected") -> ContingencyCells:
    """Node-versus-reference-collection cells.  The reference collection is
    the parent's subtree minus the node's own documents, so ``s`` counts
    reference mass only and fp + tn = s; tp/fn carry the node-side mass."""
    tp = freq_of(stats, node, term)
    fn = int(stats.node_total[node]) - tp
    s = int(stats.node_total[parent]) - int(stats.node_total[node])
    fp = freq_of(stats, parent, term) - tp
    if fp_mode == "literal":
        fp = max(fp - tp, 0)
    if fp < 0:
        raise ValidationError(
            f"negative reference count for node {node}, term {term}"
        )
    tn = s - fp
    return ContingencyCells(tp, fp, fn, tn, s)


def chi2_2x2(cells: ContingencyCells) -> float:
    """(tp*tn - fn*fp)^2 * s / product of the four marginals; 0 whenever a
    marginal is not strictly positive."""
    tp, fp, fn, tn = (float(cells.tp), float(cells.fp),
                      float(cells.fn), float(cells.tn))
    m1, m2, m3, m4 = tp + fn, fp + tn, tp + fp, fn + tn
    if min(m1, m2, m3, m4) <= 0:
        return 0.0
    return (tp * tn - fn * fp) ** 2 * float(cells.s) / (m1 * m2 * m3 * m4)


def jsd_2x2(cells: ContingencyCells) -> float:
    """The four-term divergence expression evaluated literally in log base 2,
    with x*log2(y) treated as 0 whenever x = 0."""
    tp, fp, fn, tn = (float(cells.tp), float(cells.fp),
                      float(cells.fn), float(cells.tn))
    node_mass = tp + fn
    grand = tp + fp + fn + tn
    if node_mass <= 0 or grand <= 0:
        return 0.0
    p = tp / node_mass
    q = (tp + fp) / grand
    mid = 0.5 * (p + q)
    out = 0.0
    if p > 0:
        out += p * (math.log2(p) - math.log2(mid))
    if q > 0:
        out += q * (math.log2(q) - math.log2(mid))
    return out


def pearson_chi2_children(stats, node: int, term: int):
    """Full c x 2 Pearson statistic of the term's distribution over the
    node's direct children, with c - 1 degrees of freedom.  Each child
    with mass adds its term cell, then its rest-of-mass cell, (observed -
    expected)^2 / expected over the cells whose expected count is
    positive."""
    c = int(stats.child_count[node])
    if c == 0:
        raise ValidationError(f"node {node} is a leaf; no children to test")
    f = float(freq_of(stats, node, term))
    s = float(stats.node_total[node])
    stat = 0.0
    for ch in stats.hierarchy.children[node].tolist():
        t_j = float(stats.node_total[ch])
        if t_j == 0:
            continue
        o = float(freq_of(stats, ch, term))
        for observed, expected in ((o, t_j * f / s),
                                   (t_j - o, t_j * (s - f) / s)):
            if expected > 0:
                d = observed - expected
                stat += d * d / expected
    return stat, c - 1


def select_topk(pairs, p_cap: int, freqs) -> list:
    """Rank (term, score) pairs: positive scores only, sorted by score desc,
    then node frequency desc (from ``freqs``), then term id asc; cap at P."""
    if p_cap < 1:
        raise ConfigError("p_cap must be >= 1")
    if not pairs:
        return []
    terms = np.asarray([t for t, _ in pairs], np.int64)
    scores = np.asarray([s for _, s in pairs], np.float64)
    tie = np.asarray([freqs[t] for t in terms], np.float64)
    return ranked_pairs(_topk_arrays(terms, scores, tie, p_cap))


def ranked_pairs(ranked) -> list:
    """The (term id, score) list of ``_topk_arrays``' arrays."""
    terms, scores = ranked
    return list(zip(terms.tolist(), scores.tolist()))


def label_list(assignment, node: int) -> list:
    """[(term id, score)] of one node of a LabelAssignment, in rank
    order."""
    lo, hi = assignment.indptr[node], assignment.indptr[node + 1]
    return list(zip(assignment.term[lo:hi].tolist(),
                    assignment.score[lo:hi].tolist()))


def label_terms(assignment, node: int) -> list:
    """The term ids of one node of a LabelAssignment, in rank order."""
    return [t for t, _ in label_list(assignment, node)]


def label_lists(assignment) -> dict:
    """node index -> [(term id, score)] of every node of a
    LabelAssignment."""
    return {i: label_list(assignment, i)
            for i in range(assignment.indptr.size - 1)}


def assignment(method: str, lists: dict, n_nodes: int) -> LabelAssignment:
    """The LabelAssignment of node index -> [(term id, score)] lists; a
    node that ``lists`` lacks has no label."""
    return LabelAssignment.from_ranked(method, [
        (np.array([t for t, _ in lists.get(i, [])], np.int64),
         np.array([v for _, v in lists.get(i, [])], np.float64))
        for i in range(n_nodes)])


def label_columns(labels: dict) -> dict:
    """``score_labels``' input of method -> {node id: [term ids in rank
    order]}: method -> (indptr, term ids), the labels in the dicts'
    order."""
    out = {}
    for method, per in labels.items():
        indptr = np.zeros(len(per) + 1, np.int64)
        np.cumsum([len(terms) for terms in per.values()], out=indptr[1:])
        out[method] = (indptr, np.array(
            [t for terms in per.values() for t in terms], np.int64))
    return out


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


def specific_query(terms):
    """The query object of a library specific query, a term-id tuple or
    None: a bare Term for one term, an Or of Terms for more."""
    if terms is None:
        return None
    if len(terms) == 1:
        return Term(terms[0])
    return Or(tuple(map(Term, terms)))


def generic_query(conjuncts):
    """The query object of a library generic query, a tuple of specific
    term tuples or None: a lone conjunct bare, more of them in an And."""
    if conjuncts is None:
        return None
    parts = tuple(map(specific_query, conjuncts))
    return parts[0] if len(parts) == 1 else And(parts)


def query_to_prefix(query) -> str:
    """Parenthesized prefix notation, e.g. (AND (OR t12 t77) (OR t3))."""
    if query is None:
        return "()"
    if isinstance(query, Term):
        return f"t{query.term}"
    op = "OR" if isinstance(query, Or) else "AND"
    return "(" + op + " " + " ".join(query_to_prefix(c)
                                     for c in query.children) + ")"


def _mask(matrix: DocTermMatrix, query) -> np.ndarray:
    if isinstance(query, Term):
        if not (0 <= query.term < matrix.n_terms):
            raise ValidationError(f"query term {query.term} out of range")
        mask = np.zeros(matrix.n_docs, bool)
        c = matrix.csr
        mask[c.row_ids()[c.indices == query.term]] = True
        return mask
    masks = [_mask(matrix, c) for c in query.children]
    combine = np.logical_or if isinstance(query, Or) else np.logical_and
    return combine.reduce(masks)


def row_docs(row) -> set:
    """The documents that a packed row of ``corpus.set_bits``'s form
    holds: d where bit d % 64 of word d // 64 is set."""
    return {64 * w + b for w, word in enumerate(row.tolist()) if word
            for b in range(64) if word >> b & 1}


def retrieve(matrix: DocTermMatrix, query) -> set:
    """Documents satisfying the query; presence-only semantics."""
    if query is None:
        return set()
    return set(np.flatnonzero(_mask(matrix, query)).tolist())


@dataclass(frozen=True)
class RetrievalMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f: float


def metrics_from_counts(tp, n_retrieved, n_group) -> tuple:
    """(precision, recall, f) of a retrieved set holding ``tp`` of the
    node's ``n_group`` documents."""
    precision = tp / n_retrieved if n_retrieved else 0.0
    recall = tp / n_group if n_group else 0.0
    # zero rule: with either factor zero the harmonic mean is taken as 0
    f = 2.0 * precision * recall / (precision + recall) \
        if precision > 0 and recall > 0 else 0.0
    return precision, recall, f


def evaluate_node(hierarchy, node: int, retrieved) -> RetrievalMetrics:
    """Counts by set membership, then ``metrics_from_counts``."""
    docset = hierarchy.docsets[node]
    if len(docset) == 0:
        raise ValidationError(f"node {node} has an empty document set")
    got = retrieved if isinstance(retrieved, set) else set(retrieved)
    tp = sum(1 for d in docset if int(d) in got)
    fp = len(got) - tp
    fn = len(docset) - tp
    # every document sits in one leaf, so the root's docset is them all
    tn = len(hierarchy.docsets[hierarchy.root]) - tp - fp - fn
    return RetrievalMetrics(tp, fp, fn, tn,
                            *metrics_from_counts(tp, len(got), len(docset)))


def pairwise(counts, a: int, b: int) -> int:
    """The windows holding both terms: a term's unary count with itself, 0
    when either term is not counted."""
    if a == b:
        return int(counts.unary[a])
    [key] = counts.row_pairs(np.array([a]), np.array([b]))
    return int(counts.count_row_pairs(np.array([key]))[0]) if key >= 0 else 0


def npmi(counts, a: int, b: int, epsilon: float = 0.0) -> float:
    """Normalized PMI in [-1, 1]; 0 when either term never occurs in the
    reference, -1 for a zero joint count (or the epsilon-smoothed value
    when ``epsilon`` > 0), 1 for perfect co-occurrence."""
    ua, ub = int(counts.unary[a]), int(counts.unary[b])
    if ua == 0 or ub == 0:
        return 0.0
    joint = pairwise(counts, a, b)
    n = counts.n_windows
    p_ab = joint / n
    if joint == 0:
        if epsilon <= 0:
            return -1.0
        p_ab = epsilon
    if p_ab >= 1.0:
        return 1.0
    val = math.log(p_ab / ((ua / n) * (ub / n))) / (-math.log(p_ab))
    # the bound holds analytically; clamp float roundoff
    return max(-1.0, min(1.0, val))


def _or_of(parts):
    """Canonical OR: nested ORs flattened, structural duplicates dropped,
    a single remaining operand returned bare."""
    flat = []
    for p in parts:
        for q in (p.children if isinstance(p, Or) else (p,)):
            if q not in flat:
                flat.append(q)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def specific_queries(hierarchy, labels) -> dict:
    """Node index -> specific query (None for unretrievable nodes)."""
    n = hierarchy.n_nodes
    own = {}
    for i in range(n):
        terms = label_terms(labels, i)
        own[i] = _or_of(Term(t) for t in terms) if terms else None

    down = dict(own)
    for i in reversed(_top_down(hierarchy)):
        if down[i] is not None or not hierarchy.children[i].size:
            continue
        down[i] = _or_of(down[int(c)] for c in hierarchy.children[i]
                         if down[int(c)] is not None)

    out = {}
    nearest = {hierarchy.root: None}
    for i in _top_down(hierarchy):
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


def generic_queries(hierarchy, specific: dict) -> dict:
    """AND of each node's specific query onto its ancestors' conjuncts,
    structurally duplicate conjuncts skipped."""
    conjuncts = {}
    out = {}
    for i in _top_down(hierarchy):
        base = ([] if i == hierarchy.root
                else list(conjuncts[int(hierarchy.parent[i])]))
        q = specific.get(i)
        if q is not None and q not in base:
            base.append(q)
        conjuncts[i] = base
        if not base:
            out[i] = None
        elif len(base) == 1:
            out[i] = base[0]
        else:
            out[i] = And(tuple(base))
    return out


def oc_npmi(counts, label_terms, p_cap, epsilon=0.0, aggregate="sum"):
    """NPMI summed (or averaged) over the pairs i > j of the top-P label
    terms, added in that loop order; fewer than two terms score 0."""
    terms = list(label_terms)[:p_cap]
    if len(terms) < 2:
        return 0.0
    total = 0.0
    n_pairs = 0
    for i in range(1, len(terms)):
        for j in range(i):
            total += npmi(counts, terms[i], terms[j], epsilon)
            n_pairs += 1
    if aggregate == "mean":
        return total / n_pairs
    return total


def preorder_descendants(hierarchy, i):
    """(descendant, edge distance) pairs of node i's proper descendants as
    the hierarchy's pre-order holds them: the run of deeper nodes right
    after i."""
    order = hierarchy.preorder.tolist()
    lvl = int(hierarchy.level[i])
    out = []
    for g in order[order.index(i) + 1:]:
        if hierarchy.level[g] <= lvl:
            break
        out.append((g, int(hierarchy.level[g]) - lvl))
    return out


def descendants(hierarchy, i):
    """(descendant, edge distance) pairs of node i by a stack walk that
    pushes the children in declared order."""
    out = []
    stack = [(int(c), 1) for c in hierarchy.children[i]]
    while stack:
        g, e = stack.pop()
        out.append((g, e))
        for c in hierarchy.children[g]:
            stack.append((int(c), e + 1))
    return out


def chi2_masked(tp, fn, fp, tn, s):
    m1, m2, m3, m4 = tp + fn, fp + tn, tp + fp, fn + tn
    denom = m1 * m2 * m3 * m4
    ok = (np.minimum(np.minimum(m1, m2), np.minimum(m3, m4)) > 0)
    out = np.zeros_like(tp)
    np.divide((tp * tn - fn * fp) ** 2 * s, denom, out=out, where=ok)
    return out


def jsd_masked(tp, fn, fp, tn):
    node_mass = tp + fn
    grand = tp + fp + fn + tn
    out = np.zeros_like(tp)
    valid = (node_mass > 0) & (grand > 0)
    if not valid.any():
        return out
    p = np.divide(tp, node_mass, out=np.zeros_like(tp), where=valid)
    q = np.divide(tp + fp, grand, out=np.zeros_like(tp), where=valid)
    mid = 0.5 * (p + q)
    for x in (p, q):
        pos = valid & (x > 0)
        out[pos] += x[pos] * (np.log2(x[pos]) - np.log2(mid[pos]))
    return out


def topk(term_ids, scores, tie_freq, p_cap):
    """Positive scores by (score desc, tie_freq desc, term id asc), capped."""
    pos = scores > 0
    t, sc, fr = term_ids[pos], scores[pos], tie_freq[pos]
    order = np.lexsort((t, -fr, -sc))[:p_cap]
    return [(int(t[i]), float(sc[i])) for i in order]


def rcl(stats, method, cfg):
    """RCL_chi2 / RCL_jsd: each node against its parent's subtree less the
    node itself, on dense rows."""
    out = {}
    all_terms = np.arange(stats.n_terms, dtype=np.int64)
    for i in range(stats.n_nodes):
        p = int(stats.hierarchy.parent[i])
        tp = dense_row(stats.freq, i).astype(np.float64)
        fn = float(stats.node_total[i]) - tp
        fp = dense_row(stats.freq, p).astype(np.float64) - tp
        if cfg.rcl_fp == "literal":
            fp = np.maximum(fp - tp, 0.0)
        s = float(stats.node_total[p]) - float(stats.node_total[i])
        tn = s - fp
        if method == "RCL_chi2":
            v = chi2_masked(tp, fn, fp, tn, s)
        else:
            v = jsd_masked(tp, fn, fp, tn)
        out[i] = topk(all_terms, v, tp, cfg.p_cap)
    return assignment(method, out, stats.n_nodes)


def children_max_2x2(stats, node):
    """The largest per-child 2x2 chi-square of each term over the node's
    children (the ``per_child_2x2`` reading), on dense rows."""
    f_node = dense_row(stats.freq, node).astype(np.float64)
    s = float(stats.node_total[node])
    best = np.zeros(stats.n_terms)
    for ch in stats.hierarchy.children[node]:
        tp = dense_row(stats.freq, int(ch)).astype(np.float64)
        fn = float(stats.node_total[int(ch)]) - tp
        fp = f_node - tp
        tn = s - (tp + fn + fp)
        best = np.maximum(best, chi2_masked(tp, fn, fp, tn, s))
    return best


def hier_rcl(stats, method, cfg):
    """HierRCL_chi2 / HierRCL_jsd: for each node, the discounted sum over
    its descendants of sibling_cf times the 2x2 statistic, on dense rows."""
    h = stats.hierarchy
    out = {}
    all_terms = np.arange(stats.n_terms, dtype=np.int64)

    def frow(i):
        return dense_row(stats.freq, i).astype(np.float64)

    for i in range(stats.n_nodes):
        desc = descendants(h, i)
        if not desc:
            continue
        s = float(stats.node_total[int(h.parent[i])])
        acc = np.zeros(stats.n_terms)
        for g, e in desc:
            pg = int(h.parent[g])
            tp = frow(g)
            fn = float(stats.node_total[g]) - tp
            fp = frow(pg) - tp
            if cfg.rcl_fp == "literal":
                fp = np.maximum(fp - tp, 0.0)
            tn = s - (tp + fn + fp)
            if method == "HierRCL_chi2":
                v = chi2_masked(tp, fn, fp, tn, s)
            else:
                v = jsd_masked(tp, fn, fp, tn)
            cf = (dense_row(stats.child_support, pg)
                  / int(stats.child_count[pg]))
            acc += cf * v / e
        out[i] = topk(all_terms, acc, frow(i), cfg.p_cap)
    return assignment(method, out, stats.n_nodes)


def hier_base(stats):
    """S = sum_d (C^d U) / d as sparse matrices, U[g] = sibling_cf(g) *
    freq[g]; rows in canonical (sorted) form."""
    n, m = stats.n_nodes, stats.n_terms
    u = sp.lil_matrix((n, m))
    for g in range(n):
        p = int(stats.hierarchy.parent[g])
        c = int(stats.child_count[p])
        if c:
            f = dense_row(stats.freq, g).astype(np.float64)
            cf = dense_row(stats.child_support, p).astype(np.float64) / c
            nz = np.flatnonzero(f)
            u[g, nz] = cf[nz] * f[nz]
    child = child_incidence(stats.hierarchy).astype(np.float64)
    x = (child @ u.tocsr()).tocsr()
    total = x.copy()
    depth = 1
    while x.nnz:
        x = (child @ x).tocsr()
        depth += 1
        if x.nnz:
            total = (total + x / depth).tocsr()
    total.sort_indices()
    return total


def load_matrix(path):
    """The triplet reader as a loop over ``str.splitlines``: each line
    stripped, split on whitespace and read with ``int``; the counts' sum
    is a Python int."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise utf8_fault(path, splitlines=True)[1] from None
    if not lines:
        raise ParseError(f"{path}:1: missing header line")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"{path}:1: header must be 'n_docs n_terms'")
    try:
        n_docs, n_terms = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"{path}:1: non-integer header") from None
    if n_docs < 0 or n_terms < 0:
        raise ParseError(f"{path}:1: negative dimension")
    if n_docs * n_terms >= 1 << 63:
        raise ParseError(f"{path}:1: more cells than 64-bit ids can number")
    docs, terms, counts, at = [], [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected 'doc term count'")
        try:
            d, t, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"{path}:{ln}: non-integer field") from None
        docs.append(d)
        terms.append(t)
        counts.append(c)
        at.append(ln)
    try:
        matrix = DocTermMatrix.from_cells(n_docs, n_terms, docs, terms,
                                          counts)
    except CellError as e:
        raise ValidationError(f"{path}:{at[e.row]}: {e}") from None
    except OverflowError:
        ln = next(ln for ln, line in enumerate(lines[1:], start=2)
                  if not all(-(1 << 63) <= int(x) < 1 << 63
                             for x in line.split()))
        raise ParseError(f"{path}:{ln}: value does not fit in 64 bits") \
            from None
    if sum(counts) >= 1 << 53:
        raise ValidationError(f"{path}: the counts sum to 2^53 or more, "
                              f"beyond exact float64 sums")
    return matrix


def to_scipy(record: CSR) -> sp.csr_matrix:
    return sp.csr_matrix((record.data, record.indices, record.indptr),
                         shape=record.shape)


def csr_from_cells(n_docs, n_terms, docs, terms, counts) -> sp.csr_matrix:
    """The matrix of valid, distinct cells as scipy builds it."""
    csr = sp.csr_matrix(
        (np.asarray(counts, np.int64),
         (np.asarray(docs, np.int64), np.asarray(terms, np.int64))),
        shape=(n_docs, n_terms), dtype=np.int64)
    csr.sort_indices()
    return csr


def scale(matrix: DocTermMatrix, factor: int) -> DocTermMatrix:
    """All counts multiplied by a positive integer."""
    if factor <= 0:
        raise ValidationError("scale factor must be positive")
    c = matrix.csr
    return DocTermMatrix(matrix.n_docs, matrix.n_terms,
                         CSR(c.indptr, c.indices, c.data * int(factor),
                             c.shape))


def child_incidence(hierarchy) -> sp.csr_matrix:
    """C[i, c] = 1 for every child c of i."""
    n = hierarchy.n_nodes
    rows = np.repeat(np.arange(n), [len(c) for c in hierarchy.children])
    cols = np.concatenate([np.asarray(c, np.int64)
                           for c in hierarchy.children])
    return sp.csr_matrix((np.ones(rows.size, np.int64), (rows, cols)),
                         shape=(n, n))


def node_stats(matrix: DocTermMatrix, hierarchy):
    """(freq, docfreq, child_support) as products of the node-document and
    child incidence matrices, in canonical form."""
    n = hierarchy.n_nodes
    rows = np.repeat(np.arange(n), [len(d) for d in hierarchy.docsets])
    cols = np.concatenate(hierarchy.docsets)
    incidence = sp.csr_matrix((np.ones(rows.size, np.int64), (rows, cols)),
                              shape=(n, matrix.n_docs))
    csr = to_scipy(matrix.csr)
    presence = csr.copy()
    presence.data = np.ones_like(presence.data)
    freq = (incidence @ csr).tocsr()
    docfreq = (incidence @ presence).tocsr()
    present = docfreq.copy()
    present.data = np.ones_like(present.data)
    support = (child_incidence(hierarchy) @ present).tocsr()
    for table in (freq, docfreq, support):
        table.sort_indices()
    return freq, docfreq, support


def df_filter_slice(matrix: DocTermMatrix, kept) -> sp.csr_matrix:
    """The matrix with the columns of the terms ``kept`` (a bool mask) does
    not mark emptied, at the same width."""
    sub = (to_scipy(matrix.csr)
           @ sp.diags([kept.astype(np.int64)], [0], dtype=np.int64)).tocsr()
    sub.eliminate_zeros()
    sub.sort_indices()
    return sub


def cf_average(stats, cfg) -> LabelAssignment:
    """CFAverage with each node's row a sparse matrix: the children's rows
    added in declared order, then divided by the child count."""
    h = stats.hierarchy
    rows = [None] * stats.n_nodes
    for i in reversed(_top_down(h)):
        if not h.children[i].size:
            idx, cf = _leaf_cf_row(stats, i)
            rows[i] = sp.csr_matrix((cf, (np.zeros(idx.size, np.int64), idx)),
                                    shape=(1, stats.n_terms))
        else:
            kids = h.children[i]
            acc = rows[int(kids[0])].copy()
            for ch in kids[1:]:
                acc = acc + rows[int(ch)]
            rows[i] = acc / len(kids)
    out = {}
    for i in range(stats.n_nodes):
        r = rows[i].tocsr()
        idx = r.indices.astype(np.int64)
        tie = dense_row(stats.freq, i)[idx].astype(np.float64)
        out[i] = ranked_pairs(_topk_arrays(
            idx, r.data.astype(np.float64), tie, cfg.p_cap))
    return assignment("CFAverage", out, stats.n_nodes)


def cooccurrence(corpus, vocab, restrict_terms=None):
    """(unary, pair keys a * m + b with a < b, pair counts) for every pair
    of counted terms that share a window, from the upper triangle of
    ``P.T @ P`` with P the window x term presence matrix."""
    m = len(vocab)
    terms = (np.arange(m, dtype=np.int64) if restrict_terms is None
             else np.unique(np.asarray(list(restrict_terms), np.int64)))
    column = {vocab.surfaces[t]: k for k, t in enumerate(terms.tolist())}
    rows, cols = [], []
    for d, doc in enumerate(corpus):
        for tok in doc.split():
            if tok in column:
                rows.append(d)
                cols.append(column[tok])
    presence = sp.csr_matrix(
        (np.ones(len(cols), np.int32), (rows, cols)),
        shape=(len(corpus), terms.size))
    presence.data[:] = 1
    unary = np.zeros(m, np.int64)
    unary[terms] = np.bincount(presence.indices, minlength=terms.size)
    joint = (presence.T @ presence).tocsr()
    joint.sort_indices()
    row = np.repeat(np.arange(terms.size), np.diff(joint.indptr))
    upper = joint.indices > row
    keys = terms[row[upper]] * m + terms[joint.indices[upper]]
    return unary, keys, joint.data[upper].astype(np.int64)


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

    def values(self, measure: str) -> np.ndarray:
        return np.asarray([r.measure(measure) for r in self.rows])


def observation_table(rows) -> qe.ObservationTable:
    """The library's columns of a list of ObservationRows."""
    names = tuple(dict.fromkeys(r.method for r in rows))
    return qe.ObservationTable(
        names,
        np.array([names.index(r.method) for r in rows], np.int64),
        np.array([r.node_id for r in rows], np.int64),
        np.array([r.level for r in rows], np.int64),
        np.array([qe.KINDS.index(r.kind) for r in rows], np.int64),
        *(np.array([r.measure(m) for r in rows], np.float64)
          for m in ("precision", "recall", "f")))


def observation_rows(table) -> list:
    """The ObservationRows of the library's columns, in table order."""
    return [ObservationRow(table.method_names[m], nid, lvl, qe.KINDS[k],
                           p, r, f)
            for m, nid, lvl, k, p, r, f in zip(
                table.method.tolist(), table.node_id.tolist(),
                table.level.tolist(), table.kind.tolist(),
                table.precision.tolist(), table.recall.tolist(),
                table.f.tolist())]


def label_dict(columns) -> dict:
    """method -> {node_id: [(original term id, score)] in rank order} of
    the library's labels.csv columns, as ``read_labels_csv`` returns it."""
    out = {}
    for m, nid, t, s in zip(columns.method.tolist(), columns.node_id.tolist(),
                            columns.term.tolist(), columns.score.tolist()):
        out.setdefault(columns.method_names[m], {}).setdefault(
            nid, []).append((t, s))
    return out


def _report_rows(path, columns):
    """Yield (line number, the fields named by ``columns``, in that order)
    for each row of a report CSV; blank lines are skipped.  A header that
    lacks one of ``columns``, a row whose width differs from the header's,
    undecodable text and broken CSV quoting are ParseErrors naming the file
    and the line."""
    reader = csv.reader(_decoded_lines(path))
    try:
        header = next(reader, [])
        # a repeated column name counts at its last position
        at = {name: k for k, name in enumerate(header)}
        absent = [c for c in columns if c not in at]
        if absent:
            raise ParseError(f"{path}:1: header lacks column(s) "
                             + ", ".join(absent))
        pick = operator.itemgetter(*(at[c] for c in columns))
        width = len(header)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise _bad_row(path, reader.line_num,
                               f"{len(row)} fields, the header has "
                               f"{width}")
            yield reader.line_num, pick(row)
    except csv.Error as e:
        raise ParseError(f"{path}:{reader.line_num}: {e}") from None


def _decoded_lines(path):
    """The file's lines as csv.reader counts them (ended by \\n, \\r\\n or
    \\r), each decoded on its own; the first line that is not UTF-8 is a
    ParseError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    for k, line in enumerate(data.splitlines(keepends=True), 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}:{k}: not UTF-8 text ({e.reason})") \
                from None


def _bad_row(path, line, e) -> ParseError:
    return ParseError(f"{path}:{line}: malformed row ({e})")


def read_labels_csv(path) -> dict:
    """method -> {node_id: [(original term id, score)] in rank order}; at
    most one row per method, node and rank."""
    out = {}
    first = {}                  # (method, node, rank) -> line
    for line, (method, nid, rank, term, score) in _report_rows(
            path, ("method", "node_id", "rank", "term_id", "score")):
        try:
            nid = int(nid)
            entry = (int(rank), int(term), float(score))
        except ValueError as e:
            raise _bad_row(path, line, e) from None
        seen = first.setdefault((method, nid, entry[0]), line)
        if seen != line:
            raise _bad_row(path, line, f"repeats the row of line {seen}")
        out.setdefault(method, {}).setdefault(nid, []).append(entry)
    for per_node in out.values():
        for nid, entries in per_node.items():
            entries.sort()
            per_node[nid] = [(t, s) for _, t, s in entries]
    return out


def read_metrics_csv(path) -> ObservationTable:
    """The observations of a metrics.csv: at most one row per method, node
    and query kind, every measure a number in [0, 1]."""
    table = ObservationTable()
    first = {}                  # (method, node, kind) -> line
    for line, (method, nid, level, kind, *values) in _report_rows(
            path, ("method", "node_id", "level", "kind", *MEASURES)):
        try:
            nid, level = int(nid), int(level)
            precision, recall, f = map(float, values)
        except ValueError as e:
            raise _bad_row(path, line, e) from None
        if not (0 <= precision <= 1 and 0 <= recall <= 1 and 0 <= f <= 1):
            name, value = next((name, value) for name, value in zip(
                MEASURES, (precision, recall, f)) if not 0 <= value <= 1)
            raise _bad_row(path, line, f"{name} {value} is not in [0, 1]")
        seen = first.setdefault((method, nid, kind), line)
        if seen != line:
            raise _bad_row(path, line, f"repeats the row of line {seen}")
        table.rows.append(ObservationRow(
            method=method, node_id=nid, level=level, kind=kind,
            precision=precision, recall=recall, f=f,
        ))
    return table


def _encode_sum_to_zero(values, levels):
    """n x (k-1) sum-to-zero contrast columns for one categorical factor."""
    k = len(levels)
    pos = {lv: j for j, lv in enumerate(levels)}
    x = np.zeros((len(values), k - 1))
    for i, v in enumerate(values):
        j = pos[v]
        if j < k - 1:
            x[i, j] = 1.0
        else:
            x[i, :] = -1.0
    return x


def _fit(y, factor_values: dict, factor_levels: dict) -> GlmFit:
    n = y.size
    names = list(factor_values)
    blocks = [np.ones((n, 1))]
    for name in names:
        levels = factor_levels[name]
        if len(levels) < 2:
            raise NumericalError(
                f"factor {name!r} needs at least two levels, got {levels}"
            )
        counts = {lv: 0 for lv in levels}
        for v in factor_values[name]:
            if v not in counts:
                raise NumericalError(f"unexpected {name} level {v!r}")
            counts[v] += 1
        empty = [lv for lv, c in counts.items() if c == 0]
        if empty:
            raise NumericalError(
                f"factor {name!r} level {empty[0]!r} has no observations"
            )
        blocks.append(_encode_sum_to_zero(factor_values[name], levels))
    x = np.hstack(blocks)
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    rss = float(resid @ resid)
    df = n - int(rank)
    resid_var = rss / df if df > 0 else 0.0

    mu = float(beta[0])
    effects, adjusted, sizes = {}, {}, {}
    col = 1
    for name in names:
        levels = factor_levels[name]
        k = len(levels)
        coef = beta[col:col + k - 1]
        col += k - 1
        eff = {lv: float(coef[j]) for j, lv in enumerate(levels[:-1])}
        eff[levels[-1]] = float(-coef.sum())
        effects[name] = eff
        adjusted[name] = {lv: mu + e for lv, e in eff.items()}
        cnt = {lv: 0 for lv in levels}
        for v in factor_values[name]:
            cnt[v] += 1
        sizes[name] = cnt
    return GlmFit(
        mu=mu, factors={n_: list(factor_levels[n_]) for n_ in names},
        effects=effects, adjusted_means=adjusted, group_sizes=sizes,
        resid_var=resid_var, df_resid=df,
    )


def fit_additive_model(table: ObservationTable, measure: str,
                       methods=None) -> GlmFit:
    """measure ~ mean + hierarchy level + labeling method, least squares.

    The table must already be restricted to a single query kind.  The
    factor levels come from the data; a ``methods`` list pins the method
    factor's.
    """
    if not table.rows:
        raise NumericalError("empty observation table")
    y = table.values(measure).astype(np.float64)
    lv = [r.level for r in table.rows]
    mt = [r.method for r in table.rows]
    methods = list(methods) if methods is not None else table.methods()
    return _fit(y, {"level": lv, "method": mt},
                {"level": sorted(set(lv)), "method": methods})


def fit_level_model(table: ObservationTable, measure: str) -> GlmFit:
    """measure ~ mean + hierarchy level, for a single method's rows."""
    if not table.rows:
        raise NumericalError("empty observation table")
    methods = {r.method for r in table.rows}
    if len(methods) > 1:
        raise NumericalError(
            f"level model expects one method, got {sorted(methods)}"
        )
    y = table.values(measure).astype(np.float64)
    lv = [r.level for r in table.rows]
    return _fit(y, {"level": lv}, {"level": sorted(set(lv))})
