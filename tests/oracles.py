"""Reference implementations that the tests compare the library against.

The query derivation here is the direct structural one: queries are built
as Term/Or/And objects from the start, ORs are canonicalised by a linear
membership scan, and generic conjuncts are deduplicated by structural
equality.  The library derives the same queries from term-id tuples.

Observed coherence here is the scalar pair loop over ``npmi``;
the library scores every pair of a method in one vectorised pass.

The Hier frequency base here is the sparse matrix-power sum; the library
adds the same terms into dense rows.

HierRCL here is the per-(node, descendant) loop over dense term rows, with
the descendants found by a stack walk and the 2x2 statistics evaluated
under masks; the library scores each descendant once, against all its
ancestors, on a sparse row.  Top-P here sorts every positive score; the
library partitions first.

The matrix reader here parses every line in a Python loop; the library
parses the triplets in one numpy call and keeps the loop for the inputs
that call cannot read.

The sparse tables here are scipy's: the matrix's CSR, the node statistics
as incidence-matrix products, the Salton filter as a column slice,
CFAverage's means as sparse sums, and pair counts as the upper triangle of
``P.T @ P``.  The library builds the same arrays with numpy alone.

The scalar twins of the library's vectorised quantities live only here:
``score_mtwl_raw``, ``score_idf_global``, ``score_idf_local``,
``score_icf``, ``score_flat``, ``sibling_cf``, ``hier_weight``,
``cf_measure_leaf``, ``ContingencyCells``, ``contingency_popescul``,
``contingency_rcl``, ``chi2_2x2``, ``jsd_2x2``, ``pearson_chi2_children``,
``select_topk``, ``retrieve``, ``evaluate_node``, ``RetrievalMetrics``
and ``npmi``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from hierlabel.corpus import CSR, DocTermMatrix, utf8_error
from hierlabel.errors import ConfigError, ParseError, ValidationError
from hierlabel.labeling import (LabelAssignment, _children_chi2_vec,
                                _leaf_cf_row, _topk_arrays)
from hierlabel.queryeval import And, Or, Term, _eval_mask, _metrics_from_counts


def score_mtwl_raw(stats, node: int, term: int) -> float:
    """Cumulated frequency of the term in the node's subtree."""
    return float(stats.freq_of(node, term))


def score_idf_global(stats, term: int) -> float:
    df = stats.global_df[term]
    if df == 0:
        return 0.0
    return math.log(stats.n_docs / df)


def score_idf_local(stats, node: int, term: int) -> float:
    p = int(stats.parent_or_self[node])
    df = int(stats.docfreq.get(p, term))
    if df == 0:
        return 0.0
    return math.log(stats.node_size[p] / df)


def score_icf(stats, node: int, term: int) -> float:
    """Inverse cluster frequency: promotes terms concentrated in one sibling."""
    p = int(stats.parent_or_self[node])
    support = int(stats.child_support.get(p, term))
    if support == 0:
        return 0.0
    frac = int(stats.docfreq.get(node, term)) / stats.node_size[node]
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
    p = int(stats.parent_or_self[node])
    c = int(stats.child_count[p])
    if c == 0:
        return 0.0
    return int(stats.child_support.get(p, term)) / c


def hier_weight(stats, node: int, term: int, value_fn) -> float:
    """Path-length-discounted sum over all proper descendants g:
    sum 1/e(node,g) * sibling_cf(g) * value_fn(g).  Leaves yield 0."""
    total = 0.0
    for g, e in stats.hierarchy.descendants(node):
        cf = sibling_cf(stats, g, term)
        if cf:
            total += cf * value_fn(g) / e
    return total


def cf_measure_leaf(stats, leaf: int, term: int) -> float:
    """Harmonic mean of clustering recall (leaf frequency over collection
    frequency) and clustering precision (leaf frequency over leaf mass)."""
    f = stats.freq_of(leaf, term)
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
    tp = stats.freq_of(child, term)
    fn = int(stats.node_total[child]) - tp
    fp = stats.freq_of(parent, term) - tp
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
    tp = stats.freq_of(node, term)
    fn = int(stats.node_total[node]) - tp
    s = int(stats.node_total[parent]) - int(stats.node_total[node])
    fp = stats.freq_of(parent, term) - tp
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
    node's direct children, with c - 1 degrees of freedom."""
    c = int(stats.child_count[node])
    if c == 0:
        raise ValidationError(f"node {node} is a leaf; no children to test")
    stat = _children_chi2_vec(stats, node)[term]
    return float(stat), c - 1


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
    return _topk_arrays(terms, scores, tie, p_cap)


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


def evaluate_node(hierarchy, node: int, retrieved) -> RetrievalMetrics:
    """Counts by set membership; precision, recall and F by the library."""
    docset = hierarchy.docsets[node]
    if len(docset) == 0:
        raise ValidationError(f"node {node} has an empty document set")
    got = retrieved if isinstance(retrieved, set) else set(retrieved)
    tp = sum(1 for d in docset if int(d) in got)
    fp = len(got) - tp
    fn = len(docset) - tp
    tn = hierarchy.n_docs - tp - fp - fn
    return RetrievalMetrics(tp, fp, fn, tn,
                            *_metrics_from_counts(tp, len(got), len(docset)))


def npmi(counts, a: int, b: int, epsilon: float = 0.0) -> float:
    """Normalized PMI in [-1, 1]; 0 when either term never occurs in the
    reference, -1 for a zero joint count (or the epsilon-smoothed value
    when ``epsilon`` > 0), 1 for perfect co-occurrence."""
    ua, ub = int(counts.unary[a]), int(counts.unary[b])
    if ua == 0 or ub == 0:
        return 0.0
    joint = counts.pairwise(a, b)
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
        terms = labels.terms(i)
        own[i] = _or_of(Term(t) for t in terms) if terms else None

    down = dict(own)
    for i in hierarchy.order_bottom_up():
        i = int(i)
        if down[i] is not None or hierarchy.is_leaf(i):
            continue
        down[i] = _or_of(down[int(c)] for c in hierarchy.children[i]
                         if down[int(c)] is not None)

    out = {}
    nearest = {hierarchy.root: None}
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


def generic_queries(hierarchy, specific: dict) -> dict:
    """AND of each node's specific query onto its ancestors' conjuncts,
    structurally duplicate conjuncts skipped."""
    conjuncts = {}
    out = {}
    for i in hierarchy.order_top_down():
        i = int(i)
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


def hier_rcl(stats, method, cfg):
    """HierRCL_chi2 / HierRCL_jsd: for each node, the discounted sum over
    its descendants of sibling_cf times the 2x2 statistic, on dense rows."""
    h = stats.hierarchy
    out = LabelAssignment(method)
    all_terms = np.arange(stats.n_terms, dtype=np.int64)

    def frow(i):
        return stats.freq_row(i).astype(np.float64)

    for i in range(stats.n_nodes):
        desc = descendants(h, i)
        if not desc:
            out.labels[i] = []
            continue
        s = float(stats.node_total[int(stats.parent_or_self[i])])
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
            cf = stats.child_support_row(pg) / int(stats.child_count[pg])
            acc += cf * v / e
        out.labels[i] = topk(all_terms, acc, frow(i), cfg.p_cap)
    return out


def hier_base(stats):
    """S = sum_d (C^d U) / d as sparse matrices, U[g] = sibling_cf(g) *
    freq[g]; rows in canonical (sorted) form."""
    n, m = stats.n_nodes, stats.n_terms
    u = sp.lil_matrix((n, m))
    for g in range(n):
        p = int(stats.parent_or_self[g])
        c = int(stats.child_count[p])
        if c:
            f = stats.freq_row(g).astype(np.float64)
            cf = stats.child_support_row(p).astype(np.float64) / c
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
    stripped, split on whitespace and read with ``int``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise utf8_error(path) from None
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
    docs, terms, counts = [], [], []
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
    try:
        return DocTermMatrix.from_cells(n_docs, n_terms, docs, terms, counts)
    except OverflowError:
        ln = next(ln for ln, line in enumerate(lines[1:], start=2)
                  if not all(-(1 << 63) <= int(x) < 1 << 63
                             for x in line.split()))
        raise ParseError(f"{path}:{ln}: value does not fit in 64 bits") \
            from None


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


def df_filter_slice(matrix: DocTermMatrix, keep) -> sp.csr_matrix:
    """The kept terms' columns."""
    sub = to_scipy(matrix.csr)[:, keep].tocsr()
    sub.sort_indices()
    return sub


def cf_average(stats, cfg) -> LabelAssignment:
    """CFAverage with each node's row a sparse matrix: the children's rows
    added in declared order, then divided by the child count."""
    out = LabelAssignment("CFAverage")
    h = stats.hierarchy
    rows = [None] * stats.n_nodes
    for i in h.order_bottom_up():
        i = int(i)
        if h.is_leaf(i):
            idx, cf = _leaf_cf_row(stats, i)
            rows[i] = sp.csr_matrix((cf, (np.zeros(idx.size, np.int64), idx)),
                                    shape=(1, stats.n_terms))
        else:
            kids = h.children[i]
            acc = rows[int(kids[0])].copy()
            for ch in kids[1:]:
                acc = acc + rows[int(ch)]
            rows[i] = acc / len(kids)
    for i in range(stats.n_nodes):
        r = rows[i].tocsr()
        idx = r.indices.astype(np.int64)
        tie = stats.freq_row(i)[idx].astype(np.float64)
        out.labels[i] = _topk_arrays(idx, r.data.astype(np.float64), tie,
                                     cfg.p_cap)
    return out


def cooccurrence(corpus, vocab, restrict_terms=None):
    """(unary, pair keys a * m + b with a < b, pair counts) for every pair
    of counted terms that share a window, from the upper triangle of
    ``P.T @ P`` with P the window x term presence matrix."""
    m = len(vocab)
    terms = (np.arange(m, dtype=np.int64) if restrict_terms is None
             else np.unique(np.asarray(list(restrict_terms), np.int64)))
    column = {vocab.surface(t): k for k, t in enumerate(terms.tolist())}
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
