"""The sixteen label-selection methods over hierarchical document clusters.

Twelve methods are pure per-node rankings (frequency schemes, their
"Hier" path-weighted variants, and the reference-collection chi-square /
Jensen-Shannon scores); four are structural (PopesculUngar, RLUM and the
two CFMeasure strategies) and walk the tree.  The "Hier" variants add up
a node's proper descendants g, each weighted by sibling_cf(g) (the share
of g's parent's children whose subtree holds the term) over its edge
distance.

Every method yields, per node, a ranked list of at most ``p_cap`` terms
with strictly positive scores, held for all nodes in one columnar
``LabelAssignment``.  Ties break by (score desc, node
cumulated frequency desc, term id asc), which makes every run
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .corpus import NodeTermStats
from .errors import ConfigError
from .special import gamma_quantile

METHODS = (
    "MTWL_raw", "MTWL_idf", "ICWL_raw", "ICWL_idf",
    "HierMTWL_raw", "HierMTWL_idf", "HierICWL_raw", "HierICWL_idf",
    "RCL_chi2", "RCL_jsd", "HierRCL_chi2", "HierRCL_jsd",
    "PopesculUngar", "RLUM", "CFAverage", "CFLeaveOneOut",
)

FLAT_SCHEMES = ("MTWL_raw", "MTWL_idf", "ICWL_raw", "ICWL_idf")
HIER_FREQ_SCHEMES = ("HierMTWL_raw", "HierMTWL_idf", "HierICWL_raw", "HierICWL_idf")
RCL_SCHEMES = ("RCL_chi2", "RCL_jsd")
HIER_RCL_SCHEMES = ("HierRCL_chi2", "HierRCL_jsd")

# rule-of-thumb minimum child frequency for a trustworthy chi-square test
MIN_CHILD_FREQ = 5


@dataclass
class LabelConfig:
    p_cap: int = 10
    alpha: float = 0.05
    chi2_shape: str = "full_table"      # or "per_child_2x2"
    rcl_fp: str = "corrected"           # or "literal"
    big_threshold: int = 5

    def __post_init__(self):
        if self.p_cap < 1:
            raise ConfigError("p_cap must be >= 1")
        if not (0 < self.alpha < 1):
            raise ConfigError("alpha must be in (0, 1)")
        if self.chi2_shape not in ("full_table", "per_child_2x2"):
            raise ConfigError(f"unknown chi2_shape {self.chi2_shape!r}")
        if self.rcl_fp not in ("corrected", "literal"):
            raise ConfigError(f"unknown rcl_fp {self.rcl_fp!r}")
        if self.big_threshold < 1:
            raise ConfigError("big_threshold must be >= 1")


@dataclass
class LabelAssignment:
    """Ranked labels of one method for every node, as columns in the shape
    of ``corpus.CSR``: the labels of internal node index i are entries
    ``indptr[i]:indptr[i + 1]`` of ``term`` (working term ids) and
    ``score``, in rank order; at most p_cap per node, scores positive and
    non-increasing."""
    method: str
    indptr: np.ndarray          # int64, one more than the nodes
    term: np.ndarray            # int64
    score: np.ndarray           # float64

    @classmethod
    def from_ranked(cls, method: str, ranked: list) -> "LabelAssignment":
        """The record of ``ranked``, node index -> (term ids, scores) as
        ``_topk_arrays`` returns them."""
        indptr = np.zeros(len(ranked) + 1, np.int64)
        np.cumsum([t.size for t, _ in ranked], out=indptr[1:])
        return cls(method, indptr,
                   np.concatenate([t for t, _ in ranked], dtype=np.int64),
                   np.concatenate([v for _, v in ranked], dtype=np.float64))

    # kept for pipebench/traced.py's empty_labels until ROADMAP's
    # run-telemetry item
    @cached_property
    def labels(self) -> MappingProxyType:
        """Read-only node index -> [(term id, score)] view."""
        bounds = self.indptr.tolist()
        terms, scores = self.term.tolist(), self.score.tolist()
        return MappingProxyType({
            i: list(zip(terms[lo:hi], scores[lo:hi]))
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))})


@lru_cache(maxsize=None)
def _chi2_critical(alpha: float, df: int) -> float:
    """Upper-alpha quantile of chi-square with df degrees of freedom:
    2 P^-1(df / 2, 1 - alpha), P the regularized lower incomplete gamma
    function, as scipy's chi2.ppf(1 - alpha, df) defines it.  Where
    1 - alpha rounds to 1 (alpha <= 2^-54) it is inf."""
    return 2.0 * gamma_quantile(df / 2, 1.0 - alpha)


def _idf_global_vec(stats):
    df = stats.global_df.astype(np.float64)
    out = np.zeros_like(df)
    nz = df > 0
    out[nz] = np.log(stats.n_docs / df[nz])
    return out


def _idf_local_at(stats, node, idx):
    """idf_local of the node at the given term indices."""
    p = int(stats.hierarchy.parent[node])
    df = stats.docfreq.dense_row(p)[idx].astype(np.float64)
    out = np.zeros_like(df)
    nz = df > 0
    out[nz] = np.log(stats.node_size[p] / df[nz])
    return out


def _icf_at(stats, node, idx):
    """icf of the node on its own row's terms ``idx``."""
    p = int(stats.hierarchy.parent[node])
    support = stats.child_support.dense_row(p)[idx].astype(np.float64)
    out = np.zeros_like(support)
    nz = support > 0
    if nz.any():
        frac = stats.docfreq.row(node)[1][nz] / stats.node_size[node]
        out[nz] = np.exp(frac) * np.log(stats.child_count[p] / support[nz] + 1.0)
    return out


# The 2x2 chi-square and Jensen-Shannon statistics, shared by RCL, HierRCL
# and the per-child chi-square test; their scalar forms are in
# tests/oracles.py.  A cell is 0 whenever a marginal (chi-square) or the
# node mass (JSD, whose callers skip such a node) is 0, and x*log2(y) is 0
# when x = 0.  Callers pass each input at the scope it depends on (a
# scalar, a term row of shape (k,), an ancestor column of shape (r, 1)), so
# broadcasting computes every intermediate once per scope and only the rest
# per cell.  Cell counts are exact integers below 2^53, so the marginals
# the callers derive are exact and never negative, and the guards follow
# from them without masks.

def _chi2_formula_vec(tp, tn, fn_fp, m1, m2, m3, m4, s):
    """(tp*tn - fn*fp)^2 * s / (m1*m2*m3*m4), with ``fn_fp`` = fn*fp and
    m1..m4 = tp+fn, fp+tn, tp+fp, fn+tn.  The marginals are >= 0, so their
    product is positive exactly when all four are; the other cells are 0."""
    den = m1 * m2 * m3
    den *= m4
    v = tp * tn
    v -= fn_fp
    np.square(v, out=v)
    v *= s
    with np.errstate(divide="ignore", invalid="ignore"):
        v /= den
    np.copyto(v, 0.0, where=den <= 0)
    return v


def _log2_or_zero(x):
    """log2(x), with 0 where x = 0."""
    return np.log2(np.where(x > 0, x, 1.0))


def _jsd_formula_vec(p, log2_p, q):
    """p*(log2(p) - log2(mid)) + q*(log2(q) - log2(mid)), mid = (p + q)/2,
    for the node share p = tp/(tp+fn) of a node with mass and the reference
    share q = (tp+fp)/(tp+fn+fp+tn).  ``log2_p`` is ``_log2_or_zero(p)``:
    where p = 0 the first term is 0 * (0 - log2(mid)) = +0.0, as mid <= 1.
    The callers score only terms with tp + fp > 0, so q > 0 throughout."""
    log_mid = p + q
    log_mid *= 0.5
    np.log2(log_mid, out=log_mid)
    second = np.log2(q)
    second -= log_mid
    second *= q
    first = np.subtract(log2_p, log_mid, out=log_mid)
    first *= p
    first += second
    return first


def _children_chi2_vec(stats, node):
    """Per-term full-table Pearson statistic over the node's children."""
    kids = stats.hierarchy.children[node]
    m = stats.n_terms
    f_node = stats.freq.dense_row(node).astype(np.float64)
    s = float(stats.node_total[node])
    out = np.zeros(m)
    if s <= 0:
        return out
    for ch in kids:
        ch = int(ch)
        t_j = float(stats.node_total[ch])
        if t_j == 0:
            continue
        o1 = stats.freq.dense_row(ch).astype(np.float64)
        e1 = t_j * f_node / s
        nz = e1 > 0
        out[nz] += (o1[nz] - e1[nz]) ** 2 / e1[nz]
        e2 = t_j * (s - f_node) / s
        nz = e2 > 0
        out[nz] += ((t_j - o1[nz]) - e2[nz]) ** 2 / e2[nz]
    return out


def _children_max_2x2_vec(stats, node):
    """Literal reading: the worst per-child 2x2 statistic for each term."""
    kids = stats.hierarchy.children[node]
    f_node = stats.freq.dense_row(node).astype(np.float64)   # tp + fp
    s = float(stats.node_total[node])
    m4 = s - f_node                                     # fn + tn
    best = np.zeros(stats.n_terms)
    for ch in kids:
        ch = int(ch)
        tp = stats.freq.dense_row(ch).astype(np.float64)
        m1 = float(stats.node_total[ch])
        fn = m1 - tp
        fp = f_node - tp
        tn = s - (tp + fn + fp)
        v = _chi2_formula_vec(tp, tn, fn * fp, m1, s - m1, f_node, m4, s)
        np.maximum(best, v, out=best)
    return best


# ---------------------------------------------------------------------------
# top-P selection
# ---------------------------------------------------------------------------

_UNLABELED = (np.zeros(0, np.int64), np.zeros(0))


def _topk_arrays(term_ids, scores, tie_freq, p_cap):
    """(term ids, scores) of the ranked terms: positive scores only,
    sorted by score desc, then ``tie_freq`` desc, then term id asc; cap at
    p_cap.  The three columns are gathered once, on the kept cells."""
    pos = scores > 0
    n_pos = np.count_nonzero(pos)
    if not n_pos:
        return _UNLABELED
    if n_pos > p_cap:
        # only scores >= the p_cap-th largest positive can rank, and that
        # cut is positive; ties at the cut stay
        cut = np.partition(scores[pos], n_pos - p_cap)[n_pos - p_cap]
        pos = scores >= cut
    keep = np.flatnonzero(pos)
    t, sc, fr = term_ids[keep], scores[keep], tie_freq[keep]
    order = np.lexsort((t, -fr, -sc))[:p_cap]
    return t[order], sc[order]


# ---------------------------------------------------------------------------
# per-method drivers
# ---------------------------------------------------------------------------

def _row_arrays(csr, i):
    lo, hi = csr.indptr[i], csr.indptr[i + 1]
    return csr.indices[lo:hi].astype(np.int64), csr.data[lo:hi].astype(np.float64)


def select_flat_or_hier(stats: NodeTermStats, method: str,
                        cfg: LabelConfig) -> LabelAssignment:
    """Independent per-node top-P selection for the twelve ranking methods."""
    n = stats.n_nodes
    ranked = [_UNLABELED] * n
    if method in FLAT_SCHEMES + HIER_FREQ_SCHEMES:
        # a Hier method is its flat twin on the path-weighted base; the base
        # is 0 on the leaves, which stay unlabeled, and holds freq's pattern
        # on every other row, so freq's row is the tie in both
        hier = method in HIER_FREQ_SCHEMES
        base = stats.hier_base() if hier else stats.freq
        idfg = _idf_global_vec(stats)
        for i in (np.flatnonzero(stats.child_count) if hier
                  else np.arange(n)).tolist():
            idx, score = _row_arrays(base, i)
            if "_idf" in method:
                score *= idfg[idx] * _idf_local_at(stats, i, idx)
            if "ICWL" in method:
                score *= _icf_at(stats, i, idx)
            tie = stats.freq.row(i)[1].astype(np.float64)
            ranked[i] = _topk_arrays(idx, score, tie, cfg.p_cap)
        return LabelAssignment.from_ranked(method, ranked)

    if method in RCL_SCHEMES:
        for i in range(n):
            p = int(stats.hierarchy.parent[i])
            # a term absent from the parent's subtree has tp = fp = 0 and
            # scores 0, so only the parent's sparse row, where tp + fp > 0,
            # is scored; tp + fn + fp + tn is the parent's mass
            idx, f_p = _row_arrays(stats.freq, p)
            tp = stats.freq.dense_row(i)[idx].astype(np.float64)
            m1 = float(stats.node_total[i])
            fn = m1 - tp
            fp = f_p - tp
            if cfg.rcl_fp == "literal":
                fp = np.maximum(fp - tp, 0.0)
            grand = float(stats.node_total[p])
            s = grand - m1          # fp + tn
            tn = s - fp
            if method == "RCL_chi2":
                score = _chi2_formula_vec(tp, tn, fn * fp, m1, s, tp + fp,
                                          fn + tn, s)
            elif m1 > 0:
                p_share = tp / m1
                score = _jsd_formula_vec(p_share, _log2_or_zero(p_share),
                                         (tp + fp) / grand)
            else:
                score = np.zeros(idx.size)
            ranked[i] = _topk_arrays(idx, score, tp, cfg.p_cap)
        return LabelAssignment.from_ranked(method, ranked)

    if method in HIER_RCL_SCHEMES:
        return _hier_rcl(stats, method, cfg)

    raise ConfigError(f"{method!r} is not a ranking method")


# a descendant scored against at least this many ancestor rows is scored
# once per class of equal (tp, f_pg, support), not once per term
_CLASS_MIN_ROWS = 3


def _class_width(stats, g):
    """M = node_total[pg] + 1 where ``_hier_rcl`` scores g by class, pg
    being g's parent: the base of g's packed class key
    ``(tp * M + f_pg) * (c + 1) + support``, as tp, f_pg < M and support
    <= c, the parent's child count.  0 where g is scored per term: it has
    fewer than ``_CLASS_MIN_ROWS`` ancestors, or its key could overflow
    int64."""
    pg = int(stats.hierarchy.parent[g])
    width = int(stats.node_total[pg]) + 1
    c = int(stats.child_count[pg])
    if (stats.hierarchy.level[g] < _CLASS_MIN_ROWS
            or width * width * (c + 1) > np.iinfo(np.int64).max):
        return 0
    return width


def _hier_rcl(stats, method, cfg):
    """Ranks on node i's ``freq`` pattern the sum over its proper
    descendants g of sibling_cf(g) * v_i(g) / e(i, g), with v_i(g) the 2x2
    statistic of g against its parent's subtree and s the mass of i's
    parent's subtree.

    g runs in pre-order and adds only to the nodes on its root path, so
    ``acc`` holds one row per level: row d is the running sum of
    ``path[d]``, the path's node at level d.  Every cell adds its terms in
    descendants(i) order, and the sums are the ones the per-node loop over
    descendants(i) gives, bit for bit.  Entering g at level L finishes the
    subtrees of the path's nodes at levels >= L; each internal one is
    ranked with ``freq``'s data as the tie and its pattern's cells are
    zeroed.  That clears its whole row: g adds onto its parent's pattern,
    which lies inside every ancestor's, and +0.0 elsewhere.  The nodes
    still on the path, the root among them, are ranked after the walk.

    Each g is read once, on the sparse row of its parent's child support
    (sibling_cf is 0 off it, so the terms left out would add +0.0), and
    scored against its ancestors, rows 0..L-1, in one pass; only s and e
    differ between the rows.

    Every value is computed at the scope it depends on: per g those of
    the term alone, per ancestor row those of s alone, per cell the rest.
    A g without mass scores +0.0 throughout, which leaves acc as it is, so
    it is skipped.  A g with mass holds a term, so its parent's support
    row is not empty; on it s >= tp + fn + fp and s >= tp + fp > 0, and
    tp + fn + fp + tn is s exactly.

    A cell depends on its term only through tp, the parent's count f_pg
    and the parent's support, and the terms share these triples:
    on deep-comb v0 the 46.6M cells of a method hold 557,252 distinct
    (row, triple) values; per g the median is 99.5 triples against 9,052.5
    pattern terms.  So a g with at least ``_CLASS_MIN_ROWS`` ancestors is
    scored once per class of equal triples, found by ``np.unique`` on one
    packed int64 key per term (``_class_width``); a class value is computed
    by the same operations on the same inputs as each of its terms' cells,
    so it has the same bits.  Each row of class values is taken onto every
    term, those off the pattern onto one more class of +0.0, and added to
    the whole acc row; acc is never -0.0, so adding +0.0 leaves it as it
    is.  A g nearer the root, or whose key could overflow int64, is scored
    per term and scattered onto the pattern.

    Measured in one process on a 2-vCPU Xeon VM, median of 7 (chi2 / jsd):
    on deep-comb v0 per-term scoring takes 0.582 / 0.676 s and classes
    0.255 / 0.246 s; taking the class values onto the pattern and
    scattering them took 0.373 / 0.366 s.  On wide-staged v0 (depth 2)
    scoring every g by class takes 0.124 / 0.120 s against 0.067 / 0.069 s
    per term.  ``_CLASS_MIN_ROWS`` = 3 is the smallest depth that keeps
    wide-staged on the per-term path, not a measured break-even: deep-comb
    v0 holds two g per level, and cut-offs from 1 to 10 all took 0.24 to
    0.26 s per method there (20 took 0.28 s)."""
    h = stats.hierarchy
    path = np.empty(int(h.level.max()) + 1, np.int64)   # root ... g
    # the deepest level holds leaves only
    acc = np.zeros((path.size - 1, stats.n_terms))
    s_of = stats.node_total[h.parent].astype(np.float64)
    chi2 = method == "HierRCL_chi2"
    ranked = [_UNLABELED] * stats.n_nodes

    def rank(levels):
        for d in levels:
            i = int(path[d])
            if stats.child_count[i]:
                idx, tie = _row_arrays(stats.freq, i)
                ranked[i] = _topk_arrays(idx, acc[d, idx], tie, cfg.p_cap)
                acc[d, idx] = 0.0

    top = 0         # the path holds levels 0 .. top - 1
    for g in h.preorder.tolist():
        lvl = int(h.level[g])
        rank(range(lvl, top))
        path[lvl], top = g, lvl + 1
        m1 = float(stats.node_total[g])    # tp + fn on every term
        if lvl == 0 or m1 == 0:
            continue
        pg = int(h.parent[g])
        c = int(stats.child_count[pg])
        idx, support = stats.child_support.row(pg)
        idx = idx.astype(np.int64)
        tp = stats.freq.dense_row(g)[idx]
        f_pg = stats.freq.row(pg)[1]
        # where g is scored by class, acc[d, t] adds value ``take[t]`` of
        # row d; the terms off the pattern take class tp.size, +0.0
        take = None
        width = _class_width(stats, g)
        if width:
            key, inverse = np.unique((tp * width + f_pg) * (c + 1) + support,
                                     return_inverse=True)
            key, support = np.divmod(key, c + 1)
            tp, f_pg = np.divmod(key, width)
            take = np.full(stats.n_terms, tp.size, inverse.dtype)
            take[idx] = inverse
        cf = support / c
        tp = tp.astype(np.float64)
        fn = m1 - tp
        fp = f_pg - tp
        if cfg.rcl_fp == "literal":
            fp = np.maximum(fp - tp, 0.0)
        m3 = tp + fp
        s = s_of[path[:lvl]][:, None]
        if chi2:
            v = _chi2_formula_vec(tp, s - (tp + fn + fp), fn * fp, m1, s - m1,
                                  m3, s - m3, s)
        else:
            p = tp / m1
            v = _jsd_formula_vec(p, _log2_or_zero(p), m3 / s)
        v *= cf
        v /= (lvl - np.arange(lvl, dtype=np.float64))[:, None]
        # one row at a time, rows 0 .. lvl - 1: 2-D fancy indexing took
        # HierRCL_chi2 on wide-staged v0 from 0.045 to 0.055 s
        if take is None:
            for row, add in zip(acc, v):
                row[idx] += add
        else:
            v = np.concatenate((v, np.zeros((lvl, 1))), axis=1)
            for row, add in zip(acc, v):
                row += add[take]
    rank(range(top))
    return LabelAssignment.from_ranked(method, ranked)


def _independence_ok(stats, node, cfg):
    """Boolean per-term vector: chi-square independence NOT rejected at
    alpha over the node's children (df = c - 1).  PopesculUngar and RLUM
    share each node's read-only vector through ``stats.independence``."""
    key = (node, cfg.alpha, cfg.chi2_shape)
    ok = stats.independence.get(key)
    if ok is None:
        c = int(stats.child_count[node])
        if c <= 1:
            ok = np.ones(stats.n_terms, bool)
        else:
            stat = (_children_chi2_vec if cfg.chi2_shape == "full_table"
                    else _children_max_2x2_vec)(stats, node)
            ok = stat <= _chi2_critical(cfg.alpha, c - 1)
        ok.flags.writeable = False
        stats.independence[key] = ok
    return ok


def _count_children_ge(stats, node, threshold):
    """Per-term count of direct children whose subtree frequency >= threshold."""
    count = np.zeros(stats.n_terms, np.int64)
    for ch in stats.hierarchy.children[node]:
        idx, f = _row_arrays(stats.freq, int(ch))
        if idx.size:
            count[idx[f >= threshold]] += 1
    return count


def select_popescul_ungar(stats: NodeTermStats, cfg: LabelConfig) -> LabelAssignment:
    """Top-down assignment: a term labels the highest node at which its
    distribution over the children is indistinguishable from independence
    (and every child carries it at least MIN_CHILD_FREQ times); once
    selected it is banned on the whole subtree below.  Leaves take the
    leftover terms ranked by cumulated frequency."""
    h = stats.hierarchy
    ranked = [None] * stats.n_nodes

    def rank_leaf(leaf, ban):
        idx, f = _row_arrays(stats.freq, leaf)
        keep = ~ban[idx]
        ranked[leaf] = _topk_arrays(idx[keep], f[keep], f[keep], cfg.p_cap)

    # a leaf is ranked as soon as its parent's ban is known, so only the
    # internal nodes' bans wait for the walk
    no_ban = np.zeros(stats.n_terms, bool)
    if not stats.child_count[h.root]:
        rank_leaf(h.root, no_ban)
    banned = {h.root: no_ban}
    for i in h.preorder[stats.child_count[h.preorder] > 0].tolist():
        ban = banned.pop(i)
        c = int(stats.child_count[i])
        freq_ok = _count_children_ge(stats, i, MIN_CHILD_FREQ) == c
        selected = freq_ok & ~ban & _independence_ok(stats, i, cfg)
        idx = np.flatnonzero(selected)
        f = stats.freq.dense_row(i)[idx].astype(np.float64)
        ranked[i] = _topk_arrays(idx, f, f, cfg.p_cap)
        child_ban = ban | selected
        for ch in h.children[i].tolist():
            if stats.child_count[ch]:
                banned[ch] = child_ban
            else:
                rank_leaf(ch, child_ban)
    return LabelAssignment.from_ranked("PopesculUngar", ranked)


def select_rlum(stats: NodeTermStats, cfg: LabelConfig) -> LabelAssignment:
    """Bottom-up promotion: a term present in every child whose distribution
    passes the independence test moves up to the parent and is removed from
    all direct children.  The chi-square estimate is only trusted when some
    child frequency reaches ``big_threshold``.  Empty-label pruning stays
    disabled so the tree shape is preserved."""
    h = stats.hierarchy
    ranked = [None] * stats.n_nodes

    def rank(i, row):
        idx = np.flatnonzero(row)
        f = stats.freq.dense_row(i)[idx].astype(np.float64)
        ranked[i] = _topk_arrays(idx, f, f, cfg.p_cap)

    # a node's row waits only for its parent's pruning, then is ranked
    cand = {}
    for i in h.preorder[::-1].tolist():
        if not stats.child_count[i]:
            row = np.zeros(stats.n_terms, bool)
            idx, _ = _row_arrays(stats.freq, i)
            row[idx] = True
            cand[i] = row
            continue
        c = int(stats.child_count[i])
        all_present = stats.child_support.dense_row(i) == c
        trusted = _count_children_ge(stats, i, cfg.big_threshold) >= 1
        promoted = all_present & trusted & _independence_ok(stats, i, cfg)
        keep = ~promoted
        for ch in h.children[i].tolist():
            row = cand.pop(ch)
            row &= keep
            rank(ch, row)
        cand[i] = promoted
    rank(h.root, cand.pop(h.root))
    return LabelAssignment.from_ranked("RLUM", ranked)


def _leaf_cf_row(stats, leaf):
    idx, f = _row_arrays(stats.freq, leaf)
    if idx.size == 0:
        return idx, np.zeros(0)
    recall = f / stats.global_freq[idx]
    precision = f / float(stats.node_total[leaf])
    cf = 2.0 * recall * precision / (recall + precision)
    return idx, cf


def select_cf_average(stats: NodeTermStats, cfg: LabelConfig) -> LabelAssignment:
    """CFMeasure at the leaves, then the plain mean over direct children
    propagated bottom-up: the children's sparse rows are added in declared
    order into a dense row, which is multiplied by 1 / (child count) - the
    sparse sum and scalar division, bit for bit."""
    h = stats.hierarchy
    rows = [None] * stats.n_nodes
    ranked = [None] * stats.n_nodes

    def rank(i, idx, score):
        tie = stats.freq.dense_row(i)[idx].astype(np.float64)
        ranked[i] = _topk_arrays(idx, score, tie, cfg.p_cap)

    def leaf_row(leaf):
        """A leaf's CF row, computed and ranked when its parent reads it."""
        idx, cf = _leaf_cf_row(stats, leaf)
        rank(leaf, idx, cf)
        return idx, cf

    if not stats.child_count[h.root]:
        leaf_row(h.root)
    acc = np.zeros(stats.n_terms)
    for i in h.preorder[::-1].tolist():
        if not stats.child_count[i]:
            continue
        # only the parent reads a row, so it is dropped once read
        for ch in h.children[i].tolist():
            idx, cf = rows[ch] if stats.child_count[ch] else leaf_row(ch)
            rows[ch] = None
            acc[idx] += cf
        idx = np.flatnonzero(acc)
        rows[i] = idx, acc[idx] * (1 / int(stats.child_count[i]))
        acc[idx] = 0.0
        rank(i, *rows[i])
    return LabelAssignment.from_ranked("CFAverage", ranked)


def select_cf_leave_one_out(stats: NodeTermStats, cfg: LabelConfig) -> LabelAssignment:
    """CFMeasure with recall taken against the other clusters at the
    children's level: recall = f_i / (level mass - own children's mass);
    a non-positive denominator scores 0."""
    h = stats.hierarchy
    ranked = []
    for i in range(stats.n_nodes):
        if not stats.child_count[i]:
            idx, cf = _leaf_cf_row(stats, i)
            tie = stats.freq.row(i)[1].astype(np.float64)
            ranked.append(_topk_arrays(idx, cf, tie, cfg.p_cap))
            continue
        idx, f = _row_arrays(stats.freq, i)
        mass = stats.level_freq(int(h.level[i]) + 1)[idx].astype(np.float64)
        denom = mass - f
        recall = np.divide(f, denom, out=np.zeros_like(f), where=denom > 0)
        precision = f / float(stats.node_total[i])
        both = (recall > 0) & (precision > 0)
        cf = np.zeros_like(f)
        cf[both] = (2.0 * recall[both] * precision[both]
                    / (recall[both] + precision[both]))
        ranked.append(_topk_arrays(idx, cf, f, cfg.p_cap))
    return LabelAssignment.from_ranked("CFLeaveOneOut", ranked)


_STRUCTURAL = {
    "PopesculUngar": select_popescul_ungar,
    "RLUM": select_rlum,
    "CFAverage": select_cf_average,
    "CFLeaveOneOut": select_cf_leave_one_out,
}


def label_hierarchy(stats: NodeTermStats, method: str,
                    cfg: LabelConfig | None = None) -> LabelAssignment:
    """Run one method over the whole hierarchy."""
    cfg = cfg or LabelConfig()
    if method in _STRUCTURAL:
        return _STRUCTURAL[method](stats, cfg)
    if method in METHODS:
        return select_flat_or_hier(stats, method, cfg)
    raise ConfigError(f"unknown method {method!r}")


def label_all(stats: NodeTermStats, methods=METHODS,
              cfg: LabelConfig | None = None) -> dict:
    """All requested methods, in order."""
    return {m: label_hierarchy(stats, m, cfg) for m in methods}
