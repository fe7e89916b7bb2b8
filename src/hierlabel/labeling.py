"""The sixteen label-selection methods over hierarchical document clusters.

Twelve methods are pure per-node rankings (frequency schemes, their
"Hier" path-weighted variants, and the reference-collection chi-square /
Jensen-Shannon scores); four are structural (PopesculUngar, RLUM and the
two CFMeasure strategies) and walk the tree.  The "Hier" variants add up
a node's proper descendants g, each weighted by sibling_cf(g) (the share
of g's parent's children whose subtree holds the term) over its edge
distance.

Every method yields, per node, a ranked list of at most ``p_cap`` terms
with strictly positive scores.  Ties break by (score desc, node
cumulated frequency desc, term id asc), which makes every run
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corpus import NodeTermStats
from .errors import ConfigError

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
    """Ranked per-node label lists for one method.

    ``labels`` maps internal node index -> list of (term_id, score),
    scores non-increasing, length <= p_cap.
    """
    method: str
    labels: dict = field(default_factory=dict)

    def terms(self, node: int):
        return [t for t, _ in self.labels.get(node, [])]


@lru_cache(maxsize=None)
def _chi2_critical(alpha: float, df: int) -> float:
    """Upper-alpha quantile of chi-square with df degrees of freedom, as
    scipy's chi2.ppf(1 - alpha, df) computes it.  scipy.special is imported
    here, so that only runs of PopesculUngar or RLUM load it."""
    from scipy.special import gammaincinv
    return float(2 * gammaincinv(df / 2, 1.0 - alpha))


def _idf_global_vec(stats):
    df = stats.global_df.astype(np.float64)
    out = np.zeros_like(df)
    nz = df > 0
    out[nz] = np.log(stats.n_docs / df[nz])
    return out


def _idf_local_at(stats, node, idx):
    """idf_local of the node at the given term indices."""
    p = int(stats.parent_or_self[node])
    df = stats.docfreq_row(p)[idx].astype(np.float64)
    out = np.zeros_like(df)
    nz = df > 0
    out[nz] = np.log(stats.node_size[p] / df[nz])
    return out


def _icf_at(stats, node, idx):
    p = int(stats.parent_or_self[node])
    support = stats.child_support_row(p)[idx].astype(np.float64)
    out = np.zeros_like(support)
    nz = support > 0
    if nz.any():
        frac = stats.docfreq_row(node)[idx][nz] / stats.node_size[node]
        out[nz] = np.exp(frac) * np.log(stats.child_count[p] / support[nz] + 1.0)
    return out


# The 2x2 chi-square and Jensen-Shannon statistics, shared by RCL, HierRCL
# and the per-child chi-square test; their scalar forms are in
# tests/oracles.py.  A cell is 0 whenever a marginal (chi-square) or the
# node or grand mass (JSD) is not strictly positive, and x*log2(y) is 0
# when x = 0.  The cells broadcast, so a term-only cell (shape (k,)) is
# computed once for a block of rows (shape (r, k)).  Cells that a guard
# rejects are computed too and replaced by a select, which costs a
# fraction of masking every operation and keeps the guarded values.

def _chi2_formula_vec(tp, fn, fp, tn, s):
    m1, m2, m3, m4 = tp + fn, fp + tn, tp + fp, fn + tn
    ok = (m1 > 0) & (m2 > 0) & (m3 > 0) & (m4 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (tp * tn - fn * fp) ** 2 * s / (m1 * m2 * m3 * m4)
    return np.where(ok, v, 0.0)


def _jsd_formula_vec(tp, fn, fp, tn):
    node_mass = tp + fn
    grand = tp + fp + fn + tn
    valid = (node_mass > 0) & (grand > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = tp / node_mass
        q = (tp + fp) / grand
        log_mid = np.log2(0.5 * (p + q))
        p_part = p * (np.log2(p) - log_mid)
        q_part = q * (np.log2(q) - log_mid)
    return (np.where(valid & (p > 0), p_part, 0.0)
            + np.where(valid & (q > 0), q_part, 0.0))


def _children_chi2_vec(stats, node):
    """Per-term full-table Pearson statistic over the node's children."""
    kids = stats.hierarchy.children[node]
    m = stats.n_terms
    f_node = stats.freq_row(node).astype(np.float64)
    s = float(stats.node_total[node])
    out = np.zeros(m)
    if s <= 0:
        return out
    for ch in kids:
        ch = int(ch)
        t_j = float(stats.node_total[ch])
        if t_j == 0:
            continue
        o1 = stats.freq_row(ch).astype(np.float64)
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
    f_node = stats.freq_row(node).astype(np.float64)
    s = float(stats.node_total[node])
    best = np.zeros(stats.n_terms)
    for ch in kids:
        ch = int(ch)
        tp = stats.freq_row(ch).astype(np.float64)
        fn = float(stats.node_total[ch]) - tp
        fp = f_node - tp
        tn = s - (tp + fn + fp)
        np.maximum(best, _chi2_formula_vec(tp, fn, fp, tn, s), out=best)
    return best


# ---------------------------------------------------------------------------
# top-P selection
# ---------------------------------------------------------------------------

def _topk_arrays(term_ids, scores, tie_freq, p_cap):
    """Rank terms: positive scores only, sorted by score desc, then
    ``tie_freq`` desc, then term id asc; cap at p_cap."""
    pos = scores > 0
    if not pos.any():
        return []
    t = term_ids[pos]
    sc = scores[pos]
    fr = tie_freq[pos]
    if sc.size > p_cap:
        # only scores >= the p_cap-th largest can rank; ties at the cut stay
        cut = np.partition(sc, sc.size - p_cap)[sc.size - p_cap]
        keep = sc >= cut
        t, sc, fr = t[keep], sc[keep], fr[keep]
    order = np.lexsort((t, -fr, -sc))[:p_cap]
    return [(int(t[i]), float(sc[i])) for i in order]


# ---------------------------------------------------------------------------
# per-method drivers
# ---------------------------------------------------------------------------

def _row_arrays(csr, i):
    lo, hi = csr.indptr[i], csr.indptr[i + 1]
    return csr.indices[lo:hi].astype(np.int64), csr.data[lo:hi].astype(np.float64)


def _flat_node_label(stats, node, scheme, idf_global, p_cap):
    idx, f = _row_arrays(stats.freq, node)
    if idx.size == 0:
        return []
    score = f.copy()
    if scheme in ("MTWL_idf", "ICWL_idf"):
        score *= idf_global[idx] * _idf_local_at(stats, node, idx)
    if scheme in ("ICWL_raw", "ICWL_idf"):
        score *= _icf_at(stats, node, idx)
    return _topk_arrays(idx, score, f, p_cap)


def select_flat_or_hier(stats: NodeTermStats, method: str,
                        cfg: LabelConfig) -> LabelAssignment:
    """Independent per-node top-P selection for the twelve ranking methods."""
    out = LabelAssignment(method)
    n = stats.n_nodes
    if method in FLAT_SCHEMES:
        idfg = _idf_global_vec(stats)
        for i in range(n):
            out.labels[i] = _flat_node_label(stats, i, method, idfg, cfg.p_cap)
        return out

    if method in HIER_FREQ_SCHEMES:
        base = stats.hier_base()
        idfg = _idf_global_vec(stats)
        for i in range(n):
            idx, score = _row_arrays(base, i)
            if idx.size == 0:
                out.labels[i] = []
                continue
            score = score.copy()
            if method in ("HierMTWL_idf", "HierICWL_idf"):
                score *= idfg[idx] * _idf_local_at(stats, i, idx)
            if method in ("HierICWL_raw", "HierICWL_idf"):
                score *= _icf_at(stats, i, idx)
            tie = stats.freq_row(i)[idx].astype(np.float64)
            out.labels[i] = _topk_arrays(idx, score, tie, cfg.p_cap)
        return out

    if method in RCL_SCHEMES:
        for i in range(n):
            p = int(stats.parent_or_self[i])
            # a term absent from the parent's subtree has tp = fp = 0 and
            # scores 0, so only the parent's sparse row is scored
            idx, f_p = _row_arrays(stats.freq, p)
            tp = stats.freq_row(i)[idx].astype(np.float64)
            fn = float(stats.node_total[i]) - tp
            fp = f_p - tp
            if cfg.rcl_fp == "literal":
                fp = np.maximum(fp - tp, 0.0)
            s = float(stats.node_total[p]) - float(stats.node_total[i])
            tn = s - fp
            if method == "RCL_chi2":
                score = _chi2_formula_vec(tp, fn, fp, tn, s)
            else:
                score = _jsd_formula_vec(tp, fn, fp, tn)
            out.labels[i] = _topk_arrays(idx, score, tp, cfg.p_cap)
        return out

    if method in HIER_RCL_SCHEMES:
        return _hier_rcl(stats, method, cfg)

    raise ConfigError(f"{method!r} is not a ranking method")


# HierRCL scores a descendant against its ancestors in blocks of about this
# many cells, so that the block's temporaries stay in cache
_BLOCK_CELLS = 1 << 16


def _hier_rcl(stats, method, cfg):
    """acc[i] = sum over proper descendants g of i of
    sibling_cf(g) * v_i(g) / e(i, g), with v_i(g) the 2x2 statistic of g
    against its parent's subtree and s the mass of i's parent's subtree.

    Each g is read once, on the sparse row of its parent's child support
    (sibling_cf is 0 off it, so the terms left out would add +0.0), and
    scored against its ancestors in blocks of rows; only s and e differ
    between the rows.  g runs in pre-order, so every acc[i, t] adds its
    terms in descendants(i) order, and the sums are the ones the per-node
    loop over descendants(i) gives, bit for bit."""
    h = stats.hierarchy
    internal = np.flatnonzero(stats.child_count > 0)
    acc_row = np.full(stats.n_nodes, -1, np.int64)
    acc_row[internal] = np.arange(internal.size)
    acc = np.zeros((internal.size, stats.n_terms))
    s_of = stats.node_total[stats.parent_or_self].astype(np.float64)
    path = np.empty(int(h.level.max()) + 1, np.int64)   # root ... g
    for g in h.preorder:
        lvl = int(h.level[g])
        path[lvl] = g
        if lvl == 0:
            continue
        pg = int(h.parent[g])
        idx, support = _row_arrays(stats.child_support, pg)
        if idx.size == 0:
            continue
        cf = support / int(stats.child_count[pg])
        tp = stats.freq_row(g)[idx].astype(np.float64)
        fn = float(stats.node_total[g]) - tp
        fp = stats.freq_row(pg)[idx].astype(np.float64) - tp
        if cfg.rcl_fp == "literal":
            fp = np.maximum(fp - tp, 0.0)
        step = max(1, _BLOCK_CELLS // idx.size)   # ancestors per block
        for a in range(0, lvl, step):
            anc = path[a:min(a + step, lvl)]
            s = s_of[anc][:, None]
            tn = s - (tp + fn + fp)
            if method == "HierRCL_chi2":
                v = _chi2_formula_vec(tp, fn, fp, tn, s)
            else:
                v = _jsd_formula_vec(tp, fn, fp, tn)
            e = (lvl - np.arange(a, a + anc.size, dtype=np.float64))[:, None]
            # one row at a time: 1-D fancy indexing is about twice as fast
            # as np.ix_ here
            for r, add in zip(acc_row[anc], cf * v / e):
                acc[r][idx] += add

    out = LabelAssignment(method)
    all_terms = np.arange(stats.n_terms, dtype=np.int64)
    for i in range(stats.n_nodes):
        if acc_row[i] < 0:
            out.labels[i] = []
            continue
        tie = stats.freq_row(i).astype(np.float64)
        out.labels[i] = _topk_arrays(all_terms, acc[acc_row[i]], tie, cfg.p_cap)
    return out


def _independence_ok(stats, node, cfg):
    """Boolean per-term vector: chi-square independence NOT rejected at
    alpha over the node's children (df = c - 1)."""
    c = int(stats.child_count[node])
    if c <= 1:
        return np.ones(stats.n_terms, bool)
    if cfg.chi2_shape == "full_table":
        stat = _children_chi2_vec(stats, node)
    else:
        stat = _children_max_2x2_vec(stats, node)
    return stat <= _chi2_critical(cfg.alpha, c - 1)


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
    out = LabelAssignment("PopesculUngar")
    h = stats.hierarchy
    banned = {h.root: np.zeros(stats.n_terms, bool)}
    for i in h.order_top_down():
        i = int(i)
        ban = banned.pop(i)
        if h.is_leaf(i):
            idx, f = _row_arrays(stats.freq, i)
            keep = ~ban[idx]
            out.labels[i] = _topk_arrays(idx[keep], f[keep], f[keep], cfg.p_cap)
            continue
        c = int(stats.child_count[i])
        freq_ok = _count_children_ge(stats, i, MIN_CHILD_FREQ) == c
        selected = freq_ok & ~ban & _independence_ok(stats, i, cfg)
        idx = np.flatnonzero(selected)
        f = stats.freq_row(i)[idx].astype(np.float64)
        out.labels[i] = _topk_arrays(idx, f, f, cfg.p_cap)
        child_ban = ban | selected
        for ch in h.children[i]:
            banned[int(ch)] = child_ban
    return out


def select_rlum(stats: NodeTermStats, cfg: LabelConfig) -> LabelAssignment:
    """Bottom-up promotion: a term present in every child whose distribution
    passes the independence test moves up to the parent and is removed from
    all direct children.  The chi-square estimate is only trusted when some
    child frequency reaches ``big_threshold``.  Empty-label pruning stays
    disabled so the tree shape is preserved."""
    out = LabelAssignment("RLUM")
    h = stats.hierarchy
    cand = [None] * stats.n_nodes
    for i in h.order_bottom_up():
        i = int(i)
        if h.is_leaf(i):
            row = np.zeros(stats.n_terms, bool)
            idx, _ = _row_arrays(stats.freq, i)
            row[idx] = True
            cand[i] = row
            continue
        c = int(stats.child_count[i])
        all_present = stats.child_support_row(i) == c
        trusted = _count_children_ge(stats, i, cfg.big_threshold) >= 1
        promoted = all_present & trusted & _independence_ok(stats, i, cfg)
        cand[i] = promoted
        keep = ~promoted
        for ch in h.children[i]:
            cand[int(ch)] &= keep
    for i in range(stats.n_nodes):
        idx = np.flatnonzero(cand[i])
        f = stats.freq_row(i)[idx].astype(np.float64)
        out.labels[i] = _topk_arrays(idx, f, f, cfg.p_cap)
    return out


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
    out = LabelAssignment("CFAverage")
    h = stats.hierarchy
    rows = [None] * stats.n_nodes
    acc = np.zeros(stats.n_terms)
    for i in h.order_bottom_up():
        i = int(i)
        if h.is_leaf(i):
            rows[i] = _leaf_cf_row(stats, i)
            continue
        for ch in h.children[i]:
            idx, cf = rows[int(ch)]
            acc[idx] += cf
        idx = np.flatnonzero(acc)
        rows[i] = idx, acc[idx] * (1 / len(h.children[i]))
        acc[idx] = 0.0
    for i in range(stats.n_nodes):
        idx, score = rows[i]
        tie = stats.freq_row(i)[idx].astype(np.float64)
        out.labels[i] = _topk_arrays(idx, score, tie, cfg.p_cap)
    return out


def select_cf_leave_one_out(stats: NodeTermStats, cfg: LabelConfig) -> LabelAssignment:
    """CFMeasure with recall taken against the other clusters at the
    children's level: recall = f_i / (level mass - own children's mass);
    a non-positive denominator scores 0."""
    out = LabelAssignment("CFLeaveOneOut")
    h = stats.hierarchy
    for i in range(stats.n_nodes):
        if h.is_leaf(i):
            idx, cf = _leaf_cf_row(stats, i)
            tie = stats.freq_row(i)[idx].astype(np.float64)
            out.labels[i] = _topk_arrays(idx, cf, tie, cfg.p_cap)
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
        out.labels[i] = _topk_arrays(idx, cf, f, cfg.p_cap)
    return out


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
    cfg = cfg or LabelConfig()
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ConfigError(f"unknown methods: {', '.join(bad)}")
    return {m: label_hierarchy(stats, m, cfg) for m in methods}
