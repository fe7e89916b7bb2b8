"""Observed coherence of node labels via normalized pointwise mutual
information over a reference corpus.

The co-occurrence window is one whole reference document: unary counts are
document frequencies, pairwise counts the number of documents containing
both terms.  OC of a label sums NPMI over all unordered pairs of its top-P
terms; singleton and empty labels score exactly 0.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .corpus import Vocabulary, utf8_error
from .errors import ValidationError


@dataclass
class CooccurrenceCounts:
    n_windows: int
    n_terms: int
    unary: np.ndarray          # term -> number of windows containing it
    pair_keys: np.ndarray      # sorted packed keys a * n_terms + b, a < b
    pair_counts: np.ndarray

    def pairwise(self, a: int, b: int) -> int:
        if a == b:
            return int(self.unary[a])
        lo, hi = (a, b) if a < b else (b, a)
        key = lo * self.n_terms + hi
        i = np.searchsorted(self.pair_keys, key)
        if i < self.pair_keys.size and self.pair_keys[i] == key:
            return int(self.pair_counts[i])
        return 0


def load_reference_corpus(path) -> list:
    """One document per line, whitespace-separated tokens.  The documents
    are returned as their lines, unsplit; lines holding only whitespace are
    not documents."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    # the file's own lines: str.splitlines would also break at \x0b, \x85
    # and other characters that are blanks inside a document
    return [line for line in text.split("\n") if line and not line.isspace()]


def count_cooccurrence(corpus, vocab: Vocabulary,
                       restrict_terms=None) -> CooccurrenceCounts:
    """Count unary and pairwise window occurrences for vocabulary terms.

    ``corpus`` is a sequence of documents, each a string of
    whitespace-separated tokens; tokens outside the vocabulary are ignored.
    ``restrict_terms`` limits counting to a term subset (the results for
    those terms are unchanged, everything else reads as 0) - the pipeline
    uses it to count only label terms.

    The counted terms are the columns of a sparse presence matrix ``P``
    (windows x terms): unary counts are its column sums, pair counts the
    strict upper triangle of ``P.T @ P``.  Documents are split one at a
    time, so no token outlives its document.
    """
    if not corpus:
        raise ValidationError("empty reference corpus")
    m = len(vocab)
    terms = (np.arange(m, dtype=np.int64) if restrict_terms is None
             else np.unique(np.fromiter(restrict_terms, np.int64)))
    if terms.size and (terms[0] < 0 or terms[-1] >= m):
        raise ValidationError(
            f"cannot count term {terms[0] if terms[0] < 0 else terms[-1]}: "
            f"the vocabulary has {m} terms")
    # surface -> column of P plus one, so that filter(None, ...) drops the
    # tokens that are not counted
    column = {vocab.surface(t): k for k, t in enumerate(terms.tolist(), 1)}.get
    cols = array("q")
    sizes = np.empty(len(corpus), np.int64)
    for d, doc in enumerate(corpus):
        before = len(cols)
        cols.extend(filter(None, map(column, doc.split())))
        sizes[d] = len(cols) - before
    cols = np.frombuffer(cols, np.int64) - 1
    # int32 counts halve the product's memory; a count is at most the
    # number of windows
    presence = sp.csr_matrix(
        (np.ones(cols.size, np.int32),
         (np.repeat(np.arange(len(corpus)), sizes), cols)),
        shape=(len(corpus), terms.size))
    presence.data[:] = 1                    # a repeated token counts once

    unary = np.zeros(m, np.int64)
    unary[terms] = np.bincount(presence.indices, minlength=terms.size)
    joint = (presence.T @ presence).tocsr()
    joint.sort_indices()
    # row-major with ascending columns, so the upper triangle's keys come
    # out sorted
    row = np.repeat(np.arange(terms.size, dtype=np.int32),
                    np.diff(joint.indptr))
    upper = joint.indices > row
    keys = terms[row[upper]]
    del row                 # freed, and the keys built in place: peak memory
    keys *= m
    keys += terms[joint.indices[upper]]
    return CooccurrenceCounts(len(corpus), m, unary, keys,
                              joint.data[upper].astype(np.int64))


def npmi(counts: CooccurrenceCounts, a: int, b: int,
         epsilon: float = 0.0) -> float:
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


def _log(x: np.ndarray) -> np.ndarray:
    # numpy's SIMD log can differ from the C library's in the last bit;
    # math.log keeps every value equal to npmi()'s
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _npmi_pairs(counts: CooccurrenceCounts, a: np.ndarray, b: np.ndarray,
                epsilon: float) -> np.ndarray:
    """``npmi(counts, a[k], b[k], epsilon)`` for every k, bit for bit."""
    ua, ub = counts.unary[a], counts.unary[b]
    key = np.minimum(a, b) * counts.n_terms + np.maximum(a, b)
    joint = np.zeros(a.size, np.int64)
    if counts.pair_keys.size:
        at = np.minimum(np.searchsorted(counts.pair_keys, key),
                        counts.pair_keys.size - 1)
        hit = counts.pair_keys[at] == key
        joint[hit] = counts.pair_counts[at[hit]]
    joint = np.where(a == b, ua, joint)
    n = counts.n_windows
    p_ab = joint / n

    out = np.zeros(a.size)
    live = (ua > 0) & (ub > 0)
    unseen = live & (joint == 0)
    if epsilon <= 0:
        out[unseen] = -1.0
        live &= ~unseen
    else:
        p_ab[unseen] = epsilon
    saturated = live & (p_ab >= 1.0)
    out[saturated] = 1.0
    live &= ~saturated
    p = p_ab[live]
    val = _log(p / ((ua[live] / n) * (ub[live] / n))) / -_log(p)
    out[live] = np.maximum(-1.0, np.minimum(1.0, val))
    return out


def _oc_values(counts: CooccurrenceCounts, labels: list, p_cap: int,
               epsilon: float, aggregate: str):
    """OC and the count of label terms absent from the reference, per
    label of ``labels`` (a list of term-id sequences)."""
    tops = [label[:p_cap] for label in labels]
    size = np.fromiter(map(len, tops), np.int64, len(tops))
    flat = np.fromiter(chain.from_iterable(tops), np.int64, int(size.sum()))
    owner = np.repeat(np.arange(len(tops)), size)
    missing = np.bincount(owner[counts.unary[flat] == 0],
                          minlength=len(tops))

    # grid[label, k] is the label's k-th pair of the loop i = 1.., j < i
    width = int(size.max()) if size.size else 0
    grid_terms = np.zeros((len(tops), width), np.int64)
    grid_terms[owner, np.arange(flat.size) - np.repeat(size.cumsum() - size,
                                                       size)] = flat
    i, j = np.tril_indices(width, -1)
    n_pairs = size * (size - 1) // 2
    present = np.arange(i.size) < n_pairs[:, None]
    grid = np.zeros(present.shape)
    grid[present] = _npmi_pairs(counts, grid_terms[:, i][present],
                                grid_terms[:, j][present], epsilon)
    total = np.zeros(len(tops))
    for column in grid.T:
        # one pair per label at a time, in the scalar loop's order
        total += column
    if aggregate == "mean":
        paired = n_pairs > 0
        total[paired] /= n_pairs[paired]
    return total, missing


def oc_npmi(counts: CooccurrenceCounts, label_terms, p_cap: int,
            epsilon: float = 0.0, aggregate: str = "sum") -> float:
    """Observed coherence: NPMI summed (or averaged) over all unordered
    pairs among the top-P label terms; fewer than two terms scores 0."""
    total, _ = _oc_values(counts, [list(label_terms)], p_cap, epsilon,
                          aggregate)
    return float(total[0])


@dataclass
class CoherenceReport:
    """Per-node OC values per method plus the upper-quartile/maximum summary.

    ``missing`` counts, per (method, node), label terms absent from the
    reference corpus (their pairs contribute the zero convention).
    """
    per_node: dict = field(default_factory=dict)   # method -> {node_id: oc}
    missing: dict = field(default_factory=dict)    # method -> {node_id: count}
    summary: dict = field(default_factory=dict)    # method -> (upper_q, max)


def summarize_coherence(per_node: dict) -> dict:
    """method -> (75th percentile via linear interpolation, maximum),
    computed over every node of the method including zeros."""
    out = {}
    for method, values in per_node.items():
        v = np.asarray(list(values.values()), np.float64)
        if v.size == 0:
            raise ValidationError(f"no coherence values for method {method!r}")
        out[method] = (float(np.percentile(v, 75)), float(v.max()))
    return out


def score_labels(counts: CooccurrenceCounts, labels: dict, p_cap: int,
                 epsilon: float = 0.0,
                 aggregate: str = "sum") -> CoherenceReport:
    """OC for every label of ``labels``, a mapping method -> {node_id:
    [term ids in rank order]}.  Each method's pairs are scored in one
    vectorised pass; the values equal ``oc_npmi``'s bit for bit."""
    report = CoherenceReport()
    for method, per in labels.items():
        nids = list(per)
        total, missing = _oc_values(counts, [per[n] for n in nids], p_cap,
                                    epsilon, aggregate)
        report.per_node[method] = dict(zip(nids, total.tolist()))
        report.missing[method] = dict(zip(nids, missing.tolist()))
    report.summary = summarize_coherence(report.per_node)
    return report
