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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Vocabulary, set_bits, utf8_fault
from .errors import ValidationError

# joint counts AND about this many words of two bitsets per block, and
# documents are turned into bits this many at a time (a multiple of 64), so
# that a block's temporaries stay small
_BLOCK_WORDS = 1 << 16
_BLOCK_DOCS = 1 << 12


@dataclass
class CooccurrenceCounts:
    """Window counts of the counted terms.  ``bits`` row ``rows[t]`` holds
    the windows of term t as packed words, bit w % 64 of word w // 64 set
    when window w contains t; the rows number the counted terms in
    ascending order, and ``rows[t]`` is -1 for a term not counted.
    Joint counts are not stored: each is the popcount of two rows ANDed,
    taken by ``score_labels`` for the labels' pairs."""
    n_windows: int
    unary: np.ndarray          # term -> number of windows containing it
    rows: np.ndarray
    bits: np.ndarray           # (counted terms, words) uint64

    # kept for pipebench/traced.py until ROADMAP's run-telemetry item
    @property
    def pair_keys(self) -> np.ndarray:
        """The stored pair counts' keys: none, since joint counts are taken
        from the bitsets when asked for."""
        return np.empty(0, np.int64)

    def row_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """For each k, the key lo * R + hi of the bitset rows lo <= hi of
        a[k] and b[k] (R rows in all), so a term paired with itself counts
        its unary windows; -1 when either term is not counted."""
        ra, rb = self.rows[a], self.rows[b]
        key = np.minimum(ra, rb) * len(self.bits) + np.maximum(ra, rb)
        return np.where((ra >= 0) & (rb >= 0), key, -1)

    def count_row_pairs(self, keys: np.ndarray) -> np.ndarray:
        """The windows that both rows of each row-pair key hold: an AND
        and a popcount, a block of pairs at a time."""
        lo, hi = np.divmod(keys, len(self.bits))
        out = np.empty(keys.size, np.int64)
        step = max(1, _BLOCK_WORDS // max(1, self.bits.shape[1]))
        for at in range(0, keys.size, step):
            both = self.bits[lo[at:at + step]] & self.bits[hi[at:at + step]]
            out[at:at + step] = np.bitwise_count(both).sum(axis=1)
        return out


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The non-negative keys, sorted, each once, in 0.02 s where numpy
    2.4's ``np.unique`` took 0.36 s (1.25M keys, smoke fixture, p_cap 50)."""
    keys = np.sort(keys[keys >= 0])
    return keys[np.diff(keys, prepend=-1) != 0]


def load_reference_corpus(path) -> list:
    """One document per line, whitespace-separated tokens.  The documents
    are returned as their lines, unsplit; lines holding only whitespace are
    not documents, and a file without documents is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise utf8_fault(path)[1] from None
    # the file's own lines: str.splitlines would also break at \x0b, \x85
    # and other characters that are blanks inside a document
    docs = [line for line in text.split("\n") if line and not line.isspace()]
    if not docs:
        raise ValidationError(f"reference corpus {path} has no documents")
    return docs


def count_cooccurrence(corpus, vocab: Vocabulary,
                       restrict_terms=None) -> CooccurrenceCounts:
    """Count unary and pairwise window occurrences for vocabulary terms.

    ``corpus`` is a sequence of documents, each a string of
    whitespace-separated tokens; tokens outside the vocabulary are ignored.
    ``restrict_terms`` limits counting to a term subset (the results for
    those terms are unchanged, everything else reads as 0) - the pipeline
    uses it to count only label terms.

    Each counted term gets a bitset of the windows that contain it, set by
    ``corpus.set_bits`` over its tokens (a repeated token sets its bit
    again); unary counts are the bitsets' popcounts, and joint counts are
    taken from them by ``score_labels`` for the labels' pairs.
    Documents are split one at a time, and the counted tokens' rows of a
    block of documents are turned into bits together, so no token
    outlives its block.
    """
    m = len(vocab)
    terms = (np.arange(m, dtype=np.int64) if restrict_terms is None
             else np.unique(np.fromiter(restrict_terms, np.int64)))
    if terms.size and (terms[0] < 0 or terms[-1] >= m):
        raise ValidationError(
            f"cannot count term {terms[0] if terms[0] < 0 else terms[-1]}: "
            f"the vocabulary has {m} terms")
    # surface -> bitset row plus one, so that filter(None, ...) drops the
    # tokens that are not counted
    column = {vocab.surfaces[t]: k
              for k, t in enumerate(terms.tolist(), 1)}.get
    bits = np.zeros((terms.size, (len(corpus) + 63) // 64), np.uint64)
    # a block of documents at a time, which bounds the token arrays
    for lo in range(0, len(corpus), _BLOCK_DOCS):
        cols = array("q")
        sizes = np.empty(min(_BLOCK_DOCS, len(corpus) - lo), np.int64)
        for d, doc in enumerate(corpus[lo:lo + sizes.size]):
            before = len(cols)
            cols.extend(filter(None, map(column, doc.split())))
            sizes[d] = len(cols) - before
        set_bits(bits, np.frombuffer(cols, np.int64) - 1,
                 np.repeat(np.arange(lo, lo + sizes.size), sizes))
    rows = np.full(m, -1, np.int64)
    rows[terms] = np.arange(terms.size)
    unary = np.zeros(m, np.int64)
    unary[terms] = np.bitwise_count(bits).sum(axis=1)
    return CooccurrenceCounts(len(corpus), unary, rows, bits)


def _log(x: np.ndarray) -> np.ndarray:
    # numpy's SIMD log can differ from the C library's in the last bit;
    # math.log keeps every value equal to the scalar npmi's
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _npmi_pairs(counts: CooccurrenceCounts, a: np.ndarray, b: np.ndarray,
                joint: np.ndarray, epsilon: float) -> np.ndarray:
    """Normalized PMI of a[k] and b[k] for every k, given the joint counts,
    bit for bit equal to the scalar ``npmi`` of tests/oracles.py: in
    [-1, 1]; 0 when either term never occurs in the reference, -1 for a
    zero joint count (or the epsilon-smoothed value when ``epsilon`` > 0),
    1 for perfect co-occurrence, and float roundoff clamped."""
    ua, ub = counts.unary[a], counts.unary[b]
    n = counts.n_windows
    live = (ua > 0) & (ub > 0)
    # only a live pair is divided: with no reference documents n is 0, and
    # so is every unary count
    p_ab = np.divide(joint, n, out=np.zeros(a.size), where=live)

    out = np.zeros(a.size)
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


class _LabelPairs(NamedTuple):
    """The pairs of a list of labels' top-P terms: ``a[k], b[k]`` is
    ``grid[label, column]`` at the k-th True cell of ``present``, column
    the pair's place in the loop i = 1.., j < i."""
    n_pairs: np.ndarray
    present: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _label_pairs(indptr: np.ndarray, terms: np.ndarray,
                 p_cap: int) -> _LabelPairs:
    """The pairs of the labels ``terms[indptr[k]:indptr[k + 1]]``, each
    cut at its first ``p_cap`` terms.  The cut is taken no longer than the
    longest label, so that any ``p_cap`` >= 1 fits the int64 sizes."""
    size = np.diff(indptr)
    size = np.minimum(size, min(p_cap, int(size.max(initial=0))))
    owner = np.repeat(np.arange(size.size), size)
    # each kept term's place in its label
    place = np.arange(owner.size) - np.repeat(size.cumsum() - size, size)
    flat = terms[indptr[:-1][owner] + place]
    width = int(size.max()) if size.size else 0
    grid_terms = np.zeros((size.size, width), np.int64)
    grid_terms[owner, place] = flat
    i, j = np.tril_indices(width, -1)
    n_pairs = size * (size - 1) // 2
    present = np.arange(i.size) < n_pairs[:, None]
    return _LabelPairs(n_pairs, present,
                       grid_terms[:, i][present], grid_terms[:, j][present])


def _oc_values(counts: CooccurrenceCounts, groups: list, p_cap: int,
               epsilon: float, aggregate: str) -> list:
    """OC per label, for each group of ``groups``, (indptr, term ids)
    pairs of labels in rank order.  The distinct pairs of all groups are
    counted and scored together, each once; then each group's pairs are
    built again and take their scores, which holds one group's pair arrays
    at a time.  NPMI depends only on a pair's counts, and (ua/n)*(ub/n)
    commutes, so a pair scores the same bits in either order."""
    if not groups:
        return []
    distinct = _distinct(np.concatenate(
        [_distinct(counts.row_pairs(p.a, p.b))
         for p in (_label_pairs(*labels, p_cap) for labels in groups)]))
    term = np.flatnonzero(counts.rows >= 0)        # bitset row -> term
    lo, hi = np.divmod(distinct, len(counts.bits))
    # the distinct pairs' scores, then 0.0 for the key -1 of a pair with a
    # term that is not counted
    npmi = np.append(_npmi_pairs(counts, term[lo], term[hi],
                                 counts.count_row_pairs(distinct), epsilon),
                     0.0)
    out = []
    for labels in groups:
        p = _label_pairs(*labels, p_cap)
        keys = counts.row_pairs(p.a, p.b)
        grid = np.zeros(p.present.shape)
        grid[p.present] = npmi[np.where(
            keys >= 0, np.searchsorted(distinct, keys), -1)]
        total = np.zeros(len(p.n_pairs))
        for column in grid.T:
            # one pair per label at a time, in the scalar loop's order
            total += column
        if aggregate == "mean":
            paired = p.n_pairs > 0
            total[paired] /= p.n_pairs[paired]
        out.append(total)
    return out


# kept for pipebench/traced.py until ROADMAP's run-telemetry item
def oc_npmi(counts: CooccurrenceCounts, label_terms, p_cap: int,
            epsilon: float = 0.0, aggregate: str = "sum") -> float:
    """Observed coherence: NPMI summed (or averaged) over all unordered
    pairs among the top-P label terms; fewer than two terms scores 0."""
    terms = np.fromiter(label_terms, np.int64)
    [total] = _oc_values(counts, [(np.array([0, terms.size]), terms)],
                         p_cap, epsilon, aggregate)
    return float(total[0])


def summarize_coherence(oc: np.ndarray) -> tuple:
    """(75th percentile via linear interpolation, maximum) of one method's
    OC values, computed over every node including zeros."""
    return float(np.percentile(oc, 75)), float(oc.max())


def score_labels(counts: CooccurrenceCounts, labels: dict, p_cap: int,
                 epsilon: float = 0.0, aggregate: str = "sum") -> dict:
    """method -> float64 OC per label, for ``labels``, a mapping method ->
    (indptr, term ids) whose k-th label is ``terms[indptr[k]:indptr[k +
    1]]`` in rank order.  The distinct pairs of all methods are counted
    and scored once, then each method's pairs take their scores in one
    vectorised pass; the values equal ``oc_npmi``'s bit for bit."""
    return dict(zip(labels, _oc_values(counts, list(labels.values()), p_cap,
                                       epsilon, aggregate)))
