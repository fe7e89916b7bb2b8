"""Co-occurrence counting, NPMI conventions and bounds, OC aggregation."""

import math

import numpy as np
import pytest

from hierlabel import coherence as coh
from hierlabel.corpus import Vocabulary
from hierlabel.errors import ValidationError

import oracles
from conftest import two_term_counts


def vocab(n):
    return Vocabulary(tuple(f"w{i}" for i in range(n)))


def counts_from(corpus, v, **kw):
    """Counts over a corpus given as token lists."""
    return coh.count_cooccurrence([" ".join(doc) for doc in corpus], v, **kw)


class TestCounting:

    def test_single_window(self):
        c = counts_from([["w0", "w1"]], vocab(2))
        assert c.n_windows == 1
        assert c.unary[0] == 1 and c.unary[1] == 1
        assert oracles.pairwise(c, 0, 1) == 1

    def test_out_of_vocab_ignored(self):
        c = counts_from([["w0", "mystery", "w1"], ["mystery"]], vocab(2))
        assert c.n_windows == 2
        assert c.unary[0] == 1
        assert oracles.pairwise(c, 0, 1) == 1

    def test_repeated_token_counts_once_per_window(self):
        c = counts_from([["w0", "w0", "w1"]], vocab(2))
        assert c.unary[0] == 1
        assert oracles.pairwise(c, 0, 1) == 1

    def test_reference_lines_are_the_file_lines(self, tmp_path):
        # only "\n" (after universal-newline reading) ends a document; the
        # other str.splitlines breaks are blanks inside one
        path = tmp_path / "ref.txt"
        path.write_bytes("w0 w1\x0bw2\r\n \t \n\nw1\u2028w0\x85\rw2 w2\x0c"
                         "w1\x1c\n   w0  ".encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            want = [line.split() for line in fh if line.split()]
        lines = coh.load_reference_corpus(path)
        assert [doc.split() for doc in lines] == want
        assert len(want) == 4
        c = coh.count_cooccurrence(lines, vocab(3))
        assert c.n_windows == 4
        assert c.unary.tolist() == [3, 3, 2]
        assert (oracles.pairwise(c, 0, 2), oracles.pairwise(c, 1, 2)) == (1, 2)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValidationError):
            counts_from([], vocab(2))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(91)
        v = vocab(8)
        corpus = []
        for _ in range(40):
            k = int(rng.integers(0, 6))
            corpus.append([f"w{int(t)}" for t in rng.integers(0, 8, k)])
        corpus.append(["w0"])   # guard against an all-empty tail
        c = counts_from(corpus, v)
        for a in range(8):
            brute_a = sum(1 for doc in corpus if f"w{a}" in doc)
            assert c.unary[a] == brute_a
            for b in range(a + 1, 8):
                brute = sum(1 for doc in corpus
                            if f"w{a}" in doc and f"w{b}" in doc)
                assert oracles.pairwise(c, a, b) == brute
                assert oracles.pairwise(c, b, a) == brute

        # repeated tokens, empty and whitespace-only windows, a term that
        # never occurs (w7), unknown tokens, counting restricted or not,
        # and window counts on either side of the 64-bit word boundaries
        for n_windows in (1, 2, 63, 64, 65, 129):
            docs = []
            for _ in range(n_windows):
                roll = rng.random()
                if roll < 0.1:
                    docs.append("")
                elif roll < 0.2:
                    docs.append(" \t  ")
                else:
                    toks = [f"w{int(t)}" for t in
                            rng.integers(0, 7, int(rng.integers(1, 8)))]
                    docs.append(" ".join(toks + ["mystery"] * (roll > 0.9)))
            windows = [set(doc.split()) for doc in docs]
            for restrict in (None, [int(t) for t in
                                    rng.choice(8, 4, replace=False)]):
                c = coh.count_cooccurrence(docs, v, restrict_terms=restrict)
                counted = set(range(8) if restrict is None else restrict)
                assert c.n_windows == n_windows
                unary, keys, pairs = oracles.cooccurrence(docs, v, restrict)
                assert np.array_equal(c.unary, unary)
                for x, y in np.ndindex(8, 8):
                    brute = sum(1 for w in windows
                                if f"w{x}" in w and f"w{y}" in w)
                    if not {x, y} <= counted:
                        brute = 0
                    assert oracles.pairwise(c, x, y) == brute
                    assert oracles.pairwise(c, y, x) == brute
                    if x < y:
                        at = np.flatnonzero(keys == x * 8 + y)
                        assert brute == (pairs[at[0]] if at.size else 0)
                for x in range(8):
                    brute = sum(1 for w in windows if f"w{x}" in w)
                    assert c.unary[x] == (brute if x in counted else 0)

    def test_restricted_terms_match_full(self):
        rng = np.random.default_rng(92)
        v = vocab(10)
        corpus = [[f"w{int(t)}" for t in rng.integers(0, 10, 7)]
                  for _ in range(30)]
        full = counts_from(corpus, v)
        sub = counts_from(corpus, v, restrict_terms=[1, 3, 5])
        for a in (1, 3, 5):
            assert sub.unary[a] == full.unary[a]
            for b in (1, 3, 5):
                if a < b:
                    assert oracles.pairwise(sub, a, b) == \
                        oracles.pairwise(full, a, b)
        assert sub.unary[0] == 0

    def test_restrict_terms_outside_vocabulary_rejected(self):
        with pytest.raises(ValidationError, match="vocabulary"):
            counts_from([["w0", "w1"]], vocab(2), restrict_terms=[1, 2])
        with pytest.raises(ValidationError, match="vocabulary"):
            counts_from([["w0", "w1"]], vocab(2), restrict_terms=[-1])


class TestNpmi:

    @staticmethod
    def make(n, ua, ub, joint):
        return two_term_counts(n, ua, ub, joint)

    def test_perfect_cooccurrence(self):
        c = self.make(10, 1, 1, 1)
        assert oracles.npmi(c, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_independence(self):
        # P(a) = P(b) = 0.5, P(ab) = 0.25
        c = self.make(4, 2, 2, 1)
        assert oracles.npmi(c, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        # P(a) = P(b) = 0.1, P(ab) = 0.05 -> ln 5 / (-ln 0.05)
        c = self.make(20, 2, 2, 1)
        expect = math.log(5.0) / (-math.log(0.05))
        assert oracles.npmi(c, 0, 1) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.5372436, abs=1e-7)

    def test_zero_joint_is_minus_one(self):
        c = self.make(10, 3, 3, 0)
        assert oracles.npmi(c, 0, 1) == -1.0

    def test_epsilon_smoothing_option(self):
        c = self.make(10, 3, 3, 0)
        got = oracles.npmi(c, 0, 1, epsilon=1e-6)
        assert -1.0 < got < 0.0

    def test_absent_term_zero(self):
        c = self.make(10, 0, 3, 0)
        assert oracles.npmi(c, 0, 1) == 0.0

    def test_saturated_joint_is_one(self):
        c = self.make(5, 5, 5, 5)
        assert oracles.npmi(c, 0, 1) == 1.0

    def test_bounds_random(self):
        rng = np.random.default_rng(94)
        for _ in range(10000):
            n = int(rng.integers(1, 50))
            ua = int(rng.integers(0, n + 1))
            ub = int(rng.integers(0, n + 1))
            joint = int(rng.integers(0, min(ua, ub) + 1)) \
                if min(ua, ub) else 0
            got = oracles.npmi(self.make(n, ua, ub, joint), 0, 1)
            assert -1.0 <= got <= 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(95)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            ua = int(rng.integers(1, n + 1))
            ub = int(rng.integers(1, n + 1))
            joint = int(rng.integers(0, min(ua, ub) + 1))
            c = self.make(n, ua, ub, joint)
            assert oracles.npmi(c, 0, 1) == oracles.npmi(c, 1, 0)

    def test_corpus_doubling_invariance(self):
        rng = np.random.default_rng(96)
        v = vocab(6)
        corpus = [[f"w{int(t)}" for t in rng.integers(0, 6, 5)]
                  for _ in range(20)]
        c1 = counts_from(corpus, v)
        c2 = counts_from(corpus + corpus, v)
        for a in range(6):
            for b in range(a + 1, 6):
                assert oracles.npmi(c1, a, b) == pytest.approx(
                    oracles.npmi(c2, a, b), abs=1e-12)


class TestOcNpmi:

    def setup_method(self):
        rng = np.random.default_rng(97)
        self.v = vocab(9)
        self.corpus = [[f"w{int(t)}" for t in rng.integers(0, 9, 6)]
                       for _ in range(25)]
        self.counts = counts_from(self.corpus, self.v)

    def test_singleton_and_empty_zero(self):
        assert coh.oc_npmi(self.counts, [], 10) == 0.0
        assert coh.oc_npmi(self.counts, [4], 10) == 0.0

    def test_pair_equals_npmi(self):
        got = coh.oc_npmi(self.counts, [2, 5], 10)
        assert got == pytest.approx(oracles.npmi(self.counts, 2, 5), rel=1e-12)

    def test_four_terms_six_pairs(self):
        terms = [0, 3, 5, 7]
        brute = sum(oracles.npmi(self.counts, terms[i], terms[j])
                    for i in range(4) for j in range(i + 1, 4))
        assert coh.oc_npmi(self.counts, terms, 10) == \
            pytest.approx(brute, rel=1e-12)

    def test_cap_applies(self):
        terms = list(range(6))
        capped = coh.oc_npmi(self.counts, terms, 3)
        brute = sum(oracles.npmi(self.counts, terms[i], terms[j])
                    for i in range(3) for j in range(i + 1, 3))
        assert capped == pytest.approx(brute, rel=1e-12)

    def test_permutation_invariance(self):
        terms = [1, 4, 6, 8]
        a = coh.oc_npmi(self.counts, terms, 10)
        b = coh.oc_npmi(self.counts, list(reversed(terms)), 10)
        assert a == pytest.approx(b, abs=1e-12)

    def test_mean_aggregate(self):
        terms = [0, 3, 5]
        total = coh.oc_npmi(self.counts, terms, 10, aggregate="sum")
        mean = coh.oc_npmi(self.counts, terms, 10, aggregate="mean")
        assert mean == pytest.approx(total / 3.0, rel=1e-12)

    def test_oc_bound(self):
        p = 5
        terms = list(range(p))
        got = coh.oc_npmi(self.counts, terms, p)
        assert abs(got) <= p * (p - 1) / 2


class TestSummary:

    def test_constant_zeros(self):
        got = coh.summarize_coherence({"M": {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}})
        assert got["M"] == (0.0, 0.0)

    def test_linear_interpolation(self):
        got = coh.summarize_coherence({"M": {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}})
        assert got["M"][0] == pytest.approx(3.25)
        assert got["M"][1] == 4.0

    def test_single_node(self):
        got = coh.summarize_coherence({"M": {0: 0.7}})
        assert got["M"] == (pytest.approx(0.7), pytest.approx(0.7))


class TestScoreLabels:

    def test_property_against_oracle(self):
        """Every OC value equals the scalar pair loop's bit for bit, over
        random labels with empty, singleton and duplicate-term labels,
        terms absent from the reference, p_cap truncation, epsilon
        smoothing and the mean aggregate."""
        rng = np.random.default_rng(98)
        for _ in range(40):
            n_terms = int(rng.integers(3, 16))
            v = vocab(n_terms)
            # the top ids never occur in the reference: OOV label terms
            seen = int(rng.integers(1, n_terms))
            corpus = [[f"w{int(t)}" for t in
                       rng.integers(0, seen, int(rng.integers(1, 7)))]
                      for _ in range(int(rng.integers(1, 30)))]
            counts = counts_from(corpus, v)
            labels = {}
            for method in ("A", "B"):
                labels[method] = {
                    nid: [int(t) for t in rng.integers(
                        0, n_terms, int(rng.integers(0, 9)))]
                    for nid in range(int(rng.integers(1, 12)))}
            labels["A"][0] = []
            labels["A"].setdefault(1, [2])
            labels["B"][0] = [1, 1, 2]
            p_cap = int(rng.integers(1, 9))
            epsilon = float(rng.choice([0.0, 0.05, 1e-6]))
            aggregate = str(rng.choice(["sum", "mean"]))
            report = coh.score_labels(counts, oracles.label_columns(labels),
                                      p_cap, epsilon, aggregate)
            for method, per in labels.items():
                assert list(report.per_node[method]) == list(per)
                for nid, terms in per.items():
                    expect = oracles.oc_npmi(counts, terms, p_cap, epsilon,
                                             aggregate)
                    got = report.per_node[method][nid]
                    assert type(got) is float
                    assert got == expect
                    assert coh.oc_npmi(counts, terms, p_cap, epsilon,
                                       aggregate) == got
                    assert report.missing[method][nid] == sum(
                        1 for t in terms[:p_cap] if counts.unary[t] == 0)
            assert report.summary == coh.summarize_coherence(report.per_node)
