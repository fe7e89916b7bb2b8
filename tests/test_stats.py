"""Variance decomposition fits and the SNK multiple mean comparison."""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from hierlabel import stats as st
from hierlabel.errors import NumericalError

import oracles


def values_of(rows) -> np.ndarray:
    """rows: (method, level, value) -> the values."""
    return np.array([v for _, _, v in rows])


def levels_of(rows) -> np.ndarray:
    """rows: (method, level, value) -> the levels."""
    return np.array([lv for _, lv, _ in rows], np.int64)


def additive_fit(rows, methods=None):
    """The additive fit of rows (method, level, value); ``methods``
    defaults to the rows' methods in order of first row."""
    methods = methods or list(dict.fromkeys(m for m, _, _ in rows))
    return st.fit_additive_model(
        values_of(rows), levels_of(rows),
        np.array([methods.index(m) for m, _, _ in rows], np.int64), methods)


def level_fit(rows):
    """The level-only fit of rows (method, level, value)."""
    return st.fit_level_model(values_of(rows), levels_of(rows))


class TestAdditiveModel:

    def test_balanced_effects_are_marginal_deviations(self):
        rng = np.random.default_rng(1)
        methods = ["A", "B", "C"]
        levels = [0, 1]
        rows = []
        for method in methods:
            for level in levels:
                for _ in range(4):
                    rows.append((method, level, float(rng.normal())))
        fit = additive_fit(rows)
        y = values_of(rows)
        grand = y.mean()
        for method in methods:
            marginal = np.mean([v for m, l, v in rows if m == method])
            assert fit.effects["method"][method] == \
                pytest.approx(marginal - grand, abs=1e-10)
            assert fit.adjusted_means["method"][method] == \
                pytest.approx(marginal, abs=1e-10)
        for level in levels:
            marginal = np.mean([v for m, l, v in rows if l == level])
            assert fit.effects["level"][level] == \
                pytest.approx(marginal - grand, abs=1e-10)

    def test_perfectly_additive_zero_residual(self):
        rows = []
        for mi, method in enumerate(["A", "B"]):
            for level in (0, 1, 2):
                rows.append((method, level, 1.0 + 0.5 * mi + 0.1 * level))
        fit = additive_fit(rows)
        assert fit.resid_var == pytest.approx(0.0, abs=1e-20)

    def test_unbalanced_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        methods = ["A", "B", "C"]
        levels = [0, 1, 2]
        rows = []
        for method in methods:
            for level in levels:
                for _ in range(int(rng.integers(1, 5))):
                    rows.append((method, level, float(rng.normal())))
        fit = additive_fit(rows)

        # independent oracle: dummy coding with explicit normal equations
        y = values_of(rows)
        n = len(rows)
        x = np.ones((n, 1 + (len(levels) - 1) + (len(methods) - 1)))
        for i, (method, level, _) in enumerate(rows):
            for j, lv in enumerate(levels[:-1]):
                x[i, 1 + j] = 1.0 if level == lv else 0.0
                if level == levels[-1]:
                    x[i, 1 + j] = -1.0
            off = len(levels)
            for j, mname in enumerate(methods[:-1]):
                x[i, off + j] = 1.0 if method == mname else 0.0
                if method == methods[-1]:
                    x[i, off + j] = -1.0
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        resid = y - x @ beta
        df = n - x.shape[1]
        assert fit.mu == pytest.approx(beta[0], rel=1e-9)
        assert fit.df_resid == df
        assert fit.resid_var == pytest.approx(resid @ resid / df, rel=1e-9)
        for j, lv in enumerate(levels[:-1]):
            assert fit.effects["level"][lv] == pytest.approx(beta[1 + j], rel=1e-9)
        for j, mname in enumerate(methods[:-1]):
            assert fit.effects["method"][mname] == \
                pytest.approx(beta[len(levels) + j], rel=1e-9)

    def test_missing_level_is_named(self):
        rows = [("A", 0, 1.0), ("A", 1, 2.0), ("B", 0, 1.5), ("B", 1, 2.5)]
        with pytest.raises(NumericalError, match="'C'"):
            additive_fit(rows, ["A", "B", "C"])

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        rows = [(m, l, float(rng.normal()))
                for m in "AB" for l in (0, 1) for _ in range(3)]
        shifted = [(m, l, v + 10.0) for m, l, v in rows]
        f1 = additive_fit(rows)
        f2 = additive_fit(shifted)
        assert f2.mu == pytest.approx(f1.mu + 10.0, abs=1e-10)
        assert f2.resid_var == pytest.approx(f1.resid_var, abs=1e-12)
        for name in ("method", "level"):
            for lv, e in f1.effects[name].items():
                assert f2.effects[name][lv] == pytest.approx(e, abs=1e-10)


class TestColumnsAgainstRows:
    """The fits on columns against the row-wise fits of tests/oracles.py."""

    def test_design_matrix_equals_the_row_encoding(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(k, 80))
            levels = sorted(rng.choice(1000, k, replace=False).tolist())
            # every level present, in random unbalanced counts and order
            pos = rng.permutation(np.concatenate(
                [np.arange(k), rng.integers(0, k, n - k)]))
            values = [levels[j] for j in pos]
            got = st._sum_to_zero(pos, k)
            want = oracles._encode_sum_to_zero(values, levels)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_fits_equal_the_row_fits_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            methods = [f"M{j}" for j in rng.permutation(
                int(rng.integers(2, 7)))]
            levels = sorted(rng.choice(9, int(rng.integers(2, 5)),
                                       replace=False).tolist())
            cells = [(m, lv) for m in methods for lv in levels
                     for _ in range(int(rng.integers(1, 5)))]
            rows = [oracles.ObservationRow(m, i, lv, "specific",
                                           *rng.random(3).tolist())
                    for i, (m, lv) in enumerate(
                        cells[j] for j in rng.permutation(len(cells)))]
            columns = oracles.observation_table(rows)
            table = oracles.ObservationTable(rows)
            for measure in ("precision", "recall", "f"):
                y = getattr(columns, measure)
                for pinned in (methods, None):
                    names = pinned or table.methods()
                    code = np.array([names.index(m) for m in
                                     columns.method_names])[columns.method]
                    assert_same_fit(
                        st.fit_additive_model(y, columns.level, code, names),
                        oracles.fit_additive_model(table, measure, pinned))
                for m in methods:
                    mine = columns.method == columns.method_names.index(m)
                    assert_same_fit(
                        st.fit_level_model(y[mine], columns.level[mine]),
                        oracles.fit_level_model(table.filter(method=m),
                                                measure))


def assert_same_fit(got, want):
    """Equal GlmFits, every float bit for bit (repr round-trips floats)."""
    assert repr(asdict(got)) == repr(asdict(want))


class TestLevelModel:

    def test_saturated_fit(self):
        rows = [("A", 0, 0.3), ("A", 1, 0.6), ("A", 2, 0.9)]
        fit = level_fit(rows)
        for level, value in ((0, 0.3), (1, 0.6), (2, 0.9)):
            assert fit.adjusted_means["level"][level] == pytest.approx(value)
        assert fit.df_resid == 0

    def test_constant_measure_null_effects(self):
        rows = [("A", l, 0.5) for l in (0, 1, 2) for _ in range(3)]
        fit = level_fit(rows)
        for level in (0, 1, 2):
            assert fit.effects["level"][level] == pytest.approx(0.0, abs=1e-12)

    def test_balanced_group_means(self):
        rng = np.random.default_rng(4)
        rows = [("A", l, float(rng.normal())) for l in (0, 1) for _ in range(5)]
        fit = level_fit(rows)
        for level in (0, 1):
            mean = np.mean([v for _, l, v in rows if l == level])
            assert fit.adjusted_means["level"][level] == \
                pytest.approx(mean, abs=1e-10)

    def test_single_level_errors(self):
        rows = [("A", 0, 0.5), ("A", 0, 0.7)]
        with pytest.raises(NumericalError):
            level_fit(rows)


# upper 5% studentized range quantiles from standard published tables
PUBLISHED_Q = {
    (2, 10): 3.151, (3, 10): 3.877, (5, 10): 4.654, (10, 10): 5.598,
    (2, 30): 2.888, (3, 30): 3.486, (5, 30): 4.102, (10, 30): 4.824,
    (2, math.inf): 2.772, (3, math.inf): 3.314,
    (5, math.inf): 3.858, (10, math.inf): 4.474,
}


class TestStudentizedRange:

    def test_published_table_anchors(self):
        for (k, df), expect in PUBLISHED_Q.items():
            got = st.studentized_range_quantile(0.05, k, df)
            assert got == pytest.approx(expect, abs=1e-3), (k, df)

    def test_monotone_in_k(self):
        prev = 0.0
        for k in range(2, 12):
            q = st.studentized_range_quantile(0.05, k, 20)
            assert q > prev
            prev = q

    def test_t_identity(self):
        from scipy.stats import t
        for df in (5, 15, 60):
            q2 = st.studentized_range_quantile(0.05, 2, df)
            expect = math.sqrt(2) * t.ppf(1 - 0.025, df)
            assert q2 == pytest.approx(expect, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(NumericalError):
            st.studentized_range_quantile(0.0, 2, 10)
        with pytest.raises(NumericalError):
            st.studentized_range_quantile(0.05, 1, 10)
        with pytest.raises(NumericalError):
            st.studentized_range_quantile(0.05, 2, 0)


def snk_toy_fit(group_means, n_rep=6, mse=1.0):
    """One-factor toy data with exact group means, residual MSE, and
    df = groups * (n_rep - 1), built from a fixed residual pattern."""
    assert n_rep == 6
    unit = np.array([1.5, -1.5, 0.5, -0.5, 0.0, 0.0])
    assert unit.sum() == 0 and unit @ unit == 5.0   # per-group SS = 5
    rows = []
    for level, mean in enumerate(group_means):
        for r in range(n_rep):
            rows.append(("A", level, mean + math.sqrt(mse) * unit[r]))
    return level_fit(rows)


class TestSnk:

    def test_all_equal_single_group(self):
        fit = snk_toy_fit([5.0, 5.0, 5.0])
        g = st.snk_compare(fit, "level", 0.05)
        assert all(letters == "a" for _, _, letters in g)

    def test_forced_separation(self):
        # two means 100 standard errors apart
        fit = snk_toy_fit([50.0, 0.0])
        g = st.snk_compare(fit, "level", 0.05)
        assert [letters for _, _, letters in g] == ["a", "b"]

    def test_worked_example_letters(self):
        """Four groups, n=6 each, MSE=1, df=20.  Hand-run SNK at the
        published table values q(.05; 2,3,4; 20) = 2.950, 3.578, 3.958
        with SE = sqrt(1/6) = 0.4082:
          span A-D: 3.0  > 3.958*0.4082 = 1.616  -> split
          span A-C: 1.8  > 3.578*0.4082 = 1.461  -> split
          span A-B: 1.0 <= 2.950*0.4082 = 1.204  -> group {A,B}
          span B-C: 0.8 <= 1.204                 -> group {B,C}
          span B-D: 2.0  > 1.461                 -> split
          span C-D: 1.2 <= 1.204?  1.2 <= 1.204  -> group {C,D}
        Letters: A=a, B=ab, C=bc, D=c."""
        fit = snk_toy_fit([10.0, 9.0, 8.2, 7.0])
        assert fit.df_resid == 20
        assert fit.resid_var == pytest.approx(1.0, rel=1e-12)
        g = st.snk_compare(fit, "level", 0.05)
        means = [m for _, m, _ in g]
        assert means == sorted(means, reverse=True)
        assert [(lv, letters) for lv, _, letters in g] == \
            [(0, "a"), (1, "ab"), (2, "bc"), (3, "c")]

    def test_letters_contiguous_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            means = sorted(rng.uniform(0, 5, size=int(rng.integers(3, 7))),
                           reverse=True)
            fit = snk_toy_fit(list(means))
            g = st.snk_compare(fit, "level", 0.05)
            for letter in set("".join(l for _, _, l in g)):
                where = [i for i, (_, _, l) in enumerate(g)
                         if letter in l]
                assert where == list(range(where[0], where[-1] + 1))

    def test_shift_leaves_grouping(self):
        fit1 = snk_toy_fit([10.0, 9.0, 8.2, 7.0])
        fit2 = snk_toy_fit([11.0, 10.0, 9.2, 8.0])
        g1 = st.snk_compare(fit1, "level", 0.05)
        g2 = st.snk_compare(fit2, "level", 0.05)
        assert [l for _, _, l in g1] == [l for _, _, l in g2]

    def test_zero_variance_distinct_letters(self):
        rows = [("A", l, v) for l, v in ((0, 3.0), (1, 2.0), (2, 2.0))
                for _ in range(2)]
        fit = level_fit(rows)
        assert fit.resid_var == pytest.approx(0.0, abs=1e-18)
        g = st.snk_compare(fit, "level", 0.05)
        by_level = {lv: letters for lv, _, letters in g}
        assert by_level[0] != by_level[1]
        assert by_level[1] == by_level[2]

    def test_unknown_factor(self):
        fit = snk_toy_fit([1.0, 2.0])
        with pytest.raises(NumericalError):
            st.snk_compare(fit, "method", 0.05)


ORACLE = Path(__file__).resolve().parent / "data" / "srq_oracle.json"


class TestQuantileOracle:
    """The Gauss-Legendre quantile against scipy's studentized_range:
    recorded by tests/make_srq_oracle.py, and three points live."""

    def test_every_recorded_point(self):
        blob = json.loads(ORACLE.read_text())
        assert blob["columns"] == ["alpha", "k", "df", "q"]
        assert len(blob["points"]) == 3 * 19 * 10
        for alpha, k, df, q in blob["points"]:
            got = st.studentized_range_quantile(alpha, k, float(df))
            assert abs(got - q) <= 1e-9 * q, (alpha, k, df, got, q)

    def test_live_spot_checks(self):
        from scipy.stats import studentized_range
        for alpha, k, df in ((0.05, 16, 2480), (0.01, 3, 9598),
                             (0.10, 20, 7)):
            expect = studentized_range.ppf(1 - alpha, k, df)
            got = st.studentized_range_quantile(alpha, k, df)
            assert abs(got - expect) <= 1e-9 * expect, (alpha, k, df)
