"""The normal cdf and the inverse incomplete gamma functions against
scipy.special, which the library no longer imports."""

import math

import numpy as np
import pytest
from scipy import special as sc

from hierlabel import special, stats


def ulps(got, want):
    """Distance in units in the last place, elementwise (same signs)."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    assert ((got < 0) == (want < 0)).all()
    return np.abs(got.view(np.int64) - want.view(np.int64))


class TestNdtr:

    def test_bit_equal_where_no_exp_is_taken(self):
        # |x| < sqrt(2): the erf polynomial only, operation for operation
        x = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), 200_001)[1:-1]
        assert (special.ndtr(x) == sc.ndtr(x)).all()

    def test_within_4_ulp_on_a_million_points(self):
        x = np.linspace(-40.0, 40.0, 1_000_000)
        assert ulps(special.ndtr(x), sc.ndtr(x)).max() <= 4

    def test_within_4_ulp_on_the_quadrature_nodes(self):
        z = stats._z_rule()[0]
        for df in (5.0, 30.0, 2480.0):
            s = stats._s_rule(df)[0]
            for q in (0.5, 3.0, 5.5):
                zw = z + q * s[:, None]
                got = special.ndtr(zw)
                assert got.shape == zw.shape
                assert ulps(got, sc.ndtr(zw)).max() <= 4, (df, q)

    def test_extremes_and_shapes(self):
        x = np.array([-40.0, -27.0, -0.0, 0.0, 1e-300, 27.0, 40.0])
        assert (special.ndtr(x) == sc.ndtr(x)).all()
        assert special.ndtr(np.empty((0, 3))).shape == (0, 3)
        assert special.ndtr(1.0).shape == ()


class TestGammaQuantile:

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 2480, 9598, 99999])
    def test_the_s_integral_tails(self, df):
        a, tail = 0.5 * df, stats._S_TAIL
        assert special.gamma_quantile(a, tail) == pytest.approx(
            sc.gammaincinv(a, tail), rel=1e-12, abs=0)
        assert special.gamma_quantile(a, tail, upper=True) == pytest.approx(
            sc.gammainccinv(a, tail), rel=1e-12, abs=0)

    def test_both_tails_over_p(self):
        for a in (0.5, 1.0, 3.5, 12.0, 150.5, 4000.0):
            for p in (1e-30, 1e-17, 1e-5, 0.1, 0.5, 0.75, 1 - 1e-9):
                assert special.gamma_quantile(a, p) == pytest.approx(
                    sc.gammaincinv(a, p), rel=1e-12), (a, p)
                assert special.gamma_quantile(a, p, upper=True) == \
                    pytest.approx(sc.gammainccinv(a, p), rel=1e-12), (a, p)

    def test_ends(self):
        assert special.gamma_quantile(2.0, 0.0) == 0.0
        assert special.gamma_quantile(2.0, 1.0) == math.inf
        assert special.gamma_quantile(2.0, 0.0, upper=True) == math.inf
        assert special.gamma_quantile(2.0, 1.0, upper=True) == 0.0
        # quantiles below the smallest double
        for a, p in ((0.5, 1e-300), (0.01, 1e-5)):
            assert special.gamma_quantile(a, p) == sc.gammaincinv(a, p) == 0.0
