"""The special functions the chi-square test and the studentized range
need, on numpy and the standard library alone.

``ndtr`` is the cephes normal cdf (``ndtr``/``erf``/``erfc``, the rational
approximations scipy.special evaluates), with the same coefficients and
branches; it differs from scipy only through ``np.exp`` against libm's
``exp`` on |x| >= sqrt(2), by at most 4 ulp.  ``gamma_quantile``
inverts the regularized incomplete gamma function, evaluated by its
power series or its continued fraction.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2

# cephes ndtr.c: erfc on [1, 8) is exp(-x^2) P(x) / Q(x), on [8, inf)
# exp(-x^2) R(x) / S(x); erf on [0, 1] is x T(x^2) / U(x^2).  Q, S and U
# have a leading coefficient of 1 that is not stored.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)


def _polevl(x, coef, monic=False):
    """cephes polevl (p1evl when ``monic``): Horner from the highest
    coefficient, in the same order of operations."""
    if monic:
        y = x + coef[0]
    else:
        y = x * coef[0]
        y += coef[1]
    for c in coef[1 if monic else 2:]:
        y *= x
        y += c
    return y


def _erf_small(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U, monic=True)


def ndtr(a) -> np.ndarray:
    """Standard normal cdf at each element of ``a``, branch for branch as
    cephes computes it, with x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| <
    1/sqrt(2), otherwise h = 0.5 erfc(|x|), and 1 - h for x > 0.  Every
    element takes the common branch, erfc(z) = exp(-z^2) P(z) / Q(z) for
    1 <= z < 8; the rarer branches overwrite it on their own elements."""
    a = np.asarray(a, dtype=np.float64)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    y = z * z
    np.negative(y, out=y)
    np.exp(y, out=y)
    y *= _polevl(z, _P)
    y /= _polevl(z, _Q, monic=True)
    if z.max(initial=0.0) >= 8.0:
        far = np.flatnonzero(z >= 8.0)
        zf = z[far]
        zz = zf * zf
        yf = np.exp(-zz) * _polevl(zf, _R) / _polevl(zf, _S, monic=True)
        yf[zz > _MAXLOG] = 0.0          # cephes' underflow branch
        y[far] = yf
    near = np.flatnonzero(z < 1.0)
    erf = _erf_small(z[near])
    y[near] = 1.0 - erf
    y *= 0.5
    np.subtract(1.0, y, out=y, where=x > 0)
    # x T(x^2) / U(x^2) is exactly odd: erf(x) is erf(|x|) with x's sign
    mid = z[near] < _SQRT1_2
    erf = np.where(x[near] < 0, -erf, erf)[mid]
    y[near[mid]] = 0.5 + 0.5 * erf
    return y.reshape(a.shape)


# lgamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2) = sum_n B_2n / (2n (2n - 1)
# a^(2n - 1)); seven terms leave less than 3e-17 from a = 10 on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156)
_STIRLING_FROM = 10.0
_LN_2PI = math.log(2.0 * math.pi)
_EPS = 2.0 ** -53


def _log_kernel(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)).  For large a it is taken relative to x = a,
    so that the large terms a ln x, x and lgamma(a) do not cancel."""
    if a < _STIRLING_FROM:
        return a * math.log(x) - x - math.lgamma(a)
    r = 1.0 / (a * a)
    tail = 0.0
    for c in reversed(_STIRLING):
        tail = tail * r + c
    d = (x - a) / a
    if abs(d) < 0.5:
        lead = a * (math.log1p(d) - d)
    else:
        lead = a * math.log(x / a) - (x - a)
    return lead + 0.5 * (math.log(a) - _LN_2PI) - tail / a


def _log_tail(a: float, x: float, upper: bool):
    """ln F and d ln F / d ln x, for F = P(a, x) or, when ``upper``,
    Q(a, x) = 1 - P(a, x); x > 0.  P comes from its power series below
    x = a + 1, Q from its continued fraction (modified Lentz) from there
    on, and the other tail, always the larger there, as 1 minus it."""
    k = _log_kernel(a, x)
    if x < a + 1.0:
        total = term = 1.0
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        log_f, slope, got_upper = k + math.log(total / a), a / total, False
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                break
        log_f, slope, got_upper = k + math.log(h), -1.0 / h, True
    if got_upper != upper:
        f = math.exp(log_f)
        log_f, slope = math.log1p(-f), -f / (1.0 - f) * slope
    return log_f, slope


def gamma_quantile(a: float, p: float, upper: bool = False) -> float:
    """x with P(a, x) = p, the regularized lower incomplete gamma function
    (scipy's ``gammaincinv``), or with Q(a, x) = 1 - P(a, x) = p when
    ``upper`` (``gammainccinv``); a > 0, 0 <= p <= 1.

    The solve runs on the smaller tail: for p > 1/2 it targets the other
    tail at 1 - p, which is exact in floating point.  Newton steps on
    ln(tail) against ln x are kept inside a bracket that every evaluation
    narrows; a step that leaves it is replaced by bisection in ln x, or by
    a factor of 16 while one end is open.  The iteration count is bounded.
    """
    if p > 0.5:
        p, upper = 1.0 - p, not upper
    if p <= 0.0:
        return math.inf if upper else 0.0
    target = math.log(p)
    # start: P <= x^a / Gamma(a + 1) for the lower tail, Wilson-Hilferty
    # (the chi-square with 2a degrees of freedom) for the upper
    if upper:
        t = math.sqrt(-2.0 * target)
        z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
        h = 1.0 / (9.0 * a)
        x = a * max(1.0 - h + z * math.sqrt(h), 0.1) ** 3
    else:
        x = math.exp((target + math.lgamma(a + 1.0)) / a)
        if x == 0.0:                    # so does the quantile
            return 0.0
    lo, hi = 0.0, math.inf
    for _ in range(200):
        g, slope = _log_tail(a, x, upper)
        g -= target
        if g == 0.0:
            return x
        if (g < 0.0) != upper:
            lo = x
        else:
            hi = x
        step = -g / slope if slope else math.nan
        nxt = x * math.exp(step) if abs(step) < 50.0 else math.nan
        if not lo < nxt < hi:
            if lo > 0.0 and hi < math.inf:
                nxt = math.sqrt(lo) * math.sqrt(hi)
            else:
                nxt = 16.0 * lo if hi == math.inf else hi / 16.0
        if abs(nxt - x) <= 2.0 * _EPS * x:
            return nxt
        x = nxt
    return x
