"""Additive variance decomposition of the retrieval measures and the
Student-Newman-Keuls multiple mean comparison.

The measure is modeled as grand mean + hierarchy-level effect + labeling-
method effect (sum-to-zero coding, plain least squares), so balanced and
unbalanced observation tables are both handled.  SNK letter groups are
computed over the adjusted (least-squares) means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .queryeval import ObservationTable
from .special import gamma_quantile, ndtr


@dataclass
class GlmFit:
    mu: float
    factors: dict                  # name -> ordered list of level labels
    effects: dict                  # name -> {level: effect}
    adjusted_means: dict           # name -> {level: mu + effect}
    group_sizes: dict              # name -> {level: observation count}
    resid_var: float
    df_resid: int


def _sum_to_zero(pos: np.ndarray, k: int) -> np.ndarray:
    """n x (k-1) sum-to-zero contrast columns of one categorical factor
    whose rows hold the level positions ``pos``."""
    return np.vstack([np.eye(k - 1), -np.ones(k - 1)])[pos]


def _fit(y, factors: dict) -> GlmFit:
    """``factors`` maps each factor's name to (its ordered level labels,
    each row's position among them)."""
    n = y.size
    blocks = [np.ones((n, 1))]
    sizes = {}
    for name, (levels, pos) in factors.items():
        if len(levels) < 2:
            raise NumericalError(
                f"factor {name!r} needs at least two levels, got {levels}"
            )
        counts = np.bincount(pos, minlength=len(levels))
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise NumericalError(
                f"factor {name!r} level {levels[empty[0]]!r} has no "
                f"observations"
            )
        sizes[name] = dict(zip(levels, counts.tolist()))
        blocks.append(_sum_to_zero(pos, len(levels)))
    x = np.hstack(blocks)
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    rss = float(resid @ resid)
    df = n - int(rank)
    resid_var = rss / df if df > 0 else 0.0

    mu = float(beta[0])
    effects, adjusted = {}, {}
    col = 1
    for name, (levels, _) in factors.items():
        k = len(levels)
        coef = beta[col:col + k - 1]
        col += k - 1
        eff = {lv: float(coef[j]) for j, lv in enumerate(levels[:-1])}
        eff[levels[-1]] = float(-coef.sum())
        effects[name] = eff
        adjusted[name] = {lv: mu + e for lv, e in eff.items()}
    return GlmFit(
        mu=mu, factors={name: list(levels)
                        for name, (levels, _) in factors.items()},
        effects=effects, adjusted_means=adjusted, group_sizes=sizes,
        resid_var=resid_var, df_resid=df,
    )


def _level_factor(table: ObservationTable) -> tuple:
    """The hierarchy-level factor: sorted level labels, row positions."""
    levels, pos = np.unique(table.level, return_inverse=True)
    return levels.tolist(), pos


def fit_additive_model(table: ObservationTable, measure: str,
                       methods=None) -> GlmFit:
    """measure ~ mean + hierarchy level + labeling method, least squares.

    The table must already be restricted to a single query kind.  The
    factor levels come from the data; a ``methods`` list pins the method
    factor's.
    """
    if not len(table):
        raise NumericalError("empty observation table")
    y = table.values(measure).astype(np.float64)
    methods = list(methods) if methods is not None else table.methods()
    at = {m: j for j, m in enumerate(methods)}
    pos = np.array([at.get(m, -1) for m in table.method_names],
                   np.int64)[table.method]
    if (pos < 0).any():
        stray = table.method_names[table.method[np.argmax(pos < 0)]]
        raise NumericalError(f"unexpected method level {stray!r}")
    return _fit(y, {"level": _level_factor(table), "method": (methods, pos)})


def fit_level_model(table: ObservationTable, measure: str) -> GlmFit:
    """measure ~ mean + hierarchy level, for a single method's rows."""
    if not len(table):
        raise NumericalError("empty observation table")
    codes = np.unique(table.method)
    if codes.size > 1:
        raise NumericalError(
            f"level model expects one method, got "
            f"{sorted(table.method_names[c] for c in codes)}"
        )
    y = table.values(measure).astype(np.float64)
    return _fit(y, {"level": _level_factor(table)})


# Studentized range quantile by fixed-order composite Gauss-Legendre
# quadrature of the integral of Copenhaver & Holland 1988 (as in R's
# ptukey).  With S = chi_df / sqrt(df) and W the cdf of the range of k
# standard normals,
#     F(q) = int W(q s) f_S(s) ds,
#     W(w) = k int phi(z) (Phi(z + w) - Phi(z))^(k - 1) dz.
# z runs over [-8.5, 8.5] and u = log s between the 1e-17 tails of S, each
# on 6 panels of 32 nodes; from df = 1e5 on, F(q) = W(q) (known variance).
# Phi is the cephes normal cdf and the tails of S are inverse incomplete
# gamma functions, both from .special, so no stats run loads scipy.
_GL_PANELS, _GL_ORDER = 6, 32
_Z_SPAN = 8.5
_S_TAIL = 1e-17
_KNOWN_VARIANCE_DF = 1e5
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gauss_legendre(lo: float, hi: float, panels: int = _GL_PANELS):
    """Nodes and weights of the composite rule on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


@lru_cache(maxsize=1)
def _z_rule():
    """z nodes, phi(z) * weight and Phi(z); built on first use."""
    z, w = _gauss_legendre(-_Z_SPAN, _Z_SPAN)
    return z, w * _INV_SQRT_2PI * np.exp(-0.5 * z * z), ndtr(z)


@lru_cache(maxsize=None)
def _s_rule(df: float):
    """s nodes and the weights of the density of S in u = log s."""
    a = 0.5 * df
    lo = math.log(2.0 * gamma_quantile(a, _S_TAIL) / df) / 2.0
    hi = math.log(2.0 * gamma_quantile(a, _S_TAIL, upper=True) / df) / 2.0
    # df < 5 widens the range (to 41 at df = 1); keep panels <= 1.6 wide
    u, w = _gauss_legendre(lo, hi, max(_GL_PANELS, math.ceil((hi - lo) / 1.6)))
    s = np.exp(u)
    # the density up to its constant, shifted to peak at 1; normalised on
    # the nodes, which is exact to 2e-17 here and avoids the cancellation
    # of the log-gamma constant at large df
    dens = w * np.exp(df * u - a * s * s + a)
    return s, dens / dens.sum()


def _range_cdf_pdf(w, k: int):
    """W and dW/dw of the range of k standard normals at each w in the
    column vector ``w``."""
    z, wphi, cdf_z = _z_rule()
    zw = z + w
    d = ndtr(zw) - cdf_z
    dk2 = d ** (k - 2)
    cdf = k * ((wphi * d) * dk2).sum(axis=-1)
    pdf = (k * (k - 1) * _INV_SQRT_2PI) * (
        (wphi * np.exp(-0.5 * zw * zw)) * dk2).sum(axis=-1)
    return cdf, pdf


def _srq_cdf_pdf(q: float, k: int, df: float):
    """F(q) and F'(q) of the studentized range with k groups, df d.o.f."""
    if df >= _KNOWN_VARIANCE_DF:
        cdf, pdf = _range_cdf_pdf(np.array([[q]]), k)
        return float(cdf[0]), float(pdf[0])
    s, ws = _s_rule(df)
    cdf, pdf = _range_cdf_pdf((q * s)[:, None], k)
    return float(ws @ cdf), float(ws @ (s * pdf))


def _srq_solve(p: float, k: int, df: float) -> float:
    """q with F(q) = p by Newton steps kept inside a bracket.  Known
    variance: a few bisection steps first.  Finite df: start from the
    known-variance quantile, which halves the double-integral evaluations."""
    lo, hi = 0.0, math.inf
    if df < _KNOWN_VARIANCE_DF:
        q = _srq_solve(p, k, math.inf)
        if not math.isfinite(q):
            return math.nan
    else:
        hi = 8.0
        while _srq_cdf_pdf(hi, k, df)[0] < p:
            lo, hi = hi, 2.0 * hi
            if hi > 1e6:
                return math.nan
        for _ in range(4):
            mid = 0.5 * (lo + hi)
            if _srq_cdf_pdf(mid, k, df)[0] < p:
                lo = mid
            else:
                hi = mid
        q = 0.5 * (lo + hi)
    for _ in range(60):
        cdf, pdf = _srq_cdf_pdf(q, k, df)
        if cdf == p:
            return q
        if cdf < p:
            lo = q
        else:
            hi = q
        nxt = q - (cdf - p) / pdf if pdf > 0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * q
        if abs(nxt - q) <= 1e-12 * q:
            return nxt
        q = nxt
    return math.nan


@lru_cache(maxsize=None)
def _srq_cached(alpha: float, k: int, df: float) -> float:
    q = _srq_solve(1.0 - alpha, k, df)
    if not math.isfinite(q):
        raise NumericalError(
            f"studentized range quantile failed for alpha={alpha}, k={k}, df={df}"
        )
    return q


def studentized_range_quantile(alpha: float, k: int, df) -> float:
    """Upper-alpha quantile of the studentized range distribution.

    ``df`` may be math.inf for the limiting (known-variance) case.
    """
    if not 0 < alpha < 1:
        raise NumericalError("alpha must be in (0, 1)")
    if k < 2:
        raise NumericalError("range size k must be >= 2")
    df = float(df)
    if df < 1:
        raise NumericalError("df must be >= 1 (or inf)")
    return _srq_cached(alpha, int(k), df)


@dataclass
class SnkGrouping:
    """Factor levels sorted by adjusted mean (descending) with letter sets;
    two levels share a letter iff SNK could not separate them."""
    factor: str
    alpha: float
    entries: list = field(default_factory=list)  # (level, mean, letters)


def snk_compare(fit: GlmFit, factor: str, alpha: float = 0.05) -> SnkGrouping:
    """Stepwise Student-Newman-Keuls over the factor's adjusted means.

    A span of p adjacent sorted means is homogeneous when its range is at
    most q(alpha, p, df) * sqrt(resid_var / n~), with n~ the harmonic mean
    of the group sizes.  Once a span is homogeneous its sub-spans are not
    tested (the usual protection rule).  With zero residual variance only
    exactly equal means share a group.
    """
    if factor not in fit.adjusted_means:
        raise NumericalError(f"fit has no factor {factor!r}")
    means = fit.adjusted_means[factor]
    levels = sorted(means, key=lambda lv: (-means[lv], str(lv)))
    k = len(levels)
    if k < 2:
        raise NumericalError("SNK needs at least two levels")
    sizes = [fit.group_sizes[factor][lv] for lv in levels]
    n_harm = len(sizes) / sum(1.0 / s for s in sizes)
    m = np.asarray([means[lv] for lv in levels])

    degenerate = fit.resid_var <= 0.0 or fit.df_resid <= 0

    def critical(p):
        if degenerate:
            return 0.0
        q = studentized_range_quantile(alpha, p, fit.df_resid)
        return q * math.sqrt(fit.resid_var / n_harm)

    homogeneous = set()
    tested = {}

    def walk(i, j):
        if i >= j or (i, j) in tested:
            return
        span = j - i + 1
        ok = (m[i] - m[j]) <= critical(span) + 1e-12 * max(1.0, abs(m[i]))
        tested[(i, j)] = ok
        if ok:
            homogeneous.add((i, j))
        else:
            walk(i, j - 1)
            walk(i + 1, j)

    walk(0, k - 1)

    # maximal homogeneous spans, plus singletons for uncovered levels
    spans = sorted(homogeneous)
    maximal = [s for s in spans
               if not any(o != s and o[0] <= s[0] and s[1] <= o[1] for o in spans)]
    covered = set()
    for a, b in maximal:
        covered.update(range(a, b + 1))
    for i in range(k):
        if i not in covered:
            maximal.append((i, i))
    maximal.sort()

    letters = [set() for _ in range(k)]
    for rank, (a, b) in enumerate(maximal):
        mark = _letter(rank)
        for i in range(a, b + 1):
            letters[i].add(mark)
    grouping = SnkGrouping(factor=factor, alpha=alpha)
    for i, lv in enumerate(levels):
        grouping.entries.append((lv, float(m[i]), "".join(sorted(letters[i]))))
    return grouping


def _letter(rank: int) -> str:
    out = ""
    rank += 1
    while rank:
        rank, r = divmod(rank - 1, 26)
        out = chr(ord("a") + r) + out
    return out
