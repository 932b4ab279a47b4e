"""Monte-Carlo sampling of operating conditions.

Draws correlated standard normals (Gaussian copula via Cholesky) and pushes
them through the per-source marginal transforms. The statistics of a run, its
stopping rule included, live in ``pipeline``.

Reproducibility contract: every generator is PCG64 on ``SeedSequence(seed,
spawn_key=key)``, built by ``stream(seed, *key)``. Column ``j`` of a
Monte-Carlo draw (``popf``, ``compare``) takes the key ``(j,)``, column ``j``
of a label draw (``gen-data``, its replacement rows included) ``(j, 1)``
(``LABEL_BRANCH``), and training takes ``(10,)`` to ``(13,)`` of
``train.seed``. So columns can be generated in any order (or in parallel)
with identical output, and a label draw shares no stream with the
Monte-Carlo draw of its seed.

The PV marginal inverts the regularized incomplete beta function without
a special-function call per value (an inverse-CDF table with Hermite
interpolation; Hoermann & Leydold, ACM TOMACS 13(4), 2003). Each tail is
solved on its own side: ``z <= 0`` solves ``I_x(alpha, beta) = Phi(z)``,
``z > 0`` solves ``I_y(beta, alpha) = Phi(-z)`` and returns ``1 - y``, so
the upper tail is not lost to ``Phi(z)`` rounding near 1. For each
``(p, q)`` a table is built once and cached: the quantiles ``x_k`` of
``I_x(p, q) = Phi(-s_k)`` at the nodes ``s_k = k/256``, ``k = 0..2125``
(``_beta_nodes``: Newton on ``log x`` from the closed-form start of AS 109,
Cran, Martin & Thomas, 1977, on the numpy incomplete beta ``_betainc``, with
``Phi`` from ``_ndtr``, a numpy port of Cephes' ``ndtr``), and per cell the
quintic Hermite interpolant of ``w = log x`` from ``w``, ``h w'`` and ``h^2
w''`` at both ends (``h = 1/256``), the derivatives taken from the
quantile's ODE: ``w' = -phi(s) / (f(x) x)`` and ``w'' = -s w' - (p - (q -
1) x / (1 - x)) w'^2`` (``f`` the beta density). A value ``|z| = s`` falls in cell ``k = floor(256 s)`` at
``u = 256 s - k``, both exact in binary, and is ``x_k exp(P_k(u))``
clipped to the cell: no special function runs per value, and every node
returns its table value. Past the last node, and on a tail whose nodes would
underflow or round to 1, the nodes' Newton (``_beta_nodes``) solves each value
on its own tail. Every value depends on its own ``z`` only, which keeps draws
prefix-stable.

A draw runs on the calling thread. Inside the Monte-Carlo block pass of
``pipeline.run_popf`` the calling thread draws and correlates each row
block's normals here (``SampleStream.normals``), block after block, and the
block transforms its own marginals; correlation and the transforms work row
by row, so a row's values do not depend on the rows drawn or transformed
with it. A ``SampleStream`` checks and factors its correlation groups
once, when it is made, and keeps every column's generator between draws,
so consecutive draws of n1, n2, ... rows are the rows of one draw of n1 +
n2 + ... rows; ``popf --converge`` draws its blocks, and ``gen-data`` its
replacement rows, this way.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .grid import SRC_GAUSSIAN_LOAD, SRC_PV, SRC_WIND, NetworkCase, StochasticSource

log = logging.getLogger("popflow")

# nodes of |z| for the beta quantile table, s = k / 256 up to 8.30; past the
# last node the nodes' Newton answers directly
_BETA_NODES_PER_UNIT = 256.0
_BETA_NODES = np.arange(2126) / _BETA_NODES_PER_UNIT

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SampleMatrix:
    """Realized per-unit active injections, one row per MCS draw."""

    values: np.ndarray


@dataclass(frozen=True)
class CorrelationSpec:
    """Per-group correlation matrices over source column indices."""

    groups: dict

    @classmethod
    def for_case(cls, case: NetworkCase, matrices: dict) -> "CorrelationSpec":
        """Resolve group members from the corr_group labels, in case order."""
        groups = {}
        for name, matrix in matrices.items():
            members = tuple(i for i, s in enumerate(case.sources) if s.corr_group == name)
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (len(members), len(members)):
                raise ValueError(
                    f"group {name!r} has {len(members)} member sources but a "
                    f"{matrix.shape[0]}x{matrix.shape[1]} matrix")
            groups[name] = (members, matrix)
        return cls(groups=groups)


# ---------------------------------------------------------------------------
# drawing and correlating


# the key branch of a label draw: column j of it uses the key (j, 1)
LABEL_BRANCH = (1,)


def stream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 generator of ``seed``'s stream ``key`` (see the module doc)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def correlate(z: np.ndarray, spec: CorrelationSpec) -> np.ndarray:
    """Impose each group's correlation with its lower Cholesky factor.

    Columns outside every group pass through untouched. Matrices are checked
    for symmetry and unit diagonal; a failed factorization raises
    NotPositiveDefinite naming the group. Every product runs through the
    many-row matrix routine, so a row's bits do not depend on how many rows
    are correlated with it.
    """
    return _apply_factors(z, _cholesky_factors(spec))


def _cholesky_factors(spec: CorrelationSpec) -> list:
    """``(columns, lower Cholesky factor)`` of each group of ``spec`` that
    has members, checked as ``correlate`` describes."""
    factors = []
    for name, (members, matrix) in spec.groups.items():
        if not members:
            continue
        if not np.allclose(matrix, matrix.T, atol=1e-12) or not np.allclose(np.diag(matrix), 1.0, atol=1e-12):
            raise NotPositiveDefinite(name)
        try:
            factors.append((list(members), np.linalg.cholesky(matrix)))
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(name) from None
    return factors


def _apply_factors(z: np.ndarray, factors: list) -> np.ndarray:
    """``z`` with each group's columns multiplied by the transpose of its
    factor (``_cholesky_factors``), on a copy."""
    out = np.array(z, dtype=float, copy=True)
    for cols, lower in factors:
        grouped = z[:, cols]
        if len(grouped) == 1:
            # numpy computes a one-row product with another BLAS routine,
            # whose rounding can differ; a doubled row takes the many-row
            # one, so a row's bits do not depend on the rows drawn with it
            grouped = np.vstack([grouped, grouped])
        out[:, cols] = (grouped @ lower.T)[:len(out)]
    return out


# ---------------------------------------------------------------------------
# special functions: the normal CDF and the regularized incomplete beta

# Cephes' ndtr (Moshier, Methods and Programs for Mathematical Functions,
# 1989): with x = a / sqrt(2), the erf rational T/U below |x| = 1 and the erfc
# rationals exp(-x^2) P/Q below 8 and exp(-x^2) R/S above; U, Q and S are
# monic, their leading 1 left out
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # erfc(x) is 0 past x^2 = _MAXLOG


def _polevl(x, coef, monic=False):
    """Horner's rule in Cephes' order (``p1evl`` when ``monic``)."""
    y = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erfc_rational(z, num, den):
    return np.exp(-z * z) * _polevl(z, num) / _polevl(z, den, monic=True)


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF, elementwise, with Cephes' operations in
    Cephes' order; it differs from the C routine only where numpy's ``exp``
    rounds otherwise than the C library's. NaN gives NaN, -inf 0 and inf 1.

    The erf rational runs on every value (``|x|`` clipped to 1, where it is
    not used) and the erfc rationals on the values that need them only."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    w = np.clip(x, -1.0, 1.0)
    w2 = w * w
    erf = w * _polevl(w2, _ERF_T) / _polevl(w2, _ERF_U, monic=True)
    out = 0.5 + 0.5 * erf
    # |x| >= sqrt(1/2) (and NaN): 0.5 erfc(|x|), reflected above 0
    tail = np.flatnonzero(~(z < _SQRT1_2))
    zt = z[tail]
    y = 0.5 * (1.0 - np.abs(erf[tail]))
    for k, num, den in ((np.flatnonzero((zt >= 1.0) & (zt < 8.0)), _ERFC_P, _ERFC_Q),
                        (np.flatnonzero(zt >= 8.0), _ERFC_R, _ERFC_S)):
        zk = zt[k]
        inside = zk * zk <= _MAXLOG
        y[k] = 0.5 * np.where(inside, _erfc_rational(np.where(inside, zk, 8.0), num, den), 0.0)
    y[np.isnan(zt)] = np.nan
    out[tail] = np.where(x[tail] > 0, 1.0 - y, y)
    return out.reshape(a.shape)


def _log_beta(p: float, q: float) -> tuple:
    """``log B(p, q)`` and ``B(p, q)``. From ``math.gamma`` while every factor
    is finite and B a normal float, so each factor's error stays near an ulp
    where a difference of ``lgamma`` values carries their absolute error (3e-14
    at arguments near 50); from ``lgamma`` past that. Either way the rounding
    ``e`` of ``p + q`` is put back to first order, ``log Gamma(p + q + e) =
    log Gamma(p + q) + psi(p + q) e``: unchecked, it moves B by ``psi(p + q)
    e``, 3e-14 at ``p + q`` near 60."""
    s = p + q
    e = (p - (s - (s - p))) + (q - (s - p))  # Knuth's two-sum: p + q = s + e exactly
    # psi(s) from its asymptotic series at s + n >= 6, which e needs to 1e-3 only
    n = max(0, math.ceil(6.0 - s))
    y = s + n
    psi = math.log(y) - 0.5 / y - 1.0 / (12.0 * y * y) - sum(1.0 / (s + k) for k in range(n))
    if s < 171.0:
        b = math.gamma(p) / math.gamma(s) * math.gamma(q) * (1.0 - psi * e)
        if _TINY <= b < math.inf:
            return math.log(b), b
    log_b = math.lgamma(p) + math.lgamma(q) - math.lgamma(s) - psi * e
    return log_b, math.exp(log_b)


def _beta_front(p: float, q: float, x: np.ndarray) -> np.ndarray:
    """``x^p (1 - x)^q / B(p, q)`` for x in (0, 1): from powers, an ulp or
    so each, while every factor is a normal float; from logs where one
    underflows (the log form's error grows with ``p |log x|``)."""
    log_b, b = _log_beta(p, q)
    bad = np.ones(len(x), dtype=bool)
    front = np.zeros(len(x))
    if b >= _TINY:
        u = x ** (0.5 * p)
        v = np.where(x < 0.5, np.exp(q * np.log1p(-x)), (1.0 - x) ** q) / b
        front = u * v * u
        bad = ~((u >= _TINY) & (front >= _TINY))
    if bad.any():
        xb = x[bad]
        front[bad] = np.exp(p * np.log(xb) + q * np.log1p(-xb) - log_b)
    return front


def _beta_cf(a, b, x) -> np.ndarray:
    """The continued fraction of ``I_x(a, b)`` by modified Lentz (Numerical
    Recipes' ``betacf``), elementwise over arrays of equal length; each
    element stops on its own once its Lentz factor is within an ulp of 1
    (where ``_betainc`` calls it: within 10 terms at case14's shape, 25 at
    ``(50, 50)``, 200 at ``(50, 0.2)``), or at 1000 terms."""
    small = 1e-300
    out = np.empty(len(x))
    idx = np.arange(len(x))
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones(len(x))
    d = 1.0 - qab * x / qap
    d[np.abs(d) < small] = small
    d = 1.0 / d
    h = d.copy()
    for m in range(1, 1001):
        m2 = 2.0 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d[np.abs(d) < small] = small
            c = 1.0 + aa / c
            c[np.abs(c) < small] = small
            d = 1.0 / d
            step = d * c
            h *= step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():
            out[idx[done]] = h[done]
            keep = ~done
            idx, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (idx, a, b, x, qab, qap, qam, c, d, h))
            if not len(idx):
                return out
    out[idx] = h
    return out


def _betainc(p: float, q: float, x) -> np.ndarray:
    """The regularized incomplete beta ``I_x(p, q)``, elementwise:
    ``_beta_front`` times the continued fraction, or ``1 - I_{1-x}(q, p)``
    past both ``(p + 1) / (p + q + 2)``, where the fraction stops converging
    fast (Numerical Recipes' switch), and the mean ``p / (p + q)``. Below the
    mean ``I`` can be small, and ``1 - I_{1-x}(q, p)`` would carry the error
    of its fraction into it enlarged, to 2.6e-13 relative at ``(50, 0.2)``."""
    x = np.asarray(x, dtype=float)
    out = np.clip(x.reshape(-1), 0.0, 1.0)
    inner = np.flatnonzero((out > 0.0) & (out < 1.0))
    xi = out[inner]
    flip = xi > max((p + 1.0) / (p + q + 2.0), p / (p + q))
    cf = _beta_cf(np.where(flip, q, p), np.where(flip, p, q), np.where(flip, 1.0 - xi, xi))
    term = _beta_front(p, q, xi) * cf
    out[inner] = np.where(flip, 1.0 - term / q, term / p)
    return out.reshape(x.shape)


def _beta_nodes(p: float, q: float, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The quantiles ``x_k`` of ``I_x(p, q) = t_k = Phi(-s_k)``, ``s_k >= 0``:
    0 below the smallest normal float, 1 where one rounds up to 1, NaN at NaN.

    Newton on ``log x`` (``G = log I``, ``G' = x f(x) / I``) from AS 109's
    closed-form start, whose normal deviate of ``t_k`` is ``s_k`` itself.
    Each node keeps a bracket; a step that leaves it goes halfway to its
    bound in ``log x`` instead. A node stops on its own after a step below
    2^-40 in ``log x`` (its own error below 1e-24) from a point within 2^-20
    of ``log t`` (near 1 with ``q < 1``, ``G'`` is so large that steps far from
    the root are tiny too); case14's nodes take 3 to 4 rounds, 100 is the cap."""
    lo_x, hi_x = _TINY, 1.0 - _EPS / 2
    ends = _betainc(p, q, np.array([lo_x, hi_x]))
    out = np.where(t > ends[1], 1.0, np.where(np.isnan(t), np.nan, 0.0))
    idx = np.flatnonzero((t >= ends[0]) & (t > 0.0) & (t <= ends[1]))
    s, t = s[idx], t[idx]
    log_b, _ = _log_beta(p, q)
    with np.errstate(all="ignore"):  # a start out of range is clipped below
        if p > 1.0 and q > 1.0:
            r = (s * s - 3.0) / 6.0
            a, c = 1.0 / (2.0 * p - 1.0), 1.0 / (2.0 * q - 1.0)
            h = 2.0 / (a + c)
            w = s * np.sqrt(h + r) / h - (c - a) * (r + 5.0 / 6.0 - 2.0 / (3.0 * h))
            x = p / (p + q * np.exp(2.0 * w))
        else:
            c = 2.0 * q * (1.0 - 1.0 / (9.0 * q) + s * math.sqrt(1.0 / (9.0 * q))) ** 3
            ratio = (4.0 * p + 2.0 * q - 2.0) / c
            x = np.where(c <= 0.0, -np.expm1((np.log1p(-t) + math.log(q) + log_b) / q),
                         np.where(ratio <= 1.0, np.exp((np.log(t * p) + log_b) / p),
                                  1.0 - 2.0 / (ratio + 1.0)))
    x = np.clip(np.nan_to_num(x, nan=0.5), lo_x, hi_x)
    lo, hi = np.full_like(x, lo_x), np.full_like(x, hi_x)
    for _ in range(100):
        if not len(idx):
            break
        cdf = _betainc(p, q, x)
        slope = _beta_front(p, q, x) / (1.0 - x)  # x f(x)
        below = cdf < t
        lo = np.where(below, x, lo)
        hi = np.where(cdf > t, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            miss = np.log(cdf / t)
            step = miss * (cdf / slope)
            new = x * np.exp(-step)
        done = (np.abs(step) <= 2.0 ** -40) & (np.abs(miss) <= 2.0 ** -20)
        bounded = done | ((new > lo) & (new < hi))
        new = np.where(bounded, new, np.sqrt(x) * np.sqrt(np.where(below, hi, lo)))
        if done.any():
            out[idx[done]] = new[done]
            keep = ~done
            idx, new, lo, hi, t = idx[keep], new[keep], lo[keep], hi[keep], t[keep]
        x = new
    out[idx] = x
    return out


# ---------------------------------------------------------------------------
# marginal transforms


def transform_marginal(z, source: StochasticSource):
    """Map standard-normal values to per-unit injections for one source.

    PV is ``rated * I^-1_{alpha,beta}(Phi(z))``, computed by
    ``_beta_quantile_of_normal`` (quintic Hermite interpolation of a cached
    table, each tail on its own side; see the module doc).
    """
    z = np.asarray(z, dtype=float)
    p = source.params
    if source.kind == SRC_GAUSSIAN_LOAD:
        return p["mean"] + p["std"] * z
    if source.kind == SRC_WIND:
        # inverse Weibull of Phi(z); 1 - Phi(z) = Phi(-z) keeps the tail exact.
        # A small shape can take the speed past the largest float: inf is the
        # saturated answer, and the curve gives it 0 past cut-out
        with np.errstate(over="ignore", divide="ignore"):
            speed = p["weibull_scale"] * (-np.log(_ndtr(-z))) ** (1.0 / p["weibull_shape"])
        return wind_power_curve(speed, p)
    if source.kind == SRC_PV:
        return p["rated"] * _beta_quantile_of_normal(p["alpha"], p["beta"], z)
    raise ValueError(f"unknown source kind {source.kind!r}")


def _beta_quantile_of_normal(a: float, b: float, z) -> np.ndarray:
    """``I^-1_{a,b}(Phi(z))`` elementwise; the upper tail is ``1 - I^-1_{b,a}(Phi(-z))``
    (see the module doc)."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    s = np.abs(flat)
    upper = flat > 0
    cells, lower_max, upper_max = _beta_quantile_table(a, b)
    # NaN and values past the table read the last node here and are replaced below
    pos = np.fmin(s, _BETA_NODES[-1]) * _BETA_NODES_PER_UNIT
    cell = pos.astype(np.intp)
    u = pos - cell
    cell += upper * len(_BETA_NODES)
    hi, lo, m0, c2, a3, a4, a5 = cells.take(cell, axis=1)
    # x_k exp(u (m0 + u (c2 + u (a3 + u (a4 + u a5))))), clipped to the cell
    x = a5 * u
    for coef in (a4, a3, c2, m0):
        x += coef
        x *= u
    np.exp(x, out=x)
    x *= hi
    np.minimum(np.maximum(x, lo, out=x), hi, out=x)
    out = np.where(upper, 1.0 - x, x)
    past = ~(s <= np.where(upper, upper_max, lower_max))
    for tail, p, q in ((~upper, a, b), (upper, b, a)):
        i = np.flatnonzero(past & tail)
        if len(i):
            x = _beta_nodes(p, q, s[i], _ndtr(-s[i]))
            out[i] = np.where(upper[i], 1.0 - x, x)
    return out.reshape(z.shape)


# 238 KB per entry; bounded so that a sweep over shape parameters cannot grow it
@functools.lru_cache(maxsize=32)
def _beta_quantile_table(a: float, b: float):
    """The cells of both tails side by side, lower (``_beta_tail_cells(a,
    b)``) then upper (``_beta_tail_cells(b, a)``), and the largest ``s``
    each tail's table covers."""
    start = time.perf_counter()
    lower, lower_max = _beta_tail_cells(a, b)
    upper, upper_max = _beta_tail_cells(b, a)
    cells = np.hstack([lower, upper])
    cells.flags.writeable = False
    log.debug("PV quantile table for beta(%r, %r) built in %.3g ms", a, b,
              1e3 * (time.perf_counter() - start))
    return cells, lower_max, upper_max


def _beta_tail_cells(p: float, q: float):
    """Rows ``x_k, x_{k+1}`` and the quintic's coefficients of ``u`` to
    ``u^5`` over cell ``k`` of ``w = log I^-1_{p,q}(Phi(-s))`` (see the
    module doc), one column per node; the last node's column is a cell of
    zero width. A shape so small that some node underflows below the
    smallest normal float or rounds up to 1 gets zeros and covers nothing
    (-inf), and ``_beta_nodes`` answers that whole tail."""
    s = _BETA_NODES
    x = _beta_nodes(p, q, s, _ndtr(-s))
    cells = np.zeros((7, len(s)))
    if not np.all((x > 0.0) & (x < 1.0)):
        return cells, -np.inf
    log_beta, _ = _log_beta(p, q)
    # w' and w'' times h and h^2, the slope in logs: w' = -phi(s) / (f(x) x)
    log_density_x = p * np.log(x) + (q - 1.0) * np.log1p(-x) - log_beta
    w1 = -np.exp(-0.5 * s * s - 0.5 * np.log(2.0 * np.pi) - log_density_x)
    w2 = -s * w1 - (p - (q - 1.0) * x / (1.0 - x)) * w1 * w1
    m = w1 / _BETA_NODES_PER_UNIT
    c = w2 / _BETA_NODES_PER_UNIT ** 2
    # P(0) = 0, P(1) = log(x_{k+1} / x_k), and P', P'' at both ends
    rise = np.log(x[1:] / x[:-1]) - m[:-1] - 0.5 * c[:-1]
    slope = m[1:] - m[:-1] - c[:-1]
    bend = c[1:] - c[:-1]
    cells[0], cells[1, :-1], cells[1, -1] = x, x[1:], x[-1]
    cells[2:, :-1] = (m[:-1], 0.5 * c[:-1],
                      10.0 * rise - 4.0 * slope + 0.5 * bend,
                      -15.0 * rise + 7.0 * slope - bend,
                      6.0 * rise - 3.0 * slope + 0.5 * bend)
    return cells, s[-1]


def wind_power_curve(speed, params):
    """Piecewise curve: zero outside [cut_in, cut_out], cubic ramp to rated.

    The ramp is proportional to speed^3 and reaches rated power exactly at
    the rated speed; past it, up to cut-out, the clip holds output at rated
    (``rated_speed > 0``, see ``grid``). A NaN speed gives 0.
    """
    speed = np.asarray(speed, dtype=float)
    rated_speed = params["rated_speed"]
    # the ramp's ratio lies in [0, 1] before it is cubed, so nothing overflows
    ramp = params["rated"] * (np.clip(speed, 0.0, rated_speed) / rated_speed) ** 3
    return np.where((speed >= params["cut_in"]) & (speed <= params["cut_out"]), ramp, 0.0)


def sample_operating_conditions(case: NetworkCase, n: int,
                                spec: CorrelationSpec | None = None,
                                seed: int = 0) -> SampleMatrix:
    """Draw, correlate, and marginal-transform n operating conditions: the
    first n rows of ``SampleStream(case, spec, seed)``."""
    return SampleStream(case, spec, seed).draw(n)


class SampleStream:
    """One seed's operating conditions, drawn in consecutive pieces.

    Column ``j`` draws from ``stream(seed, j, *branch)``: the Monte-Carlo
    streams by default, the label streams with ``branch=LABEL_BRANCH``. Each
    ``draw`` continues every column's generator where the previous one
    stopped, so the pieces are the rows of one draw of their total length,
    bit for bit, and no row is drawn twice. The groups of ``spec`` are
    checked and factored here, once, as ``correlate`` checks them.
    """

    def __init__(self, case: NetworkCase, spec: CorrelationSpec | None = None,
                 seed: int = 0, branch: tuple = ()):
        if case.n_sources == 0:
            raise ValueError("case has no stochastic sources to sample")
        self.sources = case.sources
        self._factors = [] if spec is None else _cholesky_factors(spec)
        self._generators = [stream(seed, j, *branch) for j in range(case.n_sources)]

    def draw(self, n: int) -> SampleMatrix:
        """The next n rows: drawn, correlated and transformed on this thread."""
        return SampleMatrix(values=self._transform_rows(self.normals(n)))

    def normals(self, n: int) -> np.ndarray:
        """The next n rows of correlated standard normals; consecutive calls
        must not overlap, for they advance the same generators."""
        if n < 1:
            raise ValueError("n must be at least 1")
        z = np.empty((n, len(self._generators)))
        for j, rng in enumerate(self._generators):
            z[:, j] = rng.standard_normal(n)
        return _apply_factors(z, self._factors) if self._factors else z

    def _transform_rows(self, z) -> np.ndarray:
        """The marginal transforms of the normals ``z``, column by column."""
        values = np.empty_like(z)
        for j, src in enumerate(self.sources):
            values[:, j] = transform_marginal(z[:, j], src)
        return values
