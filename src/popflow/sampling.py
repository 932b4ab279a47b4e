"""Monte-Carlo sampling of operating conditions.

Draws correlated standard normals (Gaussian copula via Cholesky) and pushes
them through the per-source marginal transforms. The statistics of a run, its
stopping rule included, live in ``pipeline``.

Reproducibility contract: the generator is PCG64 and column ``j`` of a draw
uses the stream ``SeedSequence(seed, spawn_key=(j,))``, so columns can be
generated in any order (or in parallel) with identical output. Redraw round
``r >= 1`` (replacements for samples the oracle could not label) uses
``spawn_key=(j, r)``. SeedSequence pads seeds below 2**128 to four words
ahead of the key, so for such seeds a redraw stream is one word longer than
every round-0 stream, and no round-0 draw can reproduce it.

The PV marginal inverts the regularized incomplete beta function without
a special-function call per value (an inverse-CDF table with Hermite
interpolation; Hoermann & Leydold, ACM TOMACS 13(4), 2003). Each tail is
solved on its own side: ``z <= 0`` solves ``I_x(alpha, beta) = Phi(z)``,
``z > 0`` solves ``I_y(beta, alpha) = Phi(-z)`` and returns ``1 - y``, so
the upper tail is not lost to ``Phi(z)`` rounding near 1. For each
``(p, q)`` a table is built once and cached: the quantiles ``x_k`` of
``I_x(p, q) = Phi(-s_k)`` at the nodes ``s_k = k/256``, ``k = 0..2125``
(``betaincinv``, polished by one Newton step on ``betainc``; Cran, Martin &
Thomas, AS 109, 1977), and per cell the quintic Hermite interpolant of
``w = log x`` from ``w``, ``h w'`` and ``h^2 w''`` at both ends (``h =
1/256``), the derivatives taken from the quantile's ODE: ``w' = -phi(s) /
(f(x) x)`` and ``w'' = -s w' - (p - (q - 1) x / (1 - x)) w'^2`` (``f`` the
beta density). A value ``|z| = s`` falls in cell ``k = floor(256 s)`` at
``u = 256 s - k``, both exact in binary, and is ``x_k exp(P_k(u))``
clipped to the cell: no special function runs per value, and every node
returns its table value. Past the last node, and for shapes so small that a
node underflows or rounds to 1, ``betaincinv`` answers directly. Every value
depends on its own ``z`` only, which keeps draws prefix-stable.

A draw runs on the calling thread. Inside the Monte-Carlo block pass of
``pipeline.run_popf`` the normals are drawn and correlated here
(``SampleStream.normals``) and each row block transforms its own marginals;
the transforms are elementwise, so a row's values do not depend on the rows
transformed with it. A ``SampleStream`` keeps every column's generator
between draws, so consecutive draws of n1, n2, ... rows are the rows of one
draw of n1 + n2 + ... rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, betaln, ndtr

from .errors import NotPositiveDefinite
from .grid import SRC_GAUSSIAN_LOAD, SRC_PV, SRC_WIND, NetworkCase, StochasticSource

# nodes of |z| for the beta quantile table, s = k / 256 up to 8.30; past the
# last node betaincinv answers directly
_BETA_NODES_PER_UNIT = 256.0
_BETA_NODES = np.arange(2126) / _BETA_NODES_PER_UNIT


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


def _column_generators(d: int, seed: int, redraw: int) -> list:
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                seed, spawn_key=(j, redraw) if redraw else (j,))))
            for j in range(d)]


def _draw_normals(generators: list, n: int) -> np.ndarray:
    """The next n standard normals of each column's generator."""
    if n < 1 or not generators:
        raise ValueError("n and d must be at least 1")
    out = np.empty((n, len(generators)))
    for j, rng in enumerate(generators):
        out[:, j] = rng.standard_normal(n)
    return out


def correlate(z: np.ndarray, spec: CorrelationSpec) -> np.ndarray:
    """Impose each group's correlation with its lower Cholesky factor.

    Columns outside every group pass through untouched. Matrices are checked
    for symmetry and unit diagonal; a failed factorization raises
    NotPositiveDefinite naming the group. Every product runs through the
    many-row matrix routine, so a row's bits do not depend on how many rows
    are correlated with it.
    """
    out = np.array(z, dtype=float, copy=True)
    for name, (members, matrix) in spec.groups.items():
        if not members:
            continue
        if not np.allclose(matrix, matrix.T, atol=1e-12) or not np.allclose(np.diag(matrix), 1.0, atol=1e-12):
            raise NotPositiveDefinite(name)
        try:
            lower = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(name) from None
        cols = list(members)
        grouped = z[:, cols]
        if len(grouped) == 1:
            # numpy computes a one-row product with another BLAS routine,
            # whose rounding can differ; a doubled row takes the many-row
            # one, so a row's bits do not depend on the rows drawn with it
            grouped = np.vstack([grouped, grouped])
        out[:, cols] = (grouped @ lower.T)[:len(out)]
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
        # inverse Weibull of Phi(z); 1 - Phi(z) = Phi(-z) keeps the tail exact
        speed = p["weibull_scale"] * (-np.log(ndtr(-z))) ** (1.0 / p["weibull_shape"])
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
    if past.any():
        i = np.flatnonzero(past & ~upper)
        out[i] = betaincinv(a, b, ndtr(flat[i]))
        i = np.flatnonzero(past & upper)
        out[i] = 1.0 - betaincinv(b, a, ndtr(-flat[i]))
    return out.reshape(z.shape)


# 238 KB per entry; bounded so that a sweep over shape parameters cannot grow it
@functools.lru_cache(maxsize=32)
def _beta_quantile_table(a: float, b: float):
    """The cells of both tails side by side, lower (``_beta_tail_cells(a,
    b)``) then upper (``_beta_tail_cells(b, a)``), and the largest ``s``
    each tail's table covers."""
    lower, lower_max = _beta_tail_cells(a, b)
    upper, upper_max = _beta_tail_cells(b, a)
    cells = np.hstack([lower, upper])
    cells.flags.writeable = False
    return cells, lower_max, upper_max


def _beta_tail_cells(p: float, q: float):
    """Rows ``x_k, x_{k+1}`` and the quintic's coefficients of ``u`` to
    ``u^5`` over cell ``k`` of ``w = log I^-1_{p,q}(Phi(-s))`` (see the
    module doc), one column per node; the last node's column is a cell of
    zero width. A shape so small that some node underflows below the
    smallest normal float or rounds up to 1 gets zeros and covers nothing
    (-inf), and betaincinv answers that whole tail."""
    s = _BETA_NODES
    t = ndtr(-s)
    x = betaincinv(p, q, t)
    cells = np.zeros((7, len(s)))
    if not np.all((x >= np.finfo(float).tiny) & (x < 1.0)):
        return cells, -np.inf
    # betaincinv alone misses some nodes, by up to 4e-9 at symmetric medians
    log_beta = betaln(p, q)
    density = np.exp((p - 1.0) * np.log(x) + (q - 1.0) * np.log1p(-x) - log_beta)
    x = x - (betainc(p, q, x) - t) / density
    if not np.all((x >= np.finfo(float).tiny) & (x < 1.0)):
        return cells, -np.inf
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
    rated = params["rated"]
    return np.where((speed >= params["cut_in"]) & (speed <= params["cut_out"]),
                    np.clip(rated * (speed / params["rated_speed"]) ** 3, 0.0, rated), 0.0)


def sample_operating_conditions(case: NetworkCase, n: int,
                                spec: CorrelationSpec | None = None,
                                seed: int = 0, redraw: int = 0) -> SampleMatrix:
    """Draw, correlate, and marginal-transform n operating conditions.

    ``redraw`` selects the streams of a redraw round (see module doc).
    """
    return SampleStream(case, spec, seed, redraw).draw(n)


class SampleStream:
    """One seed's operating conditions, drawn in consecutive pieces.

    Each ``draw`` continues every column's generator where the previous one
    stopped, so the pieces are the rows of one draw of their total length,
    bit for bit, and no row is drawn twice.
    """

    def __init__(self, case: NetworkCase, spec: CorrelationSpec | None = None,
                 seed: int = 0, redraw: int = 0):
        if case.n_sources == 0:
            raise ValueError("case has no stochastic sources to sample")
        self.sources = case.sources
        self.spec = spec
        self._generators = _column_generators(case.n_sources, seed, redraw)

    def draw(self, n: int) -> SampleMatrix:
        """The next n rows: drawn, correlated and transformed on this thread."""
        return SampleMatrix(values=self._transform_rows(self.normals(n)))

    def normals(self, n: int) -> np.ndarray:
        """The next n rows of correlated standard normals, on this thread."""
        z = _draw_normals(self._generators, n)
        if self.spec is not None and self.spec.groups:
            z = correlate(z, self.spec)
        return z

    def _transform_rows(self, z) -> np.ndarray:
        """The marginal transforms of the normals ``z``, column by column."""
        values = np.empty_like(z)
        for j, src in enumerate(self.sources):
            values[:, j] = transform_marginal(z[:, j], src)
        return values
