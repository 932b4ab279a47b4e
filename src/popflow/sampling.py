"""Monte-Carlo sampling of operating conditions.

Draws correlated standard normals (Gaussian copula via Cholesky), pushes them
through the per-source marginal transforms, and tracks the stopping rule for
incremental simulation: every tracked index must reach a variance coefficient
(standard error over mean) at or below the threshold, or the sample-count cap
is hit. The rule keeps running sums of ``x - shift`` and ``(x - shift)**2``,
``shift`` being the first row (so the sums do not cancel when the spread is
small beside the mean), and tests every prefix of a block from one ``cumsum``.

Reproducibility contract: the generator is PCG64 and column ``j`` of a draw
uses the stream ``SeedSequence(seed, spawn_key=(j,))``, so columns can be
generated in any order (or in parallel) with identical output. Redraw round
``r >= 1`` (replacements for samples the oracle could not label) uses
``spawn_key=(j, r)``. SeedSequence pads seeds below 2**128 to four words
ahead of the key, so for such seeds a redraw stream is one word longer than
every round-0 stream, and no round-0 draw can reproduce it.

The PV marginal inverts the regularized incomplete beta function without
calling ``betaincinv`` per value. For each ``(alpha, beta)`` a start table of
quantiles at 2,049 nodes of ``|z|`` in [0, 8.3] is built once with
``betaincinv`` and cached, with the slope ``d log x / d|z| = -phi(|z|) /
(f(x) x)`` at each node (``f`` the beta density). A value's start is the
cubic Hermite interpolant of the log quantile between its two nodes, from
their values and slopes, and one Newton step on ``I_x(a, b)`` (Cran, Martin
& Thomas, AS 109, 1977) finishes it, so no convergence test decides its
bits and each value costs one ``betainc`` call. Each tail is solved on
its own side: ``z <= 0`` solves ``I_x(alpha, beta) = Phi(z)``, ``z > 0``
solves ``I_y(beta, alpha) = Phi(-z)`` and returns ``1 - y``, so the upper
tail is not lost to ``Phi(z)`` rounding near 1. Every value depends on its
own ``z`` only, which keeps draws prefix-stable.

Drawing the normals and correlating them run on the calling thread
(``SampleStream.normals``); the marginal transforms run over fixed row blocks
on every usable core (``rowblocks``), or inside the Monte-Carlo block pass of
``pipeline.run_popf``. Each block writes only its own rows, so a draw does
not depend on the core count. A ``SampleStream`` keeps every column's
generator between draws, so consecutive draws of n1, n2, ... rows are the
rows of one draw of n1 + n2 + ... rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, betaln, ndtr

from .errors import NotPositiveDefinite
from .grid import SRC_GAUSSIAN_LOAD, SRC_PV, SRC_WIND, NetworkCase, StochasticSource
from .rowblocks import for_each_block

DEFAULT_CV_THRESHOLD = 0.05
DEFAULT_MAX_SAMPLES = 50_000

# below this magnitude a mean counts as zero: the cv test switches to the
# absolute criterion s/sqrt(n) <= threshold, and error metrics stay absolute
ZERO_MEAN = 1e-12

# nodes of |z| for the beta quantile start table; past the last node
# betaincinv answers directly
_BETA_START_NODES = np.linspace(0.0, 8.3, 2049)
_BETA_NEWTON_STEPS = 1


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
    ``_beta_quantile_of_normal`` (Hermite start from a table plus one Newton
    step, each tail on its own side; see the module doc).
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
    """``I^-1_{a,b}(Phi(z))`` elementwise; the upper tail is ``1 - I^-1_{b,a}(Phi(-z))``."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    upper = flat > 0
    out = np.empty_like(flat)
    out[~upper] = _beta_lower_quantile(a, b, -flat[~upper])
    out[upper] = 1.0 - _beta_lower_quantile(b, a, flat[upper])
    return out.reshape(z.shape)


def _beta_lower_quantile(p: float, q: float, s: np.ndarray) -> np.ndarray:
    """Solve ``I_x(p, q) = Phi(-s)`` for each ``s >= 0``: the table start, then
    ``_BETA_NEWTON_STEPS`` Newton steps. The start and each step are clipped
    to the start's cell, which holds the root, so an iterate never leaves
    (0, 1)."""
    t = ndtr(-s)
    nodes, log_nodes, slopes, s_max = _beta_start_table(p, q)
    inside = s <= s_max
    out = np.empty_like(s)
    out[~inside] = betaincinv(p, q, t[~inside])
    t = t[inside]
    step = _BETA_START_NODES[1]
    pos = s[inside] / step
    cell = np.minimum(pos.astype(np.intp), len(nodes) - 2)
    frac = pos - cell
    # the quantile falls as s grows: a cell's left node is its upper bound
    hi, lo = nodes[cell], nodes[cell + 1]
    # cubic Hermite in log x from both nodes' values and slopes, in Horner form
    log0, rise = log_nodes[cell], log_nodes[cell + 1] - log_nodes[cell]
    m0, m1 = step * slopes[cell], step * slopes[cell + 1]
    cubic = m0 + m1 - 2.0 * rise
    x = np.clip(np.exp(log0 + frac * (m0 + frac * (rise - m0 - cubic + frac * cubic))), lo, hi)
    log_beta = betaln(p, q)
    for _ in range(_BETA_NEWTON_STEPS):
        density = np.exp((p - 1.0) * np.log(x) + (q - 1.0) * np.log1p(-x) - log_beta)
        x = np.clip(x - (betainc(p, q, x) - t) / density, lo, hi)
    out[inside] = x
    return out


# 48 KB per entry; bounded so that a sweep over shape parameters cannot grow it
@functools.lru_cache(maxsize=128)
def _beta_start_table(p: float, q: float):
    """``I^-1_{p,q}(Phi(-s))`` at the start nodes, their logs, the slopes
    ``d log x / ds = -phi(s) / (f(x) x)`` there (``f`` the beta density),
    and the largest ``s`` the table covers. A shape so small that some node
    underflows below the smallest normal float or rounds up to 1 covers
    nothing (-inf), and betaincinv answers that whole tail."""
    nodes = betaincinv(p, q, ndtr(-_BETA_START_NODES))
    if not np.all((nodes >= np.finfo(float).tiny) & (nodes < 1.0)):
        return nodes[:0], nodes[:0], nodes[:0], -np.inf
    log_nodes = np.log(nodes)
    log_phi = -0.5 * _BETA_START_NODES ** 2 - 0.5 * np.log(2.0 * np.pi)
    log_density_x = p * log_nodes + (q - 1.0) * np.log1p(-nodes) - betaln(p, q)
    slopes = -np.exp(log_phi - log_density_x)
    for table in (nodes, log_nodes, slopes):
        table.flags.writeable = False
    return nodes, log_nodes, slopes, _BETA_START_NODES[-1]


def wind_power_curve(speed, params):
    """Piecewise curve: zero outside [cut_in, cut_out], cubic ramp to rated.

    The ramp is proportional to speed^3 and reaches rated power exactly at
    the rated speed; between rated and cut-out output holds at rated.
    """
    speed = np.asarray(speed, dtype=float)
    rated = params["rated"]
    v_in, v_r, v_out = params["cut_in"], params["rated_speed"], params["cut_out"]
    ramp = rated * (speed / v_r) ** 3
    power = np.where(speed < v_in, 0.0,
                     np.where(speed < v_r, ramp,
                              np.where(speed <= v_out, rated, 0.0)))
    return np.clip(power, 0.0, rated)


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
        """The next n rows: drawn and correlated here, then transformed over
        fixed row blocks on every usable core."""
        z = self.normals(n)
        values = np.empty_like(z)
        for_each_block(n, lambda start, stop: self._transform_rows(z[start:stop],
                                                                   values[start:stop]))
        return SampleMatrix(values=values)

    def normals(self, n: int) -> np.ndarray:
        """The next n rows of correlated standard normals, on this thread."""
        z = _draw_normals(self._generators, n)
        if self.spec is not None and self.spec.groups:
            z = correlate(z, self.spec)
        return z

    def _transform_rows(self, z, values) -> None:
        """Write the marginal transforms of the normals ``z`` into ``values``."""
        for j, src in enumerate(self.sources):
            values[:, j] = transform_marginal(z[:, j], src)


# ---------------------------------------------------------------------------
# MCS stopping rule


@dataclass
class ConvergenceState:
    """Per-index running sums of ``x - shift`` and ``(x - shift)**2``, where
    ``shift`` is the first row folded (see ``fold_convergence``)."""

    count: int
    shift: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    threshold: float = DEFAULT_CV_THRESHOLD
    max_samples: int = DEFAULT_MAX_SAMPLES

    @classmethod
    def for_dim(cls, d: int, threshold: float = DEFAULT_CV_THRESHOLD,
                max_samples: int = DEFAULT_MAX_SAMPLES) -> "ConvergenceState":
        return cls(0, np.zeros(d), np.zeros(d), np.zeros(d), threshold, max_samples)

    def rule_terms(self, s1=None, s2=None, n=None):
        """Mean, variance (0 for one row), standard error and its limit
        (``threshold * |mean|``, or ``threshold`` if ``|mean| < ZERO_MEAN``) of
        the n rows whose shifted sums are s1 and s2; by default, the rows folded."""
        if s1 is None:
            s1, s2, n = self.s1, self.s2, max(self.count, 1)
        mean = s1 / n + self.shift
        var = np.maximum(s2 - s1 ** 2 / n, 0.0) / np.maximum(n - 1, 1)
        limit = np.where(np.abs(mean) < ZERO_MEAN, self.threshold, self.threshold * np.abs(mean))
        return mean, var, np.sqrt(var / n), limit

    @property
    def mean(self) -> np.ndarray:
        return self.rule_terms()[0]

    def std(self) -> np.ndarray:
        return np.sqrt(self.rule_terms()[1]) if self.count > 1 else np.full_like(self.shift, np.nan)


def fold_convergence(state: ConvergenceState, rows) -> tuple:
    """Fold an (n, d) block into ``state`` up to the first row (from the
    stream's second) at which every index's standard error is within its
    limit, or to ``max_samples`` rows in all; return the rows folded and
    whether the test held. Prefix sums are one ``cumsum`` over the carried
    sums stacked on the block, so any cuts of a stream give the same bits."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(state.shift):
        raise ValueError(f"expected rows of {len(state.shift)} index values, got {rows.shape}")
    rows = rows[:max(state.max_samples - state.count, 0)]
    if not len(rows):
        return 0, False
    if state.count == 0:
        state.shift = rows[0].copy()
    shifted = rows - state.shift
    s1 = np.cumsum(np.vstack([state.s1, shifted]), axis=0)[1:]
    s2 = np.cumsum(np.vstack([state.s2, shifted ** 2]), axis=0)[1:]
    n = np.arange(state.count + 1, state.count + len(rows) + 1)[:, None]
    _, _, stderr, limit = state.rule_terms(s1, s2, n)
    fired = np.flatnonzero(np.all(stderr <= limit, axis=1) & (n[:, 0] > 1))
    used = int(fired[0]) + 1 if fired.size else len(rows)
    state.count += used
    state.s1, state.s2 = s1[used - 1].copy(), s2[used - 1].copy()
    return used, bool(fired.size)


def update_convergence(state: ConvergenceState, values) -> tuple:
    """Fold one sample of d index values into the state; the rule fires when
    the variance-coefficient test holds or the count reaches max_samples."""
    _, converged = fold_convergence(state, np.asarray(values, dtype=float)[None])
    return state, converged or state.count >= state.max_samples
