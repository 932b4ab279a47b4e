"""Monte-Carlo sampling of operating conditions.

Draws correlated standard normals (Gaussian copula via Cholesky), pushes them
through the per-source marginal transforms, and tracks the stopping rule for
incremental simulation: every tracked index must reach a variance coefficient
(standard error over mean) at or below the threshold, or the sample-count cap
is hit.

Reproducibility contract: the generator is PCG64 and column ``j`` of a draw
uses the stream ``SeedSequence(seed, spawn_key=(j,))``, so columns can be
generated in any order (or in parallel) with identical output. Redraw round
``r >= 1`` (replacements for samples the oracle could not label) uses
``spawn_key=(j, r)``. SeedSequence pads seeds below 2**128 to four words
ahead of the key, so for such seeds a redraw stream is one word longer than
every round-0 stream, and no round-0 draw can reproduce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, ndtr

from .errors import NotPositiveDefinite
from .grid import SRC_GAUSSIAN_LOAD, SRC_PV, SRC_WIND, NetworkCase, StochasticSource

DEFAULT_CV_THRESHOLD = 0.05
DEFAULT_MAX_SAMPLES = 50_000

# below this magnitude the mean is treated as zero and the cv test switches
# to the absolute criterion s/sqrt(n) <= threshold
_ZERO_MEAN = 1e-12


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


def draw_standard_normals(n: int, d: int, seed: int, redraw: int = 0) -> np.ndarray:
    """n x d standard normals, one PCG64 stream per column (see module doc)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    out = np.empty((n, d))
    for j in range(d):
        key = (j, redraw) if redraw else (j,)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
        out[:, j] = rng.standard_normal(n)
    return out


def correlate(z: np.ndarray, spec: CorrelationSpec) -> np.ndarray:
    """Impose each group's correlation with its lower Cholesky factor.

    Columns outside every group pass through untouched. Matrices are checked
    for symmetry and unit diagonal; a failed factorization raises
    NotPositiveDefinite naming the group.
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
        out[:, cols] = z[:, cols] @ lower.T
    return out


# ---------------------------------------------------------------------------
# marginal transforms


def transform_marginal(z, source: StochasticSource):
    """Map standard-normal values to per-unit injections for one source."""
    z = np.asarray(z, dtype=float)
    p = source.params
    if source.kind == SRC_GAUSSIAN_LOAD:
        return p["mean"] + p["std"] * z
    if source.kind == SRC_WIND:
        # inverse Weibull of Phi(z); 1 - Phi(z) = Phi(-z) keeps the tail exact
        speed = p["weibull_scale"] * (-np.log(ndtr(-z))) ** (1.0 / p["weibull_shape"])
        return wind_power_curve(speed, p)
    if source.kind == SRC_PV:
        u = ndtr(z)
        return p["rated"] * betaincinv(p["alpha"], p["beta"], u)
    raise ValueError(f"unknown source kind {source.kind!r}")


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
    d = case.n_sources
    if d == 0:
        raise ValueError("case has no stochastic sources to sample")
    z = draw_standard_normals(n, d, seed, redraw)
    if spec is not None and spec.groups:
        z = correlate(z, spec)
    values = np.empty_like(z)
    for j, src in enumerate(case.sources):
        values[:, j] = transform_marginal(z[:, j], src)
    return SampleMatrix(values=values)


# ---------------------------------------------------------------------------
# MCS stopping rule


@dataclass
class ConvergenceState:
    """Running Welford accumulators for the per-index stopping statistic."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    threshold: float = DEFAULT_CV_THRESHOLD
    max_samples: int = DEFAULT_MAX_SAMPLES

    @classmethod
    def for_dim(cls, d: int, threshold: float = DEFAULT_CV_THRESHOLD,
                max_samples: int = DEFAULT_MAX_SAMPLES) -> "ConvergenceState":
        return cls(count=0, mean=np.zeros(d), m2=np.zeros(d),
                   threshold=threshold, max_samples=max_samples)

    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.full_like(self.mean, np.nan)
        return np.sqrt(self.m2 / (self.count - 1))


def update_convergence(state: ConvergenceState, values) -> tuple:
    """Fold one sample into the state; report whether the rule fires.

    Converged when every index satisfies (s/sqrt(n))/|mean| <= threshold
    (absolute criterion s/sqrt(n) <= threshold for near-zero means), or when
    the count reaches max_samples.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != state.mean.shape:
        raise ValueError(f"expected {state.mean.shape[0]} index values, got {values.shape}")
    state.count += 1
    delta = values - state.mean
    state.mean += delta / state.count
    state.m2 += delta * (values - state.mean)

    if state.count >= state.max_samples:
        return state, True
    if state.count < 2:
        return state, False
    stderr = state.std() / math.sqrt(state.count)
    denom = np.abs(state.mean)
    near_zero = denom < _ZERO_MEAN
    ok = np.where(near_zero, stderr <= state.threshold,
                  stderr <= state.threshold * np.where(near_zero, 1.0, denom))
    return state, bool(np.all(ok))
