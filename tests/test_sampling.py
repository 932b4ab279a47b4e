"""Monte-Carlo sampling: determinism, correlation, marginals, stopping rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popflow.errors import NotPositiveDefinite
from popflow.grid import SRC_PV, SRC_WIND, StochasticSource
from popflow.sampling import (ConvergenceState, CorrelationSpec,
                              draw_standard_normals, correlate,
                              sample_operating_conditions, transform_marginal,
                              update_convergence, wind_power_curve)

from conftest import gaussian_source, make_branch, make_bus, make_case, make_gen


def wind_source(bus=1, shape=2.0, scale=8.0, cut_in=3.0, rated_speed=12.0,
                cut_out=25.0, rated=0.4):
    return StochasticSource(bus=bus, kind=SRC_WIND, params={
        "weibull_shape": shape, "weibull_scale": scale, "cut_in": cut_in,
        "rated_speed": rated_speed, "cut_out": cut_out, "rated": rated})


def pv_source(bus=1, alpha=2.0, beta=2.0, rated=0.3):
    return StochasticSource(bus=bus, kind=SRC_PV,
                            params={"alpha": alpha, "beta": beta, "rated": rated})


# ---------------------------------------------------------------------------
# standard normal draws


def test_same_seed_bit_identical():
    a = draw_standard_normals(100, 3, seed=5)
    b = draw_standard_normals(100, 3, seed=5)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(draw_standard_normals(10, 2, 0),
                              draw_standard_normals(10, 2, 1))


def test_large_sample_moments():
    z = draw_standard_normals(100_000, 1, seed=0)
    assert abs(z.mean()) < 0.02
    assert 0.97 < z.var(ddof=1) < 1.03


def test_column_streams_are_prefix_stable():
    """First rows of a longer draw equal a shorter draw (per-column streams)."""
    short = draw_standard_normals(50, 4, seed=9)
    long = draw_standard_normals(200, 4, seed=9)
    assert np.array_equal(long[:50], short)


# ---------------------------------------------------------------------------
# correlation


def _pair_spec(rho):
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.5), make_bus(2, "pq", p=0.5)],
        branches=[make_branch(0, 1), make_branch(1, 2)],
        generators=[make_gen(0)],
        sources=[gaussian_source(1, 0.5, 0.05, group="g"),
                 gaussian_source(2, 0.5, 0.05, group="g")],
    )
    return case, CorrelationSpec.for_case(case, {"g": [[1.0, rho], [rho, 1.0]]})


def test_identity_correlation_is_noop():
    _, spec = _pair_spec(0.0)
    z = draw_standard_normals(1000, 2, seed=2)
    assert np.allclose(correlate(z, spec), z, atol=1e-12)


def test_perfect_correlation_rejected():
    _, spec = _pair_spec(1.0)
    z = draw_standard_normals(10, 2, seed=2)
    with pytest.raises(NotPositiveDefinite, match="g"):
        correlate(z, spec)


def test_empirical_correlation():
    _, spec = _pair_spec(0.8)
    z = correlate(draw_standard_normals(100_000, 2, seed=7), spec)
    rho = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert rho == pytest.approx(0.8, abs=0.01)


def test_correlate_preserves_marginal_variance():
    _, spec = _pair_spec(0.8)
    z = correlate(draw_standard_normals(100_000, 2, seed=8), spec)
    assert z[:, 0].var(ddof=1) == pytest.approx(1.0, abs=0.03)
    assert z[:, 1].var(ddof=1) == pytest.approx(1.0, abs=0.03)


# ---------------------------------------------------------------------------
# marginal transforms


def test_gaussian_center():
    src = gaussian_source(1, mean=1.0, std=0.1)
    assert transform_marginal(0.0, src) == pytest.approx(1.0)


def test_wind_below_cut_in_zero():
    src = wind_source()
    # z mapping to a speed below cut-in: Weibull cdf at cut_in=3, scale=8,
    # shape=2 is 1-exp(-(3/8)^2) ~ 0.131; take z well below that quantile
    z = -3.0
    assert transform_marginal(z, src) == 0.0


def test_wind_curve_regions():
    src = wind_source()
    p = src.params
    assert wind_power_curve(2.9, p) == 0.0
    assert wind_power_curve(12.0, p) == pytest.approx(p["rated"])
    assert wind_power_curve(20.0, p) == pytest.approx(p["rated"])
    assert wind_power_curve(25.1, p) == 0.0
    # cubic ramp normalized to the rated speed
    assert wind_power_curve(6.0, p) == pytest.approx(p["rated"] * (6.0 / 12.0) ** 3)


def test_pv_symmetric_beta_median():
    src = pv_source(alpha=2.0, beta=2.0, rated=0.3)
    assert transform_marginal(0.0, src) == pytest.approx(0.15, abs=1e-12)


def test_renewable_output_within_rating():
    z = draw_standard_normals(20_000, 1, seed=3)[:, 0]
    for src in (wind_source(), pv_source()):
        vals = transform_marginal(z, src)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= src.params["rated"] + 1e-15)


# ---------------------------------------------------------------------------
# composed sampling


def test_zero_variance_rows_equal_nominal():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.5), make_bus(2, "pq", p=0.3)],
        branches=[make_branch(0, 1), make_branch(1, 2)],
        generators=[make_gen(0)],
        sources=[gaussian_source(1, 0.5, 0.0), gaussian_source(2, 0.3, 0.0)],
    )
    sm = sample_operating_conditions(case, 50, None, seed=0)
    assert np.array_equal(sm.values, np.tile([0.5, 0.3], (50, 1)))


def test_sampling_reproducible_hash(case14):
    a = sample_operating_conditions(case14, 500, None, seed=21)
    b = sample_operating_conditions(case14, 500, None, seed=21)
    assert np.array_equal(a.values, b.values)


def test_sampling_mean_clt_bound():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=1.0)],
        branches=[make_branch(0, 1)],
        generators=[make_gen(0)],
        sources=[gaussian_source(1, 1.0, 0.1)],
    )
    sm = sample_operating_conditions(case, 100_000, None, seed=4)
    assert sm.values[:, 0].mean() == pytest.approx(1.0, abs=0.002)


# ---------------------------------------------------------------------------
# stopping rule


def brute_cv_converged_at(stream, threshold):
    """First n where every running cv (two-pass formula) is under threshold."""
    stream = np.asarray(stream, dtype=float)
    for n in range(2, len(stream) + 1):
        prefix = stream[:n]
        mean = prefix.mean()
        s = prefix.std(ddof=1)
        se = s / math.sqrt(n)
        cv_ok = se <= threshold if abs(mean) < 1e-12 else se / abs(mean) <= threshold
        if cv_ok:
            return n
    return None


def test_identical_values_converge_at_two():
    state = ConvergenceState.for_dim(1)
    state, done = update_convergence(state, [3.0])
    assert not done
    state, done = update_convergence(state, [3.0])
    assert done and state.count == 2


def test_alternating_stream_matches_direct_formula():
    stream = [0.9 if i % 2 == 0 else 1.1 for i in range(100)]
    expected = brute_cv_converged_at(stream, 0.05)
    state = ConvergenceState.for_dim(1)
    fired_at = None
    for i, v in enumerate(stream):
        state, done = update_convergence(state, [v])
        if done:
            fired_at = i + 1
            break
    assert fired_at == expected


def test_sample_cap_rule():
    """cv that never reaches 5% still stops at the maximum sample count."""
    state = ConvergenceState.for_dim(1, max_samples=50_000)
    fired_at = None
    for i in range(60_000):
        value = 1.001 if i % 2 == 0 else -0.999  # mean ~1e-3, std ~1
        state, done = update_convergence(state, [value])
        if done:
            fired_at = i + 1
            break
    assert fired_at == 50_000
    # confirm the cv was genuinely still above threshold at the cap
    se = state.std()[0] / math.sqrt(state.count)
    assert se / abs(state.mean[0]) > 0.05


def test_near_zero_mean_uses_absolute_criterion():
    """Alternating +1/-1 has an exactly-zero running mean at even counts, so
    the relative cv is undefined; the rule switches to s/sqrt(n) <= threshold,
    which for s ~ 1 first holds at n ~ 1/threshold^2."""
    state = ConvergenceState.for_dim(1, max_samples=10_000)
    fired = None
    for i in range(2000):
        state, done = update_convergence(state, [1.0 if i % 2 == 0 else -1.0])
        if done:
            fired = i + 1
            break
    assert fired is not None
    assert abs(state.mean[0]) < 1e-12
    s = state.std()[0]
    assert s / math.sqrt(fired) <= 0.05
    assert s / math.sqrt(fired - 2) > 0.05  # previous even count was still above


def test_vector_indices_all_must_converge():
    state = ConvergenceState.for_dim(2, max_samples=10_000)
    rng = np.random.Generator(np.random.PCG64(0))
    done = False
    n = 0
    while not done:
        n += 1
        # index 0 converges fast, index 1 slowly
        state, done = update_convergence(
            state, [10.0 + rng.normal(0, 0.01), 1.0 + rng.normal(0, 1.0)])
    stderr = state.std() / math.sqrt(state.count)
    assert np.all(stderr / np.abs(state.mean) <= 0.05)
    assert n > 10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=400))
def test_welford_matches_two_pass(values):
    state = ConvergenceState.for_dim(1, max_samples=10 ** 9)
    for v in values:
        state, _ = update_convergence(state, [v])
    arr = np.array(values)
    assert state.mean[0] == pytest.approx(arr.mean(), rel=1e-10, abs=1e-10)
    assert state.std()[0] == pytest.approx(arr.std(ddof=1), rel=1e-10, abs=1e-10)
