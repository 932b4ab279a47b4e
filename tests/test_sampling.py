"""Monte-Carlo sampling: determinism, correlation, marginals, stopping rule."""

import logging
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betainc, betaincinv, ndtr

from popflow import sampling
from popflow.errors import NotPositiveDefinite
from popflow.grid import SRC_PV, SRC_WIND, StochasticSource
from popflow.pipeline import _merge_moments, fold_convergence
from popflow.sampling import (CorrelationSpec, SampleStream, sample_operating_conditions,
                              transform_marginal, wind_power_curve)

from conftest import (correlate, draw_standard_normals, gaussian_source, make_branch, make_bus,
                      make_case, make_gen, nested_wind_power_curve, update_convergence)


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


def test_a_stream_factors_each_group_once(monkeypatch):
    """A stream checks and factors its groups when it is made, not once per
    draw: a matrix that is not positive definite fails before any draw, and
    the pieces of a valid stream, a one-row piece among them, keep the bits
    of ``correlate`` on the same normals."""
    case, spec = _pair_spec(0.7)
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: factored.append(m) or cholesky(m))
    stream = SampleStream(case, spec, 5)
    pieces = np.vstack([stream.normals(n) for n in (1, 7, 300)])
    assert len(factored) == 1
    z = draw_standard_normals(308, 2, 5)
    assert pieces.tobytes() == np.vstack([correlate(z[:1], spec),
                                          correlate(z[1:], spec)]).tobytes()
    with pytest.raises(NotPositiveDefinite, match="g"):
        SampleStream(case, _pair_spec(1.0)[1], 5)


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


@st.composite
def wind_curves(draw):
    """Curve parameters that pass case validation: 0 <= cut_in < rated_speed
    < cut_out and rated > 0."""
    cut_in = draw(st.floats(0.0, 30.0))
    rated_speed = draw(st.floats(cut_in, 60.0, exclude_min=True))
    cut_out = draw(st.floats(rated_speed, 100.0, exclude_min=True))
    return {"cut_in": cut_in, "rated_speed": rated_speed, "cut_out": cut_out,
            "rated": draw(st.floats(1e-6, 10.0))}


@settings(max_examples=300, deadline=None)
@given(wind_curves(), st.lists(st.floats(-1e3, 1e3), max_size=20))
@example({"cut_in": 0.0, "rated_speed": 12.0, "cut_out": 25.0, "rated": 0.4}, [])
def test_wind_curve_has_the_bits_of_the_nested_form(params, speeds):
    """The one-``where`` curve gives the nested reference's bits at NaN,
    infinities, negative speeds, every threshold and its neighbours, and
    random speeds, without a warning where the reference's ramp overflows
    (a rated speed far below the speed, down to the smallest subnormal)."""
    thresholds = [params[k] for k in ("cut_in", "rated_speed", "cut_out")]
    speeds = np.array([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, *speeds,
                       *thresholds, *np.nextafter(thresholds, math.inf),
                       *np.nextafter(thresholds, -math.inf)])
    with np.errstate(over="ignore"):
        reference = nested_wind_power_curve(speeds, params)
    assert wind_power_curve(speeds, params).tobytes() == reference.tobytes()


@pytest.mark.parametrize("changes", [{"cut_in": 0.0, "rated_speed": 1e-300},
                                     {"shape": 0.01}, {"shape": 1e-3}])
def test_wind_marginal_is_silent_at_extreme_valid_parameters(changes):
    """A tiny rated speed or Weibull shape overflows the ramp or the power of
    a valid case; the marginal is silent and gives the saturated answers: an
    infinite speed is past cut-out and gives 0. Checked against the nested
    curve of the Weibull speed, both taken here with scipy's ndtr and
    overflow allowed."""
    src = wind_source(**changes)
    z = np.linspace(-6.0, 6.0, 1201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power = transform_marginal(z, src)
    p = src.params
    with np.errstate(over="ignore"):
        speed = p["weibull_scale"] * (-np.log(ndtr(-z))) ** (1.0 / p["weibull_shape"])
        reference = nested_wind_power_curve(speed, p)
    assert np.allclose(power, reference, rtol=1e-12, atol=0.0)


def test_pv_symmetric_beta_median():
    src = pv_source(alpha=2.0, beta=2.0, rated=0.3)
    assert transform_marginal(0.0, src) == pytest.approx(0.15, abs=1e-12)


shape_params = st.floats(min_value=0.2, max_value=50.0)
TINY = np.finfo(float).tiny


def mp_beta_quantile(alpha, beta, z):
    """``I^-1_{alpha,beta}(Phi(z))`` to 40 digits: Newton steps from
    betaincinv's value, on the tail's own side (``z > 0`` solves
    ``I_y(beta, alpha) = Phi(-z)`` and returns ``1 - y``)."""
    p, q, s = (alpha, beta, z) if z <= 0 else (beta, alpha, -z)
    with mpmath.workdps(40):
        target = mpmath.ncdf(s)
        y = mpmath.findroot(
            lambda x: mpmath.betainc(p, q, 0, x, regularized=True) - target,
            mpmath.mpf(betaincinv(p, q, ndtr(s))), solver="newton",
            df=lambda x: x ** (p - 1) * (1 - x) ** (q - 1) / mpmath.beta(p, q))
        return float(y if z <= 0 else 1 - y)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.5, max_value=50.0), st.floats(min_value=0.5, max_value=50.0),
       st.lists(st.floats(min_value=-8.3, max_value=8.3), min_size=1, max_size=6))
# betaincinv(a, a, 1/2) is 3.8e-9 off here, the table's node 0 must not be
@example(1.0990200757735384, 1.0990200757735384, [0.0, -1e-3, 2e-3])
@example(50.0, 50.0, [-8.29, -5.0, 5.0, 8.29])
@example(0.5, 30.0, [-8.3, 8.3, 6.2])
def test_pv_quantile_matches_a_40_digit_quantile(alpha, beta, z):
    """The table quantile is within 1e-13 of the 40-digit quantile, relative
    to the quantity its tail solves for (x for z <= 0, 1 - x above), plus a
    float spacing of x for the rounding of 1 - y. No Phi(z) is rounded per
    value, so no reference-error term is needed near 1."""
    x = transform_marginal(np.array(z), pv_source(alpha=alpha, beta=beta, rated=1.0))
    for xi, zi in zip(x, z):
        ref = mp_beta_quantile(alpha, beta, zi)
        scale = ref if zi <= 0 else 1.0 - ref
        assert abs(xi - ref) <= 1e-13 * scale + np.spacing(ref)


@pytest.mark.parametrize("alpha,beta", [(2.06, 2.5), (0.5, 30.0), (50.0, 50.0)])
def test_pv_quantile_returns_each_table_node_exactly(alpha, beta):
    """At |z| = k/256 a value sits on a node (u = 0 exactly) and is that
    node's table quantile, bit for bit, on either tail."""
    nodes = sampling._BETA_NODES
    assert np.array_equal(nodes * 256.0, np.arange(len(nodes)))
    lower = sampling._beta_tail_cells(alpha, beta)[0][0]
    upper = sampling._beta_tail_cells(beta, alpha)[0][0]
    src = pv_source(alpha=alpha, beta=beta, rated=1.0)
    assert transform_marginal(-nodes, src).tobytes() == lower.tobytes()
    assert transform_marginal(nodes[1:], src).tobytes() == (1.0 - upper[1:]).tobytes()


@settings(max_examples=60, deadline=None)
@given(shape_params, shape_params,
       st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=50))
# betaincinv(a, a, 0.5) is 0.5000000000549673 here, where the true median is 0.5
@example(2.1252232811192364, 2.1252232811192364, [0.0])
# AS 109's start of node 0 is past 1, where Newton's steps are tiny far from the root
@example(0.375, 0.201171875, [0.0, 1.0])
def test_pv_quantile_matches_betaincinv(alpha, beta, z):
    """The start-table-plus-Newton quantile agrees with betaincinv(Phi(z)),
    stays in [0, rated] and is non-decreasing in z, with no numpy warning.

    Near z = 5, Phi(z) is rounded to the float grid next to 1, and
    betaincinv moves by that rounding over the density: the reference's own
    error, added to the 1e-12 bound. Where betaincinv itself errs by more
    than the bound (a few symmetric shapes at z = 0), a value off from it is
    judged against a 40-digit mpmath quantile under the same bound."""
    src = pv_source(alpha=alpha, beta=beta, rated=0.3)
    z = np.array(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = transform_marginal(z, src) / 0.3
        grid = transform_marginal(np.linspace(-5.0, 5.0, 1001), src)
    u = ndtr(z)
    ref = betaincinv(alpha, beta, u)
    tol = 1e-12 + 2 * np.spacing(u) / stats.beta.pdf(ref, alpha, beta)
    for i in np.flatnonzero(~(np.abs(x - ref) <= tol)):
        assert abs(x[i] - mp_beta_quantile(alpha, beta, z[i])) <= tol[i]
    assert np.all((grid >= 0.0) & (grid <= 0.3))
    assert np.all(np.diff(grid) >= 0.0)


def assert_solved_on_own_tail(alpha, beta, x, z):
    """Each ``x`` is ``I^-1_{alpha,beta}(Phi(z))`` checked on ``z``'s own tail,
    ``(p, q, y, t) = (alpha, beta, x, Phi(z))`` at ``z <= 0`` and ``(beta,
    alpha, 1 - x, Phi(-z))`` above: ``|I_y(p, q) - t| <= 1e-12 t`` plus one
    spacing of ``x`` times the density at ``y``, judged on a 40-digit ``I``
    where scipy's misses the bound. On the upper tail the solved value is
    ``y`` and ``x = 1 - y``, so the spacing is the larger of the two's: an
    upper-tail ``x`` near 0 keeps only the resolution of ``y`` near 1. A
    lower-tail 0 must be a quantile below the smallest normal float:
    ``I_TINY(p, q) >= t``."""
    for xi, zi in zip(x, z):
        p, q, y = (alpha, beta, xi) if zi <= 0 else (beta, alpha, 1.0 - xi)
        t = ndtr(-abs(zi))
        if zi <= 0 and xi == 0.0:
            with mpmath.workdps(40):
                assert mpmath.betainc(p, q, 0, TINY, regularized=True) >= t
            continue
        bound = 1e-12 * t + stats.beta.pdf(y, p, q) * np.spacing(max(xi, y))
        if not abs(betainc(p, q, y) - t) <= bound:
            with mpmath.workdps(40):
                assert abs(mpmath.betainc(p, q, 0, y, regularized=True) - t) <= bound


def test_pv_quantile_takes_scalars_and_saturates_past_the_table():
    src = pv_source(alpha=2.06, beta=2.5, rated=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = transform_marginal(np.float64(0.7), src)
        assert np.ndim(scalar) == 0
        assert scalar == transform_marginal(np.array([0.7]), src)[0]
        far = transform_marginal(np.array([-40.0, -9.0, 9.0, 40.0]), src)
    assert far[0] == 0.0 and far[3] == 0.25
    # past the table Newton answers on the value's own tail; the true
    # quantile at |z| = 9 is about 2e-8 from either end, not 0 or rated
    assert_solved_on_own_tail(2.06, 2.5, far[1:3] / 0.25, [-9.0, 9.0])
    assert 0.0 < far[1] < far[2] < 0.25


@pytest.mark.parametrize("alpha,beta", [(0.01, 2.0), (2.0, 0.01), (0.03, 0.03)])
def test_pv_quantile_of_extreme_shapes_is_betaincinv_on_each_tail(alpha, beta):
    """A shape whose table nodes underflow or round to 1 leaves that tail to
    Newton, which inverts the incomplete beta on each tail's own side,
    without a numpy warning."""
    z = np.linspace(-6.0, 6.0, 241)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = transform_marginal(z, pv_source(alpha=alpha, beta=beta, rated=1.0))
    assert_solved_on_own_tail(alpha, beta, x, z)


# (alpha, beta) pairs for the tail tests; the first is case14's PV source
TAIL_SHAPES = [(2.06, 2.5), (0.5, 30.0), (2.0, 50.0), (50.0, 50.0), (10.0, 10.0), (0.2, 50.0)]


@pytest.mark.parametrize("alpha,beta", TAIL_SHAPES)
def test_pv_upper_tail_is_solved_on_its_own_side(alpha, beta):
    """For z in [5, 8.2], I_y(beta, alpha) at y = 1 - x/rated equals Phi(-z)
    to a relative 1e-12, beyond what one float spacing of x/rated near 1
    moves it. Inverting the rounded Phi(z) misses this by orders of
    magnitude."""
    rated = 0.25
    z = np.linspace(5.0, 8.2, 65)
    x = transform_marginal(z, pv_source(alpha=alpha, beta=beta, rated=rated))
    y = 1.0 - x / rated
    t = ndtr(-z)
    spacing = stats.beta.pdf(y, beta, alpha) * np.spacing(x / rated)
    assert np.all(np.abs(betainc(beta, alpha, y) - t) <= 1e-12 * t + spacing)


@pytest.mark.parametrize("alpha,beta", TAIL_SHAPES + [(0.2, 0.2), (50.0, 0.2)])
def test_pv_lower_tail_is_solved_on_its_own_side(alpha, beta):
    rated = 0.25
    z = np.linspace(-8.2, -5.0, 65)
    x = transform_marginal(z, pv_source(alpha=alpha, beta=beta, rated=rated))
    t = ndtr(z)
    assert np.all(np.abs(betainc(alpha, beta, x / rated) - t) <= 1e-12 * t)


def test_table_build_goes_to_the_debug_log(caplog):
    """Each PV table build writes one DEBUG line with its shape and time; a
    shape already built writes none."""
    sampling._beta_quantile_table.cache_clear()
    src = pv_source(alpha=2.0625, beta=3.25, rated=1.0)
    with caplog.at_level(logging.DEBUG, logger="popflow"):
        transform_marginal(np.array([-1.0, 0.5]), src)
        transform_marginal(np.array([2.0]), src)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "popflow"]
    assert re.fullmatch(r"PV quantile table for beta\(2\.0625, 3\.25\) built in "
                        r"\d[\d.e+-]* ms", line)


def test_renewable_output_within_rating():
    z = draw_standard_normals(20_000, 1, seed=3)[:, 0]
    for src in (wind_source(), pv_source()):
        vals = transform_marginal(z, src)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= src.params["rated"] + 1e-15)


# ---------------------------------------------------------------------------
# special functions

EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=50))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -0.5, 1.0, 1.4142135623730951,
          -8.0, 11.5, -37.6, -38.4, -38.5, 38.5])
def test_ndtr_is_the_cephes_routine(a):
    """``_ndtr`` runs Cephes' operations in Cephes' order, so it has
    scipy's bits wherever no exp is taken (``|a| / sqrt 2 < 1``, NaN, +-inf)
    and is within 3 ulp elsewhere: numpy's exp differs from the C library's
    by one ulp on some arguments, which the rational's roundings can carry
    to 2.5 ulp (seen over 2e7 values). A subnormal value is within 2 of the
    smallest subnormal."""
    a = np.array(a)
    ours, ref = sampling._ndtr(a), ndtr(a)
    plain = ~(np.abs(a * math.sqrt(0.5)) >= 1.0) | np.isinf(a)
    assert ours[plain].tobytes() == ref[plain].tobytes()
    assert np.all(np.abs(ours - ref)[~plain] <= 3 * EPS * ref[~plain] + 2 * 5e-324)
    assert sampling._ndtr(0.0) == 0.5 and sampling._ndtr(np.float64(0.5)).shape == ()


@settings(max_examples=100, deadline=None)
@given(shape_params, shape_params,
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=30))
# 1 - I_{1-x}(q, p) would carry 2.6e-13 here; the mean keeps it out
@example(50.0, 0.2, [0.977, 0.9791125605240605, 0.996, 0.9999])
# scipy's value is 1.5e-13 off here, and 0 where the true one is 1.8e-308
@example(1.997958759897481, 45.12973080847214, [2.7854749940757906e-147])
@example(1.1018846586142332, 36.3961691181335, [1.4375233592840697e-281])
def test_betainc_matches_scipy_or_40_digits(p, q, x):
    """``_betainc`` is within 1e-13 of scipy's betainc, relative; where
    scipy's value is off by more than that itself (deep lower tails), a
    40-digit value is judged under the same bound. A value below the
    smallest normal float is held to 1e-13 of it."""
    x = np.array(x)
    ours, ref = sampling._betainc(p, q, x), betainc(p, q, x)
    for i in np.flatnonzero(~(np.abs(ours - ref) <= 1e-13 * (ref + TINY))):
        with mpmath.workdps(40):
            exact = mpmath.betainc(p, q, 0, x[i], regularized=True)
        assert abs(ours[i] - exact) <= 1e-13 * (exact + TINY)
    assert sampling._betainc(p, q, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.5, max_value=50.0), st.floats(min_value=0.5, max_value=50.0),
       st.lists(st.integers(min_value=0, max_value=len(sampling._BETA_NODES) - 1),
                min_size=1, max_size=3))
@example(2.06, 2.5, [0, 1, 1000, 2125])
@example(0.5, 30.0, [0, 2125])
@example(30.0, 0.5, [0, 2125])
@example(50.0, 50.0, [0, 2125])
def test_table_nodes_match_40_digit_quantiles(p, q, ks):
    """A tail's nodes, solved by Newton on ``_betainc`` from AS 109's start,
    are within 5e-14 of the 40-digit quantiles, relative."""
    nodes = sampling._beta_tail_cells(p, q)[0][0]
    for k in ks:
        ref = mp_beta_quantile(p, q, -sampling._BETA_NODES[k])
        assert abs(nodes[k] - ref) <= 5e-14 * ref


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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=1500), st.integers(min_value=1, max_value=1500),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_draws_are_prefix_stable(case14, n, extra, seed):
    """An n-row draw is the first n rows of any longer draw, bit for bit;
    a run_popf(converge=True) that stops at row n returns an n-row draw."""
    spec = CorrelationSpec.for_case(case14, {"area_loads": [[1.0, 0.6], [0.6, 1.0]]})
    short = sample_operating_conditions(case14, n, spec, seed).values
    long = sample_operating_conditions(case14, n + extra, spec, seed).values
    assert short.tobytes() == long[:n].tobytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
# a one-row piece: numpy's one-row matrix product rounds differently
@example([1, 1], 138)
def test_stream_pieces_are_one_draw(case14, sizes, seed):
    """Consecutive draws of a stream are the rows of one draw of their total
    length, bit for bit; run_popf(converge=True) draws one block at a time."""
    spec = CorrelationSpec.for_case(case14, {"area_loads": [[1.0, 0.6], [0.6, 1.0]]})
    stream = SampleStream(case14, spec, seed)
    pieces = np.vstack([stream.draw(n).values for n in sizes])
    whole = sample_operating_conditions(case14, sum(sizes), spec, seed).values
    assert pieces.tobytes() == whole.tobytes()


@pytest.mark.parametrize("branch, suffix", [((), ()), (sampling.LABEL_BRANCH, (1,))])
def test_draws_follow_the_documented_key_rule(case14, branch, suffix):
    """Column j of a Monte-Carlo draw is PCG64 on ``SeedSequence(seed,
    spawn_key=(j,))`` (the rule ``bench/checks.draw_samples`` reproduces), and
    of a label draw on ``(j, 1)``; correlated by the group's Cholesky factor,
    then transformed."""
    seed, n = 8_675_309, 300
    rho = [[1.0, 0.6], [0.6, 1.0]]
    spec = CorrelationSpec.for_case(case14, {"area_loads": rho})
    z = draw_standard_normals(n, case14.n_sources, seed, *suffix)
    group = [j for j, src in enumerate(case14.sources) if src.corr_group == "area_loads"]
    z[:, group] = z[:, group] @ np.linalg.cholesky(np.array(rho)).T
    assert SampleStream(case14, spec, seed, branch).normals(n).tobytes() == z.tobytes()
    values = SampleStream(case14, spec, seed, branch).draw(n).values
    for j, src in enumerate(case14.sources):
        assert values[:, j].tobytes() == transform_marginal(z[:, j], src).tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2 ** 130 + 5])
def test_label_streams_differ_from_every_other_stream(seed):
    """With 16 sources the Monte-Carlo column keys reach the training keys
    ``(10,)``-``(13,)``; no label column reproduces any of them."""
    case = make_case(
        buses=[make_bus(0, "slack")] + [make_bus(i, "pq", p=0.1) for i in range(1, 17)],
        branches=[make_branch(0, i) for i in range(1, 17)],
        generators=[make_gen(0)],
        sources=[gaussian_source(i, 0.1, 0.01) for i in range(1, 17)])
    n = 8
    labels = SampleStream(case, None, seed, sampling.LABEL_BRANCH).normals(n)
    others = [SampleStream(case, None, seed).normals(n)]
    others += [sampling.stream(seed, key).standard_normal((n, 1)) for key in range(10, 14)]
    others = np.hstack(others)
    assert labels.shape == (n, 16) and others.shape == (n, 20)
    assert not np.isin(labels, others).any()


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
    """First n where every running cv (two-pass formula) is under threshold;
    a 2-D stream has one index per column."""
    stream = np.asarray(stream, dtype=float)
    stream = stream[:, None] if stream.ndim == 1 else stream
    for n in range(2, len(stream) + 1):
        prefix = stream[:n]
        mean = prefix.mean(axis=0)
        se = prefix.std(axis=0, ddof=1) / math.sqrt(n)
        near_zero = np.abs(mean) < 1e-12
        cv_ok = np.where(near_zero, se <= threshold,
                         se / np.where(near_zero, 1.0, np.abs(mean)) <= threshold)
        if cv_ok.all():
            return n
    return None


def test_identical_values_converge_at_two():
    sums, done = update_convergence(None, [3.0])
    assert not done
    sums, done = update_convergence(sums, [3.0])
    assert done and sums[0] == 2


def test_alternating_stream_matches_direct_formula():
    stream = [0.9 if i % 2 == 0 else 1.1 for i in range(100)]
    expected = brute_cv_converged_at(stream, 0.05)
    sums = None
    fired_at = None
    for i, v in enumerate(stream):
        sums, done = update_convergence(sums, [v])
        if done:
            fired_at = i + 1
            break
    assert fired_at == expected


def test_sample_cap_rule():
    """cv that never reaches 5% still stops at the maximum sample count."""
    sums = None
    fired_at = None
    for i in range(60_000):
        value = 1.001 if i % 2 == 0 else -0.999  # mean ~1e-3, std ~1
        sums, done = update_convergence(sums, [value], max_samples=50_000)
        if done:
            fired_at = i + 1
            break
    assert fired_at == 50_000
    # confirm the cv was genuinely still above threshold at the cap
    stats = _merge_moments([sums])
    se = stats.std[0] / math.sqrt(sums[0])
    assert se / abs(stats.mean[0]) > 0.05


def test_near_zero_mean_uses_absolute_criterion():
    """Alternating +1/-1 has an exactly-zero running mean at even counts, so
    the relative cv is undefined; the rule switches to s/sqrt(n) <= threshold,
    which for s ~ 1 first holds at n ~ 1/threshold^2."""
    sums = None
    fired = None
    for i in range(2000):
        sums, done = update_convergence(sums, [1.0 if i % 2 == 0 else -1.0],
                                        max_samples=10_000)
        if done:
            fired = i + 1
            break
    assert fired is not None
    stats = _merge_moments([sums])
    assert abs(stats.mean[0]) < 1e-12
    s = stats.std[0]
    assert s / math.sqrt(fired) <= 0.05
    assert s / math.sqrt(fired - 2) > 0.05  # previous even count was still above


def test_vector_indices_all_must_converge():
    sums = None
    rng = np.random.Generator(np.random.PCG64(0))
    done = False
    n = 0
    while not done:
        n += 1
        # index 0 converges fast, index 1 slowly
        sums, done = update_convergence(
            sums, [10.0 + rng.normal(0, 0.01), 1.0 + rng.normal(0, 1.0)], max_samples=10_000)
    stats = _merge_moments([sums])
    stderr = stats.std / math.sqrt(sums[0])
    assert np.all(stderr / np.abs(stats.mean) <= 0.05)
    assert n > 10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=400))
def test_running_sums_match_two_pass(values):
    sums = None
    for v in values:
        sums, _ = update_convergence(sums, [v], max_samples=10 ** 9)
    arr = np.array(values)
    stats = _merge_moments([sums])
    assert stats.mean[0] == pytest.approx(arr.mean(), rel=1e-10, abs=1e-10)
    assert stats.std[0] == pytest.approx(arr.std(ddof=1), rel=1e-10, abs=1e-10)


@st.composite
def cv_streams(draw):
    """A random (n, d) stream whose columns are Gaussian around a mean that
    may be near zero, alternate +-c (mean exactly zero at every even count),
    sit within 1e-14 of zero, or hold one value; plus threshold and cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 1500))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["gauss", "alternating", "tiny", "constant"]),
                              min_size=1, max_size=5)):
        c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        if kind == "gauss":
            mean = c * rng.choice([1e-13, 1e-3, 1.0, 30.0])
            columns.append(mean + rng.uniform(0.001, 2.0) * rng.standard_normal(n))
        elif kind == "alternating":
            columns.append(np.where(np.arange(n) % 2 == 0, c, -c))
        elif kind == "tiny":
            columns.append(1e-14 * rng.standard_normal(n))
        else:
            columns.append(np.full(n, c))
    threshold = draw(st.sampled_from([0.01, 0.05, 0.2]))
    cap = draw(st.integers(1, n + 5))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return np.column_stack(columns), threshold, cap, cuts


def fold_by_rows(stream, threshold, cap):
    """The per-row reference: update_convergence until the rule fires."""
    sums = None
    for row in stream:
        sums, done = update_convergence(sums, row, threshold, cap)
        if done:
            break
    return sums


def sums_bits(sums):
    count, shift, s1, s2 = sums
    return count, shift.tobytes(), s1.tobytes(), s2.tobytes()


@settings(max_examples=60, deadline=None)
@given(cv_streams())
def test_folding_at_any_cuts_is_the_row_by_row_fold(case):
    """Blocks cut anywhere, and cut short at the cap as ``run_popf``'s draw
    loop does, leave the bits of the one-row fold and fire at the two-pass
    formula's row, or stop at the cap without converging."""
    stream, threshold, cap, cuts = case
    capped = stream[:cap]
    cuts = [min(c, cap) for c in cuts]
    sums, converged = None, False
    for start, stop in zip([0] + cuts, cuts + [len(capped)]):
        used, converged, sums = fold_convergence(sums, capped[start:stop], threshold)
        if converged:
            break
        assert used == stop - start
    assert sums_bits(sums) == sums_bits(fold_by_rows(stream, threshold, cap))
    fired = brute_cv_converged_at(stream[:cap], threshold)
    assert converged == (fired is not None)
    assert sums[0] == (fired if converged else min(cap, len(stream)))


def test_identical_rows_fire_at_two_in_one_block():
    used, converged, sums = fold_convergence(None, np.tile([3.0, 0.0, -1e-13], (10, 1)), 0.05)
    assert (used, converged) == (2, True)
    assert sums[0] == 2 and np.array_equal(_merge_moments([sums]).std, np.zeros(3))


def test_a_test_that_holds_on_the_cap_row_is_convergence():
    """The cap row counts as converged when the cv test holds there too; the
    draw loop folds no row past the cap."""
    assert fold_convergence(None, np.ones((5, 1))[:2], 0.05)[:2] == (2, True)
    used, converged, sums = fold_convergence(None, np.array([[1.0], [2.0], [1.0]])[:2], 0.05)
    assert (used, converged) == (2, False)
    assert update_convergence(sums, [1.0], max_samples=2) == (sums, True)
    assert sums[0] == 2


def test_shifted_sums_keep_a_small_spread_beside_a_large_mean():
    """Sums shifted by the first row keep the variance of values that differ
    far below the mean, where plain sums of squares would cancel; checked
    against exact rational arithmetic."""
    values = 1e9 + np.array([0.0, 1e-3, -1e-3, 2e-3] * 50)
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    used, converged, sums = fold_convergence(None, values[:, None], 0.0)
    assert (used, converged) == (200, False)
    stats = _merge_moments([sums])
    assert stats.std[0] == pytest.approx(math.sqrt(var), rel=1e-12)
    assert stats.mean[0] == pytest.approx(float(mean), rel=1e-15)


def test_fold_rejects_rows_of_the_wrong_width():
    _, _, sums = fold_convergence(None, np.zeros((1, 2)), 0.05)
    with pytest.raises(ValueError):
        fold_convergence(sums, np.zeros((3, 3)), 0.05)
    with pytest.raises(ValueError):
        update_convergence(sums, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fold_convergence(None, np.zeros(3), 0.05)
    assert sums[0] == 1
