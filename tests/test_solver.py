"""Oracle solver tests.

Independent oracles used here:
- closed-form two-bus feeder voltage (quadratic in V^2)
- brute-force grid search over feasible dispatches, with branch flows
  recomputed from bus angles (not via the solver's PTDF path)
- MATPOWER's dense dSbus_dV matrix products for the Newton Jacobian, and
  the dense complex ``Ybus @ V`` for the bus currents
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from popflow.errors import DispatchStalled, Infeasible, NonConvergence, SingularJacobian
from popflow.grid import PQ, PV, SLACK, SRC_PV, SRC_WIND, StochasticSource, bundled_case
from popflow.sampling import sample_operating_conditions
from popflow.solver import (NEWTON_MAX_ITER, NEWTON_TOL, _bus_state, _feasible_start,
                            _jacobians, _power_flow_rows, ac_power_flow, build_ybus, bus_loads,
                            compile_case, dc_opf, dispatch_block, oracle_block, oracle_opf,
                            solution_layout)

from conftest import (apply_sample_reference, dispatch_kkt_residual, gaussian_source,
                      make_branch, make_bus, make_case, make_gen, power_flow_mismatch,
                      series_losses, stall_dispatch, two_bus_case)


# ---------------------------------------------------------------------------
# independent oracles


def closed_form_two_bus(p, q, x):
    """Receiving-end voltage/angle of a lossless feeder, or None past the nose.

    From S = V2 (Y21 V1 + Y22 V2)* with V1 = 1:
    V2^4 + V2^2 (2 q x - 1) + x^2 (p^2 + q^2) = 0.
    """
    b = 2.0 * q * x - 1.0
    disc = b * b - 4.0 * x * x * (p * p + q * q)
    if disc < 0:
        return None
    v2 = math.sqrt((-b + math.sqrt(disc)) / 2.0)
    ang = -math.asin(p * x / v2)
    return v2, ang


def grid_search_dispatch(case, loads, step=1e-3):
    """Exhaustive dispatch search; flows from a from-scratch DC angle solve."""
    gens = case.generators
    total = float(np.sum(loads))
    axes = [np.concatenate([np.arange(g.p_min, g.p_max, step), [g.p_max]])
            for g in gens[:-1]]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    free = np.column_stack([m.ravel() for m in mesh]) if axes else np.zeros((1, 0))
    last = total - free.sum(axis=1)
    ok = (last >= gens[-1].p_min - 1e-9) & (last <= gens[-1].p_max + 1e-9)
    p_all = np.column_stack([free[ok], last[ok]])
    if p_all.size == 0:
        return None

    if case.n_branch:
        flows = _dc_flows_from_angles(case, p_all, loads)
        limits = np.array([br.p_limit for br in case.branches])
        ok = np.all(np.abs(flows) <= limits + 1e-9, axis=1)
        p_all = p_all[ok]
        if p_all.size == 0:
            return None

    a = np.array([g.cost_a for g in gens])
    b = np.array([g.cost_b for g in gens])
    c = sum(g.cost_c for g in gens)
    costs = (a * p_all ** 2 + b * p_all).sum(axis=1) + c
    best = int(np.argmin(costs))
    return float(costs[best]), p_all[best]


def _dc_flows_from_angles(case, p_matrix, loads):
    """Solve B theta = injection directly and read flows off the angles."""
    n = case.n_bus
    slack = case.slack_index
    bbus = np.zeros((n, n))
    for br in case.branches:
        y = 1.0 / br.x
        f, t = br.from_bus, br.to_bus
        bbus[f, f] += y
        bbus[t, t] += y
        bbus[f, t] -= y
        bbus[t, f] -= y
    inj = -np.tile(loads, (p_matrix.shape[0], 1))
    for j, g in enumerate(case.generators):
        inj[:, g.bus] += p_matrix[:, j]
    keep = [i for i in range(n) if i != slack]
    theta = np.zeros((p_matrix.shape[0], n))
    theta[:, keep] = np.linalg.solve(bbus[np.ix_(keep, keep)], inj[:, keep].T).T
    flows = np.empty((p_matrix.shape[0], case.n_branch))
    for i, br in enumerate(case.branches):
        flows[:, i] = (theta[:, br.from_bus] - theta[:, br.to_bus]) / br.x
    return flows


def dense_jacobian_reference(ybus, v, pv, pq):
    """Newton Jacobian from MATPOWER's dSbus_dV in dense matrix form."""
    pvpq = np.concatenate([pv, pq]).astype(int)
    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vnorm = np.diag(v / np.abs(v))
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    j11 = ds_dva[np.ix_(pvpq, pvpq)].real
    j12 = ds_dvm[np.ix_(pvpq, pq)].real
    j21 = ds_dva[np.ix_(pq, pvpq)].imag
    j22 = ds_dvm[np.ix_(pq, pq)].imag
    return np.block([[j11, j12], [j21, j22]])


def fresh_copy(case):
    """An equal but separate case object: it compiles anew, with no warm sets."""
    return dataclasses.replace(case)


# ---------------------------------------------------------------------------
# admittance matrix


def test_ybus_single_branch():
    case = two_bus_case()
    y = build_ybus(case)
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(y, expected, atol=1e-12)


def test_ybus_unconnected_pair_is_zero():
    case = make_case(
        buses=[make_bus(0, SLACK), make_bus(1, PQ, p=0.1), make_bus(2, PQ)],
        branches=[make_branch(0, 1), make_branch(1, 2)],
        generators=[make_gen(0)],
    )
    y = build_ybus(case)
    assert y[0, 2] == 0 and y[2, 0] == 0


def test_ybus_triangle_symmetry():
    case = make_case(
        buses=[make_bus(0, SLACK), make_bus(1, PQ), make_bus(2, PQ)],
        branches=[make_branch(0, 1, r=0.01, x=0.1), make_branch(1, 2, r=0.01, x=0.1),
                  make_branch(0, 2, r=0.01, x=0.1)],
        generators=[make_gen(0)],
    )
    y = build_ybus(case)
    assert np.allclose(y, y.T, atol=1e-15)
    assert y[0, 1] == pytest.approx(y[1, 2])
    assert y[0, 1] == pytest.approx(y[0, 2])


def test_ybus_row_sums_equal_shunt(case14):
    """Kirchhoff structure: series terms cancel in each row sum."""
    y = build_ybus(case14)
    shunt = np.zeros(case14.n_bus, dtype=complex)
    for br in case14.branches:
        shunt[br.from_bus] += 0.5j * br.b_sh
        shunt[br.to_bus] += 0.5j * br.b_sh
    assert np.allclose(y.sum(axis=1), shunt, atol=1e-12)


# ---------------------------------------------------------------------------
# Newton-Raphson power flow


def test_no_load_flat_solution():
    case = two_bus_case(load=0.0)
    sol = ac_power_flow(case, np.zeros(2), np.zeros(2))
    assert sol.iterations <= 1
    assert np.allclose(sol.v_mag, 1.0)
    assert np.allclose(sol.v_ang, 0.0)
    assert sol.max_mismatch < 1e-8


def test_two_bus_matches_closed_form():
    case = two_bus_case()
    for p, q in [(0.5, 0.0), (2.0, 0.0), (1.0, 0.3), (4.0, 0.1)]:
        sol = ac_power_flow(case, np.array([0.0, -p]), np.array([0.0, -q]))
        v2, ang = closed_form_two_bus(p, q, 0.1)
        assert sol.v_mag[1] == pytest.approx(v2, abs=1e-8)
        assert sol.v_ang[1] == pytest.approx(ang, abs=1e-8)


def test_two_bus_past_loadability_diverges():
    case = two_bus_case()
    # closed form has no solution for p > 1/(2x) = 5
    assert closed_form_two_bus(5.5, 0.0, 0.1) is None
    with pytest.raises(NonConvergence):
        ac_power_flow(case, np.array([0.0, -5.5]), np.zeros(2))


@pytest.mark.parametrize("bad, message", [
    ({"tol": float("nan")}, "tol must be a positive finite number"),
    ({"tol": float("inf")}, "tol must be a positive finite number"),
    ({"tol": 0.0}, "tol must be a positive finite number"),
    ({"max_iter": -1}, "max_iter must be an integer of at least 0"),
    ({"max_iter": 2.5}, "max_iter must be an integer of at least 0")])
def test_power_flow_refuses_bad_arguments(bad, message):
    """A tolerance that no mismatch can meet, or that every one meets, and an
    iteration cap that is no count are bad arguments, not a NonConvergence."""
    with pytest.raises(ValueError, match=message):
        ac_power_flow(two_bus_case(), np.array([0.0, -0.5]), np.zeros(2), **bad)


def test_power_flow_with_no_iterations_checks_the_flat_start():
    """``max_iter=0`` solves only a flat start that already meets ``tol``."""
    flat = ac_power_flow(two_bus_case(), np.zeros(2), np.zeros(2), max_iter=0)
    assert flat.iterations == 0 and np.array_equal(flat.v_mag, np.ones(2))
    with pytest.raises(NonConvergence, match="after 0 iterations"):
        ac_power_flow(two_bus_case(), np.array([0.0, -0.5]), np.zeros(2), max_iter=0)


def test_slack_angle_zero_and_residual(case14):
    p_inj = -case14.p_load_vector()
    q_inj = -case14.q_load_vector()
    sol = ac_power_flow(case14, p_inj, q_inj)
    assert sol.v_ang[case14.slack_index] == 0.0
    assert sol.max_mismatch <= 1e-8
    assert power_flow_mismatch(case14, p_inj, q_inj, sol.v_mag, sol.v_ang) <= 1e-8


def test_power_conservation_random_injections(case14, rng):
    """Generation minus load minus series losses vanishes at any solution."""
    base_p = -case14.p_load_vector()
    base_q = -case14.q_load_vector()
    for _ in range(5):
        p = base_p * rng.uniform(0.7, 1.2)
        q = base_q * rng.uniform(0.7, 1.2)
        sol = ac_power_flow(case14, p, q)
        total_inj = sol.p_slack + sum(p[i] for i in range(14) if i != case14.slack_index)
        assert abs(total_inj - series_losses(case14, sol.v_mag, sol.v_ang)) <= 1e-7


def lossy_meshed_case():
    """Four buses, resistive lines with charging, two PV generators."""
    return make_case(
        buses=[make_bus(0, SLACK), make_bus(1, PV), make_bus(2, PQ, p=0.4, q=0.1),
               make_bus(3, PV)],
        branches=[make_branch(0, 1, r=0.02, x=0.1, b_sh=0.04),
                  make_branch(1, 2, r=0.01, x=0.08, b_sh=0.02),
                  make_branch(0, 2, r=0.03, x=0.2),
                  make_branch(2, 3, r=0.015, x=0.12, b_sh=0.03)],
        generators=[make_gen(0), make_gen(1), make_gen(3)],
    )


@pytest.mark.parametrize("which", ["case14", "meshed"])
def test_elementwise_jacobian_matches_dense_reference(which, case14, rng):
    """The block Jacobian of stacked voltage rows, row by row against the
    dense dSbus_dV products."""
    case = case14 if which == "case14" else lossy_meshed_case()
    cc = compile_case(case)
    vm = rng.uniform(0.8, 1.2, (5, case.n_bus))
    va = rng.uniform(-0.5, 0.5, (5, case.n_bus))
    jacs = _jacobians(cc, vm, _bus_state(cc, vm, va))
    for jac, v in zip(jacs, vm * np.exp(1j * va)):
        ref = dense_jacobian_reference(build_ybus(case), v, case.pv_indices(), case.pq_indices())
        assert jac.shape == ref.shape
        assert np.max(np.abs(jac - ref)) <= 1e-12


@st.composite
def meshed_cases(draw):
    """A connected case of 2 to 12 buses: a random spanning tree plus random
    extra branches, one bus pair doubled by a parallel branch, PV and PQ
    buses mixed, line charging on some branches and not on others."""
    n = draw(st.integers(2, 12))
    kinds = [SLACK] + draw(st.lists(st.sampled_from([PV, PQ]), min_size=n - 1, max_size=n - 1))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda pair: pair[0] != pair[1]), max_size=2 * n))
    pairs.append(draw(st.sampled_from(pairs)))
    charging = [0.0] + [draw(st.sampled_from([0.0, 0.02, 0.1])) for _ in pairs[1:-1]] + [0.05]
    return make_case(
        buses=[make_bus(i, kind) for i, kind in enumerate(kinds)],
        branches=[make_branch(f, t, r=draw(st.floats(0.0, 0.05)), x=draw(st.floats(0.05, 0.5)),
                              b_sh=b_sh) for (f, t), b_sh in zip(pairs, charging)],
        generators=[make_gen(i) for i, kind in enumerate(kinds) if kind != PQ])


@settings(max_examples=80, deadline=None)
@given(case=meshed_cases(), data=st.data())
def test_pattern_kernels_match_dense_ybus(case, data):
    """Bus currents and Jacobians from the Ybus pattern gathers, row by row
    against the complex ``Ybus @ V`` and the dense dSbus_dV products."""
    rows, n = data.draw(st.integers(1, 4)), case.n_bus
    vm = data.draw(arrays(np.float64, (rows, n), elements=st.floats(0.5, 1.5)))
    va = data.draw(arrays(np.float64, (rows, n), elements=st.floats(-1.0, 1.0)))
    cc = compile_case(case)
    bus = _bus_state(cc, vm, va)
    jacs = _jacobians(cc, vm, bus)
    ybus = build_ybus(case)
    for k, v in enumerate(vm * np.exp(1j * va)):
        scale = np.max(np.abs(ybus) @ np.abs(v)) * max(1.0, np.abs(v).max())
        currents = bus.i_re[k] + 1j * bus.i_im[k]
        assert np.max(np.abs(currents - ybus @ v)) <= 1e-12 * scale
        ref = dense_jacobian_reference(ybus, v, case.pv_indices(), case.pq_indices())
        assert jacs[k].shape == ref.shape
        assert np.max(np.abs(jacs[k] - ref), initial=0.0) <= 1e-12 * scale


def test_equal_cases_compile_separately():
    a, b = two_bus_case(), two_bus_case()
    assert a == b
    assert compile_case(a) is compile_case(a)
    assert compile_case(a) is not compile_case(b)


# ---------------------------------------------------------------------------
# dispatch


def single_bus_case(gens):
    return make_case(buses=[make_bus(0, SLACK)], branches=[], generators=gens)


def test_dispatch_merit_order_linear_costs():
    case = single_bus_case([
        make_gen(0, 0.0, 0.8, a=0.0, b=10.0),
        make_gen(0, 0.0, 0.8, a=0.0, b=20.0),
    ])
    sol = dc_opf(case, np.array([1.0]))
    assert sol.p_gen == pytest.approx([0.8, 0.2], abs=1e-9)
    assert sol.cost == pytest.approx(12.0, abs=1e-8)
    assert "p_max[0]" in sol.binding


def test_dispatch_symmetric_split():
    case = single_bus_case([
        make_gen(0, 0.0, 2.0, a=5.0, b=12.0),
        make_gen(0, 0.0, 2.0, a=5.0, b=12.0),
    ])
    for load in (0.4, 1.0, 2.6):
        sol = dc_opf(case, np.array([load]))
        assert sol.p_gen == pytest.approx([load / 2, load / 2], abs=1e-9)


def test_dispatch_infeasible_overload():
    case = single_bus_case([make_gen(0, 0.0, 0.5, a=0.0, b=10.0)])
    with pytest.raises(Infeasible):
        dc_opf(case, np.array([1.0]))


def test_dispatch_round_cap_raises_domain_error(monkeypatch):
    from popflow import solver

    stall_dispatch(monkeypatch)
    with pytest.raises(DispatchStalled, match="did not terminate"):
        solver.dc_opf(two_bus_case(), np.array([0.0, 0.5]))


def test_import_leaves_the_lp_solver_unloaded():
    """``import popflow`` imports neither scipy.optimize nor scipy.linalg,
    and ``import popflow.cli`` loads no scipy module at all: phase 1 runs on
    the dispatch's own active-set kernel, so no LP solver is ever loaded."""
    code = ("import sys, popflow; "
            "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules); "
            "import popflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["False False", "[]"]


def three_bus_limited_case(limit=0.4):
    """Cheap generation at bus 0 separated from the load by a tight line."""
    return make_case(
        buses=[make_bus(0, SLACK), make_bus(1, PV), make_bus(2, PQ, p=1.0)],
        branches=[make_branch(0, 1, x=0.1, limit=2.0),
                  make_branch(0, 2, x=0.1, limit=limit),
                  make_branch(1, 2, x=0.1, limit=2.0)],
        generators=[make_gen(0, 0.0, 1.5, a=0.1, b=10.0),
                    make_gen(1, 0.0, 1.5, a=0.1, b=14.0)],
    )


def test_dispatch_binding_line_matches_grid_search():
    case = three_bus_limited_case()
    loads = np.array([0.0, 0.0, 1.0])
    sol = dc_opf(case, loads)
    assert any(name.startswith("flow") for name in sol.binding)
    best = grid_search_dispatch(case, loads)
    assert best is not None
    step_tol = 1e-3 * sum(2 * g.cost_a * g.p_max + abs(g.cost_b) for g in case.generators)
    assert sol.cost <= best[0] + 1e-9
    assert abs(sol.cost - best[0]) <= step_tol
    assert dispatch_kkt_residual(case, loads, sol) <= 1e-8


def _random_small_case(rng):
    """2 or 3 generators on a ring with one PQ load bus."""
    n_gen = int(rng.integers(2, 4))
    buses = [make_bus(0, SLACK)]
    gens = [make_gen(0, 0.0, float(rng.uniform(0.5, 1.5)),
                     a=float(rng.choice([0.0, rng.uniform(0.5, 5.0)])),
                     b=float(rng.uniform(5.0, 30.0)))]
    for i in range(1, n_gen):
        buses.append(make_bus(i, PV))
        gens.append(make_gen(i, 0.0, float(rng.uniform(0.5, 1.5)),
                             a=float(rng.choice([0.0, rng.uniform(0.5, 5.0)])),
                             b=float(rng.uniform(5.0, 30.0))))
    load_bus = len(buses)
    buses.append(make_bus(load_bus, PQ, p=1.0))
    branches = []
    for i in range(len(buses)):
        j = (i + 1) % len(buses)
        branches.append(make_branch(i, j, x=float(rng.uniform(0.05, 0.3)),
                                    limit=float(rng.uniform(0.3, 1.2))))
    load = float(rng.uniform(0.3, 0.9) * sum(g.p_max for g in gens))
    loads = np.zeros(len(buses))
    loads[load_bus] = load
    return make_case(buses=buses, branches=branches, generators=gens), loads


# Rings where most generators have linear costs: generator i at bus i (bus 0
# slack, the others PV), then PQ buses with the given loads; branch i joins
# bus i to bus i + 1 (mod the bus count). Rounding the data to 4 decimals
# hides both failures.
# In both, a KKT matrix singular along a flat direction factored without an
# exact zero pivot, and the step it gave was garbage (|d| ~ 1e32).
DEGENERATE_RINGS = {
    # rows that depend on the working set then joined it, and a later KKT
    # solve raised numpy.linalg.LinAlgError
    "dependent row": (
        [(0.14385789317865755, 1.4079308830594954, 0.7679880610181695, 24.438985194176116),
         (0.1339032784868468, 1.3247539841501452, 0, 19.795935716049478),
         (0.06519325709752022, 1.0779698698460736, 0, 11.7379032900778),
         (0.009195343257791967, 1.1276425260416554, 0, 9.443639843741865),
         (0.1851708572029608, 1.2762323402705835, 0, 6.675383915759445)],
        [(0.2776926369348817, 0.3649493804165537), (0.29223369307942504, 1.0327042518665965),
         (0.22239384716706195, 0.6333926704221629), (0.05343558553996709, 0.6726110260936855),
         (0.11445297109817056, 1.0710645305343918), (0.053166186197110984, 1.5139370345753516)],
        [2.3060408284519975]),
    # the iteration ended below a generator's p_min
    "below p_min": (
        [(0.1636994707104291, 1.326668059236316, 0, 21.639008124227438),
         (0.12402115411821912, 1.093320270335154, 0, 12.348518454073407),
         (0.03027264628630999, 1.1626845798711374, 0, 24.55286966845175),
         (0.14346330749447564, 1.1919103083682057, 0, 10.075993263745385),
         (0.12263136205580867, 1.337814940022094, 0, 21.829772113934872),
         (0.07963657850606415, 1.0897414281167574, 0.8072594676777067, 16.437554980602755)],
        [(0.15689578777912327, 0.8721589792290974), (0.12718964645602704, 0.8906967474164813),
         (0.21340403460503077, 0.9681835306286843), (0.16001841950657775, 0.5046563567876583),
         (0.0861551954422941, 0.5267869649471351), (0.1507475819985722, 0.7700140319171801),
         (0.21288590286198877, 0.8185993766788522), (0.1967582576242342, 1.575026620220276),
         (0.2557347760949858, 1.5783084816327686)],
        [0.7041066264492077, 0.5292185104506881, 0.3424766251827163]),
}


@pytest.mark.parametrize("name", DEGENERATE_RINGS)
def test_degenerate_linear_cost_rings_dispatch_to_a_kkt_point(name):
    gens, ring, pq_loads = DEGENERATE_RINGS[name]
    ng = len(gens)
    loads = np.array([0.0] * ng + pq_loads)
    case = make_case(
        buses=[make_bus(0, SLACK), *(make_bus(i, PV) for i in range(1, ng)),
               *(make_bus(ng + k, PQ, p=load) for k, load in enumerate(pq_loads))],
        branches=[make_branch(i, (i + 1) % len(loads), x=x, limit=limit)
                  for i, (x, limit) in enumerate(ring)],
        generators=[make_gen(i, *g) for i, g in enumerate(gens)])
    sol = dc_opf(case, loads)
    flows = _dc_flows_from_angles(case, sol.p_gen[None], loads)[0]
    assert np.all(np.abs(flows) <= np.array([limit for _, limit in ring]) + 1e-9)
    assert np.all((sol.p_gen >= [g[0] - 1e-9 for g in gens])
                  & (sol.p_gen <= [g[1] + 1e-9 for g in gens]))
    assert sol.p_gen.sum() == pytest.approx(loads.sum(), abs=1e-9)
    assert dispatch_kkt_residual(case, loads, sol) <= 1e-8


def test_remembered_active_set_skips_the_iteration():
    case = three_bus_limited_case()
    loads = np.array([0.0, 0.0, 1.0])
    first = dc_opf(case, loads)
    warm = dc_opf(case, 1.01 * loads)
    cold = dc_opf(fresh_copy(case), 1.01 * loads)
    assert first.rounds > 0 and cold.rounds > 0
    assert warm.rounds == 0
    assert np.array_equal(warm.p_gen, cold.p_gen)
    assert warm.cost == cold.cost and warm.binding == cold.binding


def test_stale_active_set_is_rejected():
    """A remembered set that is feasible at a new load but has a negative
    multiplier there must not be accepted."""
    case = single_bus_case([make_gen(0, 0.0, 2.0, a=1.0, b=10.0),
                            make_gen(0, 0.0, 2.0, a=1.0, b=11.0)])
    low = dc_opf(case, np.array([0.3]))
    assert low.binding == ("p_min[1]",)
    high = dc_opf(case, np.array([1.5]))
    assert high.rounds > 0 and high.binding == ()
    assert high.p_gen == pytest.approx([1.0, 0.5], abs=1e-12)
    assert np.array_equal(high.p_gen, dc_opf(fresh_copy(case), np.array([1.5])).p_gen)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.lists(st.floats(min_value=0.2, max_value=1.3), min_size=1, max_size=6))
def test_dispatch_is_independent_of_warm_sets(seed, linear, scalings):
    """dc_opf gives the same bits from an empty and a primed warm-set list."""
    case, loads = _random_small_case(np.random.Generator(np.random.PCG64(seed)))
    if linear:
        case = dataclasses.replace(case, generators=tuple(
            dataclasses.replace(g, cost_a=0.0) for g in case.generators))
    for scale in [*np.linspace(0.2, 1.3, 12), *scalings]:   # prime the warm sets of `case`
        try:
            dc_opf(case, scale * loads)
        except Infeasible:
            pass
    for scale in scalings:
        try:
            cold = dc_opf(fresh_copy(case), scale * loads)
        except Infeasible:
            with pytest.raises(Infeasible):
                dc_opf(case, scale * loads)
            continue
        warm = dc_opf(case, scale * loads)
        assert np.array_equal(warm.p_gen, cold.p_gen)
        assert warm.cost == cold.cost and warm.binding == cold.binding
        assert dispatch_kkt_residual(case, scale * loads, warm) <= 1e-8


def _flat_direction_cases():
    """Two rings of _random_small_case's layout that stall two variants of
    the cold iteration (sweep seeds 476 and 3128, with load on every bus).

    (a) Linear generators whose cost_b differ by 3e-4 relative, beside a
    quadratic one: a fixed full proximal step creeps about 0.002 pu a round
    and stalls here, where the exact line search does not.
    (b) Mixed linear and quadratic costs, where the first KKT target drives
    the linear generator below p_min: a line search on a nonsingular round
    reads rounding noise near the optimum and stalls here.
    """
    specs = [([(0.93707, 0.0, 9.23463), (1.16228, 0.0, 9.23712), (1.03679, 2.49587, 16.4392)],
              [(0.1809, 0.974022), (0.100574, 0.367978), (0.276731, 1.0942), (0.246881, 0.446975)],
              [0.188953, 0.0316481, 0.148354, 0.561152]),
             ([(1.36711, 1.61319, 9.7394), (0.597186, 0.0, 15.2484), (0.921684, 0.986874, 11.0152)],
              [(0.0681679, 1.14936), (0.19079, 1.03419), (0.260674, 0.860868), (0.24598, 1.09927)],
              [0.074429, 0.0708505, 0.00195281, 1.27354])]
    for gens, lines, loads in specs:
        buses = [make_bus(0, SLACK), make_bus(1, PV), make_bus(2, PV), make_bus(3, PQ)]
        branches = [make_branch(i, (i + 1) % 4, x=x, limit=limit)
                    for i, (x, limit) in enumerate(lines)]
        generators = [make_gen(i, 0.0, p_max, a=a, b=b) for i, (p_max, a, b) in enumerate(gens)]
        yield make_case(buses=buses, branches=branches, generators=generators), np.array(loads)


def test_dispatch_matches_grid_search_on_random_cases():
    rng = np.random.Generator(np.random.PCG64(42))
    solved = 0
    for case, loads in [*_flat_direction_cases(),
                        *(_random_small_case(rng) for _ in range(200))]:
        if solved == 22:
            break
        try:
            sol = dc_opf(case, loads)
        except Infeasible:
            assert grid_search_dispatch(case, loads) is None
            continue
        best = grid_search_dispatch(case, loads)
        assert best is not None, "dispatch found a solution the grid search rejects"
        step_tol = 1e-3 * sum(2 * g.cost_a * g.p_max + abs(g.cost_b)
                              for g in case.generators)
        assert sol.cost <= best[0] + 1e-9
        assert abs(sol.cost - best[0]) <= step_tol
        assert dispatch_kkt_residual(case, loads, sol) <= 1e-8
        assert np.all(sol.p_gen >= np.array([g.p_min for g in case.generators]) - 1e-9)
        assert np.all(sol.p_gen <= np.array([g.p_max for g in case.generators]) + 1e-9)
        assert sol.p_gen.sum() == pytest.approx(loads.sum(), abs=1e-9)
        assert np.array_equal(dc_opf(fresh_copy(case), loads).p_gen, sol.p_gen)
        solved += 1
    assert solved == 22


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.floats(min_value=0.2, max_value=1.3))
def test_phase_one_agrees_with_highs(seed, linear, scale):
    """Where the proportional fill breaks a flow limit, the elastic phase 1
    returns a point within 1e-9 of every limit and of the balance exactly
    when HiGHS's phase-1 LP (the sum of the flow-limit violations, minimized)
    reaches at most 1e-8, and raises Infeasible otherwise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    case, loads = _random_small_case(rng)
    if linear:
        case = dataclasses.replace(case, generators=tuple(
            dataclasses.replace(g, cost_a=0.0) for g in case.generators))
    loads = scale * loads + rng.uniform(0.0, 0.1 * loads.sum(), len(loads))
    cc = compile_case(case)
    qp, total, h = cc.qp, loads.sum(), cc.qp.h(loads[None])[0]
    assume(qp.p_min.sum() <= total <= qp.p_max.sum())
    frac = (total - qp.p_min.sum()) / (qp.p_max - qp.p_min).sum()
    assume(np.any(qp.G @ (qp.p_min + frac * (qp.p_max - qp.p_min)) - h > 1e-9))
    ng, nl = case.n_gen, case.n_branch
    highs = linprog(np.concatenate([np.zeros(ng), np.ones(nl)]),
                    A_ub=np.hstack([qp.G[2 * ng:], -np.vstack([np.eye(nl), np.eye(nl)])]),
                    b_ub=h[2 * ng:], A_eq=np.concatenate([np.ones(ng), np.zeros(nl)])[None],
                    b_eq=[total], bounds=[*zip(qp.p_min, qp.p_max), *[(0, None)] * nl],
                    method="highs")
    assert highs.status == 0
    try:
        p = _feasible_start(qp, cc.elastic, total, h)
    except Infeasible as exc:
        assert str(exc) == ("flow limits cannot be met together with balance and "
                            "generator limits")
        assert highs.fun > 1e-8
        return
    assert highs.fun <= 1e-8
    assert np.all(qp.G @ p - h <= 1e-9)
    assert abs(p.sum() - total) <= 1e-9


# ---------------------------------------------------------------------------
# composed oracle


def assert_bus_loads_match_reference(case, samples):
    p, q = bus_loads(case, samples)
    assert p.shape == q.shape == (len(samples), case.n_bus)
    for i, row in enumerate(samples):
        p_ref, q_ref = apply_sample_reference(case, row)
        assert np.array_equal(p[i], p_ref) and np.array_equal(q[i], q_ref)


def load_bus_case(sources, n_pq=3):
    buses = [make_bus(0, SLACK)] + [make_bus(i, PQ, p=0.1 * i, q=0.03 * i)
                                    for i in range(1, n_pq + 1)]
    return make_case(buses=buses, branches=[make_branch(0, i) for i in range(1, n_pq + 1)],
                     generators=[make_gen(0)], sources=sources)


def test_bus_loads_two_sources_on_one_bus():
    """Sources apply in case order: a Gaussian load replaces the bus load,
    then wind on the same bus injects against it; two PV plants stack."""
    case = load_bus_case([gaussian_source(1, 0.5, 0.1, pf=0.9),
                          StochasticSource(bus=1, kind=SRC_WIND, params={}),
                          StochasticSource(bus=2, kind=SRC_PV, params={}),
                          StochasticSource(bus=2, kind=SRC_PV, params={})])
    samples = np.array([[0.6, 0.2, 0.05, 0.07], [0.4, 0.0, 0.0, 0.3]])
    assert_bus_loads_match_reference(case, samples)
    p, q = bus_loads(case, samples)
    assert p[0, 1] == pytest.approx(0.6 - 0.2)
    assert q[0, 1] == pytest.approx(0.6 * math.tan(math.acos(0.9)))
    assert p[0, 2] == pytest.approx(0.2 - 0.05 - 0.07)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["gaussian_load", SRC_WIND, SRC_PV]),
                          st.integers(min_value=1, max_value=3),
                          st.floats(min_value=0.5, max_value=1.0)),
                min_size=1, max_size=6),
       st.data())
def test_bus_loads_match_scalar_reference(specs, data):
    sources = [gaussian_source(bus, 0.3, 0.05, pf=pf) if kind == "gaussian_load"
               else StochasticSource(bus=bus, kind=kind, params={})
               for kind, bus, pf in specs]
    case = load_bus_case(sources)
    n = data.draw(st.integers(min_value=0, max_value=8))
    flat = data.draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                              min_size=n * len(sources), max_size=n * len(sources)))
    assert_bus_loads_match_reference(case, np.array(flat).reshape(n, len(sources)))


def test_bus_loads_reject_wrong_sample_width(case14):
    with pytest.raises(ValueError, match="shape"):
        bus_loads(case14, np.zeros((2, case14.n_sources + 1)))
    with pytest.raises(ValueError, match="shape"):
        oracle_opf(case14, np.zeros(case14.n_sources - 1))


def test_oracle_zero_variance_deterministic(case14):
    sample = np.array([s.params.get("mean", 0.1) for s in case14.sources])
    a = oracle_opf(case14, sample)
    b = oracle_opf(case14, sample)
    assert np.array_equal(a.as_vector(), b.as_vector())


def test_oracle_reports_its_work(case14):
    sample = np.array([s.params.get("mean", 0.1) for s in case14.sources])
    case = fresh_copy(case14)
    first = oracle_opf(case, sample)
    again = oracle_opf(case, sample)
    assert first.dispatch_rounds > 0 and again.dispatch_rounds == 0
    assert np.array_equal(first.as_vector(), again.as_vector())
    p_load, q_load = apply_sample_reference(case14, sample)
    p_inj = -p_load
    for i, gen in enumerate(case14.generators):
        if gen.bus != case14.slack_index:
            p_inj[gen.bus] += first.p_gen[i]
    assert first.newton_iterations == ac_power_flow(case14, p_inj, -q_load).iterations > 0


def test_oracle_lossless_network_conserves_power():
    case = two_bus_case(load=0.5)
    sol = oracle_opf(case, np.array([0.5]))
    assert sol.p_gen.sum() == pytest.approx(0.5, abs=1e-8)


def test_oracle_vector_layout(case14):
    sample = np.array([s.params.get("mean", 0.1) for s in case14.sources])
    sol = oracle_opf(case14, sample)
    vec = sol.as_vector()
    assert vec.shape == (case14.solution_dim(),)
    layout = solution_layout(case14)
    assert vec[layout["cost"]][0] == sol.cost
    assert np.array_equal(vec[layout["v_mag"]], sol.v_mag)
    assert np.array_equal(vec[layout["p_gen"]], sol.p_gen)
    assert np.array_equal(vec[layout["p_branch"]], sol.p_branch)


def test_oracle_golden_fixture(case14):
    """Frozen seed-0 solution, cross-checked at freeze time against a
    brute-force dispatch search and an independent residual check (see the
    fixture's generation notes); re-verified here to 1e-10 plus live KKT and
    power-flow residuals."""
    import json
    from pathlib import Path

    from popflow.sampling import sample_operating_conditions

    golden = json.loads((Path(__file__).parent / "golden" / "case14_seed0.json").read_text())
    sample = sample_operating_conditions(case14, 1, None, seed=0).values[0]
    assert np.allclose(sample, golden["sample"], atol=1e-15)

    sol = oracle_opf(case14, sample)
    assert sol.cost == pytest.approx(golden["cost"], abs=1e-10)
    assert np.allclose(sol.v_mag, golden["v_mag"], atol=1e-10)
    assert np.allclose(sol.p_gen, golden["p_gen"], atol=1e-10)
    assert np.allclose(sol.p_branch, golden["p_branch"], atol=1e-10)

    # live re-checks: dispatch optimality conditions and the AC residual
    p_load, q_load = apply_sample_reference(case14, sample)
    dispatch = dc_opf(case14, p_load)
    assert dispatch_kkt_residual(case14, p_load, dispatch) <= 1e-8
    p_inj = -p_load.copy()
    q_inj = -q_load.copy()
    for i, gen in enumerate(case14.generators):
        if gen.bus != case14.slack_index:
            p_inj[gen.bus] += dispatch.p_gen[i]
    pf = ac_power_flow(case14, p_inj, q_inj)
    assert power_flow_mismatch(case14, p_inj, q_inj, pf.v_mag, pf.v_ang) <= 1e-8


def test_oracle_cost_covers_slack_adjustment(case14):
    """Recomputed cost reflects final outputs, not the linear dispatch."""
    sample = np.array([s.params.get("mean", 0.1) for s in case14.sources])
    p_load, _ = apply_sample_reference(case14, sample)
    dispatch = dc_opf(case14, p_load)
    sol = oracle_opf(case14, sample)
    assert sol.cost != pytest.approx(dispatch.cost, abs=1e-6)
    direct = sum(g.cost_a * p * p + g.cost_b * p + g.cost_c
                 for g, p in zip(case14.generators, sol.p_gen))
    assert sol.cost == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# block oracle: each row's bits are its own


def assert_same_failure(exc, expected_type, call):
    """``exc`` has the type and message of the exception ``call()`` raises."""
    assert isinstance(exc, expected_type)
    with pytest.raises(expected_type) as alone:
        call()
    assert str(exc) == str(alone.value)


def assert_blocks_are_one_pass(case, samples, cuts):
    """Solving ``samples`` in the pieces between ``cuts``, on a fresh case
    object, gives the bits of one pass."""
    whole = oracle_block(case, samples)
    piece_case = fresh_copy(case)
    pieces = [oracle_block(piece_case, samples[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(np.concatenate([p.solved for p in pieces]), whole.solved)
    assert np.array_equal(np.vstack([p.values for p in pieces]), whole.values)
    assert np.array_equal(np.concatenate([p.iterations for p in pieces]), whole.iterations)
    return whole


def test_rows_of_a_large_block_equal_one_row_solves(case14):
    """4,096 rows: enough for block temporaries past 256 KiB, the size from
    which NumPy's temporary elision changes the bits of a complex product."""
    samples = sample_operating_conditions(case14, 4096, None, seed=21).values
    n = len(samples)
    whole = assert_blocks_are_one_pass(case14, samples, [0, 1, 7, n // 2, n])
    assert whole.solved.all() and whole.newton_blocks == -(-n // 65)
    for row, y in zip(samples, whole.values):
        assert np.array_equal(oracle_opf(case14, row).as_vector(), y)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=2, max_value=300),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_rows_do_not_depend_on_their_block(n, fractions, seed):
    case = bundled_case("case14")
    samples = sample_operating_conditions(case, n, None, seed=seed).values
    cuts = sorted({0, n, *(int(f * n) for f in fractions)})
    whole = assert_blocks_are_one_pass(case, samples, cuts)
    for i in {0, n - 1, *(min(c, n - 1) for c in cuts)}:
        assert np.array_equal(oracle_opf(fresh_copy(case), samples[i]).as_vector(),
                              whole.values[i])


def test_a_failing_power_flow_row_fails_alone():
    """A singular Jacobian (flat start steps onto 2 V cos(theta) = 1) and a
    row past the loadability limit fail by themselves; their neighbours keep
    the bits of their one-row solves."""
    case = two_bus_case()
    cc = compile_case(case)
    p = np.array([[0.0, -0.5], [0.0, 0.0], [0.0, -2.0], [0.0, -5.5], [0.0, -1.0]])
    q = np.array([[0.0, -0.1], [0.0, -5.0], [0.0, -0.3], [0.0, 0.0], [0.0, 0.2]])
    flows = _power_flow_rows(cc, p, q, NEWTON_TOL, NEWTON_MAX_ITER)
    assert list(flows.errors) == [1, 3]
    assert_same_failure(flows.errors[1], SingularJacobian,
                        lambda: ac_power_flow(case, p[1], q[1]))
    assert str(flows.errors[1]) == "Jacobian is singular or gave a non-finite step at iteration 1"
    assert_same_failure(flows.errors[3], NonConvergence,
                        lambda: ac_power_flow(case, p[3], q[3]))
    for k in (0, 2, 4):
        alone = ac_power_flow(case, p[k], q[k])
        assert np.array_equal(flows.v_mag[k], alone.v_mag)
        assert np.array_equal(flows.v_ang[k], alone.v_ang)
        assert np.array_equal(flows.p_branch[k], alone.p_branch)
        assert flows.p_slack[k] == alone.p_slack
        assert flows.iterations[k] == alone.iterations


def assert_rows_are_one_row_solves(case, p, q, max_iter=NEWTON_MAX_ITER):
    """Each row of a Newton block has the bits of its one-row solve, or
    fails with its type and message."""
    flows = _power_flow_rows(compile_case(case), p, q, NEWTON_TOL, max_iter)
    for k in range(len(p)):
        call = lambda: ac_power_flow(case, p[k], q[k], max_iter=max_iter)  # noqa: E731
        if k in flows.errors:
            assert_same_failure(flows.errors[k], type(flows.errors[k]), call)
            continue
        alone = call()
        for got, want in ((flows.v_mag[k], alone.v_mag), (flows.v_ang[k], alone.v_ang),
                          (flows.p_branch[k], alone.p_branch)):
            assert got.tobytes() == want.tobytes()
        assert flows.p_slack[k] == alone.p_slack
        assert flows.iterations[k] == alone.iterations
        assert flows.max_mismatch[k] == alone.max_mismatch
    return flows


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=140), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=8.0))
def test_injection_rows_do_not_depend_on_their_block(n, seed, spread):
    """Random case14 injections, scaled loads and generation at the PV buses,
    give the bits of their one-row solves over one or more Newton
    sub-blocks, heavy rows that fail included."""
    case = bundled_case("case14")
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = rng.uniform(0.0, spread, (n, case.n_bus))
    p = rng.uniform(0.0, spread, (n, 1)) * compile_case(case).inj_map.sum(axis=1) * 0.4
    p -= scale * case.p_load_vector()
    q = -scale * case.q_load_vector()
    assert_rows_are_one_row_solves(case, p, q)


def singular_flat_start_case():
    """Two buses whose flat-start Jacobian is singular: with series -2j and
    shunt 1j, dQ/dV at the load bus is 2 - 2 = 0 at vm = 1, va = 0, where Q
    is -1."""
    return make_case(buses=[make_bus(0, SLACK), make_bus(1, PQ, p=0.5)],
                     branches=[make_branch(0, 1, x=0.5, b_sh=2.0)],
                     generators=[make_gen(0, p_max=6.0)],
                     sources=[gaussian_source(1, mean=0.5, std=0.05)])


def test_a_singular_flat_start_fails_every_row_at_iteration_zero():
    """Every row the flat start does not already solve fails as
    SingularJacobian at iteration 0, alone and in a block; the row it solves
    converges there, with the flat voltages."""
    case = singular_flat_start_case()
    assert compile_case(case).flat_inverse is None
    p = np.array([[0.0, -0.5], [0.0, 0.0], [0.0, 0.0], [0.0, -0.1]])
    q = np.array([[0.0, -0.1], [0.0, -1.0], [0.0, 0.3], [0.0, -1.0]])
    flows = assert_rows_are_one_row_solves(case, p, q)
    assert list(flows.errors) == [0, 2, 3]
    for error in flows.errors.values():
        assert type(error) is SingularJacobian
        assert str(error) == "Jacobian is singular or gave a non-finite step at iteration 0"
    assert flows.iterations[1] == 0 and flows.v_mag[1].tolist() == [1.0, 1.0]


def test_the_flat_start_constants_are_the_first_iteration():
    """The compiled flat start is the bus state and mismatch that Newton
    would compute at vm = 1, va = 0, and its inverse inverts that Jacobian."""
    case = bundled_case("case14")
    cc = compile_case(case)
    vm, va = np.ones((3, case.n_bus)), np.zeros((3, case.n_bus))
    bus = _bus_state(cc, vm, va)
    for got, want in zip(cc.flat_bus, bus):
        assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()
    mismatch = np.concatenate([bus.p[:, cc.pvpq], bus.q[:, cc.pq]], axis=1)
    assert np.broadcast_to(cc.flat_mismatch, mismatch.shape).tobytes() == mismatch.tobytes()
    jac = _jacobians(cc, vm[:1], bus)[0]
    assert np.allclose(cc.flat_inverse @ jac, np.eye(len(jac)), atol=1e-12)


def test_no_iterations_keep_their_meaning_in_a_block():
    """With ``max_iter=0`` a block converges only the rows its flat start
    already solves, at iteration 0 with flat voltages, and fails the others
    after 0 iterations, each as alone; with no load every row converges at
    the flat start."""
    case = two_bus_case()
    p = np.array([[0.0, 0.0], [0.0, -0.5], [0.0, 0.0]])
    q = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -0.2]])
    flows = assert_rows_are_one_row_solves(case, p, q, max_iter=0)
    assert list(flows.errors) == [1, 2]
    assert all("after 0 iterations" in str(e) for e in flows.errors.values())
    assert flows.iterations[0] == 0 and flows.v_mag[0].tolist() == [1.0, 1.0]
    flows = assert_rows_are_one_row_solves(two_bus_case(load=0.0), np.zeros((2, 2)),
                                           np.zeros((2, 2)))
    assert not flows.errors and flows.iterations.tolist() == [0, 0]
    assert flows.v_ang.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_a_row_past_the_iteration_cap_fails_alone():
    """With max_iter 3 the light rows converge and the heavy one (5
    iterations) stops with the message of its one-row solve."""
    case = two_bus_case()
    cc = compile_case(case)
    p = np.array([[0.0, -0.1], [0.0, -4.0], [0.0, -0.5]])
    q = np.array([[0.0, 0.0], [0.0, -0.1], [0.0, -0.1]])
    flows = _power_flow_rows(cc, p, q, NEWTON_TOL, 3)
    assert list(flows.errors) == [1]
    assert_same_failure(flows.errors[1], NonConvergence,
                        lambda: ac_power_flow(case, p[1], q[1], max_iter=3))
    for k in (0, 2):
        assert np.array_equal(flows.v_mag[k], ac_power_flow(case, p[k], q[k], max_iter=3).v_mag)


def test_a_failing_oracle_row_fails_alone():
    case = two_bus_case(limit=8.0)
    samples = np.array([[0.5], [5.5], [0.7], [6.5]])
    block = oracle_block(case, samples)
    assert block.solved.tolist() == [True, False, True, False]
    assert_same_failure(block.errors[1], NonConvergence,
                        lambda: oracle_opf(two_bus_case(limit=8.0), samples[1]))
    assert_same_failure(block.errors[3], Infeasible,
                        lambda: oracle_opf(two_bus_case(limit=8.0), samples[3]))
    for y, row in zip(block.values, samples[[0, 2]]):
        assert np.array_equal(oracle_opf(two_bus_case(limit=8.0), row).as_vector(), y)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.lists(st.floats(min_value=0.2, max_value=1.3), min_size=1, max_size=8))
def test_block_dispatch_equals_the_cold_scalar_reference(seed, linear, scalings):
    """Each row of a block dispatch on a primed case has the bits of dc_opf
    on a fresh case, which remembers no active set; a failing row fails
    with the same type and message."""
    rng = np.random.Generator(np.random.PCG64(seed))
    case, loads = _random_small_case(rng)
    if linear:
        case = dataclasses.replace(case, generators=tuple(
            dataclasses.replace(g, cost_a=0.0) for g in case.generators))
    # some load on every bus, so that the flow rows mix several loads
    spread = rng.uniform(0.0, 0.1 * loads.sum(), len(loads))
    priming = np.linspace(0.2, 1.3, 12)
    dispatch_block(case, np.outer(priming, loads) + np.outer(priming[::-1], spread))
    rows = np.outer(scalings, loads) + np.outer(scalings[::-1], spread)
    block = dispatch_block(case, rows)
    for r, row in enumerate(rows):
        if r in block.errors:
            assert_same_failure(block.errors[r], Infeasible,
                                lambda: dc_opf(fresh_copy(case), row))
            assert np.all(np.isnan(block.p_gen[r]))
            continue
        cold = dc_opf(fresh_copy(case), row)
        assert np.array_equal(block.p_gen[r], cold.p_gen)
        assert block.cost[r] == cold.cost
