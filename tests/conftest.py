"""Shared builders for synthetic cases used across the suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from popflow.grid import (PQ, SLACK, SRC_GAUSSIAN_LOAD, Branch, Bus,
                          Generator, NetworkCase, StochasticSource, bundled_case)
from popflow.sampling import _column_generators, _draw_normals
from popflow.solver import DispatchSolution, build_ybus, compile_case


def draw_standard_normals(n, d, seed, redraw=0):
    """n x d standard normals from the sampler's per-column PCG64 streams."""
    return _draw_normals(_column_generators(d, seed, redraw), n)


def make_bus(i, kind, p=0.0, q=0.0, v_min=0.9, v_max=1.1):
    return Bus(id=i, kind=kind, v_min=v_min, v_max=v_max, p_load=p, q_load=q)


def make_branch(f, t, r=0.0, x=0.1, b_sh=0.0, limit=10.0):
    return Branch(from_bus=f, to_bus=t, r=r, x=x, b_sh=b_sh, p_limit=limit)


def make_gen(bus, p_min=0.0, p_max=2.0, a=0.0, b=10.0, c=0.0):
    return Generator(bus=bus, p_min=p_min, p_max=p_max, cost_a=a, cost_b=b, cost_c=c)


def gaussian_source(bus, mean, std, pf=1.0, group=None):
    return StochasticSource(bus=bus, kind=SRC_GAUSSIAN_LOAD,
                            params={"mean": mean, "std": std, "power_factor": pf},
                            corr_group=group)


def make_case(buses, branches=(), generators=(), sources=(), base_mva=100.0):
    return NetworkCase(base_mva=base_mva, buses=tuple(buses), branches=tuple(branches),
                       generators=tuple(generators), sources=tuple(sources))


def two_bus_case(load=0.5, x=0.1, limit=4.0):
    """Slack feeding one PQ load over a lossless line."""
    return make_case(
        buses=[make_bus(0, SLACK), make_bus(1, PQ, p=load)],
        branches=[make_branch(0, 1, x=x, limit=limit)],
        generators=[make_gen(0, p_max=6.0, a=0.02, b=30.0)],
        sources=[gaussian_source(1, mean=load, std=0.1 * load)],
    )


def apply_sample_reference(case, sample):
    """Scalar reference for solver.bus_loads: per-bus (P, Q) of one sample row.

    Gaussian-load samples replace the bus load (Q follows from the constant
    power factor); wind and PV samples inject against the local load.
    """
    p_load = case.p_load_vector()
    q_load = case.q_load_vector()
    for value, src in zip(np.asarray(sample, dtype=float), case.sources):
        if src.kind == SRC_GAUSSIAN_LOAD:
            pf = src.params["power_factor"]
            p_load[src.bus] = value
            q_load[src.bus] = value * math.tan(math.acos(pf))
        else:
            p_load[src.bus] -= value
    return p_load, q_load


# ---------------------------------------------------------------------------
# reference checks of solver results


def series_losses(case: NetworkCase, vm: np.ndarray, va: np.ndarray) -> float:
    """Total I^2 R loss over all branches (shunts are lossless)."""
    v = vm * np.exp(1j * va)
    total = 0.0
    for br in case.branches:
        ys = 1.0 / complex(br.r, br.x)
        i_series = ys * (v[br.from_bus] - v[br.to_bus])
        total += float(np.abs(i_series) ** 2 * br.r)
    return total


def power_flow_mismatch(case: NetworkCase, p_inj, q_inj, vm, va) -> float:
    """Residual of the mismatch equations at a candidate solution."""
    cc = compile_case(case)
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(build_ybus(case) @ v)
    parts = [s_calc.real[cc.pvpq] - np.asarray(p_inj)[cc.pvpq],
             s_calc.imag[cc.pq] - np.asarray(q_inj)[cc.pq]]
    res = np.concatenate(parts)
    return float(np.max(np.abs(res))) if res.size else 0.0


def dispatch_kkt_residual(case: NetworkCase, loads: np.ndarray, sol: DispatchSolution) -> float:
    """Max violation over the KKT conditions of the dispatch QP."""
    ng = case.n_gen
    p = sol.p_gen
    loads = np.asarray(loads, dtype=float)
    qp = compile_case(case).qp
    G, h = qp.G, qp.h(loads[None])[0]

    grad = 2.0 * qp.cost_a * p + qp.cost_b
    primal_eq = abs(p.sum() - loads.sum())
    primal_ineq = float(np.max(np.clip(G @ p - h, 0.0, None), initial=0.0))

    active = np.flatnonzero(G @ p - h >= -1e-7)
    C = np.vstack([np.ones((1, ng)), G[active]])
    mults, *_ = np.linalg.lstsq(C.T, -grad, rcond=None)
    stationarity = float(np.max(np.abs(C.T @ mults + grad)))
    lam = mults[1:]
    dual = float(max(0.0, -lam.min()) if lam.size else 0.0)
    return max(primal_eq, primal_ineq, stationarity, dual)


def stall_dispatch(monkeypatch, stalled=lambda miss: True):
    """Run the chosen misses of the block dispatch into the active-set round
    cap: with a negative step tolerance no round meets the stop test. Misses,
    the rows that no remembered active set solves, are numbered from 1."""
    from popflow import solver

    misses = [0]
    real_miss = solver._cold_dispatch

    def counted_miss(qp, total, h):
        misses[0] += 1
        with monkeypatch.context() as mp:
            if stalled(misses[0]):
                mp.setattr(solver, "_STEP_TOL", -1.0)
            return real_miss(qp, total, h)

    monkeypatch.setattr(solver, "_cold_dispatch", counted_miss)


@pytest.fixture(scope="session")
def case14():
    return bundled_case("case14")


@pytest.fixture(scope="session")
def twobus():
    return bundled_case("twobus")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
