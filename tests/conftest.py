"""Shared builders for synthetic cases used across the suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from popflow.grid import (PQ, SLACK, SRC_GAUSSIAN_LOAD, Branch, Bus,
                          Generator, NetworkCase, StochasticSource, bundled_case)


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


def stall_dispatch(monkeypatch, stalled=lambda call: True):
    """Run the chosen solver.dc_opf calls (numbered from 1) into the
    active-set round cap: a tiny fixed step never reaches a stationary point."""
    from popflow import solver

    calls = [0]
    real_dc_opf, real_direction = solver.dc_opf, solver._eqp_direction

    def counted_dc_opf(case, loads):
        calls[0] += 1
        return real_dc_opf(case, loads)

    def direction(H, grad, C):
        if stalled(calls[0]):
            return np.full(len(grad), 1e-9), False
        return real_direction(H, grad, C)

    monkeypatch.setattr(solver, "dc_opf", counted_dc_opf)
    monkeypatch.setattr(solver, "_eqp_direction", direction)


@pytest.fixture(scope="session")
def case14():
    return bundled_case("case14")


@pytest.fixture(scope="session")
def twobus():
    return bundled_case("twobus")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
