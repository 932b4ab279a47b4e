"""Shared builders for synthetic cases used across the suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from popflow.grid import (PQ, SLACK, SRC_GAUSSIAN_LOAD, Branch, Bus,
                          Generator, NetworkCase, StochasticSource, bundled_case)
from popflow.pipeline import DEFAULT_CV_THRESHOLD, DEFAULT_MAX_SAMPLES, fold_convergence
from popflow.sampling import _apply_factors, _cholesky_factors
from popflow.sdae import _as_columns
from popflow.solver import DispatchSolution, build_ybus, compile_case


def solution_dim(case):
    """Length of one OPF solution vector: cost + voltages + gens + flows."""
    return 1 + case.n_bus + case.n_gen + case.n_branch


def as_vector(sol):
    """One ``OpfSolution`` as its solution vector (``solver.solution_layout``)."""
    return np.concatenate(([sol.cost], sol.v_mag, sol.p_gen, sol.p_branch))


def correlate(z, spec):
    """``z`` with the correlation groups of ``spec`` imposed, as a
    ``SampleStream`` imposes them on its normals."""
    return _apply_factors(z, _cholesky_factors(spec))


def draw_standard_normals(n, d, seed, *branch):
    """n x d standard normals by the documented key rule, built here as an
    independent reference: column j is PCG64 on ``SeedSequence(seed,
    spawn_key=(j, *branch))``, so ``(j,)`` for a Monte-Carlo draw and
    ``(j, 1)`` for a label draw."""
    return np.column_stack([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j, *branch))))
        .standard_normal(n) for j in range(d)])


def update_convergence(sums, values, threshold=DEFAULT_CV_THRESHOLD,
                       max_samples=DEFAULT_MAX_SAMPLES):
    """Per-row reference of ``run_popf``'s stopping rule: fold one row of d
    index values into the ``(count, shift, s1, s2)`` sums (None before the
    first row); the rule fires when the variance-coefficient test holds or
    the count reaches max_samples, and no row past the cap is folded."""
    if sums is not None and sums[0] >= max_samples:
        return sums, True
    _, converged, sums = fold_convergence(sums, np.asarray(values, dtype=float)[None], threshold)
    return sums, converged or sums[0] >= max_samples


def denormalize(v, lo, hi):
    """Inverse of ``sdae.normalize``: degenerate columns restore their stored
    constant."""
    v, lo, hi, shape = _as_columns(v, lo, hi)
    span = hi - lo
    fixed = np.flatnonzero(span == 0)
    out = v * span
    out += lo
    out[..., fixed] = lo[fixed]
    return out.reshape(shape)


def reference_forward(model, x):
    """The stack's forward as separate arithmetic: outputs, and a cache that
    keeps every pre-activation (``pre``) beside every activation (``post``),
    the affine top last in both."""
    pre, post = [], []
    a = x
    for layer in model.layers:
        z = a @ layer.w.T
        z += layer.b
        a = np.maximum(z, 0.0)
        pre.append(z)
        post.append(a)
    y = a @ model.top_w.T
    y += model.top_b
    pre.append(y)
    post.append(y)
    return y, {"x": x, "pre": pre, "post": post}


def reference_backward(model, cache, y_true):
    """Gradients of the batch-averaged loss, ordered like ``model_params``,
    written out per layer with each ReLU mask taken from the pre-activation
    of ``reference_forward``'s cache."""
    y_hat = cache["post"][-1]
    y_true = np.atleast_2d(y_true)
    m = y_hat.shape[0]
    delta = (y_hat - y_true) / m
    top_in = cache["post"][-2] if model.layers else cache["x"]
    grads_top = (delta.T @ top_in, delta.sum(axis=0))

    grads_layers = [None] * len(model.layers)
    upstream = model.top_w
    for l in range(len(model.layers) - 1, -1, -1):
        delta = (delta @ upstream) * (cache["pre"][l] > 0)
        layer_in = cache["post"][l - 1] if l > 0 else cache["x"]
        grads_layers[l] = (delta.T @ layer_in, delta.sum(axis=0))
        upstream = model.layers[l].w
    out = []
    for g in grads_layers:
        out.extend(g)
    out.extend(grads_top)
    return out


def reference_dae_loss_grads(layer, x_clean, x_noisy):
    """One denoising autoencoder's reconstruction loss and its gradients
    ``[g_w, g_b, g_wdec, g_bdec]``, encoder and decoder written out, each
    ReLU mask taken from the pre-activation."""
    m = x_clean.shape[0]
    z_mid = x_noisy @ layer.w.T + layer.b
    a = np.maximum(z_mid, 0.0)
    z_out = a @ layer.w_dec.T + layer.b_dec
    recon = np.maximum(z_out, 0.0)
    loss = 0.5 * float(np.sum((recon - x_clean) ** 2)) / m
    d_out = ((recon - x_clean) / m) * (z_out > 0)
    g_wdec = d_out.T @ a
    g_bdec = d_out.sum(axis=0)
    d_mid = (d_out @ layer.w_dec) * (z_mid > 0)
    g_w = d_mid.T @ x_noisy
    g_b = d_mid.sum(axis=0)
    return loss, [g_w, g_b, g_wdec, g_bdec]


def nested_wind_power_curve(speed, params):
    """Reference wind curve: zero below cut-in, cubic ramp below the rated
    speed, rated up to cut-out and zero past it, then clipped to [0, rated]."""
    speed = np.asarray(speed, dtype=float)
    rated = params["rated"]
    v_in, v_r, v_out = params["cut_in"], params["rated_speed"], params["cut_out"]
    ramp = rated * (speed / v_r) ** 3
    power = np.where(speed < v_in, 0.0,
                     np.where(speed < v_r, ramp,
                              np.where(speed <= v_out, rated, 0.0)))
    return np.clip(power, 0.0, rated)


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

    def counted_miss(*args):
        misses[0] += 1
        with monkeypatch.context() as mp:
            if stalled(misses[0]):
                mp.setattr(solver, "_STEP_TOL", -1.0)
            return real_miss(*args)

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
