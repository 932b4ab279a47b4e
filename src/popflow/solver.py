"""Ground-truth OPF oracle.

The oracle combines a quadratic-cost active dispatch under a linear (PTDF)
network model with a full Newton-Raphson AC power flow that supplies the
nonlinear voltages, branch flows, and losses. The slack generator absorbs the
losses the linear dispatch cannot see, and the operating cost is recomputed
from the final generator outputs.

All quantities per-unit. Slack and PV buses regulate 1.0 pu voltage.

Per-case constants (Ybus, PTDF, constraint rows, index grids) live in a
``CompiledCase`` that ``compile_case`` builds once per case object.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.optimize import linprog

from .errors import DispatchStalled, Infeasible, NonConvergence, SingularJacobian
from .grid import SRC_GAUSSIAN_LOAD, NetworkCase

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 30

# active-set tolerances (all quantities O(1) per-unit)
_ACTIVE_TOL = 1e-9
_MULT_TOL = 1e-9
_STEP_TOL = 1e-11
# largest stationarity residual of an accepted KKT solve
_KKT_TOL = 1e-9
# verified active sets a compiled case remembers, most recent first
_WARM_SETS = 8


@dataclass(frozen=True)
class PowerFlowSolution:
    v_mag: np.ndarray
    v_ang: np.ndarray
    p_branch: np.ndarray
    p_slack: float
    iterations: int
    max_mismatch: float


@dataclass(frozen=True)
class DispatchSolution:
    p_gen: np.ndarray
    cost: float
    binding: tuple
    rounds: int = 0   # active-set rounds; 0 when a remembered active set was verified


@dataclass(frozen=True)
class OpfSolution:
    """Output vector of one OPF solve: cost, voltages, outputs, flows."""

    cost: float
    v_mag: np.ndarray
    p_gen: np.ndarray
    p_branch: np.ndarray
    dispatch_rounds: int = 0
    newton_iterations: int = 0

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.cost], self.v_mag, self.p_gen, self.p_branch))


def solution_layout(case: NetworkCase) -> dict:
    """Index slices of the flattened OpfSolution vector for a case."""
    nb, ng, nl = case.n_bus, case.n_gen, case.n_branch
    return {
        "cost": slice(0, 1),
        "v_mag": slice(1, 1 + nb),
        "p_gen": slice(1 + nb, 1 + nb + ng),
        "p_branch": slice(1 + nb + ng, 1 + nb + ng + nl),
    }


# ---------------------------------------------------------------------------
# network matrices


def build_ybus(case: NetworkCase) -> np.ndarray:
    """Assemble the dense complex bus admittance matrix (pi-model, shunt split 50/50)."""
    n = case.n_bus
    Y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        ys = 1.0 / complex(br.r, br.x)
        ysh = 0.5j * br.b_sh
        f, t = br.from_bus, br.to_bus
        Y[f, t] -= ys
        Y[t, f] -= ys
        Y[f, f] += ys + ysh
        Y[t, t] += ys + ysh
    return Y


def ptdf_matrix(case: NetworkCase) -> np.ndarray:
    """Power transfer distribution factors (slack column zero)."""
    n, m = case.n_bus, case.n_branch
    if m == 0:
        return np.zeros((0, n))
    slack = case.slack_index
    susc = np.array([1.0 / br.x for br in case.branches])
    a = np.zeros((m, n))
    for i, br in enumerate(case.branches):
        a[i, br.from_bus] = 1.0
        a[i, br.to_bus] = -1.0
    bf = susc[:, None] * a
    bbus = a.T @ bf
    keep = [i for i in range(n) if i != slack]
    x_red = np.linalg.inv(bbus[np.ix_(keep, keep)])
    ptdf = np.zeros((m, n))
    ptdf[:, keep] = bf[:, keep] @ x_red
    return ptdf


# ---------------------------------------------------------------------------
# compiled case


@dataclass(frozen=True)
class _DispatchQP:
    """Generator data and the inequality rows ``G p <= h`` of the dispatch QP.

    Rows: -p <= -p_min, p <= p_max, then the PTDF flow limits, upper and
    lower. Only ``h`` depends on the load vector.
    """

    p_min: np.ndarray
    p_max: np.ndarray
    cost_a: np.ndarray
    cost_b: np.ndarray
    cost_c: float         # sum of the constant cost terms
    gen_map: np.ndarray   # (n_bus, n_gen): 1 where generator i sits on a bus
    ptdf: np.ndarray
    limits: np.ndarray
    G: np.ndarray
    H: np.ndarray         # Hessian of the cost, diag(2 a)
    names: tuple

    def h(self, loads: np.ndarray) -> np.ndarray:
        base_flow = -(self.ptdf @ loads)
        return np.concatenate([-self.p_min, self.p_max,
                               self.limits - base_flow, self.limits + base_flow])

    def active_set(self, working) -> "_ActiveSet":
        """Rows ``working`` of G held at equality, with their KKT matrix
        ``[[H, C^T], [C, 0]]`` where ``C`` is the balance row over those rows."""
        rows = np.array(working, dtype=int)
        C = np.vstack([np.ones((1, len(self.p_min))), self.G[rows]])
        k = C.shape[0]
        outside = np.ones(self.G.shape[0], dtype=bool)
        outside[rows] = False
        return _ActiveSet(rows=tuple(working), index=rows, outside=outside,
                          kkt=np.block([[self.H, C.T], [C, np.zeros((k, k))]]))


class _ActiveSet(NamedTuple):
    rows: tuple
    index: np.ndarray
    outside: np.ndarray   # mask of the rows not held at equality
    kkt: np.ndarray


def _dispatch_qp(case: NetworkCase) -> _DispatchQP:
    gens = case.generators
    ng = len(gens)
    gen_map = np.zeros((case.n_bus, ng))
    for i, gen in enumerate(gens):
        gen_map[gen.bus, i] = 1.0
    ptdf = ptdf_matrix(case)
    sens = ptdf @ gen_map
    cost_a = np.array([g.cost_a for g in gens])
    names = [f"p_min[{i}]" for i in range(ng)] + [f"p_max[{i}]" for i in range(ng)]
    names += [f"flow_upper[{i}]" for i in range(case.n_branch)]
    names += [f"flow_lower[{i}]" for i in range(case.n_branch)]
    return _DispatchQP(p_min=np.array([g.p_min for g in gens]),
                       p_max=np.array([g.p_max for g in gens]),
                       cost_a=cost_a,
                       cost_b=np.array([g.cost_b for g in gens]),
                       cost_c=float(sum(g.cost_c for g in gens)),
                       gen_map=gen_map, ptdf=ptdf,
                       limits=np.array([br.p_limit for br in case.branches]),
                       G=np.vstack([-np.eye(ng), np.eye(ng), sens, -sens]),
                       H=np.diag(2.0 * cost_a),
                       names=tuple(names))


@dataclass(eq=False)
class CompiledCase:
    """Per-case constants of the oracle, plus the dispatch warm-start sets.

    Everything but ``warm_sets`` is fixed at compile time. ``warm_sets`` is
    a most-recent-first tuple of the dispatch QP's active sets that passed
    the strict KKT test. Reassigning the tuple is atomic, so threads sharing
    a case at worst lose an entry; results never depend on the tuple.
    """

    ybus: np.ndarray
    slack: int
    pq: np.ndarray
    pvpq: np.ndarray
    jac_index: np.ndarray   # (m, m) flat indices into the float view of [dS/dVa | dS/dVm]
    diag_va: np.ndarray     # flat indices of the dS/dVa diagonal in that stack
    diag_vm: np.ndarray     # flat indices of the dS/dVm diagonal
    br_from: np.ndarray
    br_to: np.ndarray
    br_series: np.ndarray   # series admittance per branch
    br_shunt: np.ndarray    # half line charging per branch, as 0.5j * b_sh
    qp: _DispatchQP
    slack_gens: np.ndarray  # generators at the slack bus
    inj_map: np.ndarray     # gen_map with the slack generators' columns zeroed
    p_load: np.ndarray      # per-bus loads before the sources act
    q_load: np.ndarray
    source_rules: tuple     # per source: (bus, Q/P = tan(acos(power factor)) of a
                            # Gaussian load, or None for an injecting source)
    warm_sets: tuple = ()


_COMPILED: dict = {}


def compile_case(case: NetworkCase) -> CompiledCase:
    """The compiled form of ``case``, built on first use and kept while the
    case object lives.

    Keyed by object identity: equal but separate case objects compile
    separately and do not share warm-start sets.
    """
    compiled = _COMPILED.get(id(case))
    if compiled is None:
        compiled = _compile(case)
        _COMPILED[id(case)] = compiled
        weakref.finalize(case, _COMPILED.pop, id(case), None).atexit = False
    return compiled


def _compile(case: NetworkCase) -> CompiledCase:
    n = case.n_bus
    pv, pq = case.pv_indices(), case.pq_indices()
    pvpq = np.concatenate([pv, pq]).astype(int)
    # J = [[Re dS/dVa, Re dS/dVm], [Im dS/dVa, Im dS/dVm]] over (pvpq | pq) rows and
    # (pvpq angles | pq magnitudes) columns, read from the (n, 4n) float view of the
    # complex (n, 2n) stack [dS/dVa | dS/dVm]: entry (r, c) part p sits at r*4n + 2c + p
    rows = np.concatenate([pvpq, pq])
    part = np.concatenate([np.zeros(len(pvpq), dtype=int), np.ones(len(pq), dtype=int)])
    cols = 2 * np.concatenate([pvpq, n + pq])
    jac_index = rows[:, None] * 4 * n + cols[None, :] + part[:, None]
    bus = np.arange(n)

    slack = case.slack_index
    gen_bus = np.array([g.bus for g in case.generators], dtype=int)
    slack_gens = np.flatnonzero(gen_bus == slack)
    qp = _dispatch_qp(case)
    inj_map = qp.gen_map.copy()
    inj_map[:, slack_gens] = 0.0
    return CompiledCase(
        ybus=build_ybus(case), slack=slack, pq=pq, pvpq=pvpq,
        jac_index=jac_index, diag_va=bus * 2 * n + bus, diag_vm=bus * 2 * n + n + bus,
        br_from=np.array([br.from_bus for br in case.branches], dtype=int),
        br_to=np.array([br.to_bus for br in case.branches], dtype=int),
        br_series=np.array([1.0 / complex(br.r, br.x) for br in case.branches], dtype=complex),
        br_shunt=np.array([0.5j * br.b_sh for br in case.branches], dtype=complex),
        qp=qp, slack_gens=slack_gens, inj_map=inj_map,
        p_load=case.p_load_vector(), q_load=case.q_load_vector(),
        source_rules=tuple(
            (src.bus, math.tan(math.acos(src.params["power_factor"]))
             if src.kind == SRC_GAUSSIAN_LOAD else None)
            for src in case.sources))


# ---------------------------------------------------------------------------
# Newton-Raphson AC power flow


def ac_power_flow(case: NetworkCase, p_inj: np.ndarray, q_inj: np.ndarray,
                  tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER) -> PowerFlowSolution:
    """Full Newton on the polar mismatch equations, flat start.

    ``p_inj``/``q_inj`` are net per-bus injections (generation minus load).
    The P entry at the slack bus and Q entries at slack/PV buses are ignored;
    those quantities are outputs of the solve.
    """
    n = case.n_bus
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    if p_inj.shape != (n,) or q_inj.shape != (n,):
        raise ValueError(f"injection vectors must have shape ({n},)")
    cc = compile_case(case)
    ybus, pvpq, pq = cc.ybus, cc.pvpq, cc.pq
    n_angles = len(pvpq)
    spec = np.concatenate([p_inj[pvpq], q_inj[pq]])

    vm = np.ones(n)
    va = np.zeros(n)

    iterations = 0
    for iterations in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        ibus = ybus @ v
        s_calc = v * np.conj(ibus)
        mismatch = np.concatenate([s_calc.real[pvpq], s_calc.imag[pq]]) - spec
        max_mis = float(np.abs(mismatch).max()) if mismatch.size else 0.0
        if max_mis <= tol:
            return PowerFlowSolution(v_mag=vm, v_ang=va, p_branch=_branch_flows(cc, v),
                                     p_slack=float(s_calc[cc.slack].real),
                                     iterations=iterations, max_mismatch=max_mis)
        if iterations == max_iter or not np.isfinite(max_mis):
            raise NonConvergence(iterations, max_mis)

        *_, dx, info = dgesv(_jacobian(cc, v, ibus), -mismatch)
        if info > 0:
            raise SingularJacobian(f"Jacobian factorization failed at iteration {iterations}: "
                                   f"zero pivot in column {info}")
        if not np.all(np.isfinite(dx)):
            raise SingularJacobian(f"Jacobian produced a non-finite step at iteration {iterations}")

        va[pvpq] += dx[:n_angles]
        vm[pq] += dx[n_angles:]

    raise NonConvergence(max_iter, float("nan"))


def _jacobian(cc: CompiledCase, v: np.ndarray, ibus: np.ndarray) -> np.ndarray:
    """Power-flow Jacobian at voltages ``v`` with bus currents ``ibus = Ybus v``.

    Elementwise form of MATPOWER's ``dSbus_dV``: with
    ``A[i, k] = V[i] conj(Y[i, k] Vn[k])`` and ``Vn = V / |V|``,
    ``dS/dVm = A + diag(conj(I) Vn)`` and
    ``dS/dVa = j (diag(V conj(I)) - A diag(|V|))``.
    """
    n = len(v)
    vm = np.abs(v)
    a = v[:, None] * np.conj(cc.ybus * (v / vm))
    stack = np.empty((n, 2 * n), dtype=complex)
    np.multiply(a, -1j * vm, out=stack[:, :n])
    stack[:, n:] = a
    flat = stack.reshape(-1)
    i_conj = np.conj(ibus)
    flat[cc.diag_va] += 1j * v * i_conj
    flat[cc.diag_vm] += i_conj * (v / vm)
    return stack.view(float).reshape(-1).take(cc.jac_index)


def _branch_flows(cc: CompiledCase, v: np.ndarray) -> np.ndarray:
    """Sending-end active power of every branch."""
    vf = v[cc.br_from]
    i_from = cc.br_series * (vf - v[cc.br_to]) + cc.br_shunt * vf
    return (vf * np.conj(i_from)).real


# ---------------------------------------------------------------------------
# quadratic dispatch (active-set QP)


def dc_opf(case: NetworkCase, loads: np.ndarray) -> DispatchSolution:
    """Minimum-cost dispatch under balance, generator, and PTDF flow limits.

    The compiled case remembers recently verified active sets; each is tried
    with one KKT solve and accepted only under the strict test of
    ``_verified_kkt``. Otherwise the primal active-set iteration runs on the
    equality-reduced KKT system (exact for convex quadratic costs, constraint
    ties broken by lowest index). Its final set, when it passes the same
    test, is solved and remembered. A set that passes is the unique strictly
    complementary optimal set, so the result does not depend on which sets
    were remembered. Raises Infeasible when the limits cannot be met.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.shape != (case.n_bus,):
        raise ValueError(f"loads must have shape ({case.n_bus},)")
    if case.n_gen == 0:
        raise Infeasible("case has no generators")

    cc = compile_case(case)
    qp = cc.qp
    p_min, p_max = qp.p_min, qp.p_max
    total = float(loads.sum())

    if total > p_max.sum() + 1e-12:
        raise Infeasible(f"total load {total:.6f} pu exceeds total capacity {p_max.sum():.6f} pu",
                         violated=("capacity",))
    if total < p_min.sum() - 1e-12:
        raise Infeasible(f"total load {total:.6f} pu below total minimum output {p_min.sum():.6f} pu",
                         violated=("minimum_output",))

    h = qp.h(loads)
    p_opt, rounds = _warm_dispatch(cc, total, h), 0
    if p_opt is None:
        x, working, rounds = _active_set_qp(qp, h, _feasible_start(qp, total, h))
        active = qp.active_set(working)
        p_opt = _verified_kkt(qp, active, total, h)
        if p_opt is None:
            p_opt = x   # degenerate optimum: keep the iteration's point
        else:
            cc.warm_sets = (active, *(a for a in cc.warm_sets
                                      if a.rows != active.rows))[:_WARM_SETS]

    cost = float(np.sum(qp.cost_a * p_opt ** 2 + qp.cost_b * p_opt) + qp.cost_c)
    binding = tuple(qp.names[i] for i in np.flatnonzero(qp.G @ p_opt - h >= -_ACTIVE_TOL))
    return DispatchSolution(p_gen=p_opt, cost=cost, binding=binding, rounds=rounds)


def _warm_dispatch(cc: CompiledCase, total: float, h: np.ndarray):
    """The solution on the first remembered set that passes the strict test,
    which moves to the front; None when none does."""
    warm = cc.warm_sets
    for k, active in enumerate(warm):
        p = _verified_kkt(cc.qp, active, total, h)
        if p is not None:
            if k:
                cc.warm_sets = (active, *warm[:k], *warm[k + 1:])
            return p
    return None


def _verified_kkt(qp: _DispatchQP, active: _ActiveSet, total: float, h: np.ndarray):
    """Minimizer with the rows of ``active`` held at equality, or None unless
    it is the strictly complementary optimum: primal feasible, every
    multiplier of those rows above ``_MULT_TOL``, every other row's slack
    above ``_ACTIVE_TOL``, and stationarity to ``_KKT_TOL``. A singular KKT
    matrix fails."""
    ng = len(qp.p_min)
    rhs = np.concatenate([-qp.cost_b, [total], h[active.index]])
    *_, sol, info = dgesv(active.kkt, rhs)
    if info > 0:
        return None
    p = sol[:ng]
    slack = h - qp.G @ p
    mults = sol[ng + 1:]
    if (slack.min() >= -_ACTIVE_TOL
            and mults.min(initial=np.inf) > _MULT_TOL
            and slack[active.outside].min(initial=np.inf) > _ACTIVE_TOL
            and np.abs(active.kkt[:ng] @ sol - rhs[:ng]).max() <= _KKT_TOL):
        return p
    return None


def _feasible_start(qp: _DispatchQP, total: float, h: np.ndarray) -> np.ndarray:
    p_min, p_max, G = qp.p_min, qp.p_max, qp.G
    span = p_max - p_min
    frac = (total - p_min.sum()) / span.sum() if span.sum() > 0 else 0.0
    p0 = p_min + np.clip(frac, 0.0, 1.0) * span
    if np.all(G @ p0 - h <= _ACTIVE_TOL):
        return p0

    # proportional fill violates a flow limit: phase-1 LP for a feasible point
    ng = len(p_min)
    n_rows = G.shape[0] - 2 * ng
    g_flow = G[2 * ng:]
    h_flow = h[2 * ng:]
    c = np.concatenate([np.zeros(ng), np.ones(n_rows)])
    a_ub = np.hstack([g_flow, -np.eye(n_rows)])
    a_eq = np.concatenate([np.ones(ng), np.zeros(n_rows)])[None, :]
    bounds = [(lo, hi) for lo, hi in zip(p_min, p_max)] + [(0, None)] * n_rows
    res = linprog(c, A_ub=a_ub, b_ub=h_flow, A_eq=a_eq, b_eq=[total],
                  bounds=bounds, method="highs")
    if res.status != 0 or res.fun > 1e-8:
        bad = ()
        if res.status == 0:
            bad = tuple(qp.names[2 * ng + i] for i in np.flatnonzero(res.x[ng:] > 1e-8))
        raise Infeasible("flow limits cannot be met together with balance and generator limits",
                         violated=bad)
    p0 = res.x[:ng]
    # repair the LP's balance rounding so the equality holds to machine precision
    resid = total - p0.sum()
    free = (p0 > p_min + 1e-7) & (p0 < p_max - 1e-7)
    if not np.any(free):
        free = np.ones(ng, dtype=bool)
    p0[free] += resid / free.sum()
    return p0


def _active_set_qp(qp: _DispatchQP, h: np.ndarray, x: np.ndarray):
    """Primal active-set for the dispatch QP from the feasible point ``x``;
    handles semidefinite H (linear costs).

    Returns the solution, the final working set (sorted row indices) and the
    number of rounds taken.
    """
    H, g, G, a_eq = qp.H, qp.cost_b, qp.G, np.ones((1, len(qp.cost_b)))
    working = [int(i) for i in np.flatnonzero(G @ x - h >= -_ACTIVE_TOL)]
    max_rounds = 100 + 20 * len(h)

    for rounds in range(1, max_rounds + 1):
        C = np.vstack([a_eq, G[working]]) if working else a_eq
        grad = H @ x + g
        d, unbounded = _eqp_direction(H, grad, C)

        if np.linalg.norm(d) <= _STEP_TOL:
            mults, *_ = np.linalg.lstsq(C.T, -grad, rcond=None)
            lam = mults[1:]
            if lam.size == 0 or lam.min() >= -_MULT_TOL:
                return x, working, rounds
            # ties resolved toward the lowest constraint index
            worst = lam.min()
            candidates = [k for k, v in enumerate(lam) if v <= worst + 1e-12]
            drop_pos = min(candidates, key=lambda k: working[k])
            working.pop(drop_pos)
            continue

        slack = h - G @ x
        step_len = np.inf if unbounded else 1.0
        blocker = -1
        g_dot_d = G @ d
        for i in range(len(h)):
            if i in working or g_dot_d[i] <= 1e-12:
                continue
            alpha_i = slack[i] / g_dot_d[i]
            if alpha_i < step_len - 1e-12:
                step_len = max(alpha_i, 0.0)
                blocker = i
        if not np.isfinite(step_len):
            raise Infeasible("dispatch objective unbounded over the feasible set")
        x = x + step_len * d
        if blocker >= 0 and (unbounded or step_len < 1.0 - 1e-12):
            working.append(blocker)
            working.sort()

    raise DispatchStalled(f"active-set iteration did not terminate in {max_rounds} rounds")


def _eqp_direction(H, grad, C):
    """Minimizing direction of the equality-constrained subproblem.

    Returns (direction, unbounded). ``unbounded`` marks a ray along which the
    reduced objective decreases linearly (degenerate/linear cost case); the
    caller must run it into a blocking constraint.
    """
    u, s, vt = np.linalg.svd(C)
    rank = int(np.sum(s > 1e-11 * max(1.0, s[0] if s.size else 1.0)))
    Z = vt[rank:].T
    if Z.shape[1] == 0:
        return np.zeros(len(grad)), False
    Hz = Z.T @ H @ Z
    gz = Z.T @ grad
    w, V = np.linalg.eigh(Hz)
    scale = max(1.0, float(w[-1])) if w.size else 1.0
    null = w <= 1e-12 * scale
    proj = V.T @ gz
    if np.any(null & (np.abs(proj) > 1e-11)):
        k = int(np.argmax(np.abs(proj) * null))
        ray = -np.sign(proj[k]) * (Z @ V[:, k])
        return ray, True
    pos = ~null
    dz = -(V[:, pos] @ (proj[pos] / w[pos]))
    return Z @ dz, False


# ---------------------------------------------------------------------------
# composed oracle


def bus_loads(case: NetworkCase, samples: np.ndarray):
    """Effective per-bus loads (P, Q per-unit), one row per source realization.

    ``samples`` is an (n, n_sources) matrix; the result is two (n, n_bus)
    arrays. Gaussian-load samples replace the bus load (Q follows from the
    constant power factor); wind and PV samples inject against the local load.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != case.n_sources:
        raise ValueError(f"samples must have shape (n, {case.n_sources}), got {samples.shape}")
    n = samples.shape[0]
    cc = compile_case(case)
    p_load = np.tile(cc.p_load, (n, 1))
    q_load = np.tile(cc.q_load, (n, 1))
    for k, (bus, q_per_p) in enumerate(cc.source_rules):
        if q_per_p is None:
            p_load[:, bus] -= samples[:, k]
        else:
            p_load[:, bus] = samples[:, k]
            q_load[:, bus] = samples[:, k] * q_per_p
    return p_load, q_load


def oracle_opf(case: NetworkCase, sample: np.ndarray) -> OpfSolution:
    """Reference OPF solution for one realized operating condition.

    Dispatch by dc_opf, then an AC power flow with the dispatched outputs at
    PV buses and the slack absorbing losses. Cost is recomputed from the
    final outputs, slack included.
    """
    p_rows, q_rows = bus_loads(case, np.asarray(sample, dtype=float)[None])
    p_load, q_load = p_rows[0], q_rows[0]
    dispatch = dc_opf(case, p_load)

    cc = compile_case(case)
    slack_gens = cc.slack_gens
    if not len(slack_gens):
        raise Infeasible("no generator at the slack bus to absorb losses")

    p_inj = cc.inj_map @ dispatch.p_gen - p_load
    flow = ac_power_flow(case, p_inj, -q_load)

    p_gen = dispatch.p_gen.copy()
    delta = flow.p_slack + p_load[cc.slack] - p_gen[slack_gens].sum()
    p_gen[slack_gens] += delta / len(slack_gens)

    qp = cc.qp
    cost = float(np.sum(qp.cost_a * p_gen * p_gen + qp.cost_b * p_gen) + qp.cost_c)
    return OpfSolution(cost=cost, v_mag=flow.v_mag, p_gen=p_gen, p_branch=flow.p_branch,
                       dispatch_rounds=dispatch.rounds, newton_iterations=flow.iterations)
