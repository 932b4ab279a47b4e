"""Ground-truth OPF oracle.

The oracle combines a quadratic-cost active dispatch under a linear (PTDF)
network model with a full Newton-Raphson AC power flow that supplies the
nonlinear voltages, branch flows, and losses. The slack generator absorbs the
losses the linear dispatch cannot see, and the operating cost is recomputed
from the final generator outputs.

All quantities per-unit. Slack and PV buses regulate 1.0 pu voltage.

Per-case constants (the Ybus pattern, PTDF, constraint rows) live in a
``CompiledCase`` that ``compile_case`` builds once per case object.

The dispatch QP has one linear-algebra kernel, the KKT system of the rows
held at equality (``_DispatchQP.active_set``): it verifies remembered sets on
whole blocks and gives every round of the active-set iteration and its phase 1.

The oracle works on blocks of sample rows (``oracle_block``): the loads of
the block are mapped once, each remembered dispatch active set is tried on
every unsolved row at once, Newton runs on stacked Jacobians with each row
frozen as soon as it converges or fails, and the slack correction and cost
apply to the whole block. Every row starts flat (``vm = 1``, ``va = 0``):
the compiled case holds that start's bus state, mismatch and Jacobian
inverse, so iteration 0 is one ``dot_rows`` step, and no Jacobian is built
or solved before iteration 1. Newton works on Ybus's sparsity pattern, as
MATPOWER's ``newtonpf`` does: bus currents sum gathered neighbours, and
``dSbus_dV`` is evaluated at the nonzeros only. ``oracle_opf``, ``dc_opf``
and ``ac_power_flow`` are one-row calls of the same kernels. A row's bits
never depend on the rows that share its block, which the kernels keep by
three rules:

- No BLAS product touches row data. NumPy sends a product to another BLAS
  routine for another row count (gemv for one row, gemm for several), and
  the routines round differently. Row products are elementwise products
  summed along an axis of a fixed length (``dot_rows``, the bus currents).
- Newton, the Jacobian and the branch flows use real arithmetic: ``e + jf``
  for the voltages, ``G + jB`` for Ybus. NumPy does a complex product of
  temporaries of 256 KiB or more in place with its operands swapped (its
  temporary elision), and its FMA complex loop then rounds differently, so
  a complex product's bits depend on the size of the block. Real ``+ - * /``
  are correctly rounded in every loop.
- Linear systems go to ``np.linalg.solve`` over the stack, which calls
  LAPACK ``gesv`` once per row. A stack holding a singular matrix is solved
  again row by row, so that a singular row fails alone. The flat start's
  step is the compiled inverse applied by ``dot_rows``.

Row temporaries are bounded: Newton runs over sub-blocks of
``_rows_within(n_bus ** 2)`` rows, and ``dot_rows`` slices its rows the same way.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

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
# verified active sets a compiled case remembers, most used first
_WARM_SETS = 8
# size of one (rows, ...) float64 temporary of the row kernels
_BLOCK_BYTES = 100 * 1024


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


@dataclass(frozen=True)
class DispatchBlock:
    """Dispatch of a block of load rows.

    ``p_gen`` (NaN on failed rows), ``cost`` and ``rounds`` (active-set
    rounds; 0 where a remembered set solved the row) hold one entry per row;
    ``errors`` maps each failed row to its exception, in row order.
    """

    p_gen: np.ndarray
    cost: np.ndarray
    rounds: np.ndarray
    errors: dict


@dataclass(frozen=True)
class OracleBlock:
    """Oracle solves of a block of sample rows.

    ``values`` holds the solution vectors, indexed by ``solution_layout``, of
    the rows in the mask ``solved``, in row order. ``rounds`` and
    ``iterations`` hold every row's active-set rounds (0 where a remembered
    set solved its dispatch) and Newton iterations. ``errors`` maps each
    failed row to its exception, in row order; ``newton_blocks`` counts the
    Newton sub-blocks run. ``dispatch_s`` and ``newton_s`` are wall-clock times.
    """

    solved: np.ndarray
    values: np.ndarray
    rounds: np.ndarray
    iterations: np.ndarray
    errors: dict
    newton_blocks: int
    dispatch_s: float
    newton_s: float


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
# row products


def _rows_within(width: int) -> int:
    """Rows whose float64 temporary of ``width`` values per row stays
    within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * max(width, 1)))


def dot_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows @ matrix.T`` without BLAS: elementwise products summed along
    the contiguous last axis, so each output row depends on its own input
    row only. Slices of ``rows`` keep the product temporary within
    ``_BLOCK_BYTES``."""
    out = np.empty((len(rows), matrix.shape[0]))
    step = _rows_within(matrix.size)
    for start in range(0, len(rows), step):
        np.add.reduce(rows[start:start + step, None, :] * matrix, axis=-1,
                      out=out[start:start + step])
    return out


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
    balance: np.ndarray   # the balance row: 1 per generator, 0 per elastic slack
    names: tuple

    def h(self, loads: np.ndarray) -> np.ndarray:
        """``h`` of each row of the (rows, n_bus) ``loads``."""
        base_flow = -dot_rows(self.ptdf, loads)
        bounds = np.concatenate([-self.p_min, self.p_max])
        return np.concatenate([np.broadcast_to(bounds, (len(loads), len(bounds))),
                               self.limits - base_flow, self.limits + base_flow], axis=1)

    def active_set(self, working) -> "_ActiveSet":
        """Rows ``working`` of G held at equality, with their KKT matrix
        ``[[H, C^T], [C, 0]]`` where ``C`` is the balance row over those rows."""
        rows = np.array(working, dtype=int)
        C = np.vstack([self.balance, self.G[rows]])
        k = C.shape[0]
        outside = np.ones(self.G.shape[0], dtype=bool)
        outside[rows] = False
        return _ActiveSet(rows=tuple(working), index=rows, outside=outside,
                          kkt=np.block([[self.H, C.T], [C, np.zeros((k, k))]]))

    def cost(self, p_gen: np.ndarray) -> np.ndarray:
        """Operating cost of each row of the (rows, n_gen) ``p_gen``."""
        return (self.cost_a * p_gen * p_gen + self.cost_b * p_gen).sum(axis=1) + self.cost_c


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
                       H=np.diag(2.0 * cost_a), balance=np.ones(ng),
                       names=tuple(names))


def _elastic_qp(qp: _DispatchQP) -> _DispatchQP:
    """``qp`` in elastic form over ``(p, t)``, cost ``sum(t)``: a slack ``-t`` per branch on both
    its flow rows, then the rows ``-t <= 0`` (``h`` gains zeros); other fields stay ``qp``'s."""
    ng, nl = len(qp.p_min), len(qp.limits)
    eye, n = np.eye(nl), ng + nl
    return replace(qp, cost_a=np.zeros(n), cost_b=np.repeat([0.0, 1.0], [ng, nl]), cost_c=0.0,
                   G=np.block([[qp.G, np.vstack([np.zeros((2 * ng, nl)), -eye, -eye])],
                               [np.zeros((nl, ng)), -eye]]),
                   H=np.zeros((n, n)), balance=np.repeat([1.0, 0.0], [ng, nl]))


@dataclass(eq=False)
class CompiledCase:
    """Per-case constants of the oracle, plus the dispatch warm-start sets.

    Everything but ``warm_sets`` is fixed at compile time. ``warm_sets`` is
    a most-used-first tuple of the dispatch QP's active sets that passed the
    strict KKT test. Reassigning the tuple is atomic, so threads sharing a
    case at worst lose an entry; results never depend on the tuple.
    """

    slack: int
    pq: np.ndarray
    pvpq: np.ndarray
    nbr: np.ndarray         # (1 + max degree, n_bus) Ybus neighbours of each bus, itself first
    nbr_g: np.ndarray       # G and B at those entries (Ybus = G + jB), 0 on the pads
    nbr_b: np.ndarray
    nz_row: np.ndarray      # the Ybus nonzeros (i, k), the diagonal first in bus order,
    nz_col: np.ndarray      # and their G and B
    nz_g: np.ndarray
    nz_b: np.ndarray
    jac_src: np.ndarray     # flat index in _jacobians' (4, nonzeros) parts of each Jacobian
    jac_dst: np.ndarray     # entry, and its flat index in the (m, m) Jacobian
    br_from: np.ndarray
    br_to: np.ndarray
    br_g: np.ndarray        # series admittance per branch, g + j b
    br_b: np.ndarray
    br_shunt: np.ndarray    # half line charging per branch, b_sh / 2
    qp: _DispatchQP
    elastic: _DispatchQP    # _elastic_qp(qp)
    slack_gens: np.ndarray  # generators at the slack bus
    inj_map: np.ndarray     # gen_map with the slack generators' columns zeroed
    p_load: np.ndarray      # per-bus loads before the sources act
    q_load: np.ndarray
    source_rules: tuple     # per source: (bus, Q/P = tan(acos(power factor)) of a
                            # Gaussian load, or None for an injecting source)
    # the flat start (vm = 1, va = 0), the same for every row; _compile sets them
    flat_bus: _BusState = None        # its bus state, one row
    flat_mismatch: np.ndarray = None  # its mismatch before the targets are subtracted
    flat_inverse: np.ndarray = None   # its Jacobian's inverse; None where singular
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
    bus = np.arange(n)
    ybus = build_ybus(case)
    # the nonzero list, diagonal first; neighbour lists: slot 0 the bus, pads weight 0
    off = (ybus != 0) & ~np.eye(n, dtype=bool)
    row, col = np.nonzero(off)
    nz_row, nz_col = np.concatenate([bus, row]), np.concatenate([bus, col])
    slot = np.concatenate([np.zeros(n, dtype=int), np.cumsum(off, axis=1)[row, col]])
    nbr = np.repeat(bus[None, :], 1 + slot.max(), axis=0)
    nbr[slot, nz_row] = nz_col
    nbr_y = np.where(np.arange(len(nbr))[:, None] <= off.sum(axis=1), ybus[bus, nbr], 0.0)
    # J = [[Re dS/dVa, Re dS/dVm], [Im dS/dVa, Im dS/dVm]] over (pvpq | pq) rows and columns:
    # part k of _jacobians puts nonzero (i, j) at row pos[k // 2, i], column pos[k % 2, j]
    m = len(pvpq) + len(pq)
    pos = np.full((2, n), -1)
    pos[0, pvpq], pos[1, pq] = np.arange(len(pvpq)), np.arange(len(pvpq), m)
    jac_row, jac_col = pos[[0, 0, 1, 1]][:, nz_row], pos[[0, 1, 0, 1]][:, nz_col]
    placed = (jac_row >= 0) & (jac_col >= 0)

    slack = case.slack_index
    gen_bus = np.array([g.bus for g in case.generators], dtype=int)
    slack_gens = np.flatnonzero(gen_bus == slack)
    qp = _dispatch_qp(case)
    inj_map = qp.gen_map.copy()
    inj_map[:, slack_gens] = 0.0
    series = np.array([1.0 / complex(br.r, br.x) for br in case.branches], dtype=complex)
    cc = CompiledCase(
        slack=slack, pq=pq, pvpq=pvpq, nbr=nbr, nbr_g=nbr_y.real.copy(),
        nbr_b=nbr_y.imag.copy(), nz_row=nz_row, nz_col=nz_col, nz_g=ybus.real[nz_row, nz_col],
        nz_b=ybus.imag[nz_row, nz_col], jac_src=np.flatnonzero(placed),
        jac_dst=(jac_row * m + jac_col)[placed],
        br_from=np.array([br.from_bus for br in case.branches], dtype=int),
        br_to=np.array([br.to_bus for br in case.branches], dtype=int),
        br_g=series.real.copy(), br_b=series.imag.copy(),
        br_shunt=np.array([0.5 * br.b_sh for br in case.branches]),
        qp=qp, elastic=_elastic_qp(qp), slack_gens=slack_gens, inj_map=inj_map,
        p_load=case.p_load_vector(), q_load=case.q_load_vector(),
        source_rules=tuple(
            (src.bus, math.tan(math.acos(src.params["power_factor"]))
             if src.kind == SRC_GAUSSIAN_LOAD else None)
            for src in case.sources))
    vm = np.ones((1, n))
    cc.flat_bus = _bus_state(cc, vm, np.zeros((1, n)))
    cc.flat_mismatch = _mismatch(cc, cc.flat_bus)[0]
    try:
        cc.flat_inverse = np.linalg.inv(_jacobians(cc, vm, cc.flat_bus)[0])
    except np.linalg.LinAlgError:
        pass   # every row fails at iteration 0
    return cc


# ---------------------------------------------------------------------------
# Newton-Raphson AC power flow


def ac_power_flow(case: NetworkCase, p_inj: np.ndarray, q_inj: np.ndarray,
                  tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER) -> PowerFlowSolution:
    """Full Newton on the polar mismatch equations, flat start.

    ``p_inj``/``q_inj`` are net per-bus injections (generation minus load).
    The P entry at the slack bus and Q entries at slack/PV buses are ignored;
    those quantities are outputs of the solve. ``tol`` must be a positive
    finite number and ``max_iter`` an integer of at least 0.

    The flat start's step comes from the Jacobian inverse compiled with the
    case (``CompiledCase.flat_inverse``); where that Jacobian is singular,
    the solve fails at iteration 0 unless the flat start already meets ``tol``.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer of at least 0, got {max_iter!r}")
    n = case.n_bus
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    if p_inj.shape != (n,) or q_inj.shape != (n,):
        raise ValueError(f"injection vectors must have shape ({n},)")
    flows = _power_flow_rows(compile_case(case), p_inj[None], q_inj[None], tol, max_iter)
    if flows.errors:
        raise flows.errors[0]
    return PowerFlowSolution(v_mag=flows.v_mag[0], v_ang=flows.v_ang[0],
                             p_branch=flows.p_branch[0], p_slack=float(flows.p_slack[0]),
                             iterations=int(flows.iterations[0]),
                             max_mismatch=float(flows.max_mismatch[0]))


class _Flows(NamedTuple):
    """Power flows of a block of injection rows; NaN on failed rows."""

    v_mag: np.ndarray
    v_ang: np.ndarray
    p_branch: np.ndarray
    p_slack: np.ndarray
    iterations: np.ndarray
    max_mismatch: np.ndarray
    errors: dict            # failed row -> NonConvergence or SingularJacobian, in row order
    blocks: int             # Newton sub-blocks run


def _power_flow_rows(cc: CompiledCase, p_inj: np.ndarray, q_inj: np.ndarray,
                     tol: float, max_iter: int) -> _Flows:
    """Newton on every row of the (rows, n_bus) injections, in sub-blocks of
    ``_rows_within(n_bus ** 2)`` rows."""
    rows, n = p_inj.shape
    spec = np.concatenate([p_inj[:, cc.pvpq], q_inj[:, cc.pq]], axis=1)
    step = _rows_within(n * n)
    flows = _Flows(v_mag=np.full((rows, n), np.nan), v_ang=np.full((rows, n), np.nan),
                   p_branch=np.full((rows, len(cc.br_from)), np.nan),
                   p_slack=np.full(rows, np.nan), iterations=np.zeros(rows, dtype=int),
                   max_mismatch=np.full(rows, np.nan), errors={}, blocks=-(-rows // step))
    for start in range(0, rows, step):
        _newton(cc, spec, np.arange(start, min(start + step, rows)), tol, max_iter, flows)
    return flows._replace(errors=dict(sorted(flows.errors.items())))


def _newton(cc: CompiledCase, spec: np.ndarray, live: np.ndarray, tol: float,
            max_iter: int, flows: _Flows) -> None:
    """Newton from a flat start on the rows ``live`` of the mismatch targets
    ``spec``, written into ``flows``. A row is frozen as soon as it converges
    or fails. Iteration 0 runs on the compiled flat-start constants."""
    n = flows.v_mag.shape[1]
    n_angles = len(cc.pvpq)
    spec = spec[live]
    vm = np.ones((len(live), n))
    va = np.zeros((len(live), n))
    for iterations in range(max_iter + 1):
        if iterations:
            bus = _bus_state(cc, vm, va)
            mismatch = _mismatch(cc, bus) - spec
        else:   # the flat start's constants
            bus = _BusState(*(np.broadcast_to(a, vm.shape) for a in cc.flat_bus))
            mismatch = cc.flat_mismatch - spec
        max_mis = np.abs(mismatch).max(axis=1, initial=0.0)
        done = max_mis <= tol
        stop = done | (iterations == max_iter) | ~np.isfinite(max_mis)
        if stop.any():
            rows = live[done]
            flows.v_mag[rows] = vm[done]
            flows.v_ang[rows] = va[done]
            flows.p_branch[rows] = _branch_flows(cc, bus.e[done], bus.f[done])
            flows.p_slack[rows] = bus.p[done, cc.slack]
            flows.iterations[rows] = iterations
            flows.max_mismatch[rows] = max_mis[done]
            for k in np.flatnonzero(stop & ~done):
                flows.errors[int(live[k])] = NonConvergence(iterations, float(max_mis[k]))
            if stop.all():
                return
            live, vm, va, spec, mismatch = (a[~stop] for a in (live, vm, va, spec, mismatch))
            bus = _BusState(*(a[~stop] for a in bus))

        if iterations:
            dx = _solve_rows(_jacobians(cc, vm, bus), -mismatch)
        elif cc.flat_inverse is None:
            dx = np.full_like(mismatch, np.nan)
        else:
            dx = dot_rows(cc.flat_inverse, -mismatch)
        if not np.isfinite(dx).all():
            bad = ~np.isfinite(dx).all(axis=1)
            for k in np.flatnonzero(bad):
                flows.errors[int(live[k])] = SingularJacobian(
                    f"Jacobian is singular or gave a non-finite step at iteration {iterations}")
            if bad.all():
                return
            live, vm, va, spec, dx = (a[~bad] for a in (live, vm, va, spec, dx))

        va[:, cc.pvpq] += dx[:, :n_angles]
        vm[:, cc.pq] += dx[:, n_angles:]


class _BusState(NamedTuple):
    """Bus quantities at voltages ``vm`` at angles ``va``, in real form."""

    c: np.ndarray      # cos va
    s: np.ndarray      # sin va
    e: np.ndarray      # V = e + j f
    f: np.ndarray
    i_re: np.ndarray   # I = Ybus V = i_re + j i_im
    i_im: np.ndarray
    p: np.ndarray      # S = V conj(I) = p + j q
    q: np.ndarray


def _bus_state(cc: CompiledCase, vm: np.ndarray, va: np.ndarray) -> _BusState:
    rot = np.exp(1j * va)   # cos and sin of each angle in one call
    c, s = rot.real, rot.imag
    e, f = vm * c, vm * s
    e_nbr, f_nbr = e.take(cc.nbr, axis=1), f.take(cc.nbr, axis=1)
    i_re = (cc.nbr_g * e_nbr - cc.nbr_b * f_nbr).sum(axis=1)
    i_im = (cc.nbr_g * f_nbr + cc.nbr_b * e_nbr).sum(axis=1)
    return _BusState(c, s, e, f, i_re, i_im, e * i_re + f * i_im, f * i_re - e * i_im)


def _mismatch(cc: CompiledCase, bus: _BusState) -> np.ndarray:
    """The P rows at PV and PQ buses and the Q rows at PQ buses, before the
    targets are subtracted."""
    return np.concatenate([bus.p[:, cc.pvpq], bus.q[:, cc.pq]], axis=1)


def _jacobians(cc: CompiledCase, vm: np.ndarray, bus: _BusState) -> np.ndarray:
    """Power-flow Jacobians, one (m, m) matrix per row of ``vm``.

    MATPOWER's ``dSbus_dV`` at Ybus's nonzeros, scattered into zeros: with
    ``A[i, k] = V[i] conj(Y[i, k] Vn[k])`` and ``Vn = V / |V|``,
    ``dS/dVm = A + diag(conj(I) Vn)`` and ``dS/dVa = j (diag(V conj(I)) -
    A diag(|V|))``, each split into real and imaginary parts with
    ``V = e + jf``, ``Vn = c + js``, ``Y = G + jB``.
    """
    rows, n = vm.shape
    c, s = bus.c.take(cc.nz_col, axis=1), bus.s.take(cc.nz_col, axis=1)
    yv_re = cc.nz_g * c - cc.nz_b * s            # Y[i, k] Vn[k]
    yv_im = cc.nz_g * s + cc.nz_b * c
    e, f = bus.e.take(cc.nz_row, axis=1), bus.f.take(cc.nz_row, axis=1)
    a_re = e * yv_re + f * yv_im
    a_im = f * yv_re - e * yv_im
    vm_col = vm.take(cc.nz_col, axis=1)    # parts: Re dS/dVa, Re dS/dVm, Im dS/dVa, Im dS/dVm
    parts = np.stack([a_im * vm_col, a_re, a_re * -vm_col, a_im], axis=1)
    parts[:, 0, :n] -= bus.q                     # the first n nonzeros: the diagonal
    parts[:, 1, :n] += bus.i_re * bus.c + bus.i_im * bus.s
    parts[:, 2, :n] += bus.p
    parts[:, 3, :n] += bus.i_re * bus.s - bus.i_im * bus.c
    m = len(cc.pvpq) + len(cc.pq)
    jac = np.zeros((rows, m * m))
    jac[:, cc.jac_dst] = parts.reshape(rows, -1)[:, cc.jac_src]
    return jac.reshape(rows, m, m)


def _solve_rows(jac: np.ndarray, rhs: np.ndarray):
    """Solution of each row's system, one LAPACK gesv per row; NaN on the
    rows whose matrix is singular.

    A stack holding a singular matrix is solved again row by row, so that
    only the singular rows fail.
    """
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = np.full_like(rhs, np.nan)
    for k in range(len(rhs)):
        try:
            out[k] = np.linalg.solve(jac[k:k + 1], rhs[k:k + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            pass   # a singular row keeps its NaN
    return out


def _branch_flows(cc: CompiledCase, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sending-end active power of every branch, one row per voltage row."""
    e_from, f_from = e[:, cc.br_from], f[:, cc.br_from]
    de, df = e_from - e[:, cc.br_to], f_from - f[:, cc.br_to]
    i_re = cc.br_g * de - cc.br_b * df - cc.br_shunt * f_from
    i_im = cc.br_g * df + cc.br_b * de + cc.br_shunt * e_from
    return e_from * i_re + f_from * i_im


# ---------------------------------------------------------------------------
# quadratic dispatch (active-set QP)


def dc_opf(case: NetworkCase, loads: np.ndarray) -> DispatchSolution:
    """Minimum-cost dispatch under balance, generator, and PTDF flow limits.

    A one-row ``dispatch_block``. Raises Infeasible when the limits cannot
    be met.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.shape != (case.n_bus,):
        raise ValueError(f"loads must have shape ({case.n_bus},)")
    block = dispatch_block(case, loads[None])
    if block.errors:
        raise block.errors[0]
    qp = compile_case(case).qp
    slack = qp.h(loads[None]) - dot_rows(qp.G, block.p_gen)
    binding = tuple(qp.names[i] for i in np.flatnonzero(slack[0] <= _ACTIVE_TOL))
    return DispatchSolution(p_gen=block.p_gen[0], cost=float(block.cost[0]), binding=binding,
                            rounds=int(block.rounds[0]))


def dispatch_block(case: NetworkCase, loads: np.ndarray) -> DispatchBlock:
    """Minimum-cost dispatch of each row of the (rows, n_bus) ``loads``.

    The compiled case remembers verified active sets. Each is tried on every
    unsolved row at once, with one KKT solve per row, and accepted for a row
    only under the strict test of ``_verified_rows``. The first row that no
    remembered set solves goes to the primal active-set iteration
    (``_cold_dispatch``: one KKT solve per round, a proximal round on flat
    directions, constraint ties broken by lowest index). Its final set, when
    it passes the same test for that row, is remembered and tried on the
    remaining rows; otherwise the row keeps the iteration's point (a
    degenerate optimum). A set that passes is the unique strictly
    complementary optimal set, so no row's result depends on which sets were
    remembered or on the other rows.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2 or loads.shape[1] != case.n_bus:
        raise ValueError(f"loads must have shape (n, {case.n_bus}), got {loads.shape}")
    cc = compile_case(case)
    qp = cc.qp
    rows, ng = len(loads), len(qp.p_min)
    p_gen = np.full((rows, ng), np.nan)
    rounds = np.zeros(rows, dtype=int)
    if ng == 0:
        return DispatchBlock(p_gen=p_gen, cost=np.full(rows, np.nan), rounds=rounds,
                             errors={r: Infeasible("case has no generators") for r in range(rows)})

    total = loads.sum(axis=1)
    capacity, minimum = qp.p_max.sum(), qp.p_min.sum()
    over = total > capacity + 1e-12
    under = ~over & (total < minimum - 1e-12)
    errors = {int(r): Infeasible(f"total load {total[r]:.6f} pu exceeds total capacity "
                                 f"{capacity:.6f} pu")
              for r in np.flatnonzero(over)}
    errors.update((int(r), Infeasible(f"total load {total[r]:.6f} pu below total minimum "
                                      f"output {minimum:.6f} pu"))
                  for r in np.flatnonzero(under))
    todo = np.flatnonzero(~(over | under))
    h = qp.h(loads)

    warm = cc.warm_sets
    used = []   # (rows solved, set) of every set tried on this block
    for active in warm:
        if not len(todo):
            break
        ok, p = _verified_rows(qp, active, total[todo], h[todo])
        p_gen[todo[ok]] = p[ok]
        todo = todo[~ok]
        used.append((int(ok.sum()), active))
    while len(todo):
        r, todo = todo[0], todo[1:]
        try:
            x, working, rounds[r] = _cold_dispatch(qp, cc.elastic, float(total[r]), h[r])
        except (Infeasible, DispatchStalled) as exc:
            errors[int(r)] = exc
            continue
        active = qp.active_set(working)
        ok, p = _verified_rows(qp, active, total[r:r + 1], h[r:r + 1])
        if not ok[0]:
            p_gen[r] = x   # degenerate optimum: keep the iteration's point
            continue
        p_gen[r] = p[0]
        ok, p = _verified_rows(qp, active, total[todo], h[todo])
        p_gen[todo[ok]] = p[ok]
        todo = todo[~ok]
        used.insert(0, (1 + int(ok.sum()), active))

    tried = {a.rows for _, a in used}
    ranked = [a for _, a in sorted(used, key=lambda t: -t[0])]
    cc.warm_sets = (*ranked, *(a for a in warm if a.rows not in tried))[:_WARM_SETS]
    return DispatchBlock(p_gen=p_gen, cost=qp.cost(p_gen), rounds=rounds,
                         errors=dict(sorted(errors.items())))


def _kkt_rhs(qp: _DispatchQP, active: _ActiveSet, total: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Right-hand sides ``[-cost_b, total, h[working]]`` of the KKT system of
    ``active``, one per entry of ``total`` and row of ``h``."""
    ng = len(qp.balance)
    rhs = np.empty((len(total), active.kkt.shape[0]))
    rhs[:, :ng] = -qp.cost_b
    rhs[:, ng] = total
    rhs[:, ng + 1:] = h[:, active.index]
    return rhs


def _verified_rows(qp: _DispatchQP, active: _ActiveSet, total: np.ndarray, h: np.ndarray):
    """Minimizers with the rows of ``active`` held at equality, one per entry
    of ``total`` and row of ``h``, and the mask of those that are the strictly
    complementary optimum: primal feasible, every multiplier of those rows
    above ``_MULT_TOL``, every other row's slack above ``_ACTIVE_TOL``, and
    stationarity to ``_KKT_TOL``. A singular KKT matrix fails every row."""
    ng = len(qp.p_min)
    rhs = _kkt_rhs(qp, active, total, h)
    try:
        sol = np.linalg.solve(active.kkt, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.zeros(len(total), dtype=bool), rhs[:, :ng]
    p = sol[:, :ng]
    slack = h - dot_rows(qp.G, p)
    ok = ((slack.min(axis=1) >= -_ACTIVE_TOL)
          & (sol[:, ng + 1:].min(axis=1, initial=np.inf) > _MULT_TOL)
          & (slack[:, active.outside].min(axis=1, initial=np.inf) > _ACTIVE_TOL)
          & (np.abs(dot_rows(active.kkt[:ng], sol) - rhs[:, :ng]).max(axis=1) <= _KKT_TOL))
    return ok, p


def _feasible_start(qp: _DispatchQP, elastic: _DispatchQP, total: float, h: np.ndarray):
    """A feasible dispatch: the proportional fill ``p0`` where it meets every flow limit,
    else phase 1, ``_primal_active_set`` on ``elastic`` from ``p0`` with each branch's
    violation at ``p0`` (0 where none) as its slack; ``sum(t) > 1e-8`` is Infeasible."""
    span = qp.p_max - qp.p_min
    frac = (total - qp.p_min.sum()) / span.sum() if span.sum() > 0 else 0.0
    p0 = qp.p_min + np.clip(frac, 0.0, 1.0) * span
    over = qp.G @ p0 - h
    if np.all(over <= _ACTIVE_TOL):
        return p0
    ng, nl = len(p0), len(qp.limits)
    t0 = np.maximum(over[2 * ng:].reshape(2, nl).max(axis=0), 0.0)
    x, _, _ = _primal_active_set(elastic, total, np.concatenate([h, np.zeros(nl)]),
                                 np.concatenate([p0, t0]))
    if x[ng:].sum() > 1e-8:
        raise Infeasible("flow limits cannot be met together with balance and generator limits")
    return x[:ng]


def _cold_dispatch(qp: _DispatchQP, elastic: _DispatchQP, total: float, h: np.ndarray):
    """A row no remembered set solves: ``_primal_active_set`` from ``_feasible_start``."""
    return _primal_active_set(qp, total, h, _feasible_start(qp, elastic, total, h))


def _primal_active_set(qp: _DispatchQP, total: float, h: np.ndarray, x: np.ndarray):
    """Primal active-set method from the feasible point ``x`` (Nocedal &
    Wright, *Numerical Optimization*, 2006, §16.5).

    Each round solves the working set's KKT system for the subproblem's
    minimizer and multipliers. The working set starts empty and gains only
    rows with ``G_i d > 0`` along a step ``d`` with ``C d = 0``, so its rows
    stay independent and the system is singular only where linear-cost
    variables leave a flat direction: where ``C`` over their columns has
    rank below their count, which is tested, since a solve of a singular
    system need not raise. Such a round adds ``|y - x|^2 / 2`` over those
    variables and takes an exact line search on the true cost.
    Either step stops at the first blocking row, which joins the working set.
    Returns the solution, the final working set (sorted) and the rounds.
    """
    G, ng = qp.G, len(x)
    flat = np.flatnonzero(qp.cost_a == 0)
    working = []
    max_rounds = 100 + 20 * len(h)

    for rounds in range(1, max_rounds + 1):
        active = qp.active_set(working)
        kkt, rhs = active.kkt, _kkt_rhs(qp, active, np.array([total]), h[None])[0]
        step = 1.0
        if np.linalg.matrix_rank(kkt[ng:, flat]) < len(flat):
            kkt = kkt.copy()
            kkt[flat, flat] += 1.0
            rhs[flat] += x[flat]
            step = None
        sol = np.linalg.solve(kkt, rhs)
        d = sol[:ng] - x

        if np.linalg.norm(d) <= _STEP_TOL:
            lam = sol[ng + 1:]
            if lam.size == 0 or lam.min() >= -_MULT_TOL:
                return x, working, rounds
            # ties resolved toward the lowest constraint index
            working.pop(int(np.flatnonzero(lam <= lam.min() + 1e-12)[0]))
            continue

        if step is None:   # exact line search on the true cost; infinite on a flat ray
            curvature = 2.0 * (qp.cost_a * d * d).sum()
            slope = (2.0 * qp.cost_a * x + qp.cost_b) @ d
            step = -slope / curvature if curvature > 0 else np.inf
        slack, g_d = h - G @ x, G @ d
        blocker = -1
        for i in np.flatnonzero(g_d > 1e-12):
            if i not in working and slack[i] / g_d[i] < step - 1e-12:
                step, blocker = max(slack[i] / g_d[i], 0.0), int(i)
        x = x + step * d
        if blocker >= 0:
            working = sorted([*working, blocker])

    raise DispatchStalled(f"active-set iteration did not terminate in {max_rounds} rounds")


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
    apply_sources(p_load, q_load, samples, cc.source_rules)
    return p_load, q_load


def apply_sources(p_load: np.ndarray, q_load: np.ndarray, samples: np.ndarray,
                  rules) -> None:
    """Apply each source's column of ``samples`` to the load columns of
    ``p_load`` and ``q_load``, in source order: a Gaussian load replaces the
    column's P and sets its Q by the power factor, wind and PV inject against
    it. ``rules`` are ``CompiledCase.source_rules`` with each bus replaced by
    its column, or by None where no column holds that bus."""
    for k, (col, q_per_p) in enumerate(rules):
        if col is None:
            continue
        if q_per_p is None:
            p_load[:, col] -= samples[:, k]
        else:
            p_load[:, col] = samples[:, k]
            q_load[:, col] = samples[:, k] * q_per_p


def oracle_opf(case: NetworkCase, sample: np.ndarray) -> OpfSolution:
    """Reference OPF solution for one realized operating condition: a
    one-row ``oracle_block``."""
    block = oracle_block(case, np.asarray(sample, dtype=float)[None])
    if block.errors:
        raise block.errors[0]
    layout = solution_layout(case)
    y = block.values[0]
    return OpfSolution(cost=float(y[0]), v_mag=y[layout["v_mag"]], p_gen=y[layout["p_gen"]],
                       p_branch=y[layout["p_branch"]], dispatch_rounds=int(block.rounds[0]),
                       newton_iterations=int(block.iterations[0]))


def oracle_block(case: NetworkCase, samples: np.ndarray) -> OracleBlock:
    """Reference OPF solutions of the (rows, n_sources) ``samples``.

    Dispatch by ``dispatch_block``, then an AC power flow with the
    dispatched outputs at PV buses and the slack absorbing losses. Cost is
    recomputed from the final outputs, slack included. A failed row fails
    alone, with the exception its one-row solve raises.
    """
    cc = compile_case(case)
    p_load, q_load = bus_loads(case, samples)
    rows = len(p_load)
    start = time.perf_counter()
    dispatch = dispatch_block(case, p_load)
    dispatch_s = time.perf_counter() - start
    errors = dict(dispatch.errors)
    dispatched = np.setdiff1d(np.arange(rows), list(errors))
    if not len(cc.slack_gens):
        errors.update((int(r), Infeasible("no generator at the slack bus to absorb losses"))
                      for r in dispatched)
        dispatched = dispatched[:0]

    p_gen = dispatch.p_gen[dispatched]
    p_inj = dot_rows(cc.inj_map, p_gen) - p_load[dispatched]
    start = time.perf_counter()
    flows = _power_flow_rows(cc, p_inj, -q_load[dispatched], NEWTON_TOL, NEWTON_MAX_ITER)
    newton_s = time.perf_counter() - start
    errors.update((int(dispatched[k]), exc) for k, exc in flows.errors.items())
    iterations = np.zeros(rows, dtype=int)
    iterations[dispatched] = flows.iterations

    delta = flows.p_slack + p_load[dispatched, cc.slack] - p_gen[:, cc.slack_gens].sum(axis=1)
    p_gen[:, cc.slack_gens] += (delta / len(cc.slack_gens))[:, None]
    values = np.concatenate([cc.qp.cost(p_gen)[:, None], flows.v_mag, p_gen, flows.p_branch],
                            axis=1)
    solved = np.ones(rows, dtype=bool)
    solved[list(errors)] = False
    return OracleBlock(solved=solved, values=values[solved[dispatched]], rounds=dispatch.rounds,
                       iterations=iterations, errors=dict(sorted(errors.items())),
                       newton_blocks=flows.blocks, dispatch_s=dispatch_s, newton_s=newton_s)
