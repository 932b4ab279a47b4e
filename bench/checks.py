"""Independent checks of popflow's outputs.

Nothing here imports popflow. Every check recomputes a result from the case
JSON, the documented file formats and generic numpy/scipy routines, and
returns a list of failure messages (empty means the output passed).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, stats

# stopping rule of `popf --converge` as the CLI help states it
CV_THRESHOLD = 0.05
CV_CAP = 50_000
ZERO_MEAN = 1e-12
SE_BAND = 4.5  # standard errors a sampled moment may sit from its analytic value


# ---------------------------------------------------------------------------
# files


class Case:
    """The parts of a case JSON document the checks need, in per-unit."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self.base = float(doc["system"]["base_mva"])
        self.buses = doc["buses"]
        self.branches = doc["branches"]
        self.gens = doc["generators"]
        self.sources = doc["sources"]
        self.nb = len(self.buses)
        self.slack = next(b["id"] for b in self.buses if b["kind"] == "slack")
        self.pq = [b["id"] for b in self.buses if b["kind"] == "pq"]
        self.p_load = np.array([b["p_load_mw"] for b in self.buses]) / self.base
        self.q_load = np.array([b["q_load_mvar"] for b in self.buses]) / self.base


def read_tsv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)


def file_digest(path) -> str:
    """sha256 of a file; report.json is hashed without its wall-clock timings."""
    path = Path(path)
    if path.name == "report.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("timings_seconds", None)
        data = json.dumps(doc, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def tree_digests(directory) -> dict:
    directory = Path(directory)
    return {str(p.relative_to(directory)): file_digest(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# source -> load mapping and network model


def bus_loads(case: Case, samples: np.ndarray):
    """Per-bus P and Q loads (pu) for each sample row.

    A Gaussian load replaces its bus's P load, with Q from its constant power
    factor; wind and PV output is subtracted from the bus's P load.
    """
    samples = np.atleast_2d(samples)
    p = np.tile(case.p_load, (samples.shape[0], 1))
    q = np.tile(case.q_load, (samples.shape[0], 1))
    for k, src in enumerate(case.sources):
        if src["kind"] == "gaussian_load":
            p[:, src["bus"]] = samples[:, k]
            q[:, src["bus"]] = samples[:, k] * math.tan(math.acos(src["power_factor"]))
        else:
            p[:, src["bus"]] -= samples[:, k]
    return p, q


def features(case: Case, samples: np.ndarray) -> np.ndarray:
    p, q = bus_loads(case, samples)
    return np.hstack([p[:, case.pq], q[:, case.pq]])


def ybus(case: Case) -> np.ndarray:
    y = np.zeros((case.nb, case.nb), dtype=complex)
    for br in case.branches:
        ys = 1.0 / complex(br["r"], br["x"])
        f, t = br["from_bus"], br["to_bus"]
        y[f, f] += ys + 0.5j * br["b_sh"]
        y[t, t] += ys + 0.5j * br["b_sh"]
        y[f, t] -= ys
        y[t, f] -= ys
    return y


def ptdf(case: Case) -> np.ndarray:
    inc = np.zeros((len(case.branches), case.nb))
    for i, br in enumerate(case.branches):
        inc[i, br["from_bus"]] = 1.0
        inc[i, br["to_bus"]] = -1.0
    bf = inc / np.array([br["x"] for br in case.branches])[:, None]
    keep = [i for i in range(case.nb) if i != case.slack]
    out = np.zeros((len(case.branches), case.nb))
    out[:, keep] = bf[:, keep] @ np.linalg.inv((inc.T @ bf)[np.ix_(keep, keep)])
    return out


def sending_flows(case: Case, v: np.ndarray) -> np.ndarray:
    out = []
    for br in case.branches:
        vf, vt = v[br["from_bus"]], v[br["to_bus"]]
        i_f = (vf - vt) / complex(br["r"], br["x"]) + 0.5j * br["b_sh"] * vf
        out.append((vf * np.conj(i_f)).real)
    return np.array(out)


# ---------------------------------------------------------------------------
# label: dataset checks


def _layout(case: Case):
    nb, ng = case.nb, len(case.gens)
    return slice(1, 1 + nb), slice(1 + nb, 1 + nb + ng), slice(1 + nb + ng, None)


def check_features(case: Case, x: np.ndarray, samples: np.ndarray) -> list:
    err = float(np.max(np.abs(features(case, samples) - x)))
    return [] if err <= 1e-12 else [f"X differs from the mapped samples by {err:.3g} pu"]


def check_cost(case: Case, y: np.ndarray) -> list:
    _, gen_sl, _ = _layout(case)
    p_mw = y[:, gen_sl] * case.base
    cost = sum(g["cost_a"] * p_mw[:, i] ** 2 + g["cost_b"] * p_mw[:, i] + g["cost_c"]
               for i, g in enumerate(case.gens))
    err = float(np.max(np.abs(cost - y[:, 0]) / np.abs(cost)))
    return [] if err <= 1e-10 else [f"cost differs from the MW cost curves by {err:.3g} (relative)"]


def check_power_flow(case: Case, y: np.ndarray, samples: np.ndarray, rows) -> list:
    """Re-solve the AC power flow of each row with scipy's root finder.

    Non-slack generators inject their dispatched output, slack and PV buses
    hold 1.0 pu, and the slack absorbs the rest.
    """
    v_sl, gen_sl, br_sl = _layout(case)
    yb = ybus(case)
    non_slack = [i for i in range(case.nb) if i != case.slack]
    n_ns, npq = len(non_slack), len(case.pq)
    slack_gen = [i for i, g in enumerate(case.gens) if g["bus"] == case.slack]
    out = []
    for r in rows:
        p_load, q_load = bus_loads(case, samples[r])
        p_inj, q_inj = -p_load[0], -q_load[0]
        for i, g in enumerate(case.gens):
            if g["bus"] != case.slack:
                p_inj[g["bus"]] += y[r, gen_sl][i]

        def voltages(z):
            va = np.zeros(case.nb)
            vm = np.ones(case.nb)
            va[non_slack] = z[:n_ns]
            vm[case.pq] = z[n_ns:]
            return vm * np.exp(1j * va)

        def mismatch(z):
            v = voltages(z)
            s = v * np.conj(yb @ v)
            return np.concatenate([s.real[non_slack] - p_inj[non_slack],
                                   s.imag[case.pq] - q_inj[case.pq]])

        sol = optimize.root(mismatch, np.concatenate([np.zeros(n_ns), np.ones(npq)]),
                            method="hybr", tol=1e-13)
        if not sol.success or np.max(np.abs(mismatch(sol.x))) > 1e-10:
            out.append(f"row {r}: independent power flow did not converge")
            continue
        v = voltages(sol.x)
        dv = float(np.max(np.abs(np.abs(v) - y[r, v_sl])))
        dp = float(np.max(np.abs(sending_flows(case, v) - y[r, br_sl])))
        p_slack = (v[case.slack] * np.conj(yb[case.slack] @ v)).real + p_load[0][case.slack]
        ds = abs(p_slack - float(np.sum(y[r, gen_sl][slack_gen])))
        if max(dv, dp, ds) > 1e-7:
            out.append(f"row {r}: v_mag off by {dv:.3g}, p_branch by {dp:.3g}, "
                       f"slack output by {ds:.3g} pu")
    return out


def check_dispatch(case: Case, y: np.ndarray, samples: np.ndarray, rows) -> list:
    """Re-solve the DC dispatch QP with SLSQP and compare non-slack outputs."""
    _, gen_sl, _ = _layout(case)
    ng = len(case.gens)
    a = np.array([g["cost_a"] for g in case.gens]) * case.base ** 2
    b = np.array([g["cost_b"] for g in case.gens]) * case.base
    lo = np.array([g["p_min_mw"] for g in case.gens]) / case.base
    hi = np.array([g["p_max_mw"] for g in case.gens]) / case.base
    limits = np.array([br["p_limit_mw"] for br in case.branches]) / case.base
    gen_map = np.zeros((case.nb, ng))
    for i, g in enumerate(case.gens):
        gen_map[g["bus"], i] = 1.0
    shift = ptdf(case)
    sens = shift @ gen_map
    free = [i for i, g in enumerate(case.gens) if g["bus"] != case.slack]
    out = []
    for r in rows:
        p_load = bus_loads(case, samples[r])[0][0]
        base_flow = shift @ p_load
        total = float(p_load.sum())
        cons = [
            {"type": "eq", "fun": lambda p: np.sum(p) - total, "jac": lambda p: np.ones(ng)},
            {"type": "ineq", "fun": lambda p: limits - (sens @ p - base_flow),
             "jac": lambda p: -sens},
            {"type": "ineq", "fun": lambda p: limits + (sens @ p - base_flow),
             "jac": lambda p: sens},
        ]
        start = lo + (total - lo.sum()) / (hi - lo).sum() * (hi - lo)
        scale = 1.0 / float(a @ start ** 2 + b @ start)
        res = optimize.minimize(lambda p: scale * float(a @ p ** 2 + b @ p), start,
                                jac=lambda p: scale * (2 * a * p + b),
                                bounds=list(zip(lo, hi)), constraints=cons,
                                method="SLSQP", options={"ftol": 1e-13, "maxiter": 500})
        if not res.success:
            out.append(f"row {r}: SLSQP failed: {res.message}")
            continue
        err = float(np.max(np.abs(res.x[free] - y[r, gen_sl][free])))
        if err > 1e-6:
            out.append(f"row {r}: non-slack p_gen off by {err:.3g} pu from the QP optimum")
    return out


def source_moments(src: dict, base: float):
    """Analytic mean and variance (pu) of one source's injection."""
    if src["kind"] == "gaussian_load":
        return src["mean_mw"] / base, (src["std_mw"] / base) ** 2
    rated = src["rated_mw"] / base
    if src["kind"] == "pv":
        al, be = src["alpha"], src["beta"]
        return (rated * al / (al + be),
                rated ** 2 * al * be / ((al + be) ** 2 * (al + be + 1)))
    weibull = stats.weibull_min(src["weibull_shape"], scale=src["weibull_scale"])
    v_in, v_r, v_out = src["cut_in"], src["rated_speed"], src["cut_out"]
    ramp = [integrate.quad(lambda v, k=k: (rated * (v / v_r) ** 3) ** k * weibull.pdf(v),
                           v_in, v_r, epsabs=1e-14)[0] for k in (1, 2)]
    p_flat = weibull.cdf(v_out) - weibull.cdf(v_r)
    mean = ramp[0] + rated * p_flat
    return mean, ramp[1] + rated ** 2 * p_flat - mean ** 2


def check_sampler(case: Case, samples: np.ndarray, group: str, rho: float) -> list:
    n = samples.shape[0]
    out = []
    for k, src in enumerate(case.sources):
        mean, var = source_moments(src, case.base)
        z = (samples[:, k].mean() - mean) / math.sqrt(var / n)
        if abs(z) > SE_BAND:
            out.append(f"source {k} ({src['kind']}): sample mean is {z:.2f} standard "
                       f"errors from the analytic {mean:.6g} pu")
    members = [k for k, s in enumerate(case.sources) if s.get("corr_group") == group]
    r = float(np.corrcoef(samples[:, members[0]], samples[:, members[1]])[0, 1])
    z = (r - rho) / ((1 - rho ** 2) / math.sqrt(n - 1))
    if abs(z) > SE_BAND:
        out.append(f"{group}: sample correlation {r:.4f} is {z:.2f} standard errors from {rho}")
    return out


# ---------------------------------------------------------------------------
# train


def check_history(path, epochs: int) -> list:
    hist = read_tsv(path)
    val0, val_end = hist[0, 2], hist[-1, 2]
    out = []
    if len(hist) != epochs:
        out.append(f"{len(hist)} fine-tuning epochs ran, the budget is {epochs}")
    if not (np.isfinite(val_end) and val_end < val0):
        out.append(f"final validation loss {val_end} is not finite and below epoch 0's {val0}")
    return out


# ---------------------------------------------------------------------------
# study: an independent surrogate


def read_checkpoint(path) -> dict:
    """Parse the documented little-endian checkpoint; verify its checksum."""
    raw = Path(path).read_bytes()
    body = raw[:-8]
    if raw[:8] != b"SDAEPOPF" or hashlib.blake2b(body, digest_size=8).digest() != raw[-8:]:
        raise ValueError(f"{path}: bad magic or checksum")
    _version, n_layers = struct.unpack_from("<II", body, 8)
    dims = struct.unpack_from(f"<{n_layers + 2}I", body, 16)
    off = 16 + 4 * (n_layers + 2) + 8
    flat = np.frombuffer(body, dtype="<f8", offset=off)

    def take(count):
        nonlocal flat
        part, flat = flat[:count], flat[count:]
        return part

    d_in, d_out = dims[0], dims[-1]
    model = {"x_lo": take(d_in), "x_hi": take(d_in), "y_lo": take(d_out), "y_hi": take(d_out)}
    layers = []
    for fan_in, width in zip(dims[:-1], dims[1:]):
        layers.append((take(width * fan_in).reshape(width, fan_in), take(width)))
    if flat.size:
        raise ValueError(f"{path}: {flat.size} trailing values")
    model["layers"] = layers
    return model


def surrogate(model: dict, x: np.ndarray) -> np.ndarray:
    """Min-max normalise, ReLU encoder stack, affine top, denormalise."""
    lo, hi = model["x_lo"], model["x_hi"]
    span = hi - lo
    xn = np.where(span != 0, (x - lo) / np.where(span != 0, span, 1.0),
                  np.where(hi != 0, 1.0, x))
    a = xn
    for w, b in model["layers"][:-1]:
        a = np.maximum(a @ w.T + b, 0.0)
    w, b = model["layers"][-1]
    yn = a @ w.T + b
    lo, hi = model["y_lo"], model["y_hi"]
    return np.where(hi - lo != 0, lo + yn * (hi - lo), lo)


def draw_samples(case: Case, n: int, seed: int, groups: dict) -> np.ndarray:
    """Documented sampler: a PCG64 stream per source column, Gaussian copula,
    inverse-CDF marginals."""
    d = len(case.sources)
    z = np.empty((n, d))
    for j in range(d):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))
        z[:, j] = gen.standard_normal(n)
    for name, matrix in groups.items():
        cols = [k for k, s in enumerate(case.sources) if s.get("corr_group") == name]
        z[:, cols] = z[:, cols] @ np.linalg.cholesky(np.array(matrix)).T
    out = np.empty_like(z)
    for j, src in enumerate(case.sources):
        if src["kind"] == "gaussian_load":
            out[:, j] = (src["mean_mw"] + src["std_mw"] * z[:, j]) / case.base
        elif src["kind"] == "pv":
            out[:, j] = src["rated_mw"] / case.base * stats.beta.ppf(
                stats.norm.cdf(z[:, j]), src["alpha"], src["beta"])
        else:
            speed = stats.weibull_min.isf(stats.norm.sf(z[:, j]), src["weibull_shape"],
                                          scale=src["weibull_scale"])
            rated = src["rated_mw"] / case.base
            ramp = rated * (speed / src["rated_speed"]) ** 3
            out[:, j] = np.where((speed < src["cut_in"]) | (speed > src["cut_out"]), 0.0,
                                 np.where(speed < src["rated_speed"], ramp, rated))
    return out


def check_stats(path, values: np.ndarray) -> list:
    """popf_stats.tsv against the mean and sample std of independent outputs."""
    table = np.loadtxt(path, delimiter="\t", skiprows=1, usecols=(1, 2), ndmin=2)
    scale = np.abs(values).max(axis=0) + 1e-12
    out = []
    for col, ref in ((0, values.mean(axis=0)), (1, values.std(axis=0, ddof=1))):
        err = float(np.max(np.abs(table[:, col] - ref) / scale))
        if err > 1e-9:
            out.append(f"{Path(path).parent.name}: {('mean', 'std')[col]} off by "
                       f"{err:.3g} of the column scale")
    return out


def check_densities(directory) -> list:
    tables = sorted(Path(directory).glob("density_*.tsv"))
    out = [] if tables else [f"{directory}: no density tables"]
    for path in tables:
        table = read_tsv(path)
        width = table[1, 0] - table[0, 0] if len(table) > 1 else 1.0
        for col in range(1, table.shape[1]):
            area = float(np.sum(table[:, col]) * width)
            if abs(area - 1.0) > 1e-9:
                out.append(f"{path.parent.name}/{path.name} column {col}: area {area:.12g}")
    return out


def convergence_index(values: np.ndarray, threshold=CV_THRESHOLD, cap=CV_CAP) -> int:
    """First n at which every index's s/sqrt(n) <= threshold*|mean| (or
    <= threshold where |mean| < 1e-12), from running sums; else the cap."""
    values = values[:cap]
    shifted = values - values[0]
    n = np.arange(1, len(values) + 1)[:, None]
    s1 = np.cumsum(shifted, axis=0)
    s2 = np.cumsum(shifted ** 2, axis=0)
    mean = s1 / n + values[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.maximum(s2 - s1 ** 2 / n, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
    absmean = np.abs(mean)
    limit = np.where(absmean < ZERO_MEAN, threshold, threshold * absmean)
    ok = np.all(stderr <= limit, axis=1)
    ok[0] = False
    hits = np.flatnonzero(ok)
    return int(hits[0]) + 1 if hits.size else min(cap, len(values))


def consumed_samples(stdout: str) -> int:
    m = re.search(r"converged at (\d+)|(\d+) samples in", stdout)
    if not m:
        raise ValueError(f"no sample count in popf output: {stdout!r}")
    return int(m.group(1) or m.group(2))


def check_converge(stdout: str, values: np.ndarray) -> list:
    got, want = consumed_samples(stdout), convergence_index(values)
    return [] if got == want else [f"--converge consumed {got} samples, the rule fires at {want}"]


def check_report(path) -> list:
    rep = json.loads(Path(path).read_text(encoding="utf-8"))
    e1 = rep["errors"]["surrogate"]["e_mean"][0]
    v_sur = rep["errors"]["surrogate"]["exceedance"]["voltage"]["0.01"]
    v_dc = rep["errors"]["dc_only"]["exceedance"]["voltage"]["0.01"]
    out = []
    if not e1 <= 0.01:
        out.append(f"surrogate e1(cost) {100 * e1:.4g}% > 1%")
    if not v_sur <= 0.01:
        out.append(f"surrogate voltage exceedance at 0.01 pu {100 * v_sur:.4g}% > 1%")
    if not v_dc > v_sur:
        out.append(f"dc_only voltage exceedance {v_dc} is not above the surrogate's {v_sur}")
    return out
