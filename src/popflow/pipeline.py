"""End-to-end POPF pipeline: data generation, training, inference, metrics.

The surrogate's input vector holds the realized active and reactive
consumption at every PQ bus, so all stochastic sources must sit on PQ buses
(otherwise the OPF solution would not be a function of the feature vector).
Outputs are flattened OPF solution vectors: cost, bus voltage magnitudes,
generator outputs, branch flows.

Inference runs in fixed row blocks on the ``INFER_CHUNK`` grid, on a thread
pool sized to the usable cores, each block writing only its own rows:
predictions do not depend on the core count (see ``rowblocks``).

Method comparison runs three solvers over one seed-matched sample matrix and
pools their errors at the fixed ``EXCEEDANCE_THRESHOLDS``:

- ``oracle``      dispatch + AC power flow per sample (the reference), by the
                  block oracle pass that also labels the training data
- ``surrogate``   batched network inference
- ``dc_only``     linear dispatch alone (the same block dispatch), voltages
                  pinned at 1.0 pu
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sdae
from .errors import DimensionMismatch, TooManyRejections, ValidationError
from .grid import PQ, NetworkCase, case_hash
from .sampling import (DEFAULT_CV_THRESHOLD, DEFAULT_MAX_SAMPLES, ZERO_MEAN,
                       ConvergenceState, CorrelationSpec, SampleStream, fold_convergence,
                       sample_operating_conditions)
from .solver import (NEWTON_MAX_ITER, NEWTON_TOL, OracleBlock, bus_loads, compile_case,
                     dispatch_block, dot_rows, oracle_block, solution_layout)
from .ioutil import atomic_write_text, write_tsv
from .rowblocks import for_each_block, workers

# inference always walks the sample matrix in chunks of this many rows, so
# predictions do not depend on how callers batch their queries
INFER_CHUNK = 512

log = logging.getLogger("popflow")

METHOD_ORACLE = "oracle"
METHOD_SURROGATE = "surrogate"
METHOD_DC_ONLY = "dc_only"

# per-sample absolute-error thresholds of the pooled exceedance probabilities,
# class -> (block of the solution vector, thresholds, unit); MW pools as pu
EXCEEDANCE_THRESHOLDS = {
    "voltage": ("v_mag", (0.01, 0.001), "pu"),
    "generator": ("p_gen", (3.0,), "MW"),
    "branch": ("p_branch", (3.0,), "MW"),
    "cost": ("cost", (1000.0, 3000.0), "$/h"),
}


@dataclass(frozen=True)
class TrainingDataset:
    """Oracle-labelled operating conditions plus generation provenance."""

    x: np.ndarray
    y: np.ndarray
    samples: np.ndarray
    provenance: dict

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]


@dataclass
class PopfRunResult:
    values: np.ndarray
    seconds: float
    n_samples: int
    converged: bool | None = None


@dataclass
class Statistics:
    mean: np.ndarray
    std: np.ndarray


@dataclass
class ErrorMetrics:
    e_mean: np.ndarray          # relative error of the mean, per output index
    e_std: np.ndarray           # relative error of the std, per output index
    absolute_mean_flags: list   # indexes where the reference mean was ~0
    absolute_std_flags: list
    exceedance: dict            # class -> {threshold: pooled probability}


@dataclass
class PopfReport:
    n_samples: int
    dropped: int
    labels: list
    stats: dict       # method -> Statistics
    errors: dict      # method -> ErrorMetrics (vs the oracle)
    timings: dict     # method -> seconds around its solve loop
    densities: dict   # label -> {"edges": ndarray, method: density ndarray}
    failures: dict = field(default_factory=dict)
    self_check: bool = False


# ---------------------------------------------------------------------------
# features and labels


def operating_features(case: NetworkCase, sample_values: np.ndarray) -> np.ndarray:
    """PQ-bus active and reactive consumption for each sample row."""
    pq = case.pq_indices()
    for i, src in enumerate(case.sources):
        if case.buses[src.bus].kind != PQ:
            raise ValidationError(
                f"source {i}: bus {src.bus} is not PQ; the surrogate input cannot "
                "observe it")
    p, q = bus_loads(case, np.atleast_2d(np.asarray(sample_values, dtype=float)))
    return np.hstack([p[:, pq], q[:, pq]])


def feature_labels(case: NetworkCase) -> list:
    pq = case.pq_indices()
    return [f"p@bus{b}" for b in pq] + [f"q@bus{b}" for b in pq]


def output_labels(case: NetworkCase) -> list:
    labels = ["cost"]
    labels += [f"v_mag:{b.id}" for b in case.buses]
    labels += [f"p_gen:{i}" for i in range(case.n_gen)]
    labels += [f"p_branch:{i}" for i in range(case.n_branch)]
    return labels


# ---------------------------------------------------------------------------
# step 1: training data


def generate_training_data(case: NetworkCase, n: int, seed: int,
                           spec: CorrelationSpec | None = None) -> TrainingDataset:
    """Sample operating conditions and label them with the oracle.

    Samples whose oracle solve fails (infeasible dispatch or non-convergent
    power flow) are dropped and replaced from a fresh redraw round (see
    ``sample_operating_conditions``); the drop count lands in the
    provenance. Raises TooManyRejections once more than half of all draws
    have failed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    samples = np.empty((0, case.n_sources))
    y = np.empty((0, case.solution_dim()))
    work = _OracleWork()
    round_no = 0
    while len(samples) < n:
        batch = sample_operating_conditions(case, n - len(samples), spec, seed,
                                            redraw=round_no).values
        block = oracle_block(case, batch)
        work.add(block)
        samples = np.vstack([samples, batch[block.solved]])
        y = np.vstack([y, block.values])
        if work.failed > work.attempts / 2:
            raise TooManyRejections(
                f"{work.failed} of {work.attempts} oracle labelling attempts failed")
        round_no += 1
    work.log("gen-data")

    provenance = {
        "case_hash": case_hash(case),
        "seed": seed,
        "n": n,
        "dropped": work.failed,
        "oracle": {"newton_tol": NEWTON_TOL, "newton_max_iter": NEWTON_MAX_ITER},
    }
    return TrainingDataset(x=operating_features(case, samples), y=y, samples=samples,
                           provenance=provenance)


class _OracleWork:
    """How hard the oracle worked over a run of solves, for the debug log."""

    def __init__(self):
        self.solves = 0
        self.warm_hits = 0
        self.rounds = 0          # active-set rounds of every dispatched row
        self.newton_iterations = 0
        self.newton_blocks = 0
        self.drops = Counter()   # failed solves by exception type name

    @property
    def failed(self) -> int:
        return sum(self.drops.values())

    @property
    def attempts(self) -> int:
        return self.solves + self.failed

    def add(self, block: OracleBlock) -> None:
        self.solves += int(block.solved.sum())
        self.warm_hits += int(np.count_nonzero(block.rounds[block.solved] == 0))
        self.rounds += int(block.rounds.sum())
        self.newton_iterations += int(block.iterations[block.solved].sum())
        self.newton_blocks += block.newton_blocks
        self.drops.update(type(exc).__name__ for exc in block.errors.values())

    def log(self, stage: str) -> None:
        log.debug("%s: %d oracle solves, %d warm dispatch hits, %d active-set fallbacks, "
                  "%d active-set rounds, %.3g Newton iterations per solve, %d Newton sub-blocks, "
                  "drops %s",
                  stage, self.solves, self.warm_hits, self.solves - self.warm_hits, self.rounds,
                  self.newton_iterations / max(self.solves, 1), self.newton_blocks,
                  dict(self.drops))


def save_dataset(ds: TrainingDataset, directory, case: NetworkCase) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tsv(directory / "X.tsv", feature_labels(case), ds.x)
    write_tsv(directory / "Y.tsv", output_labels(case), ds.y)
    write_tsv(directory / "samples.tsv",
              [f"source{i}" for i in range(ds.samples.shape[1])], ds.samples)
    atomic_write_text(directory / "provenance.json", json.dumps(ds.provenance, indent=1) + "\n")


def load_dataset(directory) -> TrainingDataset:
    directory = Path(directory)
    x = _read_matrix(directory / "X.tsv")
    y = _read_matrix(directory / "Y.tsv")
    samples = _read_matrix(directory / "samples.tsv")
    provenance = json.loads((directory / "provenance.json").read_text(encoding="utf-8"))
    return TrainingDataset(x=x, y=y, samples=samples, provenance=provenance)


def _read_matrix(path) -> np.ndarray:
    return np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# steps 2-4: training


def split_indices(n: int, seed: int):
    """Seeded shuffled 5:1 train/validation split (60000 rows -> 50000/10000)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(10,))))
    perm = rng.permutation(n)
    n_val = n // 6
    return perm[n_val:], perm[:n_val]


def train_popf_model(dataset: TrainingDataset, cfg: sdae.TrainConfig):
    """Split 5:1, normalize, pretrain, fine-tune; returns (model, history,
    pretraining losses per layer).

    Normalization bounds come from the training split only and are frozen
    into the returned model. Training runs in float32: the normalized
    matrices and the freshly drawn (float64) initial weights are cast once,
    and the final weights are widened back to float64.
    """
    n = dataset.n_rows
    if n < 2 * cfg.batch_size:
        raise ValueError(f"dataset has {n} rows; need at least {2 * cfg.batch_size}")
    train_idx, val_idx = split_indices(n, cfg.seed)

    x_lo, x_hi = sdae.fit_bounds(dataset.x[train_idx])
    y_lo, y_hi = sdae.fit_bounds(dataset.y[train_idx])
    xn_train = sdae.normalize(dataset.x[train_idx], x_lo, x_hi).astype(np.float32)
    yn_train = sdae.normalize(dataset.y[train_idx], y_lo, y_hi).astype(np.float32)
    xn_val = sdae.normalize(dataset.x[val_idx], x_lo, x_hi).astype(np.float32)
    yn_val = sdae.normalize(dataset.y[val_idx], y_lo, y_hi).astype(np.float32)

    init_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(11,))))
    model = sdae.init_model(dataset.x.shape[1], cfg.hidden_sizes, dataset.y.shape[1],
                            cfg.corruption_level, init_rng)
    sdae.cast_model(model, np.float32)
    pre_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(12,))))
    pretrain_losses = sdae.pretrain_stack(model, xn_train, cfg, pre_rng)
    model.corruption_level = cfg.finetune_corruption
    fine_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(13,))))
    model, history = sdae.finetune(model, xn_train, yn_train, xn_val, yn_val, cfg, fine_rng)

    sdae.cast_model(model, np.float64)
    model.x_lo, model.x_hi = x_lo, x_hi
    model.y_lo, model.y_hi = y_lo, y_hi
    return model, history, pretrain_losses


# ---------------------------------------------------------------------------
# steps 5-6: batched inference


def infer(model: sdae.SdaeModel, x: np.ndarray) -> np.ndarray:
    """Normalize, forward in fixed chunks, denormalize.

    Rows run in fixed blocks (a multiple of ``INFER_CHUNK``) on one thread
    per BLAS thread team that fits on the usable cores, each block writing
    only its own rows of the output, so the result does not depend on the
    core count (see ``rowblocks``).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"model expects {model.input_dim} input features, got {x.shape[1]}")
    out = np.empty((x.shape[0], model.output_dim))
    for_each_block(x.shape[0], lambda start, stop: _infer_rows(model, x, out, start, stop),
                   blas=True)
    return out


def _infer_rows(model: sdae.SdaeModel, x: np.ndarray, out: np.ndarray,
                start: int, stop: int) -> None:
    """Rows ``[start, stop)`` of ``infer``, in ``INFER_CHUNK`` chunks counted
    from ``start``; ``start`` lies on the chunk grid."""
    xn = sdae.normalize(x[start:stop], model.x_lo, model.x_hi)
    for c in range(0, stop - start, INFER_CHUNK):
        yn = sdae._run_layers(model, xn[c:c + INFER_CHUNK])
        sdae.denormalize(yn, model.y_lo, model.y_hi, out=out[start + c:start + c + len(yn)])


def run_popf(model: sdae.SdaeModel, case: NetworkCase, n_samples: int | None = None,
             spec: CorrelationSpec | None = None, seed: int = 0,
             converge: bool = False, cv_threshold: float = DEFAULT_CV_THRESHOLD,
             max_samples: int = DEFAULT_MAX_SAMPLES) -> PopfRunResult:
    """Monte-Carlo POPF by batched surrogate inference.

    Either a fixed sample count or convergence-driven: the run stops once the
    variance coefficient of every output index drops to the threshold, or at
    the sample cap. ``converged`` is true only when the threshold was met.
    """
    if not converge:
        if n_samples is None or n_samples < 1:
            raise ValueError("n_samples must be at least 1 when not convergence-driven")
        t0 = time.perf_counter()
        rows = sample_operating_conditions(case, n_samples, spec, seed).values
        t1 = time.perf_counter()
        x = _model_features(model, case, rows)
        t2 = time.perf_counter()
        values = infer(model, x)
        seconds = time.perf_counter() - t2
        _log_popf_stages(t1 - t0, t2 - t1, seconds, len(rows), len(values), len(rows), len(x))
        return PopfRunResult(values=values, seconds=seconds,
                             n_samples=values.shape[0], converged=None)

    if max_samples < 1:
        raise ValueError("max_samples must be at least 1")
    # Rows are drawn in chunks that double from 4 * INFER_CHUNK, each continuing
    # the column streams where the last stopped, so the rows equal those of one
    # max_samples draw and none is drawn twice; every chunk but the capped
    # last one is a multiple of INFER_CHUNK, so inference chunks stay aligned.
    state = ConvergenceState.for_dim(model.output_dim, threshold=cv_threshold,
                                     max_samples=max_samples)
    stream = SampleStream(case, spec, seed)
    collected = []
    converged = False
    seconds = draw_s = features_s = 0.0
    drawn = widest = 0
    chunk = 4 * INFER_CHUNK
    while drawn < max_samples and not converged:
        t0 = time.perf_counter()
        rows = stream.draw(min(chunk, max_samples - drawn)).values
        t1 = time.perf_counter()
        x = _model_features(model, case, rows)
        t2 = time.perf_counter()
        for c in range(0, len(x), INFER_CHUNK):
            block = infer(model, x[c:c + INFER_CHUNK])
            used, converged = fold_convergence(state, block)
            collected.append(block[:used])
            if converged:
                break
        seconds += time.perf_counter() - t2
        draw_s += t1 - t0
        features_s += t2 - t1
        drawn += len(rows)
        widest = max(widest, len(rows))
        chunk *= 2
    values = np.vstack(collected)
    _, _, stderr, limit = state.rule_terms()
    ratio = stderr / limit
    worst = int(np.argmax(ratio))
    _log_popf_stages(draw_s, features_s, seconds, drawn, len(values), widest, INFER_CHUNK,
                     f"; largest stderr/limit {ratio[worst]:.3g}, at {output_labels(case)[worst]}")
    return PopfRunResult(values=values, seconds=seconds,
                         n_samples=values.shape[0], converged=converged)


def _log_popf_stages(draw_s, features_s, infer_s, drawn, used, draw_rows, infer_rows,
                     stop="") -> None:
    """One DEBUG line per run; ``drawn`` counts every row the sampler made,
    the thread counts are the row-block workers of the run's widest draw and
    inference call (``draw_rows`` and ``infer_rows`` rows), and ``stop`` ends
    a convergence run's line with the output that decided its stop."""
    log.debug("popf: %.3g s drawing, %.3g s featurizing, %.3g s inferring; "
              "%d rows drawn, %d used; %d drawing and %d inferring threads%s",
              draw_s, features_s, infer_s, drawn, used, workers(draw_rows),
              workers(infer_rows, blas=True), stop)


def _model_features(model: sdae.SdaeModel, case: NetworkCase, sample_values) -> np.ndarray:
    x = operating_features(case, sample_values)
    if x.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"case yields {x.shape[1]} features but the model was trained on "
            f"{model.input_dim}; was the model trained on a different case?")
    return x


# ---------------------------------------------------------------------------
# statistics


def compute_statistics(values: np.ndarray) -> Statistics:
    """Column means and sample stds."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] < 2:
        raise ValueError("need at least 2 samples for statistics")
    return Statistics(mean=values.mean(axis=0), std=values.std(axis=0, ddof=1))


def histogram_densities(columns, bins: int):
    """Unit-area histogram densities of several columns over shared bins.

    Returns the bin edges, spanning the smallest to the largest value of all
    columns, and one density array per column.
    """
    lo = min(np.min(c) for c in columns)
    hi = max(np.max(c) for c in columns)
    if lo == hi:
        # degenerate range: all mass in one unit-width bin
        return np.array([lo - 0.5, lo + 0.5]), [np.array([1.0]) for _ in columns]
    edges = np.histogram_bin_edges([], bins=bins, range=(lo, hi))
    return edges, [np.histogram(c, bins=edges, density=True)[0] for c in columns]


# ---------------------------------------------------------------------------
# error metrics


def error_metrics(reference: np.ndarray, candidate: np.ndarray,
                  case: NetworkCase) -> ErrorMetrics:
    """Relative mean/std errors and pooled exceedance probabilities.

    ``reference`` and ``candidate`` must be seed-matched sample sets of equal
    shape: row i of both came from the same operating condition.
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape:
        raise DimensionMismatch(f"reference {reference.shape} vs candidate {candidate.shape}")

    mean0 = reference.mean(axis=0)
    mean1 = candidate.mean(axis=0)
    std0 = reference.std(axis=0, ddof=1)
    std1 = candidate.std(axis=0, ddof=1)

    e_mean, mean_flags = _relative_error(mean0, mean1)
    e_std, std_flags = _relative_error(std0, std1)

    layout = solution_layout(case)
    err = np.abs(candidate - reference)
    pooled = {}
    for name, (block, taus, unit) in EXCEEDANCE_THRESHOLDS.items():
        if unit == "MW":
            taus = tuple(t / case.base_mva for t in taus)
        block_err = err[:, layout[block]]
        pooled[name] = {tau: float(np.mean(block_err > tau)) for tau in taus}

    return ErrorMetrics(e_mean=e_mean, e_std=e_std,
                        absolute_mean_flags=mean_flags, absolute_std_flags=std_flags,
                        exceedance=pooled)


def _relative_error(reference: np.ndarray, candidate: np.ndarray):
    """|candidate - reference| / |reference| per index, and the indexes where
    the reference is ~0 and the error is left absolute."""
    absolute = np.abs(reference) < ZERO_MEAN
    err = np.abs(candidate - reference)
    err[~absolute] /= np.abs(reference[~absolute])
    return err, np.flatnonzero(absolute).tolist()


# ---------------------------------------------------------------------------
# method comparison


def compare_methods(case: NetworkCase, model: sdae.SdaeModel,
                    spec: CorrelationSpec | None = None, seed: int = 0,
                    n_samples: int = 10_000, bins: int = 50,
                    density_labels: list | None = None,
                    self_check: bool = False) -> PopfReport:
    """Run oracle, surrogate, and dc-only on one seed-matched sample matrix.

    Oracle failures drop the sample from every method so per-sample errors
    stay attributable, and ``failures`` maps each dropped row of the draw to
    its "Type: message"; timings wrap each method's solve loop only.

    ``self_check`` substitutes the oracle's own outputs for the surrogate's
    (no inference): every surrogate error column must then come out zero,
    which exercises the metric plumbing end to end.
    """
    draw = sample_operating_conditions(case, n_samples, spec, seed).values
    labels = output_labels(case)

    work = _OracleWork()
    t0 = time.perf_counter()
    block = oracle_block(case, draw)
    oracle_time = time.perf_counter() - t0
    work.add(block)
    work.log("compare")
    if not block.solved.any():
        raise TooManyRejections("every oracle sample failed; nothing to compare")
    oracle_vals = block.values
    kept = draw[block.solved]

    if self_check:
        surrogate_vals = oracle_vals.copy()
        surrogate_time = 0.0
    else:
        x = operating_features(case, kept)
        t1 = time.perf_counter()
        surrogate_vals = infer(model, x)
        surrogate_time = time.perf_counter() - t1

    t3 = time.perf_counter()
    dc_vals = _dc_only_outputs(case, kept)
    dc_time = time.perf_counter() - t3

    method_values = {
        METHOD_ORACLE: oracle_vals,
        METHOD_SURROGATE: surrogate_vals,
        METHOD_DC_ONLY: dc_vals,
    }
    stats = {m: compute_statistics(v) for m, v in method_values.items()}
    errors = {
        METHOD_SURROGATE: error_metrics(oracle_vals, surrogate_vals, case),
        METHOD_DC_ONLY: error_metrics(oracle_vals, dc_vals, case),
    }
    timings = {
        METHOD_ORACLE: oracle_time,
        METHOD_SURROGATE: surrogate_time,
        METHOD_DC_ONLY: dc_time,
    }

    if density_labels is None:
        density_labels = default_density_labels(case)
    densities = {}
    for label in density_labels:
        j = labels.index(label)
        edges, dens = histogram_densities([v[:, j] for v in method_values.values()], bins)
        densities[label] = {"edges": edges, **dict(zip(method_values, dens))}

    failures = {row: f"{type(exc).__name__}: {exc}" for row, exc in block.errors.items()}
    return PopfReport(n_samples=len(kept), dropped=work.failed,
                      labels=labels, stats=stats, errors=errors, timings=timings,
                      densities=densities, failures=failures, self_check=self_check)


def default_density_labels(case: NetworkCase) -> list:
    """One voltage, one generator, one branch, and the cost."""
    out = ["cost"]
    pq = case.pq_indices()
    if len(pq):
        out.append(f"v_mag:{pq[len(pq) // 2]}")
    if case.n_gen:
        out.append(f"p_gen:{min(1, case.n_gen - 1)}")
    if case.n_branch:
        out.append(f"p_branch:{case.n_branch // 2}")
    return out


def _dc_only_outputs(case: NetworkCase, sample_values: np.ndarray) -> np.ndarray:
    """Linear-dispatch analog: DC cost/outputs/flows, voltages flat at 1.0."""
    p_loads, _ = bus_loads(case, sample_values)
    dispatch = dispatch_block(case, p_loads)
    if dispatch.errors:
        raise next(iter(dispatch.errors.values()))
    qp = compile_case(case).qp
    flows = dot_rows(qp.ptdf, dot_rows(qp.gen_map, dispatch.p_gen) - p_loads)
    return np.concatenate([dispatch.cost[:, None], np.ones((len(p_loads), case.n_bus)),
                           dispatch.p_gen, flows], axis=1)


# ---------------------------------------------------------------------------
# report files


def save_report(report: PopfReport, directory) -> None:
    """report.json plus one density table per plotted index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "n_samples": report.n_samples,
        "dropped": report.dropped,
        "self_check": report.self_check,
        "labels": report.labels,
        "timings_seconds": report.timings,
        "stats": {
            m: {"mean": s.mean.tolist(), "std": s.std.tolist()}
            for m, s in report.stats.items()
        },
        "errors": {
            m: {
                "e_mean": e.e_mean.tolist(),
                "e_std": e.e_std.tolist(),
                "absolute_mean_flags": e.absolute_mean_flags,
                "absolute_std_flags": e.absolute_std_flags,
                "exceedance": {c: {str(t): p for t, p in d.items()}
                               for c, d in e.exceedance.items()},
            }
            for m, e in report.errors.items()
        },
        "failures": report.failures,
    }
    atomic_write_text(directory / "report.json", json.dumps(doc, indent=1) + "\n")
    for label, table in report.densities.items():
        save_density_table(directory, label, table["edges"],
                           {m: d for m, d in table.items() if m != "edges"})


def save_density_table(directory, label: str, edges: np.ndarray, densities: dict) -> None:
    """``density_<label>.tsv``: bin centers, then one column per named density."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    write_tsv(Path(directory) / f"density_{label.replace(':', '_')}.tsv",
              ["bin_center", *densities], zip(centers, *densities.values()))
