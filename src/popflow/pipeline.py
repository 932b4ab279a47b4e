"""End-to-end POPF pipeline: data generation, training, inference, metrics.

The surrogate's input vector holds the realized active and reactive
consumption at every PQ bus, so all stochastic sources must sit on PQ buses
(otherwise the OPF solution would not be a function of the feature vector).
Outputs are flattened OPF solution vectors: cost, bus voltage magnitudes,
generator outputs, branch flows.

Inference runs the model's ``sdae.inference_copy``, whose first and top
layers carry the min-max scaling, so rows are never normalized or
denormalized, in ``INFER_CHUNK`` chunks counted from the first row.

A Monte-Carlo run (``run_popf``) is one block pass over 4,096-row blocks:
the calling thread draws and correlates each block's normals in block order,
with at most two blocks per worker in flight, and the block transforms its
marginals, computes its features, runs the folded network on its
``INFER_CHUNK`` grid, sums its shifted moments and copies out only the
output columns the caller keeps. The features, each chunk's hidden
activations and the outputs go to buffers its worker reuses block after
block, and each layer adds its bias from rows repeated once per pass
(``_bias_rows``): the sums of a broadcast bias, without its loop over rows.
So a run holds one block's buffers per worker plus n times the kept
columns; no matrix of normals, features or unkept outputs spans it.
``compare_methods`` sends the rows the oracle kept through the same pass,
each block slicing its own, and keeps every column. The pass is popflow's
only threaded work: its blocks run on one thread per BLAS thread team that
fits on the usable cores, each writing only its own rows, so outputs do not
depend on the core count (see ``rowblocks``); ``infer`` runs on the calling
thread. ``--converge`` draws one block at a time through the same pass,
whose buffers outlive each draw; the stopping rule folds that block's every
column, and only the kept columns outlive it.

Statistics are block-merged moments: each block sums ``x - shift`` and its
squares (``shift`` the block's first row), and the calling thread merges the
blocks in block order, so means and stds have the same bits for any worker
count, and a run's ``stats`` equal ``compute_statistics`` of its full rows. A
``--converge`` run's stopping rule (``fold_convergence``) carries the same
``(count, shift, s1, s2)`` sums over ``INFER_CHUNK`` slices of each block.

Method comparison runs three solvers over one seed-matched sample matrix and
pools their errors at the fixed ``EXCEEDANCE_THRESHOLDS``:

- ``oracle``      dispatch + AC power flow per sample (the reference), by the
                  block oracle pass that also labels the training data
- ``surrogate``   the kept rows through ``run_popf``'s block pass
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
from typing import NamedTuple

import numpy as np

from . import sdae
from .errors import CorruptFile, DimensionMismatch, TooManyRejections, ValidationError
from .grid import PQ, NetworkCase, case_hash
from .sampling import (LABEL_BRANCH, CorrelationSpec, SampleStream,
                       sample_operating_conditions, stream)
from .solver import (NEWTON_MAX_ITER, NEWTON_TOL, OracleBlock, apply_sources, bus_loads,
                     compile_case, dispatch_block, dot_rows, oracle_block, solution_layout)
from .ioutil import atomic_write_text, write_tsv
from .rowblocks import BLOCK_ROWS, for_each_block, workers

# inference always walks the sample matrix in chunks of this many rows, so
# predictions do not depend on how callers batch their queries
INFER_CHUNK = 512

DEFAULT_CV_THRESHOLD = 0.05
DEFAULT_MAX_SAMPLES = 50_000

# below this magnitude a mean counts as zero: the cv test switches to the
# absolute criterion s/sqrt(n) <= threshold, and error metrics stay absolute
ZERO_MEAN = 1e-12

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
class Statistics:
    mean: np.ndarray
    std: np.ndarray


@dataclass
class PopfRunResult:
    """A Monte-Carlo run's outputs: ``values`` holds the kept output columns
    of every row (all of them by default; see ``run_popf``), ``seconds`` is
    the run's wall time, and ``stats`` (None below two rows) covers every
    column and equals ``compute_statistics`` of the full rows bit for bit."""

    values: np.ndarray
    seconds: float
    n_samples: int
    converged: bool | None = None
    stats: Statistics | None = None


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
    _check_observable(case)
    return _features(case, np.atleast_2d(np.asarray(sample_values, dtype=float)))


def _check_observable(case: NetworkCase) -> None:
    for i, src in enumerate(case.sources):
        if case.buses[src.bus].kind != PQ:
            raise ValidationError(
                f"source {i}: bus {src.bus} is not PQ; the surrogate input cannot "
                "observe it")


def _check_fits(model: sdae.SdaeModel, case: NetworkCase) -> None:
    """Refuse a case the model cannot observe or whose features it does not take."""
    _check_observable(case)
    width = 2 * len(case.pq_indices())
    if width != model.input_dim:
        raise DimensionMismatch(
            f"case yields {width} features but the model was trained on "
            f"{model.input_dim}; was the model trained on a different case?")


def _features(case: NetworkCase, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``operating_features`` of an (n, n_sources) matrix, unchecked: the PQ
    columns of ``bus_loads``, written in one pass into one array (the first
    n rows of ``out`` when given), the base loads broadcast and each source
    applied to its own column."""
    cc = compile_case(case)
    n_pq = len(cc.pq)
    column = {int(bus): i for i, bus in enumerate(cc.pq)}
    out = np.empty((len(samples), 2 * n_pq)) if out is None else out[:len(samples)]
    p, q = out[:, :n_pq], out[:, n_pq:]
    p[:] = cc.p_load[cc.pq]
    q[:] = cc.q_load[cc.pq]
    apply_sources(p, q, samples, [(column.get(bus), q_per_p)
                                  for bus, q_per_p in cc.source_rules])
    return out


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
    """Label the first n rows of ``seed``'s label draw (``LABEL_BRANCH``)
    that the oracle solves. A row whose solve fails (infeasible dispatch or
    non-convergent power flow) is dropped and the next rows of the same
    draw replace it, so an n-row dataset is the first n rows of any longer
    one; the drop count lands in the provenance. Raises TooManyRejections
    once more than half of all draws have failed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_observable(case)
    draws = SampleStream(case, spec, seed, LABEL_BRANCH)
    samples, y, work = [], [], _OracleWork()
    while work.solves < n:
        batch = draws.draw(n - work.solves).values
        block = oracle_block(case, batch)
        work.add(block)
        samples.append(batch[block.solved])
        y.append(block.values)
        if work.failed > work.attempts / 2:
            raise TooManyRejections(
                f"{work.failed} of {work.attempts} oracle labelling attempts failed")
    work.log("gen-data")
    samples = np.vstack(samples)

    provenance = {
        "case_hash": case_hash(case),
        "seed": seed,
        "n": n,
        "dropped": work.failed,
        "oracle": {"newton_tol": NEWTON_TOL, "newton_max_iter": NEWTON_MAX_ITER},
    }
    return TrainingDataset(x=operating_features(case, samples), y=np.vstack(y),
                           samples=samples, provenance=provenance)


class _OracleWork:
    """How hard the oracle worked over a run of solves, for the debug log."""

    def __init__(self):
        self.solves = 0
        self.warm_hits = 0
        self.rounds = 0          # active-set rounds of every dispatched row
        self.newton_iterations = 0
        self.newton_blocks = 0
        self.dispatch_s = 0.0    # wall-clock seconds; kept out of the output files
        self.newton_s = 0.0
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
        self.dispatch_s += block.dispatch_s
        self.newton_s += block.newton_s
        self.drops.update(type(exc).__name__ for exc in block.errors.values())

    def log(self, stage: str) -> None:
        log.debug("%s: %d oracle solves, %d warm dispatch hits, %d active-set fallbacks, "
                  "%d active-set rounds, %.3g Newton iterations per solve, %d Newton sub-blocks, "
                  "drops %s; %.3g s dispatching, %.3g s in Newton",
                  stage, self.solves, self.warm_hits, self.solves - self.warm_hits, self.rounds,
                  self.newton_iterations / max(self.solves, 1), self.newton_blocks,
                  dict(self.drops), self.dispatch_s, self.newton_s)


def save_dataset(ds: TrainingDataset, directory, case: NetworkCase) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tsv(directory / "X.tsv", feature_labels(case), ds.x)
    write_tsv(directory / "Y.tsv", output_labels(case), ds.y)
    write_tsv(directory / "samples.tsv",
              [f"source{i}" for i in range(ds.samples.shape[1])], ds.samples)
    atomic_write_text(directory / "provenance.json", json.dumps(ds.provenance, indent=1) + "\n")


def load_dataset(directory) -> TrainingDataset:
    """The dataset ``save_dataset`` wrote. A file that does not parse, and a
    ``Y.tsv`` or ``samples.tsv`` whose row count is not ``X.tsv``'s, raise
    ``CorruptFile`` naming the file."""
    directory = Path(directory)
    x = _read_matrix(directory / "X.tsv")
    y = _read_matrix(directory / "Y.tsv")
    samples = _read_matrix(directory / "samples.tsv")
    for name, matrix in (("Y.tsv", y), ("samples.tsv", samples)):
        if len(matrix) != len(x):
            raise CorruptFile(f"{directory / name}: {len(matrix)} rows, X.tsv has {len(x)}")
    path = directory / "provenance.json"
    try:
        provenance = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: not UTF-8 JSON: {exc}") from None
    return TrainingDataset(x=x, y=y, samples=samples, provenance=provenance)


def _read_matrix(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# steps 2-4: training


def split_indices(n: int, seed: int):
    """Seeded shuffled 5:1 train/validation split (60000 rows -> 50000/10000)."""
    perm = stream(seed, 10).permutation(n)
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

    model = sdae.init_model(dataset.x.shape[1], cfg.hidden_sizes, dataset.y.shape[1],
                            cfg.corruption_level, stream(cfg.seed, 11))
    sdae.cast_model(model, np.float32)
    pretrain_losses = sdae.pretrain_stack(model, xn_train, cfg, stream(cfg.seed, 12))
    model.corruption_level = cfg.finetune_corruption
    model, history = sdae.finetune(model, xn_train, yn_train, xn_val, yn_val, cfg,
                                   stream(cfg.seed, 13))

    sdae.cast_model(model, np.float64)
    model.x_lo, model.x_hi = x_lo, x_hi
    model.y_lo, model.y_hi = y_lo, y_hi
    return model, history, pretrain_losses


# ---------------------------------------------------------------------------
# steps 5-6: batched inference


def infer(model: sdae.SdaeModel, x: np.ndarray) -> np.ndarray:
    """The model's outputs for the input rows ``x``, in their own units.

    Runs the model's ``sdae.inference_copy`` (min-max scaling folded into its
    first and top layers) on the calling thread, in ``INFER_CHUNK`` chunks
    counted from the first row.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"model expects {model.input_dim} input features, got {x.shape[1]}")
    net = sdae.inference_copy(model)
    out = np.empty((x.shape[0], model.output_dim))
    _infer_rows(net, x, out, _layer_buffers(net, len(x)), _bias_rows(net, len(x)))
    return out


def _layer_buffers(net: sdae.SdaeModel, rows: int) -> list:
    """Activation buffers of ``net``'s hidden layers for chunks of up to
    ``rows`` rows."""
    return [np.empty((min(rows, INFER_CHUNK), layer.w.shape[0])) for layer in net.layers]


def _bias_rows(net: sdae.SdaeModel, rows: int) -> list:
    """Each layer's bias of ``net``, the top's last, repeated down the rows
    of a chunk of up to ``rows`` rows."""
    return [np.tile(b, (min(rows, INFER_CHUNK), 1))
            for b in [layer.b for layer in net.layers] + [net.top_b]]


def _infer_rows(net: sdae.SdaeModel, x: np.ndarray, out: np.ndarray, layers: list,
                biases: list) -> None:
    """``out`` = the folded network ``net`` on ``x``, in ``INFER_CHUNK``
    chunks counted from the first row; each chunk's hidden activations go to
    the ``_layer_buffers`` ``layers`` and its outputs straight to ``out``,
    and its biases come from the ``_bias_rows`` ``biases``."""
    for c in range(0, len(x), INFER_CHUNK):
        rows = x[c:c + INFER_CHUNK]
        sdae._run_layers(net, rows, None, [*layers, out[c:c + INFER_CHUNK]],
                         [b[:len(rows)] for b in biases])


def run_popf(model: sdae.SdaeModel, case: NetworkCase, n_samples: int | None = None,
             spec: CorrelationSpec | None = None, seed: int = 0,
             converge: bool = False, cv_threshold: float = DEFAULT_CV_THRESHOLD,
             max_samples: int = DEFAULT_MAX_SAMPLES, columns: list | None = None) -> PopfRunResult:
    """Monte-Carlo POPF by batched surrogate inference.

    Either a fixed sample count or convergence-driven: the run stops once the
    variance coefficient of every output index drops to the threshold, or at
    the sample cap. ``converged`` is true only when the threshold was met.
    Rows go through one block pass per draw (see the module doc). The result
    holds the output ``columns`` (indexes into ``output_labels``; None keeps
    every one) of each row; its stats and the stopping rule cover every column.
    """
    if not converge and (n_samples is None or n_samples < 1):
        raise ValueError("n_samples must be at least 1 when not convergence-driven")
    if converge and max_samples < 1:
        raise ValueError("max_samples must be at least 1")
    start = time.perf_counter()
    _check_fits(model, case)
    draws = SampleStream(case, spec, seed)
    if not converge:
        run = _SurrogatePass(model, case, columns)
        values, block_sums = run.draw(draws, n_samples)
        stats = _merge_moments(block_sums) if n_samples > 1 else None
        run.log(n_samples)
        return PopfRunResult(values=values, seconds=time.perf_counter() - start,
                             n_samples=n_samples, converged=None, stats=stats)

    # One block per draw, continuing the column streams, so the rows are those
    # of one max_samples draw; the rule folds each block in INFER_CHUNK slices
    # until it fires, and values has room for the cap's kept columns.
    run, sums, block_sums, converged, n = _SurrogatePass(model, case), None, [], False, 0
    kept = slice(None) if columns is None else columns
    values = np.empty((max_samples, model.output_dim if columns is None else len(columns)))
    while n < max_samples and not converged:
        rows, (block,) = run.draw(draws, min(BLOCK_ROWS, max_samples - n))
        t0 = time.perf_counter()
        used = 0
        while used < len(rows) and not converged:
            folded, converged, sums = fold_convergence(
                sums, rows[used:used + INFER_CHUNK], cv_threshold)
            used += folded
        block_sums.append(block if used == len(rows) else _shifted_sums(rows[:used]))
        run.stage_s[-1] += time.perf_counter() - t0
        values[n:n + used] = rows[:used, kept]
        n += used
    ratio = np.divide(*rule_terms(*sums, cv_threshold))   # standard errors over their limits
    worst = int(np.argmax(ratio))
    run.log(n, f"; largest stderr/limit {ratio[worst]:.3g}, at {output_labels(case)[worst]}")
    return PopfRunResult(values=values[:n], seconds=time.perf_counter() - start, n_samples=n,
                         converged=converged, stats=_merge_moments(block_sums) if n > 1 else None)


class _BlockBuffers(NamedTuple):
    """One worker's buffers in a block pass: a block's features, one
    inference chunk's hidden activations, and the block's outputs."""

    features: np.ndarray
    layers: list
    outputs: np.ndarray


class _SurrogatePass:
    """Sample rows through the folded network, block by block (see the module
    doc), with the stage times of the run's DEBUG line. A pass returns the
    output ``columns`` (None: every one) of its rows; its moments cover every
    column."""

    STAGES = ("transforming", "featurizing", "inferring", "summing moments")

    def __init__(self, model: sdae.SdaeModel, case: NetworkCase, columns=None):
        self.case = case
        self.net = sdae.inference_copy(model)
        self.columns = columns
        self.draw_s = self.pass_s = 0.0   # drawing: seconds summed over blocks
        self.stage_s = np.zeros(len(self.STAGES))
        self.drawn = self.widest = 0
        self.buffers = []   # _BlockBuffers of the widest pass so far, one per worker
        self.biases = []    # _bias_rows of the net, shared by the workers

    def draw(self, draws: SampleStream, n: int):
        """``samples`` of the next n rows of ``draws``: the calling thread
        draws each block's normals, in block order, and the block transforms
        its own."""
        self.drawn += n
        return self.samples(n, lambda start, stop: draws.normals(stop - start),
                            draws._transform_rows)

    def samples(self, n: int, block_input, transform=None):
        """The kept outputs of n sample rows, and each block's
        ``_shifted_sums`` in block order. ``block_input(start, stop)`` runs
        on the calling thread, block after block (``rowblocks.for_each_block``),
        and ``transform`` (None: none) makes its result the block's rows."""
        def timed_input(start, stop):
            t0 = time.perf_counter()
            rows = block_input(start, stop)
            self.draw_s += time.perf_counter() - t0
            return rows

        t0 = time.perf_counter()
        width = self.net.output_dim if self.columns is None else len(self.columns)
        out = np.empty((n, width))
        # one block's buffers per worker (no more blocks run at once), each
        # reused block after block, and pass after pass (a --converge run
        # passes one block at a time)
        rows, count = min(n, BLOCK_ROWS), workers(n)
        if len(self.buffers) < count or len(self.buffers[0].outputs) < rows:
            self.buffers = [_BlockBuffers(np.empty((rows, self.net.input_dim)),
                                          _layer_buffers(self.net, rows),
                                          np.empty((rows, self.net.output_dim)))
                            for _ in range(count)]
            self.biases = _bias_rows(self.net, rows)
        buffers = self.buffers[:count]
        blocks = for_each_block(n, lambda start, stop, rows: self._block(
            transform, rows, out[start:stop], buffers), timed_input)
        self.pass_s += time.perf_counter() - t0
        self.stage_s += np.sum([times for times, _ in blocks], axis=0)
        self.widest = max(self.widest, n)
        return out, [sums for _, sums in blocks]

    def _block(self, transform, rows, out: np.ndarray, buffers: list):
        t0 = time.perf_counter()
        samples = rows if transform is None else transform(rows)
        t1 = time.perf_counter()
        buffer = buffers.pop()
        try:
            x = _features(self.case, samples, buffer.features)
            t2 = time.perf_counter()
            scratch = buffer.outputs[:len(out)]
            outputs = out if self.columns is None else scratch
            _infer_rows(self.net, x, outputs, buffer.layers, self.biases)
            t3 = time.perf_counter()
            if self.columns is not None:
                out[:] = outputs[:, self.columns]
            sums = _shifted_sums(outputs, scratch)
        finally:
            buffers.append(buffer)
        return (t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3), sums

    def log(self, used: int, stop: str = "") -> None:
        """One DEBUG line per run, its drawing seconds summed over blocks like
        the stage seconds; the workers are those of the widest pass, and
        ``stop`` ends a convergence run's line with the output that decided
        its stop. A convergence run's moment seconds also hold its
        stopping-rule folds and the sums of the block where the rule fired."""
        stages = ", ".join(f"{t:.3g} s {name}" for name, t in zip(self.STAGES, self.stage_s))
        log.debug("popf: %.3g s drawing, %.3g s in the block pass (over blocks: %s); "
                  "%d rows drawn, %d used; %d block workers%s",
                  self.draw_s, self.pass_s, stages, self.drawn, used,
                  workers(self.widest), stop)


# ---------------------------------------------------------------------------
# statistics


def compute_statistics(values: np.ndarray) -> Statistics:
    """Column means and sample stds, from the shifted sums of consecutive
    ``BLOCK_ROWS`` slices merged in block order (see ``_merge_moments``), so
    the bits equal those of ``run_popf``'s block-pass moments."""
    values = np.ascontiguousarray(np.atleast_2d(np.asarray(values, dtype=float)))
    if values.shape[0] < 2:
        raise ValueError("need at least 2 samples for statistics")
    return _merge_moments([_shifted_sums(values[start:start + BLOCK_ROWS])
                           for start in range(0, len(values), BLOCK_ROWS)])


def _shifted_sums(rows: np.ndarray, scratch: np.ndarray | None = None):
    """A block's row count, shift (its first row), and the column sums of
    ``rows - shift`` and of its squares; ``rows - shift`` goes to ``scratch``
    (``rows`` itself allowed) when given."""
    shift = rows[0].copy()
    d = np.subtract(rows, shift, out=scratch)
    return len(rows), shift, np.einsum("ij->j", d), np.einsum("ij,ij->j", d, d)


def _merge_moments(blocks) -> Statistics:
    """Means and sample stds from ``_shifted_sums`` of consecutive blocks,
    merged one block at a time in block order by the pairwise update of
    Chan, Golub & LeVeque (Amer. Stat. 37(3), 1983). Means are merged as
    offsets from the first row, so their rounding follows the spread, not
    the mean; a constant column has std exactly 0."""
    origin = blocks[0][1]
    n = 0
    for count, shift, s1, s2 in blocks:
        block_mean = (shift - origin) + s1 / count
        block_m2 = np.maximum(s2 - s1 * s1 / count, 0.0)
        if n == 0:
            mean, m2 = block_mean, block_m2
        else:
            delta = block_mean - mean
            mean = mean + delta * (count / (n + count))
            m2 = m2 + block_m2 + delta * delta * (n * count / (n + count))
        n += count
    return Statistics(mean=origin + mean, std=np.sqrt(m2 / (n - 1)))


def rule_terms(n, shift, s1, s2, threshold: float):
    """The standard error of the mean of n rows whose sums of ``x - shift``
    and its squares are s1 and s2 (variance 0 for one row), and its limit:
    ``threshold * |mean|``, or ``threshold`` where ``|mean| < ZERO_MEAN``."""
    mean = s1 / n + shift
    var = np.maximum(s2 - s1 ** 2 / n, 0.0) / np.maximum(n - 1, 1)
    limit = np.where(np.abs(mean) < ZERO_MEAN, threshold, threshold * np.abs(mean))
    return np.sqrt(var / n), limit


def fold_convergence(sums, rows, threshold: float) -> tuple:
    """Fold an (n, d) block into the carried ``(count, shift, s1, s2)`` sums
    (None before the stream's first row, which becomes ``shift``) up to the
    first row, from the second, where every index's standard error is within
    its limit (``rule_terms``; Billinton & Li, 1994); return the rows folded,
    whether the test held, and the new sums. One ``cumsum`` over the carried
    sums stacked on the block gives the same bits for any cuts of a stream."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or sums is not None and rows.shape[1] != len(sums[1]):
        raise ValueError(f"expected rows as wide as the sums, got {rows.shape}")
    if not len(rows):
        return 0, False, sums
    count, shift, s1, s2 = sums or (0, rows[0].copy(), np.zeros(rows.shape[1]),
                                    np.zeros(rows.shape[1]))
    shifted = rows - shift
    s1 = np.cumsum(np.vstack([s1, shifted]), axis=0)[1:]
    s2 = np.cumsum(np.vstack([s2, shifted ** 2]), axis=0)[1:]
    n = np.arange(count + 1, count + len(rows) + 1)[:, None]
    stderr, limit = rule_terms(n, shift, s1, s2, threshold)
    fired = np.flatnonzero(np.all(stderr <= limit, axis=1) & (n[:, 0] > 1))
    used = int(fired[0]) + 1 if fired.size else len(rows)
    return used, bool(fired.size), (count + used, shift, s1[used - 1].copy(), s2[used - 1].copy())


def histogram_densities(columns, bins: int):
    """Unit-area histogram densities of several columns over shared bins.

    Returns the bin edges, spanning the smallest to the largest value of all
    columns, and one density array per column. A range too narrow for
    ``bins`` bins of finite width and density (a few ulps, or subnormal) is
    one bin holding all the mass, as a constant column is.
    """
    lo = min(np.min(c) for c in columns)
    hi = max(np.max(c) for c in columns)
    if lo != hi:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                edges = np.histogram_bin_edges([], bins=bins, range=(lo, hi))
                return edges, [np.histogram(c, bins=edges, density=True)[0] for c in columns]
        except (ValueError, FloatingPointError):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise
    if hi - lo < 0.5:
        # degenerate range: all mass in one unit-width bin
        return np.array([lo - 0.5, lo + 0.5]), [np.array([1.0]) for _ in columns]
    return np.array([lo, hi]), [np.array([1.0 / (hi - lo)]) for _ in columns]


# ---------------------------------------------------------------------------
# error metrics


def error_metrics(reference: np.ndarray, candidate: np.ndarray,
                  case: NetworkCase) -> ErrorMetrics:
    """Relative mean/std errors and pooled exceedance probabilities.

    ``reference`` and ``candidate`` must be seed-matched sample sets of equal
    shape: row i of both came from the same operating condition. Means and
    stds are ``compute_statistics``, the moments a report states.
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape:
        raise DimensionMismatch(f"reference {reference.shape} vs candidate {candidate.shape}")

    stats0 = compute_statistics(reference)
    stats1 = compute_statistics(candidate)
    e_mean, mean_flags = _relative_error(stats0.mean, stats1.mean)
    e_std, std_flags = _relative_error(stats0.std, stats1.std)

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
    its "Type: message"; TooManyRejections is raised when fewer than two rows
    survive. The surrogate's rows go through ``run_popf``'s block pass, and
    its time is the pass's inference stage summed over blocks; the other
    timings wrap each method's solve loop only.

    ``self_check`` substitutes the oracle's own outputs for the surrogate's
    (no inference): every surrogate error column must then come out zero,
    which exercises the metric plumbing end to end.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2 for statistics")
    _check_fits(model, case)
    draw = sample_operating_conditions(case, n_samples, spec, seed).values
    labels = output_labels(case)

    work = _OracleWork()
    t0 = time.perf_counter()
    block = oracle_block(case, draw)
    oracle_time = time.perf_counter() - t0
    work.add(block)
    work.log("compare")
    if work.solves < 2:
        raise TooManyRejections(f"{work.failed} of {n_samples} oracle samples failed; "
                                "fewer than 2 are left to compare")
    oracle_vals, kept = block.values, draw[block.solved]
    stats = {METHOD_ORACLE: compute_statistics(oracle_vals)}

    if self_check:
        surrogate_vals, surrogate_time = oracle_vals, 0.0
        stats[METHOD_SURROGATE] = stats[METHOD_ORACLE]
    else:
        run = _SurrogatePass(model, case)
        surrogate_vals, sums = run.samples(len(kept), lambda start, stop: kept[start:stop])
        stats[METHOD_SURROGATE] = _merge_moments(sums)
        surrogate_time = run.stage_s[run.STAGES.index("inferring")]

    t3 = time.perf_counter()
    dc_vals = _dc_only_outputs(case, kept)
    dc_time = time.perf_counter() - t3

    method_values = {METHOD_ORACLE: oracle_vals, METHOD_SURROGATE: surrogate_vals,
                     METHOD_DC_ONLY: dc_vals}
    stats[METHOD_DC_ONLY] = compute_statistics(dc_vals)
    errors = {m: error_metrics(oracle_vals, method_values[m], case)
              for m in (METHOD_SURROGATE, METHOD_DC_ONLY)}
    timings = {METHOD_ORACLE: oracle_time, METHOD_SURROGATE: surrogate_time,
               METHOD_DC_ONLY: dc_time}

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
