"""Row blocks: sampling, inference and the fused surrogate pass of ``popf``
and ``compare`` give the same bytes for any worker count, every row is
covered once, blocks are prepared in block order on the calling thread with
few in flight, only the pass starts threads, and a block's error reaches the
caller without hanging the pass."""

import sys
import threading

import numpy as np
import pytest

from popflow import pipeline, rowblocks, sdae
from popflow.errors import NonFiniteLoss
from popflow.pipeline import (INFER_CHUNK, compare_methods, compute_statistics, infer,
                              operating_features, run_popf)
from popflow.sampling import CorrelationSpec, SampleStream, sample_operating_conditions

from conftest import solution_dim

ROW_COUNTS = (1, 511, 513, 4095, 4097, 12345)
# a constant, an all-zero and two ranged output columns, out of order
KEPT_COLUMNS = [17, 3, 0, 4]
README_CORRELATION = {"area_loads": [[1.0, 0.6], [0.6, 1.0]]}


@pytest.fixture(scope="module")
def case14_model(case14):
    """A random network over case14's features, with a constant and an
    all-zero output column so that every denormalization branch runs."""
    spec = CorrelationSpec.for_case(case14, README_CORRELATION)
    x = operating_features(case14, sample_operating_conditions(case14, 2000, spec, 1).values)
    rng = np.random.Generator(np.random.PCG64(5))
    model = sdae.init_model(x.shape[1], (16, 24), solution_dim(case14), 0.0, rng)
    for layer in model.layers:
        layer.b = rng.uniform(-0.5, 0.5, layer.b.shape)
    model.x_lo, model.x_hi = sdae.fit_bounds(x)
    model.y_lo = rng.uniform(-1.0, 0.0, solution_dim(case14))
    model.y_hi = model.y_lo + rng.uniform(0.5, 2.0, solution_dim(case14))
    model.y_hi[3] = model.y_lo[3]
    model.y_lo[4] = model.y_hi[4] = 0.0
    return spec, model


def with_workers(monkeypatch, n):
    """n usable cores and a single-threaded BLAS: n threads for the block pass."""
    monkeypatch.setattr(rowblocks, "_usable_cores", lambda: n)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def test_blocks_lie_on_the_inference_grid():
    assert rowblocks.BLOCK_ROWS % INFER_CHUNK == 0


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_sampling_and_inference_bytes_do_not_depend_on_the_worker_count(
        case14, case14_model, monkeypatch, n):
    """1, 2 and 3 workers (more than this machine may have cores) give the
    same bytes, and so do the fused block pass of ``run_popf`` and its
    moments; a short switch interval makes the threads interleave often."""
    spec, model = case14_model
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_workers in (1, 2, 3):
            with_workers(monkeypatch, n_workers)
            values = sample_operating_conditions(case14, n, spec, seed=17).values
            inferred = infer(model, operating_features(case14, values))
            run = run_popf(model, case14, n_samples=n, spec=spec, seed=17)
            stats = (run.stats.mean.tobytes() + run.stats.std.tobytes()) if n > 1 else b""
            results.append((values.tobytes(), inferred.tobytes(), run.values.tobytes(), stats))
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[0]
    assert results[2] == results[0]
    # the fused pass computes the rows of drawing, featurizing and inferring apart
    assert results[0][2] == results[0][1]


def test_compare_surrogate_rows_keep_their_bytes(case14, case14_model, monkeypatch):
    """``compare`` sends the rows the oracle kept, three blocks of them,
    through the block pass: for 1, 2 and 3 workers the surrogate values are
    ``infer`` of their features, and its stats ``compute_statistics`` of
    them, bit for bit."""
    spec, model = case14_model
    n = 2 * rowblocks.BLOCK_ROWS + 300
    candidates = []
    real_error_metrics = pipeline.error_metrics

    def recording_error_metrics(reference, candidate, case):
        candidates.append(candidate)
        return real_error_metrics(reference, candidate, case)

    monkeypatch.setattr(pipeline, "error_metrics", recording_error_metrics)
    draw = sample_operating_conditions(case14, n, spec, seed=8).values
    for n_workers in (1, 2, 3):
        with_workers(monkeypatch, n_workers)
        candidates.clear()
        report = compare_methods(case14, model, spec, seed=8, n_samples=n)
        kept = np.delete(draw, list(report.failures), axis=0)
        assert len(kept) > 2 * rowblocks.BLOCK_ROWS
        values = candidates[0]
        assert values.tobytes() == infer(model, operating_features(case14, kept)).tobytes()
        stats, want = report.stats["surrogate"], compute_statistics(values)
        assert stats.mean.tobytes() == want.mean.tobytes()
        assert stats.std.tobytes() == want.std.tobytes()


def test_inference_equals_the_chunked_forward_pass(case14, case14_model, monkeypatch):
    """Inference over blocks gives the bits of running ``forward`` on the
    model's scaling-folded ``inference_copy`` over consecutive INFER_CHUNK
    slices of the raw inputs."""
    spec, model = case14_model
    with_workers(monkeypatch, 2)
    x = operating_features(case14, sample_operating_conditions(case14, 9000, spec, 3).values)
    net = sdae.inference_copy(model)
    want = np.vstack([sdae.forward(net, x[i:i + INFER_CHUNK])[0]
                      for i in range(0, len(x), INFER_CHUNK)])
    assert infer(model, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_workers,expect_pool", [(1, False), (3, True)])
def test_blocks_cover_each_row_once(monkeypatch, n_workers, expect_pool):
    with_workers(monkeypatch, n_workers)
    seen = []
    rowblocks.for_each_block(
        12345, lambda start, stop: seen.append((start, stop, threading.current_thread())))
    b = rowblocks.BLOCK_ROWS
    assert sorted((start, stop) for start, stop, _ in seen) == [
        (0, b), (b, 2 * b), (2 * b, 3 * b), (3 * b, 12345)]
    on_pool = [thread is not threading.main_thread() for _, _, thread in seen]
    assert all(on_pool) if expect_pool else not any(on_pool)


@pytest.mark.parametrize("n_workers", [1, 3])
def test_blocks_are_prepared_in_block_order_on_the_calling_thread(monkeypatch, n_workers):
    """``prepare`` runs on the calling thread in block order, its result
    reaches the block's work, and no more blocks than two per worker plus
    the one being prepared are prepared and not yet done."""
    with_workers(monkeypatch, n_workers)
    b = rowblocks.BLOCK_ROWS
    lock = threading.Lock()
    prepared, in_flight, most = [], [0], [0]

    def prepare(start, stop):
        prepared.append((start, threading.current_thread()))
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        return -start

    def work(start, stop, value):
        with lock:
            in_flight[0] -= 1
        return start, value

    results = rowblocks.for_each_block(11 * b + 3, work, prepare)
    assert results == [(start, -start) for start in range(0, 12 * b, b)]
    assert [start for start, _ in prepared] == list(range(0, 12 * b, b))
    assert all(thread is threading.main_thread() for _, thread in prepared)
    assert most[0] <= 2 * n_workers + 1


def test_block_results_come_back_in_block_order(monkeypatch):
    with_workers(monkeypatch, 3)
    b = rowblocks.BLOCK_ROWS
    assert rowblocks.for_each_block(4 * b + 5, lambda start, stop: (start, stop)) == [
        (0, b), (b, 2 * b), (2 * b, 3 * b), (3 * b, 4 * b), (4 * b, 4 * b + 5)]


def test_only_the_block_pass_starts_threads(case14, case14_model, monkeypatch):
    """Drawing, inference and statistics run on the calling thread even
    where the block pass of ``compare_methods`` and ``run_popf`` gets three
    workers."""
    spec, model = case14_model
    with_workers(monkeypatch, 3)
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    n = 3 * rowblocks.BLOCK_ROWS + 1
    values = sample_operating_conditions(case14, n, spec, seed=6).values
    inferred = infer(model, operating_features(case14, values))
    compute_statistics(inferred)
    assert started == []
    compare_methods(case14, model, spec, seed=6, n_samples=rowblocks.BLOCK_ROWS + 300)
    assert started and all(name.startswith("popflow-rows") for name in started)
    started.clear()
    run_popf(model, case14, n_samples=n, spec=spec, seed=6)
    assert started


def test_a_single_block_runs_inline(monkeypatch):
    with_workers(monkeypatch, 3)
    seen = []
    rowblocks.for_each_block(rowblocks.BLOCK_ROWS, lambda start, stop: seen.append(
        (start, stop, threading.current_thread())))
    assert seen == [(0, rowblocks.BLOCK_ROWS, threading.main_thread())]
    assert rowblocks.workers(rowblocks.BLOCK_ROWS) == 1


@pytest.mark.parametrize("variables,blas_workers", [
    ({}, 1),                                                  # BLAS on every core
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
    ({"MKL_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x"}, 1),  # neither counts
])
def test_blas_work_gets_one_thread_per_blas_team(monkeypatch, variables, blas_workers):
    monkeypatch.setattr(rowblocks, "_usable_cores", lambda: 4)
    for name in rowblocks._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in variables.items():
        monkeypatch.setenv(name, value)
    assert rowblocks.workers(10 * rowblocks.BLOCK_ROWS) == blas_workers


def test_a_block_error_reaches_the_caller_unchanged(monkeypatch):
    with_workers(monkeypatch, 3)
    error = FloatingPointError("block 3 failed")

    def work(start, stop):
        if start == 2 * rowblocks.BLOCK_ROWS:
            raise error

    with pytest.raises(FloatingPointError) as raised:
        rowblocks.for_each_block(5 * rowblocks.BLOCK_ROWS, work)
    assert raised.value is error


def test_an_inference_worker_error_reaches_the_caller_unchanged(case14, case14_model, monkeypatch):
    """A domain error raised on a pool thread of ``run_popf``'s block pass,
    which infers, keeps its type, so the CLI still turns it into exit code 1."""
    spec, model = case14_model
    with_workers(monkeypatch, 2)
    error = NonFiniteLoss("kernel failed")
    run_layers = sdae._run_layers

    def failing_run_layers(*args):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return run_layers(*args)

    monkeypatch.setattr(sdae, "_run_layers", failing_run_layers)
    with pytest.raises(NonFiniteLoss) as raised:
        run_popf(model, case14, n_samples=3 * rowblocks.BLOCK_ROWS, spec=spec, seed=4)
    assert raised.value is error


def run_in_daemon(call, timeout=120.0):
    """``call()`` on a daemon thread joined with a timeout, so that a hang
    fails the test instead of stalling the suite; its exception or result."""
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except Exception as exc:  # handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"the call did not return within {timeout} s"
    return outcome


@pytest.mark.parametrize("stage", ["normals", "_transform_rows"])
def test_a_failing_block_cannot_hang_the_pass(case14, case14_model, monkeypatch, stage):
    """The second of five blocks raises while its normals are drawn (on the
    calling thread) or transformed (on a worker), with three workers:
    ``run_popf`` raises that exception unchanged and returns."""
    spec, model = case14_model
    with_workers(monkeypatch, 3)
    error = FloatingPointError(f"{stage} of the second block failed")
    real = getattr(SampleStream, stage)
    calls = []
    lock = threading.Lock()

    def failing(self, arg):
        with lock:
            calls.append(arg)
            second = len(calls) == 2
        if second:
            raise error
        return real(self, arg)

    monkeypatch.setattr(SampleStream, stage, failing)
    outcome = run_in_daemon(lambda: run_popf(model, case14, n_samples=5 * rowblocks.BLOCK_ROWS,
                                             spec=spec, seed=4))
    assert outcome.get("error") is error


def test_blocks_that_fail_inferring_give_their_buffers_back(case14, case14_model, monkeypatch):
    """With two workers and three blocks, the first block waits in its
    transform until the other two have raised while inferring, each holding
    an output buffer; it then finds a buffer of its own, and its error, not
    a lost buffer's, reaches the caller."""
    spec, model = case14_model
    with_workers(monkeypatch, 2)
    error = NonFiniteLoss("kernel failed")
    first_normals, failures, lock = [], [], threading.Lock()
    others_failed = threading.Event()
    real_normals, real_transform = SampleStream.normals, SampleStream._transform_rows

    def normals(self, n):
        z = real_normals(self, n)
        if not first_normals:
            first_normals.append(z)
        return z

    def transform(self, z):
        if z is first_normals[0]:
            assert others_failed.wait(60), "the later blocks did not fail"
        return real_transform(self, z)

    def failing_run_layers(*args):
        with lock:
            failures.append(args)
            if len(failures) == 2:
                others_failed.set()
        raise error

    monkeypatch.setattr(SampleStream, "normals", normals)
    monkeypatch.setattr(SampleStream, "_transform_rows", transform)
    monkeypatch.setattr(sdae, "_run_layers", failing_run_layers)
    outcome = run_in_daemon(lambda: run_popf(model, case14, n_samples=3 * rowblocks.BLOCK_ROWS,
                                             spec=spec, seed=4))
    assert outcome.get("error") is error, outcome
    assert len(failures) == 3


@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 3 * rowblocks.BLOCK_ROWS + 5])
def test_popf_kept_columns_and_stats_have_the_bytes_of_full_rows(case14, case14_model,
                                                                 monkeypatch, n, n_workers):
    """A run keeping some columns, each block drawing its own normals, gives
    the bytes of ``infer`` on the features of ``sample_operating_conditions``
    in those columns, and stats of ``compute_statistics`` of the full rows;
    a run keeping every column gives the full rows. The workers share their
    output buffers, so a short switch interval makes them interleave often."""
    spec, model = case14_model
    with_workers(monkeypatch, n_workers)
    full = infer(model, operating_features(
        case14, sample_operating_conditions(case14, n, spec, seed=21).values))

    def run(columns):
        outcome = run_in_daemon(lambda: run_popf(model, case14, n_samples=n, spec=spec,
                                                 seed=21, columns=columns))
        assert "error" not in outcome, outcome
        return outcome["result"]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        kept, every = run(KEPT_COLUMNS), run(None)
    finally:
        sys.setswitchinterval(interval)
    assert kept.values.tobytes() == full[:, KEPT_COLUMNS].tobytes()
    assert every.values.tobytes() == full.tobytes()
    if n > 1:
        want = compute_statistics(full)
        for result in (kept, every):
            assert result.stats.mean.tobytes() == want.mean.tobytes()
            assert result.stats.std.tobytes() == want.std.tobytes()
    else:
        assert kept.stats is None and every.stats is None
