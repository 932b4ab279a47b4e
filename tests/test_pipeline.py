"""Pipeline orchestration: features, dataset generation, training wrapper,
batched inference, statistics, error metrics, and method comparison."""

import logging
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from popflow import pipeline, rowblocks, sdae
from popflow.errors import (DimensionMismatch, TooManyRejections,
                            ValidationError)
from popflow.grid import SRC_PV, SRC_WIND, StochasticSource, bundled_case
from popflow.pipeline import (EXCEEDANCE_THRESHOLDS, compare_methods,
                              compute_statistics, error_metrics, feature_labels,
                              generate_training_data, histogram_densities,
                              infer, load_dataset, operating_features,
                              output_labels, run_popf, save_dataset,
                              save_report, split_indices, train_popf_model)
from popflow.sampling import (LABEL_BRANCH, CorrelationSpec, SampleStream,
                              sample_operating_conditions)
from popflow.solver import bus_loads, oracle_block, oracle_opf

from conftest import (apply_sample_reference, gaussian_source, make_branch,
                      make_bus, make_case, make_gen, stall_dispatch,
                      two_bus_case)


@pytest.fixture(scope="module")
def tiny_trained():
    """Small surrogate trained on the two-bus case, shared by this module."""
    case = two_bus_case()
    dataset = generate_training_data(case, 600, seed=5)
    cfg = sdae.TrainConfig(hidden_sizes=(8,), epochs_unsup=20, epochs_sup=120,
                           batch_size=100, patience=120, corruption_level=0.05,
                           eta_sup=2e-3, seed=3)
    model, history, _ = train_popf_model(dataset, cfg)
    return case, dataset, cfg, model, history


# ---------------------------------------------------------------------------
# features


def test_features_match_per_sample_application(case14):
    draw = sample_operating_conditions(case14, 20, None, seed=1)
    x = operating_features(case14, draw.values)
    pq = case14.pq_indices()
    for i, row in enumerate(draw.values):
        p_load, q_load = apply_sample_reference(case14, row)
        assert np.array_equal(x[i, : len(pq)], p_load[pq])
        assert np.array_equal(x[i, len(pq):], q_load[pq])


@st.composite
def stacked_source_cases(draw):
    """A ring of 2 to 4 PQ buses behind a slack bus, with a Gaussian load and
    one or two wind or PV plants on one PQ bus (in any order), maybe a source
    on another, and 1 or 2 to 9 rows of samples."""
    n_pq = draw(st.integers(2, 4))
    buses = [make_bus(0, "slack")] + [make_bus(i, "pq", p=0.1 * i, q=0.02 * i)
                                      for i in range(1, n_pq + 1)]
    target = draw(st.integers(1, n_pq))
    stacked = [gaussian_source(target, 0.3, 0.05, pf=draw(st.floats(0.5, 1.0)))]
    stacked += [StochasticSource(bus=target, kind=kind, params={})
                for kind in draw(st.lists(st.sampled_from([SRC_WIND, SRC_PV]),
                                          min_size=1, max_size=2))]
    sources = draw(st.permutations(stacked))
    if draw(st.booleans()):
        sources.append(StochasticSource(bus=draw(st.integers(1, n_pq)), kind=SRC_PV,
                                        params={}))
    case = make_case(buses=buses, branches=[make_branch(i - 1, i) for i in range(1, n_pq + 1)],
                     generators=[make_gen(0)], sources=sources)
    n = draw(st.sampled_from([1, draw(st.integers(2, 9))]))
    flat = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * len(sources),
                         max_size=n * len(sources)))
    return case, np.array(flat).reshape(n, len(sources))


@settings(max_examples=80, deadline=None)
@given(stacked_source_cases())
def test_one_pass_features_are_the_pq_columns_of_bus_loads(case_and_samples):
    """Features written in one pass are the PQ columns of bus_loads, bit for
    bit, when several sources share a bus."""
    case, samples = case_and_samples
    pq = case.pq_indices()
    p, q = bus_loads(case, samples)
    want = np.hstack([p[:, pq], q[:, pq]])
    assert operating_features(case, samples).tobytes() == want.tobytes()


def test_features_reject_source_on_non_pq_bus():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.5)],
        branches=[make_branch(0, 1)],
        generators=[make_gen(0)],
        sources=[gaussian_source(0, 0.1, 0.01)],  # on the slack bus
    )
    with pytest.raises(ValidationError, match="not PQ"):
        operating_features(case, np.array([[0.1]]))


def test_feature_width_is_twice_pq_count(case14):
    draw = sample_operating_conditions(case14, 3, None, seed=0)
    x = operating_features(case14, draw.values)
    assert x.shape[1] == 2 * len(case14.pq_indices())


# ---------------------------------------------------------------------------
# training data


def test_stalled_dispatch_counts_as_dropped(monkeypatch):
    """A dispatch that hits its round cap drops the sample, and another row
    replaces it."""
    stall_dispatch(monkeypatch, stalled=lambda call: call == 1)
    ds = generate_training_data(two_bus_case(), 20, seed=4)
    assert ds.n_rows == 20
    assert ds.provenance["dropped"] == 1


def count_oracle_blocks(monkeypatch):
    """Count the pipeline's ``oracle_block`` calls (the calls still run)."""
    calls = []
    real = pipeline.oracle_block
    monkeypatch.setattr(pipeline, "oracle_block",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def test_unobservable_source_refused_before_labelling(monkeypatch, case14):
    """A source on a PV bus is refused before the oracle labels any row."""
    calls = count_oracle_blocks(monkeypatch)
    pv = next(b.id for b in case14.buses if b.kind == "pv")
    case = replace(case14, sources=(replace(case14.sources[0], bus=pv), *case14.sources[1:]))
    with pytest.raises(ValidationError, match="not PQ"):
        generate_training_data(case, 500, seed=1)
    assert calls == []


def test_replacement_rows_continue_the_label_stream(monkeypatch):
    """The replacement for a dropped sample is the next row of the label
    stream the dataset is drawn from."""
    stall_dispatch(monkeypatch, stalled=lambda call: call == 1)
    case = two_bus_case()
    ds = generate_training_data(case, 20, seed=4)
    assert ds.provenance["dropped"] == 1
    labels = SampleStream(case, None, 4, LABEL_BRANCH).draw(21).values
    assert ds.samples.tobytes() == labels[1:].tobytes()


def test_datasets_nest_with_a_dropped_row(monkeypatch):
    """An n-row dataset is the first n rows of a longer one at the same seed,
    also when a row is dropped and replaced."""
    datasets = []
    for n in (40, 70):
        with monkeypatch.context() as mp:
            stall_dispatch(mp, stalled=lambda call: call == 1)
            datasets.append(generate_training_data(bundled_case("case14"), n, seed=9))
    short, long = datasets
    assert short.provenance["dropped"] == long.provenance["dropped"] == 1
    for name in ("samples", "x", "y"):
        assert getattr(short, name).tobytes() == getattr(long, name)[:40].tobytes(), name


def test_label_draw_shares_no_row_with_the_monte_carlo_draw(case14):
    """gen-data labels rows that popf and compare never draw at one seed."""
    spec = CorrelationSpec.for_case(case14, {"area_loads": [[1.0, 0.6], [0.6, 1.0]]})
    ds = generate_training_data(case14, 300, 11, spec)
    mcs = sample_operating_conditions(case14, 3000, spec, 11).values
    assert not {tuple(r) for r in ds.samples} & {tuple(r) for r in mcs}


def assert_layer_seconds(line):
    """The oracle line ends with the seconds spent dispatching and in Newton."""
    match = re.search(r"; (\S+) s dispatching, (\S+) s in Newton$", line)
    assert match, line
    assert all(float(t) >= 0.0 for t in match.groups())


def test_oracle_work_goes_to_the_debug_log(caplog, monkeypatch):
    stall_dispatch(monkeypatch, stalled=lambda call: call == 1)
    with caplog.at_level(logging.DEBUG, logger="popflow"):
        ds = generate_training_data(two_bus_case(), 30, seed=6)
    [line] = [r.getMessage() for r in caplog.records if r.name == "popflow"]
    # the first solve stalls, the second runs the active-set iteration (one
    # round: the single generator's KKT target is the balance point), and
    # the rest reuse the set it found; the first draw and the one replacement
    # row each run one Newton sub-block
    assert line.startswith("gen-data: 30 oracle solves, 29 warm dispatch hits, "
                           "1 active-set fallbacks, ")
    assert ", 1 active-set rounds, " in line
    assert " Newton iterations per solve, 2 Newton sub-blocks, drops {'DispatchStalled': 1}; " \
        in line
    assert_layer_seconds(line)
    assert ds.provenance["dropped"] == 1
    assert set(ds.provenance) == {"case_hash", "seed", "n", "dropped", "oracle"}


def test_oracle_sub_blocks_go_to_the_debug_log(caplog, tmp_path):
    """case14 Newton runs 65 rows per sub-block; compare logs its own pass."""
    case = bundled_case("case14")
    with caplog.at_level(logging.DEBUG, logger="popflow"):
        generate_training_data(case, 131, seed=6)
        rng = np.random.Generator(np.random.PCG64(0))
        model = sdae.init_model(len(feature_labels(case)), (4,), case.solution_dim(), 0.0, rng)
        report = compare_methods(case, model, seed=7, n_samples=65, self_check=True)
    lines = [r.getMessage() for r in caplog.records if r.name == "popflow"]
    gen_data, compare = [line for line in lines if "oracle solves" in line]
    assert gen_data.startswith("gen-data: 131 oracle solves, ")
    assert ", 3 Newton sub-blocks, drops {}; " in gen_data
    assert compare.startswith("compare: 65 oracle solves, 65 warm dispatch hits, ")
    assert ", 1 Newton sub-blocks, drops {}; " in compare
    for line in (gen_data, compare):
        assert_layer_seconds(line)
    assert report.dropped == 0 and report.failures == {}
    save_report(report, tmp_path)
    saved = (tmp_path / "report.json").read_text()
    assert "dispatch" not in saved and "newton" not in saved.lower()


def test_zero_variance_dataset_rows_identical():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.5)],
        branches=[make_branch(0, 1)],
        generators=[make_gen(0, p_max=2.0, a=1.0, b=10.0)],
        sources=[gaussian_source(1, 0.5, 0.0)],
    )
    ds = generate_training_data(case, 10, seed=0)
    assert np.all(ds.x == ds.x[0])
    assert np.all(ds.y == ds.y[0])
    assert ds.provenance["dropped"] == 0


def test_dataset_reproducible(case14):
    a = generate_training_data(case14, 40, seed=9)
    b = generate_training_data(case14, 40, seed=9)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.provenance == b.provenance


def test_dataset_rows_reverify_against_oracle(case14):
    ds = generate_training_data(case14, 25, seed=2)
    for row, y in zip(ds.samples, ds.y):
        again = oracle_opf(case14, row).as_vector()
        assert np.allclose(again, y, atol=1e-10)


def test_too_many_rejections():
    # load mean far beyond generation capacity: every dispatch is infeasible
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=5.0)],
        branches=[make_branch(0, 1)],
        generators=[make_gen(0, p_max=1.0)],
        sources=[gaussian_source(1, 5.0, 0.01)],
    )
    with pytest.raises(TooManyRejections):
        generate_training_data(case, 10, seed=0)


def test_dataset_files_round_trip(tmp_path, case14):
    ds = generate_training_data(case14, 15, seed=4)
    save_dataset(ds, tmp_path / "ds", case14)
    again = load_dataset(tmp_path / "ds")
    assert np.array_equal(again.x, ds.x)
    assert np.array_equal(again.y, ds.y)
    assert np.array_equal(again.samples, ds.samples)
    assert again.provenance == ds.provenance


def _read_matrix_per_float(path):
    """The dataset parser as a loop of float() calls over the lines."""
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    return np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])


def test_read_matrix_equals_the_per_float_parse(tmp_path, case14):
    """Dataset files parse to the bits float() gives, a one-row file included."""
    for n in (40, 1):
        ds = generate_training_data(case14, n, seed=12)
        save_dataset(ds, tmp_path / str(n), case14)
        for name in ("X.tsv", "Y.tsv", "samples.tsv"):
            path = tmp_path / str(n) / name
            got, want = pipeline._read_matrix(path), _read_matrix_per_float(path)
            assert got.shape == want.shape == (n, want.shape[1])
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# training wrapper


def test_split_matches_documented_ratio():
    train_idx, val_idx = split_indices(60_000, seed=0)
    assert len(train_idx) == 50_000
    assert len(val_idx) == 10_000
    assert sorted(np.concatenate([train_idx, val_idx])) == list(range(60_000))


def test_trained_bounds_equal_training_split_minmax(tiny_trained):
    case, dataset, cfg, model, _ = tiny_trained
    train_idx, _ = split_indices(dataset.n_rows, cfg.seed)
    assert np.array_equal(model.x_lo, dataset.x[train_idx].min(axis=0))
    assert np.array_equal(model.x_hi, dataset.x[train_idx].max(axis=0))
    assert np.array_equal(model.y_lo, dataset.y[train_idx].min(axis=0))
    assert np.array_equal(model.y_hi, dataset.y[train_idx].max(axis=0))


def test_trained_weights_are_widened_float32(tiny_trained):
    model = tiny_trained[3]
    for p in sdae.model_params(model):
        assert p.dtype == np.float64
        assert np.array_equal(p, p.astype(np.float32).astype(np.float64))


def test_retraining_reproduces_checkpoint(tmp_path, tiny_trained):
    case, dataset, cfg, model, _ = tiny_trained
    again, _, _ = train_popf_model(dataset, cfg)
    sdae.save_model(model, tmp_path / "a.ckpt")
    sdae.save_model(again, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_training_requires_enough_rows():
    case = two_bus_case()
    ds = generate_training_data(case, 30, seed=1)
    with pytest.raises(ValueError, match="rows"):
        train_popf_model(ds, sdae.TrainConfig(batch_size=100))


# ---------------------------------------------------------------------------
# inference


def test_run_popf_batch_of_one_consistency(tiny_trained):
    case, _, _, model, _ = tiny_trained
    result = run_popf(model, case, n_samples=1, seed=77)
    draw = sample_operating_conditions(case, 1, None, seed=77)
    direct = infer(model, operating_features(case, draw.values))
    assert np.array_equal(result.values, direct)


def test_infer_partition_invariance(tiny_trained):
    case, _, _, model, _ = tiny_trained
    draw = sample_operating_conditions(case, 1000, None, seed=31)
    x = operating_features(case, draw.values)
    whole = infer(model, x)
    parts = np.vstack([infer(model, x[k * 100:(k + 1) * 100]) for k in range(10)])
    assert np.array_equal(whole, parts)


def test_run_popf_dimension_mismatch(tiny_trained, case14):
    _, _, _, model, _ = tiny_trained
    with pytest.raises(DimensionMismatch):
        run_popf(model, case14, n_samples=5, seed=0)


def test_run_popf_convergence_zero_variance():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.5)],
        branches=[make_branch(0, 1)],
        generators=[make_gen(0, p_max=2.0, a=1.0, b=10.0)],
        sources=[gaussian_source(1, 0.5, 0.0)],
    )
    ds = generate_training_data(case, 220, seed=1)
    cfg = sdae.TrainConfig(hidden_sizes=(4,), epochs_unsup=5, epochs_sup=10,
                           batch_size=100, patience=10, corruption_level=0.0, seed=0)
    model, _, _ = train_popf_model(ds, cfg)
    result = run_popf(model, case, spec=None, seed=3, converge=True, max_samples=500)
    assert result.converged
    assert result.n_samples == 2  # cv is exactly zero once two samples agree


def test_run_popf_sample_cap_is_not_convergence(tiny_trained):
    """Stopping at max_samples, before the cv test holds, reports converged False."""
    case, _, _, model, _ = tiny_trained
    result = run_popf(model, case, seed=3, converge=True, cv_threshold=1e-4, max_samples=50)
    assert result.n_samples == 50
    assert result.converged is False


@pytest.mark.parametrize("threshold, cap", [(0.002, 50_000), (1e-4, 5_000), (1e-4, 100)])
def test_run_popf_converge_equals_one_draw(tiny_trained, threshold, cap):
    """Drawing block by block returns the rows of a single draw of the used
    length, whether the rule fires after the first 2,048 rows or the cap stops
    the run."""
    case, _, _, model, _ = tiny_trained
    result = run_popf(model, case, seed=8, converge=True, cv_threshold=threshold,
                      max_samples=cap)
    n_used = result.n_samples
    assert result.converged == (n_used < cap)
    assert n_used > pipeline.INFER_CHUNK * 4 or cap == 100
    draw = sample_operating_conditions(case, n_used, None, 8)
    assert np.array_equal(result.values, infer(model, operating_features(case, draw.values)))


def test_a_converge_run_allocates_its_block_buffers_once(tiny_trained, monkeypatch):
    """A convergence run passes one block at a time, and the buffers of its
    first block serve the later ones: three blocks, one allocation."""
    case, _, _, model, _ = tiny_trained
    made, real = [], pipeline._layer_buffers
    monkeypatch.setattr(pipeline, "_layer_buffers",
                        lambda net, rows: made.append(rows) or real(net, rows))
    cap = 2 * rowblocks.BLOCK_ROWS + 5
    result = run_popf(model, case, seed=8, converge=True, cv_threshold=1e-6, max_samples=cap)
    assert result.n_samples == cap and made == [rowblocks.BLOCK_ROWS]


@pytest.mark.parametrize("cap", [0, -5])
def test_run_popf_rejects_a_cap_below_one(tiny_trained, cap):
    case, _, _, model, _ = tiny_trained
    with pytest.raises(ValueError, match="max_samples must be at least 1"):
        run_popf(model, case, seed=3, converge=True, max_samples=cap)


def test_run_popf_cap_of_one_uses_one_row(tiny_trained):
    case, _, _, model, _ = tiny_trained
    result = run_popf(model, case, seed=3, converge=True, max_samples=1)
    assert result.n_samples == 1 and result.converged is False


def test_converge_debug_line_names_the_deciding_output(tiny_trained, caplog):
    """The named output has the largest standard error over its limit at the
    stopping row, by the two-pass formula over the rows used."""
    case, _, _, model, _ = tiny_trained
    with caplog.at_level(logging.DEBUG, logger="popflow"):
        result = run_popf(model, case, seed=8, converge=True, cv_threshold=0.002)
    assert result.converged
    (line,) = [r.getMessage() for r in caplog.records if r.name == "popflow"]
    ratio, label = re.search(r"; largest stderr/limit (\S+), at (\S+)$", line).groups()
    se = result.values.std(axis=0, ddof=1) / np.sqrt(result.n_samples)
    limit = 0.002 * np.abs(result.values.mean(axis=0))
    assert label == output_labels(case)[int(np.argmax(se / limit))]
    assert float(ratio) == pytest.approx(np.max(se / limit), rel=1e-2)
    assert float(ratio) <= 1


def test_popf_stage_times_go_to_the_debug_log(tiny_trained, caplog, monkeypatch):
    case, _, _, model, _ = tiny_trained
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with caplog.at_level(logging.DEBUG, logger="popflow"):
        run_popf(model, case, n_samples=700, seed=2)
        capped = run_popf(model, case, seed=8, converge=True, cv_threshold=1e-4,
                          max_samples=3000)
        monkeypatch.setattr(rowblocks, "_usable_cores", lambda: 3)
        run_popf(model, case, n_samples=rowblocks.BLOCK_ROWS + 1, seed=2)
        run_popf(model, case, n_samples=5 * rowblocks.BLOCK_ROWS, seed=2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        run_popf(model, case, n_samples=5 * rowblocks.BLOCK_ROWS, seed=2)
    lines = [r.getMessage() for r in caplog.records if r.name == "popflow"]
    assert len(lines) == 5
    seconds = r"(\S+) s"
    pattern = (rf"popf: {seconds} drawing, {seconds} in the block pass \(over blocks: "
               rf"{seconds} transforming, {seconds} featurizing, {seconds} inferring, "
               rf"{seconds} summing moments\); "
               r"(\d+) rows drawn, (\d+) used; (\d+) block workers"
               r"(?:; largest stderr/limit (\S+), at (\S+))?")
    matches = [re.fullmatch(pattern, line) for line in lines]
    assert all(matches), lines
    assert all(float(t) >= 0 for m in matches for t in m.groups()[:6])
    counts = [tuple(map(int, m.groups()[6:9])) for m in matches]
    stops = [m.groups()[9:] for m in matches]
    assert counts[0] == (700, 700, 1)
    # the cap stops the run within its first block, which draws only 3000
    # rows; no call reaches a second row block
    assert capped.converged is False
    assert counts[1] == (3000, 3000, 1)
    # only the convergence run names the output that held it to the cap
    assert stops[1][1] in output_labels(case) and float(stops[1][0]) > 1
    assert all(stop == (None, None) for i, stop in enumerate(stops) if i != 1)
    # one block worker per usable core, but no more than there are blocks
    assert counts[2] == (rowblocks.BLOCK_ROWS + 1,) * 2 + (2,)
    assert counts[3] == (5 * rowblocks.BLOCK_ROWS,) * 2 + (3,)
    # a BLAS that spreads each product over the three cores leaves the
    # block pass, which infers, on one thread
    assert counts[4] == (5 * rowblocks.BLOCK_ROWS,) * 2 + (1,)


def test_popf_is_silent_by_default(tiny_trained, caplog):
    case, _, _, model, _ = tiny_trained
    run_popf(model, case, n_samples=10, seed=2)
    assert not [r for r in caplog.records if r.name == "popflow"]


def test_run_popf_mean_cost_close_to_oracle(tiny_trained):
    """Surrogate MCS mean vs seed-matched oracle MCS mean on the toy case."""
    case, _, _, model, _ = tiny_trained
    draw = sample_operating_conditions(case, 400, None, seed=55)
    pred = run_popf(model, case, n_samples=400, seed=55).values
    oracle_costs = np.array([oracle_opf(case, row).cost for row in draw.values])
    assert pred[:, 0].mean() == pytest.approx(oracle_costs.mean(), rel=0.01)


# ---------------------------------------------------------------------------
# statistics


def test_statistics_basic():
    stats = compute_statistics(np.array([[1.0], [2.0], [3.0]]))
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(1.0)


def block_moment_rows(n, seed):
    """n rows of five columns: offsets and scales far apart, means well away
    from zero, and a constant column (index 2)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.normal(size=(n, 5)) * [1.0, 1e-3, 0.0, 50.0, 2.0] + [5.0, 1e3, -7.25, 400.0, 0.0]
    values[:, 4] = rng.uniform(0.0, 1.0, n) ** 3 - 1e2
    return values


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3 * rowblocks.BLOCK_ROWS + 1), seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, seed=0)
@example(n=rowblocks.BLOCK_ROWS, seed=1)
@example(n=rowblocks.BLOCK_ROWS + 1, seed=2)
@example(n=3 * rowblocks.BLOCK_ROWS + 1, seed=3)
def test_block_moments_match_numpy(n, seed):
    values = block_moment_rows(n, seed)
    stats = compute_statistics(values)
    ranged = [0, 1, 3, 4]
    assert np.allclose(stats.mean, values.mean(axis=0), rtol=1e-12, atol=0.0)
    assert np.allclose(stats.std[ranged], values.std(axis=0, ddof=1)[ranged], rtol=1e-12, atol=0.0)
    assert stats.std[2] == 0.0 and stats.mean[2] == -7.25


def test_block_moments_of_the_small_example_are_exact():
    stats = compute_statistics([[1.0], [2.0], [3.0]])
    assert stats.mean[0] == 2.0 and stats.std[0] == 1.0


@pytest.mark.parametrize("kwargs", [dict(n_samples=2 * rowblocks.BLOCK_ROWS + 300),
                                    dict(n_samples=2), dict(n_samples=1),
                                    dict(converge=True, cv_threshold=1e-3, max_samples=9000),
                                    dict(converge=True, max_samples=1),
                                    dict(converge=True, cv_threshold=1e-3, columns=[3, 0])])
def test_run_popf_stats_are_compute_statistics_of_its_values(tiny_trained, kwargs):
    """A run's stats are ``compute_statistics`` of its full rows, also when
    it keeps some columns and its stopping rule fires within a block after
    full ones."""
    case, _, _, model, _ = tiny_trained
    result = run_popf(model, case, seed=12, **kwargs)
    if result.n_samples < 2:
        assert result.stats is None
        return
    full = infer(model, operating_features(
        case, sample_operating_conditions(case, result.n_samples, None, 12).values))
    assert result.values.tobytes() == full[:, kwargs.get("columns", slice(None))].tobytes()
    if "columns" in kwargs:
        assert result.converged and result.n_samples > rowblocks.BLOCK_ROWS
        assert result.n_samples % rowblocks.BLOCK_ROWS
    want = compute_statistics(full)
    assert result.stats.mean.tobytes() == want.mean.tobytes()
    assert result.stats.std.tobytes() == want.std.tobytes()


def test_statistics_constant_column_degenerate_density():
    edges, (density,) = histogram_densities([np.full(10, 7.0)], bins=50)
    width = edges[1] - edges[0]
    assert density.shape == (1,)
    assert density[0] * width == pytest.approx(1.0)
    assert np.array_equal(edges, [6.5, 7.5])


def test_statistics_requires_two_samples():
    with pytest.raises(ValueError):
        compute_statistics(np.array([[1.0]]))


def test_densities_integrate_to_one(rng):
    values = rng.normal(size=(5000, 3)) * [1.0, 5.0, 0.1] + [0, 10, -3]
    for j in range(3):
        edges, (density,) = histogram_densities([values[:, j]], bins=50)
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, abs=1e-9)
    # shared bins span every column, and each density still has unit area
    edges, dens = histogram_densities(list(values.T), bins=50)
    assert edges[0] == values.min() and edges[-1] == values.max()
    for density in dens:
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200),
       st.integers(min_value=1, max_value=60))
@example(values=[0.0, 2.225073858507e-311], bins=1)  # density overflows
@example(values=[1.0, 1.0000000000000002], bins=2)  # edges collapse to ulps
def test_single_column_density_is_numpy_histogram(values, bins):
    """One column through the shared-bin path equals the single-column
    histogram over its own range, byte for byte; where numpy cannot make
    ``bins`` bins of finite width and density, one bin holds all the mass."""
    col = np.array(values)
    edges, (density,) = histogram_densities([col], bins)
    lo, hi = col.min(), col.max()
    if lo == hi:
        assert np.array_equal(edges, [lo - 0.5, lo + 0.5]) and np.array_equal(density, [1.0])
        return
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            ref_density, ref_edges = np.histogram(col, bins, range=(lo, hi), density=True)
    except (ValueError, FloatingPointError):
        assert density.shape == (1,) and edges[0] <= lo and hi <= edges[1]
        assert density[0] * (edges[1] - edges[0]) == pytest.approx(1.0)
        return
    assert edges.tobytes() == ref_edges.tobytes()
    assert density.tobytes() == ref_density.tobytes()


def test_density_matches_normal_pdf():
    z = np.random.Generator(np.random.PCG64(17)).normal(size=100_000)
    edges, (density,) = histogram_densities([z], bins=50)
    centers = 0.5 * (edges[:-1] + edges[1:])
    inside = np.abs(centers) <= 2.0
    assert np.max(np.abs(density[inside] - norm.pdf(centers[inside]))) < 0.02


# ---------------------------------------------------------------------------
# error metrics


def test_error_metrics_identity_is_zero(case14, rng):
    values = rng.uniform(0.5, 1.5, size=(50, case14.solution_dim()))
    metrics = error_metrics(values, values, case14)
    assert np.all(metrics.e_mean == 0.0)
    assert np.all(metrics.e_std == 0.0)
    for probs in metrics.exceedance.values():
        assert all(p == 0.0 for p in probs.values())


def test_error_metrics_take_the_moments_of_compute_statistics(case14):
    """A report's errors come from the moments it states: e_mean and e_std
    are the relative errors of compute_statistics, bit for bit, over more
    rows than one statistics block."""
    rng = np.random.Generator(np.random.PCG64(21))
    d = case14.solution_dim()
    reference = rng.uniform(1e3, 2e3, size=(rowblocks.BLOCK_ROWS + 700, d))
    candidate = reference + rng.normal(0.0, 3.0, size=reference.shape)
    metrics = error_metrics(reference, candidate, case14)
    ref, cand = compute_statistics(reference), compute_statistics(candidate)
    assert metrics.e_mean.tobytes() == (np.abs(cand.mean - ref.mean) / ref.mean).tobytes()
    assert metrics.e_std.tobytes() == (np.abs(cand.std - ref.std) / ref.std).tobytes()


def test_exceedance_fraction_example():
    case = two_bus_case()
    d = case.solution_dim()
    reference = np.tile(np.linspace(1.0, 2.0, d), (3, 1)) * 5000.0
    candidate = reference.copy()
    candidate[:, 0] += np.array([500.0, 1500.0, 2500.0])  # cost column errors
    metrics = error_metrics(reference, candidate, case)
    assert metrics.exceedance["cost"][1000.0] == pytest.approx(2.0 / 3.0)
    assert metrics.exceedance["cost"][3000.0] == 0.0


def test_exceedance_threshold_defaults():
    assert EXCEEDANCE_THRESHOLDS == {
        "voltage": ("v_mag", (0.01, 0.001), "pu"),
        "generator": ("p_gen", (3.0,), "MW"),
        "branch": ("p_branch", (3.0,), "MW"),
        "cost": ("cost", (1000.0, 3000.0), "$/h"),
    }


def test_zero_reference_mean_flagged_absolute():
    case = two_bus_case()
    d = case.solution_dim()
    rng = np.random.Generator(np.random.PCG64(3))
    reference = rng.uniform(0.5, 1.5, size=(6, d))
    reference[:, 2] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]  # mean exactly zero
    candidate = reference.copy()
    candidate[:, 2] += 0.25
    metrics = error_metrics(reference, candidate, case)
    assert 2 in metrics.absolute_mean_flags
    assert metrics.e_mean[2] == pytest.approx(0.25)  # absolute, not relative


def test_exceedance_per_index_breakdown():
    case = two_bus_case()
    d = case.solution_dim()
    reference = np.ones((4, d))
    candidate = reference.copy()
    candidate[:, 1] += 0.02   # one voltage column exceeds 0.01 pu everywhere
    metrics = error_metrics(reference, candidate, case)
    # pooled probability averages the class
    assert metrics.exceedance["voltage"][0.01] == pytest.approx(0.5)


def test_mw_thresholds_convert_per_unit():
    """3 MW on a 100 MVA base pools as 0.03 pu."""
    case = two_bus_case()
    d = case.solution_dim()
    reference = np.ones((4, d))
    candidate = reference.copy()
    gen_col = 1 + case.n_bus  # layout: cost, v_mag, p_gen, p_branch
    candidate[:2, gen_col] += 0.05  # two samples exceed 0.03 pu
    metrics = error_metrics(reference, candidate, case)
    assert metrics.exceedance["generator"][0.03] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# method comparison


def test_compare_methods_report_structure(tiny_trained, tmp_path, caplog):
    case, _, _, model, _ = tiny_trained
    with caplog.at_level(logging.DEBUG, logger="popflow"):
        report = compare_methods(case, model, seed=13, n_samples=300, bins=20)
    [line] = [r.getMessage() for r in caplog.records if r.name == "popflow"]
    assert line.startswith(f"compare: {report.n_samples} oracle solves, ")
    assert report.n_samples + report.dropped == 300
    assert set(report.stats) == {"oracle", "surrogate", "dc_only"}
    assert set(report.errors) == {"surrogate", "dc_only"}
    assert all(t >= 0 for t in report.timings.values())

    # dc-only voltages are pinned flat
    assert report.stats["dc_only"].std[1] == 0.0
    assert report.stats["dc_only"].mean[1] == pytest.approx(1.0)

    # shared-edge densities integrate to one for every method
    for table in report.densities.values():
        widths = np.diff(table["edges"])
        for method in ("oracle", "surrogate", "dc_only"):
            assert np.sum(table[method] * widths) == pytest.approx(1.0, abs=1e-9)

    save_report(report, tmp_path)
    assert (tmp_path / "report.json").exists()
    density_files = list(tmp_path.glob("density_*.tsv"))
    assert density_files
    assert not list(tmp_path.glob("*.tmp"))


def test_compare_methods_self_check_zero_errors(tiny_trained):
    case, _, _, model, _ = tiny_trained
    report = compare_methods(case, model, seed=13, n_samples=100, self_check=True)
    err = report.errors["surrogate"]
    assert np.all(err.e_mean == 0.0)
    assert np.all(err.e_std == 0.0)
    assert all(p == 0.0 for probs in err.exceedance.values() for p in probs.values())


def test_compare_refuses_a_model_of_another_case_before_the_oracle(tiny_trained, case14,
                                                                    monkeypatch):
    """A checkpoint whose input width does not fit the case is refused before
    any oracle work, with and without self-check."""
    _, _, _, model, _ = tiny_trained
    calls = count_oracle_blocks(monkeypatch)
    for self_check in (False, True):
        with pytest.raises(DimensionMismatch, match="different case"):
            compare_methods(case14, model, seed=0, n_samples=2000, self_check=self_check)
    assert calls == []


def test_compare_drops_failed_rows_like_gen_data(monkeypatch):
    """A failed oracle solve drops its row from compare, which names it in
    ``failures``, as gen-data drops it from a dataset; the oracle rows
    compare keeps are ``oracle_block``'s labels of its own draw."""
    n, seed = 12, 5
    references = []
    real_error_metrics = pipeline.error_metrics

    def recording_error_metrics(reference, candidate, case):
        references.append(reference)
        return real_error_metrics(reference, candidate, case)

    monkeypatch.setattr(pipeline, "error_metrics", recording_error_metrics)
    case = bundled_case("case14")   # a fresh object: no remembered active sets
    rng = np.random.Generator(np.random.PCG64(0))
    model = sdae.init_model(len(feature_labels(case)), (4,), case.solution_dim(), 0.0, rng)
    with monkeypatch.context() as mp:
        stall_dispatch(mp, stalled=lambda call: call == 1)
        report = compare_methods(case, model, seed=seed, n_samples=n, self_check=True)
    assert report.dropped == 1 and report.n_samples == n - 1
    assert list(report.failures) == [0]
    assert report.failures[0].startswith("DispatchStalled: ")

    kept = sample_operating_conditions(case, n, None, seed).values[1:]
    assert references[0].tobytes() == oracle_block(bundled_case("case14"), kept).values.tobytes()

    with monkeypatch.context() as mp:
        stall_dispatch(mp, stalled=lambda call: call == 1)
        ds = generate_training_data(bundled_case("case14"), n, seed=seed)
    assert ds.provenance["dropped"] == 1 and ds.n_rows == n


def test_compare_needs_two_samples_before_drawing(tiny_trained, monkeypatch):
    """One sample cannot give statistics: refused before anything is drawn."""
    case, _, _, model, _ = tiny_trained

    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(pipeline, "sample_operating_conditions", no_draw)
    for self_check in (False, True):
        with pytest.raises(ValueError, match="at least 2"):
            compare_methods(case, model, seed=0, n_samples=1, self_check=self_check)


def test_compare_refuses_fewer_than_two_oracle_rows(monkeypatch):
    """With every row's dispatch but the last stalled, one oracle row
    survives, too few for statistics: a domain error, not a traceback."""
    n = 4
    case = bundled_case("case14")   # a fresh object: no remembered active sets
    rng = np.random.Generator(np.random.PCG64(0))
    model = sdae.init_model(len(feature_labels(case)), (4,), case.solution_dim(), 0.0, rng)
    stall_dispatch(monkeypatch, stalled=lambda call: call < n)
    with pytest.raises(TooManyRejections, match="3 of 4 oracle samples failed"):
        compare_methods(case, model, seed=5, n_samples=n, self_check=True)


def test_compare_density_labels_cover_all_output_classes(tiny_trained):
    case, _, _, model, _ = tiny_trained
    labels = pipeline.default_density_labels(case)
    classes = {lab.split(":")[0] for lab in labels}
    assert classes == {"cost", "v_mag", "p_gen", "p_branch"}
    assert all(lab in output_labels(case) for lab in labels)
