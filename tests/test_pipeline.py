"""Pipeline orchestration: features, dataset generation, training wrapper,
batched inference, statistics, error metrics, and method comparison."""

import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from popflow import pipeline, rowblocks, sdae
from popflow.errors import (DimensionMismatch, TooManyRejections,
                            ValidationError)
from popflow.grid import bundled_case
from popflow.pipeline import (EXCEEDANCE_THRESHOLDS, compare_methods,
                              compute_statistics, error_metrics, feature_labels,
                              generate_training_data, histogram_densities,
                              infer, load_dataset, operating_features,
                              output_labels, run_popf, save_dataset,
                              save_report, split_indices, train_popf_model)
from popflow.sampling import sample_operating_conditions
from popflow.solver import oracle_opf

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
    """A dispatch that hits its round cap drops the sample and is redrawn."""
    stall_dispatch(monkeypatch, stalled=lambda call: call == 1)
    ds = generate_training_data(two_bus_case(), 20, seed=4)
    assert ds.n_rows == 20
    assert ds.provenance["dropped"] == 1


def test_redraw_rounds_use_their_own_streams(monkeypatch):
    """The replacement for a dropped sample comes from the round-1 streams,
    not from the round-0 streams of another seed."""
    stall_dispatch(monkeypatch, stalled=lambda call: call == 1)
    case = two_bus_case()
    ds = generate_training_data(case, 20, seed=4)
    assert ds.provenance["dropped"] == 1
    first_round = sample_operating_conditions(case, 20, None, 4).values
    assert np.array_equal(ds.samples[:-1], first_round[1:])
    replacement = ds.samples[-1]
    assert np.array_equal(replacement,
                          sample_operating_conditions(case, 1, None, 4, redraw=1).values[0])
    assert not np.array_equal(replacement,
                              sample_operating_conditions(case, 1, None, 4 + 1_000_003).values[0])


def test_oracle_work_goes_to_the_debug_log(caplog, monkeypatch):
    stall_dispatch(monkeypatch, stalled=lambda call: call == 1)
    with caplog.at_level(logging.DEBUG, logger="popflow"):
        ds = generate_training_data(two_bus_case(), 30, seed=6)
    [line] = [r.getMessage() for r in caplog.records if r.name == "popflow"]
    # the first solve stalls, the second runs the active-set iteration (one
    # round: the single generator's KKT target is the balance point), and
    # the rest reuse the set it found; each of the two redraw rounds runs
    # one Newton sub-block
    assert line.startswith("gen-data: 30 oracle solves, 29 warm dispatch hits, "
                           "1 active-set fallbacks, ")
    assert ", 1 active-set rounds, " in line
    assert line.endswith(" Newton iterations per solve, 2 Newton sub-blocks, "
                         "drops {'DispatchStalled': 1}")
    assert ds.provenance["dropped"] == 1
    assert set(ds.provenance) == {"case_hash", "seed", "n", "dropped", "oracle"}


def test_oracle_sub_blocks_go_to_the_debug_log(caplog):
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
    assert ", 3 Newton sub-blocks, drops {}" in gen_data
    assert compare.startswith("compare: 65 oracle solves, 65 warm dispatch hits, ")
    assert ", 1 Newton sub-blocks, drops {}" in compare
    assert report.dropped == 0 and report.failures == {}


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
    """Chunked drawing returns the rows of a single draw of the used length,
    whether the rule fires after the first chunk or the cap stops the run."""
    case, _, _, model, _ = tiny_trained
    result = run_popf(model, case, seed=8, converge=True, cv_threshold=threshold,
                      max_samples=cap)
    n_used = result.n_samples
    assert result.converged == (n_used < cap)
    assert n_used > pipeline.INFER_CHUNK * 4 or cap == 100
    draw = sample_operating_conditions(case, n_used, None, 8)
    assert np.array_equal(result.values, infer(model, operating_features(case, draw.values)))


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
    pattern = (r"popf: \S+ s drawing, \S+ s featurizing, \S+ s inferring; "
               r"(\d+) rows drawn, (\d+) used; (\d+) drawing and (\d+) inferring threads"
               r"(?:; largest stderr/limit (\S+), at (\S+))?")
    matches = [re.fullmatch(pattern, line) for line in lines]
    counts = [tuple(map(int, m.groups()[:4])) for m in matches]
    stops = [m.groups()[4:] for m in matches]
    assert counts[0] == (700, 700, 1, 1)
    # the cap stops the run in its second round, which draws only rows
    # 2049..3000; no call reaches a second row block
    assert capped.converged is False
    assert counts[1] == (3000, 3000, 1, 1)
    # only the convergence run names the output that held it to the cap
    assert stops[1][1] in output_labels(case) and float(stops[1][0]) > 1
    assert all(stop == (None, None) for i, stop in enumerate(stops) if i != 1)
    # one thread per usable core, but no more than there are blocks
    assert counts[2] == (rowblocks.BLOCK_ROWS + 1,) * 2 + (2, 2)
    assert counts[3] == (5 * rowblocks.BLOCK_ROWS,) * 2 + (3, 3)
    # a BLAS that spreads each product over the three cores leaves inference
    # on one thread
    assert counts[4] == (5 * rowblocks.BLOCK_ROWS,) * 2 + (3, 1)


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
def test_single_column_density_is_numpy_histogram(values, bins):
    """One column through the shared-bin path equals the single-column
    histogram over its own range, byte for byte."""
    col = np.array(values)
    edges, (density,) = histogram_densities([col], bins)
    lo, hi = col.min(), col.max()
    if lo == hi:
        assert np.array_equal(edges, [lo - 0.5, lo + 0.5]) and np.array_equal(density, [1.0])
        return
    ref_density, ref_edges = np.histogram(col, bins, range=(lo, hi), density=True)
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


def test_compare_drops_failed_rows_like_gen_data(monkeypatch):
    """A failed oracle solve drops its row from compare, which names it in
    ``failures``; the oracle rows compare keeps are gen-data's labels for the
    same seed, row 0 dropped in both."""
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

    with monkeypatch.context() as mp:
        stall_dispatch(mp, stalled=lambda call: call == 1)
        ds = generate_training_data(bundled_case("case14"), n, seed=seed)
    assert ds.provenance["dropped"] == 1
    # gen-data appends a redraw for row 0; its first n - 1 rows are rows 1..n-1
    draw = sample_operating_conditions(case, n, None, seed).values
    assert np.array_equal(ds.samples[:n - 1], draw[1:])
    assert np.array_equal(references[0], ds.y[:n - 1])


def test_compare_density_labels_cover_all_output_classes(tiny_trained):
    case, _, _, model, _ = tiny_trained
    labels = pipeline.default_density_labels(case)
    classes = {lab.split(":")[0] for lab in labels}
    assert classes == {"cost", "v_mag", "p_gen", "p_branch"}
    assert all(lab in output_labels(case) for lab in labels)
