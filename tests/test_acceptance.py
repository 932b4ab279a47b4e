"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines. The end-to-end fixture (dataset generation, training, seed-matched
method comparison on the bundled 14-bus case) is shared by criteria 6-8 and
takes a few minutes; everything else is fast.
"""

import json
import math
import time

import numpy as np
import pytest

from popflow import pipeline
from popflow.errors import Infeasible
from popflow.pipeline import (_merge_moments, compare_methods, generate_training_data,
                              train_popf_model)
from popflow.sdae import (TrainConfig, backward, batch_loss,
                          forward, init_model, init_opt_state, model_params,
                          normalize, rmsprop_momentum_step)
from popflow.solver import ac_power_flow, dc_opf

from conftest import denormalize, dispatch_kkt_residual, update_convergence
from test_sampling import brute_cv_converged_at
from test_sdae import transcribed_scalar_run
from test_solver import _random_small_case, closed_form_two_bus, grid_search_dispatch

# end-to-end configuration for criteria 6-8 (pinned; see README quickstart)
E2E_N_TRAIN = 24_000
E2E_TRAIN_SEED = 11
E2E_MCS_SEED = 99
E2E_N_MCS = 10_000
E2E_CONFIG = dict(hidden_sizes=(48, 96, 64), epochs_unsup=30, epochs_sup=400,
                  batch_size=500, patience=60, corruption_level=0.1,
                  corruption_level_finetune=0.0, eta_sup=3e-4, seed=7)


def report_line(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def end_to_end(case14):
    dataset = generate_training_data(case14, E2E_N_TRAIN, seed=E2E_TRAIN_SEED)
    model, history, _ = train_popf_model(dataset, TrainConfig(**E2E_CONFIG))
    report = compare_methods(case14, model, seed=E2E_MCS_SEED, n_samples=E2E_N_MCS)
    return model, history, report


# ---------------------------------------------------------------------------


def _activation_pattern(cache):
    # hidden-layer signs only; the top layer is affine (kink-free)
    return [a > 0 for a in cache["acts"][:-1]]


def test_criterion_01_gradient_oracle():
    """Analytic gradients vs central finite differences on random networks.

    A probe whose plus/minus-h evaluations land on different ReLU activation
    patterns crosses a kink: the secant there does not estimate a derivative
    and is skipped (counted; must stay a sub-percent fraction)."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2024))
    h = 1e-5
    nets = 0
    checked = 0
    skipped = 0
    worst = 0.0
    while nets < 100:
        depth = int(rng.integers(1, 4))  # encoder layers; the affine top adds one
        widths = tuple(int(w) for w in rng.integers(1, 9, size=depth))
        d_in = int(rng.integers(1, 9))
        d_out = int(rng.integers(1, 9))
        m = int(rng.integers(1, 17))
        model = init_model(d_in, widths, d_out, 0.0, rng)
        x = rng.uniform(0.0, 1.0, size=(m, d_in))
        y = rng.uniform(0.0, 1.0, size=(m, d_out))
        _, cache0 = forward(model, x)
        base_pattern = _activation_pattern(cache0)
        grads = backward(model, cache0, y)
        for p, g in zip(model_params(model), grads):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for k in range(flat_p.size):
                orig = flat_p[k]
                flat_p[k] = orig + h
                y_up, cache_up = forward(model, x)
                up = batch_loss(y, y_up)
                flat_p[k] = orig - h
                y_dn, cache_dn = forward(model, x)
                down = batch_loss(y, y_dn)
                flat_p[k] = orig
                crossed = any(
                    not np.array_equal(a, b) or not np.array_equal(a, c)
                    for a, b, c in zip(base_pattern,
                                       _activation_pattern(cache_up),
                                       _activation_pattern(cache_dn)))
                if crossed:
                    skipped += 1
                    continue
                checked += 1
                fd = (up - down) / (2 * h)
                if abs(fd) < 1e-8 and abs(flat_g[k]) < 1e-8:
                    continue
                rel = abs(flat_g[k] - fd) / max(abs(fd), abs(flat_g[k]))
                worst = max(worst, rel)
        nets += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 60.0 and skipped <= 0.03 * checked
    report_line(1, ok,
                f"{nets} random nets, {checked} elements checked "
                f"({skipped} kink-crossing probes excluded), worst relative "
                f"gradient error {worst:.2e} (<= 1e-5), {elapsed:.1f}s (< 60s)")


def test_criterion_02_optimizer_transcription():
    """Vectorized optimizer vs a straight-line scalar transcription, 1e-12."""
    rng = np.random.Generator(np.random.PCG64(77))
    worst = 0.0
    for _ in range(20):
        grads = rng.normal(0.0, 1.0, size=100)
        eta = float(rng.uniform(1e-4, 1e-2))
        momentum = float(rng.uniform(0.0, 0.99))
        w0 = float(rng.normal())
        w = [np.array([w0])]
        opt = init_opt_state(w, eta=eta, momentum=momentum)
        expected = transcribed_scalar_run(w0, grads, eta, momentum)
        for g, exp in zip(grads, expected):
            rmsprop_momentum_step(w, [np.array([g])], opt)
            worst = max(worst, abs(w[0][0] - exp))
    report_line(2, worst <= 1e-12,
                f"20 randomized 100-step sequences, worst deviation {worst:.2e} (<= 1e-12)")


def test_criterion_03_normalization_branches():
    lo = np.array([0.0, 4.0, 0.0, -3.0])
    hi = np.array([10.0, 4.0, 0.0, 5.0])
    probes = np.array([
        [5.0, 4.0, 0.0, -3.0],
        [0.0, 4.0, 0.0, 5.0],
        [10.0, 4.0, 0.0, 1.25],
    ])
    u = normalize(probes, lo, hi)
    ok = bool(np.all(np.abs(denormalize(u, lo, hi) - probes) <= 1e-12))
    ok = ok and u[0, 1] == 1.0 and u[0, 2] == 0.0  # the two degenerate branches
    back = denormalize(normalize(probes[1], lo, hi), lo, hi)
    ok = ok and bool(np.all(np.abs(back - probes[1]) <= 1e-12))
    report_line(3, ok, "all three branches round-trip within 1e-12 "
                       "(ranged, constant-nonzero -> 1, all-zero -> 0)")


def test_criterion_04_power_flow_residuals(case14, twobus):
    details = []
    ok = True
    for name, case in (("twobus", twobus), ("case14", case14)):
        loads = case.p_load_vector()
        dispatch = dc_opf(case, loads)
        p_inj = -loads.copy()
        q_inj = -case.q_load_vector()
        for i, gen in enumerate(case.generators):
            if gen.bus != case.slack_index:
                p_inj[gen.bus] += dispatch.p_gen[i]
        sol = ac_power_flow(case, p_inj, q_inj, tol=1e-8)
        ok = ok and sol.max_mismatch <= 1e-8 and sol.iterations <= 15
        details.append(f"{name}: {sol.iterations} iters, mismatch {sol.max_mismatch:.1e}")

    sol = ac_power_flow(twobus, np.array([0.0, -0.5]), np.zeros(2), tol=1e-8)
    v2, ang = closed_form_two_bus(0.5, 0.0, 0.1)
    gap = max(abs(sol.v_mag[1] - v2), abs(sol.v_ang[1] - ang))
    ok = ok and gap <= 1e-8
    details.append(f"closed-form gap {gap:.1e}")
    report_line(4, ok, "; ".join(details))


def test_criterion_05_dispatch_optimality():
    rng = np.random.Generator(np.random.PCG64(42))
    solved = 0
    attempts = 0
    worst_gap = 0.0
    worst_kkt = 0.0
    while solved < 20 and attempts < 200:
        attempts += 1
        case, loads = _random_small_case(rng)
        try:
            sol = dc_opf(case, loads)
        except Infeasible:
            continue
        best = grid_search_dispatch(case, loads)
        assert best is not None
        step_tol = 1e-3 * sum(2 * g.cost_a * g.p_max + abs(g.cost_b)
                              for g in case.generators)
        gap = abs(sol.cost - best[0])
        assert sol.cost <= best[0] + 1e-9
        worst_gap = max(worst_gap, gap / step_tol)
        worst_kkt = max(worst_kkt, dispatch_kkt_residual(case, loads, sol))
        solved += 1
    ok = solved >= 20 and worst_gap <= 1.0 and worst_kkt <= 1e-8
    report_line(5, ok, f"{solved} random cases vs 1e-3 grid search; worst gap "
                       f"{worst_gap:.2f} grid steps (<= 1), worst KKT residual "
                       f"{worst_kkt:.1e} (<= 1e-8)")


def test_criterion_06_end_to_end_cost_accuracy(end_to_end):
    _, _, report = end_to_end
    err = report.errors[pipeline.METHOD_SURROGATE]
    e1 = float(err.e_mean[0])
    e2 = float(err.e_std[0])
    ok = e1 <= 0.01 and e2 <= 0.05
    report_line(6, ok, f"{report.n_samples} seed-matched samples after "
                       f"{E2E_N_TRAIN}-sample training: e1(cost) {100 * e1:.3f}% "
                       f"(<= 1%), e2(cost) {100 * e2:.3f}% (<= 5%)")


def test_criterion_07_voltage_exceedance_ordering(end_to_end):
    _, _, report = end_to_end
    surr = report.errors[pipeline.METHOD_SURROGATE].exceedance["voltage"][0.01]
    dc = report.errors[pipeline.METHOD_DC_ONLY].exceedance["voltage"][0.01]
    ok = surr <= 0.01 and dc > surr
    report_line(7, ok, f"pooled voltage exceedance at 0.01 pu: surrogate "
                       f"{100 * surr:.4f}% (<= 1%), dc-only {100 * dc:.2f}% "
                       f"(strictly greater)")


def test_criterion_08_inference_speedup(end_to_end, case14):
    """Each method's time is the best of five seed-matched reports: on a
    shared 2-core machine one ~10 ms inference pass or one oracle pass moves
    by up to half between runs, so a single pair is too noisy to gate."""
    model, _, report = end_to_end
    reports = [report] + [compare_methods(case14, model, seed=E2E_MCS_SEED,
                                          n_samples=E2E_N_MCS) for _ in range(4)]
    oracle = [r.timings[pipeline.METHOD_ORACLE] for r in reports]
    surr = [r.timings[pipeline.METHOD_SURROGATE] for r in reports]
    t_oracle, t_surr = min(oracle), min(surr)
    ratio = t_oracle / t_surr
    ok = ratio >= 50.0 and t_oracle > 0 and t_surr > 0
    report_line(8, ok, f"oracle {t_oracle:.2f}s vs batched inference "
                       f"{t_surr:.4f}s over {report.n_samples} samples, best of "
                       f"{len(reports)} reports: {ratio:.0f}x (>= 50x), both "
                       f"timings in the report")


def test_criterion_09_mcs_convergence_rule():
    stream = [0.9 if i % 2 == 0 else 1.1 for i in range(200)]
    expected = brute_cv_converged_at(stream, 0.05)
    sums = None
    fired = None
    for i, v in enumerate(stream):
        sums, done = update_convergence(sums, [v])
        if done:
            fired = i + 1
            break
    exact = fired == expected

    sums = None
    capped = None
    for i in range(55_000):
        sums, done = update_convergence(sums, [1.001 if i % 2 == 0 else -0.999],
                                        max_samples=50_000)
        if done:
            capped = i + 1
            break
    stats = _merge_moments([sums])
    se = stats.std[0] / math.sqrt(sums[0])
    cv_above = se / abs(stats.mean[0]) > 0.05
    ok = exact and capped == 50_000 and cv_above
    report_line(9, ok, f"threshold fires at n={fired} (direct formula: {expected}); "
                       f"cap fires at n={capped} with cv still above 5%")


def test_criterion_10_pipeline_determinism(tmp_path, twobus):
    from popflow.cli import main
    from popflow.grid import serialize_case

    case_path = tmp_path / "case.json"
    case_path.write_text(serialize_case(twobus), encoding="utf-8")
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        cfg = {
            "case": str(case_path),
            "output_dir": str(out_dir),
            "train": {"hidden_sizes": [10], "epochs_unsup": 10, "epochs_sup": 40,
                      "batch_size": 100, "patience": 40, "corruption_level": 0.05,
                      "seed": 3},
            "sampling": {"n_train": 600, "n_mcs": 300, "seed": 5},
            "report": {"bins": 20},
        }
        cfg_path = tmp_path / f"config_{run}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["gen-data", "-c", str(cfg_path)]) == 0
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["compare", "-c", str(cfg_path)]) == 0
        dataset = {f.name: f.read_bytes()
                   for f in sorted((out_dir / "dataset").iterdir())}
        ckpt = (out_dir / "model.ckpt").read_bytes()
        report = json.loads((out_dir / "report.json").read_text())
        report.pop("timings_seconds")
        densities = {f.name: f.read_bytes()
                     for f in sorted(out_dir.glob("density_*.tsv"))}
        outputs.append((dataset, ckpt, report, densities))

    same_dataset = outputs[0][0] == outputs[1][0]
    same_ckpt = outputs[0][1] == outputs[1][1]
    same_report = outputs[0][2] == outputs[1][2]
    same_density = outputs[0][3] == outputs[1][3]
    ok = same_dataset and same_ckpt and same_report and same_density
    report_line(10, ok, f"byte-identical dataset files: {same_dataset}, "
                        f"checkpoint: {same_ckpt}, report sans timings: "
                        f"{same_report}, density tables: {same_density}")
