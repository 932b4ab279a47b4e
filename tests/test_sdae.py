"""Network kernels: normalization, corruption, gradients,
optimizer, pretraining, fine-tuning, and the checkpoint format.

Independent oracles used here:
- a neuron-by-neuron forward pass written with explicit Python loops
- central finite differences for gradients
- a straight-line scalar transcription of the optimizer recurrences
- an eigen-decomposition PCA residual floor for the linear-autoencoder case
"""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popflow.errors import (CorruptFile, DimensionMismatch,
                            FormatVersionMismatch, NonFiniteGradient)
from popflow.sdae import (RANGE_FLOOR, DaeLayer, SdaeModel, TrainConfig,
                          backward, batch_loss, cast_model, corrupt,
                          early_stop, finetune, fit_bounds,
                          forward, init_model, init_opt_state, load_model,
                          model_params, mse_loss, normalize, pretrain_layer,
                          pretrain_stack, rmsprop_momentum_step,
                          save_model, _dae_loss_grads, _run_layers)
from popflow.pipeline import infer

from conftest import (denormalize, reference_backward, reference_dae_loss_grads,
                      reference_forward)


def new_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def loop_forward(model, x):
    """Independent straight-line forward pass, one neuron at a time."""
    a = list(x)
    for layer in model.layers:
        out = []
        for i in range(layer.w.shape[0]):
            acc = layer.b[i]
            for j in range(layer.w.shape[1]):
                acc += layer.w[i, j] * a[j]
            out.append(max(acc, 0.0))
        a = out
    final = []
    for i in range(model.top_w.shape[0]):
        acc = model.top_b[i]
        for j in range(model.top_w.shape[1]):
            acc += model.top_w[i, j] * a[j]
        final.append(acc)
    return np.array(final)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_range_branch():
    assert normalize(5.0, 0.0, 10.0) == pytest.approx(0.5)


def test_normalize_constant_nonzero_maps_to_one():
    assert normalize(4.0, 4.0, 4.0) == pytest.approx(1.0)


def test_normalize_constant_zero_passes_through():
    assert normalize(0.0, 0.0, 0.0) == 0.0


def test_denormalize_restores_constants():
    assert denormalize(1.0, 4.0, 4.0) == 4.0
    assert denormalize(0.0, 0.0, 0.0) == 0.0
    assert denormalize(0.25, 2.0, 6.0) == pytest.approx(3.0)


def test_normalize_mixed_columns_round_trip():
    lo = np.array([0.0, 4.0, 0.0])
    hi = np.array([10.0, 4.0, 0.0])
    v = np.array([[5.0, 4.0, 0.0], [10.0, 4.0, 0.0]])
    u = normalize(v, lo, hi)
    assert np.allclose(u, [[0.5, 1.0, 0.0], [1.0, 1.0, 0.0]], atol=1e-15)
    assert np.allclose(denormalize(u, lo, hi), v, atol=1e-12)


def _normalize_by_where(v, lo, hi):
    """The three-branch rule as full-size np.where selections."""
    span = hi - lo
    ranged = span != 0
    out = np.where(ranged, (v - lo) / np.where(ranged, span, 1.0), v)
    return np.where(~ranged & (hi != 0), 1.0, out)


def _denormalize_by_where(v, lo, hi):
    span = hi - lo
    ranged = span != 0
    return np.where(ranged, lo + v * np.where(ranged, span, 1.0), lo)


def test_normalization_bits_match_the_where_rule():
    """Overwriting only the degenerate columns gives the bits of the
    full-size np.where form: ranged columns (one with a -0.0 bound), a
    constant column, an all-zero column and one with -0.0 bounds, on a
    matrix, a single row and scalars."""
    rng = np.random.Generator(np.random.PCG64(3))
    lo = np.array([-0.0, 1.5, 0.0, -0.0, -2.0])
    hi = np.array([3.0, 1.5, 0.0, -0.0, -0.5])
    v = rng.uniform(-3.0, 4.0, (64, 5))
    v[0] = [-0.0, -0.0, -0.0, 0.0, -0.0]
    for x in (v, v[7]):
        for ours, where in ((normalize, _normalize_by_where),
                            (denormalize, _denormalize_by_where)):
            got, want = ours(x, lo, hi), where(x, lo, hi)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    for args in ((2.5, 1.0, 3.0), (-0.0, -0.0, -0.0), (7.0, 4.0, 4.0)):
        assert normalize(*args).tobytes() == _normalize_by_where(*map(np.float64, args)).tobytes()
        assert denormalize(*args).tobytes() == _denormalize_by_where(*map(np.float64, args)).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-1e3, 1e3),
    span=st.floats(1e-3, 1e3),
    t=st.floats(-0.5, 1.5),
)
def test_round_trip_ranged_branch(lo, span, t):
    hi = lo + span
    v = lo + t * span  # includes values outside the training bounds
    back = denormalize(normalize(v, lo, hi), lo, hi)
    assert back == pytest.approx(v, abs=1e-12 * max(1.0, abs(v)))


@settings(max_examples=50, deadline=None)
@given(c=st.floats(-1e3, 1e3))
def test_round_trip_constant_branch(c):
    back = denormalize(normalize(c, c, c), c, c)
    assert back == pytest.approx(c, abs=1e-12 * max(1.0, abs(c)))


def test_fit_bounds_treats_a_noise_range_as_constant():
    """An idle generator's labels spread over ~1e-14 pu, which is arithmetic
    noise: the column is constant, so a held-out value far outside that
    spread maps to the constant branch instead of scaling by the noise."""
    train = np.array([[1.0, 1e-7, 0.0],
                      [2.0, 1e-7 + 1.1e-14, 1.1e-14],
                      [3.0, 1e-7 + 5e-15, 0.0]])
    lo, hi = fit_bounds(train)
    assert np.array_equal(lo, [1.0, 1e-7, 0.0])
    assert np.array_equal(hi, [3.0, 1e-7, 0.0])
    held_out = normalize(np.array([[2.0, 0.0058, 0.0058]]), lo, hi)
    assert np.array_equal(held_out, [[0.5, 1.0, 0.0058]])
    assert np.array_equal(denormalize(held_out, lo, hi), [[2.0, 1e-7, 0.0]])
    # a range at the floor still scales
    lo, hi = fit_bounds(np.array([[0.0], [RANGE_FLOOR]]))
    assert hi[0] == RANGE_FLOOR


# ---------------------------------------------------------------------------
# corruption


def test_corrupt_level_zero_identity():
    x = np.arange(1.0, 11.0)
    out = corrupt(x, 0.0, new_rng())
    assert np.array_equal(out, x)


def test_corrupt_exact_cardinality():
    x = np.ones(100)
    out = corrupt(x, 0.3, new_rng(3))
    assert int(np.sum((out == 0) & (x != 0))) == 30


def test_corrupt_seeded_mask_reproducible():
    x = np.arange(1.0, 51.0)
    a = corrupt(x, 0.2, new_rng(9))
    b = corrupt(x, 0.2, new_rng(9))
    assert np.array_equal(a, b)


def test_corrupt_rows_get_independent_masks():
    x = np.ones((20, 10))
    out = corrupt(x, 0.5, new_rng(1))
    masks = {tuple(np.flatnonzero(row == 0)) for row in out}
    assert len(masks) > 1


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 12), dim=st.integers(1, 25), level=st.floats(0.0, 0.99),
       dtype=st.sampled_from([np.float32, np.float64]), single=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_corrupt_zeroes_exactly_k_per_row_and_nothing_else(m, dim, level, dtype,
                                                           single, seed):
    # nonzero entries, so every forced zero is visible
    x = new_rng(seed).uniform(0.5, 1.5, size=(m, dim)).astype(dtype)
    if single:
        x = x[0]
    before = x.copy()
    out = corrupt(x, level, new_rng(seed))
    assert np.array_equal(x, before)                  # input not mutated
    assert out.shape == x.shape and out.dtype == dtype
    rows_in, rows_out = np.atleast_2d(x), np.atleast_2d(out)
    zeroed = rows_out == 0
    assert np.all(zeroed.sum(axis=1) == int(round(level * dim)))
    assert np.array_equal(rows_out[~zeroed], rows_in[~zeroed])
    assert np.array_equal(corrupt(x, level, new_rng(seed)), out)


def test_corrupt_masks_are_uniform_subsets():
    """dim 5, k 2: each of the 10 position pairs is one row's mask with
    probability 0.1; over 20,000 rows a frequency's std is 0.0021."""
    out = corrupt(np.ones((20_000, 5)), 0.4, new_rng(4))
    _, counts = np.unique(out == 0, axis=0, return_counts=True)
    assert len(counts) == 10
    assert np.all(np.abs(counts / 20_000 - 0.1) < 0.01)


# ---------------------------------------------------------------------------
# forward


def test_forward_identity_composition():
    layer = DaeLayer(w=np.eye(3), b=np.zeros(3), w_dec=None, b_dec=None)
    model = SdaeModel(layers=[layer], top_w=np.eye(3), top_b=np.zeros(3),
                      corruption_level=0.0)
    x = np.array([0.3, 0.0, 2.0])
    y, _ = forward(model, x)
    assert np.array_equal(y[0], x)


def test_forward_zero_input_zero_biases():
    model = init_model(4, (5,), 3, 0.0, new_rng(2))
    y, _ = forward(model, np.zeros(4))
    assert np.array_equal(y[0], np.zeros(3))


def test_forward_matches_loop_oracle():
    model = init_model(2, (4,), 3, 0.0, new_rng(11))
    rng = new_rng(12)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        y, _ = forward(model, x)
        assert np.allclose(y[0], loop_forward(model, x), atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=3, max_size=5), rows=st.integers(1, 40),
       model_dtype=st.sampled_from([np.float32, np.float64]),
       x_dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inference_kernel_is_forward_bit_for_bit(dims, rows, model_dtype, x_dtype, seed):
    """The cache-free kernel gives the bits and dtype of ``forward(...)[0]``
    and of the out-of-place ``np.maximum(a @ w.T + b, 0.0)`` chain, for
    every mix of float32 and float64, and leaves its input alone."""
    rng = new_rng(seed)
    model = init_model(dims[0], dims[1:-1], dims[-1], 0.0, rng)
    for layer in model.layers:
        layer.b = rng.uniform(-0.5, 0.5, layer.b.shape)
    model.top_b = rng.uniform(-0.5, 0.5, model.top_b.shape)
    cast_model(model, model_dtype)
    x = rng.uniform(-1.0, 1.0, (rows, dims[0])).astype(x_dtype)
    x_before = x.copy()
    ref = x
    for layer in model.layers:
        ref = np.maximum(ref @ layer.w.T + layer.b, 0.0)
    ref = ref @ model.top_w.T + model.top_b
    got = _run_layers(model, x)
    want, _ = forward(model, x)
    for other in (want, ref):
        assert got.dtype == other.dtype
        assert got.tobytes() == other.tobytes()
    assert x.tobytes() == x_before.tobytes()


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=3, max_size=5), rows=st.integers(1, 40),
       spare=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_inference_kernel_into_buffers_keeps_its_bits(dims, rows, spare, seed):
    """With a buffer per layer, longer than the input, and each bias repeated
    down the input's rows, the kernel writes each activation into the first
    rows of its buffer and returns the top one's, with the bits of the kernel
    that allocates and broadcasts, one-row inputs included."""
    rng = new_rng(seed)
    model = init_model(dims[0], dims[1:-1], dims[-1], 0.0, rng)
    for layer in model.layers:
        layer.b = rng.uniform(-0.5, 0.5, layer.b.shape)
    model.top_b = rng.uniform(-0.5, 0.5, model.top_b.shape)
    x = rng.uniform(-1.0, 1.0, (rows, dims[0]))
    buffers = [np.full((rows + spare, width), np.nan) for width in dims[1:]]
    biases = [np.tile(b, (rows, 1)) for b in [l.b for l in model.layers] + [model.top_b]]
    got = _run_layers(model, x, None, buffers, biases)
    assert np.shares_memory(got, buffers[-1]) and got.shape == (rows, dims[-1])
    acts = []
    want = _run_layers(model, x, acts)
    assert got.tobytes() == want.tobytes()
    for buffer, act in zip(buffers, acts):
        assert buffer[:rows].tobytes() == act.tobytes()


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=3, max_size=5), rows=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_folded_inference_matches_the_scaled_path(dims, rows, seed, data):
    """``infer`` runs the scaling-folded ``inference_copy``; it agrees with
    normalize -> ``_run_layers`` -> denormalize within 1e-12 of each output
    column's scale, with ranged, constant nonzero and all-zero input columns,
    and a constant output returns exactly its ``y_lo``."""
    d_in, d_out = dims[0], dims[-1]
    in_kinds = data.draw(st.lists(st.sampled_from(["ranged", "constant", "zero"]),
                                  min_size=d_in, max_size=d_in))
    out_kinds = data.draw(st.lists(st.sampled_from(["ranged", "constant", "zero"]),
                                   min_size=d_out, max_size=d_out))
    rng = new_rng(seed)
    model = init_model(d_in, dims[1:-1], d_out, 0.0, rng)
    for layer in model.layers:
        layer.b = rng.uniform(-0.5, 0.5, layer.b.shape)
    model.top_b = rng.uniform(-0.5, 0.5, d_out)

    x_lo = rng.uniform(-10.0, 10.0, d_in)
    x_hi = x_lo + rng.uniform(0.1, 10.0, d_in)
    x = x_lo + rng.uniform(-0.2, 1.2, (rows, d_in)) * (x_hi - x_lo)
    for j, kind in enumerate(in_kinds):
        if kind != "ranged":
            x_hi[j] = x_lo[j] = x_lo[j] if kind == "constant" else 0.0
    y_lo = rng.uniform(-100.0, 100.0, d_out)
    y_hi = y_lo + rng.uniform(1e-3, 100.0, d_out)
    for j, kind in enumerate(out_kinds):
        if kind != "ranged":
            y_hi[j] = y_lo[j] = y_lo[j] if kind == "constant" else 0.0
    model.x_lo, model.x_hi, model.y_lo, model.y_hi = x_lo, x_hi, y_lo, y_hi

    want = denormalize(_run_layers(model, normalize(x, x_lo, x_hi)), y_lo, y_hi)
    got = infer(model, x)
    scale = np.maximum(np.abs(y_lo), np.abs(y_hi))
    ranged = y_hi != y_lo
    assert np.all(np.abs(got - want)[:, ranged] <= 1e-12 * scale[ranged])
    assert np.array_equal(got[:, ~ranged], np.broadcast_to(y_lo[~ranged], (rows, (~ranged).sum())))


def test_forward_dimension_mismatch():
    model = init_model(4, (5,), 3, 0.0, new_rng(2))
    with pytest.raises(DimensionMismatch):
        forward(model, np.zeros(5))


def test_infer_mode_ignores_rng_and_corruption():
    model = init_model(6, (4,), 2, 0.5, new_rng(0))
    x = new_rng(1).uniform(0.1, 1.0, size=(3, 6))
    y1, cache = forward(model, x)          # no rng at all
    assert np.array_equal(cache["x"], x)   # untouched input
    y2, _ = forward(model, x)
    assert np.array_equal(y1, y2)
    with pytest.raises(ValueError):
        forward(model, x, train=True)      # corruption needs a generator


# ---------------------------------------------------------------------------
# loss


def test_mse_examples():
    assert mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(0.5)
    assert mse_loss(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(12.5)


def test_mse_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mse_loss(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_at_perfect_fit():
    model = init_model(3, (4,), 2, 0.0, new_rng(5))
    x = new_rng(6).uniform(0.1, 1.0, size=(4, 3))
    y, cache = forward(model, x)
    grads = backward(model, cache, y)
    assert all(np.allclose(g, 0.0, atol=1e-15) for g in grads)


def test_backward_matches_finite_differences():
    model = init_model(3, (5, 4), 2, 0.0, new_rng(8))
    rng = new_rng(9)
    x = rng.uniform(0, 1, size=(6, 3))
    y_true = rng.uniform(0, 1, size=(6, 2))
    _, cache = forward(model, x)
    grads = backward(model, cache, y_true)
    h = 1e-5
    for p, g in zip(model_params(model), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            up = batch_loss(y_true, forward(model, x)[0])
            p[ix] = orig - h
            down = batch_loss(y_true, forward(model, x)[0])
            p[ix] = orig
            fd = (up - down) / (2 * h)
            assert g[ix] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def _same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=120, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=3, max_size=5),
       rows=st.one_of(st.just(1), st.integers(1, 30)),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_gradients_keep_the_bits_of_the_pre_masked_reference(dims, rows, dtype, seed, data):
    """``backward`` and ``_dae_loss_grads``, which read each ReLU mask from
    the activation, give the bytes of the loss and of every gradient of the
    reference copies that read it from the pre-activation: float32 and
    float64, 1 to 3 hidden layers, one-row batches, and dead layers (encoder
    or decoder pre-activations all negative)."""
    rng = new_rng(seed)
    model = init_model(dims[0], dims[1:-1], dims[-1], 0.0, rng)
    for layer in model.layers:
        dead_enc, dead_dec = data.draw(st.tuples(st.booleans(), st.booleans()))
        layer.b = rng.uniform(-0.5, 0.5, layer.b.shape) - (1e4 if dead_enc else 0.0)
        layer.b_dec = rng.uniform(-0.5, 0.5, layer.b_dec.shape) - (1e4 if dead_dec else 0.0)
    model.top_b = rng.uniform(-0.5, 0.5, model.top_b.shape)
    cast_model(model, dtype)
    x = rng.uniform(-1.0, 1.0, (rows, dims[0])).astype(dtype)
    y_true = rng.uniform(-1.0, 1.0, (rows, dims[-1])).astype(dtype)

    y_hat, cache = forward(model, x)
    ref_hat, ref_cache = reference_forward(model, x)
    _same_bits([y_hat], [ref_hat])
    assert (np.float64(batch_loss(y_true, y_hat)).tobytes()
            == np.float64(batch_loss(y_true, ref_hat)).tobytes())
    _same_bits(backward(model, cache, y_true), reference_backward(model, ref_cache, y_true))

    for layer in model.layers:
        x_clean = rng.uniform(0.0, 1.0, (rows, layer.w.shape[1])).astype(dtype)
        x_noisy = corrupt(x_clean, 0.3, rng)
        loss, grads = _dae_loss_grads(layer, x_clean, x_noisy)
        ref_loss, ref_grads = reference_dae_loss_grads(layer, x_clean, x_noisy)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        _same_bits(grads, ref_grads)


def test_kernels_keep_the_float_dtype():
    """float64 in gives float64 out, as before; float32 stays float32 through
    forward, backward and the update, and agrees with float64 to its precision."""
    x = new_rng(6).uniform(0, 1, size=(7, 5))
    y = new_rng(7).uniform(0, 1, size=(7, 2))
    grads = {}
    for dtype in (np.float64, np.float32):
        model = cast_model(init_model(5, (4, 3), 2, 0.2, new_rng(5)), dtype)
        y_hat, cache = forward(model, x.astype(dtype), train=True, rng=new_rng(8))
        grads[dtype] = backward(model, cache, y.astype(dtype))
        assert y_hat.dtype == dtype
        assert all(g.dtype == dtype for g in grads[dtype])
        params = model_params(model)
        rmsprop_momentum_step(params, grads[dtype], init_opt_state(params, 1e-3, 0.9))
        assert all(p.dtype == dtype for p in params)
    for g64, g32 in zip(grads[np.float64], grads[np.float32]):
        assert np.allclose(g32, g64, rtol=1e-4, atol=1e-6)


def test_backward_identical_rows_equal_single_row():
    model = init_model(3, (4,), 2, 0.0, new_rng(10))
    rng = new_rng(11)
    x = rng.uniform(0, 1, size=3)
    y = rng.uniform(0, 1, size=2)
    _, cache1 = forward(model, x)
    single = backward(model, cache1, y)
    xm = np.tile(x, (7, 1))
    ym = np.tile(y, (7, 1))
    _, cache7 = forward(model, xm)
    batch = backward(model, cache7, ym)
    for a, b in zip(single, batch):
        assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer


def transcribed_scalar_run(w0, grads, eta, momentum, rho=0.99, eps=1e-8):
    """Straight-line transcription of the update recurrences, scalars only."""
    w = w0
    rr = 0.0
    prev_applied = 0.0
    trace = []
    for g in grads:
        rr = rho * rr + (1.0 - rho) * g * g
        raw = eta / math.sqrt(eps + rr) * g
        applied = momentum * raw + (1.0 - momentum) * prev_applied
        w = w - applied
        prev_applied = applied
        trace.append(w)
    return trace


def test_optimizer_scalar_hand_example():
    """g=0.1 from a fresh state: rr=1e-4, raw ~ 9.99950e-3, applied ~ 8.99955e-3."""
    w = [np.array([0.0])]
    opt = init_opt_state(w, eta=0.001, momentum=0.9)
    rmsprop_momentum_step(w, [np.array([0.1])], opt)
    assert opt.rr[0][0] == pytest.approx(1e-4, rel=1e-12)
    raw = 0.001 * 0.1 / math.sqrt(1e-8 + 1e-4)
    assert raw == pytest.approx(9.99950e-3, rel=1e-5)
    applied = 0.9 * raw
    assert applied == pytest.approx(8.99955e-3, rel=1e-5)
    assert w[0][0] == pytest.approx(-applied, rel=1e-12)


def test_optimizer_zero_gradient_noop():
    w = [np.array([1.5, -2.0])]
    opt = init_opt_state(w, eta=0.01, momentum=0.9)
    rmsprop_momentum_step(w, [np.zeros(2)], opt)
    assert np.array_equal(w[0], [1.5, -2.0])


def test_optimizer_momentum_two_step_behavior():
    """Second applied step differs through the momentum term.

    From a fresh accumulator the growing RMS denominator outweighs the
    momentum carry, so the second step is smaller; once the accumulator sits
    at its fixed point g^2 the momentum term makes the second step larger.
    """
    trace = transcribed_scalar_run(0.0, [0.1, 0.1], eta=0.001, momentum=0.9)
    applied1 = -trace[0]
    applied2 = trace[0] - trace[1]
    assert applied2 != applied1
    assert abs(applied2) < abs(applied1)

    # saturated accumulator: raw step is constant, momentum accumulates
    w = [np.array([0.0])]
    opt = init_opt_state(w, eta=0.001, momentum=0.9)
    opt.rr[0][...] = 0.1 * 0.1 / (1 - 0.0)  # fixed point of the rr recurrence
    before = w[0][0]
    rmsprop_momentum_step(w, [np.array([0.1])], opt)
    first = before - w[0][0]
    before = w[0][0]
    rmsprop_momentum_step(w, [np.array([0.1])], opt)
    second = before - w[0][0]
    assert abs(second) > abs(first)


def test_optimizer_matches_transcription_on_random_sequences():
    rng = new_rng(123)
    for trial in range(10):
        grads = rng.normal(0, 1, size=100)
        eta = float(rng.uniform(1e-4, 1e-2))
        momentum = float(rng.uniform(0.0, 0.99))
        w = [np.array([float(rng.normal())])]
        w0 = w[0][0]
        opt = init_opt_state(w, eta=eta, momentum=momentum)
        expected = transcribed_scalar_run(w0, grads, eta, momentum)
        for g, exp in zip(grads, expected):
            rmsprop_momentum_step(w, [np.array([g])], opt)
            assert w[0][0] == pytest.approx(exp, abs=1e-12, rel=1e-12)


def test_optimizer_rejects_non_finite():
    w = [np.array([1.0])]
    opt = init_opt_state(w, eta=0.01, momentum=0.9)
    with pytest.raises(NonFiniteGradient):
        rmsprop_momentum_step(w, [np.array([np.nan])], opt)


# ---------------------------------------------------------------------------
# pretraining


def test_pretrain_reduces_reconstruction_loss():
    rng = new_rng(21)
    data = rng.uniform(0.1, 0.9, size=(100, 6))
    cfg = TrainConfig(hidden_sizes=(8,), epochs_unsup=500, batch_size=100,
                      corruption_level=0.0, eta_unsup=1e-3)
    model = init_model(6, (8,), 6, 0.0, new_rng(22))
    history = pretrain_layer(model.layers[0], data, cfg, new_rng(23))
    assert history[-1] < history[0]


def test_pretrain_deterministic():
    rng = new_rng(30)
    data = rng.uniform(0.1, 0.9, size=(60, 5))
    cfg = TrainConfig(hidden_sizes=(4,), epochs_unsup=40, batch_size=20,
                      corruption_level=0.1)
    runs = []
    for _ in range(2):
        model = init_model(5, (4,), 5, 0.1, new_rng(31))
        pretrain_layer(model.layers[0], data, cfg, new_rng(32))
        runs.append((model.layers[0].w.copy(), model.layers[0].b.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_pretrain_linear_regime_reaches_pca_floor():
    """Width-2 bottleneck on rank-3 positive data vs the PCA-2 residual.

    The init seed is one where every unit starts with healthy activity on
    this data (a fully dead ReLU unit would never recover and the affine
    regime would not apply)."""
    rng = new_rng(40)
    latent = rng.uniform(-1.0, 1.0, size=(300, 3))
    mixing = np.array([[0.20, 0.15, 0.18, 0.12, 0.16],
                       [0.14, -0.12, 0.10, 0.17, -0.11],
                       [0.08, 0.12, -0.08, 0.08, 0.12]])
    data = 0.5 + latent @ mixing
    centered = data - data.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    pca_floor = 0.5 * float(np.sum(svals[2:] ** 2)) / data.shape[0]

    cfg = TrainConfig(hidden_sizes=(2,), epochs_unsup=8000, batch_size=300,
                      corruption_level=0.0, eta_unsup=1e-3)
    model = init_model(5, (2,), 5, 0.0, new_rng(100))
    history = pretrain_layer(model.layers[0], data, cfg, new_rng(42))
    assert abs(history[-1] - pca_floor) <= 0.10 * pca_floor


def test_stack_single_layer_equals_pretrain_layer():
    rng = new_rng(50)
    data = rng.uniform(0.1, 0.9, size=(40, 4))
    cfg = TrainConfig(hidden_sizes=(3,), epochs_unsup=25, batch_size=20,
                      corruption_level=0.1)
    stacked = init_model(4, (3,), 4, 0.1, new_rng(51))
    pretrain_stack(stacked, data, cfg, new_rng(52))
    manual = init_model(4, (3,), 4, 0.1, new_rng(51))
    pretrain_layer(manual.layers[0], data, cfg, new_rng(52))
    assert np.array_equal(stacked.layers[0].w, manual.layers[0].w)
    assert np.array_equal(stacked.layers[0].b, manual.layers[0].b)
    assert stacked.layers[0].w_dec is None  # decoder discarded by the stack


def test_stack_feeds_clean_activations_upward():
    rng = new_rng(60)
    data = rng.uniform(0.1, 0.9, size=(40, 4))
    cfg = TrainConfig(hidden_sizes=(3, 3), epochs_unsup=20, batch_size=20,
                      corruption_level=0.2)
    stacked = init_model(4, (3, 3), 4, 0.2, new_rng(61))
    pretrain_stack(stacked, data, cfg, new_rng(62))

    manual = init_model(4, (3, 3), 4, 0.2, new_rng(61))
    rng_replay = new_rng(62)
    pretrain_layer(manual.layers[0], data, cfg, rng_replay)
    acts = np.maximum(data @ manual.layers[0].w.T + manual.layers[0].b, 0.0)
    pretrain_layer(manual.layers[1], acts, cfg, rng_replay)
    assert np.array_equal(stacked.layers[1].w, manual.layers[1].w)
    assert np.array_equal(stacked.layers[1].b, manual.layers[1].b)


def test_stack_returns_each_layers_losses_and_keeps_float32():
    data = new_rng(55).uniform(0.1, 0.9, size=(40, 4)).astype(np.float32)
    cfg = TrainConfig(hidden_sizes=(3, 2), epochs_unsup=7, batch_size=20,
                      corruption_level=0.25)
    model = cast_model(init_model(4, (3, 2), 4, 0.25, new_rng(56)), np.float32)
    losses = pretrain_stack(model, data, cfg, new_rng(57))
    assert [len(l) for l in losses] == [7, 7]
    assert all(math.isfinite(v) and v > 0 for l in losses for v in l)
    assert all(p.dtype == np.float32 for p in model_params(model))


def test_stack_seed_determinism():
    rng = new_rng(70)
    data = rng.uniform(0.1, 0.9, size=(30, 4))
    cfg = TrainConfig(hidden_sizes=(3, 2), epochs_unsup=15, batch_size=15,
                      corruption_level=0.1)
    weights = []
    for _ in range(2):
        model = init_model(4, (3, 2), 4, 0.1, new_rng(71))
        pretrain_stack(model, data, cfg, new_rng(72))
        weights.append(np.concatenate([l.w.ravel() for l in model.layers]))
    assert np.array_equal(weights[0], weights[1])


# ---------------------------------------------------------------------------
# fine-tuning


def _toy_supervised(n=60, seed=80):
    rng = new_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    y = np.column_stack([0.3 + 0.4 * x[:, 0], 0.2 + 0.5 * x[:, 1] ** 2])
    return x, y


def test_finetune_history_and_best_snapshot():
    x, y = _toy_supervised()
    cfg = TrainConfig(hidden_sizes=(6,), epochs_sup=60, batch_size=20,
                      corruption_level=0.0, eta_sup=3e-3, patience=60)
    model = init_model(2, (6,), 2, 0.0, new_rng(81))
    model, history = finetune(model, x[:40], y[:40], x[40:], y[40:], cfg, new_rng(82))
    assert len(history) >= 1
    val_losses = [row[2] for row in history]
    returned_val = batch_loss(y[40:], forward(model, x[40:])[0])
    assert returned_val == pytest.approx(min(val_losses), rel=1e-12)


def test_finetune_early_stop_counts_epochs():
    """With updates below the float resolution, validation never improves
    after the first epoch, so the run stops after patience extra epochs."""
    x, y = _toy_supervised()
    cfg = TrainConfig(hidden_sizes=(4,), epochs_sup=50, batch_size=20,
                      corruption_level=0.0, eta_sup=1e-300, patience=5)
    model = init_model(2, (4,), 2, 0.0, new_rng(83))
    snapshot = [p.copy() for p in model_params(model)]
    model, history = finetune(model, x[:40], y[:40], x[40:], y[40:], cfg, new_rng(84))
    assert len(history) == 6  # first epoch plus patience non-improving ones
    assert early_stop(history, cfg.patience) == (0, "early stop")
    for p, snap in zip(model_params(model), snapshot):
        assert np.allclose(p, snap, atol=1e-250)


def test_early_stop_reason():
    history = [(0, 1.0, 0.5), (1, 1.0, 0.4), (2, 1.0, 0.45), (3, 1.0, 0.4)]
    assert early_stop(history, 2) == (1, "early stop")   # ties do not improve
    assert early_stop(history, 3) == (1, "epoch cap")


def test_finetune_at_patience_zero_runs_to_the_cap_while_every_epoch_improves():
    """Patience 0 stops at the first epoch that does not improve; a run whose
    every epoch improves reaches the cap, and reports it: an early stop needs
    an epoch after the best one."""
    assert early_stop([(0, 1, .5), (1, 1, .4), (2, 1, .3)], 0) == (2, "epoch cap")
    assert early_stop([(0, 1, .5), (1, 1, .4), (2, 1, .45)], 0) == (1, "early stop")
    x, y = _toy_supervised()
    cfg = TrainConfig(hidden_sizes=(6,), epochs_sup=6, batch_size=20,
                      corruption_level=0.0, eta_sup=3e-3, patience=0)
    model = init_model(2, (6,), 2, 0.0, new_rng(85))
    model, history = finetune(model, x[:40], y[:40], x[40:], y[40:], cfg, new_rng(86))
    val_losses = [row[2] for row in history]
    assert all(b < a for a, b in zip(val_losses, val_losses[1:]))
    assert len(history) == cfg.epochs_sup
    assert early_stop(history, cfg.patience) == (cfg.epochs_sup - 1, "epoch cap")

    frozen = TrainConfig(hidden_sizes=(4,), epochs_sup=50, batch_size=20,
                         corruption_level=0.0, eta_sup=1e-300, patience=0)
    model = init_model(2, (4,), 2, 0.0, new_rng(83))
    model, history = finetune(model, x[:40], y[:40], x[40:], y[40:], frozen, new_rng(84))
    assert len(history) == 2
    assert early_stop(history, frozen.patience) == (0, "early stop")


def test_finetune_regresses_toy_map_under_two_percent():
    """Regression bound on a tiny one-input map through the full pipeline."""
    rng = new_rng(90)
    x = rng.uniform(0.5, 1.5, size=(2000, 1))
    y = 5.0 + 2.0 * x + 3.0 * x ** 2
    x_lo, x_hi = fit_bounds(x)
    y_lo, y_hi = fit_bounds(y)
    xn = normalize(x, x_lo, x_hi)
    yn = normalize(y, y_lo, y_hi)
    cfg = TrainConfig(hidden_sizes=(8, 8), epochs_sup=150, epochs_unsup=30,
                      batch_size=100, corruption_level=0.05, eta_sup=2e-3,
                      eta_unsup=1e-3, patience=150)
    model = init_model(1, (8, 8), 1, cfg.corruption_level, new_rng(91))
    pretrain_stack(model, xn[:1700], cfg, new_rng(92))
    model, _ = finetune(model, xn[:1700], yn[:1700], xn[1700:], yn[1700:],
                        cfg, new_rng(93))
    pred = denormalize(forward(model, xn[1700:])[0], y_lo, y_hi)
    rmse = float(np.sqrt(np.mean((pred - y[1700:]) ** 2)))
    y_range = float(y.max() - y.min())
    assert rmse < 0.02 * y_range


# ---------------------------------------------------------------------------
# checkpointing


def _trained_like_model():
    model = init_model(3, (4, 3), 5, 0.1, new_rng(100))
    for layer in model.layers:
        layer.w_dec = None
        layer.b_dec = None
    model.x_lo = np.array([0.0, 1.0, -2.0])
    model.x_hi = np.array([1.0, 1.0, 3.0])
    model.y_lo = np.zeros(5)
    model.y_hi = np.arange(1.0, 6.0)
    return model


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = _trained_like_model()
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    again = load_model(path)
    x = new_rng(101).uniform(0, 1, size=(4, 3))
    y1, _ = forward(model, x)
    y2, _ = forward(again, x)
    assert np.array_equal(y1, y2)
    assert np.array_equal(again.x_lo, model.x_lo)
    assert np.array_equal(again.y_hi, model.y_hi)
    assert again.corruption_level == model.corruption_level
    assert again.dims() == model.dims()


CHECKPOINT_SHA256 = "120cf5ae83c73dfdb7a49a7e0ba2d3f2dd55608113f0f13e41dfe06c41091478"


def test_checkpoint_bytes_are_pinned(tmp_path):
    """A hand-built model (no training, so no BLAS rounding) saves to pinned
    bytes, and loads back to the same arrays bit for bit."""
    dims = (3, 4, 2, 5)
    model = SdaeModel(
        layers=[DaeLayer(w=np.arange(12.0).reshape(4, 3) / 7 - 0.5, b=np.array([0.25, -1.0, 0.0, 3.5]),
                         w_dec=None, b_dec=None),
                DaeLayer(w=-np.arange(8.0).reshape(2, 4) / 3, b=np.array([1e-300, -2.5]),
                         w_dec=None, b_dec=None)],
        top_w=np.arange(10.0).reshape(5, 2) * 0.1, top_b=np.linspace(-1.0, 1.0, 5),
        corruption_level=0.1,
        x_lo=np.array([0.0, 1.0, -2.0]), x_hi=np.array([1.0, 1.0, 3.0]),
        y_lo=np.zeros(5), y_hi=np.arange(1.0, 6.0) / 9)
    assert model.dims() == dims
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256
    again = load_model(path)
    assert again.dims() == dims and again.corruption_level == model.corruption_level
    for name in ("x_lo", "x_hi", "y_lo", "y_hi", "top_w", "top_b"):
        assert getattr(again, name).tobytes() == getattr(model, name).tobytes(), name
        assert getattr(again, name).shape == getattr(model, name).shape, name
    for layer, loaded in zip(model.layers, again.layers):
        assert loaded.w.tobytes() == layer.w.tobytes() and loaded.w.shape == layer.w.shape
        assert loaded.b.tobytes() == layer.b.tobytes() and loaded.w_dec is None


def test_checkpoint_truncation_detected(tmp_path):
    model = _trained_like_model()
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-17])
    with pytest.raises(CorruptFile):
        load_model(path)


def test_checkpoint_bitflip_detected(tmp_path):
    model = _trained_like_model()
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFile):
        load_model(path)


def test_checkpoint_dims_beyond_the_body_detected(tmp_path):
    """A header whose dims no array can hold, under a valid checksum, is a
    malformed body; no array of those dims is filled."""
    model = _trained_like_model()
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    body = bytearray(path.read_bytes()[:-8])
    body[16:24] = (2 ** 32 - 1).to_bytes(4, "little") * 2   # input width, first layer width
    path.write_bytes(bytes(body) + hashlib.blake2b(bytes(body), digest_size=8).digest())
    with pytest.raises(CorruptFile, match="malformed checkpoint body"):
        load_model(path)


def test_checkpoint_future_version_rejected(tmp_path):
    model = _trained_like_model()
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatVersionMismatch):
        load_model(path)


def test_checkpoint_requires_bounds(tmp_path):
    model = init_model(3, (4,), 2, 0.0, new_rng(102))
    with pytest.raises(ValueError):
        save_model(model, tmp_path / "m.ckpt")


@pytest.mark.parametrize("value", ["abc", 5, b"ab", None, [], ()])
def test_hidden_sizes_must_be_a_list(value):
    """A string is not split into characters: it, and any other value that
    is not a non-empty list of sizes, is refused with the whole value in the
    message."""
    message = f"hidden_sizes must be a non-empty list of integers, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(hidden_sizes=value)
    assert TrainConfig(hidden_sizes=[8, 4]).hidden_sizes == (8, 4)
