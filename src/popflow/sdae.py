"""Stacked denoising-autoencoder regressor, trained from scratch with numpy.

Architecture: a chain of ReLU encoder layers (each the encoding half of a
denoising autoencoder) capped by an affine regression layer. Inputs and
targets are min-max normalized to [0, 1] beforehand. The top layer carries
no ReLU: a rectified output unit whose pre-activation starts negative over
the whole training set has an exactly-zero gradient and never recovers, and
with symmetric weight init that silently kills a third of the outputs. An
affine top cannot die and represents every nonnegative target equally well.

Training runs in two stages. Unsupervised pretraining fits each layer as a
denoising autoencoder on the activations of the stack below it (reconstruct
the clean input from a corrupted copy), bottom to top. Supervised fine-tuning
then trains the whole stack on the regression targets with input corruption
as the only regularizer, early-stopping on validation loss. Both stages use
RMSProp with momentum blending of the previous applied update.

One ReLU-layer kernel (``_relu_layers``) and one backprop (``_relu_backprop``)
serve the stack, each autoencoder and the pretraining pass; each ReLU mask is
read from the activation (``a > 0`` is ``z > 0``), so no pre-activation is kept.

Precision: corruption, forward, backward and the update keep the float
dtype they are given; normalization and the fine-tuning losses are float64.
``pipeline.train_popf_model`` trains in float32, which halves the bytes
every epoch moves and runs its matrix products in single precision, then
widens the final weights to float64; checkpoints and inference are float64.
Inference runs an ``inference_copy`` of the model, whose first and top
layers carry the min-max scaling, so no row is normalized or denormalized.

Determinism: all randomness (init, corruption masks, batch shuffles) comes
from PCG64 streams derived from the config seed, so identical configs yield
bit-identical checkpoints. The init draws are float64 whatever the training
precision, and each batch's corruption masks come from one uniform draw.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import (CorruptFile, DimensionMismatch, FormatVersionMismatch,
                     NonFiniteGradient, NonFiniteLoss)
from .ioutil import atomic_write_bytes, write_tsv

CHECKPOINT_MAGIC = b"SDAEPOPF"
CHECKPOINT_VERSION = 1

RHO = 0.99          # squared-gradient moving-average rate
EPSILON = 1e-8      # inside the square root of the adaptive step


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for both training stages.

    ``corruption_level`` drives the denoising autoencoders during
    pretraining. Fine-tuning corrupts the first-layer input at
    ``corruption_level_finetune`` when set, else at the same level; with few
    input features, zeroing even one of them perturbs the operating point so
    much that training fits the noise-marginalized map instead of the true
    one, so small cases want this at 0.
    """

    hidden_sizes: tuple = (200, 400, 300)
    eta_unsup: float = 1e-4
    eta_sup: float = 1e-3
    batch_size: int = 500
    momentum: float = 0.9
    epochs_unsup: int = 500
    epochs_sup: int = 300
    patience: int = 20
    corruption_level: float = 0.1
    corruption_level_finetune: float | None = None
    seed: int = 0

    def __post_init__(self):
        rates = (("eta_unsup", self.eta_unsup), ("eta_sup", self.eta_sup))
        fractions = (("momentum", self.momentum), ("corruption_level", self.corruption_level))
        if self.corruption_level_finetune is not None:
            fractions += (("corruption_level_finetune", self.corruption_level_finetune),)
        for name, value in rates + fractions:
            if isinstance(value, bool) or not isinstance(value, Real) or not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name, value in rates:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name, value in fractions:
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")
        if not isinstance(self.hidden_sizes, (list, tuple)) or not self.hidden_sizes:
            raise ValueError(f"hidden_sizes must be a non-empty list of integers, got "
                             f"{self.hidden_sizes!r}")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        for name, value, minimum in (*(("every hidden size", h, 1) for h in self.hidden_sizes),
                                     ("batch_size", self.batch_size, 1),
                                     ("epochs_sup", self.epochs_sup, 1),
                                     ("epochs_unsup", self.epochs_unsup, 0),
                                     ("patience", self.patience, 0), ("seed", self.seed, 0)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
                raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")

    @property
    def finetune_corruption(self) -> float:
        if self.corruption_level_finetune is None:
            return self.corruption_level
        return self.corruption_level_finetune


@dataclass
class DaeLayer:
    """Encoder weights plus the decoder used only during pretraining."""

    w: np.ndarray
    b: np.ndarray
    w_dec: np.ndarray | None
    b_dec: np.ndarray | None


@dataclass
class SdaeModel:
    layers: list
    top_w: np.ndarray
    top_b: np.ndarray
    corruption_level: float
    x_lo: np.ndarray | None = None
    x_hi: np.ndarray | None = None
    y_lo: np.ndarray | None = None
    y_hi: np.ndarray | None = None

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def output_dim(self) -> int:
        return self.top_w.shape[0]

    def dims(self) -> tuple:
        return (self.input_dim, *(l.w.shape[0] for l in self.layers), self.output_dim)


def _floats(x) -> np.ndarray:
    """``x`` as a float array: float32 and float64 stay as they are, anything
    else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(float)


# ---------------------------------------------------------------------------
# normalization (three-branch min-max rule)


# a column whose training range is below this (in its own units) is constant
# in truth: its spread is noise of the arithmetic that produced it, e.g. the
# ~1e-14 pu an idle generator reads, and scaling by it would blow up any value
# outside that noise
RANGE_FLOOR = 1e-9


def fit_bounds(data: np.ndarray):
    """Per-column min and max of the training matrix; a column whose range is
    below ``RANGE_FLOOR`` gets hi = lo and is treated as constant."""
    data = np.asarray(data, dtype=float)
    lo, hi = data.min(axis=0), data.max(axis=0)
    return lo, np.where(hi - lo < RANGE_FLOOR, lo, hi)


def normalize(v, lo, hi):
    """Min-max scale with the degenerate-column branches.

    Columns with hi > lo map through (v - lo)/(hi - lo); constant nonzero
    columns map to lo/hi = 1; all-zero columns pass through unchanged. The
    ranged formula runs over the whole matrix, then only the degenerate
    columns are overwritten.
    """
    v, lo, hi, shape = _as_columns(v, lo, hi)
    span = hi - lo
    fixed = np.flatnonzero(span == 0)
    out = v - lo
    out /= np.where(span == 0, 1.0, span)
    out[..., fixed] = np.where(hi[fixed] != 0, 1.0, v[..., fixed])
    return out.reshape(shape)


def _as_columns(v, lo, hi):
    """v broadcast to the shape of the result (at least one dimension), lo and
    hi as float vectors of its width, and the shape to return."""
    shape = np.broadcast_shapes(np.shape(v), np.shape(lo), np.shape(hi))
    full = shape or (1,)
    v = np.broadcast_to(np.asarray(v, dtype=float), full)
    lo, hi = (np.broadcast_to(np.asarray(a, dtype=float), full[-1:]) for a in (lo, hi))
    return v, lo, hi, shape


def inference_copy(model: SdaeModel) -> SdaeModel:
    """A float64 inference model with ``model``'s min-max scaling folded into
    new first and top layers (the layers between are shared):
    ``_run_layers(copy, x)`` maps raw inputs to outputs in their own units,
    with no normalize or denormalize pass.

    The first layer takes the input scaling. A ranged column's weights are
    divided by its span and its ``lo`` moves into the bias; a constant
    nonzero column (normalized to 1) moves its weights into the bias and gets
    weight 0; an all-zero column keeps its raw weight, as it passes through
    normalization unchanged. The top layer takes the output scaling: a
    ranged output's row and bias scale by its span and ``lo`` joins the
    bias, and a constant output gets a zero row and returns exactly ``lo``.
    """
    if model.x_lo is None or model.y_lo is None:
        raise ValueError("model has no stored normalization bounds; train it first")
    span = model.x_hi - model.x_lo
    ranged = span != 0
    constant = ~ranged & (model.x_hi != 0)
    first = model.layers[0]
    w = first.w / np.where(ranged, span, 1.0)
    w[:, constant] = 0.0
    b = first.b + first.w[:, constant].sum(axis=1) - w[:, ranged] @ model.x_lo[ranged]

    span = model.y_hi - model.y_lo
    fixed = span == 0
    top_w = model.top_w * span[:, None]
    top_b = model.top_b * span + model.y_lo
    top_w[fixed] = 0.0
    top_b[fixed] = model.y_lo[fixed]

    layers = [DaeLayer(w=w, b=b, w_dec=None, b_dec=None)]
    layers += [DaeLayer(w=np.asarray(l.w, dtype=float), b=np.asarray(l.b, dtype=float),
                        w_dec=None, b_dec=None) for l in model.layers[1:]]
    return SdaeModel(layers=layers, top_w=top_w, top_b=top_b, corruption_level=0.0)


# ---------------------------------------------------------------------------
# corruption


def corrupt(x: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """Zero out exactly k = round(level * dim) positions per row, on a copy.

    Masking noise as Vincent et al. (JMLR 11, 2010) define it: each row's k
    positions are a fresh uniform k-subset, the indexes of the k smallest of
    dim uniform draws. One draw covers the whole batch, so a fixed generator
    state reproduces every mask exactly. The float dtype is kept.
    """
    x = _floats(x)
    single = x.ndim == 1
    rows = np.atleast_2d(x).copy()
    m, dim = rows.shape
    k = int(round(level * dim))
    if k > 0:
        picked = np.argpartition(rng.random((m, dim)), k - 1, axis=1)[:, :k]
        np.put_along_axis(rows, picked, 0.0, axis=1)
    return rows[0] if single else rows


# ---------------------------------------------------------------------------
# forward / loss / backward


def forward(model: SdaeModel, X: np.ndarray, train: bool = False,
            rng: np.random.Generator | None = None):
    """Run the stack; returns (outputs, cache for backprop).

    Train mode corrupts the input of the first layer only; infer mode never
    touches the generator.
    """
    X = np.atleast_2d(_floats(X))
    if X.shape[1] != model.input_dim:
        raise DimensionMismatch(f"expected input width {model.input_dim}, got {X.shape[1]}")
    if train and model.corruption_level > 0:
        if rng is None:
            raise ValueError("train-mode forward with corruption needs an rng")
        x_used = corrupt(X, model.corruption_level, rng)
    else:
        x_used = X
    acts = []
    y = _run_layers(model, x_used, acts)
    return y, {"x": x_used, "acts": acts}


def _run_layers(model: SdaeModel, x: np.ndarray, acts: list | None = None,
                out: list | None = None, biases: list | None = None) -> np.ndarray:
    """The stack's layer arithmetic, and the inference kernel: the ReLU
    kernel over the hidden layers, then the affine top (see module doc).
    With ``acts`` every activation, the output last, is appended to it for
    backprop; with or without, the output is ``forward(model, x)[0]`` bit for
    bit. Inference calls it without a list from worker threads, with ``out``:
    one buffer per layer, the top last, each of at least ``len(x)`` rows,
    that the layers write in place of new arrays, and with ``biases``: each
    layer's bias, the top's last, repeated down ``len(x)`` rows, which adds
    the same values as the broadcast bias without its loop over rows. Both
    give the same bits.
    """
    if biases is None:
        biases = [layer.b for layer in model.layers] + [model.top_b]
    hidden, top = (None, None) if out is None else (out[:-1], out[-1][:len(x)])
    pairs = [(layer.w, b) for layer, b in zip(model.layers, biases)]
    a = _relu_layers(x, pairs, acts, hidden)
    y = np.matmul(a, model.top_w.T, out=top)
    y += biases[-1]
    if acts is not None:
        acts.append(y)
    return y


def _relu_layers(a: np.ndarray, pairs, acts: list | None = None,
                 out: list | None = None) -> np.ndarray:
    """``a = max(a @ w.T + b, 0)`` for each ``(w, b)`` of ``pairs`` in turn,
    appending each activation to ``acts`` when given; ``a`` is never written.
    With ``out``, one buffer per pair of at least ``len(a)`` rows, each
    activation is written into its buffer. The product's dtype is never
    narrower than the bias's (weights and biases are cast together), so the
    in-place bias and ReLU give the bits of ``np.maximum(a @ w.T + b, 0.0)``."""
    for l, (w, b) in enumerate(pairs):
        a = np.matmul(a, w.T, out=None if out is None else out[l][:len(a)])
        a += b
        np.maximum(a, 0.0, out=a)
        if acts is not None:
            acts.append(a)
    return a


def _relu_backprop(pairs, x: np.ndarray, acts: list, grad: np.ndarray) -> list:
    """Gradients ``[g_w, g_b, ...]`` of the ReLU layers ``pairs``, in their
    order, which ``_relu_layers`` ran on input ``x`` with activations
    ``acts``, given the loss gradient ``grad`` at the last activation."""
    grads = []
    for l in range(len(pairs) - 1, -1, -1):
        delta = grad * (acts[l] > 0)
        grads[:0] = (delta.T @ (acts[l - 1] if l else x), delta.sum(axis=0))
        if l:
            grad = delta @ pairs[l][0]
    return grads


def mse_loss(y, y_hat) -> float:
    """Half the summed squared error of one target/prediction pair."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise DimensionMismatch(f"shape mismatch {y.shape} vs {y_hat.shape}")
    return 0.5 * float(np.sum((y_hat - y) ** 2))


def batch_loss(y, y_hat) -> float:
    """Per-sample average of mse_loss over a batch."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return mse_loss(y, np.atleast_2d(np.asarray(y_hat, dtype=float))) / y.shape[0]


def backward(model: SdaeModel, cache: dict, y_true: np.ndarray) -> list:
    """Gradients of the batch-averaged loss, ordered like model_params()."""
    *hidden, y_hat = cache["acts"]
    y_true = np.atleast_2d(_floats(y_true))
    if y_true.shape != y_hat.shape:
        raise DimensionMismatch(f"targets {y_true.shape} vs outputs {y_hat.shape}")
    delta = (y_hat - y_true) / y_hat.shape[0]
    top_in = hidden[-1] if hidden else cache["x"]
    pairs = [(layer.w, layer.b) for layer in model.layers]
    return (_relu_backprop(pairs, cache["x"], hidden, delta @ model.top_w)
            + [delta.T @ top_in, delta.sum(axis=0)])


def model_params(model: SdaeModel) -> list:
    """Flat list of trainable arrays: per-layer w, b, then top w, b."""
    params = []
    for layer in model.layers:
        params.extend([layer.w, layer.b])
    params.extend([model.top_w, model.top_b])
    return params


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptState:
    """Per-parameter RMSProp accumulators and previous applied updates."""

    rr: list
    prev: list
    eta: float
    momentum: float


def init_opt_state(params: list, eta: float, momentum: float) -> OptState:
    return OptState(rr=[np.zeros_like(p) for p in params],
                    prev=[np.zeros_like(p) for p in params],
                    eta=eta, momentum=momentum)


def rmsprop_momentum_step(params: list, grads: list, opt: OptState):
    """One adaptive update in place.

    Accumulator: rr <- rho*rr + (1-rho)*g*g. Raw step: eta*g/sqrt(eps+rr).
    Applied step: momentum*raw + (1-momentum)*previous applied step.
    """
    for p, g, rr, prev in zip(params, grads, opt.rr, opt.prev):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("gradient contains NaN or infinity")
        rr *= RHO
        rr += (1.0 - RHO) * g * g
        raw = opt.eta / np.sqrt(EPSILON + rr) * g
        applied = opt.momentum * raw + (1.0 - opt.momentum) * prev
        p -= applied
        prev[...] = applied
    return params, opt


# ---------------------------------------------------------------------------
# initialization


def init_model(input_dim: int, hidden_sizes, output_dim: int,
               corruption_level: float, rng: np.random.Generator) -> SdaeModel:
    """Scaled-uniform weights (plus-minus sqrt(6/(fan_in+fan_out))), zero biases."""
    layers = []
    fan_in = input_dim
    for width in hidden_sizes:
        layers.append(DaeLayer(
            w=_uniform_init(width, fan_in, rng),
            b=np.zeros(width),
            w_dec=_uniform_init(fan_in, width, rng),
            b_dec=np.zeros(fan_in),
        ))
        fan_in = width
    top_w = _uniform_init(output_dim, fan_in, rng)
    return SdaeModel(layers=layers, top_w=top_w, top_b=np.zeros(output_dim),
                     corruption_level=corruption_level)


def cast_model(model: SdaeModel, dtype) -> SdaeModel:
    """Cast every weight array (decoders included) to ``dtype``, in place."""
    for layer in model.layers:
        layer.w, layer.b = layer.w.astype(dtype), layer.b.astype(dtype)
        if layer.w_dec is not None:
            layer.w_dec, layer.b_dec = layer.w_dec.astype(dtype), layer.b_dec.astype(dtype)
    model.top_w, model.top_b = model.top_w.astype(dtype), model.top_b.astype(dtype)
    return model


def _uniform_init(n_out: int, n_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-bound, bound, size=(n_out, n_in))


# ---------------------------------------------------------------------------
# pretraining


def pretrain_layer(layer: DaeLayer, inputs: np.ndarray, cfg: TrainConfig,
                   rng: np.random.Generator, context: str = "layer") -> list:
    """Fit one denoising autoencoder on its (already normalized) inputs.

    Minimizes the reconstruction loss of the clean input from the corrupted
    input. Returns the per-epoch loss history; the layer is updated in place.
    """
    n = inputs.shape[0]
    params = [layer.w, layer.b, layer.w_dec, layer.b_dec]
    opt = init_opt_state(params, cfg.eta_unsup, cfg.momentum)
    history = []
    for epoch in range(cfg.epochs_unsup):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x_clean = inputs[idx]
            x_noisy = corrupt(x_clean, cfg.corruption_level, rng)
            loss, grads = _dae_loss_grads(layer, x_clean, x_noisy)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"{context}: reconstruction loss diverged at epoch {epoch}")
            rmsprop_momentum_step(params, grads, opt)
            total += loss * len(idx)
        history.append(total / n)
    return history


def _dae_loss_grads(layer: DaeLayer, x_clean: np.ndarray, x_noisy: np.ndarray):
    """Reconstruction loss (in the batch's dtype) and ``[g_w, g_b, g_wdec,
    g_bdec]``; encoder and decoder are two layers of the ReLU kernel."""
    m = x_clean.shape[0]
    pairs = [(layer.w, layer.b), (layer.w_dec, layer.b_dec)]
    acts = []
    diff = _relu_layers(x_noisy, pairs, acts) - x_clean
    loss = 0.5 * float(np.sum(diff ** 2)) / m
    return loss, _relu_backprop(pairs, x_noisy, acts, diff / m)


def pretrain_stack(model: SdaeModel, x_train: np.ndarray, cfg: TrainConfig,
                   rng: np.random.Generator) -> list:
    """Layer-wise pretraining, bottom to top.

    Each layer trains as a DAE on the clean (uncorrupted) activations of the
    trained layers below it; decoder parameters are discarded afterwards.
    Returns each layer's per-epoch reconstruction losses.
    """
    acts = _floats(x_train)
    losses = []
    for l, layer in enumerate(model.layers):
        losses.append(pretrain_layer(layer, acts, cfg, rng, context=f"pretraining layer {l}"))
        acts = _relu_layers(acts, [(layer.w, layer.b)])
        layer.w_dec = None
        layer.b_dec = None
    return losses


# ---------------------------------------------------------------------------
# supervised fine-tuning


def finetune(model: SdaeModel, x_train, y_train, x_val, y_val,
             cfg: TrainConfig, rng: np.random.Generator):
    """End-to-end supervised training with early stopping.

    Corruption is applied to the first-layer input during training batches
    only; validation always runs clean. The parameter snapshot with the best
    validation loss is restored before returning.

    Returns (model, history) where history rows are
    (epoch, train_loss, val_loss).
    """
    x_train = _floats(x_train)
    y_train = _floats(y_train)
    n = x_train.shape[0]
    params = model_params(model)
    opt = init_opt_state(params, cfg.eta_sup, cfg.momentum)

    history = []
    for epoch in range(cfg.epochs_sup):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            y_hat, cache = forward(model, x_train[idx], train=True, rng=rng)
            loss = batch_loss(y_train[idx], y_hat)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"supervised loss diverged at epoch {epoch}")
            grads = backward(model, cache, y_train[idx])
            rmsprop_momentum_step(params, grads, opt)
            total += loss * len(idx)
        train_loss = total / n
        val_hat, _ = forward(model, x_val)
        val_loss = batch_loss(y_val, val_hat)
        if not np.isfinite(val_loss):
            raise NonFiniteLoss(f"validation loss diverged at epoch {epoch}")
        history.append((epoch, train_loss, val_loss))

        best, reason = early_stop(history, cfg.patience)
        if best == epoch:
            best_snapshot = [p.copy() for p in params]
        elif reason == "early stop":
            break

    for p, snap in zip(params, best_snapshot):
        p[...] = snap
    return model, history


def early_stop(history, patience: int):
    """Best epoch of a fine-tuning history (the first with the lowest
    validation loss), and why the run stopped: "early stop" when ``patience``
    epochs, and at least one, followed the best one, else "epoch cap". At
    patience 0 a run stops at its first epoch that does not improve, and one
    that improves at every epoch reaches the cap. ``finetune`` stops by this
    rule."""
    best = min(history, key=lambda row: row[2])[0]
    return best, "early stop" if history[-1][0] - best >= max(patience, 1) else "epoch cap"


def save_history(history, path) -> None:
    """Delimited text: epoch, train loss, val loss."""
    write_tsv(path, ["epoch", "train_loss", "val_loss"], history)


def save_pretrain_losses(losses, path) -> None:
    """Delimited text: layer, epoch, reconstruction loss (``pretrain_stack``'s
    per-layer losses)."""
    write_tsv(path, ["layer", "epoch", "loss"],
              [(l, epoch, loss) for l, layer_losses in enumerate(losses)
               for epoch, loss in enumerate(layer_losses)])


def save_stop(history, patience: int, path) -> None:
    """Delimited text, one row: epochs run, best epoch, its val loss, and the
    stop reason of ``early_stop``."""
    best, reason = early_stop(history, patience)
    write_tsv(path, ["epochs", "best_epoch", "best_val_loss", "reason"],
              [(len(history), best, history[best][2], reason)])


# ---------------------------------------------------------------------------
# checkpoint format


def _checkpoint_arrays(model: SdaeModel) -> list:
    """The arrays of a checkpoint body, in file order: the input and output
    bounds, then the ``model_params`` order."""
    return [model.x_lo, model.x_hi, model.y_lo, model.y_hi, *model_params(model)]


def save_model(model: SdaeModel, path) -> None:
    """Binary little-endian checkpoint with a trailing 64-bit checksum."""
    if model.x_lo is None or model.y_lo is None:
        raise ValueError("model has no stored normalization bounds; train it first")
    dims = model.dims()
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<II", CHECKPOINT_VERSION, len(model.layers))
    body += struct.pack(f"<{len(dims)}I", *dims)
    body += struct.pack("<d", model.corruption_level)
    for arr in _checkpoint_arrays(model):
        body += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    body += hashlib.blake2b(bytes(body), digest_size=8).digest()
    atomic_write_bytes(Path(path), bytes(body))


def load_model(path) -> SdaeModel:
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 8 or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CorruptFile(f"{path}: not a model checkpoint")
    version = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))[0]
    if version != CHECKPOINT_VERSION:
        raise FormatVersionMismatch(f"{path}: format version {version}, this build reads {CHECKPOINT_VERSION}")
    body, checksum = raw[:-8], raw[-8:]
    if hashlib.blake2b(body, digest_size=8).digest() != checksum:
        raise CorruptFile(f"{path}: checksum mismatch (truncated or altered)")

    off = len(CHECKPOINT_MAGIC) + 4
    try:
        n_layers = struct.unpack_from("<I", body, off)[0]
        off += 4
        dims = struct.unpack_from(f"<{n_layers + 2}I", body, off)
        off += 4 * (n_layers + 2)
        corruption = struct.unpack_from("<d", body, off)[0]
        off += 8
        # an empty model of the header's dims, filled in file order; dims too
        # large to allocate are malformed too
        d_in, d_out = dims[0], dims[-1]
        layers = [DaeLayer(w=np.empty((width, fan_in)), b=np.empty(width), w_dec=None, b_dec=None)
                  for fan_in, width in zip(dims[:-2], dims[1:-1])]
        model = SdaeModel(layers=layers, top_w=np.empty((d_out, dims[-2])), top_b=np.empty(d_out),
                          corruption_level=corruption, x_lo=np.empty(d_in), x_hi=np.empty(d_in),
                          y_lo=np.empty(d_out), y_hi=np.empty(d_out))
        for arr in _checkpoint_arrays(model):
            arr[...] = np.frombuffer(body, dtype="<f8", count=arr.size, offset=off).reshape(arr.shape)
            off += 8 * arr.size
    except (struct.error, ValueError, MemoryError) as exc:
        raise CorruptFile(f"{path}: malformed checkpoint body: {exc}") from None
    if off != len(body):
        raise CorruptFile(f"{path}: {len(body) - off} unexpected trailing bytes")
    return model
