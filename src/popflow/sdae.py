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

Determinism: all randomness (init, corruption masks, batch shuffles) comes
from PCG64 streams derived from the config seed, so identical configs yield
bit-identical checkpoints.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
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
        if self.eta_unsup <= 0 or self.eta_sup <= 0:
            raise ValueError("learning rates must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0 <= self.corruption_level < 1:
            raise ValueError("corruption_level must be in [0, 1)")
        if self.corruption_level_finetune is not None and not 0 <= self.corruption_level_finetune < 1:
            raise ValueError("corruption_level_finetune must be in [0, 1)")
        if not self.hidden_sizes:
            raise ValueError("need at least one hidden layer")

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


def relu(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# normalization (three-branch min-max rule)


def fit_bounds(data: np.ndarray):
    """Per-column min and max of the training matrix."""
    data = np.asarray(data, dtype=float)
    return data.min(axis=0), data.max(axis=0)


def normalize(v, lo, hi):
    """Min-max scale with the degenerate-column branches.

    Columns with hi > lo map through (v - lo)/(hi - lo); constant nonzero
    columns map to lo/hi = 1; all-zero columns pass through unchanged.
    """
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = hi - lo
    ranged = span != 0
    const_nonzero = (~ranged) & (hi != 0)
    out = np.where(ranged, (v - lo) / np.where(ranged, span, 1.0), v)
    out = np.where(const_nonzero, 1.0, out)
    return out


def denormalize(v, lo, hi):
    """Inverse of normalize: degenerate columns restore their stored constant."""
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = hi - lo
    ranged = span != 0
    return np.where(ranged, lo + v * np.where(ranged, span, 1.0), lo)


# ---------------------------------------------------------------------------
# corruption


def corrupt(x: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """Zero out exactly round(level * dim) positions per row.

    Positions come from a seeded uniform permutation, one draw per row, so a
    fixed generator state reproduces the mask exactly.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = np.atleast_2d(x).copy()
    dim = rows.shape[1]
    k = int(round(level * dim))
    if k > 0:
        for r in range(rows.shape[0]):
            rows[r, rng.permutation(dim)[:k]] = 0.0
    return rows[0] if single else rows


# ---------------------------------------------------------------------------
# forward / loss / backward


def forward(model: SdaeModel, X: np.ndarray, train: bool = False,
            rng: np.random.Generator | None = None):
    """Run the stack; returns (outputs, cache for backprop).

    Train mode corrupts the input of the first layer only; infer mode never
    touches the generator.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_dim:
        raise DimensionMismatch(f"expected input width {model.input_dim}, got {X.shape[1]}")
    if train and model.corruption_level > 0:
        if rng is None:
            raise ValueError("train-mode forward with corruption needs an rng")
        x_used = corrupt(X, model.corruption_level, rng)
    else:
        x_used = X
    pre, post = [], []
    a = x_used
    for layer in model.layers:
        z = a @ layer.w.T + layer.b
        a = relu(z)
        pre.append(z)
        post.append(a)
    y = a @ model.top_w.T + model.top_b  # affine top, see module doc
    pre.append(y)
    post.append(y)
    return y, {"x": x_used, "pre": pre, "post": post}


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
    y_hat = cache["post"][-1]
    y_true = np.atleast_2d(np.asarray(y_true, dtype=float))
    if y_true.shape != y_hat.shape:
        raise DimensionMismatch(f"targets {y_true.shape} vs outputs {y_hat.shape}")
    m = y_hat.shape[0]
    delta = (y_hat - y_true) / m
    top_in = cache["post"][-2] if model.layers else cache["x"]
    grads_top = (delta.T @ top_in, delta.sum(axis=0))

    grads_layers = [None] * len(model.layers)
    upstream = model.top_w
    for l in range(len(model.layers) - 1, -1, -1):
        delta = (delta @ upstream) * (cache["pre"][l] > 0)
        layer_in = cache["post"][l - 1] if l > 0 else cache["x"]
        grads_layers[l] = (delta.T @ layer_in, delta.sum(axis=0))
        upstream = model.layers[l].w
    out = []
    for g in grads_layers:
        out.extend(g)
    out.extend(grads_top)
    return out


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
    m = x_clean.shape[0]
    z_mid = x_noisy @ layer.w.T + layer.b
    a = relu(z_mid)
    z_out = a @ layer.w_dec.T + layer.b_dec
    recon = relu(z_out)
    loss = 0.5 * float(np.sum((recon - x_clean) ** 2)) / m
    d_out = ((recon - x_clean) / m) * (z_out > 0)
    g_wdec = d_out.T @ a
    g_bdec = d_out.sum(axis=0)
    d_mid = (d_out @ layer.w_dec) * (z_mid > 0)
    g_w = d_mid.T @ x_noisy
    g_b = d_mid.sum(axis=0)
    return loss, [g_w, g_b, g_wdec, g_bdec]


def pretrain_stack(model: SdaeModel, x_train: np.ndarray, cfg: TrainConfig,
                   rng: np.random.Generator) -> SdaeModel:
    """Layer-wise pretraining, bottom to top.

    Each layer trains as a DAE on the clean (uncorrupted) activations of the
    trained layers below it; decoder parameters are discarded afterwards.
    """
    acts = np.asarray(x_train, dtype=float)
    for l, layer in enumerate(model.layers):
        pretrain_layer(layer, acts, cfg, rng, context=f"pretraining layer {l}")
        acts = relu(acts @ layer.w.T + layer.b)
        layer.w_dec = None
        layer.b_dec = None
    return model


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
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    n = x_train.shape[0]
    params = model_params(model)
    opt = init_opt_state(params, cfg.eta_sup, cfg.momentum)

    best_val = np.inf
    best_snapshot = [p.copy() for p in params]
    since_best = 0
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

        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = [p.copy() for p in params]
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    for p, snap in zip(params, best_snapshot):
        p[...] = snap
    return model, history


def save_history(history, path) -> None:
    """Delimited text: epoch, train loss, val loss."""
    write_tsv(path, ["epoch", "train_loss", "val_loss"], history)


# ---------------------------------------------------------------------------
# checkpoint format


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
    for arr in (model.x_lo, model.x_hi, model.y_lo, model.y_hi):
        body += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    for layer in model.layers:
        body += np.ascontiguousarray(layer.w, dtype="<f8").tobytes()
        body += np.ascontiguousarray(layer.b, dtype="<f8").tobytes()
    body += np.ascontiguousarray(model.top_w, dtype="<f8").tobytes()
    body += np.ascontiguousarray(model.top_b, dtype="<f8").tobytes()
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

        def take(count):
            nonlocal off
            arr = np.frombuffer(body, dtype="<f8", count=count, offset=off).copy()
            off += 8 * count
            return arr

        d_in, d_out = dims[0], dims[-1]
        x_lo, x_hi = take(d_in), take(d_in)
        y_lo, y_hi = take(d_out), take(d_out)
        layers = []
        fan_in = d_in
        for width in dims[1:-1]:
            w = take(width * fan_in).reshape(width, fan_in)
            b = take(width)
            layers.append(DaeLayer(w=w, b=b, w_dec=None, b_dec=None))
            fan_in = width
        top_w = take(d_out * fan_in).reshape(d_out, fan_in)
        top_b = take(d_out)
    except (struct.error, ValueError) as exc:
        raise CorruptFile(f"{path}: malformed checkpoint body: {exc}") from None
    if off != len(body):
        raise CorruptFile(f"{path}: {len(body) - off} unexpected trailing bytes")
    return SdaeModel(layers=layers, top_w=top_w, top_b=top_b, corruption_level=corruption,
                     x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi)
