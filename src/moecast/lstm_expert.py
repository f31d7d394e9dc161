"""Single-layer LSTM with a scalar output head, trained by BPTT and Adam.

The cell follows the standard gate algebra

    f = sig(W_f [h, x] + b_f)          i = sig(W_i [h, x] + b_i)
    c~ = tanh(W_C [h, x] + b_C)        C' = f * C + i * c~
    o = sig(W_o [h, x] + b_o)          h' = o * tanh(C')

with elementwise products throughout; the prediction after the final step is
``W_y h + b_y``.

All parameters live in one flat float64 vector ``theta``.  For hidden size H
and input dimension D it holds, in ``PARAM_FIELDS`` order,

    W_f, W_i, W_C, W_o    (H, H + D) each, acting on the concatenated [h, x]
    b_f, b_i, b_C, b_o    (H,) each
    W_y, b_y              (1, H) and (1,)

that is ``4H(H + D) + 5H + 1`` entries, and the named fields are reshaped
views into it.  A gradient has the same layout, so Adam, clipping and copies
act on ``theta`` alone while the cell and BPTT read and write the views.
Gradients are exact analytic backpropagation through time of the batch
mean-squared error; ``tests`` verify them against central finite
differences.  Everything is plain float64 numpy and deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import FitError

__all__ = [
    "LstmParams",
    "TrainConfig",
    "Tape",
    "EpochRecord",
    "init_params",
    "cell_step",
    "forward_batch",
    "loss_mse",
    "backward_bptt",
    "adam_step",
    "train_early_stopping",
    "predict_lstm",
]

PARAM_FIELDS = ("W_f", "W_i", "W_C", "W_o", "b_f", "b_i", "b_C", "b_o", "W_y", "b_y")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp only ever sees a non-positive argument, so neither branch overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _field_shapes(hidden: int, input_dim: int) -> tuple[tuple[int, ...], ...]:
    gate, bias = (hidden, hidden + input_dim), (hidden,)
    return (gate,) * 4 + (bias,) * 4 + ((1, hidden), (1,))


class LstmParams:
    """One flat float64 ``theta`` plus the named views into it (module docstring).

    A write through a view, such as ``p.b_f[...] = 0``, writes ``theta``.
    :meth:`from_arrays` builds parameters from named arrays and checks their
    shapes; the constructor wraps a ``theta`` of the right size.
    """

    def __init__(self, theta: np.ndarray, hidden: int, input_dim: int) -> None:
        if hidden < 1 or input_dim < 1:
            raise FitError(f"inconsistent shapes: hidden={hidden}, input_dim={input_dim}")
        shapes = _field_shapes(hidden, input_dim)
        sizes = [math.prod(shape) for shape in shapes]
        if theta.dtype != np.float64 or theta.shape != (sum(sizes),):
            raise FitError(f"theta must be float64 of shape {(sum(sizes),)}, got {theta.shape}")
        self.theta, self.hidden, self.input_dim = theta, hidden, input_dim
        offset = 0
        for name, shape, size in zip(PARAM_FIELDS, shapes, sizes):
            setattr(self, name, theta[offset:offset + size].reshape(shape))
            offset += size

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "LstmParams":
        """Copy the ten named arrays into one ``theta``, rejecting any wrong shape."""
        gate_shape = np.shape(arrays["W_f"])
        if len(gate_shape) != 2:
            raise FitError(f"W_f must be a matrix, got shape {gate_shape}")
        hidden, input_dim = gate_shape[0], gate_shape[1] - gate_shape[0]
        parts = []
        for name, shape in zip(PARAM_FIELDS, _field_shapes(hidden, input_dim)):
            arr = np.asarray(arrays[name], dtype=float)
            if arr.shape != shape:
                raise FitError(f"{name} must have shape {shape}, got {arr.shape}")
            parts.append(arr.reshape(-1))
        return cls(np.concatenate(parts), hidden, input_dim)

    def with_theta(self, theta: np.ndarray) -> "LstmParams":
        """Parameters of the same shapes over another flat vector."""
        return LstmParams(theta, self.hidden, self.input_dim)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def copy(self) -> "LstmParams":
        return self.with_theta(self.theta.copy())


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    clip_norm: float | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise FitError("learning rate, batch size, and max epochs must be positive")
        if not (0 < self.patience <= self.max_epochs):
            raise FitError(f"patience must lie in [1, max_epochs], got {self.patience}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1 and self.adam_eps > 0):
            raise FitError("invalid Adam coefficients")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise FitError(f"clip_norm must be positive when set, got {self.clip_norm}")


@dataclass(frozen=True)
class Tape:
    """Per-step activations cached by the forward pass for exact BPTT.

    ``steps[t]`` is ``(z, C_prev, f, i, cbar, o, C, tanh_C, h)``: the step's
    ``[h, x]`` rows and incoming cell state, then :func:`_cell`'s outputs.
    """

    steps: tuple[tuple[np.ndarray, ...], ...]
    predictions: np.ndarray


def init_params(hidden: int, input_dim: int, seed: int) -> LstmParams:
    """Uniform fan-scaled weights, zero biases except a forget bias of one.

    Each matrix draws from ``U(-b, b)`` with ``b = sqrt(6 / (fan_in +
    fan_out))``; the forget bias starts at one so early training does not
    erase the cell state.  Deterministic for a fixed seed.
    """
    if hidden < 1 or input_dim < 1:
        raise FitError(f"hidden and input_dim must be positive, got {hidden}, {input_dim}")
    rng = np.random.default_rng(seed)

    def draw(rows: int, cols: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))

    gate_cols = hidden + input_dim
    return LstmParams.from_arrays(
        dict(
            W_f=draw(hidden, gate_cols),
            W_i=draw(hidden, gate_cols),
            W_C=draw(hidden, gate_cols),
            W_o=draw(hidden, gate_cols),
            b_f=np.ones(hidden),
            b_i=np.zeros(hidden),
            b_C=np.zeros(hidden),
            b_o=np.zeros(hidden),
            W_y=draw(1, hidden),
            b_y=np.zeros(1),
        )
    )


def _as_batch(params: LstmParams, inputs: np.ndarray) -> np.ndarray:
    X = np.asarray(inputs, dtype=float)
    if X.ndim == 2:
        X = X[:, :, None]
    if X.ndim != 3 or X.shape[1] < 1:
        raise FitError(f"inputs must be (batch, steps[, dim]) with steps >= 1, got {X.shape}")
    if X.shape[2] != params.input_dim:
        raise FitError(f"input dim {X.shape[2]} does not match parameters ({params.input_dim})")
    return X


def _as_single(inputs: np.ndarray) -> np.ndarray:
    arr = np.asarray(inputs, dtype=float)
    if arr.ndim not in (1, 2):
        raise FitError(f"a single sequence must be 1- or 2-dimensional, got shape {arr.shape}")
    return arr[None]


def _cell(params: LstmParams, z: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, ...]:
    """One step on the ``[h, x]`` rows ``z``: ``(f, i, cbar, o, C', tanh C', h')``.

    The four gate matmuls stay separate (a fused one rounds differently); the
    three sigmoid gates share one elementwise call.
    """
    f, i, o = _sigmoid(
        np.stack(
            [
                z @ params.W_f.T + params.b_f,
                z @ params.W_i.T + params.b_i,
                z @ params.W_o.T + params.b_o,
            ]
        )
    )
    cbar = np.tanh(z @ params.W_C.T + params.b_C)
    C_new = f * C + i * cbar
    tanh_C = np.tanh(C_new)
    return f, i, cbar, o, C_new, tanh_C, o * tanh_C


def cell_step(
    params: LstmParams, x_t: np.ndarray, h: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update ``(h', C')`` for a single (unbatched) input vector.

    Written gate by gate, apart from :func:`_cell`, as the reference the
    batched forward pass is tested against.
    """
    x_t = np.asarray(x_t, dtype=float).reshape(-1)
    if x_t.shape[0] != params.input_dim:
        raise FitError(f"input has dim {x_t.shape[0]}, parameters expect {params.input_dim}")
    if h.shape != (params.hidden,) or C.shape != (params.hidden,):
        raise FitError("state vectors do not match the hidden size")
    z = np.concatenate([h, x_t])
    f = _sigmoid(params.W_f @ z + params.b_f)
    i = _sigmoid(params.W_i @ z + params.b_i)
    cbar = np.tanh(params.W_C @ z + params.b_C)
    C_new = f * C + i * cbar
    o = _sigmoid(params.W_o @ z + params.b_o)
    return o * np.tanh(C_new), C_new


def forward_batch(params: LstmParams, inputs: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Run a batch of sequences from a zero state and apply the output head.

    ``inputs`` has shape (batch, steps) for scalar steps or (batch, steps,
    input_dim).  Returns the per-sequence predictions and the activation tape
    needed by :func:`backward_bptt`.
    """
    X = _as_batch(params, inputs)
    batch, steps, _ = X.shape
    h = np.zeros((batch, params.hidden))
    C = np.zeros((batch, params.hidden))
    caches = []
    for t in range(steps):
        z = np.concatenate([h, X[:, t, :]], axis=1)
        out = _cell(params, z, C)
        caches.append((z, C) + out)
        *_, C, _, h = out
    predictions = h @ params.W_y[0] + params.b_y[0]
    return predictions, Tape(steps=tuple(caches), predictions=predictions)


def loss_mse(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise FitError(
            f"predictions and targets must share a non-empty shape, "
            f"got {predictions.shape} and {targets.shape}"
        )
    diff = predictions - targets
    return float((diff * diff).mean())


def backward_bptt(params: LstmParams, targets: np.ndarray, tape: Tape) -> LstmParams:
    """Exact gradient of the batch MSE with respect to every parameter.

    The gradient comes back as an :class:`LstmParams` of the same layout.  The
    tape must come from :func:`forward_batch` on the batch the targets belong
    to.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if targets.shape[0] != tape.predictions.shape[0]:
        raise FitError(
            f"tape batch size {tape.predictions.shape[0]} does not match "
            f"{targets.shape[0]} targets"
        )
    batch = targets.shape[0]
    hidden = params.hidden
    grads = params.with_theta(np.zeros_like(params.theta))

    dpred = 2.0 * (tape.predictions - targets) / batch
    grads.W_y[0] = dpred @ tape.steps[-1][-1]
    grads.b_y[0] = dpred.sum()
    dh = dpred[:, None] * params.W_y
    dC = np.zeros((batch, hidden))
    for z, C_prev, f, i, cbar, o, _, tanh_C, _ in reversed(tape.steps):
        do = dh * tanh_C
        dC = dC + dh * o * (1.0 - tanh_C**2)
        df = dC * C_prev
        di = dC * cbar
        dcbar = dC * i
        da_f = df * f * (1.0 - f)
        da_i = di * i * (1.0 - i)
        da_c = dcbar * (1.0 - cbar**2)
        da_o = do * o * (1.0 - o)
        grads.W_f += da_f.T @ z
        grads.W_i += da_i.T @ z
        grads.W_C += da_c.T @ z
        grads.W_o += da_o.T @ z
        grads.b_f += da_f.sum(axis=0)
        grads.b_i += da_i.sum(axis=0)
        grads.b_C += da_c.sum(axis=0)
        grads.b_o += da_o.sum(axis=0)
        dz = da_f @ params.W_f + da_i @ params.W_i + da_c @ params.W_C + da_o @ params.W_o
        dh = dz[:, :hidden]
        dC = dC * f
    return grads


def _clipped(grads: LstmParams, clip_norm: float) -> LstmParams:
    """``grads`` scaled down to global norm ``clip_norm`` when it is longer."""
    # summed per field, in field order, not as one sum over theta: the two
    # round differently, and clipped runs are pinned to this order's bits
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.arrays().values()))
    if norm <= clip_norm:
        return grads
    return grads.with_theta(grads.theta * (clip_norm / norm))


def adam_step(
    params: LstmParams,
    grads: LstmParams,
    moments: tuple[np.ndarray, np.ndarray],
    t: int,
    cfg: TrainConfig,
) -> tuple[LstmParams, tuple[np.ndarray, np.ndarray]]:
    """One bias-corrected Adam update of ``theta``; returns fresh params and moments.

    ``moments`` is the pair of first/second moment vectors, zeros before the
    first step.
    """
    if t < 1:
        raise FitError(f"Adam step counter must be >= 1, got {t}")
    g = grads.theta
    if g.shape != params.theta.shape:
        raise FitError(f"gradient has shape {g.shape}, expected {params.theta.shape}")
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    m = b1 * moments[0] + (1.0 - b1) * g
    v = b2 * moments[1] + (1.0 - b2) * g * g
    # lr * m_hat / (sqrt(v_hat) + eps), updated in place: at hidden 50 the
    # fresh temporaries of the one-expression form cost twice the arithmetic
    step = m / (1.0 - b1**t)
    step *= cfg.learning_rate
    step /= np.sqrt(v / (1.0 - b2**t)) + cfg.adam_eps
    return params.with_theta(params.theta - step), (m, v)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_mse: float
    val_mae: float
    best_val_mae: float


def _validation_mae(params: LstmParams, val_inputs: np.ndarray, val_targets: np.ndarray) -> float:
    preds, _ = forward_batch(params, val_inputs)
    return float(np.abs(preds - np.asarray(val_targets, dtype=float)).mean())


def train_early_stopping(
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    val_inputs: np.ndarray,
    val_targets: np.ndarray,
    cfg: TrainConfig,
    hidden: int = 50,
    init: LstmParams | None = None,
) -> tuple[LstmParams, list[EpochRecord]]:
    """Mini-batch Adam training with patience-based early stopping.

    Each epoch visits the training samples in a shuffled order keyed by
    ``(cfg.seed, epoch)``; the trailing partial batch is trained on rather
    than dropped.  After each epoch the mean absolute error on the validation
    split is measured, and once it has failed to improve for ``cfg.patience``
    consecutive epochs training stops and the parameters from the
    best-validation epoch are returned along with the per-epoch history.
    Raises :class:`FitError` when no epoch reached a finite validation error
    or the best epoch's parameters are not all finite.
    """
    train_inputs = np.asarray(train_inputs, dtype=float)
    train_targets = np.asarray(train_targets, dtype=float).reshape(-1)
    val_inputs = np.asarray(val_inputs, dtype=float)
    val_targets = np.asarray(val_targets, dtype=float).reshape(-1)
    if len(train_targets) == 0 or len(val_targets) == 0:
        raise FitError("both the training and validation splits must be non-empty")
    input_dim = 1 if train_inputs.ndim == 2 else train_inputs.shape[2]

    params = init.copy() if init is not None else init_params(hidden, input_dim, cfg.seed)
    moments = (np.zeros_like(params.theta), np.zeros_like(params.theta))
    step = 0
    n = len(train_targets)

    best_params = params.copy()
    best_mae = math.inf
    epochs_since_improvement = 0
    history: list[EpochRecord] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        epoch_sse = 0.0
        for start in range(0, n, cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            preds, tape = forward_batch(params, train_inputs[batch_idx])
            grads = backward_bptt(params, train_targets[batch_idx], tape)
            if cfg.clip_norm is not None:
                grads = _clipped(grads, cfg.clip_norm)
            step += 1
            params, moments = adam_step(params, grads, moments, step, cfg)
            epoch_sse += float(((preds - train_targets[batch_idx]) ** 2).sum())
        val_mae = _validation_mae(params, val_inputs, val_targets)
        if val_mae < best_mae:
            best_mae = val_mae
            best_params = params.copy()
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
        history.append(EpochRecord(epoch, epoch_sse / n, val_mae, best_mae))
        if epochs_since_improvement >= cfg.patience:
            break
    if not (math.isfinite(best_mae) and np.isfinite(best_params.theta).all()):
        raise FitError("the fit diverged: no epoch left finite parameters and validation error")
    return best_params, history


def predict_lstm(params: LstmParams, window: np.ndarray) -> float:
    """Forward pass of one window that keeps no activations.

    Runs the same per-step arithmetic as :func:`forward_batch` at batch size
    one, so the result equals ``forward_batch(params, window[None])[0][0]``
    bit for bit.
    """
    X = _as_batch(params, _as_single(window))
    h = np.zeros((1, params.hidden))
    C = np.zeros((1, params.hidden))
    for t in range(X.shape[1]):
        *_, C, _, h = _cell(params, np.concatenate([h, X[:, t, :]], axis=1), C)
    return float((h @ params.W_y[0] + params.b_y[0])[0])
