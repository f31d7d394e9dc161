"""Single-layer LSTM with a scalar output head, trained by BPTT and Adam.

The cell follows the standard gate algebra

    f = sig(W_f [h, x] + b_f)          i = sig(W_i [h, x] + b_i)
    c~ = tanh(W_C [h, x] + b_C)        C' = f * C + i * c~
    o = sig(W_o [h, x] + b_o)          h' = o * tanh(C')

with elementwise products throughout; the prediction after the final step is
``W_y h + b_y``.

Each step reads one value ``x``: the expert forecasts from a window of one
firm's standardized values.  All parameters live in one flat float64 vector
``theta``.  For hidden size H it holds, in ``PARAM_FIELDS`` order,

    W_f, W_i, W_C, W_o    (H, H + 1) each, acting on the concatenated [h, x]
    b_f, b_i, b_C, b_o    (H,) each
    W_y, b_y              (1, H) and (1,)

that is ``4H(H + 1) + 5H + 1`` entries, and the named fields are reshaped
views into it.  A gradient has the same layout, so Adam and clipping act
on ``theta`` alone while the cell and BPTT read and write the views.
Gradients are exact analytic backpropagation through time of the batch
mean-squared error; ``tests`` verify them against central finite
differences.  Everything is plain float64 numpy and deterministic for a
fixed seed.

``theta`` may carry leading firm axes: a stack of F firms is one ``(F, P)``
array whose views are ``(F, H, H + 1)`` and so on, and every step of the
forward pass, BPTT and Adam runs all F firms in one numpy call
(``np.matmul`` over the stack).  The four gates likewise share one matmul
call.  Each slice of such a call is the same BLAS call as one gate of one
firm alone, so a stack reproduces F separate fits bit for bit.  Every fit is
such a stack: :func:`train_early_stopping` trains F >= 1 firms from one seed
each, and a fit of one firm is a stack of one.

Every pass runs the one cell kernel, :func:`_cell`, which writes into
buffers its caller holds, and the buffers follow one rule.  A pass owns its
buffers: it takes them once, not once per step, from a :class:`_Workspace`.
A fit owns its workspace, and its three steps run on it: the forward pass
leaves the mini-batch's tape there, BPTT its gradient, and Adam its
temporaries, while ``theta`` and the Adam moments are updated in place.
Nothing a public function returns aliases a buffer that a later call
overwrites: predictions and fitted parameters are fresh arrays.  Each
buffer is laid out as a fresh array of its shape would be, and every
element goes through the same operations in the same order, so the buffers
change no bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import FitError

__all__ = [
    "LstmParams",
    "TrainConfig",
    "EpochRecord",
    "init_params",
    "train_early_stopping",
    "predict_lstm",
    "recurse_lstm",
]

PARAM_FIELDS = ("W_f", "W_i", "W_C", "W_o", "b_f", "b_i", "b_C", "b_o", "W_y", "b_y")


def _sigmoid(x: np.ndarray, out: np.ndarray, work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The logistic function of ``x``, written to ``out`` (which may be ``x``).

    ``work`` is two scratch arrays of ``x``'s shape.
    """
    # 1 / (1 + e) where x >= 0, else e / (1 + e), with e = exp(-|x|): exp only
    # ever sees a non-positive argument, so neither branch overflows.  The
    # numerator is max(e, sign x): as e <= 1, that is 1 where x > 0, e where
    # x < 0, and 1 = e at x = 0
    den, sign = work
    np.sign(x, out=sign)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=den)
    np.maximum(out, sign, out=out)
    return np.divide(out, den, out=out)


@functools.lru_cache(maxsize=None)
def _layout(hidden: int) -> tuple[int, tuple[tuple[str, int, int, tuple], ...]]:
    """``theta``'s size and each field's ``(name, start, stop, shape)`` in it."""
    if hidden < 1:
        raise FitError(f"hidden must be positive, got {hidden}")
    gate, bias = (hidden, hidden + 1), (hidden,)
    fields, offset = [], 0
    for name, shape in zip(PARAM_FIELDS, (gate,) * 4 + (bias,) * 4 + ((1, hidden), (1,))):
        fields.append((name, offset, offset + math.prod(shape), shape))
        offset += math.prod(shape)
    return offset, tuple(fields)


class LstmParams:
    """One float64 ``theta`` plus the named views into it (module docstring).

    ``theta`` has shape ``(P,)`` for one firm, or leading firm axes before
    ``P`` for a stack, which every view then carries too.  A write through a
    view, such as ``p.b_f[...] = 0``, writes ``theta``, which is how
    :func:`init_params` and :meth:`from_arrays` fill a zero ``theta``.  The
    constructor wraps a ``theta`` of the right size.
    """

    def __init__(self, theta: np.ndarray, hidden: int) -> None:
        size, fields = _layout(hidden)
        if theta.dtype != np.float64 or theta.ndim < 1 or theta.shape[-1] != size:
            raise FitError(f"theta must be float64 of shape (..., {size}), got {theta.shape}")
        self.theta, self.hidden = theta, hidden
        lead = theta.shape[:-1]
        for name, start, stop, shape in fields:
            setattr(self, name, theta[..., start:stop].reshape(lead + shape))
        # the four gates' matrices and biases, f, i, C, o, on a leading gate
        # axis: W_f..W_o, then b_f..b_o, lie back to back in theta
        W_end, b_end = fields[3][2], fields[7][2]  # where W_o and b_o stop
        W = theta[..., :W_end].reshape(lead + (4,) + fields[0][3])
        b = theta[..., W_end:b_end].reshape(lead + (4, hidden))
        self.W_gates, self.b_gates = np.moveaxis(W, len(lead), 0), np.moveaxis(b, len(lead), 0)

    def __reduce__(self):
        # pickle theta alone: the views are rebuilt over it, so they still
        # share its memory after a round trip
        return LstmParams, (self.theta, self.hidden)

    def firm(self, k: int) -> "LstmParams":
        """Firm ``k`` of a stack, as a view."""
        return self.with_theta(self.theta[k])

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "LstmParams":
        """Copy the ten named arrays into one ``theta``, rejecting any wrong shape."""
        gate_shape = np.shape(arrays["W_f"])
        if len(gate_shape) != 2 or gate_shape[1] != gate_shape[0] + 1:
            raise FitError(f"W_f must have shape (H, H + 1), got {gate_shape}")
        params = cls(np.zeros(_layout(gate_shape[0])[0]), gate_shape[0])
        for name, view in params.arrays().items():
            arr = np.asarray(arrays[name], dtype=float)
            if arr.shape != view.shape:
                raise FitError(f"{name} must have shape {view.shape}, got {arr.shape}")
            view[...] = arr
        return params

    def with_theta(self, theta: np.ndarray) -> "LstmParams":
        """Parameters of the same shapes over another ``theta``, firm axes and all."""
        return LstmParams(theta, self.hidden)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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


class _Workspace:
    """Named float64 buffers that a pass, or a fit, reuses (module docstring).

    ``take(name, shape)`` lays a C-contiguous array of ``shape`` over the
    front of the buffer ``name``, which is rebuilt, larger, only when it is
    too small.  So a smaller batch or stack, such as the trailing partial
    batch or the firms left training, reuses the memory of a larger one, with
    the layout a fresh array of its shape would have.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def init_params(hidden: int, seed: int | tuple[int, ...]) -> LstmParams:
    """Uniform fan-scaled weights, zero biases except a forget bias of one.

    Each matrix draws from ``U(-b, b)`` with ``b = sqrt(6 / (fan_in +
    fan_out))`` (Glorot & Bengio 2010); the forget bias starts at one so
    early training does not erase the cell state (Jozefowicz et al. 2015).
    Seed ``k`` of a tuple draws ``W_f, W_i, W_C, W_o, W_y``, in that order,
    from ``default_rng(seed[k])`` straight into firm ``k``'s views of one
    zero ``(F, P)`` stack; an int seed gives that stack's one firm.
    """
    seeds = seed if isinstance(seed, tuple) else (seed,)
    params = LstmParams(np.zeros((len(seeds), _layout(hidden)[0])), hidden)
    params.b_f[...] = 1.0
    for k, s in enumerate(seeds):
        rng, firm = np.random.default_rng(s), params.firm(k)
        for w in (firm.W_f, firm.W_i, firm.W_C, firm.W_o, firm.W_y):
            bound = math.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params if isinstance(seed, tuple) else params.firm(0)


class _Slot(NamedTuple):
    """The arrays one :func:`_cell` call reads and writes, with the views of
    them it uses, taken once for every step that shares them."""

    z: np.ndarray  # the [h, x] rows read
    x: np.ndarray  # their x column
    C_cbar: np.ndarray  # the cell state C read, and cbar written, on one axis
    cbar: np.ndarray
    C_new: np.ndarray  # C' written, which may be C_cbar[0]
    gates: np.ndarray  # f, i, tanh C', o written
    f_i: np.ndarray
    tanh_C: np.ndarray
    o: np.ndarray
    h: np.ndarray  # h' written, which may be the h part of z


def _slot(z: np.ndarray, C_cbar: np.ndarray, C_new: np.ndarray, gates: np.ndarray,
          h: np.ndarray) -> _Slot:
    return _Slot(z, z[..., -1], C_cbar, C_cbar[1], C_new, gates, gates[:2], gates[2], gates[3], h)


def _cell(
    weights: tuple[np.ndarray, np.ndarray], slot: _Slot, scratch: tuple[np.ndarray, ...]
) -> None:
    """One step on the ``[h, x]`` rows ``slot.z`` from the cell state ``slot.C_cbar[0]``.

    Writes ``cbar``, ``C'``, the gates ``f, i, tanh C', o`` and ``h'`` into
    ``slot``; ``scratch`` (:func:`_cell_scratch`) is the caller's too.  Each
    pair of arrays that meets in a product lies on one leading axis, so that
    the pair is one call: ``f, i`` times ``C, cbar`` here, and ``tanh C', o``
    and ``C, cbar`` times ``dh`` and ``dC`` in BPTT.

    ``weights`` are the gate matrices transposed and the gate biases as rows,
    so that both broadcast over the rows of every firm.  One matmul call
    forms the four gates, but each gate (and each firm) is its own slice of
    it, the same BLAS call as a lone ``z @ W_f.T``: one fused ``(4H, H + 1)``
    matrix would round differently.  The sigmoid runs over the four stacked
    gates in one call each; its row 2, the unused sigmoid of ``cbar``'s
    pre-activation, then takes ``tanh C'``.
    """
    W_T, b = weights
    pre, pre_cbar, den, sign, products, f_C, i_cbar = scratch
    np.matmul(slot.z, W_T, out=pre)
    np.add(pre, b, out=pre)
    _sigmoid(pre, slot.gates, (den, sign))
    np.tanh(pre_cbar, out=slot.cbar)
    np.multiply(slot.f_i, slot.C_cbar, out=products)  # f * C and i * cbar
    np.add(f_C, i_cbar, out=slot.C_new)
    np.tanh(slot.C_new, out=slot.tanh_C)
    np.multiply(slot.o, slot.tanh_C, out=slot.h)


def _cell_scratch(work: _Workspace, state: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """:func:`_cell`'s scratch for states of shape ``state``, from ``work``: the
    gate pre-activations, the sigmoid's two work arrays and the two products
    that sum to ``C'``, with the views of them it uses."""
    pre, products = work.take("pre", (4,) + state), work.take("products", (2,) + state)
    return (pre, pre[2], work.take("den", (4,) + state), work.take("sign", (4,) + state),
            products, products[0], products[1])


def _head(params: LstmParams, h: np.ndarray) -> np.ndarray:
    """``W_y h + b_y`` for every row of ``h``."""
    return (h @ params.W_y.swapaxes(-1, -2))[..., 0] + params.b_y


def forward_batch(
    params: LstmParams, inputs: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The fit's forward step: a batch of sequences from a zero state, then
    the output head.

    ``inputs`` has shape (batch, steps), after the firm axes of stacked
    ``params``.  Returns the per-sequence predictions, ``firm axes +
    (batch,)``, and the tape that :func:`backward_bptt` reads, written to
    ``work``.
    """
    return _run(params, inputs, work, keep=True)


def _run(
    params: LstmParams, X: np.ndarray, work: _Workspace, keep: bool = False
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The predictions for the batch ``X``, firm axes + ``(batch, steps)``,
    and the tape ``(z, C_cbar, gates, h, predictions)``.

    The buffers come from ``work``, taken once for the whole pass.  With
    ``keep`` the tape holds every step's activations, for exact BPTT:
    ``z[t]`` is step t's ``[h, x]`` rows, ``C_cbar[t]`` its incoming cell
    state and its ``cbar`` (``C_cbar[t + 1, 0]`` is its outgoing state,
    ``C_cbar[0, 0]`` zero), and ``gates[t]`` its ``f, i, tanh C', o``;
    ``h`` is the last step's hidden state, each earlier one the ``h`` part
    of the next step's rows.  Without ``keep`` there is one step's worth of
    buffers, which every step overwrites.
    """
    hidden, steps = params.hidden, X.shape[-1]
    state = X.shape[:-1] + (hidden,)
    # a tape keeps step t in slot t and its outputs in slot t + 1, which the
    # next step reads; without one, every step reads and writes slot 0
    kept, ahead = (steps, 1) if keep else (1, 0)
    Z = work.take("z", (kept,) + X.shape[:-1] + (hidden + 1,))
    C_cbar = work.take("C_cbar", (kept + ahead, 2) + state)
    gates = work.take("gates", (kept, 4) + state)
    h = work.take("h", state)
    scratch = _cell_scratch(work, state)
    weights = (params.W_gates.swapaxes(-1, -2), params.b_gates[..., None, :])
    Z[0, ..., :hidden] = 0.0
    C_cbar[0, 0] = 0.0
    slots = [_slot(Z[k], C_cbar[k], C_cbar[k + ahead, 0], gates[k], Z[k + ahead, ..., :hidden])
             for k in range(kept - ahead)]
    k = kept - 1
    last = _slot(Z[k], C_cbar[k], C_cbar[k + ahead, 0], gates[k], h)  # the last step writes h
    for t in range(steps):
        slot = last if t == steps - 1 else slots[t if keep else 0]
        slot.x[...] = X[..., t]
        _cell(weights, slot, scratch)
    predictions = _head(params, h)
    return predictions, (Z, C_cbar, gates, h, predictions)


def backward_bptt(
    params: LstmParams, targets: np.ndarray, tape: tuple[np.ndarray, ...], work: _Workspace
) -> LstmParams:
    """The fit's backward step: the exact gradient of the batch MSE with
    respect to every parameter.

    The gradient comes back as an :class:`LstmParams` of the same layout, one
    per firm for a stack, over a buffer of ``work``, which also holds the
    pass's other buffers.  The tape must come from :func:`forward_batch` on
    the batch the targets belong to.
    """
    Z, C_cbars, gates, h, preds = tape
    targets = np.asarray(targets, dtype=float)
    if targets.size != preds.size:
        raise FitError(f"tape batch shape {preds.shape} does not match {targets.shape} targets")
    targets = targets.reshape(preds.shape)
    hidden, state = params.hidden, h.shape
    grads = params.with_theta(work.take("grad", params.theta.shape))
    # the gate gradients accumulate step by step in contiguous arrays, and are
    # copied into grads' strided views once
    dW, db = work.take("dW", grads.W_gates.shape), work.take("db", grads.b_gates.shape)
    dW_t, db_t = work.take("dW_t", dW.shape), work.take("db_t", db.shape)
    dh, dC, w = (work.take(name, state) for name in ("dh", "dC", "w"))
    dgate, da, one_minus = (work.take(name, (4,) + state) for name in ("dgate", "da", "one_minus"))
    dz = work.take("dz", (4,) + state[:-1] + (hidden + 1,))
    dW.fill(0.0)
    db.fill(0.0)
    dC.fill(0.0)

    dpred = 2.0 * (preds - targets) / preds.shape[-1]
    grads.W_y[...] = dpred[..., None, :] @ h
    grads.b_y[...] = dpred.sum(axis=-1, keepdims=True)
    np.multiply(dpred[..., None], params.W_y, out=dh)
    for t in reversed(range(len(Z))):
        z, C_cbar, g = Z[t], C_cbars[t], gates[t]
        # dgate ends as df, di, dcbar and do: what each gate's value receives;
        # its row 2 holds dh * o until dC is updated
        np.multiply(dh, g[3:1:-1], out=dgate[2:])  # dh * o and do = dh * tanh_C
        np.square(g[2], out=w)
        np.subtract(1.0, w, out=w)
        np.multiply(dgate[2], w, out=w)
        np.add(dC, w, out=dC)  # dC + dh * o * (1 - tanh_C**2)
        np.multiply(dC, C_cbar, out=dgate[:2])  # df = dC * C_prev, di = dC * cbar
        np.multiply(dC, g[1], out=dgate[2])  # dcbar = dC * i
        # the gates' pre-activation gradients, f, i, C, o, on a leading axis:
        # (d * g) * (1 - g) for the sigmoid gates, then dcbar * (1 - cbar**2)
        np.multiply(dgate, g, out=da)
        np.subtract(1.0, g, out=one_minus)
        np.multiply(da, one_minus, out=da)
        np.square(C_cbar[1], out=w)
        np.subtract(1.0, w, out=w)
        np.multiply(dgate[2], w, out=da[2])
        np.matmul(da.swapaxes(-1, -2), z, out=dW_t)
        np.add(dW, dW_t, out=dW)
        np.add.reduce(da, axis=-2, out=db_t)
        np.add(db, db_t, out=db)
        if t == 0:  # nothing reads the gradient of the zero initial state
            break
        np.matmul(da, params.W_gates, out=dz)
        np.add(dz[0, ..., :hidden], dz[1, ..., :hidden], out=dh)
        np.add(dh, dz[2, ..., :hidden], out=dh)
        np.add(dh, dz[3, ..., :hidden], out=dh)
        np.multiply(dC, g[0], out=dC)
    grads.W_gates[...] = dW
    grads.b_gates[...] = db
    return grads


def _clipped(grads: LstmParams, clip_norm: float) -> LstmParams:
    """Each firm's gradient scaled down to global norm ``clip_norm`` when it is longer."""
    # summed per field, in field order, not as one sum over theta: the two
    # round differently, and clipped runs are pinned to this order's bits
    lead = grads.theta.shape[:-1]
    fields = grads.arrays().values()
    norm = np.sqrt(sum((g * g).reshape(lead + (-1,)).sum(axis=-1) for g in fields))
    if (norm <= clip_norm).all():
        return grads
    scale = np.where(norm <= clip_norm, 1.0, clip_norm / norm)
    return grads.with_theta(grads.theta * scale[..., None])


def adam_step(
    params: LstmParams,
    grads: LstmParams,
    moments: tuple[np.ndarray, np.ndarray],
    t: int,
    cfg: TrainConfig,
    work: _Workspace,
) -> None:
    """The fit's update step: one bias-corrected Adam update of ``theta``.

    ``moments`` is the pair of first/second moment arrays, shaped like
    ``theta`` and zeros before the first step.  ``theta`` and the moments,
    which the fit owns, are updated in place; the update's temporaries are
    buffers of ``work``.
    """
    if t < 1:
        raise FitError(f"Adam step counter must be >= 1, got {t}")
    g = grads.theta
    if g.shape != params.theta.shape:
        raise FitError(f"gradient has shape {g.shape}, expected {params.theta.shape}")
    m, v = moments
    step, tmp = work.take("adam_step", g.shape), work.take("adam_tmp", g.shape)
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g
    np.multiply(b1, m, out=m)
    np.multiply(1.0 - b1, g, out=tmp)
    np.add(m, tmp, out=m)
    np.multiply(b2, v, out=v)
    np.multiply(1.0 - b2, g, out=tmp)
    np.multiply(tmp, g, out=tmp)
    np.add(v, tmp, out=v)
    # lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - b1**t, out=step)
    np.multiply(step, cfg.learning_rate, out=step)
    np.divide(v, 1.0 - b2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    np.add(tmp, cfg.adam_eps, out=tmp)
    np.divide(step, tmp, out=step)
    np.subtract(params.theta, step, out=params.theta)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_mse: float
    val_mae: float
    best_val_mae: float


def _validation_mae(params: LstmParams, val_inputs: np.ndarray, val_targets: np.ndarray):
    """Mean absolute validation error of each firm of the stack.

    The validation split runs as one batch, as :func:`forward_batch` would,
    but keeps no tape; :func:`train_early_stopping` checked its shapes.
    """
    return np.abs(_run(params, val_inputs, _Workspace())[0] - val_targets).mean(axis=-1)


def train_early_stopping(
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    val_inputs: np.ndarray,
    val_targets: np.ndarray,
    cfg: TrainConfig,
    seeds: Sequence[int],
    hidden: int,
) -> tuple[LstmParams, list[list[EpochRecord]]]:
    """Mini-batch Adam training of a stack of F firms with patience-based early stopping.

    Firm ``k`` starts from ``init_params(hidden, seeds[k])``.  Inputs are
    ``(F, n, steps)`` and targets ``(F, n)``, with ``F = len(seeds) >= 1``;
    the result equals F separate fits of one firm each, bit for bit.

    Each epoch visits every firm's training samples in its own shuffled
    order, keyed by ``(seed, epoch)``, cut into one mini-batch partition
    shared by the stack; the trailing partial batch is trained on rather than
    dropped.  After each epoch the mean absolute error on each firm's
    validation split is measured.  Once a firm's error has failed to improve for
    ``cfg.patience`` consecutive epochs that firm stops training, and its
    parameters from its best-validation epoch are the ones returned.

    Returns the ``(F, P)`` stack of best parameters and one history, a list
    of :class:`EpochRecord`, per firm.  Raises :class:`FitError` naming the
    firm (``FitError.firm``) when no epoch reached a finite validation error
    or the best epoch's parameters are not all finite.
    """
    seeds = tuple(seeds)
    train_y = np.asarray(train_targets, dtype=float)
    val_y = np.asarray(val_targets, dtype=float)
    if not (seeds and train_y.ndim == val_y.ndim == 2 and len(train_y) == len(val_y) == len(seeds)):
        raise FitError(f"{len(seeds)} seeds (a fit needs one or more), but targets of shapes "
                       f"{train_y.shape} and {val_y.shape}")
    if train_y.shape[-1] == 0 or val_y.shape[-1] == 0:
        raise FitError("both the training and validation splits must be non-empty")
    train_x = np.asarray(train_inputs, dtype=float)
    val_x = np.asarray(val_inputs, dtype=float)
    if train_x.ndim != 3 or train_x.shape[:-1] != train_y.shape:
        raise FitError(f"inputs {train_x.shape} do not match targets {train_y.shape}")
    if train_x.shape[-1] < 1:
        raise FitError(f"windows must have steps >= 1, got inputs {train_x.shape}")
    if val_x.shape != val_y.shape + train_x.shape[-1:]:
        raise FitError(f"validation inputs {val_x.shape} do not match validation targets "
                       f"{val_y.shape} and {train_x.shape[-1]}-step training windows")

    params = init_params(hidden, seeds)
    moments = (np.zeros_like(params.theta), np.zeros_like(params.theta))
    work = _Workspace()  # every mini-batch's tape, gradient and Adam temporaries
    step = 0
    n = train_y.shape[-1]

    firms = np.arange(len(seeds))  # the firms still training, in stack order
    best = params.theta.copy()
    best_mae = np.full(len(seeds), math.inf)
    since_improvement = np.zeros(len(seeds), dtype=int)
    histories: list[list[EpochRecord]] = [[] for _ in seeds]

    for epoch in range(1, cfg.max_epochs + 1):
        order = np.array([np.random.default_rng([seeds[f], epoch]).permutation(n) for f in firms])
        epoch_x = np.take_along_axis(train_x, order[..., None], axis=-2)
        epoch_y = np.take_along_axis(train_y, order, axis=-1)
        epoch_sse = 0.0
        for start in range(0, n, cfg.batch_size):
            batch_y = epoch_y[..., start:start + cfg.batch_size]
            batch_x = epoch_x[..., start:start + cfg.batch_size, :]
            preds, tape = forward_batch(params, batch_x, work)
            grads = backward_bptt(params, batch_y, tape, work)
            if cfg.clip_norm is not None:
                grads = _clipped(grads, cfg.clip_norm)
            step += 1
            adam_step(params, grads, moments, step, cfg, work)
            epoch_sse = epoch_sse + ((preds - batch_y) ** 2).sum(axis=-1)
        val_mae = _validation_mae(params, val_x, val_y)
        train_mse = epoch_sse / n
        improved = val_mae < best_mae[firms]
        best_mae[firms[improved]] = val_mae[improved]
        best[firms[improved]] = params.theta[improved]
        since_improvement[firms] = np.where(improved, 0, since_improvement[firms] + 1)
        for k, f in enumerate(firms):
            histories[f].append(
                EpochRecord(epoch, float(train_mse[k]), float(val_mae[k]), float(best_mae[f]))
            )
        live = since_improvement[firms] < cfg.patience
        if not live.any():
            break
        if not live.all():
            firms = firms[live]
            params = params.with_theta(params.theta[live])
            moments = (moments[0][live], moments[1][live])
            train_x, train_y, val_x, val_y = (a[live] for a in (train_x, train_y, val_x, val_y))
    for f in range(len(seeds)):
        if not (math.isfinite(best_mae[f]) and np.isfinite(best[f]).all()):
            raise FitError(
                f"firm {f}: the fit diverged: no epoch left finite parameters and validation error",
                firm=f,
            )
    return LstmParams(best, hidden), histories


def predict_lstm(params: LstmParams, windows: np.ndarray) -> float | np.ndarray:
    """Forward pass of one window, or of many, that keeps no activations.

    One window, ``(steps,)``, gives a float and equals the fit's forward
    pass on the one-row batch ``window[None]`` bit for bit.  Otherwise
    ``windows`` is the firm axes of ``params`` (none for unstacked ones), then
    any batch axes, then ``steps``, and the result has the shape of those
    leading axes.  Every window runs as its own one-row batch, so each
    prediction equals its single-window call bit for bit (a 2-D batch of
    windows would round differently).
    """
    params, X = _broadcast_windows(params, windows, 0)
    out = _run(params, X[..., None, :], _Workspace())[0][..., 0]
    return float(out) if out.ndim == 0 else out


def _broadcast_windows(
    params: LstmParams, windows: np.ndarray, more_axes: int
) -> tuple[LstmParams, np.ndarray]:
    """``params`` with one singleton axis per batch axis of ``windows``, and
    ``more_axes`` more, so that its weights broadcast over them; and
    ``windows`` as float, checked to be the firm axes + ``(..., steps)``."""
    lead = params.theta.shape[:-1]
    X = np.asarray(windows, dtype=float)
    if X.ndim < len(lead) + 1 or X.shape[:len(lead)] != lead or X.shape[-1] < 1:
        raise FitError(f"windows must be {lead} + (..., steps) with steps >= 1, got {X.shape}")
    extra = (1,) * (X.ndim - len(lead) - 1 + more_axes)
    if extra:  # a lone window skips this: the recursive reference calls it once per step
        params = params.with_theta(params.theta.reshape(lead + extra + params.theta.shape[-1:]))
    return params, X


def recurse_lstm(
    params: LstmParams,
    windows: np.ndarray,
    h: int,
    feedback: Callable[[int, np.ndarray], np.ndarray],
) -> np.ndarray:
    """``h`` recursive steps from each window, every step's value fed back as its newest.

    ``windows`` has :func:`predict_lstm`'s layout: the firm axes of
    ``params``, any batch axes, then ``width`` values.  Window ``m`` of a
    path is its last ``width`` values after ``m`` steps, and its prediction
    ``y`` (shaped like the leading axes) gives the path's next value
    ``feedback(m, y)``.  Returns the ``h`` values each path gained, leading
    axes + ``(h,)``; every prediction equals :func:`predict_lstm` on its
    window bit for bit.

    The windows advance as a wavefront.  Window ``m`` starts from the zero
    state at tick ``m`` and takes its step ``s`` at tick ``m + s``, so at
    tick τ every window in flight, at most ``width``, reads the same path
    value τ, and one :func:`_cell` call advances them all.  Each keeps its
    own ``h`` and ``C`` as its own one-row batch on a window axis, as in
    :func:`predict_lstm`.  Window ``m`` ends at tick ``m + width - 1``; its
    value lands at path position ``width + m``, which window ``m + 1``
    reads at its last step, one tick later.  That is ``h + width - 1`` cell
    calls where a window at a time takes ``h * width``.
    """
    if h < 0:
        raise FitError(f"a recursion takes h >= 0 steps, got {h}")
    params, X = _broadcast_windows(params, windows, 1)  # one more for the window axis
    width, hidden = X.shape[-1], params.hidden
    lead = X.shape[:-1]
    path = np.empty(lead + (width + h,))
    path[..., :width] = X
    if h == 0:
        return path[..., width:]
    weights = (params.W_gates.swapaxes(-1, -2), params.b_gates[..., None, :])
    # each window keeps its [h, x] rows and its cell state at its own index on
    # the window axis, zero until it starts; the windows in flight are a run
    # of indices, and share the cell's other arrays, taken per run length
    Z = np.zeros(lead + (h, 1, hidden + 1))
    C_cbar = np.zeros((2,) + lead + (h, 1, hidden))
    work, shared = _Workspace(), {}
    for tick in range(h + width - 1):
        lo, hi = max(tick - width + 1, 0), min(tick + 1, h)  # the windows in flight
        if hi - lo not in shared:
            state = lead + (hi - lo, 1, hidden)
            shared[hi - lo] = work.take("gates", (4,) + state), _cell_scratch(work, state)
        gates, scratch = shared[hi - lo]
        z, c = Z[..., lo:hi, :, :], C_cbar[..., lo:hi, :, :]
        slot = _slot(z, c, c[0], gates, z[..., :hidden])
        slot.x[...] = path[..., tick, None, None]
        _cell(weights, slot, scratch)
        m = tick - width + 1
        if m >= 0:  # window m took its last step
            y = _head(params, z[..., :1, :, :hidden])[..., 0, 0]
            path[..., width + m] = feedback(m, y)
    return path[..., width:]
