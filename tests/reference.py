"""Plain reference computations the tests check moecast's fast paths against.

None of these is part of moecast's API: the package never calls them.
"""

import csv
import io
import math

import numpy as np

from moecast.errors import FitError
from moecast.evaluation import HOLDOUT_SPLIT, METRIC_NAMES, WALK_FORWARD_SPLIT, CellStats
from moecast.lstm_expert import (
    EpochRecord,
    LstmParams,
    _clipped,
    _sigmoid,
    _Workspace,
    adam_step,
    backward_bptt,
    forward_batch,
    init_params,
)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """``lstm_expert``'s logistic function of ``x``, into fresh arrays."""
    return _sigmoid(x, np.empty_like(x), (np.empty_like(x), np.empty_like(x)))


def cell_step(
    params: LstmParams, x_t: np.ndarray, h: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update ``(h', C')`` for a single (unbatched) one-value input.

    Written gate by gate, apart from the fused cell of ``lstm_expert``, as the
    reference the batched forward pass is tested against.
    """
    x_t = np.asarray(x_t, dtype=float).reshape(-1)
    if x_t.shape != (1,):
        raise FitError(f"a step reads one value, got {x_t.size}")
    if h.shape != (params.hidden,) or C.shape != (params.hidden,):
        raise FitError("state vectors do not match the hidden size")
    z = np.concatenate([h, x_t])
    f = sigmoid(params.W_f @ z + params.b_f)
    i = sigmoid(params.W_i @ z + params.b_i)
    cbar = np.tanh(params.W_C @ z + params.b_C)
    C_new = f * C + i * cbar
    o = sigmoid(params.W_o @ z + params.b_o)
    return o * np.tanh(C_new), C_new


def loss_mse(predictions, targets) -> float:
    """Mean squared error of two equally shaped, non-empty arrays."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise FitError(
            f"predictions and targets must share a non-empty shape, "
            f"got {predictions.shape} and {targets.shape}"
        )
    diff = predictions - targets
    return float((diff * diff).mean())


def aggregate_stratified(records) -> dict:
    """Mean and sample deviation of every metric per (regime, model, horizon) cell.

    One ``ndarray.mean()`` and one ``ndarray.std(ddof=1)`` per (cell, metric),
    each on its own 1-D array, as the reference the row-wise reduction of
    ``moecast.evaluation.aggregate_stratified`` is tested against.
    """
    groups = {}
    for record in records:
        groups.setdefault((record.regime, record.model, record.horizon), []).append(record)
    cells = {}
    for key, members in groups.items():
        stats = {}
        for metric in METRIC_NAMES:
            values = [getattr(m, metric) for m in members if getattr(m, metric) is not None]
            if not values:
                continue
            arr = np.asarray(values, dtype=float)
            std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            stats[metric] = CellStats(float(arr.mean()), std, arr.size)
        cells[key] = stats
    return cells


def tables_to_csv(records, fingerprint: str, seed: int) -> str:
    """The aggregate cells of each split through a ``csv.writer``.

    One row per (split, scale, regime, model, horizon, metric), over
    :func:`aggregate_stratified`, as the reference the directly formatted
    rows of ``moecast.reporting.tables_to_csv`` are tested against.
    """
    out = io.StringIO()
    out.write(f"# fingerprint={fingerprint} seed={seed}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["split", "scale", "regime", "model", "horizon", "metric", "mean", "std", "count"])
    for split in (WALK_FORWARD_SPLIT, HOLDOUT_SPLIT):
        report = aggregate_stratified(r for r in records if r.split == split)
        for key in sorted(report, key=lambda k: (k[0].value, k[1], k[2])):
            regime, model, horizon = key
            for metric, stats in sorted(report[key].items()):
                scale = "raw" if metric.startswith("raw_") else "standardized"
                writer.writerow(
                    [split, scale, regime.value, model, horizon,
                     metric.removeprefix("raw_"), repr(stats.mean), repr(stats.std), stats.count]
                )
    return out.getvalue()


def train_early_stopping(train_x, train_y, val_x, val_y, cfg, seeds, hidden):
    """The early-stopping fit of ``lstm_expert.train_early_stopping``, one firm at a time.

    A plain loop over the trainer's steps ``forward_batch``, ``backward_bptt``
    and ``adam_step`` (and its ``_clipped``), each called with a new
    workspace, so every step works on fresh arrays.  Each firm trains as a
    stack of one: its own shuffle per ``(seed, epoch)``, the same mini-batch
    partition (the trailing partial batch included), validation as one batch
    and patience counted per firm.  Returns the ``(F, P)`` best parameters
    and one ``EpochRecord`` history per firm.
    """
    n = train_y.shape[-1]
    best_thetas, histories = [], []
    for k, seed in enumerate(seeds):
        x, y, vx, vy = train_x[k:k + 1], train_y[k:k + 1], val_x[k:k + 1], val_y[k:k + 1]
        params = init_params(hidden, (seed,))
        moments = (np.zeros_like(params.theta), np.zeros_like(params.theta))
        best, best_mae, since, history, step = params.theta.copy(), math.inf, 0, [], 0
        for epoch in range(1, cfg.max_epochs + 1):
            order = np.random.default_rng([seed, epoch]).permutation(n)
            ex, ey = x[:, order], y[:, order]
            sse = 0.0
            for start in range(0, n, cfg.batch_size):
                batch_y = ey[:, start:start + cfg.batch_size]
                batch_x = ex[:, start:start + cfg.batch_size]
                preds, tape = forward_batch(params, batch_x, _Workspace())
                grads = backward_bptt(params, batch_y, tape, _Workspace())
                if cfg.clip_norm is not None:
                    grads = _clipped(grads, cfg.clip_norm)
                step += 1
                adam_step(params, grads, moments, step, cfg, _Workspace())
                sse = sse + ((preds - batch_y) ** 2).sum(axis=-1)
            val_preds = forward_batch(params, vx, _Workspace())[0]
            val_mae = float(np.abs(val_preds - vy).mean(axis=-1)[0])
            if val_mae < best_mae:
                best, best_mae, since = params.theta.copy(), val_mae, 0
            else:
                since += 1
            history.append(EpochRecord(epoch, float(sse[0] / n), val_mae, best_mae))
            if since >= cfg.patience:
                break
        best_thetas.append(best[0])
        histories.append(history)
    return LstmParams(np.stack(best_thetas), hidden), histories
