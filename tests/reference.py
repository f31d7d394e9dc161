"""Plain reference computations the tests check moecast's fast paths against.

None of these is part of moecast's API: the package never calls them.
"""

import csv
import io
import math

import numpy as np

from moecast.errors import FitError
from moecast.evaluation import (
    HOLDOUT_SPLIT, METRIC_NAMES, MODELS, WALK_FORWARD_SPLIT, CellStats, improvement_pct,
)
from moecast.lstm_expert import (
    LstmParams,
    _clipped,
    _sigmoid,
    _Workspace,
    adam_step,
    backward_bptt,
    forward_batch,
    init_params,
)
from moecast.regime import RegimeLabel


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


DISPLAY_NAMES = {
    "Linear": "Linear Regression",
    "LSTM": "LSTM (RNN)",
    "MoE": "Mixture of Experts",
}

SCALES = (
    ("standardized", "mse", "mae"),
    ("raw", "raw_mse", "raw_mae"),
)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _regime_table(report, regime, mse_key, mae_key):
    lines = [f"{'Model':<22}{'MSE':>12}{'MAE':>12}"]
    cells = {}
    for model in MODELS:
        key = (regime, model, 1)
        if key not in report:
            return [f"(no horizon-1 records for {regime.value} firms)"]
        stats = report[key]
        cells[model] = (stats[mse_key], stats[mae_key])
        lines.append(
            f"{DISPLAY_NAMES[model]:<22}{_fmt(stats[mse_key].mean):>12}"
            f"{_fmt(stats[mae_key].mean):>12}"
        )
    best_single_mse = min(cells["Linear"][0].mean, cells["LSTM"][0].mean)
    best_single_mae = min(cells["Linear"][1].mean, cells["LSTM"][1].mean)
    if best_single_mse > 0 and best_single_mae > 0:
        lines.append(
            "MoE vs best single model: "
            f"MSE {improvement_pct(cells['MoE'][0].mean, best_single_mse):+.2f}%, "
            f"MAE {improvement_pct(cells['MoE'][1].mean, best_single_mae):+.2f}%"
        )
    return lines


def _horizon_breakdown(report, horizons, mse_key, mae_key):
    lines = [f"{'Regime':<10}{'Model':<22}{'Horizon':>8}{'MSE mean±std':>26}{'MAE mean±std':>26}"]
    for regime in (RegimeLabel.STABLE, RegimeLabel.VOLATILE):
        for model in MODELS:
            for h in horizons:
                key = (regime, model, h)
                if key not in report:
                    continue
                stats = report[key]
                m, a = stats[mse_key], stats[mae_key]
                lines.append(
                    f"{regime.value:<10}{DISPLAY_NAMES[model]:<22}{h:>8}"
                    f"{_fmt(m.mean) + ' ± ' + _fmt(m.std):>26}"
                    f"{_fmt(a.mean) + ' ± ' + _fmt(a.std):>26}"
                )
    return lines


def render_tables_text(records, fingerprint: str, seed: int) -> str:
    """The plain-text report of each split, over :func:`aggregate_stratified`.

    Per-regime horizon-1 tables on both scales, the walk-forward horizon
    breakdown and the holdout breakdown, each table reading ``CellStats`` by
    metric name, as the reference the tables of
    ``moecast.reporting.render_tables_text`` are tested against.
    """
    wf = aggregate_stratified(r for r in records if r.split == WALK_FORWARD_SPLIT)
    ho = aggregate_stratified(r for r in records if r.split == HOLDOUT_SPLIT)
    wf_horizons = sorted({h for _, _, h in wf})
    out = [f"# fingerprint={fingerprint} seed={seed}", ""]
    if 1 in wf_horizons:
        for scale, mse_key, mae_key in SCALES:
            for regime in (RegimeLabel.STABLE, RegimeLabel.VOLATILE):
                out.append(f"== Evaluation of models, {regime.value.lower()} firms "
                           f"({scale} scale, horizon 1) ==")
                out.extend(_regime_table(wf, regime, mse_key, mae_key))
                out.append("")
    multi = [h for h in wf_horizons if h > 1]
    if multi:
        out.append("== Walk-forward horizon breakdown (standardized scale) ==")
        out.extend(_horizon_breakdown(wf, multi, "mse", "mae"))
        out.append("")
    if ho:
        out.append("== Holdout stress firms (standardized scale) ==")
        out.extend(_horizon_breakdown(ho, sorted({h for _, _, h in ho}), "mse", "mae"))
        out.append("")
    return "\n".join(out) + "\n"


def train_early_stopping(train_x, train_y, val_x, val_y, cfg, seeds, hidden):
    """The early-stopping fit of ``lstm_expert.train_early_stopping``, one firm at a time.

    A plain loop over the trainer's steps ``forward_batch``, ``backward_bptt``
    and ``adam_step`` (and its ``_clipped``), each called with a new
    workspace, so every step works on fresh arrays.  Each firm trains as a
    stack of one: its own shuffle per ``(seed, epoch)``, the same mini-batch
    partition (the trailing partial batch included), validation as one batch
    and patience counted per firm.  Returns the ``(F, P)`` best parameters
    and one history per firm, an array whose row ``e`` is epoch ``e + 1``'s
    training MSE, validation MAE and best validation MAE so far.
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
            history.append((float(sse[0] / n), val_mae, best_mae))
            if since >= cfg.patience:
                break
        best_thetas.append(best[0])
        histories.append(np.array(history))
    return LstmParams(np.stack(best_thetas), hidden), histories
