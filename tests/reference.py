"""Plain reference computations the tests check moecast's fast paths against.

None of these is part of moecast's API: the package never calls them.
"""

import numpy as np

from moecast.errors import FitError
from moecast.evaluation import METRIC_NAMES, CellStats
from moecast.lstm_expert import LstmParams, _sigmoid


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
    f = _sigmoid(params.W_f @ z + params.b_f)
    i = _sigmoid(params.W_i @ z + params.b_i)
    cbar = np.tanh(params.W_C @ z + params.b_C)
    C_new = f * C + i * cbar
    o = _sigmoid(params.W_o @ z + params.b_o)
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
