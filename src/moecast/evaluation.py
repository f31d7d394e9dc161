"""Walk-forward backtesting, multi-horizon recursive forecasting, and metrics.

The harness advances a train/validation split through each firm's series,
refits both experts from scratch inside every fold, classifies firms under
the active regime policy using only pre-validation data, and scores Linear,
LSTM, and the mixture on the validation window at horizon one plus recursive
horizons.  Nothing fitted ever sees a validation index: scalers, volatility
reads, classifications, and parameters are all functions of data strictly
before the validation start, which the tests assert by perturbation.

Each target is paired with its volatility σ in one statement, in
``_prepare_fold_firm``: the window of the policy's returns
(:meth:`RegimePolicy.volatility`) that ends at return ``t + mode.offset - 1``,
the return into the target's price.  The linear design, the regime labels and
the σ every forecast freezes all read that per-row array, in fold, pooled and
holdout fits.  Which values a window holds belongs to :class:`WindowMode`, and
how σs become labels to :class:`RegimePolicy`; nothing here branches on either.

The firms of a fold share their train and validation ranges, so they are
fitted and scored as one stack: one stacked LSTM fit, one horizon-1 forward
pass over every validation window of every firm, and one recursion for all
firms' forecasts.  Each equals the per-firm computation bit for bit.

Folds share nothing else: each reads only its own slices and its firms'
seeds, and the pooled holdout fit reads no fold.  :func:`run_walk_forward`
runs each as a task returning a :class:`WalkForwardResult`, on up to one
forked process per core this process may use, and merges them in task
order, so they are the same bits for any number of workers; the workers
take the tasks longest first, by training observations times firms.  On one
core (``taskset -c 0``) the same tasks run in-process, in task order.

Recursive horizons share one path per model: a length-``h`` recursion is
exactly the first ``h`` steps of a longer one, so :func:`forecast_paths` runs
the LSTM and the mixture once, to the longest horizon that fits, and every
shorter horizon is scored on a prefix of that path.  Both recursions of all
firms are one wavefront (:func:`~moecast.lstm_expert.recurse_lstm`): the
window launched after ``m`` steps starts at tick ``m``, so at each tick
every window in flight reads the same path value and one LSTM cell call
advances them all, ``h + width - 1`` calls where a window at a time takes
``h * width``.  The linear expert never reads its window, so its path is
closed form over the time index.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import os
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, EvaluationError, FitError
from .linear_expert import LinearParams, fit_ols, predict_linear
from .lstm_expert import LstmParams, TrainConfig, predict_lstm, recurse_lstm, train_early_stopping
from .market_data import PriceSeries, Scaler, WindowMode, make_windows
from .moe import DEFAULT_GATE_TABLE, GateWeights, blend, gate_for_regime
from .regime import RegimeLabel, RegimePolicy

__all__ = [
    "MODELS",
    "TrainMode",
    "FoldSpec",
    "HorizonSpec",
    "MetricRecord",
    "CellStats",
    "BacktestSettings",
    "FoldModels",
    "PredictionPoint",
    "WalkForwardResult",
    "PooledExperts",
    "mse",
    "mae",
    "rmse",
    "improvement_pct",
    "plan_walk_forward",
    "recursive_forecast",
    "lstm_one_step",
    "linear_one_step",
    "moe_one_step",
    "forecast_paths",
    "run_walk_forward",
    "fit_pooled_experts",
    "holdout_models",
    "run_holdout",
    "aggregate_stratified",
]

MODELS = ("Linear", "LSTM", "MoE")

WALK_FORWARD_SPLIT = "walk_forward"
HOLDOUT_SPLIT = "holdout"
HOLDOUT_FOLD_ID = -1

# the share of a fit's training rows, at its end, that drives early stopping
ES_VAL_FRACTION = 0.2


# ---------------------------------------------------------------------------
# metrics


def _check_pair(predictions, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=float).reshape(-1)
    t = np.asarray(targets, dtype=float).reshape(-1)
    if p.shape != t.shape or p.size == 0:
        raise EvaluationError(
            f"predictions and targets must share a non-empty length, got {p.size} and {t.size}"
        )
    return p, t


def mse(predictions, targets) -> float:
    p, t = _check_pair(predictions, targets)
    return float(((p - t) ** 2).mean())


def mae(predictions, targets) -> float:
    p, t = _check_pair(predictions, targets)
    return float(np.abs(p - t).mean())


def rmse(predictions, targets) -> float:
    return math.sqrt(mse(predictions, targets))


def improvement_pct(candidate: float, baseline: float) -> float:
    """Percentage reduction of ``candidate`` relative to ``baseline``."""
    if not baseline > 0:
        raise EvaluationError(f"baseline must be positive, got {baseline}")
    return (baseline - candidate) / baseline * 100.0


# ---------------------------------------------------------------------------
# walk-forward geometry


class TrainMode(enum.Enum):
    SLIDING = "sliding"
    EXPANDING = "expanding"


@dataclass(frozen=True)
class FoldSpec:
    fold_id: int
    train_range: range
    val_range: range


@dataclass(frozen=True)
class HorizonSpec:
    """Recursive forecast horizons, all at least two steps: horizon 1 is
    always scored, on every validation window, so a recursive one would be a
    second, different record of it."""

    horizons: tuple[int, ...] = (5, 20, 60)

    def __post_init__(self) -> None:
        if any(h < 2 for h in self.horizons):
            raise EvaluationError(f"horizons must all be >= 2, got {self.horizons}")
        object.__setattr__(self, "horizons", tuple(sorted(set(self.horizons))))


def plan_walk_forward(
    n: int,
    init_train: int,
    val_len: int,
    step: int,
    mode: TrainMode = TrainMode.SLIDING,
) -> tuple[FoldSpec, ...]:
    """The folds over a length-``n`` observation sequence, in order.

    Fold ``k`` validates on ``[init_train + k*step, init_train + k*step +
    val_len)``; sliding mode keeps a fixed-length training window ending at
    the validation start, expanding mode anchors training at zero.  Folds are
    generated while the validation window fits in the series.  The geometry
    has no defaults here: the published 80/20/20 lives in the configuration
    (``wf.init_train``, ``wf.val_len``, ``wf.step``).
    """
    if init_train < 1 or val_len < 1 or step < 1:
        raise EvaluationError("init_train, val_len, and step must be positive")
    if n < init_train + val_len:
        raise EvaluationError(
            f"series length {n} too short for one fold (need {init_train + val_len})"
        )
    folds = []
    k = 0
    while init_train + k * step + val_len <= n:
        val_start = init_train + k * step
        train_start = val_start - init_train if mode is TrainMode.SLIDING else 0
        folds.append(FoldSpec(k, range(train_start, val_start), range(val_start, val_start + val_len)))
        k += 1
    return tuple(folds)


# ---------------------------------------------------------------------------
# recursive forecasting

ONE_STEP_FN = Callable[[np.ndarray, float, float], float]


def recursive_forecast(
    predict_fn: ONE_STEP_FN,
    last_window: np.ndarray,
    t_start: float,
    sigma: float,
    h: int,
) -> np.ndarray:
    """Feed each prediction back as the newest window element for ``h`` steps.

    The time index advances by one per step, while ``sigma`` stays frozen at
    its last observed value (there is no volatility forecaster to update it).
    """
    if h < 1:
        raise EvaluationError(f"horizon must be >= 1, got {h}")
    window = np.asarray(last_window, dtype=float).copy()
    out = np.empty(h)
    for j in range(h):
        pred = float(predict_fn(window, t_start + j, sigma))
        out[j] = pred
        window = np.concatenate([window[1:], [pred]])
    return out


def lstm_one_step(params: LstmParams) -> ONE_STEP_FN:
    return lambda window, t, sigma: predict_lstm(params, window)


def linear_one_step(params: LinearParams) -> ONE_STEP_FN:
    return lambda window, t, sigma: predict_linear(params, t, sigma)


def moe_one_step(
    lstm_params: LstmParams,
    linear_params: LinearParams,
    weights: GateWeights,
) -> ONE_STEP_FN:
    def step(window: np.ndarray, t: float, sigma: float) -> float:
        rnn_p = predict_lstm(lstm_params, window)
        lm_p = predict_linear(linear_params, t, sigma)
        return blend(weights, rnn_p, lm_p)

    return step


def forecast_paths(
    lstm: LstmParams,
    linear: Sequence[LinearParams],
    weights: Sequence[GateWeights],
    windows: np.ndarray,
    t0: float,
    sigma: Sequence[float],
    h: int,
) -> dict[str, np.ndarray]:
    """Recursive ``h``-step paths of every model, launched from one window per firm.

    ``windows`` is ``(F, width)``; ``linear``, ``weights`` and ``sigma``
    hold one entry per firm; ``lstm`` is a stack of F firms' parameters or
    one set that every firm shares; each path has shape ``(F, h)``.

    Every path equals :func:`recursive_forecast` with the ``*_one_step``
    closures, and any prefix equals the shorter recursion, bit for bit.  The
    LSTM and mixture recursions of all firms are one
    :func:`~moecast.lstm_expert.recurse_lstm` wavefront, which advances
    every window in flight in one cell call per tick; the mixture row feeds
    back its blend.  The linear path is closed form over ``t0, t0 + 1,
    ...`` since that expert never reads the window.
    """
    windows = np.asarray(windows, dtype=float)
    if not len(linear) == len(weights) == len(sigma) == windows.shape[0]:
        raise EvaluationError(
            f"{windows.shape[0]} windows need one linear fit, gate and sigma each, "
            f"got {len(linear)}, {len(weights)} and {len(sigma)}"
        )
    lin = np.array([predict_linear(p, t0 + np.arange(h), s) for p, s in zip(linear, sigma)])
    w_rnn = np.array([w.w_rnn for w in weights])
    w_lm = np.array([w.w_lm for w in weights])

    def feedback(m: int, preds: np.ndarray) -> np.ndarray:
        # the mixture row takes blend(w, rnn, lm), in blend's operation order
        preds[:, 1] = w_rnn * preds[:, 1] + w_lm * lin[:, m]
        return preds

    # per firm, row 0 is the LSTM recursion and row 1 the mixture's
    path = recurse_lstm(lstm, np.repeat(windows[:, None, :], 2, axis=1), h, feedback)
    return {"Linear": lin, "LSTM": path[:, 0], "MoE": path[:, 1]}


# ---------------------------------------------------------------------------
# records and aggregation


@dataclass(frozen=True)
class MetricRecord:
    """Scores for one (firm, fold, model, horizon) cell.

    ``mse``/``mae``/``rmse`` are measured on the standardized scale the
    models predict in; the ``raw_*`` triple is the same comparison after
    undoing the firm's scaler.  ``mase`` is scale-free so a single value
    covers both.  Every metric must be finite and non-negative, so a diverged
    fit fails here instead of being averaged into a table, as does a split or
    a horizon (below 1) that no table would read.
    """

    ticker: str
    fold_id: int
    split: str
    regime: RegimeLabel
    horizon: int
    model: str
    mse: float
    mae: float
    rmse: float
    raw_mse: float
    raw_mae: float
    raw_rmse: float
    mase: float | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise EvaluationError(f"unknown model {self.model!r}")
        if self.split not in (WALK_FORWARD_SPLIT, HOLDOUT_SPLIT):
            raise EvaluationError(f"unknown split {self.split!r}")
        if self.horizon < 1:
            raise EvaluationError(f"horizon must be >= 1, got {self.horizon}")
        for name in METRIC_NAMES:
            value = getattr(self, name)
            if value is None and name == "mase":
                continue
            if not (math.isfinite(value) and value >= 0):
                raise EvaluationError(
                    f"{self.ticker} fold {self.fold_id} {self.model} h={self.horizon}: "
                    f"{name} must be finite and non-negative, got {value!r}"
                )


METRIC_NAMES = ("mse", "mae", "rmse", "raw_mse", "raw_mae", "raw_rmse", "mase")


@dataclass(frozen=True)
class CellStats:
    mean: float
    std: float
    count: int


_metric_values = operator.attrgetter(*METRIC_NAMES)
_cell_key = operator.attrgetter("regime", "model", "horizon")
# the same cells, keyed by the regime's value: a str hashes in C, an Enum member
# in Python
_cell_code_key = operator.attrgetter("regime._value_", "model", "horizon")


def aggregate_stratified(
    records: Iterable[MetricRecord],
) -> dict[tuple[RegimeLabel, str, int], dict[str, CellStats]]:
    """Sample mean and deviation of every metric per (regime, model, horizon)
    cell, as ``{(regime, model, horizon): {metric: CellStats}}``; regimes are
    never pooled.

    Cells keep the order their first record arrives in, and a cell's metrics
    the order of ``METRIC_NAMES``; a metric that is ``None`` on every member
    (``mase`` on a constant training series) is left out of the cell, and a
    one-member cell has std 0.0.

    The cells are built from :func:`_cell_moments`, the one reduction the
    report writers also format from.
    """
    return {
        key: {m: CellStats(a, s, n) for m, a, s, n in zip(METRIC_NAMES, mean, std, count) if n}
        for key, (mean, std, count) in _cell_moments(records).items()
    }


_Moments = tuple[list[float], list[float], list[int]]


def _cell_moments(records: Iterable[MetricRecord]) -> dict[tuple[RegimeLabel, str, int], _Moments]:
    """``{(regime, model, horizon): (means, stds, counts)}``, the reduction of
    :func:`aggregate_stratified` as plain lists in ``METRIC_NAMES`` order.

    A metric that is ``None`` on every member of its cell has count 0 and a
    NaN mean.  Each record gets its cell's integer code in arrival order, and
    one stable ``argsort`` of the codes lists every cell's members, in
    arrival order, as one slice.

    The records' metrics form one ``(records, metrics)`` block, a ``None``
    read as NaN.  The cells of each member count are gathered from it into
    one C-contiguous ``(cells, metrics, members)`` block and reduced along
    the last axis, one ``mean`` and one ``std`` call per count.  numpy sums
    each row of a contiguous last-axis reduction with the same pairwise
    summation ``ndarray.mean()`` runs on a lone 1-D array, so every value is
    the one a per-(cell, metric) reduction gives, bit for bit.
    ``np.add.reduceat`` over one flat array would need no grouping by count,
    but it sums each segment sequentially, not pairwise, so it rounds
    differently from ``ndarray.mean()``.  A cell whose ``mase`` is ``None``
    on some members only reduces the set values on their own.
    """
    records = list(records)
    if not records:
        return {}
    codes: dict[tuple[str, str, int], int] = {}
    code = np.array([codes.setdefault(key, len(codes)) for key in map(_cell_code_key, records)])
    # numpy converts one flat list of floats faster than a list of rows
    flat = itertools.chain.from_iterable(map(_metric_values, records))
    block = np.array(list(flat), dtype=float).reshape(len(records), len(METRIC_NAMES))
    order = np.argsort(code, kind="stable")
    sizes = np.bincount(code)
    starts = np.cumsum(sizes) - sizes
    means = np.empty((len(codes), len(METRIC_NAMES)))
    stds = np.zeros_like(means)
    for n in dict.fromkeys(sizes.tolist()):
        cells = np.flatnonzero(sizes == n)
        members = order[starts[cells, None] + np.arange(n)]
        gathered = np.ascontiguousarray(block[members].swapaxes(1, 2))
        means[cells] = gathered.mean(axis=-1)
        if n > 1:
            stds[cells] = gathered.std(axis=-1, ddof=1)
    moments = list(zip(means.tolist(), stds.tolist(),
                       ([n] * len(METRIC_NAMES) for n in sizes.tolist())))
    for c in np.flatnonzero(np.isnan(means[:, -1])).tolist():  # mase, the last metric, is None
        values = block[order[starts[c]:starts[c] + sizes[c]], -1]
        values = values[~np.isnan(values)]
        mean, std, count = moments[c]
        count[-1] = values.size
        if values.size:
            mean[-1] = float(values.mean())
            std[-1] = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return {_cell_key(records[first]): cell for first, cell in zip(order[starts].tolist(), moments)}


# ---------------------------------------------------------------------------
# the per-fold pipeline


@dataclass(frozen=True)
class BacktestSettings:
    """Everything run_walk_forward needs besides the universe, plan, policy and holdout."""

    window: int = 10
    mode: WindowMode = WindowMode.PRICE_LEVELS
    train: TrainConfig = TrainConfig()
    hidden: int = 50
    gate_table: Mapping[RegimeLabel, float] = field(
        default_factory=lambda: dict(DEFAULT_GATE_TABLE)
    )
    horizons: HorizonSpec = HorizonSpec()
    seed: int = 42


@dataclass(frozen=True)
class FoldModels:
    """Frozen per-(firm, fold) experts plus the context needed to predict again."""

    lstm: LstmParams
    linear: LinearParams
    scaler: Scaler
    sigma: float
    regime: RegimeLabel
    launch_t: int
    window: int
    mode: WindowMode


@dataclass(frozen=True)
class PredictionPoint:
    """One stored single-step validation prediction (both scales) and its raw target."""

    ticker: str
    fold_id: int
    t_index: int
    model: str
    predicted: float
    actual_raw: float
    predicted_raw: float


@dataclass(frozen=True)
class WalkForwardResult:
    """A backtest's output, or one task's.  ``records`` hold the holdout
    records first, then each fold's in fold order, each part firm by firm in
    ticker order, then by horizon, then by model; ``pooled`` are the experts
    that scored the holdout, None without one."""

    records: tuple[MetricRecord, ...]
    models: dict[tuple[str, int], FoldModels]
    predictions: tuple[PredictionPoint, ...]
    pooled: PooledExperts | None = None


def task_seed(global_seed: int, ticker: str, fold_id: int) -> int:
    """Deterministic per-(firm, fold) training seed, stable across runs and platforms."""
    seq = np.random.SeedSequence([global_seed, fold_id + 1, zlib.crc32(ticker.encode("utf-8"))])
    return int(seq.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class _FoldFirmData:
    """One firm's view of a single fold, as plain arrays.

    Row ``k`` is the target at local index ``window + k``, i.e. at time
    index ``t_offset + window + k``: ``inputs[k]`` holds the ``window``
    standardized values before it, ``targets[k]`` the standardized target,
    and ``sigma[k]`` the volatility paired with it (NaN until the volatility
    window is full).  The first ``train_rows`` rows train; the rest validate.
    """

    ticker: str
    inputs: np.ndarray
    targets: np.ndarray
    sigma: np.ndarray
    scaler: Scaler
    train_rows: int
    t_offset: int

    @property
    def sigma_frozen(self) -> float:
        """The last training target's σ, which labels the firm and every forecast reads."""
        return float(self.sigma[self.train_rows - 1])

    @property
    def launch_t(self) -> int:
        """The time index of the first validation target, where forecasts launch."""
        return self.t_offset + self.inputs.shape[1] + self.train_rows

    @functools.cached_property
    def naive_mae(self) -> float:
        """The denominator of every MASE this firm's validation scores: the
        in-sample one-step naive MAE of the training targets, ``mean(|diff|)``."""
        train = self.targets[:self.train_rows]
        if train.size < 2:
            raise EvaluationError(f"mase needs at least 2 training targets, got {train.size}")
        return float(np.abs(np.diff(train)).mean())

    def models(
        self, lstm: LstmParams, linear: LinearParams, regime: RegimeLabel, mode: WindowMode
    ) -> FoldModels:
        """The firm's frozen experts with the context to predict again."""
        return FoldModels(lstm, linear, self.scaler, self.sigma_frozen, regime,
                          self.launch_t, self.inputs.shape[1], mode)


def _prepare_fold_firm(
    series: PriceSeries,
    train: range,
    stop: int,
    policy: RegimePolicy,
    settings: BacktestSettings,
) -> _FoldFirmData:
    """The firm's values ``[train.start, stop)``; those in ``train`` train, the rest validate."""
    ts, te = train.start, train.stop
    # the prices behind the values [ts, stop); a log return also needs the price after it
    end = stop + settings.mode.offset
    slice_series = PriceSeries(series.ticker, series.dates[ts:end], series.prices[ts:end])
    inputs, targets, scaler = make_windows(slice_series, settings.window, settings.mode, te - ts)
    vol = policy.volatility(slice_series)
    # The one place a target meets its σ: the target at local index t sits at
    # price t + offset and reads the volatility window ending with return
    # t + offset - 1, the return into that price (for a log return, the
    # target itself).  ``vol[j]`` ends with return j, NaN until the window fills.
    sigma = vol[settings.window + settings.mode.offset - 1:]
    data = _FoldFirmData(
        series.ticker, inputs, targets, sigma, scaler,
        train_rows=te - ts - settings.window, t_offset=ts,
    )
    if math.isnan(data.sigma_frozen):
        raise DataError(f"{series.ticker}: volatility window {policy.vol_window} does not "
                        f"fit the training range of {te - ts} observations")
    return data


def _early_stopping_split(data: _FoldFirmData, fraction: float) -> tuple[np.ndarray, ...]:
    """``(train_x, train_y, val_x, val_y)`` of the training rows: the last
    ``round(fraction * n)``, at least one and never all, drive early stopping."""
    n = data.train_rows
    if n < 2:
        raise EvaluationError(f"{data.ticker}: not enough training samples ({n})")
    cut = n - min(max(1, int(round(fraction * n))), n - 1)
    return data.inputs[:cut], data.targets[:cut], data.inputs[cut:n], data.targets[cut:n]


def _linear_design(data: _FoldFirmData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(t, σ, y)`` of the linear expert over the training rows whose σ is defined."""
    rows = np.flatnonzero(~np.isnan(data.sigma[:data.train_rows]))
    if len(rows) < 3:
        raise EvaluationError(
            f"{data.ticker}: training window too short for the linear design "
            f"({len(rows)} targets with a defined volatility)"
        )
    t = (data.t_offset + data.inputs.shape[1] + rows).astype(float)
    return t, data.sigma[rows], data.targets[rows]


def _fit_experts(
    groups: Sequence[Sequence[_FoldFirmData]],
    seeds: Sequence[int],
    names: Sequence[str],
    settings: BacktestSettings,
) -> tuple[LstmParams, list[LinearParams]]:
    """One linear expert per group of firms, and the groups' LSTMs as one stacked fit.

    A group's early-stopping splits and linear designs are concatenated in
    firm order: a fold fits each of its firms as its own group, which share
    one training range, and the pooled fit is one group of every firm.
    Group ``k`` trains from ``seeds[k]``, and a diverged fit raises
    :class:`FitError` named ``names[k]``.
    """
    def joined(parts: Iterable[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
        return [np.concatenate(part) for part in zip(*parts)]

    splits = [joined(_early_stopping_split(data, ES_VAL_FRACTION) for data in g) for g in groups]
    linears = [fit_ols(*joined(map(_linear_design, g)))[0] for g in groups]
    try:
        lstm, _ = train_early_stopping(
            *(np.stack(part) for part in zip(*splits)), settings.train, seeds, settings.hidden
        )
    except FitError as exc:
        if exc.firm is None:
            raise
        raise FitError(f"{names[exc.firm]}: {exc}", firm=exc.firm) from exc
    return lstm, linears


def _model_records(
    data: _FoldFirmData,
    fm: FoldModels,
    fold_id: int,
    split: str,
    horizon: int,
    preds: Mapping[str, np.ndarray],
) -> list[MetricRecord]:
    """One record per model, scoring ``preds[model]`` against as many of the
    firm's validation targets, on the standardized scale and the raw one."""
    a = data.targets[data.train_rows:][:len(preds[MODELS[0]])]
    a_raw = fm.scaler.invert(a)
    records = []
    for model in MODELS:
        p = preds[model]
        p_raw = fm.scaler.invert(p)
        p_mse, p_mae, raw_mse = mse(p, a), mae(p, a), mse(p_raw, a_raw)
        records.append(MetricRecord(
            data.ticker, fold_id, split, fm.regime, horizon, model,
            mse=p_mse, mae=p_mae, rmse=math.sqrt(p_mse),
            raw_mse=raw_mse, raw_mae=mae(p_raw, a_raw), raw_rmse=math.sqrt(raw_mse),
            mase=p_mae / data.naive_mae if data.naive_mae > 0 else None,
        ))
    return records


def _horizon_records(
    lstm: LstmParams,
    firms: Sequence[_FoldFirmData],
    fms: Sequence[FoldModels],
    weights: Sequence[GateWeights],
    horizons: HorizonSpec,
    fold_id: int,
    split: str,
) -> list[list[MetricRecord]]:
    """Each firm's records of every configured horizon, in horizon then model order.

    The forecasts launch at each firm's first validation target, all at the
    same time index.  ``lstm`` is the firms' stacked LSTM, or the one they
    share.  Each model runs one recursion for all firms to the longest
    horizon that fits; a horizon is scored on a prefix of that path,
    truncated to the firm's validation observations left.
    """
    if not (firms and horizons.horizons):
        return [[] for _ in firms]
    longest = [min(max(horizons.horizons), len(d.targets) - d.train_rows) for d in firms]
    paths = forecast_paths(
        lstm, [fm.linear for fm in fms], weights,
        np.stack([d.inputs[d.train_rows] for d in firms]),
        float(fms[0].launch_t), [fm.sigma for fm in fms], max(longest),
    )
    return [
        [
            record
            for h in horizons.horizons
            for record in _model_records(data, fm, fold_id, split, h, {
                model: path[k, :min(h, longest[k])] for model, path in paths.items()
            })
        ]
        for k, (data, fm) in enumerate(zip(firms, fms))
    ]


def _run_fold(
    universe: Mapping[str, PriceSeries],
    fold: FoldSpec,
    policy: RegimePolicy,
    settings: BacktestSettings,
) -> WalkForwardResult:
    """One fold of the walk-forward: its records, models and predictions."""
    firms = [
        _prepare_fold_firm(universe[t], fold.train_range, fold.val_range.stop, policy, settings)
        for t in sorted(universe)
    ]
    labels = policy.labels({data.ticker: data.sigma_frozen for data in firms})

    lstm, linears = _fit_experts(
        [[data] for data in firms],
        [task_seed(settings.seed, data.ticker, fold.fold_id) for data in firms],
        [f"{data.ticker} fold {fold.fold_id}" for data in firms],
        settings,
    )
    fms = [
        data.models(lstm.firm(k), linears[k], labels[data.ticker], settings.mode)
        for k, data in enumerate(firms)
    ]
    gates = [gate_for_regime(fm.regime, settings.gate_table) for fm in fms]
    # horizon 1: every validation window of every firm in one call, each
    # window its own one-row batch (as in a single-window call)
    lstm_h1 = predict_lstm(lstm, np.stack([d.inputs[d.train_rows:] for d in firms]))
    horizon_records = _horizon_records(
        lstm, firms, fms, gates, settings.horizons, fold.fold_id, WALK_FORWARD_SPLIT
    )

    records: list[MetricRecord] = []
    predictions: list[PredictionPoint] = []
    for k, (data, fm, weights) in enumerate(zip(firms, fms, gates)):
        actual = data.targets[data.train_rows:]
        t_global = np.arange(fm.launch_t, fm.launch_t + len(actual), dtype=float)
        lin_h1 = predict_linear(fm.linear, t_global, fm.sigma)
        h1 = {"Linear": lin_h1, "LSTM": lstm_h1[k], "MoE": blend(weights, lstm_h1[k], lin_h1)}
        records += _model_records(data, fm, fold.fold_id, WALK_FORWARD_SPLIT, 1, h1)
        records += horizon_records[k]
        actual_raw = fm.scaler.invert(actual).tolist()
        predictions += [
            PredictionPoint(data.ticker, fold.fold_id, fm.launch_t + j, model, p, a, p_raw)
            for model, preds in h1.items()
            for j, (p, a, p_raw) in enumerate(
                zip(preds.tolist(), actual_raw, fm.scaler.invert(preds).tolist()))
        ]
    models = {(data.ticker, fold.fold_id): fm for data, fm in zip(firms, fms)}
    return WalkForwardResult(tuple(records), models, tuple(predictions))


_TASKS: Sequence[Callable[[], object]] = ()  # what forked workers of _in_parallel run


def _run_task(index: int) -> object:
    return _TASKS[index]()


def _in_parallel(tasks: Sequence[Callable[[], object]], costs: Sequence[float]) -> list:
    """Every task's result, in task order, from up to one forked worker per usable core.

    The workers are forked, so they inherit the tasks, closures and the
    data they read included, from ``_TASKS``; only a task's index and its
    result cross the process boundary.  They are handed the tasks longest
    first, by ``costs`` (ties in task order), so no long task starts last
    while the other workers sit idle (Graham 1969).  With fewer than two
    workers (one task, or one usable core, as under ``taskset -c 0``), the
    same tasks run here, in task order; a platform without
    ``os.sched_getaffinity`` counts as one core, and every one with it can
    fork.  The first task to raise, in task order, cancels the ones not
    started, and its exception is re-raised.
    """
    global _TASKS
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cores)
    if workers >= 2:
        # imported here: at module level they would add to every ``import moecast``
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # "fork" explicitly: the default start method is not fork everywhere,
        # and spawned workers would re-import everything and need pickled
        # tasks.  Forking is safe here: the pool forks every worker before it
        # starts a thread, and OpenBLAS stops its own threads at a fork.
        _TASKS = tasks
        try:
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                longest_first = sorted(range(len(tasks)), key=lambda k: -costs[k])
                futures = {k: pool.submit(_run_task, k) for k in longest_first}
                try:
                    return [futures[k].result() for k in range(len(tasks))]
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
        finally:
            _TASKS = ()
    return [task() for task in tasks]


def run_walk_forward(
    universe: Mapping[str, PriceSeries],
    plan: Sequence[FoldSpec],
    policy: RegimePolicy,
    settings: BacktestSettings,
    holdout: Sequence[str] = (),
) -> WalkForwardResult:
    """Re-train, re-classify, and score every firm inside every fold, then
    score the holdout firms, if any, against pooled experts.

    The folds cover every firm of ``universe`` that ``holdout`` does not
    name.  Horizon-1 records score single-step predictions across the whole
    validation window; each configured horizon adds a record scoring the
    recursive forecast launched at the validation start against the first
    ``h`` validation observations (truncated when fewer remain).  Every firm
    and fold trains from freshly initialized parameters with a seed derived
    from ``(settings.seed, ticker, fold)``, so reruns are bit-identical.
    With a holdout, :func:`fit_pooled_experts` fits the walk-forward firms
    up to the last fold's validation start and :func:`run_holdout` scores
    the held-out firms; an empty ``holdout`` runs no pooled fit.  A plan
    with no folds, or a holdout whose tickers :func:`run_holdout` rejects, is an
    :class:`EvaluationError`.  Every firm, held out or not, must carry the
    first walk-forward firm's dates up to the plan's end (or its own), else
    :class:`DataError`; firms are never re-aligned.  These checks, the
    folds' own on the shortest training range, and each holdout firm's
    length at the launch index run before the pooled fit.

    Every fold, and the pooled fit with its holdout scoring, reads only its
    own inputs, so each is one task of :func:`_in_parallel`: they run on up
    to one forked process per usable core and are merged in task order, the
    pooled task first.  The results are the same bits for any number of
    workers.
    """
    if not plan:
        raise EvaluationError("the plan has no folds")
    held_out = _checked_holdout(universe, holdout)
    train = {t: s for t, s in universe.items() if t not in held_out}
    if not train:
        raise EvaluationError("universe is empty")
    horizon_end = plan[-1].val_range.stop
    for ticker in sorted(train):
        have = len(train[ticker]) - settings.mode.offset
        if have < horizon_end:
            raise EvaluationError(
                f"{ticker}: series provides {have} observations, plan needs {horizon_end}"
            )
    # a fold compares its firms on one day, so every firm, holdout firms
    # included, must share the first walk-forward firm's dates up to the plan's end
    first = min(train)
    calendar = train[first].dates[:horizon_end + settings.mode.offset]
    for ticker in sorted(universe):
        dates = universe[ticker].dates[:len(calendar)]
        bad = np.flatnonzero(dates != calendar[:len(dates)])
        if bad.size:
            k = bad[0]
            raise DataError(f"{ticker}: date {dates[k]} at index {k} differs from "
                            f"{first}'s {calendar[k]}; the firms must share one calendar")
    # a fold's windows, volatility window and fits fail on its training range's
    # length alone: the shortest fails first if any does, as its fold would
    shortest = min(plan, key=lambda fold: len(fold.train_range))
    for t in sorted(train):
        data = _prepare_fold_firm(train[t], shortest.train_range, shortest.val_range.stop,
                                  policy, settings)
        _early_stopping_split(data, ES_VAL_FRACTION)
        _linear_design(data)
    launch_t = plan[-1].val_range.start
    for t in held_out:
        _observations_to_evaluate(universe[t], launch_t, settings.mode)

    tasks = [functools.partial(_run_fold, train, fold, policy, settings) for fold in plan]
    # a task's cost is its training observations times its firms
    costs = [len(fold.train_range) * len(train) for fold in plan]
    if holdout:
        def pooled_phase() -> WalkForwardResult:
            pooled = fit_pooled_experts(train, policy, settings, launch_t)
            records = run_holdout(universe, holdout, pooled, policy, settings)
            return WalkForwardResult(records, {}, (), pooled)

        # first in task order, so that when it and a fold both fail, its error is raised
        tasks.insert(0, pooled_phase)
        costs.insert(0, launch_t * len(train))
    results = _in_parallel(tasks, costs)
    return WalkForwardResult(
        records=tuple(r for part in results for r in part.records),
        models={key: fm for part in results for key, fm in part.models.items()},
        predictions=tuple(p for part in results for p in part.predictions),
        # only the pooled task, first when there is one, carries pooled experts
        pooled=results[0].pooled,
    )


# ---------------------------------------------------------------------------
# holdout stress evaluation


@dataclass(frozen=True)
class PooledExperts:
    """Experts trained once on every non-holdout firm's pre-launch history."""

    lstm: LstmParams
    linear: LinearParams
    launch_t: int
    training_tickers: tuple[str, ...]
    decision_sigma: float | None  # RegimePolicy.frozen_boundary of the firms' σs


def fit_pooled_experts(
    train_universe: Mapping[str, PriceSeries],
    policy: RegimePolicy,
    settings: BacktestSettings,
    launch_t: int,
) -> PooledExperts:
    """One LSTM and one linear fit pooled across firms, for unseen-firm scoring.

    Each firm contributes windows standardized by its own pre-launch scaler;
    the tail of each firm's samples forms the early-stopping split, and the
    firms fit as one group (:func:`_fit_experts`), a stack of one.  The
    cross-sectional median of the firms' frozen volatilities is kept as the
    decision boundary for labelling unseen firms under the median policy.
    """
    if not train_universe:
        raise EvaluationError("pooled training universe is empty")
    tickers = sorted(train_universe)
    for ticker in tickers:
        if len(train_universe[ticker]) - settings.mode.offset < launch_t + 1:
            raise EvaluationError(f"{ticker}: too short for launch index {launch_t}")
    firms = [
        _prepare_fold_firm(train_universe[t], range(launch_t), launch_t + 1, policy, settings)
        for t in tickers
    ]
    seed = task_seed(settings.seed, "__pooled__", HOLDOUT_FOLD_ID)
    lstm, (linear,) = _fit_experts([firms], [seed], ["pooled fit"], settings)
    decision = policy.frozen_boundary([data.sigma_frozen for data in firms])
    return PooledExperts(lstm.firm(0), linear, launch_t, tuple(tickers), decision)


def _observations_to_evaluate(series: PriceSeries, launch: int, mode: WindowMode) -> int:
    """The observations of a held-out ``series``, if one is at index ``launch``."""
    n_vals = len(series) - mode.offset
    if n_vals < launch + 1:
        raise EvaluationError(f"{series.ticker}: too short to evaluate at launch index {launch}")
    return n_vals


def _holdout_firm(
    series: PriceSeries,
    experts: PooledExperts,
    policy: RegimePolicy,
    settings: BacktestSettings,
) -> tuple[_FoldFirmData, FoldModels]:
    launch = experts.launch_t
    n_vals = _observations_to_evaluate(series, launch, settings.mode)
    data = _prepare_fold_firm(series, range(launch), n_vals, policy, settings)
    regime = policy.label_unseen(data.sigma_frozen, experts.decision_sigma)
    return data, data.models(experts.lstm, experts.linear, regime, settings.mode)


def holdout_models(
    series: PriceSeries,
    experts: PooledExperts,
    policy: RegimePolicy,
    settings: BacktestSettings,
) -> FoldModels:
    """The pooled experts as one held-out firm sees them.

    The firm gets its own pre-launch scaler and frozen volatility, and is
    labelled against the frozen decision boundary (``tau`` under the
    threshold rule).  :func:`run_holdout` scores exactly these models.
    """
    return _holdout_firm(series, experts, policy, settings)[1]


def _checked_holdout(
    universe: Mapping[str, PriceSeries], holdout: Sequence[str], training: Iterable[str] = ()
) -> list[str]:
    """``holdout``'s tickers, sorted, if each is in ``universe``, once, and not in ``training``."""
    if isinstance(holdout, str):
        raise EvaluationError(f"holdout must be a sequence of tickers, got the string {holdout!r}")
    tickers = sorted(holdout)
    repeated = sorted(t for t in set(tickers) if tickers.count(t) > 1)
    if repeated:
        raise EvaluationError(f"holdout tickers repeat: {repeated}")
    overlap = set(tickers) & set(training)
    if overlap:
        raise EvaluationError(f"holdout firms overlap the training universe: {sorted(overlap)}")
    for ticker in tickers:
        if ticker not in universe:
            raise EvaluationError(f"holdout ticker {ticker} missing from the universe")
    return tickers


def run_holdout(
    universe: Mapping[str, PriceSeries],
    holdout: Sequence[str],
    experts: PooledExperts,
    policy: RegimePolicy,
    settings: BacktestSettings,
) -> tuple[MetricRecord, ...]:
    """Score the frozen pooled experts on held-out firms across all horizons.

    Each holdout firm is standardized by its own pre-launch scaler, labelled
    against the frozen decision boundary, and scored on recursive forecasts
    launched at the shared launch index.  Model parameters are never touched.
    A ticker named twice, or a string for ``holdout``, is an
    :class:`EvaluationError`.
    """
    tickers = _checked_holdout(universe, holdout, experts.training_tickers)
    pairs = [_holdout_firm(universe[t], experts, policy, settings) for t in tickers]
    firms, fms = [data for data, _ in pairs], [fm for _, fm in pairs]
    gates = [gate_for_regime(fm.regime, settings.gate_table) for fm in fms]
    records = _horizon_records(
        experts.lstm, firms, fms, gates, settings.horizons, HOLDOUT_FOLD_ID, HOLDOUT_SPLIT
    )
    return tuple(record for firm_records in records for record in firm_records)
