"""Output checks computed by the benchmark itself, not by moecast.

Every check starts from the raw prices and the stored model weights and
recomputes what moecast reported: a plain-numpy LSTM forward pass, a
``np.linalg.lstsq`` fit of the linear expert, the regime rule, the gate
blend and the recursive forecasts with their scores.  Property checks
(metric identities, the Jensen bound, record counts, report means) ride
along.  A failed check marks the operation it belongs to as failed.

Tolerances are relative and far above float64 rounding: the checks catch a
wrong number, not a different summation order.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

MODELS = ("Linear", "LSTM", "MoE")
GATE = {"Volatile": 0.7, "Stable": 0.3}  # regime -> weight on the LSTM
METRICS = ("mse", "mae", "rmse", "raw_mse", "raw_mae", "raw_rmse")
REL_TOL = 1e-8


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * 1e-3)


# ---------------------------------------------------------------------------
# the workload as the checks see it


@dataclass(frozen=True)
class Design:
    """Everything needed to recompute a backtest from raw prices."""

    prices: dict[str, np.ndarray]
    mode: str  # "price_levels" or "log_returns"
    window: int
    policy: str  # "median" or "threshold"
    vol_window: int
    tau: float | None
    folds: tuple[tuple[int, int, int, int], ...]  # (fold_id, train start, train stop, val stop)
    horizons: tuple[int, ...]
    wf_tickers: tuple[str, ...]
    holdout_tickers: tuple[str, ...] = ()


@dataclass
class Outcome:
    """One backtest's outputs in plain Python and numpy types.

    ``records`` are dicts keyed like the records CSV columns.  ``h1`` maps
    (ticker, fold) to each model's standardized single-step predictions over
    the validation window.  ``models`` maps (ticker, fold) to the stored
    LSTM arrays, linear coefficients and regime; ``pooled`` holds the pooled
    experts when the run had a holdout set.
    """

    records: list[dict]
    h1: dict[tuple[str, int], dict[str, np.ndarray]]
    models: dict[tuple[str, int], dict]
    pooled: dict | None = None


@dataclass
class Checker:
    """Collects failed checks by the operation they belong to."""

    failures: dict[object, list[str]] = field(default_factory=dict)

    def expect(self, ok: bool, op, message: str) -> bool:
        if not ok:
            self.failures.setdefault(op, []).append(message)
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


def ff_op(ticker: str, fold_id: int):
    return ("firm_fold", ticker, fold_id)


# ---------------------------------------------------------------------------
# independent recomputation


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def lstm_forward(params: dict[str, np.ndarray], windows: np.ndarray) -> np.ndarray:
    """Plain LSTM over scalar-input windows of shape (batch, steps)."""
    W = np.vstack([params["W_f"], params["W_i"], params["W_C"], params["W_o"]])
    b = np.concatenate([params["b_f"], params["b_i"], params["b_C"], params["b_o"]])
    hidden = params["W_f"].shape[0]
    windows = np.atleast_2d(windows)
    h = np.zeros((windows.shape[0], hidden))
    c = np.zeros_like(h)
    for t in range(windows.shape[1]):
        a = np.hstack([h, windows[:, t:t + 1]]) @ W.T + b
        f = sigmoid(a[:, :hidden])
        i = sigmoid(a[:, hidden:2 * hidden])
        g = np.tanh(a[:, 2 * hidden:3 * hidden])
        o = sigmoid(a[:, 3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h @ params["W_y"][0] + params["b_y"][0]


def sample_std(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1))


@dataclass(frozen=True)
class FoldView:
    """One firm's values over one fold, standardized by its training part."""

    z: np.ndarray
    mean: float
    std: float
    sigma: np.ndarray  # sigma[t] is the volatility paired with target t
    ts: int
    train_len: int
    total_len: int


def fold_view(design: Design, ticker: str, ts: int, te: int, ve: int) -> FoldView:
    prices = design.prices[ticker]
    log_mode = design.mode == "log_returns"
    values = np.diff(np.log(prices)) if log_mode else prices
    v = values[ts:ve]
    mean = float(v[:te - ts].mean())
    std = sample_std(v[:te - ts]) if te - ts >= 2 else 0.0
    if not (math.isfinite(std) and std > 0):
        std = 1.0
    # volatility returns of the fold's own price slice
    p = prices[ts:ve + 1] if log_mode else prices[ts:ve]
    r = np.diff(np.log(p)) if design.policy == "median" else np.diff(p) / p[:-1]
    sigma = np.full(len(v), np.nan)
    wv = design.vol_window
    for t in range(len(v)):
        at = t if log_mode else t - 1
        if wv - 1 <= at < len(r):
            sigma[t] = sample_std(r[at - wv + 1:at + 1])
    return FoldView((v - mean) / std, mean, std, sigma, ts, te - ts, ve - ts)


def linear_rows(design: Design, view: FoldView) -> range:
    if design.mode == "log_returns":
        return range(max(design.window, design.vol_window - 1), view.train_len)
    return range(max(design.window, design.vol_window), view.train_len)


def own_linear_fit(design: Design, view: FoldView) -> np.ndarray:
    rows = np.array(linear_rows(design, view))
    X = np.column_stack([np.ones(len(rows)), view.ts + rows, view.sigma[rows]])
    beta, *_ = np.linalg.lstsq(X, view.z[rows], rcond=None)
    return beta


def frozen_sigma(view: FoldView) -> float:
    return float(view.sigma[view.train_len - 1])


def own_labels(design: Design, views: dict[str, FoldView]) -> dict[str, str]:
    sig = {t: frozen_sigma(v) for t, v in views.items()}
    cut = design.tau if design.policy == "threshold" else float(np.median(list(sig.values())))
    return {t: "Volatile" if s > cut else "Stable" for t, s in sig.items()}


def own_paths(model: dict, window: np.ndarray, t0: float, sigma: float, h: int,
              w_rnn: float) -> dict[str, np.ndarray]:
    """Recursive Linear, LSTM and MoE paths of length ``h``."""
    b0, b1, b2 = model["beta"]
    linear = np.array([b0 + b1 * (t0 + j) + b2 * sigma for j in range(h)])
    paths = {"Linear": linear}
    for name in ("LSTM", "MoE"):
        win = np.array(window, dtype=float)
        out = np.empty(h)
        for j in range(h):
            pred = float(lstm_forward(model["lstm"], win[None, :])[0])
            if name == "MoE":
                pred = w_rnn * pred + (1.0 - w_rnn) * linear[j]
            out[j] = pred
            win = np.append(win[1:], pred)
        paths[name] = out
    return paths


def own_scores(pred: np.ndarray, actual: np.ndarray, view: FoldView) -> dict[str, float]:
    err = pred - actual
    raw = err * view.std
    return {
        "mse": float(np.mean(err ** 2)), "mae": float(np.mean(np.abs(err))),
        "rmse": math.sqrt(float(np.mean(err ** 2))),
        "raw_mse": float(np.mean(raw ** 2)), "raw_mae": float(np.mean(np.abs(raw))),
        "raw_rmse": math.sqrt(float(np.mean(raw ** 2))),
    }


# ---------------------------------------------------------------------------
# digests


def record_line(r: dict) -> str:
    values = [r["ticker"], str(r["fold_id"]), r["split"], r["regime"], str(r["horizon"]), r["model"]]
    values += [repr(float(r[m])) for m in METRICS]
    values.append("" if r["mase"] is None else repr(float(r["mase"])))
    return ",".join(values)


def records_digest(records: list[dict]) -> str:
    lines = sorted(record_line(r) for r in records)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def firm_fold_digests(records: list[dict]) -> dict[tuple[str, int], str]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for r in records:
        groups.setdefault((r["ticker"], r["fold_id"]), []).append(r)
    return {key: records_digest(group) for key, group in groups.items()}


# ---------------------------------------------------------------------------
# the checks


def check_properties(records: list[dict], checker: Checker, op_of) -> None:
    """Finite non-negative metrics, rmse^2 = mse and mae <= rmse, on every record."""
    for r in records:
        op = op_of(r)
        values = [r[m] for m in METRICS] + ([] if r["mase"] is None else [r["mase"]])
        if not checker.expect(all(math.isfinite(x) and x >= 0 for x in values), op,
                              f"non-finite or negative metric in {record_line(r)}"):
            continue
        for sq, root, absolute in (("mse", "rmse", "mae"), ("raw_mse", "raw_rmse", "raw_mae")):
            checker.expect(close(r[root] ** 2, r[sq], 1e-12), op, f"{root}^2 != {sq} in {record_line(r)}")
            checker.expect(r[absolute] <= r[root] * (1 + 1e-12), op,
                           f"{absolute} > {root} in {record_line(r)}")


def check_backtest(design: Design, outcome: Outcome, checker: Checker, backtest_op) -> None:
    """Every walk-forward and holdout output against the benchmark's own numbers."""
    check_properties(
        outcome.records, checker,
        lambda r: ff_op(r["ticker"], r["fold_id"]) if r["split"] == "walk_forward" else backtest_op,
    )
    per_ff: dict[tuple[str, int], dict[tuple[int, str], dict]] = {}
    holdout: dict[str, dict[tuple[int, str], dict]] = {}
    for r in outcome.records:
        if r["split"] == "walk_forward":
            per_ff.setdefault((r["ticker"], r["fold_id"]), {})[(r["horizon"], r["model"])] = r
        else:
            holdout.setdefault(r["ticker"], {})[(r["horizon"], r["model"])] = r
    n_h = len(design.horizons)
    expected = len(design.folds) * len(design.wf_tickers) * 3 * (1 + n_h)
    expected += len(design.holdout_tickers) * 3 * n_h
    checker.expect(len(outcome.records) == expected, backtest_op,
                   f"{len(outcome.records)} records, expected {expected}")

    for fold_id, ts, te, ve in design.folds:
        views = {t: fold_view(design, t, ts, te, ve) for t in design.wf_tickers}
        labels = own_labels(design, views)
        for ticker, view in views.items():
            op = ff_op(ticker, fold_id)
            got = per_ff.get((ticker, fold_id), {})
            if not checker.expect(len(got) == 3 * (1 + n_h) and (ticker, fold_id) in outcome.models,
                                  op, f"{ticker} fold {fold_id}: {len(got)} records"):
                continue
            _check_firm_fold(design, outcome, view, labels[ticker], got, ticker, fold_id, checker, op)

    if design.holdout_tickers:
        _check_holdout(design, outcome, holdout, checker, backtest_op)


def _check_firm_fold(design, outcome, view, label, got, ticker, fold_id, checker, op) -> None:
    model = outcome.models[(ticker, fold_id)]
    regimes = {r["regime"] for r in got.values()} | {model["regime"]}
    checker.expect(regimes == {label}, op, f"{ticker} fold {fold_id}: regime {regimes}, rule says {label}")
    if design.policy == "median":
        named = "Volatile" if ticker.startswith("VOL") else "Stable"
        checker.expect(label == named, op, f"{ticker} fold {fold_id}: {named} firm labelled {label}")
    w_rnn = GATE[label]

    beta = own_linear_fit(design, view)
    checker.expect(all(close(a, b, 1e-6) for a, b in zip(model["beta"], beta)), op,
                   f"{ticker} fold {fold_id}: linear coefficients {model['beta']} vs lstsq {beta}")

    w = design.window
    targets = range(view.train_len, view.total_len)
    actual = view.z[view.train_len:view.total_len]
    windows = np.array([view.z[t - w:t] for t in targets])
    h1 = outcome.h1.get((ticker, fold_id), {})
    if checker.expect(set(h1) == set(MODELS) and all(len(h1[m]) == len(actual) for m in MODELS),
                      op, f"{ticker} fold {fold_id}: single-step predictions missing"):
        lstm = lstm_forward(model["lstm"], windows)
        checker.expect(np.allclose(h1["LSTM"], lstm, rtol=1e-9, atol=1e-9), op,
                       f"{ticker} fold {fold_id}: LSTM predictions differ from own forward pass")
        b0, b1, b2 = model["beta"]
        sigma = frozen_sigma(view)
        linear = np.array([b0 + b1 * (view.ts + t) + b2 * sigma for t in targets])
        checker.expect(np.allclose(h1["Linear"], linear, rtol=1e-9, atol=1e-9), op,
                       f"{ticker} fold {fold_id}: linear predictions differ from own formula")
        blend = w_rnn * h1["LSTM"] + (1.0 - w_rnn) * h1["Linear"]
        checker.expect(np.allclose(h1["MoE"], blend, rtol=1e-12, atol=1e-12), op,
                       f"{ticker} fold {fold_id}: MoE predictions are not the {label} gate blend")
        for m in MODELS:
            _compare_scores(got.get((1, m)), own_scores(h1[m], actual, view), checker, op)
        bound = w_rnn * got[(1, "LSTM")]["mse"] + (1 - w_rnn) * got[(1, "Linear")]["mse"]
        checker.expect(got[(1, "MoE")]["mse"] <= bound + 1e-12, op,
                       f"{ticker} fold {fold_id}: MoE h1 MSE breaks the Jensen bound")

    longest = min(max(design.horizons), view.total_len - view.train_len)
    paths = own_paths(model, view.z[view.train_len - w:view.train_len], float(view.ts + view.train_len),
                      frozen_sigma(view), longest, w_rnn)
    for h in design.horizons:
        avail = min(h, view.total_len - view.train_len)
        for m in MODELS:
            _compare_scores(got.get((h, m)), own_scores(paths[m][:avail], actual[:avail], view), checker, op)


def _compare_scores(record: dict | None, own: dict[str, float], checker: Checker, op) -> None:
    if not checker.expect(record is not None, op, "record missing"):
        return
    bad = [m for m in METRICS if not close(record[m], own[m])]
    checker.expect(not bad, op, f"{bad} differ from own recomputation in {record_line(record)}")


def _check_holdout(design, outcome, holdout, checker, op) -> None:
    pooled = outcome.pooled
    if not checker.expect(pooled is not None, op, "holdout records without pooled experts"):
        return
    launch = pooled["launch_t"]
    train_views = {t: fold_view(design, t, 0, launch, launch + 1) for t in design.wf_tickers}
    cut = float(np.median([frozen_sigma(v) for v in train_views.values()]))
    checker.expect(close(cut, pooled["decision_sigma"], 1e-12), op, "pooled decision boundary differs")
    n_vals = {t: len(p) - (design.mode == "log_returns") for t, p in design.prices.items()}
    for ticker in design.holdout_tickers:
        got = holdout.get(ticker, {})
        if not checker.expect(len(got) == 3 * len(design.horizons), op, f"holdout {ticker}: {len(got)} records"):
            continue
        view = fold_view(design, ticker, 0, launch, n_vals[ticker])
        label = "Volatile" if frozen_sigma(view) > cut else "Stable"
        named = "Volatile" if ticker.startswith("VOL") else "Stable"
        regimes = {r["regime"] for r in got.values()}
        checker.expect(regimes == {label} and label == named, op,
                       f"holdout {ticker}: regime {regimes}, rule says {label}, name says {named}")
        w = design.window
        longest = min(max(design.horizons), view.total_len - view.train_len)
        paths = own_paths(pooled, view.z[launch - w:launch], float(launch), frozen_sigma(view),
                          longest, GATE[label])
        actual = view.z[launch:]
        for h in design.horizons:
            avail = min(h, view.total_len - launch)
            for m in MODELS:
                _compare_scores(got.get((h, m)), own_scores(paths[m][:avail], actual[:avail], view),
                                checker, op)


def check_report(records: list[dict], table_rows: list[dict], checker: Checker, op) -> None:
    """Each report table mean and count equals the benchmark's own over the records."""
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        groups.setdefault((r["split"], r["regime"], r["model"], int(r["horizon"])), []).append(r)
    seen = set()
    for row in table_rows:
        key = (row["split"], row["regime"], row["model"], int(row["horizon"]))
        metric = ("raw_" if row["scale"] == "raw" else "") + row["metric"]
        seen.add(key)
        values = [r[metric] for r in groups.get(key, []) if r[metric] is not None]
        if not checker.expect(bool(values), op, f"report row {key} {metric} has no records"):
            continue
        checker.expect(int(row["count"]) == len(values), op, f"report count for {key} {metric}")
        checker.expect(close(float(row["mean"]), math.fsum(values) / len(values), 1e-10), op,
                       f"report mean for {key} {metric} differs from own mean")
    checker.expect(seen == set(groups), op, "report tables do not cover every record group")


def check_forecast(design: Design, outcome: Outcome, ticker: str, horizon: int,
                   rows: list[tuple[float, float, float]], regime: str, checker: Checker, op) -> None:
    """Forecast rows (raw Linear, LSTM, MoE) against the gate blend and own recursion."""
    if not checker.expect(len(rows) == horizon and all(math.isfinite(x) for row in rows for x in row),
                          op, f"forecast {ticker}: {len(rows)} rows or non-finite values"):
        return
    fold_id, ts, te, ve = design.folds[-1]
    model = outcome.models[(ticker, fold_id)]
    checker.expect(regime == model["regime"], op, f"forecast {ticker}: regime {regime}")
    w_rnn = GATE[model["regime"]]
    lin, lstm, moe = rows[0]
    checker.expect(close(moe, w_rnn * lstm + (1 - w_rnn) * lin, 1e-9), op,
                   f"forecast {ticker}: first step is not the gate blend")
    view = fold_view(design, ticker, ts, te, ve)
    w = design.window
    paths = own_paths(model, view.z[view.train_len - w:view.train_len], float(te),
                      frozen_sigma(view), horizon, w_rnn)
    for col, m in enumerate(MODELS):
        raw = paths[m] * view.std + view.mean
        checker.expect(np.allclose([row[col] for row in rows], raw, rtol=1e-9, atol=1e-9), op,
                       f"forecast {ticker}: {m} path differs from own recursion")


# ---------------------------------------------------------------------------
# the checks must reject corrupted results


def corruption_cases(outcome: Outcome) -> dict[str, Outcome]:
    """A perturbed record, a wrong gate weight, a flipped regime, a dropped row."""
    cases = {}
    bad = copy.deepcopy(outcome)
    target = next(r for r in bad.records if r["model"] == "MoE" and r["horizon"] > 1)
    target["mse"] *= 1 + 1e-6
    cases["perturbed record"] = bad

    bad = copy.deepcopy(outcome)
    key = sorted(bad.h1)[0]
    h1 = bad.h1[key]
    w_rnn = GATE[bad.models[key]["regime"]] + 0.1
    h1["MoE"] = w_rnn * h1["LSTM"] + (1 - w_rnn) * h1["Linear"]
    cases["wrong gate weight"] = bad

    bad = copy.deepcopy(outcome)
    flip = {"Volatile": "Stable", "Stable": "Volatile"}
    ticker, fold_id = sorted(bad.models)[0]
    bad.models[(ticker, fold_id)]["regime"] = flip[bad.models[(ticker, fold_id)]["regime"]]
    for r in bad.records:
        if (r["ticker"], r["fold_id"]) == (ticker, fold_id):
            r["regime"] = flip[r["regime"]]
    cases["flipped regime label"] = bad

    bad = copy.deepcopy(outcome)
    del bad.records[len(bad.records) // 2]
    cases["dropped row"] = bad
    return cases


def corruption_selftest(design: Design, outcome: Outcome) -> dict[str, bool]:
    """For each corrupted copy, whether check_backtest rejected it."""
    rejected = {}
    for name, bad in corruption_cases(outcome).items():
        checker = Checker()
        check_backtest(design, bad, checker, "backtest")
        rejected[name] = not checker.ok
    return rejected
