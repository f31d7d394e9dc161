"""The three workloads: inputs from a seed, one round of work, its outputs.

``wf_reference`` and ``wf_long_horizon`` call moecast's public functions in
this process; ``cli_pipeline`` drives the ``moecast`` command line in child
processes.  moecast is always reached through module attributes at call
time (``mc.run_walk_forward``, never a name imported up front), so that the
tracer's wrappers see every call.

A round returns its timings, the outputs rebuilt as ``checks.Outcome`` plus
what the report and forecast steps printed, and the operations it attempted.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

FORECAST_HORIZON = 20
# Report and forecast calls per round.  In-process calls take milliseconds, so
# a round makes many of them and the run reports their median.
REPORT_REPEATS = 2
LIBRARY_CALLS = 16


@dataclass(frozen=True)
class WfSpec:
    n_stable: int
    n_volatile: int
    length: int
    init_train: int
    val_len: int
    step: int
    expanding: bool
    log_returns: bool
    policy: str
    horizons: tuple[int, ...]
    max_epochs: int = 50
    patience: int = 5
    hidden: int = 50
    window: int = 10
    vol_window: int = 21
    tau: float | None = None


WF_SPECS = {
    # 16 firms, sliding 80/20/20 folds, hidden 50, default training, median rule
    "wf_reference": WfSpec(8, 8, 140, 80, 20, 20, False, False, "median", (5, 20, 60)),
    # 2 firms, log returns, threshold rule, expanding folds of 60, 12 horizons
    "wf_long_horizon": WfSpec(
        1, 1, 420, 80, 60, 60, True, True, "threshold", tuple(range(5, 61, 5)),
        max_epochs=2, patience=2, vol_window=30, tau=0.025,
    ),
}

CLI_CONFIG = """\
data.path = data.csv
report.dir = reports
synth.stable_firms = 4
synth.volatile_firms = 4
synth.length = 200
holdout.k = 2
train.hidden_units = 16
train.max_epochs = 10
train.patience = 10
seed = {seed}
"""
CLI_FOLDS = (80, 20, 20)  # init_train, val_len, step: the configuration defaults
CLI_HORIZONS = (5, 20, 60)


@dataclass
class Round:
    backtest_s: float
    report_s: list[float]
    forecast_s: list[float]
    outcome: checks.Outcome | None
    design: checks.Design | None
    ops: list
    failed_ops: set = field(default_factory=set)
    reports: dict[int, list[dict]] = field(default_factory=dict)
    forecasts: dict[tuple[int, str], tuple[list, str]] = field(default_factory=dict)


def own_folds(n: int, init_train: int, val_len: int, step: int, expanding: bool):
    folds, k = [], 0
    while init_train + k * step + val_len <= n:
        val_start = init_train + k * step
        folds.append((k, 0 if expanding else val_start - init_train, val_start, val_start + val_len))
        k += 1
    return tuple(folds)


# ---------------------------------------------------------------------------
# in-process walk-forward workloads


def wf_inputs(spec: WfSpec, seed: int):
    """The universe, fold plan, regime policy and settings, all from the seed."""
    import moecast as mc
    from moecast.evaluation import TrainMode
    from moecast.regime import RegimePolicy

    universe = mc.generate_synthetic(
        mc.SyntheticSpec(n_stable=spec.n_stable, n_volatile=spec.n_volatile, length=spec.length),
        seed,
    )
    n_obs = spec.length - 1 if spec.log_returns else spec.length
    plan = mc.plan_walk_forward(
        n_obs, spec.init_train, spec.val_len, spec.step,
        TrainMode.EXPANDING if spec.expanding else TrainMode.SLIDING,
    )
    policy = (
        RegimePolicy.threshold(spec.vol_window, spec.tau)
        if spec.policy == "threshold" else RegimePolicy.median(spec.vol_window)
    )
    settings = mc.BacktestSettings(
        window=spec.window,
        mode=mc.WindowMode.LOG_RETURNS if spec.log_returns else mc.WindowMode.PRICE_LEVELS,
        train=mc.TrainConfig(max_epochs=spec.max_epochs, patience=spec.patience),
        hidden=spec.hidden,
        horizons=mc.HorizonSpec(spec.horizons),
        seed=seed,
    )
    return universe, plan, policy, settings


def wf_design(spec: WfSpec, universe) -> checks.Design:
    prices = {t: np.array([p.adj_close for p in s.points]) for t, s in universe.items()}
    n_obs = spec.length - 1 if spec.log_returns else spec.length
    return checks.Design(
        prices=prices,
        mode="log_returns" if spec.log_returns else "price_levels",
        window=spec.window,
        policy=spec.policy,
        vol_window=spec.vol_window,
        tau=spec.tau,
        folds=own_folds(n_obs, spec.init_train, spec.val_len, spec.step, spec.expanding),
        horizons=spec.horizons,
        wf_tickers=tuple(sorted(universe)),
    )


def wf_outcome(result) -> checks.Outcome:
    records = [
        {
            "ticker": r.ticker, "fold_id": r.fold_id, "split": r.split, "regime": r.regime.value,
            "horizon": r.horizon, "model": r.model,
            **{m: float(getattr(r, m)) for m in checks.METRICS},
            "mase": r.mase,
        }
        for r in result.records
    ]
    h1: dict = {}
    for p in sorted(result.predictions, key=lambda p: p.t_index):
        h1.setdefault((p.ticker, p.fold_id), {}).setdefault(p.model, []).append(p.predicted)
    h1 = {key: {m: np.array(v) for m, v in models.items()} for key, models in h1.items()}
    models = {
        key: {
            "lstm": fm.lstm.arrays(),
            "beta": (fm.linear.beta0, fm.linear.beta1, fm.linear.beta2),
            "regime": fm.regime.value,
        }
        for key, fm in result.models.items()
    }
    return checks.Outcome(records, h1, models)


def library_forecast(universe, result, settings, ticker: str, horizon: int):
    """What ``moecast forecast`` computes, through the library: rows of raw values."""
    import moecast as mc
    from moecast import evaluation as ev

    last = max(fold for (t, fold) in result.models if t == ticker)
    fm = result.models[(ticker, last)]
    series = universe[ticker]
    values = series.prices if fm.mode is mc.WindowMode.PRICE_LEVELS else mc.log_returns(series).values
    window = fm.scaler.apply(values)[fm.launch_t - fm.window:fm.launch_t]
    weights = mc.gate_for_regime(fm.regime, settings.gate_table)
    fns = (
        ev.linear_one_step(fm.linear),
        ev.lstm_one_step(fm.lstm),
        ev.moe_one_step(fm.lstm, fm.linear, weights),
    )
    paths = [
        fm.scaler.invert(mc.recursive_forecast(fn, window, float(fm.launch_t), fm.sigma, horizon))
        for fn in fns
    ]
    return [tuple(float(p[j]) for p in paths) for j in range(horizon)], fm.regime.value


def wf_round(name: str, seed: int) -> Round:
    import moecast as mc
    from moecast import reporting

    spec = WF_SPECS[name]
    universe, plan, policy, settings = wf_inputs(spec, seed)
    start = time.perf_counter()
    result = mc.run_walk_forward(universe, plan, policy, settings)
    backtest_s = time.perf_counter() - start

    records = list(result.records)
    report_s, reports = [], {}
    for k in range(LIBRARY_CALLS):
        start = time.perf_counter()
        reporting.render_tables_text(records, name, seed)
        table = reporting.tables_to_csv(records, name, seed)
        report_s.append(time.perf_counter() - start)
        reports[k] = parse_csv_text(table)

    tickers = sorted(universe)
    forecast_s, forecasts = [], {}
    for k in range(LIBRARY_CALLS):
        ticker = tickers[k % len(tickers)]
        start = time.perf_counter()
        forecasts[k, ticker] = library_forecast(universe, result, settings, ticker, FORECAST_HORIZON)
        forecast_s.append(time.perf_counter() - start)

    design = wf_design(spec, universe)
    ops = [checks.ff_op(t, f[0]) for f in design.folds for t in design.wf_tickers]
    ops += [("report", k) for k in range(LIBRARY_CALLS)]
    ops += [("forecast", key) for key in forecasts]
    return Round(backtest_s, report_s, forecast_s, wf_outcome(result), design, ops,
                 reports=reports, forecasts=forecasts)


# ---------------------------------------------------------------------------
# command-line workload


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(session: Path, args: list[str], spans: Path | None = None) -> tuple[float, int, str]:
    """One ``moecast`` command in a child process: (wall seconds, exit code, stdout)."""
    if spans is None:
        cmd = [sys.executable, "-m", "moecast.cli", "--config", "run.cfg", *args]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), "--config", "run.cfg", *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=session, env=child_env(), capture_output=True, text=True,
                          timeout=170)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def new_session(work: Path, seed: int, name: str = "session") -> Path:
    session = work / name
    shutil.rmtree(session, ignore_errors=True)
    session.mkdir(parents=True)
    (session / "run.cfg").write_text(CLI_CONFIG.format(seed=seed), encoding="utf-8")
    return session


def parse_csv_text(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_prices(path: Path) -> dict[str, tuple[list[str], np.ndarray]]:
    rows: dict[str, list[tuple[str, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["ticker"], []).append((row["date"], float(row["adj_close"])))
    return {
        t: ([d for d, _ in sorted(v)], np.array([p for _, p in sorted(v)]))
        for t, v in rows.items()
    }


def holdout_choice(prices: dict[str, np.ndarray], k: int, vol_window: int) -> tuple[str, ...]:
    """The k most and k least volatile firms by mean rolling volatility of log returns."""
    mean_sigma = {}
    for ticker, p in prices.items():
        r = np.diff(np.log(p))
        panes = np.lib.stride_tricks.sliding_window_view(r, vol_window)
        mean_sigma[ticker] = float(panes.std(axis=1, ddof=1).mean())
    ranked = sorted(mean_sigma, key=lambda t: (mean_sigma[t], t))
    return tuple(sorted(ranked[:k] + ranked[-k:]))


def cli_design(session: Path):
    series = read_prices(session / "data.csv")
    prices = {t: p for t, (_, p) in series.items()}
    holdout = holdout_choice(prices, 2, 21)
    wf = tuple(sorted(t for t in prices if t not in holdout))
    n = min(len(prices[t]) for t in wf)
    design = checks.Design(
        prices=prices, mode="price_levels", window=10, policy="median", vol_window=21, tau=None,
        folds=own_folds(n, *CLI_FOLDS, expanding=False), horizons=CLI_HORIZONS,
        wf_tickers=wf, holdout_tickers=holdout,
    )
    return design, {t: d for t, (d, _) in series.items()}


def read_store(path: Path) -> tuple[dict, dict | None]:
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: np.array(archive[name]) for name in archive.files}
    manifest = json.loads(str(arrays.pop("manifest")))

    def lstm(fields):
        return {name: arrays[f"a{index}"] for name, index in fields.items()}

    models = {
        (e["ticker"], e["fold"]): {
            "lstm": lstm(e["lstm"]), "beta": tuple(e["linear"]), "regime": e["regime"],
        }
        for e in manifest["entries"]
    }
    pooled = manifest["pooled"]
    if pooled is not None:
        pooled = {
            "lstm": lstm(pooled["lstm"]), "beta": tuple(pooled["linear"]),
            "launch_t": pooled["launch_t"], "decision_sigma": pooled["decision_sigma"],
        }
    return models, pooled


def read_records(path: Path) -> list[dict]:
    records = []
    for row in parse_csv_text(path.read_text(encoding="utf-8")):
        record = dict(row)
        record["fold_id"] = int(row["fold_id"])
        record["horizon"] = int(row["horizon"])
        for m in checks.METRICS:
            record[m] = float(row[m])
        record["mase"] = float(row["mase"]) if row["mase"] else None
        records.append(record)
    return records


def read_h1(path: Path, design: checks.Design, dates: dict[str, list[str]]) -> dict:
    """Raw single-step predictions mapped back to (ticker, fold) on the standardized scale."""
    index = {t: {d: k for k, d in enumerate(ds)} for t, ds in dates.items()}
    fold_of = {}
    for fold_id, ts, te, ve in design.folds:
        for t in range(te, ve):
            fold_of[t] = (fold_id, ts, te, ve)
    views = {}
    h1: dict = {}
    for row in parse_csv_text(path.read_text(encoding="utf-8")):
        ticker = row["ticker"]
        fold = fold_of.get(index[ticker][row["date"]])
        if fold is None:
            continue
        if (ticker, fold[0]) not in views:
            views[(ticker, fold[0])] = checks.fold_view(design, ticker, *fold[1:])
        view = views[(ticker, fold[0])]
        standardized = (float(row["predicted"]) - view.mean) / view.std
        h1.setdefault((ticker, fold[0]), {}).setdefault(row["model"], []).append(standardized)
    return {key: {m: np.array(v) for m, v in models.items()} for key, models in h1.items()}


FORECAST_HEADER = re.compile(r"^# (\S+): recursive (\d+)-step forecast .*regime (\w+)\)$")


def parse_forecast(stdout: str) -> tuple[list[tuple[float, float, float]], str]:
    regime = ""
    rows = []
    for line in stdout.splitlines():
        header = FORECAST_HEADER.match(line)
        if header:
            regime = header.group(3)
        elif line and line[0].isdigit():
            parts = line.split(",")
            rows.append((float(parts[2]), float(parts[3]), float(parts[4])))
    return rows, regime


def cli_round(work: Path, seed: int, spans_dir: Path | None) -> Round:
    """synth, backtest, report and one forecast per walk-forward ticker."""
    session = new_session(work, seed)
    spans = itertools.count()

    def run(args):
        out = None if spans_dir is None else spans_dir / f"spans-{next(spans)}.json"
        return run_cli(session, args, out)

    ops = [("synth",), ("backtest",)]
    failed = set()
    _, code, _ = run(["synth"])
    if code != 0:
        return Round(0.0, [], [], None, None, ops, set(ops))
    design, dates = cli_design(session)
    ops += [checks.ff_op(t, f[0]) for f in design.folds for t in design.wf_tickers]
    ops += [("report", k) for k in range(REPORT_REPEATS)]
    ops += [("forecast", (k, t)) for k, t in enumerate(design.wf_tickers)]
    backtest_s, code, _ = run(["backtest"])
    if code != 0:
        return Round(backtest_s, [], [], None, design, ops, set(ops[1:]))

    reports_dir = session / "reports"
    found = {kind: sorted(reports_dir.glob(f"{kind}_*")) for kind in ("records", "predictions", "models")}
    models, pooled = read_store(found["models"][0])
    outcome = checks.Outcome(
        read_records(found["records"][0]),
        read_h1(found["predictions"][0], design, dates),
        models, pooled,
    )
    reports, report_s = {}, []
    for k in range(REPORT_REPEATS):
        seconds, code, _ = run(["report"])
        report_s.append(seconds)
        tables = sorted(reports_dir.glob("tables_*.csv"))
        if code != 0 or not tables:
            failed.add(("report", k))
            continue
        reports[k] = parse_csv_text(tables[0].read_text(encoding="utf-8"))
    forecasts, forecast_s = {}, []
    for k, ticker in enumerate(design.wf_tickers):
        seconds, code, stdout = run(["forecast", "--ticker", ticker, "--horizon", str(FORECAST_HORIZON)])
        forecast_s.append(seconds)
        if code != 0:
            failed.add(("forecast", (k, ticker)))
            continue
        forecasts[k, ticker] = parse_forecast(stdout)
    return Round(backtest_s, report_s, forecast_s, outcome, design, ops, failed, reports, forecasts)
