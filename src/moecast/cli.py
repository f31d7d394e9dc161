"""Command-line entry points: synth, classify, backtest, forecast, report.

Each command reads the shared configuration (all keys optional, defaults per
the documented format), and every artifact a command writes is named by the
configuration fingerprint so runs never clobber results produced under
different settings.  Identical config and seed reproduce every output file
byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .config import RunConfig, parse_config, parse_config_text
from .errors import ConfigError, DataError, MoecastError
from .evaluation import (
    forecast_paths,
    holdout_models,
    plan_walk_forward,
    run_walk_forward,
)
from .market_data import PriceSeries, generate_synthetic, load_csv, write_csv
from .model_store import ModelStore
from .moe import gate_for_regime
from .regime import rank_by_volatility
from .reporting import (
    predictions_to_csv,
    records_from_csv,
    records_to_csv,
    render_tables_text,
    stamp,
    tables_to_csv,
)

__all__ = ["main"]


@contextlib.contextmanager
def _writing(path: Path | str):
    """Create ``path``'s directory; an ``OSError`` doing so or writing ``path`` is a DataError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text, encoding="utf-8")


def _artifact(config: RunConfig, kind: str, suffix: str) -> Path:
    # creates nothing; a report.dir that names a file fails every command,
    # those that only read from it too
    directory = Path(config["report.dir"])
    if directory.exists() and not directory.is_dir():
        raise DataError(f"cannot write {directory}: not a directory")
    return directory / f"{kind}_{config.short_fingerprint}.{suffix}"


def _load_universe(config: RunConfig, ticker: str | None = None) -> dict[str, PriceSeries]:
    data_path = config["data.path"]
    if not data_path:
        raise ConfigError("data.path is not set; point it at a ticker,date,adj_close CSV")
    return load_csv(data_path, ticker)


def cmd_synth(config: RunConfig, args: argparse.Namespace) -> int:
    target = args.out or config["data.path"]
    if not target:
        raise ConfigError("no output path: pass --out or set data.path")
    universe = generate_synthetic(config.synthetic_spec(), config["seed"])
    with _writing(target):
        write_csv(universe, target)
    total = sum(len(s) for s in universe.values())
    print(f"wrote {len(universe)} synthetic firms ({total} rows) to {target}")
    return 0


def cmd_classify(config: RunConfig, args: argparse.Namespace) -> int:
    universe = _load_universe(config)
    policy = config.policy_for_classify()
    sigmas = {t: float(policy.volatility(universe[t])[-1]) for t in sorted(universe)}
    labels = policy.labels(sigmas)
    print(f"regime classification by {policy.describe()}")
    print(f"{'ticker':<10}{'sigma':>12}  regime")
    for ticker in sorted(universe):
        print(f"{ticker:<10}{sigmas[ticker]:>12.6f}  {labels[ticker].value}")
    return 0


def _select_holdout(universe: dict[str, PriceSeries], config: RunConfig) -> tuple[str, ...]:
    """The ``holdout.k`` most and ``holdout.k`` least volatile firms, none when it is 0."""
    k = config["holdout.k"]
    if k == 0:
        return ()
    policy = config.policy_for_backtest()
    # the defined entries' own mean: np.nanmean sums other blocks and can round differently
    mean_sigma = {
        ticker: float(policy.volatility(series)[policy.vol_window - 1:].mean())
        for ticker, series in universe.items()
    }
    top, bottom = rank_by_volatility(mean_sigma, k)  # which rejects 2k > firms
    if 2 * k == len(universe):
        raise ConfigError(f"holdout.k={k} leaves no firms to train on")
    return tuple(top + bottom)


def cmd_backtest(config: RunConfig, args: argparse.Namespace) -> int:
    universe = _load_universe(config)
    settings = config.backtest_settings()
    policy = config.policy_for_backtest()
    holdout = _select_holdout(universe, config)
    train = [s for t, s in universe.items() if t not in holdout]
    n = min(len(s) - settings.mode.offset for s in train)
    plan = plan_walk_forward(
        n, config["wf.init_train"], config["wf.val_len"], config["wf.step"],
        config.train_mode(),
    )
    result = run_walk_forward(universe, plan, policy, settings, holdout)

    fingerprint, seed = config.fingerprint, config["seed"]
    config_path = _artifact(config, "config", "cfg")
    _write_text(config_path, stamp(fingerprint, seed) + config.serialize())
    records_path = _artifact(config, "records", "csv")
    _write_text(records_path, records_to_csv(result.records, fingerprint, seed))
    predictions_path = _artifact(config, "predictions", "csv")
    _write_text(
        predictions_path,
        predictions_to_csv(result.predictions, universe, settings.mode, fingerprint, seed),
    )
    store = ModelStore(fingerprint, dict(result.models), result.pooled)
    store_path = _artifact(config, "models", "npz")
    with _writing(store_path):
        store.save(store_path)

    print(f"backtest: {len(train)} firms, {len(plan)} folds, "
          f"{len(result.records)} metric records")
    if holdout:
        k = config["holdout.k"]
        print(f"holdout: {k} volatile + {k} stable firms")
    for path in (config_path, records_path, predictions_path, store_path):
        print(f"wrote {path}")
    return 0


def cmd_forecast(config: RunConfig, args: argparse.Namespace) -> int:
    ticker, horizon = args.ticker, args.horizon
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    store_path = _artifact(config, "models", "npz")
    if not store_path.exists():
        raise DataError(f"model store {store_path} not found; run backtest first")
    store = ModelStore.load(store_path, ticker)
    if store.fingerprint != config.fingerprint:
        raise DataError(
            "model store was produced under a different configuration "
            f"(stored fingerprint {store.fingerprint[:12]}, current {config.short_fingerprint})"
        )
    folds = store.folds_for(ticker)
    if not folds and store.pooled is None:
        raise DataError(f"no stored models for ticker {ticker!r}")
    universe = _load_universe(config, ticker)
    if ticker not in universe:
        raise DataError(f"ticker {ticker!r} missing from {config['data.path']}")
    series = universe[ticker]
    settings = config.backtest_settings()
    if folds:
        fm = store.fold_models[(ticker, folds[-1])]
        source = f"fold {folds[-1]}"
    else:
        # a holdout firm: the pooled experts under its own scaler, sigma and regime
        fm = holdout_models(series, store.pooled, config.policy_for_backtest(), settings)
        source = "pooled experts"
    values = fm.mode.values(series)
    if len(values) < fm.launch_t:
        raise DataError(f"{ticker}: series shorter than the stored launch index")
    standardized = fm.scaler.apply(values)
    window = standardized[fm.launch_t - fm.window:fm.launch_t]
    weights = gate_for_regime(fm.regime, settings.gate_table)
    paths = {
        model: fm.scaler.invert(path[0])
        for model, path in forecast_paths(
            fm.lstm, [fm.linear], [weights], window[None], float(fm.launch_t), [fm.sigma], horizon
        ).items()
    }
    print(stamp(config.fingerprint, config["seed"]).rstrip("\n"))
    print(f"# {ticker}: recursive {horizon}-step forecast from index {fm.launch_t} "
          f"({source}, regime {fm.regime.value})")
    print("step,date,linear,lstm,moe")
    for j in range(horizon):
        date = series.date_at(fm.launch_t + j + fm.mode.offset)
        row = ",".join(repr(float(paths[m][j])) for m in ("Linear", "LSTM", "MoE"))
        print(f"{j + 1},{date},{row}")
    return 0


def cmd_report(config: RunConfig, args: argparse.Namespace) -> int:
    records_path = _artifact(config, "records", "csv")
    if not records_path.exists():
        raise DataError(f"no records at {records_path}; run backtest first")
    try:
        records_text = records_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read records {records_path}: {exc}") from exc
    records = records_from_csv(records_text)
    fingerprint, seed = config.fingerprint, config["seed"]
    text = render_tables_text(records, fingerprint, seed)
    tables_txt = _artifact(config, "tables", "txt")
    _write_text(tables_txt, text)
    tables_csv = _artifact(config, "tables", "csv")
    _write_text(tables_csv, tables_to_csv(records, fingerprint, seed))
    print(text)
    print(f"wrote {tables_txt}")
    print(f"wrote {tables_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moecast",
        description="Volatility-regime mixture-of-experts forecasting pipeline",
    )
    parser.add_argument("--config", help="path to a 'key = value' configuration file")
    parser.add_argument("--seed", type=int, help="override the configured random seed")
    # the dest only names the missing subcommand in argparse's usage error
    sub = parser.add_subparsers(dest="command", required=True)
    synth = sub.add_parser("synth", help="generate a synthetic two-regime universe CSV")
    synth.add_argument("--out", help="output CSV path (defaults to data.path)")
    synth.set_defaults(run=cmd_synth)
    sub.add_parser(
        "classify", help="print the per-ticker volatility regime table"
    ).set_defaults(run=cmd_classify)
    sub.add_parser(
        "backtest", help="run the walk-forward backtest and persist results"
    ).set_defaults(run=cmd_backtest)
    forecast = sub.add_parser("forecast", help="recursive multi-step forecast for one ticker")
    forecast.add_argument("--ticker", required=True)
    forecast.add_argument("--horizon", type=int, required=True)
    forecast.set_defaults(run=cmd_forecast)
    sub.add_parser(
        "report", help="render tables from persisted backtest records"
    ).set_defaults(run=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = parse_config(args.config, seed_override=args.seed)
        else:
            config = parse_config_text("", seed_override=args.seed)
        code = args.run(config, args)
        # a closed stdout shows here, and not in the flush at exit
        sys.stdout.flush()
        return code
    except MoecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``moecast forecast ... | head``): point it
        # at devnull, as the Python signal docs advise, so that the flush at
        # exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
