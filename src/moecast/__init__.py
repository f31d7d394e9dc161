"""Volatility-regime-aware mixture-of-experts forecasting for daily price series."""

from .errors import ConfigError, DataError, EvaluationError, FitError, MoecastError
from .market_data import (
    PriceSeries,
    ReturnSeries,
    Scaler,
    SyntheticSpec,
    WindowMode,
    fit_scaler,
    generate_synthetic,
    load_csv,
    log_returns,
    make_windows,
    rolling_volatility,
    simple_returns,
    write_csv,
)
from .regime import (
    PolicyKind,
    RegimeLabel,
    RegimePolicy,
    classify_median,
    classify_threshold,
    rank_by_volatility,
)
from .linear_expert import LinearFitReport, LinearParams, fit_ols, predict_linear
from .lstm_expert import (
    LstmParams,
    Tape,
    TrainConfig,
    adam_step,
    backward_bptt,
    forward_batch,
    init_params,
    predict_lstm,
    train_early_stopping,
)
from .moe import (
    DEFAULT_GATE_TABLE,
    GateWeights,
    combine,
    gate_for_regime,
)
from .evaluation import (
    BacktestSettings,
    FoldSpec,
    HoldoutSpec,
    HorizonSpec,
    MetricRecord,
    PooledExperts,
    TrainMode,
    WalkForwardResult,
    aggregate_stratified,
    fit_pooled_experts,
    improvement_pct,
    linear_one_step,
    lstm_one_step,
    mae,
    mase,
    moe_one_step,
    mse,
    plan_walk_forward,
    recursive_forecast,
    rmse,
    run_holdout,
    run_walk_forward,
)
from .config import RunConfig, parse_config, parse_config_text
from .model_store import ModelStore

__version__ = "0.1.0"
