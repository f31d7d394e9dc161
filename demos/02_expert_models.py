#!/usr/bin/env python3
"""Both experts on one firm, then the gated blend.

Builds standardized 10-day windows over a volatile firm, trains the LSTM
expert with early stopping, fits the closed-form linear expert on time and
trailing volatility, and compares single-step predictions from each expert
and their regime-weighted mixture on a held-out tail.
"""

from moecast import (
    RegimePolicy,
    SyntheticSpec,
    TrainConfig,
    WindowMode,
    blend,
    fit_ols,
    gate_for_regime,
    generate_synthetic,
    label_for,
    mae,
    make_windows,
    mse,
    predict_linear,
    predict_lstm,
    rolling_volatility,
    simple_returns,
    train_early_stopping,
)


def main():
    series = generate_synthetic(SyntheticSpec(n_stable=0, n_volatile=1, length=200), seed=42)["VOL01"]
    w, train_end = 10, 160
    # window k holds the w standardized prices before price w + k, its target
    windows, targets, scaler = make_windows(series, w, WindowMode.PRICE_LEVELS, train_end=train_end)
    print(f"{series.ticker}: {len(targets)} windows, scaler mean {scaler.mean:.2f} "
          f"std {scaler.std:.2f}")

    # LSTM expert: last fifth of the training samples drives early stopping
    inputs, train_targets = windows[:train_end - w], targets[:train_end - w]
    split = len(train_targets) - len(train_targets) // 5
    # the trainer fits a stack of firms, one seed each: here a stack of one
    cfg = TrainConfig(max_epochs=25, patience=5)
    stack, (history,) = train_early_stopping(
        inputs[None, :split], train_targets[None, :split],
        inputs[None, split:], train_targets[None, split:],
        cfg, seeds=(1,), hidden=20,
    )
    lstm = stack.firm(0)
    print(f"LSTM trained for {len(history)} epochs, "
          f"best validation MAE {history[-1].best_val_mae:.4f}")

    # linear expert: standardized price on time index and trailing volatility
    policy = RegimePolicy.threshold()
    vol = rolling_volatility(simple_returns(series), policy.vol_window)
    rows = range(policy.vol_window, train_end)
    sigma_at = lambda t: float(vol[t - 1])
    linear, rss = fit_ols(
        [float(t) for t in rows],
        [sigma_at(t) for t in rows],
        [float(targets[t - w]) for t in rows],
    )
    print(f"linear expert: beta0 {linear.beta0:+.4f}, beta1 {linear.beta1:+.5f}, "
          f"beta2 {linear.beta2:+.3f} (rss {rss:.3f})")

    # out-of-sample tail: volatility frozen at the last training read
    sigma_frozen = sigma_at(train_end - 1)
    regime = label_for(sigma_frozen, policy.tau)
    weights = gate_for_regime(regime)
    print(f"frozen sigma {sigma_frozen:.5f} -> regime {regime.value}\n")
    rows = {"LSTM": [], "Linear": [], "MoE": []}
    actual = []
    for t in range(train_end, len(series)):
        window = windows[t - w]
        rnn = predict_lstm(lstm, window)
        lm = predict_linear(linear, float(t), sigma_frozen)
        rows["LSTM"].append(rnn)
        rows["Linear"].append(lm)
        rows["MoE"].append(blend(weights, rnn, lm))
        actual.append(float(targets[t - w]))
    print(f"{'model':<8}{'MSE':>10}{'MAE':>10}   (standardized, one-step, "
          f"{len(actual)} points)")
    for name, preds in rows.items():
        print(f"{name:<8}{mse(preds, actual):>10.4f}{mae(preds, actual):>10.4f}")
    assert min(rows['LSTM'][0], rows['Linear'][0]) <= rows['MoE'][0] <= max(
        rows['LSTM'][0], rows['Linear'][0]
    ), "the blend always lies between its experts"


if __name__ == "__main__":
    main()
