#!/usr/bin/env python3
"""Data pipeline walkthrough: synthetic prices, returns, volatility, regimes.

Generates a small two-group universe, computes simple and log returns,
rolls volatility over each firm, and classifies the cross-section under both
labelling rules (fixed threshold and cross-sectional median).
"""

import numpy as np

from moecast import (
    RegimePolicy,
    SyntheticSpec,
    classify_median,
    generate_synthetic,
    label_for,
    log_returns,
    rolling_volatility,
    simple_returns,
)


def main():
    spec = SyntheticSpec(n_stable=4, n_volatile=4, length=120)
    universe = generate_synthetic(spec, seed=42)
    print(f"universe: {len(universe)} firms x {spec.length} days\n")

    # returns and rolling volatility for one firm of each kind
    for ticker in ("STB01", "VOL01"):
        series = universe[ticker]
        simple = simple_returns(series)
        logr = log_returns(series)
        vol30 = rolling_volatility(simple, 30)
        print(f"{ticker}: first price {series.prices[0]:.2f}, last {series.prices[-1]:.2f}")
        print(f"  mean |simple return| {np.abs(simple.values).mean():.5f}, "
              f"mean |log return| {np.abs(logr.values).mean():.5f}")
        print(f"  30-day volatility range [{np.nanmin(vol30):.5f}, {np.nanmax(vol30):.5f}]")

    # rule 1: fixed threshold on each firm's own 30-day volatility
    threshold = RegimePolicy.threshold()
    print(f"\nthreshold rule (window {threshold.vol_window}, tau {threshold.tau}):")
    sigmas = {}
    for ticker in sorted(universe):
        vol = rolling_volatility(simple_returns(universe[ticker]), threshold.vol_window)
        sigma = float(vol[-1])
        sigmas[ticker] = sigma
        label = label_for(sigma, threshold.tau)
        print(f"  {ticker}: sigma {sigma:.5f} -> {label.value}")

    # rule 2: strictly above the cross-sectional median
    print("\ncross-sectional median rule on the same volatilities:")
    for ticker, label in sorted(classify_median(sigmas).items()):
        print(f"  {ticker}: {label.value}")


if __name__ == "__main__":
    main()
