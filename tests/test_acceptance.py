"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (written to the real stdout so the lines
survive pytest's capture).  The heavyweight synthetic backtest is shared by
the convexity and regime-ordering criteria through a module fixture.
"""

import time
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest

from conftest import record_criterion
from reference import loss_mse

from moecast.cli import main
from moecast.evaluation import (
    BacktestSettings,
    HorizonSpec,
    aggregate_stratified,
    improvement_pct,
    plan_walk_forward,
    recursive_forecast,
    run_walk_forward,
)
from moecast.linear_expert import fit_ols
from moecast.lstm_expert import (
    PARAM_FIELDS,
    TrainConfig,
    _Workspace,
    backward_bptt,
    forward_batch,
    init_params,
    train_early_stopping,
)
from moecast import lstm_expert
from moecast.market_data import (
    PriceSeries,
    SyntheticSpec,
    generate_synthetic,
)
from moecast.regime import RegimeLabel, RegimePolicy


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        line = f"[criterion {num:02d}] {title}: FAIL"
        record_criterion(line)
        print(line)
        raise
    line = f"[criterion {num:02d}] {title}: PASS"
    record_criterion(line)
    print(line)


# ---------------------------------------------------------------------------
# shared heavy fixture: the full synthetic backtest (criteria 3 and 4)


@pytest.fixture(scope="module")
def full_backtest():
    universe = generate_synthetic(SyntheticSpec(n_stable=8, n_volatile=8, length=300), seed=42)
    plan = plan_walk_forward(300, 80, 20, 20)
    settings = BacktestSettings(
        window=10,
        train=TrainConfig(),
        hidden=50,
        horizons=HorizonSpec((5, 20, 60)),
        seed=42,
    )
    started = time.monotonic()
    result = run_walk_forward(universe, plan, RegimePolicy.median(21), settings)
    elapsed = time.monotonic() - started
    return result, elapsed


def test_criterion_1_gradient_correctness():
    with criterion(1, "BPTT matches central finite differences (rel < 1e-4)"):
        started = time.monotonic()
        rng = np.random.default_rng(2024)
        params = init_params(hidden=4, seed=17)
        inputs = rng.normal(size=(3, 5))
        targets = rng.normal(size=3)
        _, tape = forward_batch(params, inputs, _Workspace())
        analytic = backward_bptt(params, targets, tape, _Workspace())

        def batch_loss():
            preds, _ = forward_batch(params, inputs, _Workspace())
            return loss_mse(preds, targets)

        step = 1e-5
        worst = 0.0
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            an = getattr(analytic, name)
            flat = arr.reshape(-1)
            an_flat = np.asarray(an).reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                up = batch_loss()
                flat[k] = keep - step
                down = batch_loss()
                flat[k] = keep
                numeric = (up - down) / (2.0 * step)
                denom = max(abs(numeric), abs(an_flat[k]), 1e-6)
                worst = max(worst, abs(numeric - an_flat[k]) / denom)
        elapsed = time.monotonic() - started
        assert worst < 1e-4, f"max relative gradient error {worst}"
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_ols_exactness():
    with criterion(2, "OLS recovers noiseless coefficients to 1e-8"):
        started = time.monotonic()
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = 40
            t = np.sort(rng.uniform(0, 200, size=n))
            sigma = rng.uniform(0.004, 0.06, size=n)
            beta_true = rng.normal(size=3) * np.array([10.0, 0.05, 20.0])
            X = np.column_stack([np.ones(n), t, sigma])
            y = X @ beta_true
            params, _ = fit_ols(t, sigma, y)
            assert np.abs(astuple(params) - beta_true).max() < 1e-8
            resid = y - X @ astuple(params)
            assert np.abs(X.T @ resid).max() < 1e-8 * np.linalg.norm(y)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"OLS check took {elapsed:.2f}s"


def test_criterion_3_convexity_bound(full_backtest):
    with criterion(3, "MoE MSE obeys the per-fold Jensen bound, zero violations"):
        result, _ = full_backtest
        h1 = [r for r in result.records if r.horizon == 1]
        by_key = {}
        for record in h1:
            by_key.setdefault((record.ticker, record.fold_id), {})[record.model] = record
        assert by_key, "no horizon-1 records"
        violations = []
        for key, group in by_key.items():
            assert set(group) == {"Linear", "LSTM", "MoE"}
            regime = group["MoE"].regime
            w_rnn = 0.7 if regime is RegimeLabel.VOLATILE else 0.3
            bound = w_rnn * group["LSTM"].mse + (1.0 - w_rnn) * group["Linear"].mse
            if group["MoE"].mse > bound + 1e-12:
                violations.append((key, group["MoE"].mse, bound))
            raw_bound = w_rnn * group["LSTM"].raw_mse + (1.0 - w_rnn) * group["Linear"].raw_mse
            if group["MoE"].raw_mse > raw_bound + 1e-9 * max(1.0, raw_bound):
                violations.append((key, group["MoE"].raw_mse, raw_bound))
        assert not violations, f"{len(violations)} convexity violations: {violations[:3]}"


def test_criterion_4_regime_ordering_and_published_improvements(full_backtest):
    with criterion(4, "regime ordering on the seeded universe + exact improvement percentages"):
        result, elapsed = full_backtest
        assert elapsed < 900.0, f"backtest took {elapsed:.0f}s, budget is 15 minutes"
        h1 = [r for r in result.records if r.horizon == 1]
        cells = aggregate_stratified(h1)

        def cell(regime, model):
            return cells[(regime, model, 1)]["mse"].mean

        stable_linear = cell(RegimeLabel.STABLE, "Linear")
        stable_lstm = cell(RegimeLabel.STABLE, "LSTM")
        assert stable_linear < stable_lstm, (
            f"stable stratum: linear {stable_linear} should beat LSTM {stable_lstm}"
        )
        moe_wins = []
        for regime in (RegimeLabel.STABLE, RegimeLabel.VOLATILE):
            moe = cell(regime, "MoE")
            best_single = min(cell(regime, "Linear"), cell(regime, "LSTM"))
            moe_wins.append(moe < best_single)
        assert any(moe_wins), "MoE must beat both single models on at least one stratum"

        assert improvement_pct(0.001105, 0.001649) == pytest.approx(32.99, abs=0.01)
        assert improvement_pct(0.026333, 0.03236) == pytest.approx(18.62, abs=0.01)


def test_reproduction_statement_moe_wins_one_cell_of_eight(full_backtest):
    # the README's "Does the headline reproduce?" table: per (regime, horizon)
    # cell, whether the MoE's mean MSE beats the better single model's
    result, _ = full_backtest
    cells = aggregate_stratified(result.records)
    wins, better = {}, {}
    for regime in RegimeLabel:
        for horizon in (1, 5, 20, 60):
            mse = {m: cells[(regime, m, horizon)]["mse"] for m in ("Linear", "LSTM", "MoE")}
            assert {stats.count for stats in mse.values()} == {88}  # 11 folds x 8 firms
            better[(regime, horizon)] = min(("Linear", "LSTM"), key=lambda m: mse[m].mean)
            wins[(regime, horizon)] = mse["MoE"].mean < mse[better[(regime, horizon)]].mean
    assert [cell for cell, won in wins.items() if won] == [(RegimeLabel.VOLATILE, 1)]
    assert [cell for cell, m in better.items() if m == "LSTM"] == [(RegimeLabel.VOLATILE, 1)]
    # a 20-observation validation window holds 20 steps of the 60-step path,
    # so the "h = 60" records are the 20-step records under another label
    by_horizon = {
        h: [(r.ticker, r.fold_id, r.model, r.mse) for r in result.records if r.horizon == h]
        for h in (20, 60)
    }
    assert by_horizon[60] == by_horizon[20]


def test_criterion_5_walk_forward_geometry():
    with criterion(5, "fold plans match brute-force enumeration for n in [100, 1000]"):
        started = time.monotonic()
        for n in range(100, 1001):
            plan = plan_walk_forward(n, 80, 20, 20)
            expected = []
            k = 0
            while 80 + k * 20 + 20 <= n:
                expected.append((80 + k * 20 - 80, 80 + k * 20, 80 + k * 20 + 20))
                k += 1
            assert len(plan) == len(expected)
            for fold, (train_start, val_start, val_stop) in zip(plan, expected):
                assert fold.train_range == range(val_start - 80, val_start)
                assert fold.val_range == range(val_start, val_stop)
        assert len(plan_walk_forward(200, 80, 20, 20)) == 6
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"geometry check took {elapsed:.2f}s"


def test_criterion_6_no_leakage_probe():
    with criterion(6, "perturbing validation observations leaves parameters bit-identical"):
        started = time.monotonic()
        universe = generate_synthetic(
            SyntheticSpec(n_stable=2, n_volatile=2, length=100), seed=5
        )
        perturbed = {}
        for ticker, series in universe.items():
            prices = series.prices.copy()
            prices[80:100] = prices[80:100] * 1.31 + 2.0
            perturbed[ticker] = PriceSeries(ticker, series.dates, prices)
        plan = plan_walk_forward(100, 80, 20, 20)
        settings = BacktestSettings(
            window=10, train=TrainConfig(), hidden=50, horizons=HorizonSpec(()), seed=42
        )
        policy = RegimePolicy.median(21)
        base = run_walk_forward(universe, plan, policy, settings)
        probe = run_walk_forward(perturbed, plan, policy, settings)
        for key in base.models:
            for name in PARAM_FIELDS:
                assert np.array_equal(
                    getattr(base.models[key].lstm, name),
                    getattr(probe.models[key].lstm, name),
                ), (key, name)
            assert base.models[key].linear == probe.models[key].linear
            assert base.models[key].sigma == probe.models[key].sigma
            assert base.models[key].regime == probe.models[key].regime
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"leakage probe took {elapsed:.0f}s"


def test_criterion_7_metric_identities():
    with criterion(7, "rmse^2 = mse and mae <= rmse on 1000 random vectors"):
        started = time.monotonic()
        from moecast.evaluation import mae, mse, rmse

        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            preds = rng.normal(0, rng.uniform(0.1, 10.0), size=n)
            targets = rng.normal(0, rng.uniform(0.1, 10.0), size=n)
            m, a, r = mse(preds, targets), mae(preds, targets), rmse(preds, targets)
            assert abs(r * r - m) <= 1e-10 * max(m, 1e-300)
            assert a <= r + 1e-15
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"metric identity check took {elapsed:.2f}s"


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "two identical backtest runs emit byte-identical report files"):
        data = tmp_path / "prices.csv"
        reports = tmp_path / "reports"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"data.path = {data}",
                    f"report.dir = {reports}",
                    "synth.stable_firms = 3",
                    "synth.volatile_firms = 3",
                    "synth.length = 140",
                    "train.max_epochs = 8",
                    "train.patience = 4",
                    "train.hidden_units = 12",
                    "horizons = 5,20",
                    "holdout.k = 1",
                    "seed = 42",
                ]
            )
            + "\n",
            encoding="utf-8",
        )

        def run_all():
            assert main(["--config", str(cfg), "synth"]) == 0
            assert main(["--config", str(cfg), "backtest"]) == 0
            assert main(["--config", str(cfg), "report"]) == 0
            return {
                path.name: path.read_bytes() for path in sorted(reports.iterdir())
            } | {"data.csv": data.read_bytes()}

        first = run_all()
        second = run_all()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        expected_kinds = {"config", "records", "predictions", "models", "tables"}
        seen_kinds = {name.split("_")[0] for name in first if name != "data.csv"}
        assert expected_kinds <= seen_kinds


def test_criterion_9_recursive_forecast_contract():
    with criterion(9, "naive stub is constant over h in {5, 20, 60} and windows replay"):
        observed = np.array([2.0, 4.0, 8.0, 16.0])
        for h in (5, 20, 60):
            naive = lambda window, t, sigma: float(window[-1])
            out = recursive_forecast(naive, observed, t_start=0.0, sigma=0.0, h=h)
            assert out.shape == (h,)
            assert np.all(out == observed[-1])

        seen = []

        def spy(window, t, sigma):
            seen.append(window.copy())
            return float(window[-1]) * 0.9 + 0.05

        preds = recursive_forecast(spy, observed, t_start=0.0, sigma=0.0, h=60)
        stream = list(observed)
        for j in range(60):
            np.testing.assert_array_equal(seen[j], np.asarray(stream[-len(observed):]))
            stream.append(preds[j])


def test_criterion_10_early_stopping_trace(monkeypatch):
    with criterion(10, "worsening validation MAE stops after epoch 6 and restores epoch 1"):
        scripted = iter([float(k) for k in range(1, 40)])
        snapshots = []

        def fake_val_mae(params, val_inputs, val_targets):
            snapshots.append(params.with_theta(params.theta.copy()))
            return np.array([next(scripted)])

        monkeypatch.setattr(lstm_expert, "_validation_mae", fake_val_mae)
        rng = np.random.default_rng(123)
        inputs = rng.normal(size=(1, 24, 6))
        targets = rng.normal(size=(1, 24))
        cfg = TrainConfig(max_epochs=50, patience=5, batch_size=8)
        best, (history,) = train_early_stopping(
            inputs[:, :20], targets[:, :20], inputs[:, 20:], targets[:, 20:], cfg, (11,), hidden=5
        )
        assert len(history) == 6, f"expected 6 epochs, ran {len(history)}"
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(best, name), getattr(snapshots[0], name))
        assert history[0, 2] == 1.0
        assert (history[:, 2] == 1.0).all()
