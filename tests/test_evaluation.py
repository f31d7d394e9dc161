"""Metrics, fold geometry, recursion, the walk-forward engine, and holdouts."""

import itertools
import multiprocessing
import os
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moecast import evaluation, lstm_expert
from moecast.errors import DataError, EvaluationError, FitError
from moecast.evaluation import (
    BacktestSettings,
    HorizonSpec,
    MetricRecord,
    TrainMode,
    aggregate_stratified,
    fit_pooled_experts,
    forecast_paths,
    holdout_models,
    improvement_pct,
    linear_one_step,
    lstm_one_step,
    mae,
    moe_one_step,
    mse,
    plan_walk_forward,
    recursive_forecast,
    rmse,
    run_holdout,
    run_walk_forward,
    task_seed,
)
from moecast.linear_expert import LinearParams, predict_linear
from moecast.lstm_expert import PARAM_FIELDS, TrainConfig, init_params, predict_lstm
from moecast.moe import GateWeights, blend, gate_for_regime
from moecast.market_data import (
    PriceSeries,
    SyntheticSpec,
    WindowMode,
    generate_synthetic,
)
from moecast.regime import PolicyKind, RegimeLabel, RegimePolicy

import reference

FAST_TRAIN = TrainConfig(batch_size=8, max_epochs=3, patience=3)


def fast_settings(**overrides):
    defaults = dict(
        window=5,
        train=FAST_TRAIN,
        hidden=4,
        horizons=HorizonSpec(()),
        seed=7,
    )
    defaults.update(overrides)
    return BacktestSettings(**defaults)


def small_policy():
    return RegimePolicy.threshold(vol_window=10, tau=0.025)


@pytest.fixture(scope="module")
def tiny_universe():
    return generate_synthetic(SyntheticSpec(n_stable=2, n_volatile=2, length=60), seed=3)


class TestMetrics:
    def test_perfect_predictions(self):
        assert mse([1, 2], [1, 2]) == 0.0
        assert mae([1, 2], [1, 2]) == 0.0
        assert rmse([1, 2], [1, 2]) == 0.0

    def test_frozen_arithmetic(self):
        # errors 3 and 4: mse (9+16)/2, rmse sqrt(12.5), mae 3.5
        preds, targets = [3.0, 4.0], [0.0, 0.0]
        assert mse(preds, targets) == 12.5
        assert rmse(preds, targets) == pytest.approx(3.5355339059327378, rel=1e-15)
        assert mae(preds, targets) == 3.5

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
    )
    def test_identities_on_random_vectors(self, a, b):
        n = min(len(a), len(b))
        p, t = a[:n], b[:n]
        assert mae(p, t) <= rmse(p, t) + 1e-12
        assert rmse(p, t) ** 2 == pytest.approx(mse(p, t), rel=1e-10, abs=1e-30)

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            mse([1.0], [1.0, 2.0])


class TestImprovementPct:
    def test_published_volatile_gains(self):
        assert improvement_pct(0.001105, 0.001649) == pytest.approx(32.99, abs=0.01)
        assert improvement_pct(0.026333, 0.03236) == pytest.approx(18.62, abs=0.01)

    def test_equal_is_zero(self):
        assert improvement_pct(0.5, 0.5) == 0.0

    def test_nonpositive_baseline(self):
        with pytest.raises(EvaluationError):
            improvement_pct(1.0, 0.0)


class TestHorizonSpec:
    @pytest.mark.parametrize("horizons", [(1,), (1, 5), (5, 0), (-3,)])
    def test_horizons_below_two_rejected_naming_them(self, horizons):
        # horizon 1 is always scored on every validation window; a recursive
        # horizon 1 would be a second, different record of the same cell
        with pytest.raises(EvaluationError, match=re.escape(f">= 2, got {horizons}")):
            HorizonSpec(horizons)

    def test_empty_is_valid_and_horizons_are_sorted_and_distinct(self):
        assert HorizonSpec(()).horizons == ()
        assert HorizonSpec((20, 2, 5, 20)).horizons == (2, 5, 20)


class TestPlanWalkForward:
    def test_single_fold_geometry(self):
        plan = plan_walk_forward(100, 80, 20, 20)
        assert type(plan) is tuple and len(plan) == 1
        fold = plan[0]
        assert fold.train_range == range(0, 80)
        assert fold.val_range == range(80, 100)

    def test_six_folds_at_n_200(self):
        plan = plan_walk_forward(200, 80, 20, 20)
        assert [f.val_range.start for f in plan] == [80, 100, 120, 140, 160, 180]

    def test_too_short(self):
        with pytest.raises(EvaluationError):
            plan_walk_forward(99, 80, 20, 20)

    def test_geometry_has_no_default(self):
        # the published 80/20/20 lives in the configuration's wf.* keys alone
        with pytest.raises(TypeError):
            plan_walk_forward(200)

    def test_sliding_vs_expanding_train_ranges(self):
        sliding = plan_walk_forward(140, 80, 20, 20, TrainMode.SLIDING)
        expanding = plan_walk_forward(140, 80, 20, 20, TrainMode.EXPANDING)
        assert sliding[2].train_range == range(40, 120)
        assert expanding[2].train_range == range(0, 120)

    @given(
        st.integers(min_value=30, max_value=400),
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=30),
    )
    def test_fold_count_matches_enumeration_oracle(self, n, init_train, val_len, step):
        # oracle: directly enumerate every k whose validation window fits
        expected = [
            k for k in range(n)
            if init_train + k * step + val_len <= n
        ]
        if not expected:
            with pytest.raises(EvaluationError):
                plan_walk_forward(n, init_train, val_len, step)
            return
        plan = plan_walk_forward(n, init_train, val_len, step)
        assert len(plan) == len(expected)
        for fold, k in zip(plan, expected):
            assert fold.val_range.start == init_train + k * step
            assert len(fold.val_range) == val_len
            assert fold.train_range.stop == fold.val_range.start


class TestRecursiveForecast:
    def test_h1_equals_single_step(self):
        fn = linear_one_step_stub(slope=2.0)
        window = np.array([1.0, 2.0, 3.0])
        out = recursive_forecast(fn, window, t_start=10.0, sigma=0.0, h=1)
        assert out.shape == (1,)
        assert out[0] == fn(window, 10.0, 0.0)

    @pytest.mark.parametrize("h", [5, 20, 60])
    def test_naive_stub_constant_forecasts(self, h):
        naive = lambda window, t, sigma: float(window[-1])
        out = recursive_forecast(naive, np.array([1.0, 4.0, 9.0]), 0.0, 0.0, h)
        assert np.all(out == 9.0)

    def test_window_replay_oracle(self):
        observed = np.array([0.5, 1.0, 1.5, 2.0])
        seen = []

        def spy(window, t, sigma):
            seen.append(window.copy())
            return float(window.mean()) + 0.1

        preds = recursive_forecast(spy, observed, 0.0, 0.0, h=6)
        stream = list(observed)
        for j in range(6):
            expected_window = np.asarray(stream[-4:])
            np.testing.assert_array_equal(seen[j], expected_window)
            stream.append(preds[j])

    def test_time_index_advances_and_sigma_frozen(self):
        calls = []

        def spy(window, t, sigma):
            calls.append((t, sigma))
            return 0.0

        recursive_forecast(spy, np.zeros(3), t_start=100.0, sigma=0.033, h=4)
        assert [c[0] for c in calls] == [100.0, 101.0, 102.0, 103.0]
        assert all(c[1] == 0.033 for c in calls)

    def test_h_below_one_rejected(self):
        with pytest.raises(EvaluationError):
            recursive_forecast(lambda w, t, s: 0.0, np.zeros(3), 0.0, 0.0, 0)


def linear_one_step_stub(slope):
    return linear_one_step(LinearParams(0.0, slope, 0.0))


class TestForecastPaths:
    @pytest.mark.parametrize("weights", [GateWeights(0.7, 0.3), GateWeights(0.3, 0.7)])
    def test_every_prefix_equals_the_one_step_recursion(self, weights):
        lstm = init_params(hidden=6, seed=3)
        linear = LinearParams(0.25, -0.0125, 3.5)
        window = np.random.default_rng(8).normal(size=5)
        t0, sigma, longest = 41.0, 0.031, 12
        paths = forecast_paths(lstm, [linear], [weights], window[None], t0, [sigma], longest)
        fns = {
            "Linear": linear_one_step(linear),
            "LSTM": lstm_one_step(lstm),
            "MoE": moe_one_step(lstm, linear, weights),
        }
        for h in range(1, longest + 1):
            for model, fn in fns.items():
                expected = recursive_forecast(fn, window, t0, sigma, h)
                assert np.array_equal(paths[model][0, :h], expected), (model, h)

    @pytest.mark.parametrize(
        "horizons", [(3, 25), (3, 5, 10)], ids=["val_len<max_h", "val_len>=max_h"]
    )
    def test_walk_forward_records_replay_one_step_recursions(self, tiny_universe, horizons):
        val_len = 10
        plan = plan_walk_forward(60, 40, val_len, 10)
        settings = fast_settings(horizons=HorizonSpec(horizons))
        result = run_walk_forward(tiny_universe, plan, small_policy(), settings)
        checked = 0
        for record in result.records:
            if record.horizon == 1:
                continue
            fm = result.models[(record.ticker, record.fold_id)]
            standardized = fm.scaler.apply(tiny_universe[record.ticker].prices)
            window = standardized[fm.launch_t - fm.window:fm.launch_t]
            fn = {
                "Linear": linear_one_step(fm.linear),
                "LSTM": lstm_one_step(fm.lstm),
                "MoE": moe_one_step(
                    fm.lstm, fm.linear, gate_for_regime(fm.regime, settings.gate_table)
                ),
            }[record.model]
            avail = min(record.horizon, val_len)
            preds = recursive_forecast(fn, window, float(fm.launch_t), fm.sigma, avail)
            actual = standardized[fm.launch_t:fm.launch_t + avail]
            assert record.mse == mse(preds, actual)
            assert record.mae == mae(preds, actual)
            checked += 1
        assert checked == 4 * 2 * 3 * len(horizons)

    @pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
    def test_firms_paths_equal_each_firms_one_step_recursion(self, shared):
        # three firms with their own LSTM (or the one they share, as holdout
        # firms do), linear expert, gate weights, volatility and window
        lstm = init_params(hidden=6, seed=(3, 4, 5))
        linears = [LinearParams(0.25, -0.0125, 3.5), LinearParams(-0.1, 0.002, 1.0),
                   LinearParams(0.0, 0.01, -2.0)]
        gates = [GateWeights(0.7, 0.3), GateWeights(0.3, 0.7), GateWeights(0.7, 0.3)]
        sigmas = [0.031, 0.012, 0.05]
        windows = np.random.default_rng(8).normal(size=(3, 5))
        t0, longest = 41.0, 12
        paths = forecast_paths(
            lstm.firm(1) if shared else lstm, linears, gates, windows, t0, sigmas, longest
        )
        for k in range(3):
            firm_lstm = lstm.firm(1) if shared else lstm.firm(k)
            fns = {
                "Linear": linear_one_step(linears[k]),
                "LSTM": lstm_one_step(firm_lstm),
                "MoE": moe_one_step(firm_lstm, linears[k], gates[k]),
            }
            for model, fn in fns.items():
                expected = recursive_forecast(fn, windows[k], t0, sigmas[k], longest)
                assert np.array_equal(paths[model][k], expected), (k, model)

    @pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
    @pytest.mark.parametrize("hidden", [1, 3, 16])
    @pytest.mark.parametrize("case", range(4))
    def test_random_paths_equal_the_one_step_recursions(self, case, hidden, shared):
        # 1-4 firms, windows of 1-12 values, horizons of 1-70 steps, and in
        # odd cases a horizon no longer than the window
        rng = np.random.default_rng([case, hidden, shared])
        n_firms, width = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        h = int(rng.integers(1, max(width, 2))) if case % 2 else int(rng.integers(1, 71))
        stack = init_params(hidden, tuple(int(s) for s in rng.integers(0, 2**31, n_firms)))
        stack.theta[...] += rng.normal(scale=0.5, size=stack.theta.shape)
        linears = [LinearParams(*rng.normal(size=3) * [1.0, 0.01, 5.0]) for _ in range(n_firms)]
        gates = [(GateWeights(0.7, 0.3), GateWeights(0.3, 0.7))[g]
                 for g in rng.integers(0, 2, n_firms)]
        sigmas = rng.uniform(0.001, 0.1, n_firms).tolist()
        windows = rng.normal(scale=2.0, size=(n_firms, width))
        t0 = float(rng.integers(0, 500))
        lstm = stack.firm(0) if shared else stack
        paths = forecast_paths(lstm, linears, gates, windows, t0, sigmas, h)
        for k in range(n_firms):
            firm_lstm = lstm if shared else lstm.firm(k)
            fns = {
                "Linear": linear_one_step(linears[k]),
                "LSTM": lstm_one_step(firm_lstm),
                "MoE": moe_one_step(firm_lstm, linears[k], gates[k]),
            }
            for model, fn in fns.items():
                expected = recursive_forecast(fn, windows[k], t0, sigmas[k], h)
                assert np.array_equal(paths[model][k], expected), (k, model)

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("field", ["linear", "weights", "sigma"])
    def test_one_linear_fit_gate_and_sigma_per_window(self, field, count):
        per_firm = {
            "linear": [LinearParams(0.25, -0.0125, 3.5)] * 2,
            "weights": [GateWeights(0.7, 0.3)] * 2,
            "sigma": [0.031] * 2,
        }
        per_firm[field] = per_firm[field][:1] * count
        with pytest.raises(EvaluationError, match="2 windows"):
            forecast_paths(
                init_params(hidden=3, seed=(3, 4)), per_firm["linear"], per_firm["weights"],
                np.zeros((2, 5)), 41.0, per_firm["sigma"], 6,
            )

    @pytest.mark.parametrize(
        "horizons", [(3, 25), (3, 5, 10)], ids=["val_len<max_h", "val_len>=max_h"]
    )
    def test_walk_forward_horizon_one_equals_single_window_calls(self, tiny_universe, horizons):
        plan = plan_walk_forward(60, 40, 10, 10)
        settings = fast_settings(horizons=HorizonSpec(horizons))
        result = run_walk_forward(tiny_universe, plan, small_policy(), settings)
        h1 = {(p.ticker, p.fold_id, p.t_index, p.model): p.predicted for p in result.predictions}
        for (ticker, fold_id), fm in result.models.items():
            standardized = fm.scaler.apply(tiny_universe[ticker].prices)
            weights = gate_for_regime(fm.regime, settings.gate_table)
            for t in range(fm.launch_t, fm.launch_t + 10):
                lstm = predict_lstm(fm.lstm, standardized[t - fm.window:t])
                lin = predict_linear(fm.linear, float(t), fm.sigma)
                assert h1[(ticker, fold_id, t, "LSTM")] == lstm
                assert h1[(ticker, fold_id, t, "Linear")] == lin
                assert h1[(ticker, fold_id, t, "MoE")] == blend(weights, lstm, lin)
        # the stacked firms differ in regime, hence in gate weights
        for fold in plan:
            regimes = {fm.regime for (_, k), fm in result.models.items() if k == fold.fold_id}
            assert regimes == set(RegimeLabel)

    def test_empty_horizons_score_horizon_one_only(self, tiny_universe):
        plan = plan_walk_forward(60, 40, 10, 10)
        result = run_walk_forward(tiny_universe, plan, small_policy(), fast_settings())
        assert {r.horizon for r in result.records} == {1}
        assert len(result.records) == 4 * 2 * 3


class TestRunWalkForward:
    def test_one_firm_one_fold_three_records(self, tiny_universe):
        ticker = sorted(tiny_universe)[0]
        universe = {ticker: tiny_universe[ticker]}
        plan = plan_walk_forward(50, 40, 10, 10)
        result = run_walk_forward(universe, plan, small_policy(), fast_settings())
        assert len(result.records) == 3
        assert {r.model for r in result.records} == {"Linear", "LSTM", "MoE"}
        assert all(r.horizon == 1 for r in result.records)
        assert len(result.predictions) == 3 * 10

    def test_a_plan_with_no_folds_is_rejected_first(self, tiny_universe):
        holdout = (sorted(tiny_universe)[-1],)
        for universe, spec in itertools.product((tiny_universe, {}), ((), holdout)):
            with pytest.raises(EvaluationError, match="^the plan has no folds$"):
                run_walk_forward(universe, (), small_policy(), fast_settings(), spec)

    def test_a_diverged_fit_names_its_ticker_and_fold(self, tiny_universe):
        plan = plan_walk_forward(50, 40, 10, 10)
        train = TrainConfig(batch_size=8, max_epochs=2, patience=2, learning_rate=1e300)
        first = sorted(tiny_universe)[0]
        with np.errstate(all="ignore"), pytest.raises(FitError, match=f"^{first} fold 0: firm 0:"):
            run_walk_forward(tiny_universe, plan, small_policy(), fast_settings(train=train))

    def test_rerun_is_bit_identical(self, tiny_universe):
        plan = plan_walk_forward(60, 40, 10, 10)
        a = run_walk_forward(tiny_universe, plan, small_policy(), fast_settings())
        b = run_walk_forward(tiny_universe, plan, small_policy(), fast_settings())
        assert a.records == b.records
        assert a.predictions == b.predictions
        for key in a.models:
            for name in PARAM_FIELDS:
                assert np.array_equal(
                    getattr(a.models[key].lstm, name), getattr(b.models[key].lstm, name)
                )
            assert a.models[key].linear == b.models[key].linear

    def test_perturbing_validation_leaves_parameters_identical(self, tiny_universe):
        plan = plan_walk_forward(50, 40, 10, 10)
        perturbed = {}
        for ticker, series in tiny_universe.items():
            prices = series.prices[:50].copy()
            prices[40:50] = prices[40:50] * 1.25 + 1.0
            perturbed[ticker] = PriceSeries(ticker, series.dates[:50], prices)
        baseline = {
            t: PriceSeries(t, s.dates[:50], s.prices[:50]) for t, s in tiny_universe.items()
        }
        a = run_walk_forward(baseline, plan, small_policy(), fast_settings())
        b = run_walk_forward(perturbed, plan, small_policy(), fast_settings())
        for key in a.models:
            for name in PARAM_FIELDS:
                assert np.array_equal(
                    getattr(a.models[key].lstm, name), getattr(b.models[key].lstm, name)
                ), (key, name)
            assert a.models[key].linear == b.models[key].linear
            assert a.models[key].sigma == b.models[key].sigma
            assert a.models[key].regime == b.models[key].regime

    def test_horizon_records_and_truncation(self, tiny_universe):
        plan = plan_walk_forward(50, 40, 10, 10)
        settings = fast_settings(horizons=HorizonSpec((3, 25)))
        result = run_walk_forward(tiny_universe, plan, small_policy(), settings)
        # 4 firms x 1 fold x 3 models x (h1 + h3 + h25-truncated)
        assert len(result.records) == 4 * 3 * 3
        h25 = [r for r in result.records if r.horizon == 25]
        h3 = [r for r in result.records if r.horizon == 3]
        assert len(h25) == 12 and len(h3) == 12

    def test_moe_convexity_bound_per_fold(self, tiny_universe):
        plan = plan_walk_forward(60, 40, 10, 10)
        result = run_walk_forward(tiny_universe, plan, small_policy(), fast_settings())
        by_key = {}
        for r in result.records:
            by_key.setdefault((r.ticker, r.fold_id), {})[r.model] = r
        for (ticker, fold), group in by_key.items():
            w_rnn = 0.7 if group["MoE"].regime is RegimeLabel.VOLATILE else 0.3
            bound = w_rnn * group["LSTM"].mse + (1 - w_rnn) * group["Linear"].mse
            assert group["MoE"].mse <= bound + 1e-12

    def test_median_policy_splits_cross_section(self, tiny_universe):
        plan = plan_walk_forward(60, 40, 10, 10)
        policy = RegimePolicy.median(vol_window=10)
        result = run_walk_forward(tiny_universe, plan, policy, fast_settings())
        for fold in plan:
            labels = {t: result.models[(t, fold.fold_id)].regime for t in tiny_universe}
            assert list(labels.values()).count(RegimeLabel.VOLATILE) == 2
            volatile = {t for t, l in labels.items() if l is RegimeLabel.VOLATILE}
            assert volatile == {t for t in labels if t.startswith("VOL")}

    def test_plan_exceeding_series_rejected(self, tiny_universe):
        plan = plan_walk_forward(100, 80, 20, 20)
        with pytest.raises(EvaluationError):
            run_walk_forward(tiny_universe, plan, small_policy(), fast_settings())

    def test_log_return_mode_pipeline(self, tiny_universe):
        # 60 prices give 59 log-return observations
        plan = plan_walk_forward(59, 40, 10, 10)
        settings = fast_settings(
            mode=WindowMode.LOG_RETURNS, horizons=HorizonSpec((4,))
        )
        policy = RegimePolicy.median(vol_window=10)
        result = run_walk_forward(tiny_universe, plan, policy, settings)
        assert len(result.records) == 4 * 1 * 3 * 2  # firms x folds x models x horizons
        again = run_walk_forward(tiny_universe, plan, policy, settings)
        assert result.records == again.records
        # the convexity bound holds in this mode too
        by_key = {}
        for r in result.records:
            if r.horizon == 1:
                by_key.setdefault((r.ticker, r.fold_id), {})[r.model] = r
        for group in by_key.values():
            w_rnn = 0.7 if group["MoE"].regime is RegimeLabel.VOLATILE else 0.3
            bound = w_rnn * group["LSTM"].mse + (1 - w_rnn) * group["Linear"].mse
            assert group["MoE"].mse <= bound + 1e-12


class TestCalendarAlignment:
    """A fold compares its firms on one day, so a universe must share one calendar."""

    def test_a_firm_shifted_by_one_day_is_rejected(self, tiny_universe):
        plan = plan_walk_forward(50, 40, 10, 10)
        first, shifted = sorted(tiny_universe)[:2]
        series = tiny_universe[shifted]
        universe = dict(tiny_universe)
        universe[shifted] = PriceSeries(shifted, series.dates + 1, series.prices)
        want = f"{shifted}: date 2015-01-03 at index 0 differs from {first}'s 2015-01-02"
        with pytest.raises(DataError, match=want):
            run_walk_forward(universe, plan, small_policy(), fast_settings())

    def test_a_misaligned_holdout_firm_is_rejected(self, pooled_setup):
        universe, holdout, _, policy, settings = pooled_setup
        plan = plan_walk_forward(60, 40, 10, 10)
        ticker = holdout[0]
        series = universe[ticker]
        dates = series.dates.copy()
        dates[30:] += 1
        universe = {**universe, ticker: PriceSeries(ticker, dates, series.prices)}
        with pytest.raises(DataError, match=f"{ticker}: date .* at index 30 differs"):
            run_walk_forward(universe, plan, policy, settings, holdout)

    def test_a_longer_firm_sharing_the_prefix_passes(self, tiny_universe):
        plan = plan_walk_forward(50, 40, 10, 10)
        longer = sorted(tiny_universe)[-1]
        universe = {
            t: PriceSeries(t, s.dates[:50], s.prices[:50]) for t, s in tiny_universe.items()
        }
        universe[longer] = tiny_universe[longer]
        result = run_walk_forward(universe, plan, small_policy(), fast_settings())
        assert {t for t, _ in result.models} == set(tiny_universe)


@pytest.fixture(scope="module")
def pooled_setup():
    universe = generate_synthetic(
        SyntheticSpec(n_stable=3, n_volatile=3, length=60), seed=11
    )
    holdout = ("VOL03", "STB03")
    train = {t: s for t, s in universe.items() if t not in holdout}
    settings = fast_settings(horizons=HorizonSpec((2, 3)))
    policy = small_policy()
    experts = fit_pooled_experts(train, policy, settings, launch_t=50)
    return universe, holdout, experts, policy, settings


class TestHoldout:
    def test_record_counting(self, pooled_setup):
        universe, holdout, experts, policy, settings = pooled_setup
        records = run_holdout(universe, holdout, experts, policy, settings)
        # 2 firms x 3 models x 2 horizons
        assert len(records) == 12
        assert all(r.split == "holdout" for r in records)

    def test_records_replay_each_firms_one_step_recursion(self, pooled_setup):
        universe, holdout, experts, policy, settings = pooled_setup
        records = run_holdout(universe, holdout, experts, policy, settings)
        for record in records:
            fm = holdout_models(universe[record.ticker], experts, policy, settings)
            standardized = fm.scaler.apply(universe[record.ticker].prices)
            window = standardized[fm.launch_t - fm.window:fm.launch_t]
            fn = {
                "Linear": linear_one_step(fm.linear),
                "LSTM": lstm_one_step(fm.lstm),
                "MoE": moe_one_step(
                    fm.lstm, fm.linear, gate_for_regime(fm.regime, settings.gate_table)
                ),
            }[record.model]
            preds = recursive_forecast(fn, window, float(fm.launch_t), fm.sigma, record.horizon)
            assert record.mse == mse(preds, standardized[fm.launch_t:][:record.horizon])

    def test_empty_holdout_empty_records(self, pooled_setup):
        universe, _, experts, policy, settings = pooled_setup
        records = run_holdout(universe, (), experts, policy, settings)
        assert records == ()

    def test_holdout_never_mutates_parameters(self, pooled_setup):
        universe, holdout, experts, policy, settings = pooled_setup
        before = {name: getattr(experts.lstm, name).copy() for name in PARAM_FIELDS}
        run_holdout(universe, holdout, experts, policy, settings)
        for name in PARAM_FIELDS:
            assert np.array_equal(before[name], getattr(experts.lstm, name))

    def test_overlap_rejected(self, pooled_setup):
        universe, _, experts, policy, settings = pooled_setup
        with pytest.raises(EvaluationError):
            run_holdout(universe, ("VOL01",), experts, policy, settings)

    def test_a_repeated_ticker_is_rejected(self, pooled_setup):
        universe, holdout, experts, policy, settings = pooled_setup
        with pytest.raises(EvaluationError, match=r"^holdout tickers repeat: \['VOL03'\]$"):
            run_holdout(universe, (*holdout, "VOL03"), experts, policy, settings)

    def test_a_string_holdout_is_rejected_before_any_task_runs(self, pooled_setup, monkeypatch):
        universe, _, experts, policy, settings = pooled_setup
        message = r"^holdout must be a sequence of tickers, got the string 'VOL03'$"
        with pytest.raises(EvaluationError, match=message):
            run_holdout(universe, "VOL03", experts, policy, settings)
        # in-process, so that a fold or pooled fit that ran would be counted here
        one_core(monkeypatch)
        calls = []
        for name in ("_run_fold", "fit_pooled_experts"):
            original = getattr(evaluation, name)
            monkeypatch.setattr(evaluation, name,
                                lambda *args, _f=original: calls.append(args) or _f(*args))
        with pytest.raises(EvaluationError, match=message):
            run_walk_forward(universe, plan_walk_forward(60, 40, 10, 10), policy, settings,
                             "VOL03")
        assert calls == []

    def test_empty_horizons_give_no_records(self, pooled_setup):
        universe, holdout, experts, policy, settings = pooled_setup
        settings = fast_settings(horizons=HorizonSpec(()))
        assert run_holdout(universe, holdout, experts, policy, settings) == ()

    def test_a_constant_pre_launch_series_stores_no_mase(self, pooled_setup):
        universe, holdout, experts, policy, settings = pooled_setup
        ticker = "STB03"
        series = universe[ticker]
        prices = series.prices.copy()
        prices[:experts.launch_t] = 100.0  # every training target is the same value
        flat = {**universe, ticker: PriceSeries(ticker, series.dates, prices)}
        records = run_holdout(flat, holdout, experts, policy, settings)
        assert [r.mase for r in records if r.ticker == ticker] == [None] * 6
        assert all(r.mase is not None for r in records if r.ticker != ticker)

    def test_every_record_scales_its_mae_by_the_naive_mae(self, pooled_setup):
        # a record's mase is its mae over mean(|diff|) of the firm's
        # standardized training targets, and None where that mean is 0
        universe, holdout, _, policy, settings = pooled_setup
        plan = plan_walk_forward(60, 40, 10, 10)
        launch_t = plan[-1].val_range.start
        series = universe["STB03"]
        prices = series.prices.copy()
        prices[:launch_t] = 100.0
        universe = {**universe, "STB03": PriceSeries("STB03", series.dates, prices)}
        result = run_walk_forward(universe, plan, policy, settings, holdout)
        blank = []
        for r in result.records:
            if r.split == "holdout":
                fm = holdout_models(universe[r.ticker], result.pooled, policy, settings)
                start = 0
            else:
                fm = result.models[(r.ticker, r.fold_id)]
                start = plan[r.fold_id].train_range.start
            standardized = fm.scaler.apply(fm.mode.values(universe[r.ticker]))
            naive_mae = np.abs(np.diff(standardized[start + fm.window:fm.launch_t])).mean()
            if naive_mae == 0:
                assert r.mase is None
                blank.append(r.ticker)
            else:
                assert r.mase == r.mae / naive_mae
        assert len(result.records) == 4 * 2 * 3 * 3 + 2 * 3 * 2
        assert blank == ["STB03"] * 6

    def test_a_diverged_pooled_fit_names_itself(self, pooled_setup):
        universe, holdout, _, policy, settings = pooled_setup
        plan = plan_walk_forward(60, 40, 10, 10)
        train = TrainConfig(batch_size=8, max_epochs=2, patience=2, learning_rate=1e300)
        settings = replace(settings, train=train)
        with np.errstate(all="ignore"), pytest.raises(
            FitError, match="^pooled fit: firm 0: the fit diverged"
        ):
            run_walk_forward(universe, plan, policy, settings, holdout)
        assert multiprocessing.active_children() == []

    def test_ten_plus_ten_firms_three_horizons_yield_180_records(self):
        universe = generate_synthetic(
            SyntheticSpec(n_stable=12, n_volatile=12, length=60), seed=2
        )
        volatile = tuple(f"VOL{k:02d}" for k in range(3, 13))
        stable = tuple(f"STB{k:02d}" for k in range(3, 13))
        holdout = volatile + stable
        train = {t: s for t, s in universe.items() if t not in holdout}
        settings = fast_settings(horizons=HorizonSpec((2, 3, 5)))
        experts = fit_pooled_experts(train, small_policy(), settings, launch_t=50)
        records = run_holdout(universe, holdout, experts, small_policy(), settings)
        assert len(records) == 20 * 3 * 3


class TestMetricRecord:
    @staticmethod
    def record(**overrides):
        values = dict(
            ticker="STB01", fold_id=0, split="walk_forward", regime=RegimeLabel.STABLE,
            horizon=1, model="LSTM", mse=1.0, mae=0.5, rmse=1.0,
            raw_mse=4.0, raw_mae=1.0, raw_rmse=2.0, mase=0.9,
        )
        values.update(overrides)
        return MetricRecord(**values)

    def test_finite_record_and_missing_mase_accepted(self):
        assert self.record().mase == 0.9
        assert self.record(mase=None).mase is None

    @pytest.mark.parametrize(
        "name", ["mse", "mae", "rmse", "raw_mse", "raw_mae", "raw_rmse", "mase"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_metric_rejected(self, name, value):
        with pytest.raises(EvaluationError, match=name):
            self.record(**{name: value})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(split="walkforward"), "unknown split 'walkforward'"),
            (dict(horizon=0), "horizon must be >= 1, got 0"),
        ],
        ids=["unknown_split", "horizon_zero"],
    )
    def test_a_record_the_tables_would_drop_is_rejected(self, overrides, message):
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            self.record(**overrides)


class TestAggregateStratified:
    def record(self, value, regime=RegimeLabel.STABLE, model="Linear", horizon=1, ticker="A"):
        return MetricRecord(
            ticker=ticker, fold_id=0, split="walk_forward", regime=regime,
            horizon=horizon, model=model, mse=value, mae=value / 2, rmse=value**0.5,
            raw_mse=value * 4, raw_mae=value, raw_rmse=2 * value**0.5, mase=None,
        )

    def test_single_record_cell(self):
        cells = aggregate_stratified([self.record(0.002)])
        stats = cells[(RegimeLabel.STABLE, "Linear", 1)]["mse"]
        assert stats.mean == 0.002 and stats.std == 0.0 and stats.count == 1

    def test_two_record_sample_stats(self):
        cells = aggregate_stratified([self.record(0.001), self.record(0.003, ticker="B")])
        stats = cells[(RegimeLabel.STABLE, "Linear", 1)]["mse"]
        assert stats.mean == pytest.approx(0.002, rel=1e-12)
        assert stats.std == pytest.approx(0.0014142135623730952, rel=1e-12)

    def test_pooled_mean_identity(self):
        rng = np.random.default_rng(1)
        records = []
        for k in range(30):
            records.append(
                self.record(
                    float(rng.uniform(0.001, 0.01)),
                    regime=RegimeLabel.VOLATILE if k % 2 else RegimeLabel.STABLE,
                    model=["Linear", "LSTM", "MoE"][k % 3],
                    ticker=f"T{k}",
                )
            )
        cells = aggregate_stratified(records)
        weighted = 0.0
        total = 0
        for cell in cells.values():
            weighted += cell["mse"].mean * cell["mse"].count
            total += cell["mse"].count
        global_mean = float(np.mean([r.mse for r in records]))
        assert weighted / total == pytest.approx(global_mean, rel=1e-12)

    def test_cells_never_mix_regimes_or_models(self):
        records = [
            self.record(0.001, regime=RegimeLabel.STABLE, model="Linear"),
            self.record(0.009, regime=RegimeLabel.VOLATILE, model="LSTM", ticker="B"),
        ]
        assert set(aggregate_stratified(records)) == {
            (RegimeLabel.STABLE, "Linear", 1),
            (RegimeLabel.VOLATILE, "LSTM", 1),
        }

    def test_empty_input_empty_report(self):
        assert aggregate_stratified([]) == {}


CELL_KEYS = list(itertools.product(RegimeLabel, evaluation.MODELS, (1, 5, 20)))
METRIC_VALUES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


def scored_record(key, index, values, mase):
    regime, model, horizon = key
    return MetricRecord(
        ticker=f"T{index}", fold_id=0, split="walk_forward", regime=regime,
        horizon=horizon, model=model, mse=values[0], mae=values[1], rmse=values[2],
        raw_mse=values[3], raw_mae=values[4], raw_rmse=values[5], mase=mase,
    )


@st.composite
def interleaved_cells(draw):
    """Records of up to six cells, 1 to 20 members each, in a shuffled order.

    Each cell's ``mase`` is never, sometimes or always ``None``.
    """
    sizes = draw(st.lists(st.integers(1, 20), max_size=6))
    keys = draw(st.permutations(CELL_KEYS))[: len(sizes)]
    slots = []
    for key, size in zip(keys, sizes):
        missing = draw(st.sampled_from(["never", "sometimes", "always"]))
        for _ in range(size):
            none = missing == "always" or (missing == "sometimes" and draw(st.booleans()))
            slots.append((key, None if none else draw(METRIC_VALUES)))
    order = draw(st.permutations(range(len(slots))))
    return [
        scored_record(slots[i][0], i, draw(st.lists(METRIC_VALUES, min_size=6, max_size=6)),
                      slots[i][1])
        for i in order
    ]


def assert_same_cells(cells, expected):
    assert list(cells) == list(expected)
    for key, stats in cells.items():
        assert list(stats.items()) == list(expected[key].items()), key
        for cell in stats.values():
            assert type(cell.mean) is float and type(cell.std) is float
            assert type(cell.count) is int


class TestAggregateStratifiedMatchesReference:
    """Row-wise reductions give each cell the bits of its own per-cell reduction."""

    @settings(max_examples=150, deadline=None)
    @given(interleaved_cells())
    @example([])
    def test_equals_per_cell_reference(self, records):
        assert_same_cells(aggregate_stratified(records), reference.aggregate_stratified(records))

    @pytest.mark.parametrize("sizes", [(1,), (2, 7), (8, 9, 16), (1, 129, 300, 129)])
    def test_cell_sizes_across_the_pairwise_branches(self, sizes):
        # below 8 numpy sums a row in one loop, from 8 with eight accumulators,
        # above 128 it splits the row in halves
        rng = np.random.default_rng(sum(sizes))
        keys = CELL_KEYS[: len(sizes)]
        slots = [key for key, size in zip(keys, sizes) for _ in range(size)]
        records = [
            scored_record(slots[i], i, (10.0 ** rng.uniform(-6, 6, size=6)).tolist(),
                          None if i % 3 == 0 else float(rng.lognormal()))
            for i in rng.permutation(len(slots))
        ]
        assert_same_cells(aggregate_stratified(records), reference.aggregate_stratified(records))

    def test_mase_left_out_of_a_cell_where_it_is_always_none(self):
        records = [scored_record(CELL_KEYS[0], i, [0.5] * 6, None) for i in range(3)]
        records.append(scored_record(CELL_KEYS[1], 3, [0.5] * 6, 2.0))
        cells = aggregate_stratified(records)
        assert "mase" not in cells[CELL_KEYS[0]]
        assert cells[CELL_KEYS[1]]["mase"] == evaluation.CellStats(2.0, 0.0, 1)
        assert_same_cells(cells, reference.aggregate_stratified(records))


def one_core(monkeypatch):
    """Make every later backtest in the test run its tasks in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def assert_same_models(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key].lstm.theta, b[key].lstm.theta), key
        assert replace(a[key], lstm=None) == replace(b[key], lstm=None)


class TestParallelBacktest:
    """Folds and the pooled fit run as forked tasks; one usable core runs them here."""

    def test_walk_forward_is_the_same_forked_and_in_process(self, tiny_universe, monkeypatch):
        # two sliding folds of equal cost, and three expanding folds whose
        # training grows, so that the workers take them in reverse order
        plans = [
            plan_walk_forward(60, 40, 10, 10),
            plan_walk_forward(60, 30, 10, 10, TrainMode.EXPANDING),
        ]
        assert [[len(f.train_range) for f in plan] for plan in plans] == [[40, 40], [30, 40, 50]]
        settings = fast_settings(horizons=HorizonSpec((3, 8)))
        forked = [run_walk_forward(tiny_universe, plan, small_policy(), settings) for plan in plans]
        one_core(monkeypatch)
        for plan, there in zip(plans, forked):
            here = run_walk_forward(tiny_universe, plan, small_policy(), settings)
            assert there.records == here.records
            assert there.predictions == here.predictions
            assert {k: fm.regime for k, fm in there.models.items()} == {
                k: fm.regime for k, fm in here.models.items()
            }
            assert_same_models(there.models, here.models)

    def test_a_holdout_run_adds_the_pooled_experts_and_their_records(
        self, pooled_setup, monkeypatch
    ):
        universe, holdout, experts, policy, settings = pooled_setup
        plan = plan_walk_forward(60, 40, 10, 10)  # the last fold launches at 50
        result = run_walk_forward(universe, plan, policy, settings, holdout)
        train = {t: s for t, s in universe.items() if t not in holdout}
        one_core(monkeypatch)
        alone = run_walk_forward(train, plan, policy, settings)
        # the holdout records first, then the walk-forward records
        holdout_records = run_holdout(universe, holdout, experts, policy, settings)
        assert holdout_records and all(r.split == "holdout" for r in holdout_records)
        assert result.records == holdout_records + alone.records
        assert result.predictions == alone.predictions
        assert_same_models(result.models, alone.models)
        assert np.array_equal(result.pooled.lstm.theta, experts.lstm.theta)
        assert replace(result.pooled, lstm=None) == replace(experts, lstm=None)
        assert alone.pooled is None
        assert all(r.split == "walk_forward" for r in alone.records)

    def test_a_diverged_fit_in_a_later_fold_raises_from_the_pool(
        self, tiny_universe, monkeypatch
    ):
        plan = plan_walk_forward(60, 40, 10, 10)
        settings = fast_settings()
        tickers = sorted(tiny_universe)
        fold_1 = tuple(task_seed(settings.seed, t, 1) for t in tickers)
        init = lstm_expert.init_params

        def nan_in_fold_1(hidden, seeds):
            params = init(hidden, seeds)
            if seeds == fold_1:  # firm 1 of fold 1 starts from a NaN weight
                params.W_i[1, 0, 0] = np.nan
            return params

        monkeypatch.setattr(lstm_expert, "init_params", nan_in_fold_1)
        with pytest.raises(FitError, match=f"^{tickers[1]} fold 1: firm 1:") as raised:
            run_walk_forward(tiny_universe, plan, small_policy(), settings)
        assert raised.value.firm == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_tasks_use_at_most_one_worker_per_usable_core(self):
        tasks = [lambda k=k: (k, os.getpid()) for k in range(6)]
        results = evaluation._in_parallel(tasks, [1] * 6)
        assert [k for k, _ in results] == list(range(6))
        pids = {pid for _, pid in results}
        assert len(pids) <= len(os.sched_getaffinity(0))
        if len(os.sched_getaffinity(0)) >= 2:
            assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_one_task_or_one_core_runs_in_this_process(self, monkeypatch):
        assert evaluation._in_parallel([os.getpid], [1]) == [os.getpid()]
        one_core(monkeypatch)
        assert evaluation._in_parallel([os.getpid] * 3, [1, 3, 2]) == [os.getpid()] * 3

    @pytest.mark.parametrize("cores", ["forked", "one core"])
    def test_unequal_costs_keep_task_order_and_the_first_failure(self, cores, monkeypatch):
        if cores == "one core":
            one_core(monkeypatch)
        costs = [1, 5, 2, 9, 3]
        assert evaluation._in_parallel([lambda k=k: k for k in range(5)], costs) == list(range(5))

        def fail(k):
            raise ValueError(f"task {k}")

        # task 3 is the longest, so a worker starts it first; task 1 still wins
        tasks = [lambda k=k: fail(k) if k in (1, 3) else k for k in range(5)]
        with pytest.raises(ValueError, match="^task 1$"):
            evaluation._in_parallel(tasks, costs)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs two usable cores and fork",
    )
    def test_forked_tasks_are_handed_out_longest_first(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        submitted = []
        submit = ProcessPoolExecutor.submit

        def recording(pool, fn, *args, **kwargs):
            submitted.extend(args)
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
        results = evaluation._in_parallel([lambda k=k: k for k in range(5)], [1, 5, 2, 5, 3])
        assert results == list(range(5))
        assert submitted == [1, 3, 4, 2, 0]  # ties in task order


def sample_std(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(((x - x.mean()) ** 2).sum() / (len(x) - 1)))


@pytest.mark.parametrize(
    "mode, policy",
    [
        (WindowMode.PRICE_LEVELS, RegimePolicy.median(vol_window=10)),
        (WindowMode.LOG_RETURNS, RegimePolicy.threshold(vol_window=10, tau=0.02)),
    ],
    ids=["price_levels-median", "log_returns-threshold"],
)
def test_fold_models_match_own_sigma_regime_and_least_squares(tiny_universe, mode, policy):
    """Every fold model's σ, regime and linear expert, recomputed in plain numpy.

    A target's σ is the sample deviation of the ``vol_window`` returns of the
    fold's own prices that end with the price move into that target: the
    return into price g for a price level, and return g itself for log
    return g.  The linear expert is least squares of the standardized
    training targets on ``[1, t, σ]`` over the targets whose σ is defined.
    """
    log_mode = mode is WindowMode.LOG_RETURNS
    # two sliding folds, the second starting at 10, in either mode
    plan = plan_walk_forward(59 if log_mode else 60, 40, 9, 10)
    settings = fast_settings(mode=mode)
    result = run_walk_forward(tiny_universe, plan, policy, settings)
    assert [f.train_range.start for f in plan] == [0, 10]
    vw = policy.vol_window
    for fold in plan:
        ts, te = fold.train_range.start, fold.train_range.stop
        sigmas = {}
        for ticker, series in tiny_universe.items():
            prices = series.prices[ts:]
            if policy.kind is PolicyKind.THRESHOLD:
                returns = np.diff(prices) / prices[:-1]
            else:
                returns = np.diff(np.log(prices))
            values = np.diff(np.log(series.prices)) if log_mode else series.prices

            def sigma_at(g):
                last = g - ts - (0 if log_mode else 1)  # the move into target g
                return sample_std(returns[last - vw + 1:last + 1]) if last >= vw - 1 else None

            fm = result.models[(ticker, fold.fold_id)]
            sigmas[ticker] = sigma_at(te - 1)
            assert fm.sigma == pytest.approx(sigmas[ticker], rel=1e-12)

            train = values[ts:te]
            rows = [g for g in range(ts + settings.window, te) if sigma_at(g) is not None]
            design = np.column_stack([np.ones(len(rows)), rows, [sigma_at(g) for g in rows]])
            y = (values[rows] - train.mean()) / train.std(ddof=1)
            beta = np.linalg.lstsq(design, y, rcond=None)[0]
            np.testing.assert_allclose(astuple(fm.linear), beta, rtol=1e-6, atol=1e-9)

        if policy.kind is PolicyKind.THRESHOLD:
            boundary = policy.tau
        else:
            boundary = float(np.median(list(sigmas.values())))
        for ticker, sigma in sigmas.items():
            expected = RegimeLabel.VOLATILE if sigma > boundary else RegimeLabel.STABLE
            assert result.models[(ticker, fold.fold_id)].regime is expected
