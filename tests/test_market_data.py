"""Ingestion, returns, volatility, scaling, windows, and the synthetic generator."""

import datetime as dt
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moecast.errors import DataError
from moecast.regime import RegimeLabel, classify_threshold
from moecast.market_data import (
    PriceSeries,
    ReturnSeries,
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


def series_from_prices(prices, ticker="TST", start=dt.date(2020, 1, 1)):
    return PriceSeries(ticker, np.datetime64(start, "D") + np.arange(len(prices)), prices)


positive_prices = st.lists(
    st.floats(min_value=0.5, max_value=5000.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=60,
)


class TestPriceTypes:
    def test_rejects_nonpositive_price(self):
        d = dt.date(2020, 1, 1)
        with pytest.raises(DataError):
            PriceSeries("X", [d], [0.0])
        with pytest.raises(DataError):
            PriceSeries("X", [d], [-1.0])

    def test_rejects_nonincreasing_dates(self):
        d = dt.date(2020, 1, 1)
        with pytest.raises(DataError):
            PriceSeries("X", [d, d], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_each_bad_price_naming_its_date(self, bad):
        dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
        with pytest.raises(DataError, match=r"X: adj_close .* on 2020-01-02"):
            PriceSeries("X", dates, [1.0, bad, 2.0])

    @pytest.mark.parametrize(
        "dates, pair",
        [
            (["2020-01-01", "2020-01-02", "2020-01-02"], "2020-01-02 followed by 2020-01-02"),
            (["2020-01-01", "2020-01-03", "2020-01-02"], "2020-01-03 followed by 2020-01-02"),
        ],
        ids=["equal", "decreasing"],
    )
    def test_rejects_nonincreasing_dates_naming_the_first_pair(self, dates, pair):
        with pytest.raises(DataError, match=pair):
            PriceSeries("X", dates, [1.0, 2.0, 3.0])

    def test_rejects_lengths_that_differ(self):
        with pytest.raises(DataError, match=r"X: \(2,\) dates but \(3,\) prices"):
            PriceSeries("X", ["2020-01-01", "2020-01-02"], [1.0, 2.0, 3.0])

    def test_arrays_are_stored_typed_and_read_only(self):
        s = series_from_prices([1, 2, 3])
        assert s.prices is s.prices and s.dates is s.dates
        assert s.dates.dtype == np.dtype("datetime64[D]")
        assert s.prices.dtype == np.float64
        for arr in (s.dates, s.prices):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[1]

    def test_points_carry_the_arrays_values(self):
        s = series_from_prices([3.5, 1.25, 7.0])
        assert [p.adj_close for p in s.points] == s.prices.tolist()
        assert [p.date for p in s.points] == s.dates.tolist()
        assert s.dates.tolist() == [dt.date(2020, 1, k) for k in (1, 2, 3)]

    def test_date_at_steps_calendar_days_past_a_series_with_weekends(self):
        s = series_from_prices([1.0] * 5, start=dt.date(2020, 1, 1))  # Wed .. Sun
        assert str(s.date_at(4)) == "2020-01-05"
        assert [str(s.date_at(4 + k)) for k in (1, 2, 3)] == [
            "2020-01-06", "2020-01-07", "2020-01-08"
        ]

    def test_date_at_steps_business_days_past_a_weekday_series(self):
        dates = np.busday_offset("2020-01-01", np.arange(4))  # Wed, Thu, Fri, Mon
        s = PriceSeries("X", dates, [1.0] * 4)
        assert [str(s.date_at(k)) for k in range(4)] == [
            "2020-01-01", "2020-01-02", "2020-01-03", "2020-01-06"
        ]
        assert [str(s.date_at(3 + k)) for k in (1, 2, 3, 4, 5)] == [
            "2020-01-07", "2020-01-08", "2020-01-09", "2020-01-10", "2020-01-13"
        ]


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_row_single_ticker(self, tmp_path):
        path = self.write(tmp_path, "ticker,date,adj_close\nAAA,2020-01-01,10\nAAA,2020-01-02,11\n")
        out = load_csv(path)
        assert list(out) == ["AAA"]
        assert len(out["AAA"]) == 2

    def test_zero_price_names_offending_line(self, tmp_path):
        path = self.write(tmp_path, "ticker,date,adj_close\nAAA,2020-01-01,10\nAAA,2020-01-02,0.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_interleaved_tickers_sorted_and_counted(self, tmp_path):
        # oracle: build the file by hand, count and sort per ticker independently
        start = dt.date(2021, 3, 1)
        lines = ["ticker,date,adj_close"]
        expected = {}
        for k in range(100):
            day = start + dt.timedelta(days=k)
            for ticker in ("BBB", "AAA", "CCC"):
                price = 50.0 + k + (0 if ticker == "AAA" else 1.5)
                lines.append(f"{ticker},{day.isoformat()},{price}")
                expected.setdefault(ticker, []).append((day, price))
        # shuffle the data rows so sorting is actually exercised
        rng = np.random.default_rng(0)
        body = lines[1:]
        rng.shuffle(body)
        path = self.write(tmp_path, "\n".join([lines[0]] + body) + "\n")
        out = load_csv(path)
        assert sorted(out) == ["AAA", "BBB", "CCC"]
        for ticker, rows in expected.items():
            assert len(out[ticker]) == 100
            assert list(out[ticker].dates) == [d for d, _ in sorted(rows)]

    def test_duplicate_ticker_date_rejected(self, tmp_path):
        path = self.write(
            tmp_path, "ticker,date,adj_close\nAAA,2020-01-01,10\nAAA,2020-01-01,11\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "ticker,date,adj_close\nAAA,2020-01-01\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = self.write(tmp_path, "symbol,day,close\nAAA,2020-01-01,10\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_header_only_rejected_naming_the_path(self, tmp_path):
        path = self.write(tmp_path, "ticker,date,adj_close\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: no price rows after the header"

    def test_one_ticker_skips_other_tickers_rows_unparsed(self, tmp_path):
        # BBB's rows hold a bad date, a bad price, a duplicate and an empty ticker
        path = self.write(tmp_path, "ticker,date,adj_close\nBBB,2020-13-01,10\n"
                          "AAA,2020-01-02,11\nBBB,2020-01-01,-1\nAAA,2020-01-01,10\n"
                          "BBB,2020-01-01,-1\n,2020-01-01,5\n")
        out = load_csv(path, "AAA")
        assert list(out) == ["AAA"]
        np.testing.assert_array_equal(out["AAA"].prices, [10.0, 11.0])
        with pytest.raises(DataError, match="line 2: invalid ISO date '2020-13-01'"):
            load_csv(path)
        assert load_csv(path, "CCC") == {}

    @pytest.mark.parametrize("row, message", [
        ("AAA,2020-01-03,0", "line 4: non-positive price 0 for AAA"),
        ("AAA,2020-01-01,12", r"line 4: duplicate \(AAA, 2020-01-01\)"),
        ("AAA,Jan 3,12", "line 4: invalid ISO date 'Jan 3'"),
        ("BBB,2020-01-03", "line 4: expected 3 fields, got 2"),
    ])
    def test_one_ticker_keeps_its_own_checks_and_every_rows_field_count(
        self, tmp_path, row, message
    ):
        path = self.write(
            tmp_path, f"ticker,date,adj_close\nAAA,2020-01-01,10\nBBB,2020-01-01,7\n{row}\n"
        )
        for ticker in (None, "AAA"):
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}$"):
                load_csv(path, ticker)

    def test_one_ticker_of_a_header_only_file_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "ticker,date,adj_close\n")
        with pytest.raises(DataError, match="no price rows after the header$"):
            load_csv(path, "AAA")

    def test_byte_order_mark_before_header_accepted(self, tmp_path):
        # Excel writes a UTF-8 byte-order mark before the header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfticker,date,adj_close\nAAA,2020-01-01,10\nAAA,2020-01-02,11\n")
        out = load_csv(path)
        assert list(out) == ["AAA"]
        np.testing.assert_array_equal(out["AAA"].prices, [10.0, 11.0])

    def test_write_then_load_round_trip(self, tmp_path):
        universe = generate_synthetic(SyntheticSpec(n_stable=2, n_volatile=1, length=40), seed=5)
        path = tmp_path / "u.csv"
        write_csv(universe, path)
        back = load_csv(path)
        assert sorted(back) == sorted(universe)
        for ticker in universe:
            np.testing.assert_array_equal(back[ticker].prices, universe[ticker].prices)
        again = tmp_path / "again.csv"
        write_csv(back, again)
        assert again.read_bytes() == path.read_bytes()


class TestReturns:
    def test_constant_prices_zero_simple_returns(self):
        r = simple_returns(series_from_prices([100, 100, 100]))
        np.testing.assert_array_equal(r.values, [0.0, 0.0])

    def test_hand_computed_simple_returns(self):
        # oracle: (110-100)/100 and (99-110)/110 by hand
        r = simple_returns(series_from_prices([100, 110, 99]))
        np.testing.assert_allclose(r.values, [0.10, -0.10], rtol=1e-15)

    def test_log_return_of_constant_is_zero(self):
        r = log_returns(series_from_prices([100, 100]))
        np.testing.assert_array_equal(r.values, [0.0])

    def test_ratio_e_gives_unit_log_return(self):
        r = log_returns(series_from_prices([100, 100 * math.e]))
        assert r.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            simple_returns(series_from_prices([100]))

    @given(positive_prices)
    def test_length_law(self, prices):
        s = series_from_prices(prices)
        assert len(simple_returns(s)) == len(prices) - 1
        assert len(log_returns(s)) == len(prices) - 1

    @given(positive_prices, st.floats(min_value=0.1, max_value=50.0))
    def test_returns_are_scale_free(self, prices, factor):
        base = series_from_prices(prices)
        scaled = series_from_prices([p * factor for p in prices])
        np.testing.assert_allclose(
            simple_returns(base).values, simple_returns(scaled).values, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            log_returns(base).values, log_returns(scaled).values, rtol=1e-9, atol=1e-12
        )

    def test_taylor_bound_for_small_returns(self):
        # oracle: |ln(1+r) - r| < r^2 checked numerically for |r| < 1%
        rng = np.random.default_rng(3)
        small = rng.uniform(-0.01, 0.01, size=500)
        small = small[np.abs(small) > 1e-6]
        prices = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + small]))
        s = series_from_prices(prices)
        gap = np.abs(log_returns(s).values - simple_returns(s).values)
        assert np.all(gap < simple_returns(s).values**2 + 1e-15)


class TestRollingVolatility:
    def returns(self, values):
        return ReturnSeries("TST", np.asarray(values, dtype=float))

    def test_constant_returns_zero_volatility(self):
        vol = rolling_volatility(self.returns([0.01] * 10), window=4)
        assert np.all(np.abs(vol[3:]) < 1e-15)

    def test_two_point_window_frozen_value(self):
        # oracle: mean 0, squared deviations 2e-4, divisor 1, sqrt
        vol = rolling_volatility(self.returns([0.01, -0.01]), window=2)
        assert vol[1] == pytest.approx(0.014142135623730951, rel=1e-12)

    def test_length_law(self):
        # indexed like the returns: NaN exactly until the window fills, then finite
        for w in (2, 7, 25):
            vol = rolling_volatility(self.returns(np.linspace(0, 0.1, 25)), window=w)
            assert vol.dtype == np.float64 and len(vol) == 25
            assert np.isnan(vol[:w - 1]).all(), w
            assert np.isfinite(vol[w - 1:]).all(), w

    def test_read_only(self):
        vol = rolling_volatility(self.returns(np.linspace(0, 0.1, 25)), window=7)
        with pytest.raises(ValueError):
            vol[10] = 0.0

    def test_window_exceeding_length_rejected(self):
        with pytest.raises(DataError):
            rolling_volatility(self.returns([0.01, 0.02]), window=3)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        tail = rng.normal(0, 0.02, size=30)
        prefix = rng.normal(0, 0.02, size=5)
        plain = rolling_volatility(self.returns(tail), window=6)
        shifted = rolling_volatility(self.returns(np.concatenate([prefix, tail])), window=6)
        np.testing.assert_array_equal(shifted[5 + 5:], plain[5:])

    def test_sample_divisor_matches_numpy_ddof1(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 0.03, size=40)
        vol = rolling_volatility(self.returns(values), window=30)
        expected = [values[k:k + 30].std(ddof=1) for k in range(11)]
        np.testing.assert_allclose(vol[29:], expected, rtol=1e-12)

    def test_classify_threshold_reads_return_indices(self):
        values = np.array([0.0, 0.0, 0.0, 0.1, -0.1])
        vol = rolling_volatility(self.returns(values), window=3)
        # return 2 closes the all-zero window, return 4 the window [0, 0.1, -0.1]
        assert classify_threshold(vol, 2, tau=1e-15) is RegimeLabel.STABLE
        sigma = np.std([0.0, 0.1, -0.1], ddof=1)
        assert classify_threshold(vol, 4, tau=sigma * (1 - 1e-12)) is RegimeLabel.VOLATILE
        assert classify_threshold(vol, 4, tau=sigma * (1 + 1e-12)) is RegimeLabel.STABLE
        # a negative index never wraps around to the end
        for at in (-1, 1, 5):
            with pytest.raises(DataError):
                classify_threshold(vol, at, tau=1e-15)


class TestScaler:
    def test_flat_series_guard(self):
        s = fit_scaler([5.0, 5.0, 5.0])
        assert s.mean == 5.0 and s.std == 1.0

    def test_two_point_sample_std(self):
        s = fit_scaler([0.0, 2.0])
        assert s.mean == 1.0
        assert s.std == pytest.approx(1.4142135623730951, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_scaler([])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=50
        )
    )
    def test_round_trip_identity(self, values):
        s = fit_scaler(values)
        arr = np.asarray(values)
        back = s.invert(s.apply(arr))
        # relative to the series scale; elementwise relative error is not
        # meaningful near zero when the mean is large
        scale = max(abs(s.mean) + s.std, 1e-300)
        assert np.all(np.abs(back - arr) / scale < 1e-12)


class TestMakeWindows:
    def test_boundary_single_sample(self):
        prices = np.linspace(100, 110, 11)
        inputs, targets, scaler = make_windows(series_from_prices(prices), 10,
                                               WindowMode.PRICE_LEVELS, train_end=11)
        assert len(inputs) == len(targets) == 1
        assert targets[0] == scaler.apply(prices[10])

    def test_arrays_are_read_only(self):
        inputs, targets, _ = make_windows(series_from_prices(np.linspace(100, 110, 30)), 10,
                                          WindowMode.PRICE_LEVELS, train_end=20)
        assert not inputs.flags.writeable and not targets.flags.writeable

    def test_enumeration_counts(self):
        # oracle: enumerate starts 0..n-w-1, one sample per start
        prices = np.linspace(100, 150, 100)
        for w, expected in ((10, 90), (20, 80)):
            _, targets, _ = make_windows(series_from_prices(prices), w,
                                         WindowMode.PRICE_LEVELS, train_end=80)
            assert len(targets) == expected
            starts = [k for k in range(100) if k + w < 100 + 1 and k + w <= 99]
            assert len(targets) == len([s for s in starts if s + w <= 99])

    def test_windows_overlap_by_w_minus_one(self):
        prices = np.arange(100.0, 130.0)
        inputs, _, _ = make_windows(series_from_prices(prices), 10,
                                    WindowMode.PRICE_LEVELS, train_end=20)
        for k in range(len(inputs) - 1):
            np.testing.assert_array_equal(inputs[k][1:], inputs[k + 1][:-1])

    def test_targets_follow_inputs(self):
        prices = np.arange(100.0, 120.0)
        inputs, targets, scaler = make_windows(series_from_prices(prices), 5,
                                               WindowMode.PRICE_LEVELS, train_end=10)
        standardized = scaler.apply(prices)
        assert len(inputs) == len(targets) == len(prices) - 5
        for k, (window, target) in enumerate(zip(inputs, targets)):
            t = 5 + k
            np.testing.assert_array_equal(window, standardized[t - 5:t])
            assert target == standardized[t]

    def test_scaler_sees_only_pre_train_end_values(self):
        # no look-ahead: recompute the scaler by hand from the training slice
        rng = np.random.default_rng(4)
        prices = 100.0 + np.cumsum(rng.normal(0, 1, size=60))
        prices = np.abs(prices) + 1.0
        _, _, scaler = make_windows(series_from_prices(prices), 10,
                                    WindowMode.PRICE_LEVELS, train_end=40)
        train_slice = prices[:40]
        assert scaler.mean == pytest.approx(train_slice.mean(), rel=1e-15)
        assert scaler.std == pytest.approx(train_slice.std(ddof=1), rel=1e-15)

    def test_log_return_mode_from_prices(self):
        prices = 100.0 * np.exp(np.linspace(0, 0.5, 42))
        _, targets, _ = make_windows(series_from_prices(prices), 20,
                                     WindowMode.LOG_RETURNS, train_end=30)
        assert len(targets) == (42 - 1) - 20

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError):
            make_windows(series_from_prices(np.linspace(1, 2, 10)), 10,
                         WindowMode.PRICE_LEVELS, train_end=10)

    def test_train_end_below_first_target_rejected(self):
        with pytest.raises(DataError):
            make_windows(series_from_prices(np.linspace(1, 2, 30)), 10,
                         WindowMode.PRICE_LEVELS, train_end=10)


class TestGenerateSynthetic:
    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(n_stable=2, n_volatile=2, length=80)
        a = generate_synthetic(spec, seed=42)
        b = generate_synthetic(spec, seed=42)
        assert sorted(a) == sorted(b)
        for ticker in a:
            np.testing.assert_array_equal(a[ticker].prices, b[ticker].prices)

    def test_volatile_median_volatility_exceeds_stable(self):
        spec = SyntheticSpec(n_stable=3, n_volatile=3, length=150)
        universe = generate_synthetic(spec, seed=7)
        med = {
            t: float(np.median(rolling_volatility(simple_returns(s), 30)[29:]))
            for t, s in universe.items()
        }
        stable = [v for t, v in med.items() if t.startswith("STB")]
        volatile = [v for t, v in med.items() if t.startswith("VOL")]
        assert max(stable) < min(volatile)

    def test_volatility_separation_around_threshold(self):
        spec = SyntheticSpec(n_stable=4, n_volatile=4, length=200)
        universe = generate_synthetic(spec, seed=42)
        for ticker, series in universe.items():
            vol = rolling_volatility(simple_returns(series), 30)[29:]
            if ticker.startswith("STB"):
                assert (vol < 0.025).mean() >= 0.9, ticker
            else:
                assert (vol > 0.025).mean() >= 0.9, ticker

    def test_nonpositive_length_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(length=0)
