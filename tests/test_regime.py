"""Threshold and median classification plus volatility rankings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moecast.errors import DataError, EvaluationError
from moecast.market_data import ReturnSeries, rolling_volatility
from moecast.regime import (
    PolicyKind,
    RegimeLabel,
    RegimePolicy,
    classify_median,
    classify_threshold,
    rank_by_volatility,
)


def make_vol(returns, window):
    return rolling_volatility(
        ReturnSeries("TST", np.asarray(returns, dtype=float)), window
    )


class TestThreshold:
    def test_above_threshold_is_volatile(self):
        vol = make_vol([0.03, -0.03, 0.03, -0.03], window=2)
        # windows of [0.03, -0.03] have sample std ~ 0.042 > 0.025
        assert classify_threshold(vol, at=1, tau=0.025) is RegimeLabel.VOLATILE

    def test_boundary_sigma_equal_tau_is_stable(self):
        vol = make_vol([0.01, -0.01], window=2)
        sigma = vol[1]
        assert classify_threshold(vol, at=1, tau=sigma) is RegimeLabel.STABLE

    def test_zero_volatility_is_stable(self):
        vol = make_vol([0.0, 0.0, 0.0], window=2)
        assert classify_threshold(vol, at=2, tau=0.025) is RegimeLabel.STABLE

    def test_out_of_range_index(self):
        vol = make_vol([0.01, 0.02, 0.03], window=3)
        with pytest.raises(DataError):
            classify_threshold(vol, at=1, tau=0.025)

    def test_pointwise_independent_of_other_firms(self):
        vol = make_vol([0.05, -0.05, 0.05], window=2)
        label = classify_threshold(vol, at=1, tau=0.025)
        # the function takes no cross-section, so this is structural; assert value
        assert label is RegimeLabel.VOLATILE


class TestMedian:
    def test_four_firm_split(self):
        labels = classify_median({"A": 0.01, "B": 0.02, "C": 0.03, "D": 0.04})
        assert labels["A"] is RegimeLabel.STABLE
        assert labels["B"] is RegimeLabel.STABLE
        assert labels["C"] is RegimeLabel.VOLATILE
        assert labels["D"] is RegimeLabel.VOLATILE

    def test_identical_sigmas_all_stable(self):
        labels = classify_median({"A": 0.02, "B": 0.02, "C": 0.02})
        assert all(v is RegimeLabel.STABLE for v in labels.values())

    def test_two_firms_exactly_one_volatile(self):
        labels = classify_median({"A": 0.01, "B": 0.03})
        assert sorted(v.value for v in labels.values()) == ["Stable", "Volatile"]

    def test_fewer_than_two_rejected(self):
        with pytest.raises(EvaluationError):
            classify_median({"A": 0.01})

    @given(
        st.dictionaries(
            st.text(alphabet="ABCDEFGH", min_size=1, max_size=3),
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_partition_complete_and_order_invariant(self, vols):
        labels = classify_median(vols)
        assert set(labels) == set(vols)
        reordered = dict(reversed(list(vols.items())))
        assert classify_median(reordered) == labels

    @given(
        st.dictionaries(
            st.text(alphabet="ABCDEFGH", min_size=1, max_size=3),
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_raising_sigma_never_demotes(self, vols, bump):
        labels = classify_median(vols)
        target = sorted(vols)[0]
        bumped = dict(vols)
        bumped[target] = bumped[target] + bump
        relabeled = classify_median(bumped)
        if labels[target] is RegimeLabel.VOLATILE:
            assert relabeled[target] is RegimeLabel.VOLATILE

    def test_even_distinct_count_splits_in_half(self):
        vols = {f"T{k}": 0.01 * (k + 1) for k in range(6)}
        labels = classify_median(vols)
        assert sum(v is RegimeLabel.VOLATILE for v in labels.values()) == 3


class TestRanking:
    def test_thirty_firms_k_ten_disjoint(self):
        vols = {f"T{k:02d}": 0.001 * (k + 1) for k in range(30)}
        top, bottom = rank_by_volatility(vols, 10)
        assert len(top) == 10 and len(bottom) == 10
        assert not set(top) & set(bottom)

    def test_k_zero_empty(self):
        assert rank_by_volatility({"A": 0.1, "B": 0.2}, 0) == ([], [])

    def test_sort_oracle_four_firms(self):
        vols = {"W": 0.01, "X": 0.02, "Y": 0.03, "Z": 0.04}
        top, bottom = rank_by_volatility(vols, 1)
        assert top == ["Z"] and bottom == ["W"]

    def test_orderings(self):
        vols = {"A": 0.03, "B": 0.01, "C": 0.05, "D": 0.02, "E": 0.04, "F": 0.06}
        top, bottom = rank_by_volatility(vols, 3)
        assert top == ["F", "C", "E"]
        assert bottom == ["B", "D", "A"]

    def test_ties_break_lexicographically_and_stay_disjoint(self):
        vols = {"A": 0.02, "B": 0.02, "C": 0.02, "D": 0.02}
        top, bottom = rank_by_volatility(vols, 2)
        assert not set(top) & set(bottom)
        assert bottom == ["A", "B"]
        assert top == ["C", "D"]

    def test_k_too_large(self):
        with pytest.raises(EvaluationError):
            rank_by_volatility({"A": 0.1, "B": 0.2, "C": 0.3}, 2)


class TestPolicy:
    def test_threshold_defaults(self):
        p = RegimePolicy.threshold()
        assert p.kind is PolicyKind.THRESHOLD and p.vol_window == 30 and p.tau == 0.025

    def test_median_defaults(self):
        p = RegimePolicy.median()
        assert p.kind is PolicyKind.CROSS_SECTIONAL_MEDIAN and p.vol_window == 21

    def test_threshold_requires_positive_tau(self):
        with pytest.raises(EvaluationError):
            RegimePolicy(PolicyKind.THRESHOLD, 30, None)
        with pytest.raises(EvaluationError):
            RegimePolicy(PolicyKind.THRESHOLD, 30, 0.0)
