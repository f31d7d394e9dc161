"""Gate table, combiner, and the two-expert blended prediction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moecast.errors import EvaluationError
from moecast.linear_expert import LinearParams, predict_linear
from moecast.lstm_expert import init_params, predict_lstm
from moecast.moe import GateWeights, blend, combine, gate_for_regime
from moecast.regime import RegimeLabel


class TestGateForRegime:
    def test_volatile_weights(self):
        w = gate_for_regime(RegimeLabel.VOLATILE)
        assert w.w_rnn == 0.7 and w.w_lm == pytest.approx(0.3)

    def test_stable_weights(self):
        w = gate_for_regime(RegimeLabel.STABLE)
        assert w.w_rnn == 0.3 and w.w_lm == pytest.approx(0.7)

    def test_weights_sum_to_one(self):
        for regime in RegimeLabel:
            w = gate_for_regime(regime)
            assert w.w_rnn + w.w_lm == 1.0

    def test_swapping_regime_swaps_the_pair(self):
        v = gate_for_regime(RegimeLabel.VOLATILE)
        s = gate_for_regime(RegimeLabel.STABLE)
        assert (v.w_rnn, v.w_lm) == (s.w_lm, s.w_rnn)

    def test_table_override(self):
        table = {RegimeLabel.VOLATILE: 0.9, RegimeLabel.STABLE: 0.1}
        assert gate_for_regime(RegimeLabel.VOLATILE, table).w_rnn == 0.9

    def test_non_complementary_table_derives_the_complement(self):
        table = {RegimeLabel.VOLATILE: 0.6, RegimeLabel.STABLE: 0.3}
        w = gate_for_regime(RegimeLabel.VOLATILE, table)
        assert (w.w_rnn, w.w_lm) == (0.6, 0.4)
        assert w == GateWeights(0.6, 1.0 - 0.6)

    def test_out_of_range_weight_rejected(self):
        table = {RegimeLabel.VOLATILE: 1.5, RegimeLabel.STABLE: 0.3}
        with pytest.raises(EvaluationError):
            gate_for_regime(RegimeLabel.VOLATILE, table)


class TestCombine:
    def test_paper_weights_arithmetic(self):
        assert combine([(0.7, 2.0), (0.3, 1.0)]) == pytest.approx(1.7, abs=1e-15)

    def test_degenerate_gate_returns_first_expert(self):
        assert combine([(1.0, 3.25), (0.0, -50.0)]) == 3.25

    def test_identical_predictions_fixed_point(self):
        assert combine([(0.42, 5.5), (0.58, 5.5)]) == pytest.approx(5.5, abs=1e-12)

    def test_weights_not_summing_rejected(self):
        with pytest.raises(EvaluationError):
            combine([(0.7, 1.0), (0.7, 2.0)])

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            combine([])

    def test_negative_weight_rejected(self):
        with pytest.raises(EvaluationError):
            combine([(-0.2, 1.0), (1.2, 2.0)])

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    def test_permutation_invariance_and_convexity(self, w, a, b):
        forward = combine([(w, a), (1.0 - w, b)])
        backward = combine([(1.0 - w, b), (w, a)])
        assert forward == pytest.approx(backward, abs=1e-12)
        assert min(a, b) - 1e-9 <= forward <= max(a, b) + 1e-9


class TestPredictMoe:
    """One MoE step as the pipeline forms it: both experts, then ``blend``."""

    @staticmethod
    def predict(lstm, linear, window, t, sigma, regime):
        weights = gate_for_regime(regime)
        rnn, lm = predict_lstm(lstm, window), predict_linear(linear, t, sigma)
        return blend(weights, rnn, lm), rnn, lm, weights

    def zero_lstm(self):
        p = init_params(4, seed=0)
        for name in ("W_f", "W_i", "W_C", "W_o", "b_f", "b_i", "b_C", "b_o", "W_y", "b_y"):
            getattr(p, name)[...] = 0.0
        return p

    def test_zero_experts_zero_combined(self):
        combined, *_ = self.predict(
            self.zero_lstm(), LinearParams(0.0, 0.0, 0.0),
            np.linspace(0, 1, 10), t=5.0, sigma=0.02, regime=RegimeLabel.VOLATILE,
        )
        assert combined == 0.0

    def test_combined_between_experts(self):
        lstm = init_params(6, seed=3)
        linear = LinearParams(0.5, 0.01, -2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            window = rng.normal(size=10)
            regime = RegimeLabel.VOLATILE if rng.random() < 0.5 else RegimeLabel.STABLE
            combined, rnn, lm, _ = self.predict(lstm, linear, window, t=rng.uniform(0, 100),
                                                sigma=rng.uniform(0, 0.05), regime=regime)
            assert min(rnn, lm) - 1e-12 <= combined <= max(rnn, lm) + 1e-12

    def test_replaying_components_reproduces_combined(self):
        lstm = init_params(5, seed=9)
        linear = LinearParams(1.0, -0.02, 3.0)
        combined, rnn, lm, weights = self.predict(lstm, linear, np.linspace(-1, 1, 8), t=30.0,
                                                  sigma=0.01, regime=RegimeLabel.STABLE)
        assert combine([(weights.w_rnn, rnn), (weights.w_lm, lm)]) == combined
