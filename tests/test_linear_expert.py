"""Normal-equation least squares: exact recovery, orthogonality, rank guard."""

from dataclasses import astuple

import numpy as np
import pytest

from moecast.errors import FitError
from moecast.linear_expert import LinearParams, fit_ols, predict_linear


def random_problem(rng, n=40, t_scale=100.0):
    t = np.sort(rng.uniform(0, t_scale, size=n))
    sigma = rng.uniform(0.005, 0.05, size=n)
    return t, sigma


class TestFitOls:
    def test_noiseless_plane_recovered(self):
        rng = np.random.default_rng(0)
        t, sigma = random_problem(rng)
        y = 2.0 + 3.0 * t + 0.0 * sigma
        params, _ = fit_ols(t, sigma, y)
        np.testing.assert_allclose(astuple(params), [2.0, 3.0, 0.0], atol=1e-8)

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        t, sigma = random_problem(rng, n=20)
        params, rss = fit_ols(t, sigma, np.full(20, 7.5))
        np.testing.assert_allclose(astuple(params), [7.5, 0.0, 0.0], atol=1e-8)
        assert rss == pytest.approx(0.0, abs=1e-12)

    def test_random_coefficients_recovered(self):
        # oracle: construct y from known coefficients, then demand recovery
        rng = np.random.default_rng(2)
        for trial in range(20):
            t, sigma = random_problem(rng, n=30)
            beta_true = rng.normal(size=3) * np.array([5.0, 0.1, 10.0])
            y = beta_true[0] + beta_true[1] * t + beta_true[2] * sigma
            params, _ = fit_ols(t, sigma, y)
            np.testing.assert_allclose(astuple(params), beta_true, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            t, sigma = random_problem(rng, n=60, t_scale=300.0)
            y = rng.normal(size=60) * 2.0 + 0.01 * t
            params, _ = fit_ols(t, sigma, y)
            X = np.column_stack([np.ones(60), t, sigma])
            resid = y - X @ astuple(params)
            assert np.abs(X.T @ resid).max() < 1e-8 * np.linalg.norm(y)

    def test_agrees_with_lstsq_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            t, sigma = random_problem(rng, n=50)
            y = rng.normal(size=50)
            mine = astuple(fit_ols(t, sigma, y)[0])
            X = np.column_stack([np.ones(50), t, sigma])
            reference = np.linalg.lstsq(X, y, rcond=None)[0]
            np.testing.assert_allclose(mine, reference, rtol=1e-6, atol=1e-9)

    def test_constant_sigma_names_deficient_column(self):
        t = np.arange(20.0)
        sigma = np.full(20, 0.01)
        with pytest.raises(FitError, match="sigma"):
            fit_ols(t, sigma, np.arange(20.0))

    def test_constant_t_names_deficient_column(self):
        t = np.full(20, 3.0)
        sigma = np.linspace(0.01, 0.05, 20)
        with pytest.raises(FitError, match="t column"):
            fit_ols(t, sigma, np.arange(20.0))

    def test_unequal_lengths(self):
        with pytest.raises(FitError):
            fit_ols([1, 2, 3], [0.1, 0.2], [1.0, 2.0, 3.0])

    def test_too_few_observations(self):
        with pytest.raises(FitError):
            fit_ols([1, 2], [0.1, 0.2], [1.0, 2.0])

    def test_intercept_shift_property(self):
        rng = np.random.default_rng(5)
        t, sigma = random_problem(rng, n=25)
        y = rng.normal(size=25)
        base, _ = fit_ols(t, sigma, y)
        shifted, _ = fit_ols(t, sigma, y + 11.5)
        assert shifted.beta0 - base.beta0 == pytest.approx(11.5, abs=1e-8)
        assert shifted.beta1 == pytest.approx(base.beta1, abs=1e-8)
        assert shifted.beta2 == pytest.approx(base.beta2, abs=1e-8)

    def test_rss_non_increasing_when_on_plane_point_appended(self):
        rng = np.random.default_rng(6)
        t, sigma = random_problem(rng, n=30)
        y = 1.0 + 0.02 * t + 3.0 * sigma + rng.normal(0, 0.1, size=30)
        p, rss = fit_ols(t, sigma, y)
        t2 = np.append(t, t[-1] + 5.0)
        s2 = np.append(sigma, 0.03)
        y2 = np.append(y, predict_linear(p, t[-1] + 5.0, 0.03))
        _, rss2 = fit_ols(t2, s2, y2)
        assert rss2 <= rss + 1e-9


class TestPredictLinear:
    def test_zero_model(self):
        p = LinearParams(0.0, 0.0, 0.0)
        assert predict_linear(p, 123.0, 0.4) == 0.0

    def test_arithmetic_oracle(self):
        # 1 + 2*1 + 3*0.5 = 4.5
        assert predict_linear(LinearParams(1.0, 2.0, 3.0), 1.0, 0.5) == 4.5

    def test_interpolates_noiseless_fit(self):
        rng = np.random.default_rng(7)
        t, sigma = random_problem(rng, n=15)
        y = -2.0 + 0.5 * t + 4.0 * sigma
        p, _ = fit_ols(t, sigma, y)
        preds = np.array([predict_linear(p, tk, sk) for tk, sk in zip(t, sigma)])
        np.testing.assert_allclose(preds, y, atol=1e-8)
