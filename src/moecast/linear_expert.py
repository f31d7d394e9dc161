"""Closed-form linear expert: least squares of the target on time and volatility.

The model is ``y = b0 + b1 * t + b2 * sigma`` fitted by normal equations with
a symmetric 3x3 solve.  One iterative-refinement pass keeps the residuals
orthogonal to the design columns at the 1e-8 * ||y|| level even when the time
indices are large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

__all__ = ["LinearParams", "fit_ols", "predict_linear"]

# ratio of extreme Cholesky pivots beyond which the normal matrix is treated
# as rank deficient (constant sigma is the realistic way to get here)
PIVOT_RATIO_LIMIT = 1e10

_COLUMN_NAMES = ("intercept", "t", "sigma")


@dataclass(frozen=True)
class LinearParams:
    beta0: float
    beta1: float
    beta2: float


def _diagnose_deficiency(t: np.ndarray, sigma: np.ndarray) -> str:
    if np.ptp(sigma) == 0.0:
        return "sigma column is constant (collinear with intercept)"
    if np.ptp(t) == 0.0:
        return "t column is constant (collinear with intercept)"
    ts = np.corrcoef(t, sigma)
    if abs(ts[0, 1]) > 1.0 - 1e-12:
        return "sigma column is collinear with t"
    return "design columns are numerically collinear"


def fit_ols(t, sigma, y) -> tuple[LinearParams, float]:
    """Least-squares fit of ``y`` on ``[1, t, sigma]``: the coefficients and
    the residual sum of squares.

    Raises :class:`FitError` when the lengths disagree, fewer than 3
    observations are supplied, or the design is rank deficient (the failing
    column is named in the message).
    """
    t = np.asarray(t, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (len(t) == len(sigma) == len(y)):
        raise FitError(f"unequal lengths: t={len(t)}, sigma={len(sigma)}, y={len(y)}")
    n = len(y)
    if n < 3:
        raise FitError(f"need at least 3 observations to fit 3 coefficients, got {n}")
    X = np.column_stack([np.ones(n), t, sigma])
    xtx = X.T @ X
    xty = X.T @ y
    # the rank check runs on the column-equilibrated matrix so that scale
    # differences between t and sigma do not masquerade as collinearity
    norms = np.sqrt(np.diag(xtx))
    if norms.min() == 0.0:
        raise FitError(f"rank-deficient design: {_diagnose_deficiency(t, sigma)}")
    scaled = xtx / np.outer(norms, norms)
    try:
        chol = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        raise FitError(f"rank-deficient design: {_diagnose_deficiency(t, sigma)}")
    pivots = np.diag(chol) ** 2
    if pivots.min() <= 0 or pivots.max() / pivots.min() > PIVOT_RATIO_LIMIT:
        raise FitError(f"rank-deficient design: {_diagnose_deficiency(t, sigma)}")
    beta = np.linalg.solve(xtx, xty)
    # one refinement pass against the normal equations tightens orthogonality
    beta = beta + np.linalg.solve(xtx, xty - xtx @ beta)
    residuals = y - X @ beta
    params = LinearParams(float(beta[0]), float(beta[1]), float(beta[2]))
    return params, float(residuals @ residuals)


def predict_linear(
    params: LinearParams, t: float | np.ndarray, sigma: float
) -> float | np.ndarray:
    """``b0 + b1 * t + b2 * sigma``; an array of times gives the whole path."""
    return params.beta0 + params.beta1 * t + params.beta2 * sigma
