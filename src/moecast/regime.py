"""Volatile/Stable classification and volatility-based firm ranking.

Two rules are supported: a fixed threshold on a firm's own rolling
volatility, and a per-fold comparison against the cross-sectional median.
Boundary values (exactly at the threshold or the median) classify Stable
under both rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EvaluationError
from .market_data import PriceSeries, log_returns, rolling_volatility, simple_returns

__all__ = [
    "RegimeLabel",
    "PolicyKind",
    "RegimePolicy",
    "classify_threshold",
    "classify_median",
    "label_for",
    "rank_by_volatility",
]

DEFAULT_THRESHOLD_WINDOW = 30
DEFAULT_MEDIAN_WINDOW = 21
DEFAULT_TAU = 0.025


class RegimeLabel(enum.Enum):
    VOLATILE = "Volatile"
    STABLE = "Stable"


class PolicyKind(enum.Enum):
    THRESHOLD = "threshold"
    CROSS_SECTIONAL_MEDIAN = "median"


@dataclass(frozen=True)
class RegimePolicy:
    """Which rule labels firms, and the volatility window feeding it.

    Threshold policies read 30-day volatility of simple returns against a
    fixed cutoff; median policies read 21-day volatility of log returns
    against the cross-section at each fold.  The policy is the one place
    that knows which rule is active: callers ask it for a firm's volatility,
    a fold's labels, the boundary a pooled fit freezes and an unseen firm's
    label.
    """

    kind: PolicyKind
    vol_window: int
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.vol_window < 2:
            raise EvaluationError(f"volatility window must be at least 2, got {self.vol_window}")
        if self.kind is PolicyKind.THRESHOLD:
            if self.tau is None or not self.tau > 0:
                raise EvaluationError(f"threshold policy needs tau > 0, got {self.tau}")

    @classmethod
    def threshold(cls, vol_window: int = DEFAULT_THRESHOLD_WINDOW, tau: float = DEFAULT_TAU):
        return cls(PolicyKind.THRESHOLD, vol_window, tau)

    @classmethod
    def median(cls, vol_window: int = DEFAULT_MEDIAN_WINDOW):
        return cls(PolicyKind.CROSS_SECTIONAL_MEDIAN, vol_window, None)

    def describe(self) -> str:
        """The rule and its parameters in words, as ``moecast classify`` prints them."""
        if self.kind is PolicyKind.THRESHOLD:
            return f"threshold (window {self.vol_window}, tau {self.tau})"
        return f"cross-sectional median (window {self.vol_window})"

    def volatility(self, series: PriceSeries) -> np.ndarray:
        """Rolling volatility of the returns this rule reads: simple returns
        under the threshold rule, log returns under the median rule.

        The array is indexed like those returns (:func:`rolling_volatility`):
        entry ``j`` is the window ending with return ``j``, the move into
        price ``j + 1``, and the first ``vol_window - 1`` entries are NaN.
        """
        if self.kind is PolicyKind.THRESHOLD:
            returns = simple_returns(series)
        else:
            returns = log_returns(series)
        return rolling_volatility(returns, self.vol_window)

    def labels(self, sigmas: dict[str, float]) -> dict[str, RegimeLabel]:
        """Each firm's label from one fold's σs: against tau, or their median."""
        if self.kind is PolicyKind.THRESHOLD:
            return {ticker: label_for(sigma, self.tau) for ticker, sigma in sigmas.items()}
        return classify_median(sigmas)

    def frozen_boundary(self, sigmas: list[float]) -> float | None:
        """What a pooled fit keeps to label unseen firms: the median of its
        firms' σs under the median rule, nothing under the threshold rule."""
        if self.kind is PolicyKind.THRESHOLD:
            return None
        return float(np.median(sigmas))

    def label_unseen(self, sigma: float, frozen_boundary: float | None) -> RegimeLabel:
        """An unseen firm's label: against tau, or the pooled fit's frozen median."""
        if self.kind is PolicyKind.THRESHOLD:
            return label_for(sigma, self.tau)
        return label_for(sigma, frozen_boundary)


def label_for(sigma: float, boundary: float) -> RegimeLabel:
    """Volatile iff ``sigma`` strictly exceeds ``boundary``; a tie is Stable."""
    return RegimeLabel.VOLATILE if sigma > boundary else RegimeLabel.STABLE


def classify_threshold(vol: np.ndarray, at: int, tau: float) -> RegimeLabel:
    """Volatile iff the volatility at return index ``at`` strictly exceeds ``tau``.

    ``vol`` is a :func:`rolling_volatility` array.  An ``at`` that is negative,
    past the end, or before the window fills is a :class:`DataError`.
    """
    if not (0 <= at < len(vol)) or np.isnan(vol[at]):
        raise DataError(f"no volatility at return index {at} of {len(vol)}: "
                        "out of range, or before the window fills")
    return label_for(float(vol[at]), tau)


def classify_median(vols: dict[str, float]) -> dict[str, RegimeLabel]:
    """Volatile iff a firm's volatility strictly exceeds the cross-sectional median.

    Ties at the median go to Stable; the result does not depend on the
    iteration order of the input mapping.
    """
    if len(vols) < 2:
        raise EvaluationError(f"median classification needs at least 2 firms, got {len(vols)}")
    med = float(np.median(list(vols.values())))
    return {ticker: label_for(sigma, med) for ticker, sigma in vols.items()}


def rank_by_volatility(vols: dict[str, float], k: int) -> tuple[list[str], list[str]]:
    """The ``k`` most and ``k`` least volatile tickers by full-sample volatility.

    Returns ``(top_k, bottom_k)`` with top_k sorted by descending volatility
    and bottom_k ascending; volatility ties break by lexicographic ticker so
    the selection is deterministic.  Requires ``2k`` firms so the two lists
    are disjoint.
    """
    if k < 0:
        raise EvaluationError(f"k must be non-negative, got {k}")
    if 2 * k > len(vols):
        raise EvaluationError(f"k={k} too large for {len(vols)} firms (need 2k <= firms)")
    # membership comes from one global ordering so the lists stay disjoint
    # even when ties straddle the boundary
    ascending = sorted(vols, key=lambda t: (vols[t], t))
    bottom_k = ascending[:k]
    top_k = sorted(ascending[len(ascending) - k:], key=lambda t: (-vols[t], t))
    return top_k, bottom_k
