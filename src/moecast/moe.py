"""Fixed regime-keyed gating and convex combination of expert predictions.

Volatile firms weight the recurrent expert at 0.7 and the linear expert at
0.3; stable firms mirror the pair.  The weights are a configuration table, so
alternative splits can be supplied without touching the combiner, and the
combiner itself accepts any number of experts even though only two are used
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import EvaluationError
from .regime import RegimeLabel

__all__ = [
    "GateWeights",
    "DEFAULT_GATE_TABLE",
    "gate_for_regime",
    "combine",
    "blend",
]

# regime -> weight on the recurrent expert; the linear weight is the complement
DEFAULT_GATE_TABLE: dict[RegimeLabel, float] = {
    RegimeLabel.VOLATILE: 0.7,
    RegimeLabel.STABLE: 0.3,
}

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GateWeights:
    """A (recurrent, linear) weight pair summing to one."""

    w_rnn: float
    w_lm: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.w_rnn <= 1.0 and 0.0 <= self.w_lm <= 1.0):
            raise EvaluationError(f"gate weights must lie in [0, 1], got {self}")
        if abs(self.w_rnn + self.w_lm - 1.0) > WEIGHT_SUM_TOL:
            raise EvaluationError(f"gate weights must sum to 1, got {self}")


def gate_for_regime(
    regime: RegimeLabel,
    gate_table: Mapping[RegimeLabel, float] | None = None,
) -> GateWeights:
    """Look up the expert weights for a regime label.

    When the table's two entries are complementary (as in the default
    0.7/0.3 split) the linear weight reuses the other regime's entry, so
    swapping the regime label swaps the pair bit-for-bit; otherwise the
    complement is derived.
    """
    table = DEFAULT_GATE_TABLE if gate_table is None else gate_table
    w_rnn = table[regime]
    other = RegimeLabel.STABLE if regime is RegimeLabel.VOLATILE else RegimeLabel.VOLATILE
    if other in table and abs(table[regime] + table[other] - 1.0) <= WEIGHT_SUM_TOL:
        return GateWeights(w_rnn, table[other])
    return GateWeights(w_rnn, 1.0 - w_rnn)


def combine(expert_preds: Iterable[tuple[float, float]]) -> float:
    """Weighted sum of ``(weight, prediction)`` pairs.

    The weights must be non-negative and sum to one within 1e-12; with two
    experts this is exactly the fixed-gate blend, but any number of experts
    is accepted.
    """
    pairs = [(float(w), float(p)) for w, p in expert_preds]
    if not pairs:
        raise EvaluationError("combine needs at least one expert")
    if any(w < 0.0 for w, _ in pairs):
        raise EvaluationError(f"expert weights must be non-negative, got {[w for w, _ in pairs]}")
    total_weight = math.fsum(w for w, _ in pairs)
    if abs(total_weight - 1.0) > WEIGHT_SUM_TOL:
        raise EvaluationError(f"expert weights must sum to 1, got sum {total_weight!r}")
    # accumulate in order so the stored decomposition replays bit-for-bit
    total = 0.0
    for w, p in pairs:
        total += w * p
    return total


def blend(weights: GateWeights, rnn, lm):
    """``w_rnn * rnn + w_lm * lm`` on scalars or arrays.

    Sums in :func:`combine`'s order, so each element equals the two-expert
    ``combine`` bit for bit.  The linear weight is ``weights.w_lm`` itself,
    never ``1 - w_rnn``, which differs in the last bit for 0.3 and 0.7.
    """
    return weights.w_rnn * rnn + weights.w_lm * lm

