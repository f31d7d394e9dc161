"""Shared exception hierarchy.

Every contract violation raised by this package derives from
:class:`MoecastError` so callers (the command-line layer in particular) can
distinguish input/contract failures from genuine bugs.
"""

__all__ = ["MoecastError", "DataError", "FitError", "ConfigError", "EvaluationError"]


class MoecastError(ValueError):
    """Base class for all input and contract violations."""


class DataError(MoecastError):
    """Malformed or structurally invalid market data."""


class FitError(MoecastError):
    """A model could not be fitted (degenerate design, bad shapes, empty splits).

    ``firm`` is the index, in its stack, of a firm whose fit diverged, else None.
    """

    def __init__(self, message: str, firm: int | None = None) -> None:
        super().__init__(message)
        self.firm = firm


class ConfigError(MoecastError):
    """Invalid run configuration (unknown key, out-of-domain value)."""


class EvaluationError(MoecastError):
    """Invalid backtest geometry or evaluation inputs."""
