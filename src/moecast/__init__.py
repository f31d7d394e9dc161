"""Volatility-regime-aware mixture-of-experts forecasting for daily price series.

The package root republishes every library module's ``__all__``, which is
the one list of that module's public names.  ``cli`` stays out: it is the
program, not the library.
"""

from .errors import *
from .market_data import *
from .regime import *
from .linear_expert import *
from .lstm_expert import *
from .moe import *
from .evaluation import *
from .config import *
from .model_store import *
from .reporting import *

__version__ = "0.1.0"
