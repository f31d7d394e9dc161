"""Price series ingestion, returns, rolling volatility, and supervised windows.

Everything downstream (regime labels, both experts, the backtest) consumes the
types defined here.  A rolling volatility is no container but one array indexed
like the returns it reads: entry ``j`` ends with return ``j``, and it is NaN
until the window fills.  All containers and arrays are immutable after
construction: numpy payloads are marked read-only so they can be shared freely
across parallel per-firm pipelines.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "WindowMode",
    "PriceSeries",
    "ReturnSeries",
    "Scaler",
    "SyntheticSpec",
    "load_csv",
    "write_csv",
    "simple_returns",
    "log_returns",
    "rolling_volatility",
    "fit_scaler",
    "make_windows",
    "generate_synthetic",
]

CSV_HEADER = ("ticker", "date", "adj_close")


class WindowMode(enum.Enum):
    """Which values a firm's windows range over: its prices or its log returns.

    Value ``t`` sits at price and date index ``t + offset``: a price level is
    its own price, and log return ``t`` is the move into price ``t + 1``.
    """

    PRICE_LEVELS = "price_levels"
    LOG_RETURNS = "log_returns"

    @property
    def offset(self) -> int:
        return 0 if self is WindowMode.PRICE_LEVELS else 1

    def values(self, series: PriceSeries) -> np.ndarray:
        """The firm's values in this mode, ``len(series) - offset`` of them."""
        return series.prices if self is WindowMode.PRICE_LEVELS else log_returns(series).values


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One firm's adjusted closes: ``dates`` (``datetime64[D]``, strictly
    increasing) and ``prices`` (float64, positive and finite), two read-only
    arrays of one length."""

    ticker: str
    dates: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        dates, prices = _frozen(self.dates, "datetime64[D]"), _frozen(self.prices)
        if dates.ndim != 1 or dates.shape != prices.shape:
            raise DataError(f"{self.ticker}: {dates.shape} dates but {prices.shape} prices")
        bad = np.flatnonzero(~(np.isfinite(prices) & (prices > 0)))
        if bad.size:
            k = bad[0]
            raise DataError(f"{self.ticker}: adj_close must be positive and finite, "
                            f"got {float(prices[k])!r} on {dates[k]}")
        # negated, so that a NaT date, which compares false, fails too
        bad = np.flatnonzero(~(dates[1:] > dates[:-1]))
        if bad.size:
            k = bad[0]
            raise DataError(f"{self.ticker}: dates must be strictly increasing "
                            f"({dates[k]} followed by {dates[k + 1]})")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def points(self) -> np.recarray:
        """The series as ``(date, adj_close)`` records; read ``dates`` and ``prices`` instead."""
        return np.rec.fromarrays((self.dates, self.prices), names="date,adj_close")

    def date_at(self, index: int) -> np.datetime64:
        """The date of observation ``index``, counting on past the last one.

        Past the end, a series dated on weekdays only (trading days) steps by
        business day, skipping weekends; any other series steps by calendar day.
        """
        past = index - (len(self) - 1)
        if past <= 0:
            return self.dates[index]
        if np.is_busday(self.dates).all():
            return np.busday_offset(self.dates[-1], past, roll="forward")
        return self.dates[-1] + past


@dataclass(frozen=True)
class ReturnSeries:
    """Dimensionless one-step returns; length is one less than the price series."""

    ticker: str
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Scaler:
    """Mean/deviation pair fitted on the training portion of a series."""

    mean: float
    std: float

    def apply(self, values: np.ndarray | float) -> np.ndarray | float:
        return (np.asarray(values, dtype=float) - self.mean) / self.std

    def invert(self, values: np.ndarray | float) -> np.ndarray | float:
        return np.asarray(values, dtype=float) * self.std + self.mean


def load_csv(path, ticker: str | None = None) -> dict[str, PriceSeries]:
    """Read a long-format ``ticker,date,adj_close`` file into per-ticker series.

    Rows may be interleaved across tickers and out of order; each resulting
    series is sorted by date.  Every malformed row is reported with its
    1-based line number.

    With ``ticker``, only that ticker's series is read, and ``{}`` if it has
    no rows.  Another ticker's row is skipped before its date and price are
    parsed, so a malformed one does not fail the read.  As the file comes
    from outside the program, its header, every row's field count and a
    file with no rows at all are still checked, so the CSV reader still
    splits every row.
    """
    try:
        # utf-8-sig drops the byte-order mark that Excel writes before the header
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read prices {path}: {exc}")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, expected header {','.join(CSV_HEADER)}")
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataError(
            f"{path}: line 1: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    rows: dict[str, list[tuple[dt.date, float]]] = {}
    seen: set[tuple[str, dt.date]] = set()
    lineno = 1
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 3:
            raise DataError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        if ticker is not None and row[0].strip() != ticker:
            continue
        firm, date_text, price_text = (f.strip() for f in row)
        if not firm:
            raise DataError(f"{path}: line {lineno}: empty ticker")
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: invalid ISO date {date_text!r}")
        try:
            price = float(price_text)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: invalid price {price_text!r}")
        if not (math.isfinite(price) and price > 0):
            raise DataError(
                f"{path}: line {lineno}: non-positive price {price_text} for {firm}"
            )
        if (firm, date) in seen:
            raise DataError(f"{path}: line {lineno}: duplicate ({firm}, {date})")
        seen.add((firm, date))
        rows.setdefault(firm, []).append((date, price))
    if lineno == 1:
        raise DataError(f"{path}: no price rows after the header")
    out: dict[str, PriceSeries] = {}
    for firm in sorted(rows):
        dates, prices = zip(*sorted(rows[firm]))
        out[firm] = PriceSeries(firm, dates, prices)
    return out


def write_csv(universe: dict[str, PriceSeries], path) -> None:
    """Write per-ticker series back to the long CSV format, sorted by ticker then date."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ticker in sorted(universe):
            series = universe[ticker]
            # .tolist() gives dt.date and float; repr of a numpy float64 reads np.float64(...)
            for date, price in zip(series.dates.tolist(), series.prices.tolist()):
                writer.writerow([ticker, date.isoformat(), repr(price)])


def simple_returns(series: PriceSeries) -> ReturnSeries:
    """One-step fractional price changes, ``(p[k+1] - p[k]) / p[k]``."""
    prices = series.prices
    if len(prices) < 2:
        raise DataError(f"{series.ticker}: need at least 2 prices for returns, got {len(prices)}")
    return ReturnSeries(series.ticker, np.diff(prices) / prices[:-1])


def log_returns(series: PriceSeries) -> ReturnSeries:
    """One-step log price changes, ``ln(p[k+1] / p[k])``."""
    prices = series.prices
    if len(prices) < 2:
        raise DataError(f"{series.ticker}: need at least 2 prices for returns, got {len(prices)}")
    return ReturnSeries(series.ticker, np.diff(np.log(prices)))


def rolling_volatility(returns: ReturnSeries, window: int) -> np.ndarray:
    """Trailing sample standard deviation (divisor ``window - 1``) of returns,
    indexed like the returns.

    Entry ``j`` is the deviation of the ``window`` returns that end with return
    ``j``; it is NaN for ``j < window - 1``, before the window fills.  The
    array is read-only.
    """
    if window < 2:
        raise DataError(f"volatility window must be at least 2, got {window}")
    values = returns.values
    if len(values) < window:
        raise DataError(
            f"{returns.ticker}: window {window} exceeds return series length {len(values)}"
        )
    vol = np.full(len(values), np.nan)
    vol[window - 1:] = np.lib.stride_tricks.sliding_window_view(values, window).std(axis=1, ddof=1)
    vol.setflags(write=False)
    return vol


def fit_scaler(values) -> Scaler:
    """Mean and sample standard deviation of a sequence.

    A zero (or undefined) deviation is replaced by 1 so that applying the
    scaler to a flat series degenerates to mean-centering instead of dividing
    by zero.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DataError("cannot fit a scaler on an empty sequence")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
    if not (math.isfinite(std) and std > 0):
        std = 1.0
    return Scaler(mean, std)


def make_windows(
    series: PriceSeries,
    w: int,
    mode: WindowMode,
    train_end: int,
) -> tuple[np.ndarray, np.ndarray, Scaler]:
    """Every overlapping ``(w inputs, next value)`` pair over a firm's values,
    as read-only ``(inputs, targets, scaler)``.

    ``inputs[k]`` holds the ``w`` standardized values before value ``w + k``
    and ``targets[k]`` that value, standardized.

    Parameters
    ----------
    series:
        The firm's prices.
    w:
        Input window length.
    mode:
        Which values the windows range over (:meth:`WindowMode.values`).
    train_end:
        Exclusive index bounding the values the scaler may see.  Samples are
        still produced over the whole series; only standardization statistics
        are restricted.
    """
    values = mode.values(series)
    n = len(values)
    if w < 1:
        raise DataError(f"window length must be positive, got {w}")
    if n < w + 1:
        raise DataError(f"{series.ticker}: need at least {w + 1} values for windows, got {n}")
    if not (w + 1 <= train_end <= n):
        raise DataError(
            f"{series.ticker}: train_end must lie in [{w + 1}, {n}], got {train_end}"
        )
    scaler = fit_scaler(values[:train_end])
    standardized = scaler.apply(values)
    inputs = np.lib.stride_tricks.sliding_window_view(standardized, w)[:-1]
    targets = standardized[w:]
    return _frozen(inputs), _frozen(targets), scaler


# The ranges each synthetic firm draws its parameters from, uniformly, and
# the first date of every synthetic series.
_BASE_PRICE = (80.0, 160.0)
_STABLE_DRIFT = (0.02, 0.12)
_STABLE_NOISE = (0.2, 0.5)
_VOLATILE_NOISE = (0.035, 0.055)
_VOLATILE_AR_SCALE = (0.01, 0.03)
_VOLATILE_AR_GAIN = 10.0
_START_DATE = np.datetime64("2015-01-02", "D")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a two-regime synthetic universe.

    Stable firms follow a linear price drift plus low Gaussian noise; volatile
    firms follow a nonlinear autoregression in return space compounded into
    prices.  Noise scales are chosen so the 30-day rolling volatility of the
    two groups sits on opposite sides of 0.025.
    """

    n_stable: int = 8
    n_volatile: int = 8
    length: int = 300

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise DataError(f"synthetic series length must be positive, got {self.length}")
        if self.n_stable < 0 or self.n_volatile < 0:
            raise DataError("firm counts must be non-negative")


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    return float(low + (high - low) * rng.random())


def _stable_prices(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    base = _uniform(rng, *_BASE_PRICE)
    drift = _uniform(rng, *_STABLE_DRIFT)
    noise_sd = _uniform(rng, *_STABLE_NOISE)
    t = np.arange(spec.length, dtype=float)
    return base + drift * t + rng.normal(0.0, noise_sd, size=spec.length)


def _volatile_prices(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    base = _uniform(rng, *_BASE_PRICE)
    noise_sd = _uniform(rng, *_VOLATILE_NOISE)
    ar_scale = _uniform(rng, *_VOLATILE_AR_SCALE)
    shocks = rng.normal(0.0, noise_sd, size=spec.length - 1) if spec.length > 1 else np.empty(0)
    rets = np.empty(spec.length - 1)
    prev = 0.0
    for k in range(spec.length - 1):
        # bounded nonlinear feedback keeps the return process stationary
        prev = ar_scale * math.tanh(_VOLATILE_AR_GAIN * prev) + shocks[k]
        rets[k] = prev
    prices = np.empty(spec.length)
    prices[0] = base
    prices[1:] = base * np.exp(np.cumsum(rets))
    return prices


def generate_synthetic(spec: SyntheticSpec, seed: int) -> dict[str, PriceSeries]:
    """Deterministic two-regime universe keyed by ticker.

    Each firm draws from its own random stream derived from ``(seed, group,
    firm index)``, so regenerating with the same seed is bit-identical and
    adding firms never reshuffles existing ones.
    """
    dates = _START_DATE + np.arange(spec.length)
    universe: dict[str, PriceSeries] = {}
    for group, count, maker in (
        (0, spec.n_stable, _stable_prices),
        (1, spec.n_volatile, _volatile_prices),
    ):
        prefix = "STB" if group == 0 else "VOL"
        for idx in range(count):
            rng = np.random.default_rng(np.random.SeedSequence([seed, group, idx]))
            ticker = f"{prefix}{idx + 1:02d}"
            universe[ticker] = PriceSeries(ticker, dates, maker(spec, rng))
    return universe
