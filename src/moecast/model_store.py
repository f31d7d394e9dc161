"""Persistence for fitted experts, keyed by (ticker, fold).

The store is a single ``.npz`` archive: large numeric payloads live as
float64 arrays (preserved bit-exactly) and scalar context travels in a JSON
manifest whose floats round-trip through ``repr``.  Loading a store therefore
reproduces every prediction bit-for-bit, which the tests assert.

``moecast forecast`` loads one ticker's part of the store: every manifest
entry is checked, but only one fold's ten LSTM arrays are read, those of
the ticker's last fold or, for a ticker without folds, the pooled experts.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib.npyio import NpzFile

from .errors import DataError
from .evaluation import FoldModels, PooledExperts
from .linear_expert import LinearParams
from .lstm_expert import PARAM_FIELDS, LstmParams
from .market_data import Scaler, WindowMode
from .regime import RegimeLabel

__all__ = ["ModelStore"]

_FORMAT_VERSION = 1


def _experts_entry(lstm: LstmParams, linear: LinearParams, arrays: list[np.ndarray]) -> dict:
    """The manifest fields of one pair of experts; the LSTM's arrays are
    appended to ``arrays`` and named by their indices there."""
    fields = {}
    for name, arr in lstm.arrays().items():
        fields[name] = len(arrays)
        arrays.append(arr)
    return {"lstm": fields, "linear": [linear.beta0, linear.beta1, linear.beta2]}


def _typed(record: dict, name: str, kind: type):
    """``record[name]``, which must be a ``kind``; a bool is not an int here."""
    value = record[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _items(record: dict, name: str, kind: type, count: int | None = None) -> list:
    """``record[name]``, which must be a list of ``kind`` values, ``count`` of
    them when given; no other type passes, so no int or bool for a float."""
    value = record[name]
    if not (isinstance(value, list) and count in (None, len(value))
            and all(type(v) is kind for v in value)):
        size = "" if count is None else f"{count} "
        raise TypeError(f"{name} must be a list of {size}{kind.__name__}, got {value!r}")
    return value


def _experts_from_entry(entry: dict, archive, read: bool) -> tuple[LstmParams | None, LinearParams]:
    """The entry's experts.  Its LSTM's members must exist either way, but
    they are read only if ``read``; else the LSTM is None."""
    members = {name: f"a{_typed(entry['lstm'], name, int)}" for name in PARAM_FIELDS}
    for member in members.values():
        if member not in archive:
            raise KeyError(f"{member} is not a file in the archive")
    lstm = LstmParams.from_arrays({n: archive[m] for n, m in members.items()}) if read else None
    return lstm, LinearParams(*_items(entry, "linear", float, 3))


@dataclass
class ModelStore:
    """In-memory collection of fitted models plus the config fingerprint."""

    fingerprint: str
    fold_models: dict[tuple[str, int], FoldModels]
    pooled: PooledExperts | None = None

    def save(self, path) -> None:
        arrays: list[np.ndarray] = []
        entries = []
        for (ticker, fold_id) in sorted(self.fold_models):
            fm = self.fold_models[(ticker, fold_id)]
            entries.append(
                {
                    "ticker": ticker,
                    "fold": fold_id,
                    **_experts_entry(fm.lstm, fm.linear, arrays),
                    "scaler": [fm.scaler.mean, fm.scaler.std],
                    "sigma": fm.sigma,
                    "regime": fm.regime.value,
                    "launch_t": fm.launch_t,
                    "window": fm.window,
                    "mode": fm.mode.value,
                }
            )
        pooled_entry = None
        if self.pooled is not None:
            pooled_entry = {
                **_experts_entry(self.pooled.lstm, self.pooled.linear, arrays),
                "launch_t": self.pooled.launch_t,
                "training_tickers": list(self.pooled.training_tickers),
                "decision_sigma": self.pooled.decision_sigma,
            }
        manifest = json.dumps(
            {
                "version": _FORMAT_VERSION,
                "fingerprint": self.fingerprint,
                "entries": entries,
                "pooled": pooled_entry,
            },
            sort_keys=True,
        )
        payload = {f"a{k}": arr for k, arr in enumerate(arrays)}
        np.savez(path, manifest=np.array(manifest), **payload)

    @classmethod
    def load(cls, path, ticker: str | None = None) -> "ModelStore":
        """The store at ``path``; with a ``ticker``, only the experts that
        forecasting it uses: its last fold, or the pooled experts when it has
        no folds.  Every manifest entry is checked either way."""
        # what an unreadable file raises: a missing one OSError, any other
        # that is no zip archive (an empty, truncated or bare .npy file)
        # BadZipFile; a missing manifest KeyError
        try:
            archive = NpzFile(path)
        except (OSError, zipfile.BadZipFile) as exc:
            raise DataError(f"cannot read model store {path}: {exc}")
        with archive:
            try:
                manifest = json.loads(str(archive["manifest"]))
            except (ValueError, LookupError, zipfile.BadZipFile) as exc:
                raise DataError(f"cannot read model store {path}: {exc}")
            if not isinstance(manifest, dict):
                raise DataError(
                    f"cannot read model store {path}: the manifest is not a JSON object")
            if manifest.get("version") != _FORMAT_VERSION:
                raise DataError(f"cannot read model store {path}: "
                                f"unsupported version {manifest.get('version')!r}")
            # a manifest of the right version but the wrong shape: a missing key
            # raises KeyError, a field of the wrong type TypeError or
            # AttributeError, a value out of its domain ValueError
            try:
                return cls._from_manifest(manifest, archive, ticker)
            except (LookupError, TypeError, AttributeError, ValueError) as exc:
                raise DataError(
                    f"cannot read model store {path}: malformed manifest "
                    f"({type(exc).__name__}: {exc})"
                )

    @classmethod
    def _from_manifest(cls, manifest: dict, archive, ticker: str | None) -> "ModelStore":
        entries = manifest["entries"]
        keys = [(_typed(entry, "ticker", str), _typed(entry, "fold", int)) for entry in entries]
        # every entry is checked, but only the kept ones' LSTMs are read
        last = max((key for key in keys if key[0] == ticker), default=None)
        keep = set(keys) if ticker is None else {last}
        fold_models: dict[tuple[str, int], FoldModels] = {}
        for key, entry in zip(keys, entries):
            lstm, linear = _experts_from_entry(entry, archive, key in keep)
            fm = FoldModels(
                lstm=lstm,
                linear=linear,
                scaler=Scaler(*_items(entry, "scaler", float, 2)),
                sigma=_typed(entry, "sigma", float),
                regime=RegimeLabel(entry["regime"]),
                launch_t=_typed(entry, "launch_t", int),
                window=_typed(entry, "window", int),
                mode=WindowMode(entry["mode"]),
            )
            # a forecast launches at launch_t from the window values before it
            if not 1 <= fm.window <= fm.launch_t:
                raise ValueError(f"window must lie in [1, launch_t={fm.launch_t}], "
                                 f"got {fm.window}")
            if key in keep:
                fold_models[key] = fm
        pooled = None
        if manifest["pooled"] is not None:
            pe = manifest["pooled"]
            read = ticker is None or not fold_models  # a ticker with folds needs no pool
            lstm, linear = _experts_from_entry(pe, archive, read)
            pooled = PooledExperts(
                lstm=lstm,
                linear=linear,
                launch_t=_typed(pe, "launch_t", int),
                training_tickers=tuple(_items(pe, "training_tickers", str)),
                decision_sigma=(None if pe["decision_sigma"] is None
                                else _typed(pe, "decision_sigma", float)),
            )
            if pooled.launch_t < 1:
                raise ValueError(f"pooled launch_t must be >= 1, got {pooled.launch_t}")
            pooled = pooled if read else None
        return cls(_typed(manifest, "fingerprint", str), fold_models, pooled)

    def folds_for(self, ticker: str) -> list[int]:
        return sorted(fold for (t, fold) in self.fold_models if t == ticker)
