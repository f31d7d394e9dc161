"""Run configuration: a line-oriented ``section.key = value`` text format.

Absent keys fall back to the published defaults, each read from the type
or constant that uses it (``BacktestSettings``, ``TrainConfig``,
``HorizonSpec``, ``DEFAULT_GATE_TABLE``, ``SyntheticSpec``, ``regime``'s
rule constants); the registry holds only the rest (the 80/20/20
walk-forward geometry, ``holdout.k``, ``report.dir``, the synthetic firm
counts).  Unknown keys and out-of-domain values are rejected
with the offending key named.  The canonical serialization of a resolved
configuration is hashed into a fingerprint that every output file embeds.

``vol.policy`` and ``vol.window`` are contextual: left unset, they are None,
single-shot classification uses the 30-day threshold rule while the
walk-forward backtest uses the 21-day cross-sectional median rule, and the
keys stay out of the canonical serialization so that behaviour survives a
round trip.  No set value parses to None, so None is what marks them unset.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigError
from .evaluation import BacktestSettings, HorizonSpec, TrainMode
from .lstm_expert import TrainConfig
from .market_data import SyntheticSpec, WindowMode
from .moe import DEFAULT_GATE_TABLE
from .regime import (
    DEFAULT_MEDIAN_WINDOW,
    DEFAULT_TAU,
    DEFAULT_THRESHOLD_WINDOW,
    PolicyKind,
    RegimeLabel,
    RegimePolicy,
)

__all__ = ["RunConfig", "parse_config", "parse_config_text"]


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}")


def _parse_horizons(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise ConfigError("horizon list is empty")
    # HorizonSpec's rule, so that equal runs get one spelling and one fingerprint
    return tuple(sorted(set(values)))


def _parse_clip(text: str) -> float | None:
    if text.strip().lower() == "off":
        return None
    return _parse_float(text)


@dataclass(frozen=True)
class _Kind:
    """How one kind of value is read, bounded and written back."""

    parse: Callable[[str], Any]
    domain: str
    check: Callable[[Any], bool]
    fmt: Callable[[Any], str] = str


def _integer(low: int) -> _Kind:
    return _Kind(_parse_int, f"integer >= {low}", lambda v: v >= low)


def _choice(kind: type[enum.Enum]) -> _Kind:
    choices = tuple(member.value for member in kind)
    return _Kind(str.strip, " | ".join(choices), lambda v: v in choices)


_INT_GE_0, _INT_GE_1, _INT_GE_2 = _integer(0), _integer(1), _integer(2)
_POSITIVE = _Kind(_parse_float, "real > 0", lambda v: v > 0, repr)
_OPEN_UNIT = _Kind(_parse_float, "real in (0, 1)", lambda v: 0 < v < 1, repr)
_UNIT = _Kind(_parse_float, "real in [0, 1]", lambda v: 0 <= v <= 1, repr)
_CLIP = _Kind(
    _parse_clip, "real > 0 or 'off'", lambda v: v is None or v > 0,
    lambda v: "off" if v is None else repr(v),
)
_HORIZONS = _Kind(
    _parse_horizons, "comma-separated integers >= 2", lambda v: all(h >= 2 for h in v),
    lambda v: ",".join(str(h) for h in v),
)
_FILE = _Kind(str.strip, "file path", lambda v: True)
_DIRECTORY = _Kind(str.strip, "directory path", lambda v: True)


@dataclass(frozen=True)
class _Key:
    name: str
    kind: _Kind
    default: Any
    contextual: bool = False  # default None, and omitted from serialization while None


_SETTINGS = BacktestSettings()
_TRAIN = TrainConfig()

_REGISTRY: tuple[_Key, ...] = (
    _Key("data.path", _FILE, ""),
    _Key("data.mode", _choice(WindowMode), _SETTINGS.mode.value),
    _Key("window.length", _INT_GE_1, _SETTINGS.window),
    _Key("vol.policy", _choice(PolicyKind), None, contextual=True),
    _Key("vol.window", _INT_GE_2, None, contextual=True),
    _Key("vol.tau", _POSITIVE, DEFAULT_TAU),
    _Key("wf.init_train", _INT_GE_1, 80),
    _Key("wf.val_len", _INT_GE_1, 20),
    _Key("wf.step", _INT_GE_1, 20),
    _Key("wf.mode", _choice(TrainMode), TrainMode.SLIDING.value),
    _Key("train.learning_rate", _POSITIVE, _TRAIN.learning_rate),
    _Key("train.batch_size", _INT_GE_1, _TRAIN.batch_size),
    _Key("train.max_epochs", _INT_GE_1, _TRAIN.max_epochs),
    _Key("train.patience", _INT_GE_1, _TRAIN.patience),
    _Key("train.adam_beta1", _OPEN_UNIT, _TRAIN.adam_beta1),
    _Key("train.adam_beta2", _OPEN_UNIT, _TRAIN.adam_beta2),
    _Key("train.adam_eps", _POSITIVE, _TRAIN.adam_eps),
    _Key("train.hidden_units", _INT_GE_1, _SETTINGS.hidden),
    _Key("train.clip_norm", _CLIP, _TRAIN.clip_norm),
    _Key("gate.volatile.w_rnn", _UNIT, DEFAULT_GATE_TABLE[RegimeLabel.VOLATILE]),
    _Key("gate.stable.w_rnn", _UNIT, DEFAULT_GATE_TABLE[RegimeLabel.STABLE]),
    _Key("horizons", _HORIZONS, _SETTINGS.horizons.horizons),
    _Key("holdout.k", _INT_GE_0, 10),
    _Key("seed", _INT_GE_0, _SETTINGS.seed),
    _Key("report.dir", _DIRECTORY, "reports"),
    _Key("synth.stable_firms", _INT_GE_0, 15),
    _Key("synth.volatile_firms", _INT_GE_0, 15),
    _Key("synth.length", _INT_GE_1, SyntheticSpec().length),
)

_BY_NAME = {key.name: key for key in _REGISTRY}

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: every key's value, set or default."""

    values: dict[str, Any]

    def __getitem__(self, name: str) -> Any:
        return self.values[name]

    # -- resolution helpers ------------------------------------------------

    def _policy(self, default_kind: str) -> RegimePolicy:
        kind = self.values["vol.policy"] or default_kind
        window = self.values["vol.window"]  # None when unset, else at least 2
        if kind == "threshold":
            return RegimePolicy.threshold(
                window or DEFAULT_THRESHOLD_WINDOW, self.values["vol.tau"]
            )
        return RegimePolicy.median(window or DEFAULT_MEDIAN_WINDOW)

    def policy_for_backtest(self) -> RegimePolicy:
        return self._policy("median")

    def policy_for_classify(self) -> RegimePolicy:
        return self._policy("threshold")

    def train_mode(self) -> TrainMode:
        return TrainMode(self.values["wf.mode"])

    def gate_table(self) -> dict[RegimeLabel, float]:
        return {
            RegimeLabel.VOLATILE: self.values["gate.volatile.w_rnn"],
            RegimeLabel.STABLE: self.values["gate.stable.w_rnn"],
        }

    def backtest_settings(self) -> BacktestSettings:
        return BacktestSettings(
            window=self.values["window.length"],
            mode=WindowMode(self.values["data.mode"]),
            train=TrainConfig(**{
                f.name: self.values[f"train.{f.name}"] for f in dataclasses.fields(TrainConfig)
            }),
            hidden=self.values["train.hidden_units"],
            gate_table=self.gate_table(),
            horizons=HorizonSpec(self.values["horizons"]),
            seed=self.values["seed"],
        )

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            n_stable=self.values["synth.stable_firms"],
            n_volatile=self.values["synth.volatile_firms"],
            length=self.values["synth.length"],
        )

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: registry order, one ``key = value`` per line.

        Contextual keys are emitted only when set (a set one never parses to
        None), so parsing the serialization reproduces this configuration
        exactly, including its context-dependent defaults.
        """
        lines = []
        for key in _REGISTRY:
            if key.contextual and self.values[key.name] is None:
                continue
            lines.append(f"{key.name} = {key.kind.fmt(self.values[key.name])}")
        return "\n".join(lines) + "\n"

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    @property
    def short_fingerprint(self) -> str:
        return self.fingerprint[:12]


def parse_config_text(
    text: str, source: str = "<config>", seed_override: int | None = None
) -> RunConfig:
    """Parse ``key = value`` lines; blank lines and ``#`` comments are ignored.

    ``seed_override`` replaces the seed when given.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value', got {line!r}")
        name, _, value_text = stripped.partition("=")
        name = name.strip()
        if name not in _BY_NAME:
            raise ConfigError(f"{source}: line {lineno}: unknown key {name!r}")
        if name in raw:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {name!r}")
        raw[name] = value_text.strip()
    values: dict[str, Any] = {}
    for key in _REGISTRY:
        if key.name in raw:
            try:
                value = key.kind.parse(raw[key.name])
            except ConfigError as exc:
                raise ConfigError(f"{source}: key {key.name}: {exc}")
            if not key.kind.check(value):
                raise ConfigError(
                    f"{source}: key {key.name}: value {raw[key.name]!r} "
                    f"outside domain ({key.kind.domain})"
                )
            values[key.name] = value
        else:
            values[key.name] = key.default
    if values["train.patience"] > values["train.max_epochs"]:
        raise ConfigError(
            f"{source}: key train.patience: value {values['train.patience']} exceeds "
            f"train.max_epochs = {values['train.max_epochs']}"
        )
    if seed_override is not None:
        seed = _BY_NAME["seed"].kind
        if not seed.check(seed_override):
            raise ConfigError(f"--seed: value {seed_override} outside domain ({seed.domain})")
        values["seed"] = seed_override
    return RunConfig(values)


def parse_config(path, seed_override: int | None = None) -> RunConfig:
    """Read a configuration file; ``seed_override`` replaces the seed when given."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config_text(text, source=str(path), seed_override=seed_override)
