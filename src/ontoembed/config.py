"""Config files: plain-text ``key = value`` lines read into the frozen config
dataclasses. A dataclass's fields are its keys, each with its type and
default written once, on the field; range checks stay in the class's
``__post_init__``. Every field is an int, a finite float or a string.

Also here, so that every command can name them without loading the modules
that use them: the training hyperparameters (``TrainConfig``) and
``DomainError``, the base of every error the commands exit 2 on.
"""

from __future__ import annotations

import dataclasses
import math


class ConfigError(ValueError):
    """A bad config file; the one-line message names the file and the key,
    or the line."""


class DomainError(Exception):
    """The base of the package's domain and validation errors (ontology,
    checkpoint, evaluation, training, soup); a command exits 2 on one."""


def parse_kv_file(path) -> dict[str, str]:
    """Parse a plain-text UTF-8 ``key = value`` config file. '#' starts a
    comment; blank lines are skipped; a line that is not UTF-8, has no '='
    or repeats a key is rejected."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    with open(path, "rb") as fh:
        # bytes.splitlines ends lines at \n, \r and \r\n, as text mode does
        lines = fh.read().splitlines()
    for line_no, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from exc
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{line_no}: {key} is already set on line {line_of[key]}")
        out[key], line_of[key] = value, line_no
    return out


def read_config(path, allowed) -> dict[str, str]:
    """``parse_kv_file``, rejecting every key not in ``allowed``."""
    mapping = parse_kv_file(path)
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    return mapping


def _to_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# Keyed by ``field.type``, a string: the config classes' modules use
# ``from __future__ import annotations``.
_CASTS = {"int": int, "float": _to_float, "str": str, "str | None": str}


def config_keys(cls) -> tuple[str, ...]:
    """Every key of config dataclass ``cls``, in field order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def build_config(cls, mapping: dict[str, str], source="config", prefix: str = "",
                 base=None):
    """An instance of config dataclass ``cls`` from the string values of
    ``mapping``, read from the file ``source``. Each key is looked up as
    ``prefix + key``, then as ``key``; a key in neither keeps its value in
    ``base``, or its field default when ``base`` is None."""
    kwargs, from_file = {}, {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name if prefix + f.name in mapping else f.name
        if key in mapping:
            try:
                kwargs[f.name] = _CASTS[f.type](mapping[key])
            except ValueError as exc:
                raise ConfigError(f"{source}: {key}: {exc}") from exc
            from_file[f.name] = key
        elif base is not None:
            kwargs[f.name] = getattr(base, f.name)
    # Each __post_init__ check reads one field, so checking each value the
    # file sets on its own, over the field defaults, finds the key at fault.
    for name, key in from_file.items():
        try:
            cls(**{name: kwargs[name]})
        except ValueError as exc:
            raise ConfigError(f"{source}: {key}: {exc}") from exc
    return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Shared hyperparameters for all training regimes.

    The recorded defaults follow the reference setup (lr 2e-5, weight decay
    0.01, 5% warmup, batch 128); desk-scale runs usually override the
    learning rate upwards since the toy encoder is trained from scratch.
    """

    learning_rate: float = 2e-5
    weight_decay: float = 0.01
    warmup_fraction: float = 0.05
    epochs: int = 1
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        # the decay replay of untrained rows holds only for finite rates
        for name in ("learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not (0.0 <= self.warmup_fraction <= 1.0):
            raise ValueError("warmup_fraction must be in [0, 1]")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# Every key a training config file may set; every training phase reads them all.
TRAIN_CONFIG_KEYS = config_keys(TrainConfig)
