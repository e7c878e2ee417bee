"""Config files: plain-text ``key = value`` lines read into the frozen config
dataclasses. A dataclass's fields are its keys, each with its type and
default written once, on the field; range checks stay in the class's
``__post_init__``. Every field is an int, a finite float or a string.
"""

from __future__ import annotations

import dataclasses
import math


class ConfigError(ValueError):
    """A bad config file; the one-line message names the file and the key,
    or the line."""


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
