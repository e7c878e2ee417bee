"""Config files: plain-text ``key = value`` lines read into the frozen config
dataclasses. A dataclass's fields are its keys, each with its type and
default written once, on the field; range checks stay in the class's
``__post_init__``. Every field is an int, a finite float or a string.

Also here, so that every command can name them without loading the modules
that use them: the training hyperparameters (``TrainConfig``), ``DomainError``
(the base of every error the commands exit 2 on), the one reader of every
input line file and the one atomic writer of every output file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import tempfile


class ConfigError(ValueError):
    """A bad config file; the one-line message names the file and the key,
    or the line."""


class DomainError(Exception):
    """The base of the package's domain and validation errors (ontology,
    checkpoint, evaluation, training, soup); a command exits 2 on one."""


class ParseError(DomainError):
    """A malformed line of an input file; the message names the file and line."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def _read_lines(path, read_line) -> None:
    """Call ``read_line(line_no, line)`` on each line of the UTF-8 file at
    ``path`` in file order, past a byte order mark that starts it. A line
    that is not UTF-8, or that ``read_line`` rejects with KeyError, TypeError,
    ValueError or RecursionError, raises ParseError naming ``path`` and it."""
    with open(path, "rb") as fh:
        # bytes.splitlines ends lines at \n, \r and \r\n, as text mode does
        lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines()
    for line_no, raw in enumerate(lines, 1):
        try:
            read_line(line_no, raw.decode("utf-8"))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            reason = f"invalid JSON: {exc.msg}" if isinstance(exc, json.JSONDecodeError) \
                else str(exc)
            raise ParseError(path, line_no, reason) from exc


def read_records(path, parse, columns: int | None = None) -> list:
    """The records of the UTF-8 line file at ``path``, in file order.

    With ``columns`` set the file is a TSV: each line must split into exactly
    that many tab-separated fields, and ``parse(*fields)`` makes its record;
    a line is blank only when it is empty. Otherwise the file is JSONL:
    ``parse(value)`` makes a record from each line's JSON value, and a line
    of whitespace is blank. Blank lines are skipped. A line that is not
    UTF-8, not valid (JSON nested too deep to decode included), or that
    ``parse`` rejects with KeyError, TypeError or ValueError raises
    ParseError naming ``path`` and the line.
    """
    records = []

    def read_line(line_no: int, line: str) -> None:
        if columns is None:
            line = line.strip()
            if line:
                records.append(parse(json.loads(line)))
        elif line:
            fields = line.split("\t")
            if len(fields) != columns:
                raise ValueError(f"expected {columns} tab-separated columns, got {len(fields)}")
            records.append(parse(*fields))

    _read_lines(path, read_line)
    return records


_REQUIRED = object()
_JSON_KINDS = {str: "a string", dict: "an object", float: "a number",
               (str,): "a list of strings", (dict,): "a list of objects"}


def _is_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return type(value) is list and all(type(v) is kind[0] for v in value)
    return type(value) in ((int, float) if kind is float else (kind,))


def json_field(obj, key: str, kind=str, default=_REQUIRED):
    """``obj[key]`` of the decoded JSON object ``obj``, which must be of
    ``kind``: ``str``, ``dict``, ``float`` for any number, or ``(str,)`` and
    ``(dict,)`` for a list of strings or objects. A missing key gives
    ``default``, or ValueError when there is none; a value of another kind
    raises TypeError. Nothing is coerced."""
    if type(obj) is not dict:
        raise TypeError("expected a JSON object")
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"missing {key!r}")
        return default
    if not _is_kind(obj[key], kind):
        raise TypeError(f"{key!r} must be {_JSON_KINDS[kind]}")
    return obj[key]


@contextlib.contextmanager
def atomic_output(path):
    """Yield a binary file handle on a temporary file next to ``path``; the
    file is renamed onto ``path`` when the block succeeds and deleted when
    it raises."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def parse_kv_file(path) -> dict[str, str]:
    """Parse a plain-text UTF-8 ``key = value`` config file. '#' starts a
    comment; blank lines are skipped; a line that is not UTF-8, has no '='
    or repeats a key is rejected."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}

    def read_line(line_no: int, line: str) -> None:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            return
        if "=" not in stripped:
            raise ValueError("expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in out:
            raise ValueError(f"{key} is already set on line {line_of[key]}")
        out[key], line_of[key] = value, line_no

    try:
        _read_lines(path, read_line)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
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
