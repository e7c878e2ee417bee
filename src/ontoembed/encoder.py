"""A small text encoder built from scratch on numpy.

Architecture: seeded-hash token table -> mean pooling -> tanh hidden layer ->
linear output layer -> unit normalization. Everything is float64 and fully
deterministic, and the backward pass is written out analytically so gradients
can be checked against finite differences.

An optional linear head (used only while regressing onto distillation
targets) rides along inside ``Params``; ``encode_batch`` ignores it.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import build_config, config_keys

CHECKPOINT_MAGIC = b"OEMBCKPT"
CHECKPOINT_VERSION = 1

PHASES = (
    "base",
    "sts_adapted",
    "contrastive",
    "self_distilled",
    "souped",
    "xlingual_student",
)

# Guard against the zero-vector singularity of unit normalization.
NORM_GUARD = 1e-8

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class CheckpointError(Exception):
    """Base class for checkpoint I/O failures."""


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class NonFiniteOutput(ValueError):
    """The output norm of the text in batch row ``row`` is not finite."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"output norm of batch row {row} is not finite")


@dataclass(frozen=True)
class EncoderConfig:
    """Shape and seeding of one encoder instance.

    Two configs are soup-compatible iff they agree on everything except
    ``init_seed``.
    """

    vocab_buckets: int = 32768
    embed_dim: int = 64
    hidden_dim: int = 128
    output_dim: int = 128
    hash_seed: int = 0
    init_seed: int = 0
    init_scale: float = 0.05

    def __post_init__(self):
        for name in ("vocab_buckets", "embed_dim", "hidden_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # the weights are drawn from [-init_scale, init_scale], whose width must be finite
        if not 0 <= self.init_scale <= np.finfo(float).max / 2:
            raise ValueError(f"init_scale must be in [0, {np.finfo(float).max / 2:.4g}]")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")

    def soup_compatible(self, other: "EncoderConfig") -> bool:
        return replace(self, init_seed=other.init_seed) == other

    def base_param_count(self) -> int:
        v, e, h, o = self.vocab_buckets, self.embed_dim, self.hidden_dim, self.output_dim
        return v * e + e * h + h + h * o + o

    def to_dict(self) -> dict:
        return asdict(self)


ENCODER_CONFIG_KEYS = config_keys(EncoderConfig)


def config_from_mapping(mapping: dict[str, str], defaults: "EncoderConfig | None" = None,
                        source="config") -> "EncoderConfig":
    """The EncoderConfig that the encoder keys of a config file's ``mapping``
    set; keys it lacks keep their value in ``defaults`` (the field defaults
    when None), and other keys are ignored."""
    return build_config(EncoderConfig, mapping, source, base=defaults)


_TENSOR_NAMES = ("token_table", "w1", "b1", "w2", "b2", "head_w", "head_b")


def _tensor(name: str) -> property:
    """A named view into ``Params.flat``; assigning copies into the view."""
    def assign(self, value):
        value, view = np.asarray(value, dtype=float), self._views.get(name)
        if view is None or value.shape != view.shape:
            raise ValueError(f"cannot assign shape {value.shape} to {name}")
        view[...] = value
    return property(lambda self: self._views.get(name), assign)


class Params:
    """The complete parameter set of one encoder instance.

    Every tensor is a view into one contiguous float64 vector ``flat``,
    laid out in canonical flatten order: token_table (row-major), w1, b1,
    w2, b2, then head_w and head_b when a distillation head is attached.
    Assigning a tensor copies into its view, so ``flat`` always holds the
    current values. ``Params(flat, shapes)`` wraps ``flat`` without copying
    it, each tensor a view of the next ``shapes`` entry in that order.
    """

    token_table, w1, b1, w2, b2, head_w, head_b = map(_tensor, _TENSOR_NAMES)

    def __init__(self, flat: np.ndarray, shapes: list[tuple[int, ...]]):
        self.flat = flat
        self._views: dict[str, np.ndarray] = {}
        pos = 0
        for name, shape in zip(_TENSOR_NAMES, shapes):
            n = math.prod(shape)
            self._views[name] = flat[pos:pos + n].reshape(shape)
            pos += n
        if pos != flat.size:
            raise ValueError(f"vector length {flat.size} does not match shapes {shapes}")

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return [view.shape for view in self._views.values()]

    @property
    def has_head(self) -> bool:
        return "head_w" in self._views

    @property
    def head_dim(self) -> int | None:
        return self.head_w.shape[1] if self.has_head else None

    def tensor_items(self) -> list[tuple[str, np.ndarray]]:
        return list(self._views.items())

    def copy(self) -> "Params":
        return Params(self.flat.copy(), self.shapes)

    def take_rows(self, rows: np.ndarray) -> "Params":
        """A copy of these params whose token table holds only the rows
        ``rows``, in that order."""
        table = self.token_table
        shapes = [(len(rows), table.shape[1])] + self.shapes[1:]
        return Params(np.concatenate([table[rows].ravel(), self.flat[table.size:]]), shapes)

    def without_head(self) -> "Params":
        """The encoder part of these params, sharing their memory."""
        views = list(self._views.values())[:5]
        return Params(self.flat[:sum(v.size for v in views)], [v.shape for v in views])


def tokenize(config: EncoderConfig, text: str) -> list[int]:
    """Lowercase, split on runs of non-alphanumerics, hash into buckets.

    The hash is seeded FNV-1a over each token's UTF-8 bytes, modulo
    ``vocab_buckets``, so the mapping is identical on every platform.
    """
    return tokenize_batch(config, [text]).ids.tolist()


@dataclass(frozen=True)
class Tokens:
    """The token ids of a list of texts in CSR layout: text i's ids, in
    token order, are ``ids[offsets[i]:offsets[i + 1]]``. ``ids`` index the
    rows of the token table they are pooled from."""

    ids: np.ndarray
    offsets: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, index) -> "Tokens":
        """The token lists of the texts ``index`` names, in that order."""
        index = np.asarray(index, dtype=np.intp)
        lengths = self.lengths[index]
        offsets = np.zeros(len(index) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        shift = np.repeat(self.offsets[index] - offsets[:-1], lengths)
        return Tokens(self.ids[np.arange(offsets[-1]) + shift], offsets)


def tokenize_batch(config: EncoderConfig, texts: list[str]) -> Tokens:
    """``tokenize`` of every text in ``texts``, as one ``Tokens``.

    Each distinct token is numbered when first seen and hashed once, all
    together, so the result depends on nothing but the arguments.
    """
    numbers: dict[str, int] = {}
    setdefault = numbers.setdefault
    codes: list[int] = []
    lengths: list[int] = []
    for text in texts:
        tokens = _TOKEN_RE.findall(text.lower())
        lengths.append(len(tokens))
        codes += [setdefault(tok, len(numbers)) for tok in tokens]
    offsets = np.zeros(len(texts) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    buckets = _fnv1a64(list(numbers), config.hash_seed) % np.uint64(config.vocab_buckets)
    return Tokens(buckets.astype(np.intp).take(np.array(codes, dtype=np.intp)), offsets)


def _fnv1a64(tokens: list[str], seed: int) -> np.ndarray:
    """Seeded 64-bit FNV-1a of each token's UTF-8 bytes, as uint64.

    The tokens run longest first, so the hashes still reading a byte at
    position j are a prefix of ``h``, updated together; numpy's uint64
    products wrap modulo 2**64. Each step gathers one byte of each running
    token from the concatenated buffer, so memory is linear in the bytes.
    The bytes only the longest token reaches are hashed with Python ints:
    for one token, a numpy step per byte costs far more than it saves.
    """
    encoded = [tok.encode("utf-8") for tok in tokens]
    sizes = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    order = np.argsort(-sizes, kind="stable")
    ranked, pos = sizes[order], (np.cumsum(sizes) - sizes)[order]
    shared = int(ranked[1]) if len(ranked) > 1 else 0
    # running[j]: how many tokens are longer than j bytes
    running = np.searchsorted(-ranked, -np.arange(shared))
    h = np.full(len(tokens), _FNV_OFFSET ^ (seed & _MASK64), dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for n in running.tolist():
        head, at = h[:n], pos[:n]
        head ^= data.take(at)
        head *= prime
        at += 1
    if len(tokens):
        x = int(h[0])
        for b in data[pos[0]:pos[0] + ranked[0] - shared].tolist():
            x = ((x ^ b) * _FNV_PRIME) & _MASK64
        h[0] = x
    out = np.empty_like(h)
    out[order] = h
    return out


def init_params(config: EncoderConfig) -> Params:
    """Draw fresh parameters: weights uniform in [-init_scale, +init_scale],
    biases zero. Determined entirely by ``config.init_seed``."""
    rng = np.random.default_rng(config.init_seed)
    s = config.init_scale
    v, e, h, o = config.vocab_buckets, config.embed_dim, config.hidden_dim, config.output_dim
    try:
        flat = np.zeros(config.base_param_count())
    except MemoryError:
        raise ValueError(f"cannot allocate the {config.base_param_count()} parameters of "
                         f"vocab_buckets {v}, embed_dim {e}, hidden_dim {h}, "
                         f"output_dim {o}") from None
    # token_table and w1 are adjacent in the flat layout: one draw fills both.
    # numpy's uniform(-s, s) is -s + (s - -s) * random(), here made in place
    for weights in (flat[:v * e + e * h], flat[v * e + e * h + h:-o]):
        rng.random(out=weights)
        weights *= s - -s
        weights += -s
    return unflatten(config, flat)


def attach_head(params: Params, config: EncoderConfig, target_dim: int, seed: int) -> Params:
    """Return a copy of ``params`` with a freshly seeded linear head
    (output_dim x target_dim weights, zero bias) attached."""
    rng = np.random.default_rng(seed)
    s = config.init_scale
    return unflatten(config, np.concatenate([
        params.without_head().flat,
        rng.uniform(-s, s, size=config.output_dim * target_dim), np.zeros(target_dim),
    ]))


@dataclass
class Forward:
    """One batch's forward pass: the output rows plus what the backward pass
    reads. ``ids`` concatenates every text's token ids, ``text_of`` names the
    text each id belongs to, ``counts`` is tokens per text, at least 1, and
    ``norms`` is each row's norm before normalization, at least NORM_GUARD."""

    out: np.ndarray
    ids: np.ndarray
    text_of: np.ndarray
    counts: np.ndarray
    pooled: np.ndarray
    h: np.ndarray
    norms: np.ndarray


def _matmul_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with each row rounded the same whatever the batch size.
    numpy hands a one-row ``x`` to BLAS gemv, which sums in a different order
    from the gemm taller batches get, so a lone row is computed as two."""
    return x @ w if len(x) != 1 else (np.vstack([x, x]) @ w)[:1]


def _gather_sums(source: np.ndarray, gather: np.ndarray, index: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """``out[index[i]] += source[gather[i]]`` for each i in order, with
    ``out`` first set to zero, and return ``out``: the additions
    ``np.add.at`` makes, in its order, as one ``np.bincount`` per column, so
    no (len(index), width) array is ever built."""
    for j in range(source.shape[1]):
        out[:, j] = np.bincount(index, weights=source[:, j][gather], minlength=len(out))
    return out


def forward_tokens(params: Params, tokens: Tokens) -> Forward:
    """The network's one forward pass, over a batch of tokenized texts whose
    ids index ``params.token_table``.

    Mean pooling sums each text's token rows by ``_gather_sums`` and divides
    by the token counts: the same additions, in the same order, as each
    text's ``token_table[ids].mean(axis=0)``. A text whose output norm is
    not finite (its squares overflow) raises NonFiniteOutput naming its row.
    """
    lengths = tokens.lengths
    text_of = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.maximum(lengths, 1)
    pooled = _gather_sums(params.token_table, tokens.ids, text_of,
                          np.empty((len(lengths), params.token_table.shape[1])))
    pooled /= counts[:, None]
    h = np.tanh(_matmul_rows(pooled, params.w1) + params.b1)
    z = _matmul_rows(h, params.w2) + params.b2
    with np.errstate(over="ignore"):
        raw_norms = np.linalg.norm(z, axis=1)
    overflowed = np.flatnonzero(~np.isfinite(raw_norms))
    if len(overflowed):
        raise NonFiniteOutput(int(overflowed[0]))
    norms = np.maximum(raw_norms, NORM_GUARD)
    return Forward(z / norms[:, None], tokens.ids, text_of, counts, pooled, h, norms)


def encode_batch(params: Params, config: EncoderConfig, texts: list[str]) -> np.ndarray:
    """Embed a list of texts as unit rows of a (len(texts), output_dim) matrix.

    Each row depends only on its own text, bit for bit, so a list may be
    encoded whole or in any split. Empty text (no tokens, zero biases) is
    the one permitted non-unit output: the zero vector, produced by the
    1e-8 norm guard. A distillation head in ``params`` is ignored.
    """
    return forward_tokens(params, tokenize_batch(config, texts)).out


def backward_batch(
    params: Params, config: EncoderConfig, texts: list[str], output_grads: np.ndarray,
    forward: Forward, out: Params | None = None,
) -> Params:
    """Exact gradient of ``sum(forward.out * output_grads)`` w.r.t. every
    parameter, backpropagated from ``forward``, the ``forward_tokens`` of the
    same params over the ``tokenize_batch`` of ``texts``, as a ``Params``
    shaped like ``params``. Token rows no text in the batch holds are +0.0,
    and so are the head's slots when ``params`` carry one.

    With ``out``, a ``Params`` shaped like ``params``, the gradient is
    written into ``out`` and ``out`` is returned: each encoder tensor is
    assigned whole and only the batch's token rows are written, so ``out``'s
    other token rows must already be +0.0, and its head slots are left as
    they are."""
    output_grads = np.asarray(output_grads, dtype=float)
    if output_grads.shape != (len(texts), config.output_dim):
        raise ValueError("output_grads shape must be (len(texts), output_dim)")
    if len(forward.out) != len(texts):
        raise ValueError("forward must be the forward pass of texts")
    if not np.isfinite(output_grads).all():
        raise ValueError("output_grads must be finite")
    f = forward

    # d(out . g)/dz: through z/||z|| when above the guard, else z/1e-8 is
    # linear in z so the gradient is g / guard.
    dot = np.sum(f.out * output_grads, axis=1)
    grad_z = np.where(
        (f.norms > NORM_GUARD)[:, None],
        (output_grads - f.out * dot[:, None]) / f.norms[:, None],
        output_grads / NORM_GUARD,
    )

    grad = Params(np.zeros_like(params.flat), params.shapes) if out is None else out
    grad.w2 = f.h.T @ grad_z
    grad.b2 = grad_z.sum(axis=0)
    grad_h = grad_z @ params.w2.T
    grad_a = (1.0 - f.h * f.h) * grad_h
    grad.w1 = f.pooled.T @ grad_a
    grad.b1 = grad_a.sum(axis=0)
    grad_pooled = grad_a @ params.w1.T
    # each of the batch's rows sums its terms in token order from 0.0, as a
    # scatter over the whole table would, but only those rows are built
    rows, local = np.unique(f.ids, return_inverse=True)
    grad.token_table[rows] = _gather_sums(grad_pooled / f.counts[:, None], f.text_of, local,
                                          np.empty((len(rows), grad_pooled.shape[1])))
    return grad


def flatten(params: Params) -> np.ndarray:
    """All tensors in canonical order as one float64 vector: the live
    ``params.flat`` buffer itself, not a copy."""
    return params.flat


def unflatten(config: EncoderConfig, vector: np.ndarray) -> Params:
    """Inverse of ``flatten``: wraps ``vector`` without copying it when it is
    already a contiguous float64 vector. The head's presence and width are
    inferred from the vector length; any other length is rejected."""
    vector = np.ascontiguousarray(vector, dtype=float)
    if vector.ndim != 1:
        raise ValueError("expected a 1-d vector")
    base = config.base_param_count()
    o = config.output_dim
    head_dim = None
    if vector.size != base:
        extra = vector.size - base
        if extra <= 0 or extra % (o + 1) != 0:
            raise ValueError(
                f"vector length {vector.size} does not match config "
                f"(base {base}, output_dim {o})"
            )
        head_dim = extra // (o + 1)

    v, e, h = config.vocab_buckets, config.embed_dim, config.hidden_dim
    shapes = [(v, e), (e, h), (h,), (h, o), (o,)]
    if head_dim is not None:
        shapes += [(o, head_dim), (head_dim,)]
    return Params(vector, shapes)


@dataclass
class Checkpoint:
    """One encoder state on disk: config, phase tag, parameters.

    ``history`` records every phase the lineage has passed through, oldest
    first; the last entry equals ``phase``. It is what lets the
    self-distillation trainer reject bases that already went through the
    contrastive phase.
    """

    config: EncoderConfig
    phase: str
    params: Params
    history: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if not self.history:
            self.history = (self.phase,)


def checkpoint_pieces(ckpt: Checkpoint) -> tuple[bytes, memoryview]:
    """The bytes of ``ckpt``'s file in two pieces, to be written or hashed in
    turn: the magic and the header line, then the parameter block, a
    little-endian view of ``ckpt.params.flat`` rather than a copy of it."""
    flat = flatten(ckpt.params)
    # min and max carry any NaN, so this builds no full-size mask
    if not np.isfinite([flat.min(), flat.max()]).all():
        raise CheckpointFormatError("refusing to serialize non-finite parameters")
    header = {
        "version": CHECKPOINT_VERSION,
        "config": ckpt.config.to_dict(),
        "phase": ckpt.phase,
        "history": list(ckpt.history),
        "param_count": int(flat.size),
        "head_dim": ckpt.params.head_dim,
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return CHECKPOINT_MAGIC + line + b"\n", memoryview(flat.astype("<f8", copy=False))


def _config_from_header(header) -> EncoderConfig:
    """Validate a decoded header's shape, keys and value types against
    format v1, including that param_count fits the config and head_dim;
    return its encoder config."""
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise CheckpointFormatError(f"malformed checkpoint header: {what}")

    def is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    require(isinstance(header, dict), "expected a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {header.get('version')} "
                                     f"(expected {CHECKPOINT_VERSION})")
    cfg = header.get("config")
    require(isinstance(cfg, dict) and sorted(cfg) == sorted(ENCODER_CONFIG_KEYS),
            f"config must be an object with the keys {', '.join(ENCODER_CONFIG_KEYS)}")
    require(all(is_int(cfg[k]) for k in ENCODER_CONFIG_KEYS if k != "init_scale"),
            "config sizes and seeds must be integers")
    scale = cfg["init_scale"]
    require(is_int(scale) or (isinstance(scale, float) and np.isfinite(scale)),
            "config init_scale must be a finite number")
    require(header.get("phase") in PHASES, f"phase must be one of {', '.join(PHASES)}")
    history = header.get("history", [])
    require(isinstance(history, list) and all(h in PHASES for h in history),
            "history must be a list of phase names")
    head_dim = header.get("head_dim")
    require(head_dim is None or (is_int(head_dim) and head_dim >= 1),
            "head_dim must be null or a positive integer")
    try:
        config = EncoderConfig(**cfg)
    except ValueError as exc:
        raise CheckpointFormatError(f"malformed checkpoint header: {exc}") from exc
    expected = config.base_param_count() + (head_dim or 0) * (config.output_dim + 1)
    require(is_int(header.get("param_count")) and header["param_count"] == expected,
            f"param_count must be {expected} for this config and head_dim")
    return config


def read_checkpoint(fh) -> Checkpoint:
    """The checkpoint in the seekable binary handle ``fh``, from its position
    to its end; the checked block is read in place into one new array."""
    if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("bad magic: not an encoder checkpoint")
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CheckpointTruncatedError("truncated checkpoint: header not terminated")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointFormatError(f"unreadable checkpoint header: {exc}") from exc
    config = _config_from_header(header)
    count, start = header["param_count"], fh.tell()
    size = fh.seek(0, io.SEEK_END) - start
    if size < 8 * count:
        raise CheckpointTruncatedError(f"truncated parameter block: expected {8 * count} "
                                       f"bytes, got {size}")
    if size > 8 * count:
        raise CheckpointFormatError("trailing bytes after parameter block")
    fh.seek(start)
    flat = np.empty(count, dtype="<f8")
    if fh.readinto(flat) != flat.nbytes:
        raise CheckpointTruncatedError("truncated parameter block: the file shrank while read")
    if not np.isfinite([flat.min(), flat.max()]).all():
        raise CheckpointFormatError("checkpoint holds non-finite parameters")
    return Checkpoint(config, header["phase"], unflatten(config, flat),
                      tuple(header.get("history", ())))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    pieces = checkpoint_pieces(ckpt)
    with open(path, "wb") as fh:
        fh.writelines(pieces)


def load_checkpoint(path) -> Checkpoint:
    """``read_checkpoint`` of the file at ``path``; a CheckpointError is
    raised again as the same class, its message prefixed by the path."""
    with open(path, "rb") as fh:
        try:
            return read_checkpoint(fh)
        except CheckpointError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def derive(ckpt: Checkpoint, params: Params, phase: str) -> Checkpoint:
    """New checkpoint continuing ``ckpt``'s lineage with an appended phase."""
    return Checkpoint(
        config=ckpt.config,
        phase=phase,
        params=params,
        history=ckpt.history + (phase,),
    )
