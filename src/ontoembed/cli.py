"""Command-line entry point.

Subcommands: verbalize, train (contrastive | sts | self-distill | xlingual),
soup, eval (sts | bcr | nel | nli), embed, pipeline; each accepts only the
options it reads. Every command writes its outputs atomically
(temp file + rename; ``pipeline`` stages a whole directory) and, on success,
drops a run manifest next to each primary output with the config snapshot,
seed and input digests needed to re-run it bit-identically. Exit codes: 0
success, 1 I/O, 2 domain or validation failure, 64 usage or config file.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

# Every command reads the config schema and the encoder; each ``cmd_*``
# function imports the other modules it runs, ``pipeline`` among them, so
# that a command loads only those (``--help`` and ``embed`` load just this
# module, config and encoder).
from . import encoder as enc
from .config import (TRAIN_CONFIG_KEYS, ConfigError, DomainError, TrainConfig, _read_lines,
                     atomic_output, build_config, json_field, read_config)

log = logging.getLogger("ontoembed")

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

# ``embed`` encodes this many texts at a time, and formats this many of
# their rows at a time: few enough that the block's arrays stay small.
EMBED_CHUNK = 1024
EMBED_BLOCK = 128


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


def _topk_list(text: str) -> list[int]:
    """An argparse type: a comma list of integers >= 1."""
    return [_int_at_least(1)(k) for k in text.split(",")]


# ---------------------------------------------------------------------------
# Small helpers


def _atomic_write_text(path: str, text: str) -> None:
    with atomic_output(path) as fh:
        fh.write(text.encode("utf-8"))


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_input(path: str, inputs: dict[str, str]) -> tuple[enc.Checkpoint, bytes]:
    """``load_checkpoint`` of ``path``, and the magic and header line the
    file begins with; records the file's SHA-256 in ``inputs``.
    ``read_checkpoint`` accepts a file only when it is that line and then
    exactly the parameter block it loaded, with no byte after it, so the
    file is the line, read again, and the loaded block in its file layout,
    whichever reads ``read_checkpoint`` made."""
    with open(path, "rb") as fh:
        try:
            ckpt = enc.read_checkpoint(fh)
        except enc.CheckpointError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        block = ckpt.params.flat.astype("<f8", copy=False)
        size = fh.seek(0, os.SEEK_END) - block.nbytes
        fh.seek(0)
        head = fh.read(size)
    sha256 = hashlib.sha256(head)
    sha256.update(block)
    inputs[path] = sha256.hexdigest()
    return ckpt, head


def _write_manifest(primary_output: str, command: str, config: dict,
                    inputs: dict[str, str], seed, outputs: list[str],
                    started: float, metrics: dict) -> str:
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "seed": seed,
        "outputs": [str(p) for p in outputs],
        "duration_s": round(time.time() - started, 3),
        "metrics": metrics,
        "numeric": _numeric_environment(),
    }
    path = f"{primary_output}.manifest.json"
    _atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _numeric_environment() -> dict:
    """What the output bits depend on besides the inputs: numpy, its BLAS, its
    SIMD baseline and the features it found on this CPU, and the kernel that
    the OpenBLAS bundled with numpy chose, where that can be read."""
    build = np.show_config(mode="dicts")
    blas = build.get("Build Dependencies", {}).get("blas", {})
    simd = build.get("SIMD Extensions", {})
    numeric = {"numpy": np.__version__,
               "blas": {key: blas.get(key) for key in ("name", "version")},
               "simd": {key: simd.get(key) for key in ("baseline", "found")}}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            numeric["openblas_core"] = corename().decode("ascii")
    return numeric


def _load_kg(ontology_path, templates_path=None, glossary_path=None):
    """The ontology at ``ontology_path``, with the templates and the glossary
    when given, and the glossary's merge stats; (None, None), loading no
    module, without a path."""
    if ontology_path is None:
        return None, None
    from . import ontology as onto

    kg, stats = onto.load_ontology(ontology_path), None
    if templates_path is not None:
        kg = kg.with_templates(onto.load_templates(templates_path))
    if glossary_path:
        kg, stats = onto.merge_glossary(kg, glossary_path)
    return kg, stats


# ---------------------------------------------------------------------------
# verbalize


def cmd_verbalize(args) -> int:
    from . import ontology as onto

    started = time.time()
    inputs = _inputs(args)
    kg, gloss_stats = _load_kg(args.ontology, args.templates, args.glossary)
    pairs = onto.build_corpus(kg, args.per_concept, args.seed)
    lines = [onto.corpus_line(p) for p in pairs]
    _atomic_write_text(args.out, "".join(line + "\n" for line in lines))
    metrics = {"pairs": len(pairs), "concepts": len(kg)}
    if gloss_stats:
        metrics["glossary_added"] = gloss_stats.added
        metrics["glossary_skipped"] = gloss_stats.skipped_unknown
    _write_manifest(args.out, "verbalize", vars_snapshot(args), inputs,
                    args.seed, [args.out], started, metrics)
    print(f"wrote {len(pairs)} training pairs to {args.out}")
    return EXIT_OK


def vars_snapshot(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}


def _inputs(args) -> dict[str, str]:
    """The SHA-256 of each file named by an input option of ``args`` that is
    set, but a checkpoint's (``--base``, ``--teacher``, ``--model``), which
    ``_load_input`` hashes when it loads it; a command takes them once its
    checks pass, before it writes."""
    return {path: _sha256_file(path) for path in
            [getattr(args, key) for key in ("config", "corpus", "data", "pairs", "ontology",
                                            "templates", "glossary", "infile", "val", "manifest")
             if getattr(args, key, None)]}


# ---------------------------------------------------------------------------
# train


def _train_config(phase: str, mapping: dict[str, str], path, prefix: str = "",
                  base=None) -> TrainConfig:
    """``build_config``'s TrainConfig for training ``phase``; the contrastive
    phase's in-batch objective needs a batch_size of at least 2."""
    cfg = build_config(TrainConfig, mapping, path, prefix, base)
    if phase == "contrastive" and cfg.batch_size < 2:
        key = prefix + "batch_size" if prefix + "batch_size" in mapping else "batch_size"
        raise ConfigError(f"{path}: {key}: must be >= 2 for the in-batch objective")
    return cfg


def _base_checkpoint(args, mapping: dict[str, str], config: enc.EncoderConfig,
                     inputs: dict[str, str]) -> enc.Checkpoint:
    """The ``--base`` checkpoint, its digest put in ``inputs``, or a fresh
    base of ``config`` without one. Each encoder key the config file sets
    must repeat the base's value."""
    if not args.base:
        return enc.Checkpoint(config=config, phase="base", params=enc.init_params(config))
    base = _load_input(args.base, inputs)[0]
    for key in enc.ENCODER_CONFIG_KEYS:
        if key in mapping and getattr(config, key) != getattr(base.config, key):
            raise ConfigError(f"{args.config}: {key}: {getattr(config, key)} differs from "
                              f"{getattr(base.config, key)} in the base checkpoint {args.base}")
    return base


# Every ``train`` phase takes the encoder keys and the training keys.
TRAIN_KEYS = enc.ENCODER_CONFIG_KEYS + TRAIN_CONFIG_KEYS


def cmd_train(args) -> int:
    from . import evalsuite as ev
    from . import ontology as onto
    from . import trainer

    started = time.time()
    # every key is read and checked before anything is loaded or trained
    mapping = read_config(args.config, TRAIN_KEYS) if args.config else {}
    cfg = _train_config(args.phase, mapping, args.config)
    enc_cfg = enc.config_from_mapping(mapping, source=args.config)
    overrides = {"seed": args.seed, "epochs": args.epochs}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

    inputs: dict[str, str] = {}
    if args.phase == "contrastive":
        base = _base_checkpoint(args, mapping, enc_cfg, inputs)
        corpus = onto.load_corpus(args.corpus)
        ckpt, stats = trainer.train_contrastive(base, corpus, cfg)
    elif args.phase == "sts":
        base = _base_checkpoint(args, mapping, enc_cfg, inputs)
        dataset = ev.load_sts_dataset(args.data)
        ckpt, stats = trainer.adapt_sts(base, dataset, cfg)
    elif args.phase == "self-distill":
        base = _base_checkpoint(args, mapping, enc_cfg, inputs)
        teacher = _load_input(args.teacher, inputs)[0]
        kg, _ = _load_kg(args.ontology, args.templates, args.glossary)
        limit = trainer.pca_dim_limit(len(kg), teacher.config.output_dim)
        if args.pca_dim > limit:
            raise UsageError(f"--pca-dim must be at most {limit} with teacher output_dim "
                             f"{teacher.config.output_dim} and {len(kg)} concepts")
        _, targets = trainer.build_targets(teacher, kg, k=args.pca_dim)
        del teacher  # each distillation trains on its targets alone
        ckpt, stats = trainer.train_self_distill(base, targets, kg, cfg)
    else:  # xlingual
        teacher = _load_input(args.teacher, inputs)[0]
        pairs = onto.load_parallel_pairs(args.pairs)
        student_cfg = enc.config_from_mapping(mapping, teacher.config, args.config)
        targets = trainer.pivot_targets(teacher, pairs)
        del teacher
        ckpt, stats = trainer.train_xlingual(targets, student_cfg, pairs, cfg)

    inputs.update(_inputs(args))
    enc.save_checkpoint(args.out, ckpt)
    metrics = {"steps": stats.steps, "final_loss": stats.final_loss,
               "phase": ckpt.phase}
    _write_manifest(args.out, f"train {args.phase}", vars_snapshot(args),
                    inputs, cfg.seed, [args.out], started, metrics)
    loss = "none" if stats.final_loss is None else f"{stats.final_loss:.6f}"
    print(f"phase={ckpt.phase} steps={stats.steps} final_loss={loss} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# soup


_SOUP_METRICS = {"pearson": "sts", "spearman": "bcr", "nel-top1": "nel"}


def _read_listing(path: str) -> list[tuple[str, float, str]]:
    """The (path, score, label) candidates of a ``soup --manifest`` listing,
    ``{"candidates": [{"path": str, "score": number, "label": str}, ...]}``;
    a missing label is ""."""
    from . import soup as soup_mod

    try:
        with open(path, encoding="utf-8-sig") as fh:
            listing = json.load(fh)
        return [(json_field(entry, "path"), float(json_field(entry, "score", float)),
                 json_field(entry, "label", default=""))
                for entry in json_field(listing, "candidates", (dict,))]
    except (OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise soup_mod.SoupError(f"{path}: {exc}") from exc


def cmd_soup(args) -> int:
    from . import soup as soup_mod

    started = time.time()
    if not args.val and (args.models or args.strategy == "greedy" or args.metric or args.ontology):
        raise UsageError("--models, --metric, --ontology and --strategy greedy require --val")
    metric = (args.metric or "pearson") if args.val else None
    if args.ontology and metric != "nel-top1":
        raise UsageError("--ontology goes only with --metric nel-top1")
    if metric == "nel-top1" and not args.ontology:
        raise UsageError("--ontology is required with --metric nel-top1")
    inputs = _inputs(args)
    kg = _load_kg(args.ontology)[0]
    score = _scorer(_SOUP_METRICS[metric], args.val, kg)[1] if args.val else None

    # a tentative soup is named by the file the soup is written to
    def evaluate(ckpt: enc.Checkpoint, name: str = args.out) -> float:
        return score(ckpt, name)[0].value

    # a --models candidate carries no score, so it is scored on --val
    listing = (_read_listing(args.manifest) if args.manifest
               else [(path, None, "") for path in args.models])
    labels = [label or os.path.basename(path) for path, _, label in listing]
    # the report keys scores by label, so a repeated label would merge two candidates
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise soup_mod.SoupError(f"two candidates have the label {label!r}")
    candidates: list[soup_mod.SoupCandidate] = []
    for (path, value, _), label in zip(listing, labels):
        if value is None:
            value = evaluate(_load_input(path, inputs)[0], path)
        else:
            inputs[path] = _sha256_file(path)
        candidates.append(soup_mod.SoupCandidate(path, value, label))

    scores = {c.label: c.validation_score for c in candidates}
    if args.strategy == "uniform":
        result = soup_mod.uniform_soup(candidates)
        kept = sorted(c.label for c in candidates)
    else:
        result, kept = soup_mod.greedy_soup(candidates, evaluate)

    soup_score = evaluate(result) if args.val else None
    enc.save_checkpoint(args.out, result)
    report = {
        "strategy": args.strategy,
        "metric": metric,
        "ingredient_scores": scores,
        "kept": kept,
        "rejected": sorted(set(scores) - set(kept)),
        "soup_score": soup_score,
    }
    report_path = f"{args.out}.soup_report.json"
    _atomic_write_text(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_manifest(args.out, "soup", vars_snapshot(args), inputs, None,
                    [args.out, report_path], started,
                    {"kept": len(kept), "soup_score": soup_score})
    print(f"soup of {len(kept)}/{len(candidates)} ingredients -> {args.out}"
          + (f" (score {soup_score:.6f})" if soup_score is not None else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _scorer(benchmark: str, data: str, kg=None, topk=(1,), label=None):
    """The ``benchmark`` dataset at ``data`` and ``score(ckpt, name)``, the
    reports of the checkpoint ``name`` on it: for ``nel``, over ``kg``, one
    per k in ``topk``. A fault of the model (numeric, or constant
    predictions) is raised again as an EvalError naming ``name`` and
    ``label``, by default ``benchmark``."""
    from . import evalsuite as ev

    # looked up when the command runs, so a traced run sees each call
    load, evaluate = {"nel": (ev.load_nel_dataset, ev.eval_nel),
                      "sts": (ev.load_sts_dataset, ev.eval_sts),
                      "bcr": (ev.load_bcr_dataset, ev.eval_bcr),
                      "nli": (ev.load_nli_dataset, ev.eval_nli_triplets)}[benchmark]
    dataset = load(data)

    def score(ckpt: enc.Checkpoint, name: str) -> list:
        try:
            return (evaluate(ckpt, kg, dataset, topk) if benchmark == "nel"
                    else [evaluate(ckpt, dataset)])
        except (FloatingPointError, enc.NonFiniteOutput, ev.DegenerateModelError) as exc:
            raise ev.EvalError(f"{name}: scoring {label or benchmark} failed: {exc}") from exc

    return dataset, score


def cmd_eval(args) -> int:
    from . import evalsuite as ev

    started = time.time()
    inputs = _inputs(args)
    model, head = _load_input(args.model, inputs)
    # only eval nel has --ontology and --topk
    kg = _load_kg(getattr(args, "ontology", None))[0]
    dataset, score = _scorer(args.benchmark, args.data, kg, getattr(args, "topk", None))
    reports = score(model, args.model)

    # a file whose header line is the one this program writes for the model
    # holds exactly the bytes that model_digest hashes
    digest = inputs[args.model] if head == enc.checkpoint_head(model) else ev.model_digest(model)
    digests = dict(model_digest=digest, data_digest=ev.data_digest(dataset.rows))
    lines = [json.dumps({**dataclasses.asdict(r), **digests}, sort_keys=True,
                        separators=(",", ":")) for r in reports]
    for line in lines:
        print(line)
    _atomic_write_text(args.out, "".join(line + "\n" for line in lines))
    _write_manifest(args.out, f"eval {args.benchmark}", vars_snapshot(args),
                    inputs, None, [args.out], started,
                    {r.metric: r.value for r in reports})
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed


def _read_texts(path) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, each one text, blank
    lines included. A line that is not UTF-8 or holds a tab raises
    ParseError naming ``path`` and the line."""
    texts = []

    def read_line(line_no: int, text: str) -> None:
        if "\t" in text:
            raise ValueError("input texts must not contain tab characters")
        texts.append(text)

    _read_lines(path, read_line)
    return texts


# Tables for _embedding_lines. _POW10_HI + _POW10_LO is Dekker's split of
# 10**k into two halves of at most 26 significant bits each.
_POW10 = 10.0 ** np.arange(22)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INV10 = 10.0 ** -np.arange(10)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
# "-0.000" right-aligned in bytes 0-5 of a word, by 4 * negative + zeros
_PREFIXES = np.array([int.from_bytes(f"{s}0.{'0' * z}".rjust(6, "\0").encode(), "little")
                      for s in ("", "-") for z in range(4)], np.uint64)
# the first two digits, in bytes 6-7
_FIRST_PAIRS = (np.uint64(0x3030 << 48) | (np.arange(100, dtype=np.uint64) // 10 << 48)
                | (np.arange(100, dtype=np.uint64) % 10 << 56))
# by j from 1 to 8: ASCII zeros in bytes 0 to 7 - j and a comma in byte 8 - j
_BITS = np.uint64(64) - np.arange(10, dtype=np.uint64) * np.uint64(8)
_TAILS = (_ASCII_ZEROS & ((np.uint64(1) << _BITS) - np.uint64(1))) | (np.uint64(44) << _BITS)


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """uint64 values below 10**8 -> their 8 decimal digits (0-9), one a
    byte, the first digit in the lowest byte. Each step splits every field
    of the word in two with a multiply-shift quotient, exact for the field's
    range, and no field carries into the next."""
    u = np.uint64
    q = v // u(10000)
    v = q | ((v - q * u(10000)) << u(32))
    q = ((v * u(10486)) >> u(20)) & u(0x0000007F0000007F)
    v = q | ((v - q * u(100)) << u(16))
    q = ((v * u(103)) >> u(10)) & u(0x000F000F000F000F)
    return q | ((v - q * u(10)) << u(8))


def _embedding_lines(texts: list[str], rows: np.ndarray) -> bytes:
    """``text<TAB>v1,v2,...<LF>`` for each text and its float64 row, each
    ``v`` being ``repr`` of the value: its shortest decimal that reads back
    to it, the nearest one if two are as short.

    Each value with 1e-4 <= |x| < 1 and at least 10 significant digits is
    written from exact float arithmetic over the whole block:
    - z = -1 - (decimal exponent of x) comes from comparing |x| with 0.1,
      0.01 and 0.001, each of which lies just above its power of ten;
    - S = |x| * 10**k, k = 18 + z, is hi + lo exactly (Dekker's two-product).
      hi >= 1e17 is an integer, so S splits exactly into the 18-digit integer
      N = A * 10**10 + B and a fraction f in [0, 1);
    - half an ulp of x, scaled the same way, is h = 10**k * 2**(e - 54) for
      |x| = m * 2**e with m in [0.5, 1);
    - the digits are those of the multiple of 10**j nearest S, for the largest
      j (at most 8) with some multiple of 10**j strictly inside (S - h, S + h).
      Neither end of that interval can be a candidate: it needs at least 54
      decimals, a candidate at most 21. The interval below a power of two is
      half as wide, which changes nothing: each one in range is a decimal of
      at most 10 digits, written exactly.
    Every other value is written by ``repr`` itself: zero, |x| < 1e-4,
    |x| >= 1, inf and nan, fewer than 10 significant digits (j = 9), and two
    nearest candidates equally far (``repr`` takes the even one).
    """
    x = rows.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a[~fast] = 0.30000000000000004  # a stand-in that keeps the arithmetic finite
    z = (a < 0.1).view(np.int8) + (a < 0.01).view(np.int8) + (a < 0.001).view(np.int8)
    k = z + np.intp(18)
    p = _POW10.take(k)
    hi = a * p
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi = _POW10_HI.take(k)
    p_lo = _POW10_LO.take(k)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    h = np.ldexp(p, np.frexp(a)[1] - 54)
    f = np.floor(lo)
    A = np.floor(hi / 1e10)
    B = (hi - A * 1e10) + f
    f = lo - f
    carry = np.floor(B / 1e10)
    A += carry
    B -= carry * 1e10
    # lower and upper lie half an integer outside the first and the last
    # integer strictly inside (S - h, S + h), less A * 10**10. 10**j has a
    # multiple among those integers when floor(lower / 10**j) and
    # floor(upper / 10**j) differ; multiplying by 10**-j gives these floors
    # exactly, since neither quotient is within 10**-j / 2 of an integer.
    lower = B + np.floor(f - h) + 0.5
    upper = B + np.ceil(f + h) - 0.5
    # 10 always has a multiple inside, since 2h > 11, and a multiple of 10**j
    # is one of 10**(j - 1) too, so j counts them; few reach 1000 and go on.
    j = ((np.floor(upper * 0.01) != np.floor(lower * 0.01)).view(np.int8)
         + (np.floor(upper * _INV10[3]) != np.floor(lower * _INV10[3])).view(np.int8) + np.intp(1))
    idx = np.flatnonzero(j == 3)
    for inv in _INV10[4:]:
        idx = idx[np.floor(upper[idx] * inv) != np.floor(lower[idx] * inv)]
        if not idx.size:
            break
        j[idx] += 1
    step = _POW10.take(j)
    r = B - step * np.floor(B / step)
    down = r + f
    up = (step - r) - f
    # Rounding stays inside B: a multiple of 10**10 would also be a multiple
    # of 10**9 inside the interval, and j = 9 goes to repr.
    B += step * (up < down) - r
    slow = np.flatnonzero(~fast | (up == down) | (j == 9))
    reprs = [repr(v).encode("ascii") + b"," for v in x.take(slow).tolist()]
    lens = np.fromiter(map(len, reprs), np.intp, slow.size)
    # A slot of three little-endian words per value, bytes in reading order:
    # the prefix and the first two digits; 8 digits; the last 8 - j digits
    # and a comma. NUL bytes fill the rest, and a block with a repr fallback
    # of more than 23 characters gets a fourth word.
    words = np.empty((x.size, 4 if slow.size and lens.max() > 24 else 3), "<u8")
    words[:, 3:] = 0  # the fourth word, where there is one
    first = np.floor(A / 1e6)
    mid = np.floor(B / 1e8)
    neg = (x < 0).view(np.int8)
    words[:, 0] = _PREFIXES.take(neg * np.int8(4) + z) | _FIRST_PAIRS.take(first.astype(np.intp))
    words[:, 1] = _digit_bytes(((A - first * 1e6) * 100 + mid).astype(np.uint64)) | _ASCII_ZEROS
    words[:, 2] = _digit_bytes((B - mid * 1e8).astype(np.uint64)) | _TAILS.take(j)
    out = words.view(np.uint8)
    out[slow] = np.frombuffer(b"".join(r.ljust(out.shape[1], b"\0") for r in reprs),
                              np.uint8).reshape(-1, out.shape[1])
    # one pass drops every NUL byte; each row's byte count finds its slice,
    # whose last comma gives way to the newline
    size = neg + z - j + 21
    size[slow] = lens
    ends = np.cumsum(size.reshape(rows.shape).sum(1)).tolist()
    body = memoryview(out.tobytes().translate(None, b"\0"))
    pieces = [b"\n"] * (3 * len(texts))
    pieces[::3] = [(text + "\t").encode("utf-8") for text in texts]
    pieces[1::3] = [body[start:end - 1] for start, end in zip([0] + ends, ends)]
    return b"".join(pieces)


def cmd_embed(args) -> int:
    started = time.time()
    inputs: dict[str, str] = {}
    model = _load_input(args.model, inputs)[0]
    inputs.update(_inputs(args))
    texts = _read_texts(args.infile)
    with atomic_output(args.out) as fh:
        for i in range(0, len(texts), EMBED_CHUNK):
            chunk = texts[i:i + EMBED_CHUNK]
            try:
                emb = enc.encode_batch(model.params, model.config, chunk)
            except enc.NonFiniteOutput as exc:
                raise ValueError(f"{args.infile}:{i + exc.row + 1}: output norm is not finite "
                                 f"with model {args.model}") from exc
            except FloatingPointError as exc:
                raise ValueError(f"{args.infile}: lines {i + 1}-{i + len(chunk)}: {exc} "
                                 f"with model {args.model}") from exc
            for j in range(0, len(chunk), EMBED_BLOCK):
                fh.write(_embedding_lines(chunk[j:j + EMBED_BLOCK], emb[j:j + EMBED_BLOCK]))
    _write_manifest(args.out, "embed", vars_snapshot(args), inputs,
                    None, [args.out], started, {"rows": len(texts)})
    print(f"embedded {len(texts)} texts -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args) -> int:
    from . import pipeline
    return pipeline.cmd_pipeline(args)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> _Parser:
    parser = _Parser(prog="ontoembed", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="INFO-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verbalize", help="build the contrastive corpus from an ontology")
    p.add_argument("--ontology", required=True)
    p.add_argument("--templates", required=True)
    p.add_argument("--glossary")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--per-concept", dest="per_concept", type=_int_at_least(0), default=2)
    p.set_defaults(func=cmd_verbalize)

    # each phase and each benchmark is a parser with exactly the options it
    # reads; those they all read come from a shared parent
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value training config")
    common.add_argument("--seed", type=_int_at_least(0))
    common.add_argument("--epochs", type=_int_at_least(0))
    common.add_argument("--out", required=True)
    base_help = "base checkpoint (omit to init a fresh base from the config's encoder keys)"
    p = sub.add_parser("train", help="run one training phase")
    p.set_defaults(func=cmd_train)
    phases = p.add_subparsers(dest="phase", required=True)
    p = phases.add_parser("contrastive", parents=[common])
    p.add_argument("--corpus", required=True, help="training-pair JSONL")
    p.add_argument("--base", help=base_help)
    p = phases.add_parser("sts", parents=[common])
    p.add_argument("--data", required=True, help="STS TSV")
    p.add_argument("--base", help=base_help)
    p = phases.add_parser("self-distill", parents=[common])
    for option in ("--base", "--teacher", "--ontology", "--templates"):
        p.add_argument(option, required=True)
    p.add_argument("--glossary")
    p.add_argument("--pca-dim", dest="pca_dim", type=_int_at_least(1), default=64)
    p = phases.add_parser("xlingual", parents=[common])
    p.add_argument("--teacher", required=True)
    p.add_argument("--pairs", required=True, help="parallel TSV")

    p = sub.add_parser("soup", help="average checkpoints")
    candidates = p.add_mutually_exclusive_group(required=True)
    candidates.add_argument("--models", nargs="+")
    candidates.add_argument("--manifest", help="JSON listing of {path, score, label} candidates")
    p.add_argument("--val", help="validation dataset for the metric")
    p.add_argument("--metric", choices=list(_SOUP_METRICS), help="with --val; default pearson")
    p.add_argument("--ontology", help="with --val and --metric nel-top1 only; required there")
    p.add_argument("--strategy", choices=["uniform", "greedy"], default="greedy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_soup)

    common = _Parser(add_help=False)
    for option in ("--model", "--data", "--out"):
        common.add_argument(option, required=True)
    p = sub.add_parser("eval", help="run one benchmark")
    p.set_defaults(func=cmd_eval)
    benchmarks = p.add_subparsers(dest="benchmark", required=True)
    for name in ("sts", "bcr", "nli"):
        benchmarks.add_parser(name, parents=[common])
    p = benchmarks.add_parser("nel", parents=[common])
    p.add_argument("--ontology", required=True)
    p.add_argument("--topk", type=_topk_list, default="1")

    p = sub.add_parser("embed", help="embed one text per input line")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("pipeline", help="end-to-end demo pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.INFO)
        # a numeric fault raises where it happens instead of warning and
        # carrying inf or NaN on; code that means to produce them says so
        # with a local errstate
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    # under ``python -m`` this file runs as __main__; registered under its
    # own name too, it is the module pipeline's ``from .cli import`` finds,
    # where that import would otherwise run the whole file again
    sys.modules.setdefault("ontoembed.cli", sys.modules[__name__])
    raise SystemExit(main())
