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
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import encoder as enc
from . import evalsuite as ev
from . import ontology as onto
from . import soup as soup_mod
from . import trainer
from .config import ConfigError, build_config, config_keys, read_config

log = logging.getLogger("ontoembed")

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

# ``embed`` encodes and writes this many texts at a time.
EMBED_CHUNK = 1024


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


@contextlib.contextmanager
def _atomic_output(path: str):
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


def _atomic_write_bytes(path: str, *pieces) -> None:
    """Write the bytes-like ``pieces`` in turn to ``path``, atomically."""
    with _atomic_output(path) as fh:
        fh.writelines(pieces)


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


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
    }
    path = f"{primary_output}.manifest.json"
    _atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _save_checkpoint(path: str, ckpt: enc.Checkpoint) -> None:
    _atomic_write_bytes(path, *enc.checkpoint_pieces(ckpt))


# The loader and the evaluation of each benchmark that yields one report.
_BENCHMARKS = {"sts": (ev.load_sts_dataset, ev.eval_sts),
               "bcr": (ev.load_bcr_dataset, ev.eval_bcr),
               "nli": (ev.load_nli_dataset, ev.eval_nli_triplets)}


def _load_kg(ontology_path, templates_path, glossary_path=None):
    kg = onto.load_ontology(ontology_path).with_templates(onto.load_templates(templates_path))
    stats = None
    if glossary_path:
        kg, stats = onto.merge_glossary(kg, glossary_path)
    return kg, stats


# ---------------------------------------------------------------------------
# verbalize


def cmd_verbalize(args) -> int:
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
    set; a command takes them once its checks pass, before it writes."""
    return {path: _sha256_file(path) for path in
            [getattr(args, key) for key in ("config", "base", "teacher", "corpus", "data", "pairs",
                                            "ontology", "templates", "glossary", "model", "infile",
                                            "val", "manifest") if getattr(args, key, None)]}


# ---------------------------------------------------------------------------
# train


def _train_config(phase: str, mapping: dict[str, str], path, prefix: str = "",
                  base=None) -> trainer.TrainConfig:
    """``build_config``'s TrainConfig for training ``phase``; the contrastive
    phase's in-batch objective needs a batch_size of at least 2."""
    cfg = build_config(trainer.TrainConfig, mapping, path, prefix, base)
    if phase == "contrastive" and cfg.batch_size < 2:
        key = prefix + "batch_size" if prefix + "batch_size" in mapping else "batch_size"
        raise ConfigError(f"{path}: {key}: must be >= 2 for the in-batch objective")
    return cfg


def _base_checkpoint(args, mapping: dict[str, str], config: enc.EncoderConfig) -> enc.Checkpoint:
    """The ``--base`` checkpoint, or a fresh base of ``config`` without one.
    Each encoder key the config file sets must repeat the base's value."""
    if not args.base:
        return enc.Checkpoint(config=config, phase="base", params=enc.init_params(config))
    base = enc.load_checkpoint(args.base)
    for key in enc.ENCODER_CONFIG_KEYS:
        if key in mapping and getattr(config, key) != getattr(base.config, key):
            raise ConfigError(f"{args.config}: {key}: {getattr(config, key)} differs from "
                              f"{getattr(base.config, key)} in the base checkpoint {args.base}")
    return base


def cmd_train(args) -> int:
    started = time.time()
    # every key is read and checked before anything is loaded or trained
    mapping = read_config(args.config, TRAIN_KEYS[args.phase]) if args.config else {}
    cfg = _train_config(args.phase, mapping, args.config)
    enc_cfg = enc.config_from_mapping(mapping, source=args.config)
    overrides = {"seed": args.seed, "epochs": args.epochs}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

    if args.phase == "contrastive":
        if (cfg.hard_negatives_per_batch > 0) != bool(args.ontology):
            raise UsageError("--ontology goes only with hard_negatives_per_batch > 0"
                             if args.ontology else
                             "--ontology is required when hard negatives are enabled")
        base = _base_checkpoint(args, mapping, enc_cfg)
        corpus = onto.load_corpus(args.corpus)
        kg = onto.load_ontology(args.ontology) if args.ontology else onto.KnowledgeGraph({})
        ckpt, stats = trainer.train_contrastive(base, corpus, kg, cfg)
    elif args.phase == "sts":
        base = _base_checkpoint(args, mapping, enc_cfg)
        dataset = ev.load_sts_dataset(args.data)
        ckpt, stats = trainer.adapt_sts(base, dataset, cfg)
    elif args.phase == "self-distill":
        base = _base_checkpoint(args, mapping, enc_cfg)
        teacher = enc.load_checkpoint(args.teacher)
        kg, _ = _load_kg(args.ontology, args.templates, args.glossary)
        limit = trainer.pca_dim_limit(len(kg), teacher.config.output_dim)
        if args.pca_dim > limit:
            raise UsageError(f"--pca-dim must be at most {limit} with teacher output_dim "
                             f"{teacher.config.output_dim} and {len(kg)} concepts")
        _, targets = trainer.build_targets(teacher, kg, k=args.pca_dim)
        ckpt, stats = trainer.train_self_distill(base, targets, kg, cfg)
    else:  # xlingual
        teacher = enc.load_checkpoint(args.teacher)
        pairs = onto.load_parallel_pairs(args.pairs)
        student_cfg = enc.config_from_mapping(mapping, teacher.config, args.config)
        ckpt, stats = trainer.train_xlingual(teacher, student_cfg, pairs, cfg)

    inputs = _inputs(args)
    _save_checkpoint(args.out, ckpt)
    metrics = {"steps": stats.steps, "final_loss": stats.final_loss,
               "phase": ckpt.phase}
    _write_manifest(args.out, f"train {args.phase}", vars_snapshot(args),
                    inputs, cfg.seed, [args.out], started, metrics)
    print(f"phase={ckpt.phase} steps={stats.steps} final_loss={stats.final_loss:.6f} "
          f"-> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# soup


_SOUP_METRICS = {"pearson": "sts", "spearman": "bcr", "nel-top1": "nel"}


def _read_listing(path: str) -> list[tuple[str, float, str]]:
    """The (path, score, label) candidates of a ``soup --manifest`` listing,
    ``{"candidates": [{"path": str, "score": number, "label": str}, ...]}``;
    a missing label is ""."""
    try:
        with open(path, encoding="utf-8") as fh:
            listing = json.load(fh)
        return [(onto.json_field(entry, "path"), float(onto.json_field(entry, "score", float)),
                 onto.json_field(entry, "label", default=""))
                for entry in onto.json_field(listing, "candidates", (dict,))]
    except (OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise soup_mod.SoupError(f"{path}: {exc}") from exc


def cmd_soup(args) -> int:
    started = time.time()
    if not args.val and (args.models or args.strategy == "greedy" or args.metric or args.ontology):
        raise UsageError("--models, --metric, --ontology and --strategy greedy require --val")
    metric = (args.metric or "pearson") if args.val else None
    if args.ontology and metric != "nel-top1":
        raise UsageError("--ontology goes only with --metric nel-top1")
    if metric == "nel-top1" and not args.ontology:
        raise UsageError("--ontology is required with --metric nel-top1")
    inputs = _inputs(args)
    score = _scorer(_SOUP_METRICS[metric], args.val, args.ontology, [1])[1] if args.val else None

    def evaluate(ckpt: enc.Checkpoint) -> float:
        return score(ckpt)[0].value

    # a --models candidate carries no score, so it is scored on --val
    listing = (_read_listing(args.manifest) if args.manifest
               else [(path, None, "") for path in args.models])
    candidates: list[soup_mod.SoupCandidate] = []
    for path, value, label in listing:
        inputs[path] = _sha256_file(path)
        candidates.append(soup_mod.SoupCandidate(
            path, evaluate(enc.load_checkpoint(path)) if value is None else value,
            label or os.path.basename(path)))

    scores = {c.label: c.validation_score for c in candidates}
    if args.strategy == "uniform":
        result = soup_mod.uniform_soup(candidates)
        kept = sorted(c.label for c in candidates)
    else:
        result, kept = soup_mod.greedy_soup(candidates, evaluate)

    soup_score = evaluate(result) if args.val else None
    _save_checkpoint(args.out, result)
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


def _scorer(benchmark: str, data: str, ontology, topk):
    """The ``benchmark`` dataset at ``data`` and a function that scores a
    checkpoint on it: for ``nel``, over ``ontology``, one report per k in ``topk``."""
    if benchmark == "nel":
        kg = onto.load_ontology(ontology)
        dataset = ev.load_nel_dataset(data)
        return dataset, lambda ckpt: ev.eval_nel(ckpt, kg, dataset, topk)
    load, evaluate = _BENCHMARKS[benchmark]
    dataset = load(data)
    return dataset, lambda ckpt: [evaluate(ckpt, dataset)]


def cmd_eval(args) -> int:
    started = time.time()
    inputs = _inputs(args)
    model = enc.load_checkpoint(args.model)
    # only eval nel has --ontology and --topk
    dataset, score = _scorer(args.benchmark, args.data, getattr(args, "ontology", None),
                             getattr(args, "topk", None))
    reports = score(model)

    digests = dict(model_digest=ev.model_digest(model), data_digest=ev.data_digest(dataset.rows))
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
    with open(path, "rb") as fh:
        # bytes.splitlines ends lines at \n, \r and \r\n, as text mode does
        lines = fh.read().splitlines()
    texts = []
    for line_no, raw in enumerate(lines, 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise onto.ParseError(path, line_no, str(exc)) from exc
        if "\t" in text:
            raise onto.ParseError(path, line_no, "input texts must not contain tab characters")
        texts.append(text)
    return texts


def cmd_embed(args) -> int:
    started = time.time()
    inputs = _inputs(args)
    model = enc.load_checkpoint(args.model)
    texts = _read_texts(args.infile)
    with _atomic_output(args.out) as fh:
        for i in range(0, len(texts), EMBED_CHUNK):
            chunk = texts[i:i + EMBED_CHUNK]
            try:
                emb = enc.encode_batch(model.params, model.config, chunk)
            except enc.NonFiniteOutput as exc:
                raise ValueError(f"{args.infile}:{i + exc.row + 1}: output norm is not finite "
                                 f"with model {args.model}") from exc
            fh.write("".join(text + "\t" + ",".join(map(repr, row.tolist())) + "\n"
                             for text, row in zip(chunk, emb)).encode("utf-8"))
    _write_manifest(args.out, "embed", vars_snapshot(args), inputs,
                    None, [args.out], started, {"rows": len(texts)})
    print(f"embedded {len(texts)} texts -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """The pipeline's own keys. Dataset paths are resolved relative to the
    config file; all but ``glossary`` are required."""

    ontology: str | None = None
    templates: str | None = None
    glossary: str | None = None
    sts_train: str | None = None
    sts_val: str | None = None
    sts_test: str | None = None
    bcr: str | None = None
    nel: str | None = None
    nli: str | None = None
    seed: int = 7
    per_concept_templated: int = 2
    distill_runs: int = 7
    pca_dim: int = 64

    def __post_init__(self):
        for name in ("seed", "per_concept_templated"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("distill_runs", "pca_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _training_keys(phase: str) -> tuple[str, ...]:
    """The training keys that ``phase`` reads."""
    return tuple(k for k in trainer.TRAIN_CONFIG_KEYS
                 if phase == "contrastive" or k not in trainer.CONTRASTIVE_ONLY_KEYS)


# Each ``train`` phase takes the encoder keys and the training keys it reads.
# ``pipeline`` takes its own keys, the encoder and training keys, and behind
# a phase prefix each training key that phase reads.
TRAIN_KEYS = {phase: enc.ENCODER_CONFIG_KEYS + _training_keys(phase)
              for phase in ("contrastive", "sts", "self-distill", "xlingual")}
_PIPELINE_PHASES = ("adapt", "contrastive", "readapt", "distill")
PIPELINE_KEYS = frozenset(
    config_keys(PipelineConfig) + enc.ENCODER_CONFIG_KEYS + trainer.TRAIN_CONFIG_KEYS
    + tuple(f"{phase}_{key}" for phase in _PIPELINE_PHASES for key in _training_keys(phase))
)
_DATASETS = ("ontology", "templates", "sts_train", "sts_val", "sts_test", "bcr", "nel", "nli")


class PipelinePlan:
    """What ``pipeline`` reads and checks before it trains: the config file
    at ``path`` and every input it names. Building a plan writes nothing; a
    bad config raises ConfigError. ``train`` maps each training phase
    (``adapt``, ``contrastive``, ``readapt``, ``distill_01``, ...) to its
    config."""

    def __init__(self, path: str):
        self.mapping = mapping = read_config(path, PIPELINE_KEYS)
        self.cfg = cfg = build_config(PipelineConfig, mapping, path)
        self.encoder = enc.config_from_mapping(mapping, source=path)
        # a phase is seeded with the pipeline seed unless the file sets
        # <phase>_seed; distillation run i (from 0) adds i to its seed
        self.train = {phase: _train_config(phase, mapping, path, phase + "_",
                                           trainer.TrainConfig(seed=cfg.seed))
                      for phase in _PIPELINE_PHASES}
        distill = self.train.pop("distill")
        for i in range(cfg.distill_runs):
            self.train[f"distill_{i + 1:02d}"] = dataclasses.replace(distill,
                                                                     seed=distill.seed + i)

        paths = {key: os.path.join(os.path.dirname(os.path.abspath(path)), getattr(cfg, key))
                 for key in _DATASETS + ("glossary",) if getattr(cfg, key) is not None}
        for key in _DATASETS:
            if key not in paths:
                raise ConfigError(f"{path}: missing the {key!r} path")
        self.inputs = {p: _sha256_file(p) for p in paths.values()}
        self.kg, gloss_stats = _load_kg(paths["ontology"], paths["templates"],
                                        paths.get("glossary"))
        self.glossary_added = gloss_stats.added if gloss_stats else 0
        limit = trainer.pca_dim_limit(len(self.kg), self.encoder.output_dim)
        if cfg.pca_dim > limit:
            raise ConfigError(f"{path}: pca_dim: must be at most {limit} with output_dim "
                              f"{self.encoder.output_dim} and {len(self.kg)} concepts")
        self.corpus = onto.build_corpus(self.kg, cfg.per_concept_templated, cfg.seed)
        self.data = {
            "sts_train": ev.load_sts_dataset(paths["sts_train"]),
            "sts_val": ev.load_sts_dataset(paths["sts_val"]),
            "sts_test": ev.load_sts_dataset(paths["sts_test"]),
            "bcr": ev.load_bcr_dataset(paths["bcr"]),
            "nel": ev.load_nel_dataset(paths["nel"]),
            "nli": ev.load_nli_dataset(paths["nli"]),
        }


def _run_pipeline(plan: PipelinePlan, stage: str, out_dir: str, started: float) -> dict:
    """Train, evaluate and report as ``plan`` says, writing every output into
    the directory ``stage``; the manifest lists them under ``out_dir``."""
    cfg, kg, data = plan.cfg, plan.kg, plan.data
    written = ["report.json"]

    def benchmarks(ckpt: enc.Checkpoint) -> dict[str, ev.EvalReport]:
        return {
            "sts_val": ev.eval_sts(ckpt, data["sts_val"]),
            "sts_test": ev.eval_sts(ckpt, data["sts_test"]),
            "bcr": ev.eval_bcr(ckpt, data["bcr"]),
            "nel": ev.eval_nel(ckpt, kg, data["nel"], [1])[0],
            "nli": ev.eval_nli_triplets(ckpt, data["nli"]),
        }

    def save(name: str, ckpt: enc.Checkpoint) -> str:
        path = os.path.join(stage, name)
        _save_checkpoint(path, ckpt)
        written.append(name)
        return path

    def train(phase: str, regime, *args):
        try:
            return regime(*args, plan.train[phase])
        except trainer.TrainError as exc:
            raise trainer.TrainError(f"{phase}: {exc}") from exc

    log.info("pipeline: %d concepts, %d training pairs", len(kg), len(plan.corpus))

    # Each phase is evaluated once it is saved, and each checkpoint is
    # dropped once no later step reads it; the distilled models are read
    # back from their files, so the run holds at most three models at once.
    base = enc.Checkpoint(config=plan.encoder, phase="base",
                          params=enc.init_params(plan.encoder))
    save("base.ckpt", base)
    evals = {"base": benchmarks(base)}

    adapted, _ = train("adapt", trainer.adapt_sts, base, data["sts_train"])
    del base
    save("adapted.ckpt", adapted)
    evals["sts_adapted"] = benchmarks(adapted)
    log.info("adaptation done")

    contrastive, stats = train("contrastive", trainer.train_contrastive,
                               adapted, plan.corpus, kg)
    save("contrastive.ckpt", contrastive)
    evals["contrastive"] = benchmarks(contrastive)
    log.info("contrastive done: %d steps, final loss %.4f", stats.steps, stats.final_loss)

    readapted, _ = train("readapt", trainer.adapt_sts, contrastive, data["sts_train"])
    del contrastive
    save("readapted.ckpt", readapted)
    evals["readapted"] = benchmarks(readapted)

    _, targets = trainer.build_targets(readapted, kg, k=cfg.pca_dim)
    del readapted

    candidates = []
    distill_detail = []
    for i in range(cfg.distill_runs):
        label = f"distill_{i + 1:02d}"
        distilled, dstats = train(label, trainer.train_self_distill, adapted, targets, kg)
        path = save(label + ".ckpt", distilled)
        val = ev.eval_sts(distilled, data["sts_val"]).value
        del distilled
        candidates.append(soup_mod.SoupCandidate(path, val, label))
        distill_detail.append({"label": label, "seed": plan.train[label].seed,
                               "val_pearson": val,
                               "final_loss": dstats.final_loss})
        log.info("%s: val pearson %.4f", label, val)
    del adapted

    best_single = max(candidates, key=lambda c: c.validation_score)
    evals["self_distilled"] = benchmarks(best_single.load())
    souped, kept = soup_mod.greedy_soup(candidates,
                                        lambda ckpt: ev.eval_sts(ckpt, data["sts_val"]).value)
    save("soup.ckpt", souped)
    evals["souped"] = benchmarks(souped)
    rows = [{"phase": phase, "benchmark": bench, "metric": result.metric,
             "value": result.value, "n": result.n}
            for phase, results in evals.items() for bench, result in results.items()]

    report = {
        "seed": cfg.seed,
        "concepts": len(kg),
        "training_pairs": len(plan.corpus),
        "glossary_added": plan.glossary_added,
        "phases": list(evals),
        "rows": rows,
        "distill_runs": distill_detail,
        "soup": {
            "strategy": "greedy",
            "kept": kept,
            "validation_pearson": evals["souped"]["sts_val"].value,
            "best_single_label": best_single.label,
            "best_single_validation": best_single.validation_score,
        },
    }
    report_path = os.path.join(stage, "report.json")
    _atomic_write_text(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_manifest(report_path, "pipeline", dict(sorted(plan.mapping.items())),
                    plan.inputs, cfg.seed, [os.path.join(out_dir, name) for name in written],
                    started, {"soup_validation_pearson": report["soup"]["validation_pearson"]})
    return report


def cmd_pipeline(args) -> int:
    started = time.time()
    plan = PipelinePlan(args.config)
    out_dir = os.path.abspath(args.out_dir)
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise NotADirectoryError(f"output directory {out_dir} is not a directory")
    # Every output is written into a fresh directory next to out_dir, on the
    # same file system, and moved into out_dir only when the run succeeds.
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    stage = tempfile.mkdtemp(dir=os.path.dirname(out_dir), prefix=".pipeline-")
    try:
        report = _run_pipeline(plan, stage, out_dir, started)
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)

    print(f"{'phase':<16} {'benchmark':<10} {'metric':<16} value")
    for row in report["rows"]:
        print(f"{row['phase']:<16} {row['benchmark']:<10} {row['metric']:<16} "
              f"{row['value']:+.4f}")
    soup = report["soup"]
    print(f"soup kept {len(soup['kept'])}/{len(report['distill_runs'])} ingredients; "
          f"validation pearson {soup['validation_pearson']:.4f} "
          f"(best single {soup['best_single_validation']:.4f})")
    return EXIT_OK


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
    p.add_argument("--ontology", help="required by, and only with, hard_negatives_per_batch > 0")
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
    except (onto.OntologyError, ev.EvalError, trainer.TrainError, soup_mod.SoupError,
            enc.CheckpointError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
