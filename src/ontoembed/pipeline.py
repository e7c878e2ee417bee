"""The ``pipeline`` command: adapt, contrastive, re-adapt, ``distill_runs``
self-distillation runs and a greedy soup, each input read and checked
before the first phase trains."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import tempfile
import time

from . import encoder as enc
from . import evalsuite as ev
from . import ontology as onto
from . import soup as soup_mod
from . import trainer
from .cli import (EXIT_OK, TRAIN_KEYS, _atomic_write_text, _load_kg, _scorer, _sha256_file,
                  _train_config, _write_manifest, log)
from .config import (TRAIN_CONFIG_KEYS, ConfigError, DomainError, TrainConfig, build_config,
                     config_keys, read_config)


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


# ``pipeline`` takes its own keys, the encoder and training keys, and each
# training key behind a phase prefix.
_PIPELINE_PHASES = ("adapt", "contrastive", "readapt", "distill")
PIPELINE_KEYS = frozenset(
    config_keys(PipelineConfig) + TRAIN_KEYS
    + tuple(f"{phase}_{key}" for phase in _PIPELINE_PHASES for key in TRAIN_CONFIG_KEYS)
)
# the benchmarks the pipeline's report scores, in order, each with its dataset kind
_REPORTED = {"sts_val": "sts", "sts_test": "sts", "bcr": "bcr", "nel": "nel", "nli": "nli"}
_DATASETS = ("ontology", "templates", "sts_train") + tuple(_REPORTED)


def _file(name: str) -> str:
    """The file of the checkpoint ``name``: base, a training phase or soup."""
    return {"adapt": "adapted.ckpt", "readapt": "readapted.ckpt"}.get(name, name + ".ckpt")


class PipelinePlan:
    """What ``pipeline`` reads and checks before it trains: the config file
    at ``path`` and every input it names. Building a plan writes nothing; a
    bad config raises ConfigError. ``train`` maps each training phase
    (``adapt``, ``contrastive``, ``readapt``, ``distill_01``, ...) to its
    config, and ``scorers`` each reported benchmark to its ``_scorer``."""

    def __init__(self, path: str):
        self.mapping = mapping = read_config(path, PIPELINE_KEYS)
        self.cfg = cfg = build_config(PipelineConfig, mapping, path)
        self.encoder = enc.config_from_mapping(mapping, source=path)
        # a phase is seeded with the pipeline seed unless the file sets
        # <phase>_seed; distillation run i (from 0) adds i to its seed
        self.train = {phase: _train_config(phase, mapping, path, phase + "_",
                                           TrainConfig(seed=cfg.seed))
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
        self.sts_train = ev.load_sts_dataset(paths["sts_train"])
        self.scorers = {name: _scorer(kind, paths[name], self.kg)[1]
                        for name, kind in _REPORTED.items()}

    def score(self, name: str, ckpt: enc.Checkpoint, benchmarks=tuple(_REPORTED)) -> dict:
        """The checkpoint ``name``'s report on each benchmark; an error names both."""
        reports = {}
        for benchmark in benchmarks:
            try:
                reports[benchmark] = self.scorers[benchmark](ckpt)[0]
            except (DomainError, ValueError, FloatingPointError) as exc:
                raise ev.EvalError(f"{name}: scoring {benchmark} failed: {exc}") from exc
        return reports

    def val_pearson(self, name: str, ckpt: enc.Checkpoint) -> float:
        return self.score(name, ckpt, ("sts_val",))["sts_val"].value


def _train_phase(plan: PipelinePlan, stage: str, name: str, regime, *args):
    """Train phase ``name`` with ``regime``, log it and save it in ``stage``."""
    try:
        ckpt, stats = regime(*args, plan.train[name])
    except trainer.TrainError as exc:
        raise trainer.TrainError(f"{name}: {exc}") from exc
    log.info("%s done: %d steps, final loss %s", name, stats.steps,
             "none" if stats.final_loss is None else f"{stats.final_loss:.4f}")
    enc.save_checkpoint(os.path.join(stage, _file(name)), ckpt)
    return ckpt, stats


def _distill_run(plan: PipelinePlan, stage: str, label: str, adapted, targets):
    """Train, save and score run ``label``: its soup candidate and its report detail."""
    distilled, stats = _train_phase(plan, stage, label, trainer.train_self_distill,
                                    adapted, targets, plan.kg)
    val = plan.val_pearson(label, distilled)
    log.info("%s: val pearson %.4f", label, val)
    return (soup_mod.SoupCandidate(os.path.join(stage, _file(label)), val, label),
            {"label": label, "seed": plan.train[label].seed, "val_pearson": val,
             "final_loss": stats.final_loss})


def _run_pipeline(plan: PipelinePlan, stage: str, out_dir: str, started: float) -> dict:
    """Train, evaluate and report as ``plan`` says, writing every output into
    the directory ``stage``; the manifest lists them under ``out_dir``."""
    log.info("pipeline: %d concepts, %d training pairs", len(plan.kg), len(plan.corpus))

    # Each phase is evaluated once it is saved, and each checkpoint is
    # dropped once no later step reads it; the distilled models are read
    # back from their files, so the run holds at most three models at once.
    base = enc.Checkpoint(config=plan.encoder, phase="base",
                          params=enc.init_params(plan.encoder))
    enc.save_checkpoint(os.path.join(stage, _file("base")), base)
    evals = {"base": plan.score("base", base)}
    adapted, _ = _train_phase(plan, stage, "adapt", trainer.adapt_sts, base, plan.sts_train)
    del base
    evals["sts_adapted"] = plan.score("adapt", adapted)
    contrastive, _ = _train_phase(plan, stage, "contrastive", trainer.train_contrastive,
                                  adapted, plan.corpus)
    evals["contrastive"] = plan.score("contrastive", contrastive)
    readapted, _ = _train_phase(plan, stage, "readapt", trainer.adapt_sts, contrastive,
                                plan.sts_train)
    del contrastive
    evals["readapted"] = plan.score("readapt", readapted)
    _, targets = trainer.build_targets(readapted, plan.kg, k=plan.cfg.pca_dim)
    del readapted

    candidates, distill_detail = zip(*[_distill_run(plan, stage, label, adapted, targets)
                                       for label in plan.train if label.startswith("distill_")])
    del adapted
    best_single = max(candidates, key=lambda c: c.validation_score)
    evals["self_distilled"] = plan.score(best_single.label, best_single.load())
    souped, kept = soup_mod.greedy_soup(candidates, functools.partial(plan.val_pearson, "soup"))
    enc.save_checkpoint(os.path.join(stage, _file("soup")), souped)
    evals["souped"] = plan.score("soup", souped)
    rows = [{"phase": phase, "benchmark": bench, "metric": result.metric,
             "value": result.value, "n": result.n}
            for phase, results in evals.items() for bench, result in results.items()]

    report = {
        "seed": plan.cfg.seed,
        "concepts": len(plan.kg),
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
    written = ["report.json"] + [_file(name) for name in ("base", *plan.train, "soup")]
    _write_manifest(report_path, "pipeline", dict(sorted(plan.mapping.items())),
                    plan.inputs, plan.cfg.seed, [os.path.join(out_dir, name) for name in written],
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
