"""The benchmark's three workloads: inputs, commands, output checks, quality.

Each workload

* ``prepare(ctx)``: writes its inputs into ``ctx.inputs`` from the seed and
  runs any untimed preparation;
* ``commands(ctx, out)``: the ontoembed command lines of one timed repeat,
  each as ``(label, argv)``; every label runs in its own fresh process;
* ``check(ctx, out, checks)``: checks one repeat's outputs;
* ``quality(ctx, out, checks)``: quality figures of the trained model,
  computed after timing stops.

Every workload ends its repeat with ``eval nel`` and ``embed`` on its final
model, so ``nel_mentions_per_s`` and ``embed_texts_per_s`` exist on all of
them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np

from ontoembed import encoder as enc
from ontoembed import evalsuite as ev
from ontoembed import fixtures
from ontoembed import ontology as onto
from ontoembed import trainer

PHASES = ("base", "sts_adapted", "contrastive", "readapted", "self_distilled", "souped")
BENCHMARKS = ("sts_val", "sts_test", "bcr", "nel", "nli")
SHARED_TRAIN_KEYS = ("seed", "weight_decay", "warmup_fraction")
STUDENT_CFG = {
    "vocab_buckets": 32768, "embed_dim": 48, "hidden_dim": 96, "output_dim": 96,
    "hash_seed": 29, "init_seed": 101,
    "learning_rate": 4e-3, "epochs": 10, "batch_size": 128, "seed": 1,
}
EMBED_SAMPLE = 64


class Checks:
    """Named pass/fail results; failures are reported on stderr."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


# ---------------------------------------------------------------------------
# inputs


def distinct_texts(world: fixtures.World) -> list[str]:
    """Every distinct text in the world's files: names, definitions,
    glossary entries, STS/BCR/NLI texts, NEL mentions, parallel pairs."""
    texts: set[str] = set()
    for c in world.concepts:
        texts.update(c.names)
        texts.update(t for t in (c.definition, c.glossary_def, c.heldout_mention) if t)
    for rows in (world.sts_train, world.sts_val, world.sts_test, world.bcr):
        for a, b, _ in rows:
            texts.update((a, b))
    for row in world.nli:
        texts.update(row)
    for mention, _ in world.nel + world.nel_xlingual:
        texts.add(mention)
    for source, target, _ in world.parallel:
        texts.update((source, target))
    return sorted(texts)


def write_world(spec: fixtures.WorldSpec, directory: str) -> dict:
    world = fixtures.generate_world(spec)
    fixtures.write_fixtures(world, directory)
    texts = distinct_texts(world)
    with open(os.path.join(directory, "texts.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(t + "\n" for t in texts))
    return {"texts": len(texts), "mentions": len(world.nel),
            "mentions_xlingual": len(world.nel_xlingual)}


def write_cfg(path: str, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in mapping.items()))


def phase_cfg(mapping: dict[str, str], prefix: str) -> dict[str, str]:
    """A single-phase training config equal to what ``pipeline`` uses for
    the phase with this key prefix (``adapt_``, ``contrastive_``)."""
    keys = enc.ENCODER_CONFIG_KEYS + SHARED_TRAIN_KEYS
    out = {k: v for k, v in mapping.items() if k in keys}
    out.update({k[len(prefix):]: v for k, v in mapping.items() if k.startswith(prefix)})
    return out


# ---------------------------------------------------------------------------
# shared output checks


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_nel(path: str, mentions: int, checks: Checks) -> float | None:
    """The ``eval nel`` output holds one top-1 row over every mention."""
    if not checks.expect(os.path.isfile(path), f"missing {path}"):
        return None
    rows = read_jsonl(path)
    ok = (len(rows) == 1 and rows[0].get("n") == mentions
          and math.isfinite(rows[0].get("value", float("nan"))))
    checks.expect(ok, f"{path}: expected one finite top-1 row over {mentions} mentions")
    return rows[0]["value"] if ok else None


def check_embed(path: str, texts_path: str, model_path: str, seed: int,
                checks: Checks) -> None:
    """One row per input text, in order; every row unit-norm or zero; a
    sample of rows within 1e-12 of ``encoder.encode_batch``."""
    if not checks.expect(os.path.isfile(path), f"missing {path}"):
        return
    with open(texts_path, encoding="utf-8") as fh:
        texts = [line.rstrip("\n") for line in fh]
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if not checks.expect(len(rows) == len(texts)
                         and all(r[0] == t for r, t in zip(rows, texts)),
                         f"{path}: rows do not match the {len(texts)} input texts"):
        return
    vectors = np.array([[float(x) for x in r[1].split(",")] for r in rows])
    norms = np.linalg.norm(vectors, axis=1)
    checks.expect(bool(np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))),
                  f"{path}: a row is neither unit-norm nor zero")
    model = enc.load_checkpoint(model_path)
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(len(texts), size=min(EMBED_SAMPLE, len(texts)), replace=False))
    expected = enc.encode_batch(model.params, model.config, [texts[i] for i in sample])
    checks.expect(float(np.max(np.abs(vectors[sample] - expected))) <= 1e-12,
                  f"{path}: sampled rows differ from encode_batch by more than 1e-12")


def source_digest() -> str:
    """SHA-256 over the package's source files (names and bytes)."""
    h = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(enc.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode("utf-8"))
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def teacher_commands(i: str, mapping: dict[str, str], adapt_cfg: str,
                     contrastive_cfg: str) -> list[list[str]]:
    """verbalize, train sts, train contrastive: the pipeline's first two
    phases as single commands, ending in ``{i}/teacher.ckpt``."""
    return [
        ["verbalize", "--ontology", f"{i}/ontology.jsonl", "--templates",
         f"{i}/templates.tsv", "--glossary", f"{i}/glossary.jsonl",
         "--seed", mapping.get("seed", "7"),
         "--per-concept", mapping.get("per_concept_templated", "2"),
         "--out", f"{i}/corpus.jsonl"],
        ["train", "sts", "--data", f"{i}/sts_train.tsv", "--config", f"{i}/{adapt_cfg}",
         "--out", f"{i}/adapted.ckpt"],
        ["train", "contrastive", "--base", f"{i}/adapted.ckpt", "--corpus",
         f"{i}/corpus.jsonl", "--config", f"{i}/{contrastive_cfg}",
         "--out", f"{i}/teacher.ckpt"],
    ]


def _infer_commands(inputs: str, out: str, model: str, nel_data: str) -> list:
    return [
        ("nel", ["eval", "nel", "--model", model, "--data", nel_data,
                 "--ontology", f"{inputs}/ontology.jsonl", "--out", f"{out}/nel.jsonl"]),
        ("embed", ["embed", "--model", model, "--in", f"{inputs}/texts.txt",
                   "--out", f"{out}/embeddings.tsv"]),
    ]


# ---------------------------------------------------------------------------
# workloads


class DemoPipeline:
    name = "demo-pipeline"
    rate_samples = {"nel": 9, "embed": 5}
    why = ("the headline user job, training-dominated: adapt, contrastive, "
           "readapt, 7 self-distillation runs and a greedy soup at 4096 buckets")

    def prepare(self, ctx) -> None:
        ctx.sizes = write_world(fixtures.WorldSpec(seed=ctx.seed), ctx.inputs)
        ctx.mentions = ctx.sizes["mentions"]

    def commands(self, ctx, out: str) -> list:
        i = ctx.inputs
        return [("pipeline", ["pipeline", "--config", f"{i}/demo.cfg",
                              "--out-dir", f"{out}/pipeline"])] + \
            _infer_commands(i, out, f"{out}/pipeline/soup.ckpt", f"{i}/nel.tsv")

    def check(self, ctx, out: str, checks: Checks) -> None:
        report_path = f"{out}/pipeline/report.json"
        if not checks.expect(os.path.isfile(report_path), f"missing {report_path}"):
            return
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        rows = {(r["phase"], r["benchmark"]): r["value"] for r in report["rows"]}
        for phase in PHASES:
            for bench in BENCHMARKS:
                checks.expect((phase, bench) in rows, f"report.json lacks ({phase}, {bench})")
        soup = report["soup"]
        checks.expect(soup["validation_pearson"] >= soup["best_single_validation"],
                      "greedy soup scores below the best single candidate")
        for bench in ("nel", "bcr"):
            checks.expect(rows.get(("contrastive", bench), -1.0) > rows.get(("base", bench), 1.0),
                          f"contrastive does not beat base on {bench}")
        check_nel(f"{out}/nel.jsonl", ctx.mentions, checks)

    def check_embed(self, ctx, out: str, checks: Checks) -> None:
        check_embed(f"{out}/embeddings.tsv", f"{ctx.inputs}/texts.txt",
                    f"{out}/pipeline/soup.ckpt", ctx.seed, checks)

    def quality(self, ctx, out: str, checks: Checks) -> dict:
        with open(f"{out}/pipeline/report.json", encoding="utf-8") as fh:
            rows = {(r["phase"], r["benchmark"]): r["value"] for r in json.load(fh)["rows"]}
        return {"soup_sts_test_pearson": rows[("souped", "sts_test")],
                "contrastive_nel_top1": rows[("contrastive", "nel")]}


class XlingualStudent:
    name = "xlingual-student"
    rate_samples = {"nel": 9, "embed": 5}
    why = ("the same training layers at 32768 buckets, where costs that scale "
           "with the table size (the dense AdamW update) dominate")

    def prepare(self, ctx) -> None:
        i = ctx.inputs
        ctx.sizes = write_world(fixtures.WorldSpec(seed=ctx.seed), i)
        ctx.mentions = ctx.sizes["mentions_xlingual"]
        mapping = trainer.parse_kv_file(f"{i}/demo.cfg")
        write_cfg(f"{i}/adapt.cfg", phase_cfg(mapping, "adapt_"))
        write_cfg(f"{i}/contrastive.cfg", phase_cfg(mapping, "contrastive_"))
        write_cfg(f"{i}/student.cfg", STUDENT_CFG)
        # The teacher is the pipeline's contrastive.ckpt, built by the same
        # two phases the pipeline runs before it.  It is not timed, and it
        # is kept per (source tree, seed) so later runs of the same seed in
        # the same checkout skip rebuilding it.
        cached = os.path.join(ctx.cache, f"teacher-{source_digest()}-seed{ctx.seed}.ckpt")
        if os.path.isfile(cached):
            shutil.copyfile(cached, f"{i}/teacher.ckpt")
            return
        failed = ctx.runner.failed
        ctx.runner.prepare(teacher_commands(i, mapping, "adapt.cfg", "contrastive.cfg"))
        if ctx.runner.failed == failed:
            os.makedirs(ctx.cache, exist_ok=True)
            shutil.copyfile(f"{i}/teacher.ckpt", cached + ".tmp")
            os.replace(cached + ".tmp", cached)

    def commands(self, ctx, out: str) -> list:
        i = ctx.inputs
        return [("train", ["train", "xlingual", "--teacher", f"{i}/teacher.ckpt",
                           "--pairs", f"{i}/parallel.tsv", "--config", f"{i}/student.cfg",
                           "--out", f"{out}/student.ckpt"])] + \
            _infer_commands(i, out, f"{out}/student.ckpt", f"{i}/nel_xlingual.tsv")

    def check(self, ctx, out: str, checks: Checks) -> None:
        checks.expect(os.path.isfile(f"{out}/student.ckpt"), "missing student.ckpt")
        check_nel(f"{out}/nel.jsonl", ctx.mentions, checks)

    def check_embed(self, ctx, out: str, checks: Checks) -> None:
        check_embed(f"{out}/embeddings.tsv", f"{ctx.inputs}/texts.txt",
                    f"{out}/student.ckpt", ctx.seed, checks)

    def quality(self, ctx, out: str, checks: Checks) -> dict:
        i = ctx.inputs
        teacher = enc.load_checkpoint(f"{i}/teacher.ckpt")
        student = enc.load_checkpoint(f"{out}/student.ckpt")
        fresh = enc.Checkpoint(config=student.config, phase="xlingual_student",
                               params=enc.init_params(student.config))
        pairs = onto.load_parallel_pairs(f"{i}/parallel.tsv")
        gap_ratio = (trainer.translation_gap(student, teacher, pairs)
                     / trainer.translation_gap(fresh, teacher, pairs))
        kg = onto.load_ontology(f"{i}/ontology.jsonl")
        teacher_nel = ev.eval_nel(teacher, kg, ev.load_nel_dataset(f"{i}/nel.tsv"), [1])[0].value
        student_nel = read_jsonl(f"{out}/nel.jsonl")[0]["value"]
        checks.expect(gap_ratio < 0.10, f"student gap ratio {gap_ratio:.4f} is not below 0.10")
        checks.expect(student_nel >= 0.9 * teacher_nel,
                      f"student NEL {student_nel:.4f} is below 0.9 x teacher NEL {teacher_nel:.4f}")
        return {"student_nel_top1": student_nel, "student_gap_ratio": gap_ratio,
                "teacher_nel_top1": teacher_nel}


class InferLarge:
    name = "infer-large"
    rate_samples: dict[str, int] = {}
    why = ("the read-only path on a 1176-concept world: per-text embed with a "
           "cold tokenizer cache and every eval, with no backward pass or optimizer")
    spec = dict(n_roots=24, families_per_root=6, leaves_per_family=7)

    def prepare(self, ctx) -> None:
        i = ctx.inputs
        ctx.sizes = write_world(fixtures.WorldSpec(seed=ctx.seed, **self.spec), i)
        ctx.mentions = ctx.sizes["mentions"]
        config = enc.config_from_mapping(trainer.parse_kv_file(f"{i}/demo.cfg"))
        enc.save_checkpoint(f"{i}/model.ckpt", enc.Checkpoint(
            config=config, phase="base", params=enc.init_params(config)))

    def commands(self, ctx, out: str) -> list:
        i, model = ctx.inputs, f"{ctx.inputs}/model.ckpt"
        embed, nel = _infer_commands(i, out, model, f"{i}/nel.tsv")[::-1]
        evals = [(b, ["eval", b, "--model", model, "--data", f"{i}/{data}",
                      "--out", f"{out}/{b}.jsonl"])
                 for b, data in (("sts", "sts_test.tsv"), ("bcr", "bcr.tsv"), ("nli", "nli.tsv"))]
        return [embed, nel] + evals

    def check(self, ctx, out: str, checks: Checks) -> None:
        check_nel(f"{out}/nel.jsonl", ctx.mentions, checks)
        for bench in ("sts", "bcr", "nli"):
            path = f"{out}/{bench}.jsonl"
            if checks.expect(os.path.isfile(path), f"missing {path}"):
                rows = read_jsonl(path)
                checks.expect(len(rows) == 1 and math.isfinite(rows[0]["value"]),
                              f"{path}: expected one finite row")

    def check_embed(self, ctx, out: str, checks: Checks) -> None:
        check_embed(f"{out}/embeddings.tsv", f"{ctx.inputs}/texts.txt",
                    f"{ctx.inputs}/model.ckpt", ctx.seed, checks)

    def quality(self, ctx, out: str, checks: Checks) -> dict:
        return {b: read_jsonl(f"{out}/{b}.jsonl")[0]["value"] for b in ("nel", "sts", "bcr", "nli")}


WORKLOADS = {w.name: w for w in (DemoPipeline(), XlingualStudent(), InferLarge())}
