"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in the -rA summary).

The heavyweight criteria share one execution of the bundled demo pipeline
through a session fixture, so the whole module stays well inside the
end-to-end time budget it asserts.
"""

import inspect
import json
import os
import time

import numpy as np
import pytest
import scipy.stats

from ontoembed import cli
from ontoembed import encoder as enc
from ontoembed import evalsuite as ev
from ontoembed import losses
from ontoembed import ontology as onto
from ontoembed import pipeline
from ontoembed import trainer

from conftest import FIXTURES_DIR
from oracles import (
    brute_nli_accuracy, brute_topk_concepts, checkpoint_to_bytes, fd_gradient,
    params_equal, rel_error,
)


def _ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    """One timed execution of the bundled demo pipeline."""
    out_dir = tmp_path_factory.mktemp("demo_pipeline")
    config = os.path.join(FIXTURES_DIR, "demo.cfg")
    started = time.time()
    code = cli.main(["pipeline", "--config", config, "--out-dir", str(out_dir)])
    elapsed = time.time() - started
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    return {"out_dir": str(out_dir), "report": report, "elapsed": elapsed}


@pytest.fixture(scope="session")
def bundled():
    kg = onto.load_ontology(os.path.join(FIXTURES_DIR, "ontology.jsonl"))
    kg = kg.with_templates(onto.load_templates(os.path.join(FIXTURES_DIR, "templates.tsv")))
    kg, _ = onto.merge_glossary(kg, os.path.join(FIXTURES_DIR, "glossary.jsonl"))
    return {
        "kg": kg,
        "corpus": onto.build_corpus(kg, 2, 7),
        "sts_train": ev.load_sts_dataset(os.path.join(FIXTURES_DIR, "sts_train.tsv")),
        "sts_test": ev.load_sts_dataset(os.path.join(FIXTURES_DIR, "sts_test.tsv")),
        "bcr": ev.load_bcr_dataset(os.path.join(FIXTURES_DIR, "bcr.tsv")),
        "nel": ev.load_nel_dataset(os.path.join(FIXTURES_DIR, "nel.tsv")),
        "nel_x": ev.load_nel_dataset(os.path.join(FIXTURES_DIR, "nel_xlingual.tsv")),
        "parallel": onto.load_parallel_pairs(os.path.join(FIXTURES_DIR, "parallel.tsv")),
    }


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(0)
    tol = 1e-4

    cfg = enc.EncoderConfig(vocab_buckets=32, embed_dim=5, hidden_dim=7,
                            output_dim=6, hash_seed=3, init_seed=0)
    texts = ["fever", "peptic ulcer", "a chronic condition of the lungs",
             "alpha beta alpha", "x y z w v"]
    for trial in range(20):
        params = enc.init_params(
            enc.EncoderConfig(**{**cfg.to_dict(), "init_seed": trial}))
        params.b1 = rng.normal(0, 0.05, params.b1.shape)
        params.b2 = rng.normal(0, 0.05, params.b2.shape)
        text = texts[trial % len(texts)]
        g = rng.normal(size=cfg.output_dim)
        grad = enc.backward_batch(params, cfg, [text], g[None],
                                  enc.forward_tokens(params, enc.tokenize_batch(cfg, [text])))
        analytic = enc.flatten(grad)
        numeric = fd_gradient(
            lambda v: float(enc.encode_batch(enc.unflatten(cfg, v), cfg, [text])[0] @ g),
            enc.flatten(params))
        assert rel_error(analytic, numeric) < tol

    def unit(n, d):
        rows = rng.normal(size=(n, d))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    for _ in range(20):
        b, d = 4, 5
        scale = float(rng.uniform(1, 20))
        a, p = unit(b, d), unit(b, d)
        _, ga, gp = losses.info_nce(a, p, scale)
        for arr, grad, which in ((a, ga, 0), (p, gp, 1)):
            def f(v, which=which):
                args = [a, p]
                args[which] = v.reshape(args[which].shape)
                return losses.info_nce(*args, scale)[0]
            assert rel_error(grad, fd_gradient(f, arr)) < tol

    for _ in range(20):
        pred, target = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        _, grad = losses.mse(pred, target)
        assert rel_error(grad, fd_gradient(
            lambda v: losses.mse(v.reshape(4, 6), target)[0], pred)) < tol

    for _ in range(20):
        u, v, gold = unit(5, 4), unit(5, 4), rng.uniform(0, 1, size=5)
        _, gu, gv = losses.cosine_regression(u, v, gold)
        assert rel_error(gu, fd_gradient(
            lambda w: losses.cosine_regression(w.reshape(5, 4), v, gold)[0], u)) < tol
        assert rel_error(gv, fd_gradient(
            lambda w: losses.cosine_regression(u, w.reshape(5, 4), gold)[0], v)) < tol

    elapsed = time.time() - started
    assert elapsed < 30.0
    _ok("1", f"(gradients vs central differences, rel 1e-4; {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. InfoNCE anchor value


def test_criterion_2_info_nce_anchor():
    v = np.zeros((128, 16))
    v[:, 0] = 1.0
    loss, *_ = losses.info_nce(v, v)
    assert abs(loss - np.log(128.0)) < 1e-9
    _ok("2", f"(uniform 128-batch loss = ln 128 within 1e-9: {loss:.12f})")


# ---------------------------------------------------------------------------
# 3. PCA contract


def test_criterion_3_pca():
    rng = np.random.default_rng(1)
    for trial in range(10):
        x = rng.normal(size=(40, 16))
        model = trainer.pca_fit(x, 8)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-8
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    basis = rng.normal(size=(5, 24))
    coeffs = rng.normal(size=(60, 5))
    x = coeffs @ basis + rng.normal(size=24)
    model = trainer.pca_fit(x, 5)
    recon = model.mean + trainer.pca_project(model, x) @ model.components
    assert float(np.mean(np.abs(recon - x))) < 1e-8

    assert inspect.signature(trainer.build_targets).parameters["k"].default == 64
    demo_cfg = trainer.parse_kv_file(os.path.join(FIXTURES_DIR, "demo.cfg"))
    assert int(demo_cfg["pca_dim"]) == 64
    _ok("3", "(orthonormal within 1e-8, variance sorted, rank-k recon 1e-8, k=64 default)")


# ---------------------------------------------------------------------------
# 4. metric oracles


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 10))
        xs = rng.integers(0, 5, size=n).astype(float)
        ys = rng.normal(size=n)
        if xs.max() == xs.min():
            continue
        assert abs(ev.pearson(xs, ys) - scipy.stats.pearsonr(xs, ys).statistic) < 1e-12
        assert abs(ev.spearman(xs, ys) - scipy.stats.spearmanr(xs, ys).statistic) < 1e-12
        checked += 1

    for _ in range(200):
        n_concepts = int(rng.integers(3, 8))
        names = [(f"c{j:02d}", rng.normal(size=6)) for j in range(n_concepts)
                 for _ in range(int(rng.integers(1, 3)))]
        names = [(cid, v / np.linalg.norm(v)) for cid, v in names]
        mention = rng.normal(size=6)
        mention /= np.linalg.norm(mention)
        expected = brute_topk_concepts(names, mention, n_concepts)
        # package-side count-rank of every concept through a synthetic index
        index = ev.NelIndex(embeddings=np.array([v for _, v in names]),
                            concept_ids=[c for c, _ in names],
                            names=[f"n{i}" for i in range(len(names))])
        [(_, scores)] = ev._score_blocks(index, mention[None, :])
        best = np.maximum.reduceat(scores, index.starts, axis=1)
        got = [int(ev._gold_ranks(best, np.array([j]))[0]) for j in range(n_concepts)]
        assert got == [expected.index(cid) for cid in index.concepts]

    for _ in range(200):
        rows = [tuple(rng.normal(size=5) for _ in range(3)) for _ in range(6)]
        rows = [tuple(v / np.linalg.norm(v) for v in r) for r in rows]
        acc = brute_nli_accuracy(rows)
        wins = sum(1 for a, e, c in rows if float(a @ e) > float(a @ c))
        assert abs(acc - wins / len(rows)) < 1e-12

    _ok("4", f"(pearson/spearman/top-k/NLI vs brute force, 1e-12, {checked}+ instances)")


# ---------------------------------------------------------------------------
# 5. desk-scale ablation ordering across 3 seeds


def test_criterion_5_ablation_ordering(bundled):
    kg, corpus = bundled["kg"], bundled["corpus"]
    sts_train, sts_test = bundled["sts_train"], bundled["sts_test"]
    bcr, nel = bundled["bcr"], bundled["nel"]
    details = []
    for seed in (1, 2, 3):
        enc_cfg = enc.EncoderConfig(vocab_buckets=4096, embed_dim=48, hidden_dim=96,
                                    output_dim=96, hash_seed=17, init_seed=seed)
        base = enc.Checkpoint(config=enc_cfg, phase="base",
                              params=enc.init_params(enc_cfg))
        adapted, _ = trainer.adapt_sts(
            base, sts_train,
            trainer.TrainConfig(learning_rate=2e-3, epochs=30, batch_size=32, seed=seed))
        contrastive, _ = trainer.train_contrastive(
            adapted, corpus,
            trainer.TrainConfig(learning_rate=4e-3, epochs=40, batch_size=64, seed=seed))
        readapted, _ = trainer.adapt_sts(
            contrastive, sts_train,
            trainer.TrainConfig(learning_rate=2e-3, epochs=15, batch_size=32, seed=seed))
        _, targets = trainer.build_targets(readapted, kg, k=64)
        distilled, dstats = trainer.train_self_distill(
            adapted, targets, kg,
            trainer.TrainConfig(learning_rate=1e-3, epochs=5, batch_size=64, seed=seed))
        # full-training-set distillation loss is non-increasing across epochs
        # on the bundled fixture
        assert all(b <= a for a, b in zip(dstats.epoch_losses, dstats.epoch_losses[1:]))

        base_nel = ev.eval_nel(base, kg, nel, [1])[0].value
        con_nel = ev.eval_nel(contrastive, kg, nel, [1])[0].value
        base_bcr = ev.eval_bcr(base, bcr).value
        con_bcr = ev.eval_bcr(contrastive, bcr).value
        con_sts = ev.eval_sts(contrastive, sts_test).value
        dist_sts = ev.eval_sts(distilled, sts_test).value

        assert con_nel > base_nel, f"seed {seed}: contrastive NEL must beat base"
        assert con_bcr > base_bcr, f"seed {seed}: contrastive BCR must beat base"
        assert dist_sts >= con_sts, f"seed {seed}: distilled STS must not trail contrastive"
        details.append(
            f"seed {seed}: NEL {base_nel:.3f}->{con_nel:.3f}, "
            f"BCR {base_bcr:+.3f}->{con_bcr:+.3f}, "
            f"STS C {con_sts:.3f} vs S {dist_sts:.3f}")
    _ok("5", "(contrastive>base on NEL+BCR, distilled>=contrastive on STS; "
        + "; ".join(details) + ")")


# ---------------------------------------------------------------------------
# 6. greedy soup guarantee on the 7-seed demo


def test_criterion_6_greedy_soup_guarantee(demo_run):
    report = demo_run["report"]
    assert len(report["distill_runs"]) == 7
    best_single = max(r["val_pearson"] for r in report["distill_runs"])
    assert report["soup"]["best_single_validation"] == best_single
    assert report["soup"]["validation_pearson"] >= best_single
    _ok("6", f"(soup {report['soup']['validation_pearson']:.4f} >= "
             f"best single {best_single:.4f}, kept {len(report['soup']['kept'])}/7)")


# ---------------------------------------------------------------------------
# 7. cross-lingual distillation


def test_criterion_7_cross_lingual(demo_run, bundled):
    kg = bundled["kg"]
    teacher = enc.load_checkpoint(os.path.join(demo_run["out_dir"], "contrastive.ckpt"))
    student_cfg = enc.EncoderConfig(vocab_buckets=32768, embed_dim=48, hidden_dim=96,
                                    output_dim=96, hash_seed=29, init_seed=101)
    pairs = bundled["parallel"]
    student, _ = trainer.train_xlingual(
        teacher, student_cfg, pairs,
        trainer.TrainConfig(learning_rate=4e-3, epochs=10, batch_size=128, seed=1))

    fresh = enc.Checkpoint(config=student_cfg, phase="xlingual_student",
                           params=enc.init_params(student_cfg))
    gap0 = trainer.translation_gap(fresh, teacher, pairs)
    gap1 = trainer.translation_gap(student, teacher, pairs)
    assert gap1 < 0.10 * gap0

    teacher_top1 = ev.eval_nel(teacher, kg, bundled["nel"], [1])[0].value
    student_top1 = ev.eval_nel(student, kg, bundled["nel_x"], [1])[0].value
    assert student_top1 >= 0.90 * teacher_top1
    _ok("7", f"(gap {gap0:.3f}->{gap1:.3f} = {100 * gap1 / gap0:.1f}%; "
             f"student NEL {student_top1:.3f} vs teacher {teacher_top1:.3f})")


# ---------------------------------------------------------------------------
# 8. determinism of every command


def test_criterion_8_command_determinism(tmp_path):
    fx = FIXTURES_DIR
    cfg_text = (
        "learning_rate = 0.002\nepochs = 2\nbatch_size = 32\nseed = 4\n"
        "vocab_buckets = 1024\nembed_dim = 24\nhidden_dim = 48\n"
        "output_dim = 48\nhash_seed = 5\ninit_seed = 2\n"
    )
    cfg = tmp_path / "t.cfg"
    cfg.write_text(cfg_text)

    def twice(name, argv, outputs):
        blobs = []
        for run_dir in ("r1", "r2"):
            d = tmp_path / run_dir / name
            os.makedirs(d, exist_ok=True)
            mapped = [a.replace("OUT", str(d)) for a in argv]
            assert cli.main(mapped) == 0, name
            blobs.append([(d / o).read_bytes() for o in outputs])
        assert blobs[0] == blobs[1], f"{name} outputs differ between identical runs"

    twice("verbalize",
          ["verbalize", "--ontology", f"{fx}/ontology.jsonl",
           "--templates", f"{fx}/templates.tsv", "--glossary", f"{fx}/glossary.jsonl",
           "--seed", "7", "--out", "OUT/corpus.jsonl"],
          ["corpus.jsonl"])

    corpus = str(tmp_path / "r1" / "verbalize" / "corpus.jsonl")
    twice("train",
          ["train", "contrastive", "--corpus", corpus, "--config", str(cfg),
           "--out", "OUT/model.ckpt"],
          ["model.ckpt"])

    model = str(tmp_path / "r1" / "train" / "model.ckpt")
    twice("sts",
          ["train", "sts", "--base", model, "--data", f"{fx}/sts_train.tsv",
           "--config", str(cfg), "--out", "OUT/adapted.ckpt"],
          ["adapted.ckpt"])

    ing_cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                                output_dim=24, hash_seed=5)
    ingredients = []
    for seed in (1, 2):
        c = enc.EncoderConfig(**{**ing_cfg.to_dict(), "init_seed": seed})
        p = tmp_path / f"ingredient{seed}.ckpt"
        enc.save_checkpoint(p, enc.Checkpoint(config=c, phase="self_distilled",
                                              params=enc.init_params(c)))
        ingredients.append(str(p))
    twice("soup",
          ["soup", "--models", *ingredients, "--val", f"{fx}/sts_val.tsv",
           "--metric", "pearson", "--strategy", "greedy", "--out", "OUT/soup.ckpt"],
          ["soup.ckpt", "soup.ckpt.soup_report.json"])

    twice("eval",
          ["eval", "nel", "--model", model, "--data", f"{fx}/nel.tsv",
           "--ontology", f"{fx}/ontology.jsonl", "--topk", "1,5",
           "--out", "OUT/report.jsonl"],
          ["report.jsonl"])

    texts = tmp_path / "texts.txt"
    texts.write_text("fever\npeptic ulcer\n\nzorvat mekl\n")
    twice("embed",
          ["embed", "--model", model, "--in", str(texts), "--out", "OUT/emb.tsv"],
          ["emb.tsv"])

    # the pipeline command, at reduced scale so the re-run stays cheap
    from ontoembed import fixtures as fx_mod
    world_dir = tmp_path / "world"
    fx_mod.write_fixtures(fx_mod.generate_world(
        fx_mod.WorldSpec(n_roots=2, families_per_root=2, leaves_per_family=5, seed=13)),
        world_dir)
    pipe_cfg = tmp_path / "pipe.cfg"
    pipe_cfg.write_text("".join(f"{k} = {v}\n" for k, v in {
        "ontology": world_dir / "ontology.jsonl", "templates": world_dir / "templates.tsv",
        "glossary": world_dir / "glossary.jsonl", "sts_train": world_dir / "sts_train.tsv",
        "sts_val": world_dir / "sts_val.tsv", "sts_test": world_dir / "sts_test.tsv",
        "bcr": world_dir / "bcr.tsv", "nel": world_dir / "nel.tsv",
        "nli": world_dir / "nli.tsv", "seed": 3, "per_concept_templated": 2,
        "vocab_buckets": 1024, "embed_dim": 24, "hidden_dim": 48, "output_dim": 48,
        "hash_seed": 5, "init_seed": 1, "adapt_epochs": 4, "adapt_learning_rate": 0.002,
        "adapt_batch_size": 32, "contrastive_epochs": 3,
        "contrastive_learning_rate": 0.004, "contrastive_batch_size": 32,
        "readapt_epochs": 2, "readapt_learning_rate": 0.002, "readapt_batch_size": 32,
        "distill_epochs": 2, "distill_learning_rate": 0.001, "distill_batch_size": 32,
        "distill_runs": 2, "pca_dim": 12,
    }.items()))
    twice("pipeline",
          ["pipeline", "--config", str(pipe_cfg), "--out-dir", "OUT"],
          ["report.json", "soup.ckpt", "contrastive.ckpt", "distill_02.ckpt"])
    _ok("8", "(verbalize/train/sts/soup/eval/embed/pipeline re-runs byte-identical)")


# ---------------------------------------------------------------------------
# 9. checkpoint round trip and committed golden data


def test_criterion_9_checkpoint_and_golden(tmp_path):
    cfg = enc.EncoderConfig(vocab_buckets=128, embed_dim=12, hidden_dim=20,
                            output_dim=16, hash_seed=8, init_seed=5)
    params = enc.attach_head(enc.init_params(cfg), cfg, 6, seed=3)
    ckpt = enc.Checkpoint(config=cfg, phase="self_distilled", params=params,
                          history=("base", "sts_adapted", "self_distilled"))
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(path, ckpt)
    loaded = enc.load_checkpoint(path)
    assert params_equal(loaded.params, ckpt.params)
    assert checkpoint_to_bytes(loaded) == checkpoint_to_bytes(ckpt)

    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    golden = enc.load_checkpoint(os.path.join(golden_dir, "golden.ckpt"))
    worst = 0.0
    with open(os.path.join(golden_dir, "golden_embeddings.tsv"), encoding="utf-8") as fh:
        for line in fh:
            text, vec = line.rstrip("\n").split("\t")
            expected = np.array([float(x) for x in vec.split(",")])
            got = enc.encode_batch(golden.params, golden.config, [text])[0]
            worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst < 1e-12
    _ok("9", f"(round trip bit-exact; golden embeddings worst abs err {worst:.2e})")


# ---------------------------------------------------------------------------
# 10. end-to-end demo under five minutes


def test_criterion_10_demo_time_budget(demo_run):
    assert demo_run["elapsed"] < 300.0
    report = demo_run["report"]
    phases = report["phases"]
    assert {"base", "contrastive", "self_distilled", "souped"} <= set(phases)
    # one metric row per (phase x benchmark)
    benchmarks = {"sts_val", "sts_test", "bcr", "nel", "nli"}
    seen = {(r["phase"], r["benchmark"]) for r in report["rows"]}
    assert seen == {(p, b) for p in phases for b in benchmarks}
    _ok("10", f"(cmd_pipeline demo finished in {demo_run['elapsed']:.1f}s < 300s)")


# ---------------------------------------------------------------------------
# 14. what the glossary and the relation templates add to the contrastive phase


def test_criterion_14_glossary_and_templates_ground_the_contrastive_phase(demo_run):
    # The contrastive phase trains twice more from the demo's adapted.ckpt
    # with the demo's settings: on the corpus built without the glossary's
    # generated definitions, and on the one without templated sentences.
    plan = pipeline.PipelinePlan(os.path.join(FIXTURES_DIR, "demo.cfg"))
    adapted = enc.load_checkpoint(os.path.join(demo_run["out_dir"], "adapted.ckpt"))
    kg = onto.load_ontology(os.path.join(FIXTURES_DIR, "ontology.jsonl"))
    kg = kg.with_templates(onto.load_templates(os.path.join(FIXTURES_DIR, "templates.tsv")))
    corpora = {"no glossary": onto.build_corpus(kg, plan.cfg.per_concept_templated, plan.cfg.seed),
               "no templates": onto.build_corpus(plan.kg, 0, plan.cfg.seed)}
    scores = {"full": {r["benchmark"]: r["value"] for r in demo_run["report"]["rows"]
                       if r["phase"] == "contrastive"}}
    for source, corpus in corpora.items():
        model, _ = trainer.train_contrastive(adapted, corpus, plan.train["contrastive"])
        scores[source] = {b: r.value for b, r in plan.score(source, model, ("nel", "bcr")).items()}
    assert scores["full"]["nel"] > scores["no glossary"]["nel"]
    assert scores["full"]["bcr"] >= scores["no templates"]["bcr"] + 0.2
    _ok("14", "(contrastive NEL / BCR: " + "; ".join(
        f"{source} {s['nel']:.3f} / {s['bcr']:.3f}" for source, s in scores.items()) + ")")
