"""Self-test of the benchmark harness at toy scale (about half a minute).

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that

1. the seed-7 world generator reproduces the bundled ``fixtures/`` files
   byte-for-byte;
2. a traced command writes byte-identical outputs to an untraced one;
3. the span self times sum to at most the root spans;
4. the single-phase configs the xlingual workload derives reproduce the
   pipeline's ``contrastive.ckpt``;
5. a deliberately failing command is counted as failed, not dropped.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import sys
import time

import run

sys.path.insert(0, run.SRC)

from ontoembed import fixtures, trainer  # noqa: E402
import workloads  # noqa: E402

TOY_SPEC = fixtures.WorldSpec(n_roots=2, families_per_root=3, leaves_per_family=4, seed=3)
TOY_CFG = {
    "ontology": "ontology.jsonl", "templates": "templates.tsv", "glossary": "glossary.jsonl",
    "sts_train": "sts_train.tsv", "sts_val": "sts_val.tsv", "sts_test": "sts_test.tsv",
    "bcr": "bcr.tsv", "nel": "nel.tsv", "nli": "nli.tsv",
    "seed": 3, "per_concept_templated": 2,
    "vocab_buckets": 512, "embed_dim": 8, "hidden_dim": 16, "output_dim": 16,
    "hash_seed": 5, "init_seed": 2, "init_scale": 0.05,
    "adapt_learning_rate": 0.002, "adapt_epochs": 2, "adapt_batch_size": 16,
    "contrastive_learning_rate": 0.004, "contrastive_epochs": 2, "contrastive_batch_size": 16,
    "readapt_learning_rate": 0.002, "readapt_epochs": 1, "readapt_batch_size": 16,
    "distill_learning_rate": 0.001, "distill_epochs": 1, "distill_batch_size": 16,
    "distill_runs": 2, "pca_dim": 8,
    "weight_decay": 0.01, "warmup_fraction": 0.05,
}


def main() -> int:
    failures = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    work = os.path.join(run.WORK, f"selftest-pid{os.getpid()}")
    os.makedirs(work)
    try:
        # 1. generator reproduces the bundled fixtures
        generated = os.path.join(work, "fixtures7")
        names = fixtures.write_fixtures(fixtures.generate_world(fixtures.WorldSpec(seed=7)),
                                        generated)
        bundled = os.path.join(run.ROOT, "fixtures")
        same = sorted(names) == sorted(os.listdir(bundled)) and all(
            filecmp.cmp(os.path.join(generated, n), os.path.join(bundled, n), shallow=False)
            for n in names)
        expect(same, f"seed-7 generator reproduces the {len(names)} files in fixtures/")

        # 2-3. traced pipeline writes the same bytes; self times fit the root
        inputs = os.path.join(work, "inputs")
        fixtures.write_fixtures(fixtures.generate_world(TOY_SPEC), inputs)
        workloads.write_cfg(os.path.join(inputs, "toy.cfg"), TOY_CFG)
        runner = run.Runner(work, time.monotonic() + 600.0)
        argv = ["pipeline", "--config", os.path.join(inputs, "toy.cfg"), "--out-dir"]
        plain, traced = os.path.join(work, "plain"), os.path.join(work, "traced")
        spans = os.path.join(work, "spans")
        os.makedirs(spans)
        runner.command("pipeline", argv + [plain])
        runner.command("pipeline", argv + [traced], os.path.join(spans, "pipeline.json"))
        digests = run.output_digests(plain)
        expect(runner.failed == 0 and len(digests) > 3
               and run.output_digests(traced) == digests,
               f"traced pipeline writes the same {len(digests)} outputs as an untraced one")
        tokenize = run.cold_tokenize(runner, spans)
        traced_figures = run.trace_metrics(spans, tokenize)
        metrics = traced_figures["metrics"]
        expect(tokenize["ok"] and metrics["encoder.tokenize.calls"] > 0,
               "cold tokenize timing covers the encoded texts")
        expect(0 < traced_figures["self_sum_s"] <= traced_figures["root_s"] * (1 + 1e-9),
               f"self times sum {traced_figures['self_sum_s']:.4f} s <= root spans "
               f"{traced_figures['root_s']:.4f} s")
        expect(metrics["trainer.adamw_step.calls"] > 0 and metrics["cli.main.calls"] == 1
               and metrics["trainer.adapt_sts.calls"] == 2,
               "spans cover the optimizer, both adaptation passes and the root")

        # 4. derived single-phase configs reproduce the pipeline's teacher
        mapping = trainer.parse_kv_file(os.path.join(inputs, "toy.cfg"))
        for prefix in ("adapt_", "contrastive_"):
            workloads.write_cfg(os.path.join(inputs, f"{prefix}.cfg"),
                                workloads.phase_cfg(mapping, prefix))
        runner.prepare(workloads.teacher_commands(inputs, mapping, "adapt_.cfg",
                                                  "contrastive_.cfg"))
        expect(runner.failed == 0 and filecmp.cmp(
            os.path.join(inputs, "teacher.ckpt"),
            os.path.join(plain, "contrastive.ckpt"), shallow=False),
            "verbalize + train sts + train contrastive reproduce contrastive.ckpt")

        # 5. a failing command is counted
        before_cmds, before_failed = runner.commands, runner.failed
        runner.command("bad", ["eval", "sts", "--model", os.path.join(work, "missing.ckpt"),
                               "--data", os.path.join(inputs, "sts_test.tsv"),
                               "--out", os.path.join(work, "bad.jsonl")])
        expect(runner.commands == before_cmds + 1 and runner.failed == before_failed + 1,
               "a failing command is counted as attempted and failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("selftest " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
