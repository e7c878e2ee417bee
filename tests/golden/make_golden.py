"""Restore the committed golden checkpoint and check it against the
reference embeddings.

The golden files pin the on-disk format and the numeric behaviour of the
encoder: any platform must load golden.ckpt and reproduce
golden_embeddings.tsv within 1e-12. The TSV is the reference, so this
script never rewrites it: it writes golden.ckpt, encodes GOLDEN_TEXTS with
the checkpoint it just wrote, and exits non-zero if any row differs from
the committed TSV by 1e-12 or more. It writes the TSV only when none
exists; changing the reference numbers on purpose means deleting the TSV
and recording why in CHANGES.md. Run from the repo root:

    python tests/golden/make_golden.py
"""

import os
import sys

import numpy as np

from ontoembed import encoder as enc

HERE = os.path.dirname(os.path.abspath(__file__))
CKPT_PATH = os.path.join(HERE, "golden.ckpt")
TSV_PATH = os.path.join(HERE, "golden_embeddings.tsv")
TOLERANCE = 1e-12

GOLDEN_CONFIG = enc.EncoderConfig(
    vocab_buckets=64, embed_dim=8, hidden_dim=10, output_dim=8,
    hash_seed=41, init_seed=123, init_scale=0.05,
)

GOLDEN_TEXTS = [
    "fever",
    "peptic ulcer disease",
    "a chronic disorder of the lungs",
    "Fever",
    "zorvat mekl syndrome",
    "",
]


def main():
    params = enc.init_params(GOLDEN_CONFIG)
    enc.save_checkpoint(CKPT_PATH, enc.Checkpoint(config=GOLDEN_CONFIG, phase="base", params=params))
    ckpt = enc.load_checkpoint(CKPT_PATH)
    got = list(zip(GOLDEN_TEXTS, enc.encode_batch(ckpt.params, ckpt.config, GOLDEN_TEXTS)))

    if not os.path.exists(TSV_PATH):
        with open(TSV_PATH, "w", encoding="utf-8") as fh:
            for text, emb in got:
                fh.write(text + "\t" + ",".join(repr(float(x)) for x in emb) + "\n")
        print("wrote golden.ckpt and a new golden_embeddings.tsv")
        return 0

    reference = []
    with open(TSV_PATH, encoding="utf-8") as fh:
        for line in fh:
            text, vec = line.rstrip("\n").split("\t")
            reference.append((text, np.array([float(x) for x in vec.split(",")])))
    if [text for text, _ in reference] != GOLDEN_TEXTS:
        print("golden_embeddings.tsv texts differ from GOLDEN_TEXTS", file=sys.stderr)
        return 1
    worst = max(float(np.max(np.abs(emb - expected)))
                for (_, emb), (_, expected) in zip(got, reference))
    if worst >= TOLERANCE:
        print(f"golden.ckpt does not reproduce golden_embeddings.tsv: "
              f"worst abs err {worst:.3e} >= {TOLERANCE:g}", file=sys.stderr)
        return 1
    print(f"wrote golden.ckpt; golden_embeddings.tsv reproduced, worst abs err {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
