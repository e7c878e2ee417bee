"""Deterministic synthetic world generator.

Builds a three-level ontology (domains > families > leaf concepts) over an
invented vocabulary, together with every dataset the pipeline consumes:
glossary, relation templates, STS/BCR/NEL/NLI fixtures, a pseudo-translated
parallel corpus, and a demo pipeline config. Everything is a pure function
of the seed, so the committed fixture files can be regenerated bit-for-bit
with ``python -m ontoembed.fixtures --out fixtures``.

The vocabulary is arranged so that lexical overlap alone cannot solve the
eval tasks: held-out entity-linking mentions share no tokens with any
indexed name and connect to their concept only through definition text,
which is exactly the signal the contrastive phase is supposed to learn.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field

import numpy as np

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

GENERIC_CLASS = ["syndrome", "ailment"]          # appear in names
HELDOUT_CLASS = "condition"                      # appears only in mentions/defs
LANG_SUFFIX = {"es": "os", "fr": "eau", "de": "ung", "nl": "je", "da": "et", "sv": "en"}

SUBJECTS = ["the clinic", "the hospital", "the patient", "the doctor",
            "the nurse", "the study", "the registry", "the ward"]
VERB_PAIRS = [("reviews", "checks"), ("records", "notes"), ("tracks", "monitors"),
              ("collects", "gathers"), ("shares", "reports")]
OBJECTS = ["lab results", "care plans", "visit summaries", "symptom lists",
           "treatment notes", "intake forms", "follow up calls", "test panels"]


@dataclass(frozen=True)
class WorldSpec:
    n_roots: int = 6
    families_per_root: int = 4
    leaves_per_family: int = 7
    seed: int = 7
    languages: tuple[str, ...] = ("es", "fr", "de", "nl", "da", "sv")


@dataclass
class ConceptSpec:
    cid: str
    words: list[str]
    level: str                      # root / family / leaf
    parent: str | None
    names: list[str] = field(default_factory=list)
    definition: str = ""
    glossary_def: str | None = None
    heldout_mention: str | None = None
    relations: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class World:
    spec: WorldSpec
    concepts: list[ConceptSpec]
    templates: list[tuple[str, str]]
    sts_train: list[tuple[str, str, float]]
    sts_val: list[tuple[str, str, float]]
    sts_test: list[tuple[str, str, float]]
    bcr: list[tuple[str, str, float]]
    nel: list[tuple[str, str]]
    nli: list[tuple[str, str, str]]
    parallel: list[tuple[str, str, str]]
    nel_xlingual: list[tuple[str, str]]

def _make_words(rng: np.random.Generator, count: int) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < count:
        n_syll = 2 + int(rng.integers(0, 2))
        word = "".join(
            CONSONANTS[int(rng.integers(len(CONSONANTS)))]
            + VOWELS[int(rng.integers(len(VOWELS)))]
            for _ in range(n_syll)
        )
        if int(rng.integers(0, 2)):
            word += CONSONANTS[int(rng.integers(len(CONSONANTS)))]
        if word in seen:
            continue
        seen.add(word)
        words.append(word)
    return words


def translate(text: str, lang: str) -> str:
    """Pseudo-translation: systematic per-word suffixing, order preserved."""
    suffix = LANG_SUFFIX[lang]
    return " ".join(w + suffix for w in text.split())


def generate_world(spec: WorldSpec) -> World:
    rng = np.random.default_rng(spec.seed)
    n_concepts = spec.n_roots * (1 + spec.families_per_root * (1 + spec.leaves_per_family))
    words = _make_words(rng, 3 * n_concepts + 32)
    cursor = 0

    def take3() -> list[str]:
        nonlocal cursor
        out = words[cursor:cursor + 3]
        cursor += 3
        return out

    concepts: list[ConceptSpec] = []
    families: list[ConceptSpec] = []
    leaves: list[ConceptSpec] = []

    for r in range(spec.n_roots):
        w = take3()
        root = ConceptSpec(
            cid=f"R{r + 1:02d}", words=w, level="root", parent=None,
            names=[f"{w[0]} system"],
            definition=f"the {w[0]} system covers {w[1]} and {w[2]} processes",
        )
        concepts.append(root)
        for f_i in range(spec.families_per_root):
            fw = take3()
            family = ConceptSpec(
                cid=f"F{r + 1:02d}{f_i + 1:02d}", words=fw, level="family", parent=root.cid,
                names=[f"{fw[0]} group", f"{fw[0]} {fw[1]}"],
                definition=f"a class of {w[0]} conditions marked by {fw[1]} and {fw[2]}",
                relations=[("part_of", root.cid)],
            )
            concepts.append(family)
            families.append(family)
            for l_i in range(spec.leaves_per_family):
                cw = take3()
                idx = len(leaves)
                cls = GENERIC_CLASS[(r + f_i + l_i) % len(GENERIC_CLASS)]
                # general-language filler rotates through the definitions so
                # the contrastive phase touches that vocabulary too
                filler = OBJECTS[idx % len(OBJECTS)]
                filler2 = SUBJECTS[idx % len(SUBJECTS)]
                leaf = ConceptSpec(
                    cid=f"C{r + 1:02d}{f_i + 1:02d}{l_i + 1:02d}", words=cw,
                    level="leaf", parent=family.cid,
                    names=[f"{cw[0]} {cw[1]}", f"{cw[0]} {cls}"],
                    definition=(
                        f"a {fw[0]} disorder in which patients report "
                        f"{cw[1]} and {cw[2]} in {filler}"
                    ),
                    glossary_def=(
                        f"{cw[0]} {cw[1]} is a chronic condition that leads to "
                        f"{cw[2]} noted by {filler2}"
                    ),
                    heldout_mention=f"{cw[2]} {HELDOUT_CLASS}",
                )
                concepts.append(leaf)
                leaves.append(leaf)

    # one lateral typed relation per leaf, toward the next sibling
    by_family: dict[str, list[ConceptSpec]] = {}
    for leaf in leaves:
        by_family.setdefault(leaf.parent, []).append(leaf)
    for leaf in leaves:
        sibs = by_family[leaf.parent]
        j = (sibs.index(leaf) + 1) % len(sibs)
        if sibs[j].cid != leaf.cid:
            leaf.relations.append(("associated_with", sibs[j].cid))

    templates = [
        ("is_a", "{SOURCE} is a kind of {TARGET}"),
        ("part_of", "{SOURCE} belongs to the {TARGET}"),
        ("associated_with", "{SOURCE} often occurs together with {TARGET}"),
    ]

    sts_rows = _make_sts(rng, leaves, families)
    sts_train, sts_val, sts_test = _split_rows(sts_rows)
    world = World(
        spec=spec,
        concepts=concepts,
        templates=templates,
        sts_train=sts_train,
        sts_val=sts_val,
        sts_test=sts_test,
        bcr=_make_bcr(rng, families, leaves),
        nel=[(leaf.heldout_mention, leaf.cid) for leaf in leaves],
        nli=_make_nli(rng, leaves),
        parallel=_make_parallel(spec, concepts),
        nel_xlingual=[
            (translate(leaf.heldout_mention, spec.languages[i % len(spec.languages)]), leaf.cid)
            for i, leaf in enumerate(leaves)
        ],
    )
    return world


def _variants(leaf: ConceptSpec, family_word: str) -> list[str]:
    c0, c1, c2 = leaf.words
    return [
        f"a {family_word} disorder in which patients report {c1} and {c2}",
        f"{c0} {c1} typically leads to {c2} in most cases",
        f"patients with {c0} {c1} often report {c2}",
        f"{c0} {c1} is one of the {family_word} conditions",
    ]


def _make_sts(rng, leaves, families) -> list[tuple[str, str, float]]:
    fam_word = {f.cid: f.words[0] for f in families}
    rows: list[tuple[str, str, float]] = []

    # concept-grounded pairs
    for i, leaf in enumerate(leaves):
        v = _variants(leaf, fam_word[leaf.parent])
        if i % 3 == 0:
            rows.append((v[0], v[2], 5.0))
        elif i % 3 == 1:
            rows.append((v[1], v[3], 4.5))
        else:
            rows.append((v[1], v[2], 4.5))
        if i % 4 == 0:
            sibs = [x for x in leaves if x.parent == leaf.parent and x.cid != leaf.cid]
            sib = sibs[int(rng.integers(len(sibs)))]
            rows.append((v[0], _variants(sib, fam_word[sib.parent])[0], 3.0))
        if i % 5 == 0:
            cousins = [x for x in leaves
                       if x.parent != leaf.parent and x.parent[:3] == leaf.parent[:3]]
            cz = cousins[int(rng.integers(len(cousins)))]
            rows.append((v[1], _variants(cz, fam_word[cz.parent])[1], 1.5))
        if i % 5 == 2:
            other = [x for x in leaves if x.parent[:3] != leaf.parent[:3]]
            oz = other[int(rng.integers(len(other)))]
            rows.append((v[2], _variants(oz, fam_word[oz.parent])[3], 0.5))

    # general-language pairs: what the contrastive phase tends to distort
    for i in range(2 * len(leaves)):
        subj = SUBJECTS[i % len(SUBJECTS)]
        va, vb = VERB_PAIRS[i % len(VERB_PAIRS)]
        obj = OBJECTS[i % len(OBJECTS)]
        kind = i % 4
        if kind == 0:
            rows.append((f"{subj} {va} {obj}", f"{subj} {vb} {obj}", 5.0))
        elif kind == 1:
            obj2 = OBJECTS[(i + 3) % len(OBJECTS)]
            rows.append((f"{subj} {va} {obj}", f"{subj} {vb} {obj2}", 2.5))
        elif kind == 2:
            subj2 = SUBJECTS[(i + 3) % len(SUBJECTS)]
            rows.append((f"{subj} {va} {obj}", f"{subj2} {va} {obj}", 2.0))
        else:
            subj2 = SUBJECTS[(i + 5) % len(SUBJECTS)]
            va2, _ = VERB_PAIRS[(i + 2) % len(VERB_PAIRS)]
            obj2 = OBJECTS[(i + 5) % len(OBJECTS)]
            rows.append((f"{subj} {va} {obj}", f"{subj2} {va2} {obj2}", 0.5))
    return rows


def _split_rows(rows):
    train, val, test = [], [], []
    for i, row in enumerate(rows):
        bucket = i % 5
        if bucket == 3:
            val.append(row)
        elif bucket == 4:
            test.append(row)
        else:
            train.append(row)
    return train, val, test


def _make_bcr(rng, families, leaves) -> list[tuple[str, str, float]]:
    rows: list[tuple[str, str, float]] = []
    for i, leaf in enumerate(leaves):
        if i % 3 == 0:
            sibs = [x for x in leaves if x.parent == leaf.parent and x.cid != leaf.cid]
            sib = sibs[int(rng.integers(len(sibs)))]
            rows.append((leaf.names[0], sib.names[0], 4.0))
        if i % 4 == 1:
            cousins = [x for x in leaves
                       if x.parent != leaf.parent and x.parent[:3] == leaf.parent[:3]]
            cz = cousins[int(rng.integers(len(cousins)))]
            rows.append((leaf.names[0], cz.names[0], 2.5))
        if i % 4 == 3:
            other = [x for x in leaves if x.parent[:3] != leaf.parent[:3]]
            oz = other[int(rng.integers(len(other)))]
            rows.append((leaf.names[0], oz.names[0], 1.0))
        if i % 6 == 2:
            parent = next(f for f in families if f.cid == leaf.parent)
            rows.append((leaf.names[0], parent.names[0], 4.5))
    return rows


def _make_nli(rng, leaves) -> list[tuple[str, str, str]]:
    rows = []
    for i in range(0, len(leaves), 2):
        leaf = leaves[i]
        other = [x for x in leaves if x.parent[:3] != leaf.parent[:3]]
        oz = other[int(rng.integers(len(other)))]
        c0, c1, c2 = leaf.words
        o0, o1, o2 = oz.words
        rows.append((
            f"patients with {c0} {c1} often report {c2}",
            f"{c0} {c1} typically leads to {c2} in most cases",
            f"{o0} {o1} typically leads to {o2} in most cases",
        ))
    return rows


def _make_parallel(spec: WorldSpec, concepts: list[ConceptSpec]) -> list[tuple[str, str, str]]:
    rows = []
    for concept in concepts:
        for lang in spec.languages:
            rows.append((concept.names[0], translate(concept.names[0], lang), lang))
            rows.append((concept.definition, translate(concept.definition, lang), lang))
            if concept.glossary_def:
                rows.append((concept.glossary_def, translate(concept.glossary_def, lang), lang))
    return rows


# ---------------------------------------------------------------------------
# Serialization


def ontology_lines(world: World) -> list[str]:
    lines = []
    for c in world.concepts:
        obj = {
            "id": c.cid,
            "names": c.names,
            "semantic_type": c.level,
            "parents": [c.parent] if c.parent else [],
            "relations": [{"type": t, "target": tgt} for t, tgt in c.relations],
            "definitions": [{"text": c.definition, "source": "human", "language": "en"}],
        }
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return lines


def glossary_lines(world: World) -> list[str]:
    return [
        json.dumps({"id": c.cid, "definition": c.glossary_def},
                   sort_keys=True, separators=(",", ":"))
        for c in world.concepts
        if c.glossary_def
    ]


DEMO_CONFIG = """\
# demo pipeline configuration (paths are relative to this file)
ontology = ontology.jsonl
templates = templates.tsv
glossary = glossary.jsonl
sts_train = sts_train.tsv
sts_val = sts_val.tsv
sts_test = sts_test.tsv
bcr = bcr.tsv
nel = nel.tsv
nli = nli.tsv

seed = 7
per_concept_templated = 2

# encoder
vocab_buckets = 4096
embed_dim = 48
hidden_dim = 96
output_dim = 96
hash_seed = 17
init_seed = 1
init_scale = 0.05

# phase hyperparameters
adapt_learning_rate = 0.002
adapt_epochs = 30
adapt_batch_size = 32
contrastive_learning_rate = 0.004
contrastive_epochs = 40
contrastive_batch_size = 64
readapt_learning_rate = 0.002
readapt_epochs = 15
readapt_batch_size = 32
distill_learning_rate = 0.001
distill_epochs = 5
distill_batch_size = 64
distill_runs = 7
pca_dim = 64
weight_decay = 0.01
warmup_fraction = 0.05
"""


def write_fixtures(world: World, out_dir) -> list[str]:
    """Write every fixture file into ``out_dir``; returns the file names."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name: str, lines: list[str]) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        written.append(name)

    def tsv(rows) -> list[str]:
        return ["\t".join(_fmt(v) for v in row) for row in rows]

    write("ontology.jsonl", ontology_lines(world))
    write("glossary.jsonl", glossary_lines(world))
    write("templates.tsv", ["\t".join(t) for t in world.templates])
    write("sts_train.tsv", tsv(world.sts_train))
    write("sts_val.tsv", tsv(world.sts_val))
    write("sts_test.tsv", tsv(world.sts_test))
    write("bcr.tsv", tsv(world.bcr))
    write("nel.tsv", tsv(world.nel))
    write("nli.tsv", tsv(world.nli))
    write("parallel.tsv", tsv(world.parallel))
    write("nel_xlingual.tsv", tsv(world.nel_xlingual))
    with open(os.path.join(out_dir, "demo.cfg"), "w", encoding="utf-8") as fh:
        fh.write(DEMO_CONFIG)
    written.append("demo.cfg")
    return written


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the bundled synthetic fixtures")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    world = generate_world(WorldSpec(seed=args.seed))
    files = write_fixtures(world, args.out)
    print(f"wrote {len(files)} files to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
