import json
import os
import subprocess
import sys

import pytest

from ontoembed import encoder as enc
from ontoembed import evalsuite as ev
from ontoembed import fixtures
from ontoembed import ontology as onto

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def run_child(argv, **env):
    """Run the real command in a child process with every warning shown
    (``-W default``), so that a traceback or a warning would show on its
    stderr; ``env`` adds to its environment."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "default", "-m", "ontoembed.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.fixture
def tiny_config():
    return enc.EncoderConfig(vocab_buckets=64, embed_dim=5, hidden_dim=7,
                             output_dim=6, hash_seed=3, init_seed=9)


@pytest.fixture(scope="session")
def fixtures_dir():
    assert os.path.isdir(FIXTURES_DIR), "bundled fixtures missing; run python -m ontoembed.fixtures"
    return os.path.abspath(FIXTURES_DIR)


@pytest.fixture(scope="session")
def small_world(tmp_path_factory):
    """A 50-concept world (2 roots x 3 families x 7 leaves) written to disk."""
    root = tmp_path_factory.mktemp("small_world")
    world = fixtures.generate_world(
        fixtures.WorldSpec(n_roots=2, families_per_root=3, leaves_per_family=7, seed=11)
    )
    fixtures.write_fixtures(world, root)
    return str(root)


@pytest.fixture(scope="session")
def small_kg(small_world):
    kg = onto.load_ontology(os.path.join(small_world, "ontology.jsonl"))
    kg = kg.with_templates(onto.load_templates(os.path.join(small_world, "templates.tsv")))
    kg, _ = onto.merge_glossary(kg, os.path.join(small_world, "glossary.jsonl"))
    return kg


@pytest.fixture(scope="session")
def small_datasets(small_world):
    return {
        "sts_train": ev.load_sts_dataset(os.path.join(small_world, "sts_train.tsv")),
        "sts_val": ev.load_sts_dataset(os.path.join(small_world, "sts_val.tsv")),
        "sts_test": ev.load_sts_dataset(os.path.join(small_world, "sts_test.tsv")),
        "bcr": ev.load_bcr_dataset(os.path.join(small_world, "bcr.tsv")),
        "nel": ev.load_nel_dataset(os.path.join(small_world, "nel.tsv")),
        "nli": ev.load_nli_dataset(os.path.join(small_world, "nli.tsv")),
    }


@pytest.fixture
def three_node_tree(tmp_path):
    """Tiny validated graph: A (2 names, def, parent B), B (2 defs), C."""
    path = write_jsonl(tmp_path / "kg.jsonl", [
        {"id": "B", "names": ["beta term"], "definitions": [
            {"text": "beta def one", "source": "human"},
            {"text": "beta def two", "source": "generated"}]},
        {"id": "A", "names": ["alpha one", "alpha two"], "parents": ["B"],
         "definitions": [{"text": "alpha def", "source": "human"}]},
        {"id": "C", "names": ["gamma"],
         "relations": [{"type": "untemplated", "target": "B"}]},
    ])
    tpl = write_text(tmp_path / "tpl.tsv", "is_a\t{SOURCE} is a kind of {TARGET}\n")
    kg = onto.load_ontology(path).with_templates(onto.load_templates(tpl))
    return kg
