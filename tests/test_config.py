"""The one config schema: key sets and defaults derived from the config
dataclasses, the reader's error messages, and the README's key tables."""

import dataclasses
import os
import re

import pytest

from ontoembed import cli
from ontoembed import config
from ontoembed import encoder as enc

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_tables() -> dict[str, dict[str, str]]:
    """Heading -> {key: default as written} of each table in the README's
    config section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Config files"):text.index("## Library layout")]
    return {heading: dict(re.findall(r"^\| `(\w+)` \| (.+?) \|", body, re.M))
            for heading, body in re.findall(r"^### (.+?)\n(.*?)(?=^### |\Z)", section,
                                            re.M | re.S)}


def test_key_sets_derive_from_the_dataclass_fields():
    assert enc.ENCODER_CONFIG_KEYS == (
        "vocab_buckets", "embed_dim", "hidden_dim", "output_dim",
        "hash_seed", "init_seed", "init_scale")
    assert config.TRAIN_CONFIG_KEYS == (
        "learning_rate", "weight_decay", "warmup_fraction", "epochs", "batch_size", "seed")
    assert tuple(dataclasses.asdict(config.TrainConfig())) == config.TRAIN_CONFIG_KEYS
    assert enc.EncoderConfig().to_dict() == dataclasses.asdict(enc.EncoderConfig())


def test_parse_kv_file_rejects_a_duplicate_key_naming_both_lines(tmp_path):
    # the second value used to win silently
    path = tmp_path / "dup.cfg"
    path.write_text("epochs = 2\nbatch_size = 8\nepochs = 5\n")
    with pytest.raises(config.ConfigError, match=r"dup\.cfg:3: epochs is already set on line 1"):
        config.parse_kv_file(path)


def test_build_config_names_the_key_as_written():
    mapping = {"batch_size": "8", "distill_batch_size": "0"}
    assert config.build_config(config.TrainConfig, mapping, "a.cfg").batch_size == 8
    with pytest.raises(config.ConfigError, match=r"^a\.cfg: distill_batch_size: batch_size "):
        config.build_config(config.TrainConfig, mapping, "a.cfg", prefix="distill_")
    with pytest.raises(config.ConfigError,
                       match=r"^a\.cfg: warmup_fraction: warmup_fraction must be in \[0, 1\]"):
        config.build_config(config.TrainConfig, {"warmup_fraction": "2"}, "a.cfg")
    # a negative decay grew every weight each step and used to train silently
    with pytest.raises(config.ConfigError,
                       match=r"^a\.cfg: weight_decay: weight_decay must be >= 0"):
        config.build_config(config.TrainConfig, {"weight_decay": "-5"}, "a.cfg")
    assert config.build_config(config.TrainConfig, {"weight_decay": "0"}).weight_decay == 0.0
    with pytest.raises(config.ConfigError, match=r"^a\.cfg: init_scale: not a finite number"):
        config.build_config(enc.EncoderConfig, {"init_scale": "inf"}, "a.cfg")


def test_xlingual_student_keeps_the_teacher_config_for_unset_keys():
    teacher = enc.EncoderConfig(vocab_buckets=64, embed_dim=5, hidden_dim=7, output_dim=6,
                                hash_seed=3, init_seed=9)
    student = enc.config_from_mapping({"vocab_buckets": "128", "epochs": "4"}, teacher)
    assert student == dataclasses.replace(teacher, vocab_buckets=128)


def test_readme_key_tables_list_exactly_the_config_keys():
    tables = _readme_tables()
    assert list(tables) == ["Encoder keys", "Training keys", "Pipeline keys"]
    assert tuple(tables["Encoder keys"]) == enc.ENCODER_CONFIG_KEYS
    assert tuple(tables["Training keys"]) == config.TRAIN_CONFIG_KEYS
    assert tuple(tables["Pipeline keys"]) == config.config_keys(cli.PipelineConfig)


def test_readme_key_tables_match_the_schema():
    tables = _readme_tables()
    classes = {"Encoder keys": enc.EncoderConfig(), "Training keys": config.TrainConfig(),
               "Pipeline keys": cli.PipelineConfig()}
    assert set(tables) == set(classes)
    for heading, instance in classes.items():
        defaults = dataclasses.asdict(instance)
        for key, written in tables[heading].items():
            value = defaults[key]
            assert written in (("required", "none") if value is None else (f"`{value}`",)), key
    documented = set().union(*map(set, tables.values()))
    assert documented == set(cli.PIPELINE_KEYS) - {
        prefix + key for prefix in ("adapt_", "contrastive_", "readapt_", "distill_")
        for key in config.TRAIN_CONFIG_KEYS}
    assert set(cli.TRAIN_KEYS) == set(tables["Encoder keys"]) | set(tables["Training keys"])
    # every training phase reads every training key, so none is marked as one phase's
    with open(README, encoding="utf-8") as fh:
        marked = re.findall(r"^\| `(\w+)` \| [^|]+ \| \*contrastive only\*", fh.read(), re.M)
    assert marked == []
