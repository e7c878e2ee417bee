import argparse
import hashlib
import itertools
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ontoembed import cli
from ontoembed import encoder as enc
from ontoembed import evalsuite as ev
from ontoembed import fixtures
from ontoembed import ontology as onto
from ontoembed import pipeline
from ontoembed import trainer
from ontoembed.config import TRAIN_CONFIG_KEYS

import oracles
from conftest import run_child, write_jsonl, write_text

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(argv):
    return cli.main(argv)


def _mini_train_cfg(tmp_path, **extra):
    lines = {
        "learning_rate": "0.002", "epochs": "2", "batch_size": "16",
        "seed": "3", "vocab_buckets": "512", "embed_dim": "16",
        "hidden_dim": "24", "output_dim": "24", "hash_seed": "5",
        "init_seed": "1",
    }
    lines.update({k: str(v) for k, v in extra.items()})
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


# ---------------------------------------------------------------------------
# exit codes and atomicity


def test_missing_templates_file_exits_1_no_partial_output(small_world, tmp_path):
    out = tmp_path / "corpus.jsonl"
    code = run(["verbalize", "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", str(tmp_path / "nope.tsv"), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert not os.path.exists(str(out) + ".manifest.json")


_NEL = ["eval", "nel", "--model", "m.ckpt", "--data", "nel.tsv", "--ontology", "o.jsonl"]
_VERBALIZE = ["verbalize", "--ontology", "o.jsonl", "--templates", "t.tsv"]


@pytest.mark.parametrize("argv, option", [
    (_NEL + ["--topk", "a"], "--topk"),
    (_NEL + ["--topk", "1,,5"], "--topk"),
    (_NEL + ["--topk", "1,0"], "--topk"),
    (_VERBALIZE + ["--per-concept", "-1"], "--per-concept"),
    (_VERBALIZE + ["--seed", "-1"], "--seed"),
    (["train", "self-distill", "--pca-dim", "0"], "--pca-dim"),
    (["train", "sts", "--seed", "-3"], "--seed"),
    (["train", "sts", "--epochs", "-1"], "--epochs"),
    (["train", "sts", "--epochs", "2.5"], "--epochs"),
], ids=["topk-letter", "topk-empty-item", "topk-zero", "per-concept-negative",
        "verbalize-seed-negative", "pca-dim-zero", "train-seed-negative",
        "epochs-negative", "epochs-fraction"])
def test_bad_argument_exits_64_naming_the_option(tmp_path, capsys, argv, option):
    # --topk a used to exit 2 with a bare int() error, and
    # --per-concept -1 used to write a corpus as if it were 0
    assert run(argv + ["--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"argument {option}: expected an integer >= " in err[0], err
    assert os.listdir(tmp_path) == []


def test_invalid_ontology_exits_2(tmp_path):
    bad = write_jsonl(tmp_path / "bad.jsonl", [
        {"id": "A", "names": ["a"], "parents": ["B"]},
        {"id": "B", "names": ["b"], "parents": ["A"]},
    ])
    tpl = write_text(tmp_path / "t.tsv", "is_a\t{SOURCE} x {TARGET}\n")
    out = tmp_path / "corpus.jsonl"
    code = run(["verbalize", "--ontology", bad, "--templates", tpl, "--out", str(out)])
    assert code == 2
    assert not out.exists()


_CONCEPT = '{"id": "R", "names": ["root"]}\n'
_PAIR = {"concept_id": "R", "anchor": {"text": "root", "kind": "name"},
         "positive": {"text": "the root", "kind": "human_definition"}}


def _bad_corpus(**change):
    return json.dumps(_PAIR) + "\n" + json.dumps({**_PAIR, "concept_id": "S", **change}) + "\n"


# (command, the input it reads from the bad file, file name, bytes, line named)
_MALFORMED = {
    "ontology-parents-number": ("verbalize", "--ontology", "kg.jsonl",
                                _CONCEPT + '{"id": "A", "names": ["a"], "parents": 5}\n', 2),
    "ontology-relations-number": ("verbalize", "--ontology", "kg.jsonl",
                                  _CONCEPT + '{"id": "A", "names": ["a"], "relations": 5}\n', 2),
    "ontology-definitions-number": ("verbalize", "--ontology", "kg.jsonl",
                                    _CONCEPT + '{"id": "A", "names": ["a"], "definitions": 5}\n',
                                    2),
    "ontology-nested-too-deep": ("verbalize", "--ontology", "kg.jsonl",
                                 _CONCEPT + "[" * 100000 + "\n", 2),
    "ontology-parents-string": ("verbalize", "--ontology", "kg.jsonl",
                                _CONCEPT + '{"id": "A", "names": ["a"], "parents": "R"}\n', 2),
    "corpus-text-number": ("contrastive", "--corpus", "corpus.jsonl",
                           _bad_corpus(anchor={"text": 5, "kind": "name"}), 2),
    "corpus-concept-id-list": ("contrastive", "--corpus", "corpus.jsonl",
                               _bad_corpus(concept_id=["x"]), 2),
    "glossary-definition-null": ("verbalize", "--glossary", "glossary.jsonl",
                                 '{"id": "R", "definition": null}\n', 1),
    "templates-not-utf8": ("verbalize", "--templates", "templates.tsv",
                           b"is_a\t{SOURCE} is a {TARGET}\npart_\xff\t{SOURCE} in {TARGET}\n", 2),
    "sts-not-utf8": ("sts", "--data", "sts.tsv", b"a\tb\t1\nc\td\xe9\t4\n", 2),
    "sts-gold-out-of-range": ("sts", "--data", "sts.tsv", "a\tb\t1\nc\td\t7\n", 2),
    "eval-sts-gold-out-of-range": ("eval-sts", "--data", "sts7.tsv", "a\tb\t1\nc\td\t7\n", 2),
    "embed-not-utf8": ("embed", "--in", "texts.txt", b"fever\n\na\xffb\n", 3),
    "embed-tab": ("embed", "--in", "texts.txt", "fever\r\nbad\ttext\n", 2),
    "manifest-without-candidates": ("soup", "--manifest", "cands.json", '{"cands": []}', None),
    "manifest-not-an-object": ("soup", "--manifest", "cands.json", "[1, 2]", None),
    "manifest-entry-without-path": ("soup", "--manifest", "cands.json",
                                    '{"candidates": [{"score": 0.5}]}', None),
    "manifest-nested-too-deep": ("soup", "--manifest", "cands.json", "[" * 100000, None),
    "manifest-score-string": ("soup", "--manifest", "cands.json",
                              '{"candidates": [{"path": "m.ckpt", "score": "0.5"}]}', None),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exits_2_with_one_line_naming_it(small_world, tmp_path, capsys, case):
    # each of these used to end in a traceback, in a later failure, in a
    # message without the file, or was accepted
    command, flag, name, content, line_no = _MALFORMED[case]
    bad = tmp_path / name
    bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    world = {"--ontology": os.path.join(small_world, "ontology.jsonl"),
             "--templates": os.path.join(small_world, "templates.tsv"), flag: str(bad)}
    out = str(tmp_path / "out" / "result")
    model = tmp_path / "m.ckpt"
    if command in ("embed", "eval-sts"):
        cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8, output_dim=8)
        enc.save_checkpoint(model, enc.Checkpoint(config=cfg, phase="base",
                                                  params=enc.init_params(cfg)))
    argv = {
        "verbalize": ["verbalize"] + [a for k, v in world.items() for a in (k, v)],
        "contrastive": ["train", "contrastive", "--corpus", str(bad),
                        "--config", _mini_train_cfg(tmp_path)],
        "sts": ["train", "sts", "--data", str(bad), "--config", _mini_train_cfg(tmp_path)],
        "soup": ["soup", "--manifest", str(bad), "--strategy", "uniform"],
        "eval-sts": ["eval", "sts", "--model", str(model), "--data", str(bad)],
        "embed": ["embed", "--model", str(model), "--in", str(bad)],
    }[command]
    assert run(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    where = f"{bad}:{line_no}: " if line_no else f"{bad}: "
    assert len(err) == 1 and err[0].startswith("error: " + where), err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_eval_nel_without_ontology_is_usage_error(small_world, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8, output_dim=8)
    enc.save_checkpoint(ckpt, enc.Checkpoint(config=cfg, phase="base",
                                             params=enc.init_params(cfg)))
    code = run(["eval", "nel", "--model", str(ckpt),
                "--data", os.path.join(small_world, "nel.tsv"),
                "--out", str(tmp_path / "r.jsonl")])
    assert code == 64


def test_eval_nel_with_an_empty_ontology_path_exits_1_in_one_line(small_world, tmp_path,
                                                                 capsys):
    # an empty --ontology used to be taken for no ontology at all, and the
    # scorer then ended in a TypeError traceback
    code = run(["eval", "nel", "--model", _tiny_model(tmp_path / "m.ckpt"),
                "--data", os.path.join(small_world, "nel.tsv"), "--ontology", "",
                "--out", str(tmp_path / "r.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "i/o error: [Errno 2] No such file or directory: ''"]


def test_unknown_flag_is_usage_error():
    assert run(["verbalize", "--does-not-exist", "x"]) == 64


@pytest.mark.parametrize("argv, option", [
    (["train", "xlingual", "--teacher", "{model}", "--pairs", "{w}/parallel.tsv",
      "--base", "/nonexistent.ckpt"], "--base"),
    (["train", "sts", "--data", "{w}/sts_train.tsv", "--pca-dim", "5"], "--pca-dim"),
    (["train", "sts", "--data", "{w}/sts_train.tsv", "--teacher", "/nonexistent"],
     "--teacher"),
    (["train", "contrastive", "--corpus", "{corpus}", "--glossary", "{w}/glossary.jsonl"],
     "--glossary"),
    (["eval", "sts", "--model", "{model}", "--data", "{w}/sts_test.tsv", "--topk", "5"],
     "--topk"),
    (["eval", "bcr", "--model", "{model}", "--data", "{w}/bcr.tsv",
      "--ontology", "{w}/ontology.jsonl"], "--ontology"),
    (["eval", "nel", "--model", "/nonexistent.ckpt", "--data", "{w}/nel.tsv"], "--ontology"),
    (["soup", "--manifest", "{listing}", "--strategy", "uniform", "--models", "{model}"],
     "--models"),
], ids=["xlingual-base", "sts-pca-dim", "sts-teacher", "contrastive-glossary", "eval-sts-topk",
        "eval-bcr-ontology", "eval-nel-no-ontology", "soup-manifest-and-models"])
def test_option_the_sub_command_does_not_read_exits_64(small_world, small_kg, tmp_path,
                                                       capsys, argv, option):
    # each of these was accepted (exit 0, the option ignored), and eval nel
    # loaded the model before it asked for --ontology (exit 1)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8, output_dim=8)
    model = str(inputs / "m.ckpt")
    enc.save_checkpoint(model, enc.Checkpoint(config=cfg, phase="sts_adapted",
                                              params=enc.init_params(cfg)))
    corpus = write_text(inputs / "corpus.jsonl", "".join(
        onto.corpus_line(pair) + "\n" for pair in onto.build_corpus(small_kg, 2, 0)))
    listing = write_text(inputs / "cands.json",
                         json.dumps({"candidates": [{"path": model, "score": 0.5}]}))
    argv = [a.format(w=small_world, model=model, corpus=corpus, listing=listing) for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 64
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ") and option in err[0], err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["inputs"]
    assert sorted(os.listdir(inputs)) == ["cands.json", "corpus.jsonl", "m.ckpt"]


def _leaf_parsers(parser, words=()):
    """(command words, parser) of each sub-command of ``parser`` that has no
    sub-commands of its own."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield " ".join(words), parser
    for action in actions:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, words + (name,))


def test_readme_commands_block_lists_each_sub_commands_exact_options():
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## Commands\n\n```\n", 1)[1].split("```", 1)[0]
    listed = {}
    for entry in re.split(r"\n(?=ontoembed )", block.strip()):
        words = itertools.takewhile(lambda word: word[0] not in "-[(", entry.split()[1:])
        listed[" ".join(words)] = set(re.findall(r"--[a-z-]+", entry))
    assert listed == {words: {option for action in parser._actions
                              for option in action.option_strings} - {"-h", "--help"}
                      for words, parser in _leaf_parsers(cli.build_parser())}


# Each row runs a command on the option world; words in braces name its
# files, and a name ending in 2 is a variant of the same kind of file. For
# each option the row names a value: in the first dict one that must change
# what the command writes, in the second one it must refuse (exit 64).
_OPTION_ROWS = {
    # a concept has at most two templated descriptions, so --seed draws
    # between them only at --per-concept 1
    "verbalize": ("verbalize --ontology {onto} --templates {tpl} --per-concept 1",
                  {"--ontology": "{onto2}", "--templates": "{tpl2}", "--glossary": "{gloss}",
                   "--seed": "1", "--per-concept": "2"}, {}),
    "contrastive": ("train contrastive --corpus {corpus} --config {cfg}",
                    {"--corpus": "{corpus2}", "--config": "{cfg2}", "--seed": "1",
                     "--epochs": "2", "--base": "{m1}"}, {}),
    # contrastive training has no hard negatives, so a config that asks for them is refused
    "contrastive-hard-negatives": ("train contrastive --corpus {corpus} --config {cfg}",
                                   {}, {"--config": "{hard}"}),
    "sts": ("train sts --data {sts} --config {cfg}",
            {"--data": "{sts2}", "--config": "{cfg2}", "--seed": "1", "--epochs": "2",
             "--base": "{m1}"}, {}),
    "self-distill": ("train self-distill --base {m1} --teacher {m1} --ontology {onto} "
                     "--templates {tpl} --pca-dim 2 --config {cfg}",
                     {"--base": "{m2}", "--teacher": "{m2}", "--ontology": "{onto2}",
                      "--templates": "{tpl2}", "--glossary": "{gloss}", "--pca-dim": "3",
                      "--config": "{cfg2}", "--seed": "1", "--epochs": "2"}, {}),
    "xlingual": ("train xlingual --teacher {m1} --pairs {pairs} --config {cfg}",
                 {"--teacher": "{m2}", "--pairs": "{pairs2}", "--config": "{cfg2}",
                  "--seed": "1", "--epochs": "2"}, {}),
    "soup-models": ("soup --models {m1} {m2} {m3} --val {val}",
                    {"--models": "{m1} {m2}", "--val": "{val2}", "--metric": "spearman",
                     "--strategy": "uniform"},
                    {"--ontology": "{onto}", "--manifest": "{listing}"}),
    "soup-listing": ("soup --manifest {listing} --strategy uniform",
                     {"--manifest": "{listing2}", "--val": "{val}"},
                     {"--metric": "spearman", "--ontology": "{onto}", "--strategy": "greedy",
                      "--models": "{m1}"}),
    "soup-nel": ("soup --models {m1} {m2} {m3} --val {nel} --metric nel-top1 --ontology {onto}",
                 {"--ontology": "{onto2}"}, {"--metric": "pearson"}),
    **{f"eval-{name}": (f"eval {name} --model {{m1}} --data {{{name}}}",
                        {"--model": "{m2}", "--data": f"{{{name}2}}"}, {})
       for name in ("sts", "bcr", "nli")},
    "eval-nel": ("eval nel --model {m1} --data {nel} --ontology {onto}",
                 {"--model": "{m2}", "--data": "{nel2}", "--ontology": "{onto2}",
                  "--topk": "1,5"}, {}),
    "embed": ("embed --model {m1} --in {texts}", {"--model": "{m2}", "--in": "{texts2}"}, {}),
    "pipeline": ("pipeline --config {pipeline}", {"--config": "{pipeline2}"}, {}),
}


def test_option_table_covers_every_option_of_every_sub_command():
    covered = {}
    for argv, changed, refused in _OPTION_ROWS.values():
        words = " ".join(itertools.takewhile(lambda word: word[0] != "-", argv.split()))
        covered.setdefault(words, set()).update(changed, refused)
    assert covered == {words: {option for action in parser._actions
                               for option in action.option_strings}
                       - {"-h", "--help", "--out", "--out-dir"}
                       for words, parser in _leaf_parsers(cli.build_parser())}


@pytest.fixture(scope="module")
def option_world(small_world, small_kg, tmp_path_factory):
    """Name -> path of each file the option table names."""
    root = tmp_path_factory.mktemp("option_world")
    w = small_world
    files = {"onto": f"{w}/ontology.jsonl", "tpl": f"{w}/templates.tsv",
             "gloss": f"{w}/glossary.jsonl"}

    def write(name, text):
        files[name] = write_text(root / name, text)

    # the same concepts with each concept's names moved to the next one
    with open(files["onto"], encoding="utf-8") as fh:
        concepts = [json.loads(line) for line in fh]
    write("onto2", "".join(json.dumps({**c, "names": concepts[i - 1]["names"]}) + "\n"
                           for i, c in enumerate(concepts)))
    with open(files["tpl"], encoding="utf-8") as fh:
        write("tpl2", "".join(line.rstrip("\n") + " indeed\n" for line in fh))
    corpus = write_text(root / "corpus.jsonl", "".join(
        onto.corpus_line(pair) + "\n" for pair in onto.build_corpus(small_kg, 2, 0)))
    # mentions that are canonical names, which any model links to their
    # concept in onto and not in onto2
    names = write_text(root / "names.tsv", "".join(f"{c['names'][0]}\t{c['id']}\n"
                                                    for c in concepts))
    texts = write_text(root / "texts.txt", "".join(c["names"][0] + "\n" for c in concepts))
    # 16 lines of each data file, and the 16 from its second line on
    for name, path in [("corpus", corpus), ("sts", f"{w}/sts_train.tsv"),
                       ("val", f"{w}/sts_val.tsv"), ("bcr", f"{w}/bcr.tsv"), ("nel", names),
                       ("nli", f"{w}/nli.tsv"), ("pairs", f"{w}/parallel.tsv"),
                       ("texts", texts)]:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        write(name, "".join(lines[:16]))
        write(name + "2", "".join(lines[1:17]))

    for seed in (1, 2, 3):
        config = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8, output_dim=8,
                                   init_seed=seed)
        files[f"m{seed}"] = str(root / f"m{seed}.ckpt")
        enc.save_checkpoint(files[f"m{seed}"], enc.Checkpoint(
            config=config, phase="sts_adapted", params=enc.init_params(config)))
    train = ("learning_rate = 0.01\nbatch_size = 8\nepochs = 1\nvocab_buckets = 64\n"
             "embed_dim = 8\nhidden_dim = 8\noutput_dim = 8\n")
    write("cfg", train)
    write("cfg2", train.replace("0.01", "0.02"))
    write("hard", train + "hard_negatives_per_batch = 2\n")
    for name, seeds in (("listing", (1, 2, 3)), ("listing2", (1, 2))):
        write(name, json.dumps({"candidates": [{"path": files[f"m{i}"], "score": i / 10}
                                               for i in seeds]}))
    for name, seed in (("pipeline", 5), ("pipeline2", 6)):
        (root / name).mkdir()
        files[name] = _mini_pipeline_cfg(w, root / name, seed=seed, **_FAST, vocab_buckets=64,
                                         embed_dim=8, hidden_dim=8, output_dim=8, pca_dim=2)
    return files


def _with_option(argv: list[str], option: str, values: list[str]) -> list[str]:
    """``argv`` with the values of ``option`` replaced by ``values``, or
    with the option added if ``argv`` does not have it."""
    if option not in argv:
        return argv + [option, *values]
    start = argv.index(option) + 1
    end = next((i for i in range(start, len(argv)) if argv[i].startswith("--")), len(argv))
    return argv[:start] + values + argv[end:]


@pytest.mark.parametrize("row", sorted(_OPTION_ROWS))
def test_each_option_changes_the_output_or_exits_64(option_world, tmp_path, capsys, row):
    # train contrastive --templates and --ontology were loaded but left the
    # checkpoint as it was; soup --metric and
    # --ontology without --val scored nothing and left the soup as it was
    template, changed, refused = _OPTION_ROWS[row]
    argv = [word.format(**option_world) for word in template.split()]
    out_option = "--out-dir" if argv[0] == "pipeline" else "--out"

    def outputs(argv, name):
        """The exit code and the bytes of each file the command wrote, its
        manifest aside."""
        run_dir = tmp_path / name
        code = run(argv + [out_option, str(run_dir / "out")])
        return code, {str(f.relative_to(run_dir)): f.read_bytes() for f in run_dir.rglob("*")
                      if f.is_file() and not f.name.endswith(".manifest.json")}

    code, default = outputs(argv, "default")
    assert code == 0 and default, row
    capsys.readouterr()
    for i, (option, value) in enumerate([*changed.items(), *refused.items()]):
        variant = _with_option(argv, option, [v.format(**option_world) for v in value.split()])
        assert variant != argv, (row, option)
        code, written = outputs(variant, f"variant{i}")
        err = capsys.readouterr().err.splitlines()
        if option in changed:
            assert code == 0 and written != default, (row, option)
        else:
            assert code == 64 and not (tmp_path / f"variant{i}").exists(), (row, option, code)
            assert len(err) == 1 and err[0].startswith("usage error: "), (row, option, err)


# ---------------------------------------------------------------------------
# verbalize


def test_verbalize_matches_library_contract(small_world, small_kg, tmp_path):
    out = tmp_path / "corpus.jsonl"
    code = run(["verbalize",
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--glossary", os.path.join(small_world, "glossary.jsonl"),
                "--out", str(out), "--seed", "11", "--per-concept", "2"])
    assert code == 0
    pairs = onto.load_corpus(out)
    expected = onto.build_corpus(small_kg, 2, 11)
    assert pairs == expected
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["metrics"]["pairs"] == len(expected)
    assert manifest["seed"] == 11
    assert len(manifest["inputs"]) == 3


def test_verbalize_per_concept_zero_only_definition_pairs(small_world, tmp_path):
    out = tmp_path / "corpus.jsonl"
    code = run(["verbalize",
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--out", str(out), "--per-concept", "0"])
    assert code == 0
    pairs = onto.load_corpus(out)
    assert pairs
    assert all(p.positive.kind in (onto.KIND_HUMAN_DEF, onto.KIND_GENERATED_DEF)
               for p in pairs)


# ---------------------------------------------------------------------------
# train


def test_train_sts_deterministic_checkpoints(small_world, tmp_path):
    cfg = _mini_train_cfg(tmp_path)
    outs = []
    for name in ("a.ckpt", "b.ckpt"):
        out = tmp_path / name
        code = run(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                    "--config", cfg, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    loaded = oracles.checkpoint_from_bytes(outs[0])
    assert loaded.phase == "sts_adapted"


def _strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_train_with_no_epochs_writes_a_strict_json_manifest(small_world, tmp_path, capsys):
    # with no epoch run there is no loss, and the manifest used to hold NaN
    out = tmp_path / "sts.ckpt"
    assert run(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                "--config", _mini_train_cfg(tmp_path), "--epochs", "0",
                "--out", str(out)]) == 0
    manifest = _strict_json((tmp_path / "sts.ckpt.manifest.json").read_text())
    assert manifest["metrics"]["final_loss"] is None
    assert f"steps=0 final_loss=none -> {out}" in capsys.readouterr().out


def test_manifest_digests_the_base_a_run_replaces(small_world, tmp_path):
    # the inputs were digested after the outputs were written, so a run
    # writing over its own --base recorded the new checkpoint as its base
    config = enc.EncoderConfig(vocab_buckets=64, embed_dim=4, hidden_dim=4, output_dim=4)
    model = tmp_path / "m.ckpt"
    enc.save_checkpoint(model, enc.Checkpoint(config=config, phase="base",
                                              params=enc.init_params(config)))
    base_digest = hashlib.sha256(model.read_bytes()).hexdigest()
    assert run(["train", "sts", "--base", str(model), "--data",
                os.path.join(small_world, "sts_train.tsv"), "--out", str(model)]) == 0
    manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
    assert manifest["inputs"][str(model)] == base_digest
    assert hashlib.sha256(model.read_bytes()).hexdigest() != base_digest


def test_train_and_pipeline_manifests_name_the_numeric_environment(small_world, tmp_path):
    # an output's bits depend on the numpy build, its BLAS and the CPU
    # features too, so each manifest names them
    assert run(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                "--config", _mini_train_cfg(tmp_path, epochs=1),
                "--out", str(tmp_path / "sts.ckpt")]) == 0
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST)
    assert run(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0
    for path in (tmp_path / "sts.ckpt.manifest.json",
                 tmp_path / "run" / "report.json.manifest.json"):
        numeric = json.loads(path.read_text())["numeric"]
        assert numeric["numpy"] == np.__version__
        assert isinstance(numeric["blas"]["name"], str) and numeric["blas"]["name"]
        assert set(numeric["simd"]) == {"baseline", "found"}


def test_manifest_names_the_openblas_kernel_the_run_used(tmp_path):
    # OpenBLAS picks its kernel per process, from OPENBLAS_CORETYPE if set
    model = _tiny_model(tmp_path / "m.ckpt")
    infile = write_text(tmp_path / "in.txt", "fever\n")
    out = tmp_path / "e.tsv"
    proc = run_child(["embed", "--model", model, "--in", infile, "--out", str(out)],
                     OPENBLAS_CORETYPE="Haswell")
    assert proc.returncode == 0, proc.stderr
    numeric = json.loads((tmp_path / "e.tsv.manifest.json").read_text())["numeric"]
    if "openblas_core" not in numeric:
        pytest.skip("this numpy's OpenBLAS does not report its kernel")
    assert numeric["openblas_core"] == "Haswell"


def test_train_divergence_names_regime_epoch_and_step(small_world, tmp_path, capsys,
                                                       monkeypatch):
    # at step 3 the gradient has a NaN in the row of the batch's largest
    # bucket; training runs on a table of the reached buckets in ascending
    # order, so that is the row of the batch's largest token id
    real_backward = trainer.enc.backward_batch
    bad_buckets = []

    def nan_at_third_step(params, config, texts, output_grads, forward, out=None):
        grad = real_backward(params, config, texts, output_grads, forward, out)
        bad_buckets.append(max(i for text in texts for i in enc.tokenize(config, text)))
        if len(bad_buckets) == 3:
            grad.token_table[forward.tokens.ids.max(), 0] = np.nan
        return grad

    monkeypatch.setattr(trainer.enc, "backward_batch", nan_at_third_step)
    data = os.path.join(small_world, "sts_train.tsv")
    assert len(ev.load_sts_dataset(data).rows) > 2 * 16  # step 3 falls in epoch 1
    out = tmp_path / "sts.ckpt"
    code = run(["train", "sts", "--data", data, "--config", _mini_train_cfg(tmp_path),
                "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: sts training failed at epoch 1, step 3: "
        f"non-finite gradient for token_table row {bad_buckets[2]}"]
    assert not out.exists()


def test_train_contrastive_fresh_base_and_seed_flag(small_world, tmp_path):
    cfg = _mini_train_cfg(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert run(["verbalize",
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--out", str(corpus), "--seed", "1"]) == 0
    out = tmp_path / "con.ckpt"
    code = run(["train", "contrastive", "--corpus", str(corpus),
                "--config", cfg, "--seed", "9", "--out", str(out)])
    assert code == 0
    ckpt = enc.load_checkpoint(out)
    assert ckpt.phase == "contrastive"
    manifest = json.loads((tmp_path / "con.ckpt.manifest.json").read_text())
    assert manifest["seed"] == 9


def test_train_self_distill_rejects_contrastive_base(small_world, tmp_path):
    cfg = _mini_train_cfg(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    run(["verbalize", "--ontology", os.path.join(small_world, "ontology.jsonl"),
         "--templates", os.path.join(small_world, "templates.tsv"),
         "--out", str(corpus), "--seed", "1"])
    con = tmp_path / "con.ckpt"
    assert run(["train", "contrastive", "--corpus", str(corpus), "--config", cfg,
                "--out", str(con)]) == 0
    out = tmp_path / "dist.ckpt"
    code = run(["train", "self-distill", "--base", str(con), "--teacher", str(con),
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--pca-dim", "8", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_train_self_distill_happy_path(small_world, tmp_path):
    cfg = _mini_train_cfg(tmp_path)
    adapted = tmp_path / "adapted.ckpt"
    assert run(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                "--config", cfg, "--out", str(adapted)]) == 0
    out = tmp_path / "dist.ckpt"
    code = run(["train", "self-distill", "--base", str(adapted),
                "--teacher", str(adapted),
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--glossary", os.path.join(small_world, "glossary.jsonl"),
                "--pca-dim", "8", "--config", cfg, "--out", str(out)])
    assert code == 0
    ckpt = enc.load_checkpoint(out)
    assert ckpt.phase == "self_distilled"
    assert ckpt.params.head_dim == 8


def test_train_xlingual_cli(small_world, tmp_path):
    cfg = _mini_train_cfg(tmp_path)
    teacher = tmp_path / "teacher.ckpt"
    assert run(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                "--config", cfg, "--out", str(teacher)]) == 0
    out = tmp_path / "student.ckpt"
    code = run(["train", "xlingual", "--teacher", str(teacher),
                "--pairs", os.path.join(small_world, "parallel.tsv"),
                "--config", cfg, "--out", str(out)])
    assert code == 0
    assert enc.load_checkpoint(out).phase == "xlingual_student"


# A valid value of each training key, unlike the value the default run of
# the guard below trains with.
_CHANGED = {"learning_rate": "0.02", "weight_decay": "0.1", "warmup_fraction": "0.5",
            "epochs": "2", "batch_size": "3", "seed": "1"}


def test_every_training_key_a_phase_accepts_changes_its_checkpoint(small_world, tmp_path):
    # a key a phase accepted without reading it left the checkpoint as it was
    w = small_world
    assert set(_CHANGED) == set(TRAIN_CONFIG_KEYS)
    config = enc.EncoderConfig(vocab_buckets=64, embed_dim=4, hidden_dim=4, output_dim=4)
    base = str(tmp_path / "base.ckpt")
    enc.save_checkpoint(base, enc.Checkpoint(config=config, phase="sts_adapted",
                                             params=enc.init_params(config)))
    assert run(["verbalize", "--ontology", f"{w}/ontology.jsonl", "--templates",
                f"{w}/templates.tsv", "--out", str(tmp_path / "corpus.jsonl")]) == 0
    small = {}
    for path in (str(tmp_path / "corpus.jsonl"), f"{w}/sts_train.tsv", f"{w}/parallel.tsv"):
        with open(path, encoding="utf-8") as fh:
            name = os.path.basename(path)
            small[name] = write_text(tmp_path / f"small_{name}", "".join(fh.readlines()[:16]))
    kg = ["--ontology", f"{w}/ontology.jsonl", "--templates", f"{w}/templates.tsv"]
    phases = {
        "contrastive": ["--base", base, "--corpus", small["corpus.jsonl"]],
        "sts": ["--base", base, "--data", small["sts_train.tsv"]],
        "self-distill": ["--base", base, "--teacher", base, *kg, "--pca-dim", "2"],
        "xlingual": ["--teacher", base, "--pairs", small["parallel.tsv"]],
    }

    def train(phase, **changed):
        lines = {"learning_rate": "0.01", "batch_size": "4", **changed}
        cfg = write_text(tmp_path / "c.cfg", "".join(f"{k} = {v}\n" for k, v in lines.items()))
        out = tmp_path / "out.ckpt"
        assert run(["train", phase, *phases[phase], "--config", cfg, "--out", str(out)]) == 0
        return out.read_bytes()

    for phase in phases:
        default = train(phase)
        for key in cli.TRAIN_KEYS:
            if key not in enc.ENCODER_CONFIG_KEYS:
                assert train(phase, **{key: _CHANGED[key]}) != default, (phase, key)


_CONTRASTIVE = ["train", "contrastive", "--corpus", "NOPE"]
_SOUP_NEEDS_VAL = "--models, --metric, --ontology and --strategy greedy require --val"


@pytest.mark.parametrize("argv, lines, expected", [
    (["train", "sts", "--data", "NOPE"], {"info_nce_scale": 3},
     "CFG: unknown key(s): info_nce_scale"),
    (["train", "sts", "--data", "NOPE"], {"hard_negatives_per_batch": 9},
     "CFG: unknown key(s): hard_negatives_per_batch"),
    (["train", "self-distill", "--base", "BASE", "--teacher", "NOPE", "--ontology", "NOPE",
      "--templates", "NOPE"], {"vocab_buckets": 4611686018427387904},
     "CFG: vocab_buckets: 4611686018427387904 differs from 16 in the base checkpoint BASE"),
    # both keys differ; the first in field order is named, not the first set
    ([*_CONTRASTIVE, "--base", "BASE"], {"embed_dim": 8, "vocab_buckets": 32},
     "CFG: vocab_buckets: 32 differs from 16 in the base checkpoint BASE"),
    ([*_CONTRASTIVE, "--base", "BASE"], {"vocab_buckets": 16, "embed_dim": 8},
     "CFG: embed_dim: 8 differs from 4 in the base checkpoint BASE"),
    (_CONTRASTIVE, {"batch_size": 1},
     "CFG: batch_size: must be >= 2 for the in-batch objective"),
    ([*_CONTRASTIVE, "--templates", "NOPE"], None, "unrecognized arguments: --templates NOPE"),
    ([*_CONTRASTIVE, "--ontology", "NOPE"], None, "unrecognized arguments: --ontology NOPE"),
    (_CONTRASTIVE, {"hard_negatives_per_batch": 2},
     "CFG: unknown key(s): hard_negatives_per_batch"),
    (_CONTRASTIVE, {"info_nce_scale": 5}, "CFG: unknown key(s): info_nce_scale"),
    (["pipeline", "--out-dir", "RUN"], {"adapt_hard_negatives_per_batch": 4},
     "CFG: unknown key(s): adapt_hard_negatives_per_batch"),
    (["pipeline", "--out-dir", "RUN"], {"readapt_info_nce_scale": 0.5},
     "CFG: unknown key(s): readapt_info_nce_scale"),
    (["pipeline", "--out-dir", "RUN"], {"contrastive_info_nce_scale": 20},
     "CFG: unknown key(s): contrastive_info_nce_scale"),
    (["pipeline"], {"seed": 5}, "the following arguments are required: --out-dir"),
    (["pipeline", "--out-dir", "RUN"], {"out_dir": "NOPE"}, "CFG: unknown key(s): out_dir"),
    (["soup", "--models", "BASE", "BASE", "--val", "NOPE", "--ontology", "NOPE", "--strategy",
      "uniform"], None, "--ontology goes only with --metric nel-top1"),
    (["soup", "--manifest", "NOPE", "--strategy", "uniform", "--metric", "spearman"], None,
     _SOUP_NEEDS_VAL),
    (["soup", "--manifest", "NOPE", "--strategy", "uniform", "--metric", "nel-top1",
      "--ontology", "NOPE"], None, _SOUP_NEEDS_VAL),
], ids=["sts-scale", "sts-hard-negatives", "self-distill-buckets", "contrastive-buckets",
        "contrastive-embed-dim", "contrastive-batch-of-one", "contrastive-templates",
        "contrastive-ontology-without-hard-negatives", "contrastive-hard-negatives-no-ontology",
        "contrastive-scale", "pipeline-adapt-hard-negatives", "pipeline-readapt-scale",
        "pipeline-contrastive-scale", "pipeline-no-out-dir",
        "pipeline-out-dir-key", "soup-ontology", "soup-metric-without-val",
        "soup-nel-top1-without-val"])
def test_unread_key_or_option_exits_64_in_one_line(small_world, tmp_path, capsys, monkeypatch,
                                                   argv, lines, expected):
    # each of these used to exit 0 with the key or option ignored, or, for
    # the batch of one, exit 2 after loading the corpus, or, for a soup
    # --ontology without --val, exit 0 without reading it; the contrastive
    # hard-negative and scale cases name an option and keys that contrastive
    # training no longer has; the missing inputs (NOPE) show that nothing
    # else is read first
    _no_training(monkeypatch)
    config = enc.EncoderConfig(vocab_buckets=16, embed_dim=4, hidden_dim=4, output_dim=4)
    base = str(tmp_path / "base.ckpt")
    enc.save_checkpoint(base, enc.Checkpoint(config=config, phase="sts_adapted",
                                             params=enc.init_params(config)))
    if argv[0] == "pipeline":
        cfg = _mini_pipeline_cfg(small_world, tmp_path, **lines)
        out = []
    else:
        cfg = write_text(tmp_path / "c.cfg",
                         "".join(f"{k} = {v}\n" for k, v in (lines or {}).items()))
        out = ["--out", str(tmp_path / "out")]
    argv = argv + (["--config", cfg] if lines else []) + out
    before = sorted(os.listdir(tmp_path))
    paths = {"BASE": base, "NOPE": str(tmp_path / "nope"), "RUN": str(tmp_path / "run")}
    assert run([paths.get(a, a) for a in argv]) == 64
    expected = expected.replace("CFG", cfg).replace("BASE", base).replace("NOPE", paths["NOPE"])
    assert capsys.readouterr().err.splitlines() == [f"usage error: {expected}"]
    assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# soup


def _three_seed_models(tmp_path, phase="self_distilled"):
    paths = []
    for seed in (1, 2, 3):
        cfg = enc.EncoderConfig(vocab_buckets=256, embed_dim=12, hidden_dim=16,
                                output_dim=16, hash_seed=5, init_seed=seed)
        ckpt = enc.Checkpoint(config=cfg, phase=phase, params=enc.init_params(cfg),
                              history=("base", "sts_adapted", phase))
        path = tmp_path / f"m{seed}.ckpt"
        enc.save_checkpoint(path, ckpt)
        paths.append(str(path))
    return paths


def test_soup_uniform_single_model_equals_input(small_world, tmp_path):
    paths = _three_seed_models(tmp_path)
    out = tmp_path / "soup.ckpt"
    code = run(["soup", "--models", paths[0],
                "--val", os.path.join(small_world, "sts_val.tsv"),
                "--strategy", "uniform", "--out", str(out)])
    assert code == 0
    souped = enc.load_checkpoint(out)
    original = enc.load_checkpoint(paths[0])
    assert oracles.params_equal(souped.params, original.params.without_head())
    assert souped.phase == "souped"
    report = json.loads((tmp_path / "soup.ckpt.soup_report.json").read_text())
    assert report["kept"] == ["m1.ckpt"]


def test_soup_greedy_identical_models_keeps_all(small_world, tmp_path):
    # k copies of one model: the metric is constant, non-strict >= keeps all
    cfg = enc.EncoderConfig(vocab_buckets=256, embed_dim=12, hidden_dim=16,
                            output_dim=16, hash_seed=5, init_seed=1)
    ckpt = enc.Checkpoint(config=cfg, phase="self_distilled",
                          params=enc.init_params(cfg))
    paths = []
    for i in range(3):
        path = tmp_path / f"copy{i}.ckpt"
        enc.save_checkpoint(path, ckpt)
        paths.append(str(path))
    out = tmp_path / "soup.ckpt"
    code = run(["soup", "--models", *paths,
                "--val", os.path.join(small_world, "sts_val.tsv"),
                "--strategy", "greedy", "--out", str(out)])
    assert code == 0
    report = json.loads((tmp_path / "soup.ckpt.soup_report.json").read_text())
    assert sorted(report["kept"]) == [f"copy{i}.ckpt" for i in range(3)]
    assert report["rejected"] == []


def test_soup_greedy_score_not_below_best_single(small_world, tmp_path):
    paths = _three_seed_models(tmp_path)
    out = tmp_path / "soup.ckpt"
    code = run(["soup", "--models", *paths,
                "--val", os.path.join(small_world, "sts_val.tsv"),
                "--metric", "pearson", "--strategy", "greedy", "--out", str(out)])
    assert code == 0
    report = json.loads((tmp_path / "soup.ckpt.soup_report.json").read_text())
    assert report["soup_score"] >= max(report["ingredient_scores"].values()) - 1e-12


@pytest.mark.parametrize("metric, val", [("spearman", "bcr.tsv"), ("nel-top1", "nel.tsv")])
def test_soup_scores_candidates_by_the_chosen_metric(small_world, tmp_path, metric, val):
    ontology = (["--ontology", os.path.join(small_world, "ontology.jsonl")]
                if metric == "nel-top1" else [])
    out = tmp_path / "soup.ckpt"
    models = _three_seed_models(tmp_path)
    code = run(["soup", "--models", *models,
                "--val", os.path.join(small_world, val), "--metric", metric, *ontology,
                "--out", str(out)])
    assert code == 0
    report = json.loads((tmp_path / "soup.ckpt.soup_report.json").read_text())
    assert report["metric"] == metric
    assert report["soup_score"] >= max(report["ingredient_scores"].values()) - 1e-12
    # the ontology that scores nel-top1 used to be missing from the inputs
    manifest = json.loads((tmp_path / "soup.ckpt.manifest.json").read_text())
    assert set(manifest["inputs"]) == {*models, os.path.join(small_world, val), *ontology[1:]}


def test_soup_nel_top1_without_ontology_is_usage_error(small_world, tmp_path):
    out = tmp_path / "soup.ckpt"
    code = run(["soup", "--models", *_three_seed_models(tmp_path),
                "--val", os.path.join(small_world, "nel.tsv"), "--metric", "nel-top1",
                "--out", str(out)])
    assert code == 64
    assert not out.exists()


def test_soup_manifest_listing(small_world, tmp_path):
    paths = _three_seed_models(tmp_path)
    listing = {"candidates": [{"path": p, "score": 0.5, "label": f"run{i}"}
                              for i, p in enumerate(paths)]}
    listing_path = tmp_path / "cands.json"
    listing_path.write_text(json.dumps(listing))
    out = tmp_path / "soup.ckpt"
    code = run(["soup", "--manifest", str(listing_path),
                "--strategy", "uniform", "--out", str(out)])
    assert code == 0
    assert enc.load_checkpoint(out).phase == "souped"


def test_soup_incompatible_configs_exit_2(small_world, tmp_path):
    cfg_a = enc.EncoderConfig(vocab_buckets=256, embed_dim=12, hidden_dim=16,
                              output_dim=16, init_seed=1)
    cfg_b = enc.EncoderConfig(vocab_buckets=256, embed_dim=12, hidden_dim=20,
                              output_dim=16, init_seed=2)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    enc.save_checkpoint(pa, enc.Checkpoint(config=cfg_a, phase="base",
                                           params=enc.init_params(cfg_a)))
    enc.save_checkpoint(pb, enc.Checkpoint(config=cfg_b, phase="base",
                                           params=enc.init_params(cfg_b)))
    out = tmp_path / "soup.ckpt"
    code = run(["soup", "--models", str(pa), str(pb),
                "--val", os.path.join(small_world, "sts_val.tsv"),
                "--strategy", "uniform", "--out", str(out)])
    assert code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_sts_matches_library(small_world, tmp_path, capsys):
    ckpt_path = _three_seed_models(tmp_path, phase="base")[0]
    out = tmp_path / "report.jsonl"
    code = run(["eval", "sts", "--model", ckpt_path,
                "--data", os.path.join(small_world, "sts_test.tsv"),
                "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    row = json.loads(printed)
    model = enc.load_checkpoint(ckpt_path)
    dataset = ev.load_sts_dataset(os.path.join(small_world, "sts_test.tsv"))
    expected = ev.eval_sts(model, dataset)
    assert row["value"] == expected.value
    assert json.loads(out.read_text().splitlines()[0]) == row


def test_eval_nel_topk_lines_monotone(small_world, tmp_path):
    ckpt_path = _three_seed_models(tmp_path, phase="base")[0]
    out = tmp_path / "report.jsonl"
    code = run(["eval", "nel", "--model", ckpt_path,
                "--data", os.path.join(small_world, "nel.tsv"),
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--topk", "1,5", "--out", str(out)])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 2
    by_metric = {r["metric"]: r["value"] for r in lines}
    assert by_metric["top5_accuracy"] >= by_metric["top1_accuracy"]


def test_eval_degenerate_model_exits_2(tmp_path, small_world):
    # constant encoder: init_scale 0 makes every embedding the zero vector
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8,
                            output_dim=8, init_scale=0.0)
    path = tmp_path / "zero.ckpt"
    enc.save_checkpoint(path, enc.Checkpoint(config=cfg, phase="base",
                                             params=enc.init_params(cfg)))
    code = run(["eval", "sts", "--model", str(path),
                "--data", os.path.join(small_world, "sts_test.tsv"),
                "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


# ---------------------------------------------------------------------------
# embed


def test_embed_roundtrip(small_world, tmp_path):
    ckpt_path = _three_seed_models(tmp_path, phase="base")[0]
    model = enc.load_checkpoint(ckpt_path)
    texts = ["fever", "peptic ulcer", "", "a chronic condition"]
    infile = tmp_path / "texts.txt"
    infile.write_text("".join(t + "\n" for t in texts))
    out = tmp_path / "emb.tsv"
    code = run(["embed", "--model", ckpt_path, "--in", str(infile), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == len(texts)
    for text, line in zip(texts, lines):
        col_text, col_vec = line.split("\t")
        assert col_text == text
        vec = np.array([float(x) for x in col_vec.split(",")])
        expected = enc.encode_batch(model.params, model.config, [text])[0]
        assert np.max(np.abs(vec - expected)) < 1e-12
        norm = np.linalg.norm(vec)
        assert norm == 0.0 if text == "" else abs(norm - 1.0) < 1e-9


def test_embed_rejects_tab_in_input(small_world, tmp_path):
    # a tab on the last of three lines: exit 2, and neither the output nor a
    # temporary file is left behind
    ckpt_path = _three_seed_models(tmp_path, phase="base")[0]
    infile = tmp_path / "texts.txt"
    infile.write_text("fever\npeptic ulcer\nbad\ttext\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run(["embed", "--model", ckpt_path, "--in", str(infile),
                "--out", str(out_dir / "e.tsv")]) == 2
    assert os.listdir(out_dir) == []


def test_embed_rows_equal_encode_batch_across_chunks(small_world, tmp_path):
    ckpt_path = _three_seed_models(tmp_path, phase="base")[0]
    model = enc.load_checkpoint(ckpt_path)
    words = ["fever", "peptic", "ulcer", "chronic"]
    texts = [" ".join(words[:i % 5]) for i in range(cli.EMBED_CHUNK + 3)]  # "" every 5th
    infile = tmp_path / "texts.txt"
    infile.write_text("".join(t + "\n" for t in texts))
    out = tmp_path / "emb.tsv"
    assert run(["embed", "--model", ckpt_path, "--in", str(infile), "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert [text for text, _ in rows] == texts
    got = np.array([[float(x) for x in vec.split(",")] for _, vec in rows])
    assert np.array_equal(got, enc.encode_batch(model.params, model.config, texts))


def test_embed_writes_the_repr_bytes_on_every_fallback_class(tmp_path):
    # 2 embedding and hidden units, 4 outputs, every bias 0. "one" pools to
    # (1, 0), whose output is (1.0, 0.0, 0.0, 0.0); "tiny" pools to (0, 1),
    # whose first output is about 9e-6; other words mix the two; "" is the
    # zero row. The texts span two chunks and many blocks.
    config = enc.EncoderConfig(vocab_buckets=4096, embed_dim=2, hidden_dim=2, output_dim=4)
    params = enc.init_params(config)
    ids = [enc.tokenize_batch(config, [word]).ids[0] for word in ("one", "tiny")]
    assert ids[0] != ids[1]
    params.token_table[ids] = np.eye(2)
    params.w1 = np.eye(2)
    params.w2 = np.array([[1.0, 0.0, 0.0, 0.0], [1e-5, 1.0, 0.5, -0.25]])
    model = tmp_path / "m.ckpt"
    enc.save_checkpoint(model, enc.Checkpoint(config=config, phase="base", params=params))
    kinds = ["fever ulcer", "one", "", "tiny", "peptic one", "tiny fever", "ulcer"]
    texts = [kinds[i % 7] for i in range(cli.EMBED_CHUNK + 300)]
    infile = tmp_path / "texts.txt"
    infile.write_text("".join(t + "\n" for t in texts))
    out = tmp_path / "emb.tsv"
    assert run(["embed", "--model", str(model), "--in", str(infile), "--out", str(out)]) == 0
    emb = enc.encode_batch(params, config, texts)
    magnitudes = np.abs(emb)
    assert (magnitudes == 1.0).any() and ((magnitudes > 0) & (magnitudes < 1e-4)).any()
    assert (magnitudes.max(axis=1) == 0).any()
    assert out.read_bytes() == oracles.embedding_lines_reference(texts, emb)


def _edge_blocks(case):
    """The (texts, rows) blocks of one edge of the writer's slot layout."""
    rng = np.random.default_rng(11)
    ordinary = rng.standard_normal((2, 4, 96)) / 10
    # a repr of 24 characters widens the slots of its own block only
    ordinary[0, 2, 7] = -2.2250738585072014e-308
    assert len(repr(float(ordinary[0, 2, 7]))) == 24
    specials = np.zeros((3, 96))
    specials[1] = np.tile([0.0, 1.0, -1.0, -0.0], 24)
    specials[2, :3] = [-0.0, 1.0, 0.123456789012345]
    return {
        "wide-slots-next-to-narrow": [([f"t{i}" for i in range(4)], block)
                                      for block in ordinary],
        "zeros-ones-and-negative-zero": [(["z", "mixed", "first"], specials)],
        # texts are joined outside the compacted bytes, so a NUL stays
        "nul-newline-non-ascii-and-empty-texts": [
            (["\x00", "a\x00b\n", "caf\u00e9 \u6587\U0001FA7A", ""], ordinary[1])],
        "one-by-one": [(["x"], np.array([[0.6334762573242188]]))],
        "no-rows": [([], np.empty((0, 96)))],  # b""
    }[case]


@pytest.mark.parametrize("case", ["wide-slots-next-to-narrow", "zeros-ones-and-negative-zero",
                                  "nul-newline-non-ascii-and-empty-texts", "one-by-one",
                                  "no-rows"])
def test_embedding_lines_at_the_edges_of_the_slot_layout(case):
    for texts, rows in _edge_blocks(case):
        assert cli._embedding_lines(texts, rows) == oracles.embedding_lines_reference(texts, rows)


def test_embed_of_an_empty_file_writes_no_lines(tmp_path):
    model = _tiny_model(tmp_path / "m.ckpt")
    infile = write_text(tmp_path / "empty.txt", "")
    out = tmp_path / "emb.tsv"
    assert run(["embed", "--model", model, "--in", infile, "--out", str(out)]) == 0
    assert out.read_bytes() == b""
    manifest = json.loads((tmp_path / "emb.tsv.manifest.json").read_text())
    assert manifest["metrics"] == {"rows": 0}


def test_embedding_lines_equal_the_repr_writer_in_bulk():
    # a million components of random unit vectors; random bit patterns in
    # [1e-4, 1), either sign; dyadic values m / 2**e, many of which have two
    # nearest shortest decimals; and every power of two, and each power of
    # ten the writer compares with and its neighbours, either sign
    rng = np.random.default_rng(5)
    tens = [np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0])]
    for _ in range(2):
        tens = [np.nextafter(tens[0], -1.0), *tens, np.nextafter(tens[-1], 2.0)]
    edges = np.concatenate([*tens, 2.0 ** np.arange(-1074, 1024)])
    unit = rng.standard_normal((10_500, 96))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    low, high = np.array([1e-4, 1.0]).view(np.int64)
    patterns = rng.integers(low, high, (2_000, 100)).view(np.float64)
    patterns *= rng.choice([-1.0, 1.0], patterns.shape)
    dyadic = (rng.integers(1, 2**20, (2_000, 50)) / 2.0 ** rng.integers(1, 40, (2_000, 50)))
    for rows in (unit, patterns, dyadic, np.stack([edges, -edges])):
        for i in range(0, len(rows), cli.EMBED_BLOCK):
            texts = [f"t{j}" for j in range(i, min(i + cli.EMBED_BLOCK, len(rows)))]
            block = rows[i:i + cli.EMBED_BLOCK]
            assert (cli._embedding_lines(texts, block)
                    == oracles.embedding_lines_reference(texts, block)), (i, block)


# Runs the commands in argv[1] and prints their exit codes (a SystemExit's,
# for --help), the top-level names of the modules they imported, and the
# package's submodules among those. A module with no spec was not imported
# but made by extension code, as numpy's Cython modules make cython_runtime.
_IMPORTED_TOP_LEVEL = """
import json, sys
before = set(sys.modules)
from ontoembed import cli
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
new = [name for name, module in sys.modules.items()
       if name not in before and module.__spec__ is not None]
print(json.dumps([codes, sorted({name.split(".")[0] for name in new}),
                  sorted(name for name in new if name.startswith("ontoembed."))]))
"""


def _imported(argvs):
    """(exit codes, top-level module names, ``ontoembed.*`` modules) of
    running ``argvs`` one after another in a fresh process."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _IMPORTED_TOP_LEVEL, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _tiny_model(path):
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8, output_dim=8)
    enc.save_checkpoint(path, enc.Checkpoint(config=cfg, phase="base",
                                             params=enc.init_params(cfg)))
    return str(path)


def test_commands_import_only_the_standard_library_numpy_and_ontoembed(fixtures_dir,
                                                                      tmp_path):
    # numpy is the one runtime dependency: a test or fixture tool (pytest,
    # scipy, hypothesis) imported by a command would show here
    model = _tiny_model(tmp_path / "m.ckpt")
    argvs = [["verbalize", "--ontology", os.path.join(fixtures_dir, "ontology.jsonl"),
              "--templates", os.path.join(fixtures_dir, "templates.tsv"),
              "--out", str(tmp_path / "corpus.jsonl")],
             ["eval", "sts", "--model", model, "--data",
              os.path.join(fixtures_dir, "sts_test.tsv"), "--out", str(tmp_path / "sts.jsonl")]]
    codes, imported, _ = _imported(argvs)
    assert codes == [0, 0]
    assert "numpy" in imported and "ontoembed" in imported
    assert [m for m in imported
            if m not in sys.stdlib_module_names and m not in ("numpy", "ontoembed")] == []


# The ontoembed modules each command loads.
_EVERY_COMMAND = {"cli", "config", "encoder"}
_EVAL = _EVERY_COMMAND | {"evalsuite"}
_LOADS = {"--help": _EVERY_COMMAND, "embed": _EVERY_COMMAND, "eval sts": _EVAL,
          "eval nel": _EVAL | {"ontology"}, "verbalize": _EVERY_COMMAND | {"ontology"},
          "train sts": _EVAL | {"ontology", "trainer", "losses"},
          "pipeline": _EVAL | {"ontology", "trainer", "losses", "soup", "pipeline"}}


@pytest.mark.parametrize("command", list(_LOADS))
def test_each_command_loads_only_the_modules_it_runs(small_world, tmp_path, command):
    # cli used to import every module at start-up, so that each short embed
    # or eval process compiled the training code it never runs
    w = small_world
    model = _tiny_model(tmp_path / "m.ckpt")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "--help": ["--help"],
        "embed": ["embed", "--model", model, "--in", write_text(tmp_path / "in.txt", "fever\n")]
                 + out,
        "eval sts": ["eval", "sts", "--model", model, "--data", os.path.join(w, "sts_test.tsv")]
                    + out,
        "eval nel": ["eval", "nel", "--model", model, "--data", os.path.join(w, "nel.tsv"),
                     "--ontology", os.path.join(w, "ontology.jsonl")] + out,
        "verbalize": ["verbalize", "--ontology", os.path.join(w, "ontology.jsonl"),
                      "--templates", os.path.join(w, "templates.tsv")] + out,
        "train sts": ["train", "sts", "--data", os.path.join(w, "sts_train.tsv"),
                      "--config", _mini_train_cfg(tmp_path, epochs=1)] + out,
        "pipeline": ["pipeline", "--config", _mini_pipeline_cfg(w, tmp_path, **_FAST),
                     "--out-dir", str(tmp_path / "run")],
    }[command]
    codes, _, loaded = _imported([argv])
    assert codes == [0]
    assert loaded == sorted(f"ontoembed.{m}" for m in _LOADS[command])


@pytest.mark.parametrize("kind", ["config", "ontology", "sts", "embed", "soup"])
def test_a_leading_byte_order_mark_is_skipped(small_world, tmp_path, kind):
    # an editor may save a UTF-8 file with a byte order mark; it used to be
    # read as part of the first key, JSON value, TSV field or text, and a
    # soup listing that starts with one was refused
    w = small_world
    model = _tiny_model(tmp_path / "m.ckpt")
    plain = {"config": _mini_train_cfg(tmp_path, epochs=1),
             "ontology": os.path.join(w, "ontology.jsonl"),
             "sts": os.path.join(w, "sts_test.tsv"),
             "embed": write_text(tmp_path / "in.txt", "fever\nchronic pain\n"),
             "soup": write_text(tmp_path / "cands.json", json.dumps(
                 {"candidates": [{"path": model, "score": 0.5, "label": "m"}]}))}[kind]
    marked = tmp_path / ("bom-" + os.path.basename(plain))
    with open(plain, "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    outputs = []
    for path in (plain, str(marked)):
        out = tmp_path / f"out-{len(outputs)}"
        argv = {"config": ["train", "sts", "--data", os.path.join(w, "sts_train.tsv"),
                           "--config", path],
                "ontology": ["verbalize", "--ontology", path,
                             "--templates", os.path.join(w, "templates.tsv")],
                "sts": ["eval", "sts", "--model", model, "--data", path],
                "embed": ["embed", "--model", model, "--in", path],
                "soup": ["soup", "--manifest", path, "--strategy", "uniform"]}[kind]
        assert run(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _one_error_line(proc, code):
    err = proc.stderr.splitlines()
    assert proc.returncode == code and len(err) == 1 and "Traceback" not in proc.stderr, err
    return err[0]


@pytest.mark.parametrize("case", ["embed-tab", "nel-unknown-gold", "soup-repeated-label",
                                  "eval-truncated-checkpoint"])
def test_errors_of_lazily_loaded_modules_exit_2_in_one_line(small_world, tmp_path, case):
    # the in-process tests import every module up front, so only a fresh
    # process shows that main catches an error of a module the command
    # loaded only when it ran, or only when it failed
    w = small_world
    model = _tiny_model(tmp_path / "m.ckpt")
    out = ["--out", str(tmp_path / "out")]
    if case == "embed-tab":
        infile = write_text(tmp_path / "in.txt", "fever\nbad\ttext\n")
        argv = ["embed", "--model", model, "--in", infile] + out
        expected = f"error: {infile}:2: input texts must not contain tab characters"
    elif case == "nel-unknown-gold":
        nel = write_text(tmp_path / "nel.tsv", "fever\tNOPE:1\n")
        argv = ["eval", "nel", "--model", model, "--data", nel,
                "--ontology", os.path.join(w, "ontology.jsonl")] + out
        expected = "error: gold concept id 'NOPE:1' does not resolve"
    elif case == "soup-repeated-label":
        listing = tmp_path / "listing.json"
        listing.write_text(json.dumps({"candidates": [
            {"path": model, "score": 0.5, "label": "a"},
            {"path": model, "score": 0.6, "label": "a"}]}))
        argv = ["soup", "--manifest", str(listing), "--strategy", "uniform"] + out
        expected = "error: two candidates have the label 'a'"
    else:
        truncated = tmp_path / "short.ckpt"
        truncated.write_bytes((tmp_path / "m.ckpt").read_bytes()[:-8])
        argv = ["eval", "sts", "--model", str(truncated),
                "--data", os.path.join(w, "sts_test.tsv")] + out
        expected = f"error: {truncated}: "
    line = _one_error_line(run_child(argv), 2)
    assert line.startswith(expected), line
    assert not (tmp_path / "out").exists()


def test_help_exits_0_and_an_unknown_config_key_exits_64_in_a_fresh_process(small_world,
                                                                            tmp_path):
    proc = run_child(["--help"])
    assert proc.returncode == 0 and proc.stderr == "" and "usage: ontoembed" in proc.stdout
    cfg = write_text(tmp_path / "bad.cfg", "colour = 1\n")
    proc = run_child(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                      "--config", cfg, "--out", str(tmp_path / "out")])
    assert _one_error_line(proc, 64) == f"usage error: {cfg}: unknown key(s): colour"


def _drop(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _with_config(key, value):
    return lambda header: {**header, "config": {**header["config"], key: value}}


@pytest.mark.parametrize("mutate", [
    _drop("config"),
    _drop("phase"),
    _with_config("colour", 1),
    _with_config("vocab_buckets", "64"),
    lambda header: {**header, "history": 5},
    lambda header: {**header, "phase": "souped", "history": ["base", "contrastive"]},
    lambda header: [header],
], ids=["missing-config", "missing-phase", "unknown-config-key",
        "string-vocab-buckets", "non-list-history", "history-not-ending-in-phase",
        "list-header"])
def test_embed_malformed_checkpoint_header_exits_2(tmp_path, mutate):
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8, output_dim=8)
    data = oracles.checkpoint_to_bytes(
        enc.Checkpoint(config=cfg, phase="base", params=enc.init_params(cfg)))
    nl = data.index(b"\n")
    header = json.loads(data[len(enc.CHECKPOINT_MAGIC):nl])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(enc.CHECKPOINT_MAGIC + json.dumps(mutate(header)).encode() + data[nl:])
    infile = write_text(tmp_path / "texts.txt", "some text\n")
    out = tmp_path / "e.tsv"
    proc = run_child(["embed", "--model", str(bad), "--in", infile, "--out", str(out)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


def _nan_parameter(data):
    # the last parameter, a bias of the output layer, becomes NaN
    return data[:-8] + np.array([np.nan], dtype="<f8").tobytes()


@pytest.mark.parametrize("command, corrupt, message", [
    ("embed", lambda data: enc.CHECKPOINT_MAGIC + b"[" * 200_000 + b"\n",
     "unreadable checkpoint header: "),
    ("eval-sts", _nan_parameter, "checkpoint holds non-finite parameters"),
    ("soup", lambda data: enc.CHECKPOINT_MAGIC + b"not json\n",
     "unreadable checkpoint header: Expecting value"),
], ids=["header-nested-too-deep", "nan-parameter", "soup-header-not-json"])
def test_unloadable_checkpoint_exits_2_with_one_line(small_world, tmp_path, capsys,
                                                     command, corrupt, message):
    # the deep header used to escape as a RecursionError traceback; the NaN
    # used to load, and eval then failed writing its digest; soup loads the
    # good model first, and the line must name the bad one
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=8, output_dim=8)
    data = oracles.checkpoint_to_bytes(
        enc.Checkpoint(config=cfg, phase="base", params=enc.init_params(cfg)))
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    good.write_bytes(data)
    bad.write_bytes(corrupt(data))
    out = tmp_path / "out"
    argv = {"embed": ["embed", "--model", str(bad),
                      "--in", write_text(tmp_path / "texts.txt", "fever\n")],
            "eval-sts": ["eval", "sts", "--model", str(bad),
                         "--data", os.path.join(small_world, "sts_test.tsv")],
            "soup": ["soup", "--models", str(good), str(bad),
                     "--val", os.path.join(small_world, "sts_val.tsv")]}
    assert run(argv[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}"), err
    assert not out.exists()


def _overflowing_model(path):
    # one finite but huge output bias, as a flipped exponent byte gives:
    # squaring it overflows, so the output norm of every text is inf
    cfg = enc.EncoderConfig(vocab_buckets=16, embed_dim=4, hidden_dim=4, output_dim=4)
    params = enc.init_params(cfg)
    params.b2[0] = 1e200
    enc.save_checkpoint(path, enc.Checkpoint(config=cfg, phase="base", params=params))
    return str(path)


def test_embed_overflowing_norm_exits_2_with_one_line(tmp_path):
    # the overflow used to give an all-zero embedding, exit 0 and a numpy warning
    model = _overflowing_model(tmp_path / "huge.ckpt")
    out = tmp_path / "e.tsv"
    infile = write_text(tmp_path / "texts.txt", "fever\n")
    proc = run_child(["embed", "--model", model, "--in", infile, "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"error: {infile}:1: output norm is not finite with model {model}"]
    assert proc.stdout == ""
    assert not out.exists()


def test_embed_overflow_names_the_input_line_past_the_first_chunk(tmp_path, capsys):
    # only the token "zzbad" drives the output norm past float range; the
    # message used to name the row within its chunk of EMBED_CHUNK texts
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=4, hidden_dim=4, output_dim=4)
    bad, fever = enc.tokenize_batch(cfg, ["zzbad", "fever"]).ids
    assert bad != fever
    params = enc.init_params(cfg)
    params.flat[:] = 0.0
    params.token_table[bad] = 1.0
    params.w1[:] = 1.0
    params.w2[:] = 1e200
    model = str(tmp_path / "m.ckpt")
    enc.save_checkpoint(model, enc.Checkpoint(config=cfg, phase="base", params=params))
    infile = write_text(tmp_path / "texts.txt", "fever\n" * 1499 + "zzbad\n")
    out = tmp_path / "e.tsv"
    assert run(["embed", "--model", model, "--in", infile, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {infile}:1500: output norm is not finite with model {model}"]
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "texts.txt"]


def test_train_self_distill_from_overflowing_base_names_the_regime(small_world, tmp_path,
                                                                   capsys):
    # the loss before the first epoch used to fail outside the error mapping,
    # with a message that named neither the regime nor the epoch
    base = _overflowing_model(tmp_path / "huge.ckpt")
    config = enc.load_checkpoint(base).config
    teacher = tmp_path / "teacher.ckpt"
    enc.save_checkpoint(teacher, enc.Checkpoint(config=config, phase="sts_adapted",
                                                params=enc.init_params(config)))
    out = tmp_path / "distill.ckpt"
    code = run(["train", "self-distill", "--base", base, "--teacher", str(teacher),
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--pca-dim", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: self-distill training failed before epoch 1: "
        "output norm of batch row 0 is not finite"]
    assert not out.exists()


def test_train_sts_from_overflowing_base_names_epoch_and_step(small_world, tmp_path, capsys):
    # the base fixes the encoder, so the config sets training keys only
    cfg = write_text(tmp_path / "train.cfg",
                     "learning_rate = 0.002\nepochs = 2\nbatch_size = 16\nseed = 3\n")
    out = tmp_path / "sts.ckpt"
    code = run(["train", "sts", "--base", _overflowing_model(tmp_path / "huge.ckpt"),
                "--data", os.path.join(small_world, "sts_train.tsv"),
                "--config", cfg, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: sts training failed at epoch 1, step 1: "
        "output norm of batch row 0 is not finite"]
    assert not out.exists()


def _eight_wide_teacher(path):
    config = enc.EncoderConfig(vocab_buckets=64, embed_dim=4, hidden_dim=6, output_dim=8)
    enc.save_checkpoint(path, enc.Checkpoint(config=config, phase="sts_adapted",
                                             params=enc.init_params(config)))
    return str(path)


@pytest.mark.parametrize("probe, code, message", [
    ("learning-rate", 2, "error: sts training failed at epoch 1, step 2: overflow "),
    ("vocab-buckets", 2, "error: cannot allocate the 64000000024832 parameters of "
                         "vocab_buckets 1000000000000, embed_dim 64, hidden_dim 128, "
                         "output_dim 128"),
    ("pca-dim", 64, "usage error: --pca-dim must be at most 8 with teacher output_dim 8 "
                    "and 50 concepts"),
], ids=["learning-rate", "vocab-buckets", "pca-dim"])
def test_numeric_fault_exits_with_its_code_and_one_line(small_world, tmp_path, probe, code,
                                                        message):
    # each printed a numpy warning or a traceback, or failed late naming no
    # option; the 466 TiB table request fails at once, without touching memory
    out = str(tmp_path / "out.ckpt")
    sts = ["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"), "--out", out,
           "--config"]
    if probe == "learning-rate":
        argv = sts + [_mini_train_cfg(tmp_path, learning_rate=1e308)]
    elif probe == "vocab-buckets":
        argv = sts + [write_text(tmp_path / "big.cfg", "vocab_buckets = 1000000000000\n")]
    else:
        teacher = _eight_wide_teacher(tmp_path / "teacher.ckpt")
        argv = ["train", "self-distill", "--base", teacher, "--teacher", teacher,
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--pca-dim", "50", "--out", out]
    proc = run_child(argv)
    err = proc.stderr.splitlines()
    assert proc.returncode == code and len(err) == 1 and err[0].startswith(message), err
    assert not os.path.exists(out)


def test_train_self_distill_checks_pca_dim_before_encoding(small_world, tmp_path, capsys,
                                                           monkeypatch):
    # the limit used to be found by pca_fit, after the teacher had encoded
    # every name and definition
    def fail(*args):
        raise AssertionError("the teacher encoded before --pca-dim was checked")
    monkeypatch.setattr(enc, "forward_tokens", fail)
    teacher = _eight_wide_teacher(tmp_path / "teacher.ckpt")
    out = tmp_path / "distill.ckpt"
    assert run(["train", "self-distill", "--base", teacher, "--teacher", teacher,
                "--ontology", os.path.join(small_world, "ontology.jsonl"),
                "--templates", os.path.join(small_world, "templates.tsv"),
                "--pca-dim", "9", "--out", str(out)]) == 64
    assert capsys.readouterr().err.splitlines() == [
        "usage error: --pca-dim must be at most 8 with teacher output_dim 8 and 50 concepts"]
    assert not out.exists()


@pytest.mark.parametrize("form", ["models", "manifest"])
def test_soup_repeated_label_exits_2_before_reading_a_candidate(small_world, tmp_path, capsys,
                                                                 monkeypatch, form):
    # a repeated label used to merge two candidates into one report entry
    paths = []
    for seed, sub in ((1, "d1"), (2, "d2")):
        cfg = enc.EncoderConfig(vocab_buckets=256, embed_dim=12, hidden_dim=16,
                                output_dim=16, hash_seed=5, init_seed=seed)
        (tmp_path / sub).mkdir()
        paths.append(str(tmp_path / sub / "m.ckpt"))
        enc.save_checkpoint(paths[-1], enc.Checkpoint(config=cfg, phase="self_distilled",
                                                      params=enc.init_params(cfg)))
    if form == "models":
        source, label = ["--models", *paths], "m.ckpt"
    else:
        listing = {"candidates": [{"path": p, "score": 0.5, "label": "run"} for p in paths]}
        (tmp_path / "cands.json").write_text(json.dumps(listing))
        source, label = ["--manifest", str(tmp_path / "cands.json")], "run"
    before = sorted(os.listdir(tmp_path))

    def no_read(path):
        raise AssertionError(f"{path} was read")
    monkeypatch.setattr(enc, "load_checkpoint", no_read)
    assert run(["soup", *source, "--val", os.path.join(small_world, "sts_val.tsv"),
                "--out", str(tmp_path / "soup.ckpt")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(label) in err[0], err
    assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# pipeline


def _mini_pipeline_cfg(small_world, tmp_path, **overrides):
    mapping = {
        "ontology": os.path.join(small_world, "ontology.jsonl"),
        "templates": os.path.join(small_world, "templates.tsv"),
        "glossary": os.path.join(small_world, "glossary.jsonl"),
        "sts_train": os.path.join(small_world, "sts_train.tsv"),
        "sts_val": os.path.join(small_world, "sts_val.tsv"),
        "sts_test": os.path.join(small_world, "sts_test.tsv"),
        "bcr": os.path.join(small_world, "bcr.tsv"),
        "nel": os.path.join(small_world, "nel.tsv"),
        "nli": os.path.join(small_world, "nli.tsv"),
        "seed": "5", "per_concept_templated": "2",
        "vocab_buckets": "1024", "embed_dim": "24", "hidden_dim": "48",
        "output_dim": "48", "hash_seed": "5", "init_seed": "1",
        "adapt_learning_rate": "0.002", "adapt_epochs": "6", "adapt_batch_size": "32",
        "contrastive_learning_rate": "0.004", "contrastive_epochs": "4",
        "contrastive_batch_size": "32",
        "readapt_learning_rate": "0.002", "readapt_epochs": "3",
        "readapt_batch_size": "32",
        "distill_learning_rate": "0.001", "distill_epochs": "2",
        "distill_batch_size": "32", "distill_runs": "3", "pca_dim": "16",
    }
    # an override of None drops the key
    mapping = {k: str(v) for k, v in {**mapping, **overrides}.items() if v is not None}
    path = tmp_path / "demo.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    return str(path)


@pytest.mark.parametrize("key", ["second_adapt", "distill_teacher", "soup_strategy",
                                 "soup_metric"])
def test_pipeline_rejects_bad_choice_before_training(fixtures_dir, tmp_path, key):
    # the demo config with one bad choice exits 64 before anything is trained
    mapping = trainer.parse_kv_file(os.path.join(fixtures_dir, "demo.cfg"))
    for k, v in mapping.items():
        if os.path.isfile(os.path.join(fixtures_dir, v)):
            mapping[k] = os.path.join(fixtures_dir, v)
    mapping[key] = "bogus"
    cfg = write_text(tmp_path / "bad.cfg", "".join(f"{k} = {v}\n" for k, v in mapping.items()))
    assert run(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 64
    assert list(tmp_path.rglob("*.ckpt")) == []


@pytest.mark.parametrize("key, value", [
    ("contrastive_epoch", 40), ("info_nce_symmetric", "maybe"),
    ("contrastive_info_nce_symmetric", "true"),
], ids=["typo", "symmetric", "phase-symmetric"])
def test_pipeline_rejects_unknown_key_before_creating_output(small_world, tmp_path, capsys,
                                                            key, value):
    # a typo for contrastive_epochs used to train silently for the default 1
    # epoch; the InfoNCE loss has one direction, so there is no symmetric switch
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **{key: value})
    out_dir = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out-dir", str(out_dir)]) == 64
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


def test_pipeline_keys_cover_the_demo_configs(fixtures_dir, tmp_path):
    # the bundled demo.cfg and the one fixtures.write_fixtures generates
    bundled = trainer.parse_kv_file(os.path.join(fixtures_dir, "demo.cfg"))
    generated = trainer.parse_kv_file(write_text(tmp_path / "demo.cfg", fixtures.DEMO_CONFIG))
    assert set(bundled) | set(generated) <= pipeline.PIPELINE_KEYS


def test_pipeline_report_structure_and_guarantee(small_world, tmp_path):
    cfg = _mini_pipeline_cfg(small_world, tmp_path)
    out_dir = tmp_path / "run"
    code = run(["pipeline", "--config", cfg, "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    phases = report["phases"]
    assert phases == ["base", "sts_adapted", "contrastive", "readapted",
                      "self_distilled", "souped"]
    benchmarks = {"sts_val", "sts_test", "bcr", "nel", "nli"}
    seen = {(r["phase"], r["benchmark"]) for r in report["rows"]}
    assert seen == {(p, b) for p in phases for b in benchmarks}
    # greedy-soup guarantee on the validation metric
    assert report["soup"]["validation_pearson"] >= \
        report["soup"]["best_single_validation"] - 1e-12
    for name in ("base.ckpt", "contrastive.ckpt", "soup.ckpt", "distill_01.ckpt"):
        assert (out_dir / name).exists()


def test_pipeline_rerun_identical_report(small_world, tmp_path):
    cfg = _mini_pipeline_cfg(small_world, tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run(["pipeline", "--config", cfg, "--out-dir", str(a_dir)]) == 0
    assert run(["pipeline", "--config", cfg, "--out-dir", str(b_dir)]) == 0
    assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()
    assert (a_dir / "soup.ckpt").read_bytes() == (b_dir / "soup.ckpt").read_bytes()
    assert (a_dir / "distill_02.ckpt").read_bytes() == (b_dir / "distill_02.ckpt").read_bytes()


# The cheapest pipeline that still runs every phase.
_FAST = dict(adapt_epochs=1, contrastive_epochs=1, readapt_epochs=1, distill_epochs=1,
             distill_runs=2)


def test_pipeline_memory_does_not_grow_with_the_distillation_runs(small_world, tmp_path):
    # each phase is evaluated when it is trained and then dropped, and the
    # soup reads its candidates from their files, so five more distillation
    # runs add less than one checkpoint to the peak (they used to add five)
    def peak(runs):
        (tmp_path / f"runs{runs}").mkdir()
        cfg = _mini_pipeline_cfg(small_world, tmp_path / f"runs{runs}",
                                 **{**_FAST, "distill_runs": runs})
        tracemalloc.start()
        try:
            assert run(["pipeline", "--config", cfg, "--out-dir",
                        str(tmp_path / f"runs{runs}" / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # fills the tokenizer caches, so that both runs below find them full
    growth = peak(6) - peak(1)
    params = enc.load_checkpoint(tmp_path / "runs1" / "out" / "soup.ckpt").params
    assert growth < params.flat.nbytes, (growth, params.flat.nbytes)


def test_pipeline_without_contrastive_epochs_logs_no_final_loss(small_world, tmp_path,
                                                                 caplog):
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **{**_FAST, "contrastive_epochs": 0})
    with caplog.at_level(logging.INFO):
        assert run(["--verbose", "pipeline", "--config", cfg,
                    "--out-dir", str(tmp_path / "out")]) == 0
    assert "contrastive done: 0 steps, final loss none" in caplog.messages
    _strict_json((tmp_path / "out" / "report.json").read_text())


def test_pipeline_verbose_logs_each_trained_phase_in_run_order(small_world, tmp_path, caplog):
    # adapt used to log only "adaptation done", and readapt nothing
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST)
    with caplog.at_level(logging.INFO):
        assert run(["--verbose", "pipeline", "--config", cfg,
                    "--out-dir", str(tmp_path / "out")]) == 0
    trained = r"\w+ done: \d+ steps, final loss [\d.]+|\w+: val pearson [\d.-]+"
    phases = [m.split(":")[0] for m in caplog.messages if re.fullmatch(trained, m)]
    assert phases == ["adapt done", "contrastive done", "readapt done", "distill_01 done",
                      "distill_01", "distill_02 done", "distill_02"]


def _no_training(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a bad config reached training")
    monkeypatch.setattr(trainer, "_fit", fail)


@pytest.mark.parametrize("key, value", [
    ("readapt_epochs", "fifteen"), ("distill_batch_size", "0"), ("distill_runs", "0"),
    ("pca_dim", "0"), ("pca_dim", "49"),
    ("contrastive_learning_rate", "nan"), ("seed", "-1"), ("distill_weight_decay", "-5"),
])
def test_pipeline_bad_value_exits_64_naming_the_key_before_training(
        small_world, tmp_path, capsys, monkeypatch, key, value):
    # pca_dim 49 exceeds output_dim 48; each of these used to fail only
    # once its phase started, leaving checkpoints behind
    _no_training(monkeypatch)
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **{key: value})
    out_dir = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out-dir", str(out_dir)]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{cfg}: {key}: " in err[0]
    assert sorted(os.listdir(tmp_path)) == ["demo.cfg"]


@pytest.mark.parametrize("overrides, key", [
    ({"contrastive_batch_size": 1}, "contrastive_batch_size"),
    ({"contrastive_batch_size": None, "batch_size": 1}, "batch_size"),
], ids=["phase-key", "shared-key"])
def test_pipeline_contrastive_batch_of_one_exits_64_naming_the_key_before_training(
        small_world, tmp_path, capsys, monkeypatch, overrides, key):
    # the in-batch objective needs two pairs a batch; this used to fail
    # only when the contrastive phase started, after adaptation had trained
    _no_training(monkeypatch)
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **overrides)
    assert run(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{cfg}: {key}: must be >= 2" in err[0]
    assert sorted(os.listdir(tmp_path)) == ["demo.cfg"]


def test_train_negative_weight_decay_exits_64_naming_the_key_before_training(
        small_world, tmp_path, capsys, monkeypatch):
    # a weight decay of -5 used to train and exit 0
    _no_training(monkeypatch)
    cfg = _mini_train_cfg(tmp_path, weight_decay=-5)
    assert run(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                "--config", cfg, "--out", str(tmp_path / "sts.ckpt")]) == 64
    err = capsys.readouterr().err.splitlines()
    assert err == [f"usage error: {cfg}: weight_decay: weight_decay must be >= 0"]
    assert sorted(os.listdir(tmp_path)) == ["train.cfg"]


@pytest.mark.parametrize("typo", ["epoch", "learnig_rate", "info_nce_symmetric"])
def test_train_rejects_unknown_key_before_training(small_world, tmp_path, capsys,
                                                   monkeypatch, typo):
    # a typo used to train silently with the default value
    _no_training(monkeypatch)
    cfg = _mini_train_cfg(tmp_path, **{typo: "3"})
    out = tmp_path / "sts.ckpt"
    assert run(["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                "--config", cfg, "--out", str(out)]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and typo in err[0]
    assert sorted(os.listdir(tmp_path)) == ["train.cfg"]


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_config_that_is_not_utf8_exits_64_naming_the_line(small_world, tmp_path, capsys,
                                                         monkeypatch, command):
    # this used to exit 2 with a decode error that named neither file nor line
    _no_training(monkeypatch)
    if command == "train":
        cfg = _mini_train_cfg(tmp_path)
        argv = ["train", "sts", "--data", os.path.join(small_world, "sts_train.tsv"),
                "--out", str(tmp_path / "sts.ckpt")]
    else:
        cfg = _mini_pipeline_cfg(small_world, tmp_path)
        argv = ["pipeline", "--out-dir", str(tmp_path / "run")]
    with open(cfg, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(cfg, "wb") as fh:
        fh.write(b"".join(lines[:2] + [b"# caf\xe9 \xff\n"] + lines[2:]))
    before = sorted(os.listdir(tmp_path))
    assert run(argv + ["--config", cfg]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {cfg}:3: "), err
    assert sorted(os.listdir(tmp_path)) == before


def test_pipeline_out_dir_that_is_a_file_exits_1_before_training(small_world, tmp_path,
                                                                 monkeypatch):
    _no_training(monkeypatch)
    cfg = _mini_pipeline_cfg(small_world, tmp_path)
    (tmp_path / "run").write_text("a file\n")
    assert run(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 1
    assert sorted(os.listdir(tmp_path)) == ["demo.cfg", "run"]


def test_pipeline_training_error_names_the_phase(small_world, tmp_path, capsys, monkeypatch):
    # every gradient of the second adaptation pass is non-finite
    real_adapt, real_backward = trainer.adapt_sts, trainer.enc.backward_batch
    adapt_calls = []

    def nan_backward(*args):
        grad = real_backward(*args)
        grad.w1[0, 0] = np.nan
        return grad

    def adapt(*args):
        adapt_calls.append(args)
        if len(adapt_calls) == 2:
            monkeypatch.setattr(trainer.enc, "backward_batch", nan_backward)
        return real_adapt(*args)

    monkeypatch.setattr(trainer, "adapt_sts", adapt)
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST)
    assert run(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: readapt: sts training failed at epoch 1, step 1: non-finite gradient for w1"]


def test_pipeline_failure_leaves_out_dir_as_it_was(small_world, tmp_path, capsys,
                                                   monkeypatch):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "base.ckpt").write_bytes(b"an earlier run")
    (out_dir / "notes.txt").write_text("kept\n")
    real_distill = trainer.train_self_distill
    distill_calls = []

    def distill(*args):
        distill_calls.append(args)
        if len(distill_calls) == 2:
            raise trainer.TrainError("self-distill training failed at epoch 1, step 1: boom")
        return real_distill(*args)

    monkeypatch.setattr(trainer, "train_self_distill", distill)
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST)
    assert run(["pipeline", "--config", cfg, "--out-dir", str(out_dir)]) == 2
    assert "distill_02: self-distill training failed" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["demo.cfg", "run"]
    assert sorted(os.listdir(out_dir)) == ["base.ckpt", "notes.txt"]
    assert (out_dir / "base.ckpt").read_bytes() == b"an earlier run"


def test_pipeline_distill_loss_before_training_names_the_phase(small_world, tmp_path, capsys,
                                                              monkeypatch):
    # with an overflowing output bias the distillation loss taken before the
    # first epoch fails; it used to fail outside the error mapping
    real_attach = trainer.enc.attach_head

    def overflowing_head(*args):
        params = real_attach(*args)
        params.b2[0] = 1e200
        return params

    monkeypatch.setattr(trainer.enc, "attach_head", overflowing_head)
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST)
    assert run(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: distill_01: self-distill training failed before epoch 1: "
        "output norm of batch row 0 is not finite"]
    assert sorted(os.listdir(tmp_path)) == ["demo.cfg"]


@pytest.mark.parametrize("phase, name", [("base", "base"), ("self_distilled", "distill_01"),
                                         ("souped", "soup")], ids=["base", "distill", "soup"])
def test_pipeline_scoring_error_names_the_checkpoint_and_the_benchmark(
        small_world, tmp_path, capsys, monkeypatch, phase, name):
    # these used to exit 2 with only "error: overflow encountered in matmul".
    # The base overflows for real; a distillation run's score and the first
    # greedy soup trial are made to fail the same way.
    real_eval_sts = ev.eval_sts

    def eval_sts(ckpt, dataset):
        if ckpt.phase == phase:
            raise FloatingPointError("overflow encountered in matmul")
        return real_eval_sts(ckpt, dataset)

    if phase == "base":
        cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST, init_scale="1e200")
    else:
        monkeypatch.setattr(ev, "eval_sts", eval_sts)
        cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST)
    assert run(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name}: scoring sts_val failed: overflow encountered in matmul"]
    assert sorted(os.listdir(tmp_path)) == ["demo.cfg"]


def test_pipeline_manifest_lists_only_this_runs_outputs(small_world, tmp_path):
    # a 2-run pipeline into the directory of a 3-run one replaces the files
    # it writes, leaves distill_03.ckpt alone, and lists only its own files
    out_dir = tmp_path / "run"
    for runs in (3, 2):
        cfg = _mini_pipeline_cfg(small_world, tmp_path, **{**_FAST, "distill_runs": runs})
        assert run(["pipeline", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "report.json.manifest.json").read_text())
    names = ["report.json", "base.ckpt", "adapted.ckpt", "contrastive.ckpt",
             "readapted.ckpt", "distill_01.ckpt", "distill_02.ckpt", "soup.ckpt"]
    assert manifest["outputs"] == [str(out_dir / name) for name in names]
    assert (out_dir / "distill_03.ckpt").exists()
    assert [r["label"] for r in json.loads((out_dir / "report.json").read_text())
            ["distill_runs"]] == ["distill_01", "distill_02"]


def test_pipeline_distill_seed_offsets_each_run(small_world, tmp_path):
    # distill_seed = 4 used to give every run seed 4 while the report said 5, 6
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST, distill_seed=4)
    out_dir = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [r["seed"] for r in report["distill_runs"]] == [4, 5]
    assert (out_dir / "distill_01.ckpt").read_bytes() != (out_dir / "distill_02.ckpt").read_bytes()


def test_pipeline_report_equals_eval_of_the_soup(small_world, tmp_path):
    # the report and eval score through one function: each souped row is the
    # value eval writes for soup.ckpt on the same dataset
    cfg = _mini_pipeline_cfg(small_world, tmp_path, **_FAST)
    out_dir = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    souped = {r["benchmark"]: r for r in report["rows"] if r["phase"] == "souped"}
    assert list(souped) == ["sts_val", "sts_test", "bcr", "nel", "nli"]
    for bench, row in souped.items():
        kind = bench.split("_")[0]
        out = tmp_path / f"{bench}.jsonl"
        argv = ["eval", kind, "--model", str(out_dir / "soup.ckpt"),
                "--data", os.path.join(small_world, f"{bench}.tsv"), "--out", str(out)]
        if kind == "nel":
            argv += ["--ontology", os.path.join(small_world, "ontology.jsonl")]
        assert run(argv) == 0
        [line] = out.read_text().splitlines()
        result = json.loads(line)
        assert [result[key] for key in ("benchmark", "metric", "value", "n")] == [
            kind, row["metric"], row["value"], row["n"]], bench


# ---------------------------------------------------------------------------
# golden checkpoint


def test_golden_checkpoint_reproduces_committed_embeddings():
    here = os.path.dirname(__file__)
    ckpt = enc.load_checkpoint(os.path.join(here, "golden", "golden.ckpt"))
    with open(os.path.join(here, "golden", "golden_embeddings.tsv"),
              encoding="utf-8") as fh:
        for line in fh:
            text, vec_str = line.rstrip("\n").split("\t")
            expected = np.array([float(x) for x in vec_str.split(",")])
            got = enc.encode_batch(ckpt.params, ckpt.config, [text])[0]
            assert np.max(np.abs(got - expected)) < 1e-12
