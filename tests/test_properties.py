"""Property tests over random small encoder configs, with and without a
distillation head: the flat parameter layout, checkpoint round trips and
corrupted checkpoints, uniform soups of identical models and training on
the reached token rows; over random Unicode tokens and their hash
buckets; over batches of token ids mean-pooled against a sequential
sum; over rows of float64 values as ``embed`` writes them; over
mutated pipeline config files; over mutated lines of every TSV and JSONL
input; and over mutated option and config values of real commands."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ontoembed import cli  # noqa: E402
from ontoembed import config  # noqa: E402
from ontoembed import encoder as enc  # noqa: E402
from ontoembed import evalsuite as ev  # noqa: E402
from ontoembed import ontology as onto  # noqa: E402
from ontoembed import pipeline  # noqa: E402
from ontoembed import soup  # noqa: E402
from ontoembed import trainer  # noqa: E402

from conftest import run_child  # noqa: E402
from oracles import (  # noqa: E402
    checkpoint_from_bytes, checkpoint_to_bytes, dense_fit, embedding_lines_reference,
    fnv1a64, params_equal, pooled_reference,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def models(draw, head_dims=st.none() | st.integers(1, 3)):
    """(config, params) with random weights; a head of a width drawn from
    ``head_dims`` is attached, or none when it draws None."""
    config = enc.EncoderConfig(
        vocab_buckets=draw(st.integers(1, 16)),
        embed_dim=draw(st.integers(1, 4)),
        hidden_dim=draw(st.integers(1, 4)),
        output_dim=draw(st.integers(1, 4)),
        hash_seed=draw(st.integers(0, 2**32)),
        init_seed=draw(st.integers(0, 2**32)),
    )
    params = enc.init_params(config)
    head_dim = draw(head_dims)
    if head_dim is not None:
        params = enc.attach_head(params, config, head_dim, seed=draw(st.integers(0, 2**32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    params.flat[:] = rng.normal(size=params.flat.size)
    return config, params


@PROPERTY_SETTINGS
@given(models())
def test_unflatten_of_flatten_is_identity_and_shares_memory(model):
    config, params = model
    back = enc.unflatten(config, enc.flatten(params))
    assert params_equal(back, params)
    assert back.head_dim == params.head_dim
    assert np.shares_memory(back.flat, params.flat)
    for (_, view), (_, original) in zip(back.tensor_items(), params.tensor_items()):
        assert np.shares_memory(view, original)


@PROPERTY_SETTINGS
@given(models(), st.sampled_from(enc.PHASES))
def test_checkpoint_bytes_round_trip_bit_exact(model, phase):
    config, params = model
    data = checkpoint_to_bytes(enc.Checkpoint(config=config, phase=phase, params=params))
    loaded = checkpoint_from_bytes(data)
    assert params_equal(loaded.params, params)
    assert loaded.config == config and loaded.phase == phase
    assert checkpoint_to_bytes(loaded) == data


@st.composite
def corrupted(draw, data: bytes):
    """``data`` truncated, with one byte flipped, or with bytes appended."""
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]


def assert_file_reads_as_bytes(data: bytes, path: str):
    """``load_checkpoint`` of ``path``, a file holding ``data``, gives what
    ``checkpoint_from_bytes(data)`` gives: the same checkpoint, or an error
    of the same class whose message is the path, ": " and the same message.
    Returns that error, or None."""
    try:
        want = checkpoint_from_bytes(data)
    except enc.CheckpointError as exc:
        with pytest.raises(enc.CheckpointError) as info:
            enc.load_checkpoint(path)
        assert type(info.value) is type(exc) and str(info.value) == f"{path}: {exc}"
        return exc
    got = enc.load_checkpoint(path)
    assert params_equal(got.params, want.params)
    assert (got.config, got.phase, got.history) == (want.config, want.phase, want.history)
    return None


@settings(max_examples=60, deadline=None, database=None)
@given(models(), st.data())
def test_corrupted_checkpoint_loads_or_fails_in_one_line(model, data):
    config, params = model
    bad = data.draw(corrupted(checkpoint_to_bytes(
        enc.Checkpoint(config=config, phase="base", params=params))))
    texts = ["fever", "", "peptic ulcer"]
    try:
        loaded = checkpoint_from_bytes(bad)
        # a flipped exponent byte can load as a finite weight so large that
        # an output overflows; embed then fails in one line as well
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            enc.encode_batch(loaded.params, loaded.config, texts)
        loads, embeds = True, True
    except enc.CheckpointError:
        loads, embeds = False, False
    except (ValueError, FloatingPointError):
        loads, embeds = True, False
    with tempfile.TemporaryDirectory() as work:
        model_path, texts_path, out = (os.path.join(work, name)
                                       for name in ("m.ckpt", "texts.txt", "e.tsv"))
        with open(model_path, "wb") as fh:
            fh.write(bad)
        assert (assert_file_reads_as_bytes(bad, model_path) is None) == loads
        with open(texts_path, "w", encoding="utf-8") as fh:
            fh.write("".join(text + "\n" for text in texts))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["embed", "--model", model_path, "--in", texts_path, "--out", out])
        err = stderr.getvalue().splitlines()
        if embeds:
            assert code == 0 and err == [] and os.path.exists(out)
        else:
            assert code == 2 and len(err) == 1 and err[0].startswith("error: "), err
            assert not os.path.exists(out)


@pytest.mark.parametrize("cut, error, message", [
    (lambda data: b"", enc.CheckpointFormatError, "bad magic: not an encoder checkpoint"),
    (lambda data: data[:data.index(b"\n")], enc.CheckpointTruncatedError,
     "truncated checkpoint: header not terminated"),
    (lambda data: data[:-1], enc.CheckpointTruncatedError,
     "truncated parameter block: expected {n} bytes, got {short}"),
    (lambda data: data + b"\0", enc.CheckpointFormatError,
     "trailing bytes after parameter block"),
], ids=["empty", "header-without-newline", "block-one-byte-short", "one-trailing-byte"])
def test_damaged_checkpoint_file_fails_as_its_bytes(tmp_path, cut, error, message):
    config = enc.EncoderConfig(vocab_buckets=8, embed_dim=3, hidden_dim=4, output_dim=2)
    data = checkpoint_to_bytes(enc.Checkpoint(config=config, phase="base",
                                                  params=enc.init_params(config)))
    path = str(tmp_path / "m.ckpt")
    with open(path, "wb") as fh:
        fh.write(cut(data))
    exc = assert_file_reads_as_bytes(cut(data), path)
    n = 8 * config.base_param_count()
    assert type(exc) is error and str(exc) == message.format(n=n, short=n - 1)


@PROPERTY_SETTINGS
@given(models(), st.data())
def test_assigning_a_tensor_writes_through_to_flat(model, data):
    _, params = model
    names = [name for name, _ in params.tensor_items()]
    name = data.draw(st.sampled_from(names))
    view = getattr(params, name)
    value = np.arange(view.size, dtype=float).reshape(view.shape) + 0.5
    setattr(params, name, value)
    assert getattr(params, name) is view
    start = sum(arr.size for n, arr in params.tensor_items()[:names.index(name)])
    assert np.array_equal(params.flat[start:start + view.size], value.ravel())

    before = params.flat.copy()
    with pytest.raises(ValueError):
        setattr(params, name, np.zeros(view.shape + (2,)))
    assert np.array_equal(params.flat, before)


# texts of random Unicode, some with a token of one to a few hundred
# repeated characters, so that tokens run from 1 byte to over 1,000 bytes
_HASH_TEXTS = st.lists(st.one_of(
    st.text(), st.builds(lambda chars, n: chars * n, st.text(min_size=1, max_size=3),
                         st.integers(1, 400))), max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None, database=None)
@given(texts=st.lists(_HASH_TEXTS, max_size=5), buckets=st.integers(1, 1 << 62),
       seed=st.one_of(st.integers(max_value=-1), st.integers(0, 2**64 - 1),
                      st.integers(min_value=2**64)))
@hypothesis.example(texts=["fièvre 發燒 🦠 a"], buckets=32768, seed=17)
@hypothesis.example(texts=["é" * 600 + " x " + "z" * 1001], buckets=1, seed=-1)
@hypothesis.example(texts=[], buckets=7, seed=0)
@hypothesis.example(texts=["", " ", "_"], buckets=7, seed=2**64)
def test_token_buckets_equal_the_fnv1a_hash(texts, buckets, seed):
    expected = [[fnv1a64(tok.encode("utf-8"), seed) % buckets
                 for tok in enc._TOKEN_RE.findall(text.lower())] for text in texts]
    config = enc.EncoderConfig(vocab_buckets=buckets, hash_seed=seed)
    tokens = enc.tokenize_batch(config, texts)
    assert tokens.offsets.tolist() == np.cumsum([0] + [len(ids) for ids in expected]).tolist()
    assert tokens.ids.tolist() == [i for ids in expected for i in ids]
    assert [enc.tokenize(config, text) for text in texts] == expected


@st.composite
def token_batches(draw):
    """(params, id_lists): a random model whose token rows span 12 orders of
    magnitude, and up to 8 lists of up to 60 token ids, repeated within and
    across lists; sometimes one list of several hundred ids is among them."""
    config, params = draw(models(head_dims=st.none()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    params.token_table *= 10.0 ** rng.integers(-6, 7, size=(config.vocab_buckets, 1))
    ids = st.integers(0, config.vocab_buckets - 1)
    id_lists = draw(st.lists(st.lists(ids, max_size=60), max_size=8))
    if id_lists and draw(st.booleans()):
        cycle = draw(st.lists(ids, min_size=1, max_size=8))
        long = (cycle * 600)[:draw(st.integers(200, 600))]
        id_lists[draw(st.integers(0, len(id_lists) - 1))] = long
    return params, id_lists


_POOL_PARAMS = enc.init_params(enc.EncoderConfig(vocab_buckets=3, embed_dim=2, hidden_dim=2,
                                                 output_dim=2))


@settings(max_examples=100, deadline=None, database=None)
@given(token_batches())
@hypothesis.example((_POOL_PARAMS, []))
@hypothesis.example((_POOL_PARAMS, [[], [0, 0, 1], [], [1] * 300 + [2], [2, 1]]))
def test_pooling_equals_the_sequential_sum_oracle(batch):
    params, id_lists = batch
    tokens = enc.Tokens(np.array([i for ids in id_lists for i in ids], dtype=np.intp),
                        np.cumsum([0] + [len(ids) for ids in id_lists]).astype(np.intp))
    pooled = enc.forward_tokens(params, tokens).pooled
    assert pooled.tobytes() == pooled_reference(params.token_table, id_lists).tobytes()


def _ulps(value: float, steps: int) -> float:
    """The float ``steps`` representable values above ``value`` (below, if
    negative)."""
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.copysign(np.inf, steps)))
    return value


_FORMAT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
    st.floats(1e-4, 1.0, exclude_max=True),
    # 0, 1 and each power of ten the writer compares with, and their neighbours
    st.builds(_ulps, st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0]), st.integers(-2, 2)),
    st.sampled_from([2.0 ** e for e in range(-1074, 1024)]),
    # short decimals and their neighbours
    st.builds(lambda m, e, steps: _ulps(m / 10.0 ** e, steps),
              st.integers(1, 10**9), st.integers(0, 12), st.integers(-2, 2)),
    # values of few bits, which may lie halfway between two shortest decimals
    st.builds(lambda m, e: m / 2.0 ** e, st.integers(1, 2**20), st.integers(1, 40)),
)


@st.composite
def embedding_blocks(draw):
    """(texts, rows): 1-3 texts, each with a row of 1-30 float64 values."""
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    texts = draw(st.lists(st.text(st.characters(blacklist_categories=["Cs"]), max_size=6),
                          min_size=n_rows, max_size=n_rows))
    values = draw(st.lists(st.tuples(_FORMAT_FLOATS, st.booleans()),
                           min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    return texts, np.array([-v if negative else v for v, negative in values]).reshape(n_rows, -1)


@settings(max_examples=150, deadline=None, database=None)
@given(embedding_blocks())
@hypothesis.example((["t"], np.array([[0.6334762573242188, 2.0 ** -13, -0.0, 5e-324, 1.0]])))
def test_embedding_lines_equal_the_repr_writer(block):
    texts, rows = block
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        assert cli._embedding_lines(texts, rows) == embedding_lines_reference(texts, rows)


@PROPERTY_SETTINGS
@given(models(), st.integers(1, 5))
def test_uniform_soup_of_identical_models_is_that_model(model, k):
    config, params = model
    ckpt = enc.Checkpoint(config=config, phase="self_distilled", params=params)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        enc.save_checkpoint(path, ckpt)
        candidates = [soup.SoupCandidate(path, 0.0, f"m{i}") for i in range(k)]
        out = soup.uniform_soup(candidates)
    assert params_equal(out.params, params.without_head())


def _fit_with_last_state(fit, params, config, texts, plans, objective, cfg, full_loss):
    """``fit``'s stats and the AdamW state after its last step."""
    states = []
    real = trainer.adamw_step

    def spy(params, grads, state, lr, weight_decay=0.0):
        states.append(state)
        return real(params, grads, state, lr, weight_decay)

    with mock.patch.object(trainer, "adamw_step", spy):
        stats = fit(params, config, texts, plans, objective, cfg, "property", full_loss)
    return stats, states[-1]


@pytest.mark.parametrize("weight_decay", [0.0, 0.05], ids=["no-decay", "decay"])
@pytest.mark.parametrize("head_dims", [st.none(), st.integers(1, 3)], ids=["no-head", "head"])
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32), with_full_loss=st.booleans())
def test_compact_fit_equals_full_table_fit_bit_for_bit(weight_decay, head_dims, data, seed,
                                                       with_full_loss):
    # texts of random buckets: text 0 is trained in the first step only, the
    # last text in no step, and buckets outside every text are never reached;
    # a fifth of the parameters and of the objective's gradients are -0.0,
    # and a tenth of the parameters are the smallest subnormals, whose decay
    # terms underflow to zero
    config, params = data.draw(models(head_dims))
    rng = np.random.default_rng(seed)
    pick = rng.random(params.flat.size)
    params.flat[pick < 0.2] = -0.0
    tiny = (0.2 <= pick) & (pick < 0.3)
    params.flat[tiny] = rng.choice([-5e-324, 5e-324], size=int(tiny.sum()))
    n_texts = int(rng.integers(3, 10))
    offsets = np.zeros(n_texts + 1, dtype=np.intp)
    np.cumsum(rng.integers(0, 4, n_texts), out=offsets[1:])
    tokens = enc.Tokens(rng.integers(0, config.vocab_buckets, offsets[-1]), offsets)
    # one word per bucket, so that each text tokenizes to its drawn buckets
    word, j = {}, 0
    while len(word) < config.vocab_buckets:
        word.setdefault(enc.tokenize(config, f"w{j}")[0], f"w{j}")
        j += 1
    texts = [" ".join(word[b] for b in tokens.ids[start:stop])
             for start, stop in zip(offsets[:-1], offsets[1:])]
    assert np.array_equal(enc.tokenize_batch(config, texts).ids, tokens.ids)
    plans = [[rng.integers(1, n_texts - 1, int(rng.integers(1, 5)))
              for _ in range(int(rng.integers(1, 4)))] for _ in range(int(rng.integers(1, 4)))]
    plans[0][0] = np.concatenate([[0], plans[0][0]])
    cfg = trainer.TrainConfig(learning_rate=float(rng.uniform(1e-3, 1e-1)),
                              weight_decay=weight_decay, warmup_fraction=0.2)

    def objective(y, index):
        grng = np.random.default_rng([seed, *index.tolist()])
        gy = grng.normal(size=y.shape)
        gy[grng.random(gy.shape) < 0.2] = -0.0
        return float(np.sum(y * gy)), gy

    got, want = params.copy(), params.copy()
    stats, state = _fit_with_last_state(trainer._fit, got, config, texts, plans, objective,
                                        cfg, with_full_loss)
    want_stats, want_state = _fit_with_last_state(dense_fit, want, config, texts, plans,
                                                  objective, cfg, with_full_loss)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert np.array(stats.epoch_losses).tobytes() == np.array(want_stats.epoch_losses).tobytes()
    # the compact moments are the full moments' reached rows and dense tensors;
    # every other row's moments are +0.0
    reached = np.unique(tokens.ids)
    table = want.token_table.shape
    split = len(reached) * table[1]
    for m, want_m in ((state.m, want_state.m), (state.v, want_state.v)):
        rows = want_m[:want.token_table.size].reshape(table)
        assert m[:split].tobytes() == rows[reached].tobytes()
        assert m[split:].tobytes() == want_m[want.token_table.size:].tobytes()
        assert np.delete(rows, reached, axis=0).tobytes() == bytes(
            8 * (table[0] - len(reached)) * table[1])


# Values whose decay terms underflow to -0.0 or +0.0 (the subnormals), keep
# a sign of zero, or overflow at large rates, among ordinary ones.
_REPLAY_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                  1e300, -1e300]) | st.floats(-10.0, 10.0)
# The rates include 0.0 and, with the larger weight decays, lr * wd >= 1.
_REPLAY_RATES = st.sampled_from([0.0, 1e-3, 0.04, 1.0, 30.0, 1e3]) | st.floats(0.0, 1e3)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), rows=st.integers(1, 12), width=st.integers(1, 4),
       weight_decay=st.sampled_from([0.0, 1e-310, 0.01, 0.05, 0.5, 2.0]),
       rates=st.lists(_REPLAY_RATES, max_size=6),
       reached_kind=st.sampled_from(["empty", "full", "mixed"]),
       block=st.sampled_from([1, 3, 8, 1 << 15]))
def test_replay_decay_equals_the_per_step_update_bit_for_bit(data, rows, width, weight_decay,
                                                             rates, reached_kind, block):
    # the reference is adamw_step on a row it never trains: at each rate,
    # theta <- theta - (0.0 + theta * wd) * lr, over every row outside reached
    table = np.array(data.draw(st.lists(_REPLAY_VALUES, min_size=rows * width,
                                        max_size=rows * width))).reshape(rows, width)
    if reached_kind == "mixed":
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    else:
        mask = np.full(rows, reached_kind == "full")
    reached = np.flatnonzero(mask)
    want = table.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        theta = want[~mask]
        for lr in rates:
            decay = theta * weight_decay
            decay = 0.0 + decay
            decay = decay * lr
            theta = theta - decay
        want[~mask] = theta
        got = table.copy()
        with mock.patch.object(trainer, "_REPLAY_BLOCK", block):
            trainer._replay_decay(got, reached, rates, weight_decay)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# pipeline config files

_PATH_KEYS = ("ontology", "templates", "glossary", "sts_train", "sts_val", "sts_test",
              "bcr", "nel", "nli")
_VALUE_KEYS = sorted(set(pipeline.PIPELINE_KEYS) - set(_PATH_KEYS))
# Values without decimal digits, plus a few numeric edge cases; a long digit
# string could ask the plan for billions of distillation runs.
_GARBAGE = st.sampled_from(["-1", "0", "1", "3", "2.5", "nan", "inf", "1e400", "true",
                            "maybe", ""]) | st.text(
    st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="\n\r"),
    max_size=10)


@st.composite
def pipeline_config_lines(draw, base: dict):
    """The lines of ``base`` as a config file, mutated one to three times:
    a garbage value, an unknown key, a line without '=', a duplicated line,
    or a dropped path key."""
    lines = [f"{k} = {v}" for k, v in base.items()]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "unknown", "no_equals", "duplicate", "drop"]))
        if kind == "value":
            lines.append(f"{draw(st.sampled_from(_VALUE_KEYS))} = {draw(_GARBAGE)}")
        elif kind == "unknown":
            key = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
                       .filter(lambda k: k not in pipeline.PIPELINE_KEYS))
            lines.append(f"{key} = 1")
        elif kind == "no_equals":
            lines.append(draw(st.text(st.characters(blacklist_categories=("Cs",),
                                                    blacklist_characters="=\n\r"),
                                      max_size=10)))
        elif kind == "duplicate":
            lines.append(draw(st.sampled_from(lines)))
        else:
            drop = draw(st.sampled_from(_PATH_KEYS))
            lines = [line for line in lines if not line.startswith(drop + " =")]
    return lines


@pytest.fixture(scope="module")
def pipeline_base(small_world):
    paths = {k: os.path.join(small_world, f"{k}.jsonl" if k in ("ontology", "glossary")
                             else f"{k}.tsv") for k in _PATH_KEYS}
    return {**paths, "seed": "5", "vocab_buckets": "256", "embed_dim": "8",
            "hidden_dim": "8", "output_dim": "8", "pca_dim": "4", "distill_runs": "2",
            "contrastive_epochs": "1", "distill_batch_size": "16"}


@PROPERTY_SETTINGS
@given(data=st.data())
def test_mutated_pipeline_configs_plan_or_fail_in_one_line(pipeline_base, data):
    # Building the plan trains nothing: each file either plans or raises the
    # one-line config error that names it, and no output directory appears.
    lines = data.draw(pipeline_config_lines(pipeline_base))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "p.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        try:
            pipeline.PipelinePlan(path)
        except config.ConfigError as exc:
            assert str(exc).startswith(path) and "\n" not in str(exc)
        assert os.listdir(work) == ["p.cfg"]


# ---------------------------------------------------------------------------
# TSV and JSONL inputs

# Byte strings that are not UTF-8 wherever they are inserted.
_NOT_UTF8 = [b"\xff", b"\xc0\xaf", b"\xed\xa0\x80"]
# One JSON value of each kind.
_JSON_VALUES = [None, True, 5, 1.5, "x", [], {}]


def _json_kind(value):
    return float if type(value) in (int, float) else type(value)


def _json_paths(value, path=()):
    """The path of every value inside the decoded JSON ``value``, its own included."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


@st.composite
def mutated_json_line(draw, line: bytes):
    """``(line, dropped)``: ``line`` with one value replaced by a value of
    another JSON kind or by null, or with one object key or list item
    dropped; only a dropped key or item may leave the line valid."""
    value = json.loads(line)
    path = draw(st.sampled_from(list(_json_paths(value))))
    kind = draw(st.sampled_from(["retype", "drop"] if path else ["retype"]))
    if not path:
        return json.dumps(draw(st.sampled_from(
            [v for v in _JSON_VALUES if _json_kind(v) is not dict]))).encode(), False
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in _JSON_VALUES if v is None or _json_kind(v) is not _json_kind(old)]))
    return json.dumps(value).encode(), kind == "drop"


@st.composite
def mutated_tsv_line(draw, line: bytes):
    """``(line, False)``: ``line`` with a tab added at any place or one of
    its tabs removed."""
    if draw(st.booleans()):
        at = draw(st.integers(0, len(line)))
        return line[:at] + b"\t" + line[at:], False
    tabs = [i for i, byte in enumerate(line) if byte == ord("\t")]
    at = draw(st.sampled_from(tabs))
    return line[:at] + line[at + 1:], False


@st.composite
def not_utf8(draw, line: bytes):
    at = draw(st.integers(0, len(line)))
    return line[:at] + draw(st.sampled_from(_NOT_UTF8)) + line[at:], False


@pytest.fixture(scope="module")
def reader_inputs(small_world, small_kg):
    """file name -> (its lines, loader, the loader's documented error)."""
    def lines(name, limit=None):
        with open(os.path.join(small_world, name), "rb") as fh:
            return fh.read().splitlines()[:limit]

    corpus = [onto.corpus_line(p).encode() for p in onto.build_corpus(small_kg, 2, 0)[:30]]
    texts = [line.split(b"\t")[0] for line in lines("sts_train.tsv")]
    return {
        "ontology.jsonl": (lines("ontology.jsonl"), onto.load_ontology, config.ParseError),
        "glossary.jsonl": (lines("glossary.jsonl"), lambda path: onto.merge_glossary(
            small_kg, path), config.ParseError),
        "corpus.jsonl": (corpus, onto.load_corpus, config.ParseError),
        "templates.tsv": (lines("templates.tsv"), onto.load_templates, config.ParseError),
        "parallel.tsv": (lines("parallel.tsv", 30), onto.load_parallel_pairs,
                         config.ParseError),
        "sts_train.tsv": (lines("sts_train.tsv"), ev.load_sts_dataset, ev.DatasetError),
        "bcr.tsv": (lines("bcr.tsv"), ev.load_bcr_dataset, ev.DatasetError),
        "nel.tsv": (lines("nel.tsv"), ev.load_nel_dataset, ev.DatasetError),
        "nli.tsv": (lines("nli.tsv"), ev.load_nli_dataset, ev.DatasetError),
        "demo.cfg": (lines("demo.cfg"), config.parse_kv_file, config.ConfigError),
        "texts.txt": (texts, cli._read_texts, config.ParseError),
    }


@pytest.mark.parametrize("name", ["ontology.jsonl", "glossary.jsonl", "corpus.jsonl",
                                  "templates.tsv", "parallel.tsv", "sts_train.tsv", "bcr.tsv",
                                  "nel.tsv", "nli.tsv", "demo.cfg", "texts.txt"])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_mutated_input_line_loads_or_fails_naming_the_line(reader_inputs, name, data):
    # One line of a fixture file gets a wrong JSON kind, a null, a dropped
    # key or item, a tab too many or too few, or bytes that are not UTF-8;
    # a config or a text file gets only the bytes that are not UTF-8.
    # The loader raises its documented error with one line that names the
    # file and that line; only a file with a dropped key or item may load.
    lines, load, error = reader_inputs[name]
    line_no = data.draw(st.integers(1, len(lines)), label="line_no")
    mutate = data.draw(st.sampled_from(
        [not_utf8] if name.endswith((".cfg", ".txt")) else
        [mutated_json_line if name.endswith(".jsonl") else mutated_tsv_line, not_utf8]))
    lines = list(lines)
    lines[line_no - 1], may_load = data.draw(mutate(lines[line_no - 1]), label="line")
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, name)
        with open(path, "wb") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        try:
            load(path)
        except error as exc:
            assert str(exc).startswith(f"{path}:{line_no}: ") and "\n" not in str(exc)
        else:
            assert may_load, "a malformed line was accepted"


# ---------------------------------------------------------------------------
# the command line

# The values a mutated option or config key takes. Sizes and counts come
# only from -1, 0, 1 and 2**62: a table of 2**62 rows fails to allocate at
# once, where a size in between could allocate gigabytes. Run lengths
# (epochs, distill_runs) come only from 0 to 2.
_SIZES = ["-1", "0", "1", str(2**62)]
_RUN_LENGTHS = ["0", "1", "2"]
_FLOATS = ["-1", "0", "1e-300", "1e308", "nan", "-inf"]
_DRAWN = {
    **dict.fromkeys(["--seed", "--per-concept", "--pca-dim", "seed", "vocab_buckets",
                     "embed_dim", "hidden_dim", "output_dim", "hash_seed", "init_seed",
                     "batch_size", "pca_dim", "per_concept_templated"], _SIZES),
    **dict.fromkeys(["--epochs", "epochs", "contrastive_epochs", "distill_runs"],
                    _RUN_LENGTHS),
    **dict.fromkeys(["learning_rate", "weight_decay", "warmup_fraction", "init_scale"],
                    _FLOATS),
    "--topk": _SIZES + ["", ",", "1,", "1,,5"],
}


@pytest.fixture(scope="module")
def commands(small_world, pipeline_base, tmp_path_factory):
    """name -> (argv, config mapping or None, the config keys it may set)."""
    w = small_world
    model = str(tmp_path_factory.mktemp("commands") / "m.ckpt")
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=4, hidden_dim=4, output_dim=4)
    enc.save_checkpoint(model, enc.Checkpoint(config=cfg, phase="sts_adapted",
                                              params=enc.init_params(cfg)))
    train = {"learning_rate": "0.01", "epochs": "1", "batch_size": "16",
             "vocab_buckets": "64", "embed_dim": "4", "hidden_dim": "4", "output_dim": "4"}
    kg = ["--ontology", f"{w}/ontology.jsonl", "--templates", f"{w}/templates.tsv"]
    return {
        "verbalize": (["verbalize", *kg, "--seed", "0", "--per-concept", "2"], None, ()),
        "train sts": (["train", "sts", "--data", f"{w}/sts_train.tsv", "--seed", "0",
                       "--epochs", "1"], train, cli.TRAIN_KEYS),
        "train self-distill": (["train", "self-distill", "--base", model, "--teacher", model,
                                *kg, "--pca-dim", "2", "--epochs", "1"], train,
                               cli.TRAIN_KEYS),
        "eval nel": (["eval", "nel", "--model", model, "--data", f"{w}/nel.tsv",
                      "--ontology", f"{w}/ontology.jsonl", "--topk", "1,5"], None, ()),
        "pipeline": (["pipeline"], pipeline_base, pipeline.PIPELINE_KEYS),
    }


@settings(max_examples=6, deadline=None, database=None)
@given(data=st.data())
def test_mutated_argv_and_config_exit_with_a_documented_code_and_one_line(commands, data):
    # One to three option values or config values of a command become a
    # negative, zero or huge number, a non-finite or tiny float, or a list
    # with an empty item. The real command runs in a child process with
    # every warning shown: it exits 0, 1, 2 or 64, and when it fails its
    # stderr is one line.
    argv, mapping, keys = commands[data.draw(st.sampled_from(sorted(commands)), label="command")]
    argv, mapping = list(argv), dict(mapping or {})
    options = [i + 1 for i, arg in enumerate(argv) if arg in _DRAWN]
    targets = [("argv", i) for i in options] + [("config", k) for k in _DRAWN if k in keys]
    for kind, target in data.draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3),
                                  label="targets"):
        values = _DRAWN[argv[target - 1] if kind == "argv" else target]
        value = data.draw(st.sampled_from(values), label=str(target))
        if kind == "argv":
            argv[target] = value
        else:
            mapping[target] = value
    with tempfile.TemporaryDirectory() as work:
        if keys:
            path = os.path.join(work, "c.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in mapping.items()))
            argv += ["--config", path]
        argv += ["--out-dir" if argv[0] == "pipeline" else "--out", os.path.join(work, "out")]
        proc = run_child(argv)
    assert proc.returncode in (0, 1, 2, 64), proc.stderr
    if proc.returncode:
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
    else:
        assert proc.stderr == "", proc.stderr
