import hashlib
import inspect
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ontoembed import encoder as enc
from ontoembed import evalsuite as ev
from ontoembed import fixtures
from ontoembed.cli import EMBED_CHUNK, _load_input

from oracles import (
    backward_reference, checkpoint_from_bytes, checkpoint_to_bytes, fd_gradient,
    fnv1a64, params_equal, rel_error,
)


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_lowercases(tiny_config):
    assert enc.tokenize(tiny_config, "Fever") == enc.tokenize(tiny_config, "fever")
    assert len(enc.tokenize(tiny_config, "Fever")) == 1


def test_tokenize_splits_on_non_alphanumerics(tiny_config):
    assert len(enc.tokenize(tiny_config, "peptic ulcer")) == 2
    assert len(enc.tokenize(tiny_config, "peptic--ulcer,  2nd")) == 3
    assert enc.tokenize(tiny_config, "under_score") == enc.tokenize(tiny_config, "under score")


def test_tokenize_empty(tiny_config):
    assert enc.tokenize(tiny_config, "") == []
    assert enc.tokenize(tiny_config, " .,;- ") == []


def test_tokenize_fixed_hash_values():
    # the seeded FNV-1a mapping is part of the file-format contract; these
    # values were recorded once and must never drift across platforms
    cfg = enc.EncoderConfig(vocab_buckets=32768, hash_seed=0)
    assert enc.tokenize(cfg, "fever") == [20177]
    cfg17 = enc.EncoderConfig(vocab_buckets=32768, hash_seed=17)
    assert enc.tokenize(cfg17, "fever") == [31006]


def test_tokenize_batch_depends_only_on_its_arguments():
    # embed tokenizes its input in chunks: any split of a list, tokenized in
    # any order and between other configs' calls, must give the whole list's ids
    cfg = enc.EncoderConfig(vocab_buckets=97, hash_seed=5)
    other = enc.EncoderConfig(vocab_buckets=13, hash_seed=6)
    texts = ["Fever and cough", "", "fever", "Fever and cough", "chills, FEVER!",
             "", "發燒 fever", "cough cough", "", "fever"]
    whole = enc.tokenize_batch(cfg, texts)
    rng = np.random.default_rng(0)
    for _ in range(30):
        cuts = np.sort(rng.choice(np.arange(1, len(texts)), rng.integers(0, len(texts)),
                                  replace=False))
        parts = np.split(np.arange(len(texts)), cuts)
        done = {}
        for i in rng.permutation(len(parts)):
            enc.tokenize_batch(other, [texts[j] for j in parts[-1 - i]])
            done[i] = enc.tokenize_batch(cfg, [texts[j] for j in parts[i]])
        pieces = [done[i] for i in range(len(parts))]
        assert np.array_equal(np.concatenate([p.ids for p in pieces]), whole.ids)
        assert np.array_equal(np.concatenate([p.lengths for p in pieces]), whole.lengths)
    assert [enc.tokenize(cfg, t) for t in texts] == [
        whole.ids[a:b].tolist() for a, b in zip(whole.offsets, whole.offsets[1:])]
    # and nothing is kept between calls: 5,000 new tokens leave no trace
    tracemalloc.start()
    try:
        enc.tokenize_batch(cfg, [f"fresh{i}" for i in range(5000)])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 << 10


# A long token of the two tests below: with its 2,000 short neighbours, a
# (tokens x longest token) byte matrix would need over 84 MB, ten times the
# 8 MB bound, while tracemalloc's cost of the Python-int finish of so few
# bytes stays small
_LONG = 42_000


def test_tokenize_batch_memory_is_linear_in_the_bytes():
    cfg = enc.EncoderConfig(vocab_buckets=4096, hash_seed=3)
    texts = [f"t{i}" for i in range(1000)] + ["x" * _LONG] + [f"u{i}" for i in range(1000)]
    tracemalloc.start()
    try:
        tokens = enc.tokenize_batch(cfg, texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert tokens.ids[1000] == fnv1a64(b"x" * _LONG, 3) % 4096
    assert tokens.ids[:2].tolist() == [fnv1a64(b"t0", 3) % 4096, fnv1a64(b"t1", 3) % 4096]


def test_tokenize_batch_long_tokens_are_linear_in_the_bytes():
    # every occurrence is hashed, equal ones too, and the few longest tokens
    # are finished one by one: neither pair may run a numpy step per byte
    cfg = enc.EncoderConfig(vocab_buckets=4096, hash_seed=3)
    long = ["x" * _LONG, "x" * _LONG, "y" * _LONG, "y" * (_LONG - 1) + "z"]
    texts = [f"t{i}" for i in range(1000)] + long + [f"u{i}" for i in range(1000)]
    tracemalloc.start()
    try:
        tokens = enc.tokenize_batch(cfg, texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert tokens.ids.tolist() == [fnv1a64(text.encode(), 3) % 4096 for text in texts]


def test_world_texts_tokenize_as_one_batch_to_the_per_text_oracle():
    world = fixtures.generate_world(fixtures.WorldSpec())
    texts = [t for c in world.concepts
             for t in (*c.names, c.definition, c.glossary_def, c.heldout_mention) if t]
    for rows in (world.templates, world.sts_train, world.sts_val, world.sts_test, world.bcr,
                 world.nli, world.nel, world.nel_xlingual, world.parallel):
        texts += [t for row in rows for t in row if isinstance(t, str)]
    cfg = enc.EncoderConfig(vocab_buckets=32768, hash_seed=17)
    expected = [[fnv1a64(tok.encode(), 17) % 32768 for tok in enc._TOKEN_RE.findall(t.lower())]
                for t in texts]
    tokens = enc.tokenize_batch(cfg, texts)
    assert tokens.offsets.tolist() == np.cumsum([0] + [len(ids) for ids in expected]).tolist()
    assert tokens.ids.tolist() == [i for ids in expected for i in ids]


def test_tokenize_hash_seed_changes_buckets(tiny_config):
    other = enc.EncoderConfig(**{**tiny_config.to_dict(), "hash_seed": 99})
    texts = ["alpha beta gamma delta epsilon zeta"]
    assert enc.tokenize(tiny_config, texts[0]) != enc.tokenize(other, texts[0])


# ---------------------------------------------------------------------------
# init_params


def test_init_is_deterministic(tiny_config):
    assert params_equal(enc.init_params(tiny_config), enc.init_params(tiny_config))


def test_init_seed_changes_token_table(tiny_config):
    other = enc.EncoderConfig(**{**tiny_config.to_dict(), "init_seed": 10})
    assert not np.array_equal(enc.init_params(tiny_config).token_table,
                              enc.init_params(other).token_table)


def test_init_scale_zero_gives_zero_weights():
    cfg = enc.EncoderConfig(vocab_buckets=8, embed_dim=3, hidden_dim=4,
                            output_dim=3, init_scale=0.0)
    params = enc.init_params(cfg)
    assert all(np.all(arr == 0.0) for _, arr in params.tensor_items())


@pytest.mark.parametrize("scale", [0.05, 0.0, 3.0])
def test_init_draws_the_bits_of_two_uniform_draws(tiny_config, scale):
    # the weights are drawn in place, and must be the bits numpy's
    # uniform(-s, s) gives over the same seeded stream
    cfg = enc.EncoderConfig(**{**tiny_config.to_dict(), "init_scale": scale})
    v, e, h, o = cfg.vocab_buckets, cfg.embed_dim, cfg.hidden_dim, cfg.output_dim
    rng = np.random.default_rng(cfg.init_seed)
    expected = np.concatenate([rng.uniform(-scale, scale, size=v * e + e * h), np.zeros(h),
                               rng.uniform(-scale, scale, size=h * o), np.zeros(o)])
    assert enc.init_params(cfg).flat.tobytes() == expected.tobytes()


def test_init_biases_zero_and_weights_bounded(tiny_config):
    params = enc.init_params(tiny_config)
    assert np.all(params.b1 == 0.0) and np.all(params.b2 == 0.0)
    s = tiny_config.init_scale
    for name in ("token_table", "w1", "w2"):
        arr = getattr(params, name)
        assert np.all(np.abs(arr) <= s)


# ---------------------------------------------------------------------------
# encode_batch


def test_encode_output_is_unit_norm(tiny_config):
    params = enc.init_params(tiny_config)
    for text in ("fever", "peptic ulcer disease", "a b c d e f g"):
        norm = np.linalg.norm(enc.encode_batch(params, tiny_config, [text])[0])
        assert abs(norm - 1.0) < 1e-12


def test_encode_empty_text_is_zero_vector(tiny_config):
    params = enc.init_params(tiny_config)  # biases are zero
    out = enc.encode_batch(params, tiny_config, [""])[0]
    assert np.all(out == 0.0)


@pytest.mark.parametrize("bias", [0.0, 1e150], ids=["init", "huge-finite-norm"])
def test_finite_output_norms_keep_their_bits(tiny_config, bias):
    # z / max(||z||, guard), with no warning, wherever ||z|| is finite
    params = enc.init_params(tiny_config)
    params.b2[0] = bias
    tokens = enc.tokenize_batch(tiny_config, ["fever", "", "peptic ulcer disease"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = enc.forward_tokens(params, tokens)
    z = enc._matmul_rows(f.h, params.w2) + params.b2
    expected = z / np.maximum(np.linalg.norm(z, axis=1), enc.NORM_GUARD)[:, None]
    assert f.out.tobytes() == expected.tobytes()


def test_encode_overflowing_output_norm_names_the_row(tiny_config):
    # hidden unit 0 is tanh(pooled[0]): 0 for "fever", tanh(1) for "ulcer",
    # whose output then holds 7.6e199, finite, but its square overflows; that
    # used to give an all-zero row and a RuntimeWarning
    params = enc.init_params(tiny_config)
    [fever], [ulcer] = enc.tokenize(tiny_config, "fever"), enc.tokenize(tiny_config, "ulcer")
    assert fever != ulcer
    params.token_table[fever, 0], params.token_table[ulcer, 0] = 0.0, 1.0
    params.w1[:, 0] = 0.0
    params.w1[0, 0] = 1.0
    params.b1[0] = 0.0
    params.w2[0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(enc.encode_batch(params, tiny_config, ["fever"])).all()
        with pytest.raises(ValueError, match="^output norm of batch row 1 is not finite$"):
            enc.encode_batch(params, tiny_config, ["fever", "ulcer"])


def test_encode_duplicate_tokens_equal_single(tiny_config):
    params = enc.init_params(tiny_config)
    assert np.array_equal(enc.encode_batch(params, tiny_config, ["flu flu"])[0],
                          enc.encode_batch(params, tiny_config, ["flu"])[0])


def test_encode_permutation_invariant(tiny_config):
    params = enc.init_params(tiny_config)
    a = enc.encode_batch(params, tiny_config, ["alpha beta gamma"])[0]
    b = enc.encode_batch(params, tiny_config, ["gamma alpha beta"])[0]
    assert np.allclose(a, b, atol=1e-15)


def test_encode_batch_matches_single():
    # each row depends on its own text alone, bit for bit: the whole list,
    # one text at a time and any other split (the embed chunk boundary
    # included) give equal rows; empty texts are mixed in
    cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                            output_dim=20, hash_seed=5, init_seed=2)
    params = enc.init_params(cfg)
    rng = np.random.default_rng(3)
    params.flat[:] += rng.normal(0, 0.01, params.flat.size)  # non-zero biases
    words = ["fever", "peptic", "ulcer", "chronic", "lungs", "alpha", "beta"]
    texts = [" ".join(rng.choice(words, size=rng.integers(0, 6)))
             for _ in range(EMBED_CHUNK + 5)]
    texts[3] = texts[EMBED_CHUNK] = ""
    whole = enc.encode_batch(params, cfg, texts)
    for size in (1, 2, 7, EMBED_CHUNK):
        parts = [enc.encode_batch(params, cfg, texts[i:i + size])
                 for i in range(0, len(texts), size)]
        assert np.array_equal(np.vstack(parts), whole), f"split into {size}s"
    assert np.array_equal(enc.encode_batch(params, cfg, texts[EMBED_CHUNK - 1:]),
                          whole[EMBED_CHUNK - 1:])


def test_batch_pooling_equals_per_text_mean_bit_exact():
    cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                            output_dim=20, hash_seed=5, init_seed=2)
    params = enc.init_params(cfg)
    words = ["fever", "peptic", "ulcer", "chronic", "lungs", "alpha", "beta", "gamma"]
    texts = [" ".join(words[i % 3:i % 3 + n]) for i, n in enumerate((3, 0, 8, 5, 1, 7))]
    pooled = enc.forward_tokens(params, enc.tokenize_batch(cfg, texts)).pooled
    for text, row in zip(texts, pooled):
        ids = enc.tokenize(cfg, text)
        assert np.array_equal(row, params.token_table[ids].mean(axis=0) if ids else 0.0 * row)


def test_tokens_take_equals_tokenizing_the_texts_it_names(tiny_config):
    # repeated and empty texts and an empty selection; a forward over the
    # taken tokens equals encoding the texts they name, bit for bit
    texts = ["fever", "", "peptic ulcer of the lungs", "Fever fever", ""]
    tokens = enc.tokenize_batch(tiny_config, texts)
    assert tokens.offsets.tolist() == [0, 1, 1, 6, 8, 8]
    params = enc.init_params(tiny_config)
    for index in ([], [2], [4, 0, 2, 2, 1], [3, 1]):
        chosen = [texts[i] for i in index]
        taken = tokens.take(index)
        assert [taken.ids[a:b].tolist() for a, b in zip(taken.offsets, taken.offsets[1:])] == [
            enc.tokenize(tiny_config, text) for text in chosen]
        if index:
            assert (enc.forward_tokens(params, taken).out.tobytes()
                    == enc.encode_batch(params, tiny_config, chosen).tobytes())


def test_batch_entry_points_keep_their_leading_parameters():
    # perfbench/tracer.py reads config and texts as positional arguments 1
    # and 2 of both functions to count the texts encoded
    assert list(inspect.signature(enc.encode_batch).parameters) == ["params", "config", "texts"]
    assert list(inspect.signature(enc.backward_batch).parameters)[:4] == [
        "params", "config", "texts", "output_grads"]


# ---------------------------------------------------------------------------
# backward_batch


def _backward(params, config, texts, output_grads, out=None):
    return enc.backward_batch(params, config, texts, output_grads,
                              enc.forward_tokens(params, enc.tokenize_batch(config, texts)), out)


def test_backward_zero_grad_gives_zero(tiny_config):
    params = enc.init_params(tiny_config)
    grads = _backward(params, tiny_config, ["fever"], np.zeros(6)[None])
    assert all(np.all(arr == 0.0) for _, arr in grads.tensor_items())


def test_backward_absent_token_rows_are_zero(tiny_config):
    params = enc.init_params(tiny_config)
    rng = np.random.default_rng(0)
    grads = _backward(params, tiny_config, ["fever"], rng.normal(size=6)[None])
    assert grads.shapes == params.shapes
    present = set(enc.tokenize(tiny_config, "fever"))
    for row in range(tiny_config.vocab_buckets):
        if row not in present:
            assert np.all(grads.token_table[row] == 0.0)


def test_backward_matches_finite_differences(tiny_config):
    rng = np.random.default_rng(1)
    texts = ["fever", "peptic ulcer", "a chronic condition of the lungs",
             "alpha beta alpha", "x"]
    for trial in range(20):
        cfg = enc.EncoderConfig(**{**tiny_config.to_dict(), "init_seed": trial})
        params = enc.init_params(cfg)
        params.b1 = rng.normal(0, 0.05, params.b1.shape)
        params.b2 = rng.normal(0, 0.05, params.b2.shape)
        text = texts[trial % len(texts)]
        out_grad = rng.normal(size=cfg.output_dim)
        analytic = _backward(params, cfg, [text], out_grad[None])

        def f(flat_vec):
            p = enc.unflatten(cfg, flat_vec)
            return float(enc.encode_batch(p, cfg, [text])[0] @ out_grad)

        numeric = enc.unflatten(cfg, fd_gradient(f, enc.flatten(params)))
        # agreement must hold tensor by tensor, not just in aggregate
        for (name, got), (_, want) in zip(analytic.tensor_items(),
                                          numeric.tensor_items()):
            assert rel_error(got, want) < 1e-4, f"{name} gradient off (trial {trial})"


@pytest.mark.parametrize("texts", [
    ["alpha beta alpha", "beta gamma", "alpha", "gamma gamma gamma beta"],
    ["", "fever fever", "", "ulcer fever", ""],
    ["", " .,; "],
    [],
], ids=["duplicates-within-and-across", "with-empty-texts", "only-empty-texts", "no-texts"])
def test_backward_token_rows_equal_dense_add_at_bit_exact(texts):
    cfg = enc.EncoderConfig(vocab_buckets=16, embed_dim=5, hidden_dim=7, output_dim=6,
                            hash_seed=3, init_seed=4)
    params = enc.init_params(cfg)
    rng = np.random.default_rng(5)
    params.flat[:] += rng.normal(0, 0.05, params.flat.size)
    output_grads = rng.normal(size=(len(texts), cfg.output_dim))
    grad = _backward(params, cfg, texts, output_grads)
    want = backward_reference(params, cfg, texts, output_grads)
    assert grad.shapes == params.shapes
    for name, got in grad.tensor_items():
        assert got.tobytes() == want[name].tobytes(), name
    # written into a buffer whose token rows are +0.0: every dense tensor is
    # overwritten whole
    out = enc.Params(np.full_like(params.flat, np.nan), params.shapes)
    out.token_table = np.zeros_like(params.token_table)
    assert _backward(params, cfg, texts, output_grads, out) is out
    assert out.flat.tobytes() == grad.flat.tobytes()


def test_backward_into_a_buffer_overwrites_every_token_row_and_keeps_the_head():
    # the buffer may hold anything: every encoder tensor, each token row
    # the batch does not hold included, comes out as a fresh backward's,
    # and the head's slots are the caller's
    cfg = enc.EncoderConfig(vocab_buckets=16, embed_dim=5, hidden_dim=7, output_dim=6,
                            hash_seed=3, init_seed=4)
    params = enc.attach_head(enc.init_params(cfg), cfg, target_dim=3, seed=5)
    texts = ["alpha beta alpha", "", "gamma"]
    output_grads = np.random.default_rng(6).normal(size=(len(texts), cfg.output_dim))
    fresh = _backward(params, cfg, texts, output_grads)
    out = enc.Params(np.random.default_rng(7).normal(size=params.flat.size), params.shapes)
    encoder_size = fresh.without_head().flat.size
    head = out.flat[encoder_size:].copy()
    assert _backward(params, cfg, texts, output_grads, out) is out
    assert out.flat[:encoder_size].tobytes() == fresh.flat[:encoder_size].tobytes()
    assert out.flat[encoder_size:].tobytes() == head.tobytes()
    # the batch leaves some token rows untouched
    assert np.count_nonzero(np.any(fresh.token_table, axis=1)) < len(fresh.token_table)


def test_backward_takes_the_forward_it_is_given(tiny_config):
    params = enc.init_params(tiny_config)
    forward = enc.forward_tokens(params, enc.tokenize_batch(tiny_config, ["fever", "ulcer"]))
    with pytest.raises(ValueError):
        enc.backward_batch(params, tiny_config, ["fever"], np.zeros((1, 6)), forward)


# ---------------------------------------------------------------------------
# flatten / unflatten


def test_flatten_roundtrip_bit_exact(tiny_config):
    rng = np.random.default_rng(2)
    vec = rng.normal(size=tiny_config.param_count())
    assert np.array_equal(enc.flatten(enc.unflatten(tiny_config, vec)), vec)
    params = enc.init_params(tiny_config)
    assert params_equal(enc.unflatten(tiny_config, enc.flatten(params)), params)


@pytest.mark.parametrize("rows", [[3, 0, 3], [-1], []], ids=["repeated", "negative", "empty"])
def test_take_rows_gathers_the_rows_it_names(tiny_config, rows):
    # the rows in the order given, and every other tensor as it was; an
    # empty index gives a table of no rows of the table's width
    params = enc.attach_head(enc.init_params(tiny_config), tiny_config, 3, seed=1)
    taken = params.take_rows(np.array(rows, dtype=np.intp))
    assert taken.token_table.shape == (len(rows), tiny_config.embed_dim)
    assert np.array_equal(taken.token_table, params.token_table[rows])
    assert taken.shapes[1:] == params.shapes[1:]
    assert np.array_equal(taken.flat[taken.token_table.size:],
                          params.flat[params.token_table.size:])


def test_default_parameter_count():
    assert enc.EncoderConfig().param_count() == 2_121_984


def test_head_changes_flatten_length(tiny_config):
    params = enc.init_params(tiny_config)
    target_dim = 4
    with_head = enc.attach_head(params, tiny_config, target_dim, seed=0)
    delta = enc.flatten(with_head).size - enc.flatten(params).size
    assert delta == tiny_config.output_dim * target_dim + target_dim


def test_unflatten_rejects_wrong_length(tiny_config):
    with pytest.raises(ValueError):
        enc.unflatten(tiny_config, np.zeros(tiny_config.param_count() + 1))


def test_unflatten_infers_head(tiny_config):
    params = enc.attach_head(enc.init_params(tiny_config), tiny_config, 3, seed=1)
    back = enc.unflatten(tiny_config, enc.flatten(params))
    assert back.head_dim == 3
    assert params_equal(back, params)


# ---------------------------------------------------------------------------
# checkpoints


def _ckpt(tiny_config, phase="base"):
    return enc.Checkpoint(config=tiny_config, phase=phase,
                          params=enc.init_params(tiny_config))


def test_checkpoint_roundtrip_bit_exact(tiny_config, tmp_path):
    ckpt = _ckpt(tiny_config)
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(path, ckpt)
    loaded = enc.load_checkpoint(path)
    assert params_equal(loaded.params, ckpt.params)
    assert loaded.config == ckpt.config
    assert loaded.phase == ckpt.phase
    assert loaded.history == ckpt.history


def test_checkpoint_roundtrip_with_head(tiny_config, tmp_path):
    params = enc.attach_head(enc.init_params(tiny_config), tiny_config, 4, seed=5)
    ckpt = enc.Checkpoint(config=tiny_config, phase="self_distilled", params=params,
                          history=("base", "sts_adapted", "self_distilled"))
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(path, ckpt)
    loaded = enc.load_checkpoint(path)
    assert params_equal(loaded.params, ckpt.params)
    assert loaded.history == ckpt.history


def test_checkpoint_truncation_detected(tiny_config, tmp_path):
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(path, _ckpt(tiny_config))
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(enc.CheckpointTruncatedError):
        enc.load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_old_file(tiny_config, tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(path, _ckpt(tiny_config))
    old = path.read_bytes()
    # the header is written, then the parameter block fails
    monkeypatch.setattr(enc, "checkpoint_pieces", lambda ckpt: (b"header\n", None))
    with pytest.raises(TypeError):
        enc.save_checkpoint(path, _ckpt(tiny_config, "sts_adapted"))
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


@pytest.mark.parametrize("history, loads_as", [
    (["base", "sts_adapted"], ("base", "sts_adapted")),
    ([], ("sts_adapted",)),
    (None, ("sts_adapted",)),
    (["base", "contrastive"], None),
], ids=["ends-with-phase", "empty", "missing", "ends-with-another-phase"])
def test_checkpoint_history_must_end_with_its_phase(tiny_config, tmp_path, history, loads_as):
    data = checkpoint_to_bytes(_ckpt(tiny_config, "sts_adapted"))
    start, nl = len(enc.CHECKPOINT_MAGIC), data.index(b"\n")
    header = {k: v for k, v in json.loads(data[start:nl]).items() if k != "history"}
    if history is not None:
        header["history"] = history
    path = tmp_path / "m.ckpt"
    path.write_bytes(enc.CHECKPOINT_MAGIC + json.dumps(header).encode() + data[nl:])
    if loads_as is None:
        with pytest.raises(enc.CheckpointFormatError,
                           match=rf"^{re.escape(str(path))}: .*history must end with the phase"):
            enc.load_checkpoint(path)
    else:
        assert enc.load_checkpoint(path).history == loads_as


def test_checkpoint_version_mismatch(tiny_config, tmp_path):
    ckpt = _ckpt(tiny_config)
    raw = checkpoint_to_bytes(ckpt)
    tampered = raw.replace(b'"version":1', b'"version":999', 1)
    path = tmp_path / "m.ckpt"
    path.write_bytes(tampered)
    with pytest.raises(enc.CheckpointVersionError):
        enc.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"{}\n")
    with pytest.raises(enc.CheckpointFormatError):
        enc.load_checkpoint(path)


def test_checkpoint_bytes_are_deterministic(tiny_config):
    assert checkpoint_to_bytes(_ckpt(tiny_config)) == checkpoint_to_bytes(_ckpt(tiny_config))


@pytest.mark.parametrize("head", [None, 4], ids=["no-head", "head"])
def test_every_checkpoint_writer_gives_the_same_bytes(tiny_config, tmp_path, head):
    params = enc.init_params(tiny_config)
    if head is not None:
        params = enc.attach_head(params, tiny_config, head, seed=5)
    ckpt = enc.Checkpoint(config=tiny_config, phase="base", params=params)
    enc.save_checkpoint(tmp_path / "save.ckpt", ckpt)
    data = (tmp_path / "save.ckpt").read_bytes()
    assert checkpoint_to_bytes(ckpt) == data
    assert ev.model_digest(ckpt) == hashlib.sha256(data).hexdigest()
    header, block = enc.checkpoint_pieces(ckpt)
    assert np.shares_memory(np.asarray(block), params.flat)
    assert header + bytes(block) == data


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameters_are_refused_on_write_and_read(tiny_config, value):
    # under the commands' numeric policy too, where a stray invalid raises
    ckpt = _ckpt(tiny_config)
    data = checkpoint_to_bytes(ckpt)
    ckpt.params.flat[-1] = value
    bad = data[:-8] + np.array([value], dtype="<f8").tobytes()
    with np.errstate(all="raise"):
        with pytest.raises(enc.CheckpointFormatError, match="^refusing to serialize non-finite"):
            checkpoint_to_bytes(ckpt)
        with pytest.raises(enc.CheckpointFormatError, match="^checkpoint holds non-finite"):
            checkpoint_from_bytes(bad)


def test_a_short_read_of_the_parameter_block_is_truncation(tiny_config):
    # the block's length is checked before it is read; a file that shrinks
    # in between must not leave unread values in the parameters
    class Shrinking(io.BytesIO):
        def readinto(self, buffer):
            return super().readinto(memoryview(buffer).cast("B")[:-1])

    with pytest.raises(enc.CheckpointTruncatedError, match="shrank while read"):
        enc.read_checkpoint(Shrinking(checkpoint_to_bytes(_ckpt(tiny_config))))


def _peak_per_param_byte(call, config):
    """The peak traced allocation of ``call()``, over the byte size of the
    parameters of ``config``."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * config.param_count())


def test_checkpoint_io_and_init_make_no_full_size_copies(tmp_path):
    # at the student size the token table is 12 MB: init and load hold one
    # parameter vector, and so does a load that hashes the file it loads;
    # save and digest make no copy of it at all
    config = enc.EncoderConfig(vocab_buckets=32768, embed_dim=48)
    path = tmp_path / "m.ckpt"
    params = enc.init_params(config)
    ckpt = enc.Checkpoint(config=config, phase="base", params=params)
    peaks = {
        "init_params": _peak_per_param_byte(lambda: enc.init_params(config), config),
        "save_checkpoint": _peak_per_param_byte(lambda: enc.save_checkpoint(path, ckpt), config),
        "load_checkpoint": _peak_per_param_byte(lambda: enc.load_checkpoint(path), config),
        "hashed load": _peak_per_param_byte(lambda: _load_input(str(path), {}), config),
        "model_digest": _peak_per_param_byte(lambda: ev.model_digest(ckpt), config),
    }
    bounds = {"init_params": 1.1, "save_checkpoint": 0.25, "load_checkpoint": 1.1,
              "hashed load": 1.1, "model_digest": 0.25}
    assert {k: v for k, v in peaks.items() if v > bounds[k]} == {}


def test_checkpoint_refuses_nonfinite_params(tiny_config):
    ckpt = _ckpt(tiny_config)
    ckpt.params.w1[0, 0] = np.nan
    with pytest.raises(enc.CheckpointFormatError):
        checkpoint_to_bytes(ckpt)
