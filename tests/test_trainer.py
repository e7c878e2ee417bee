import dataclasses
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from ontoembed import config
from ontoembed import encoder as enc
from ontoembed import evalsuite as ev
from ontoembed import ontology as onto
from ontoembed import soup
from ontoembed import trainer

from conftest import write_jsonl
from oracles import adamw_reference, checkpoint_to_bytes, dense_fit, params_equal


# ---------------------------------------------------------------------------
# warmup_linear


def test_warmup_reaches_base_lr_at_ramp_end():
    total, wf = 200, 0.1
    w = max(1, round(wf * total))
    assert trainer.warmup_linear(w - 1, total, 3.0, wf) == 3.0


def test_warmup_final_decay_value():
    total, wf = 200, 0.1
    w = max(1, round(wf * total))
    assert trainer.warmup_linear(total - 1, total, 3.0, wf) == pytest.approx(3.0 / (total - w))


def test_warmup_midpoint_value():
    lr = trainer.warmup_linear(500, 1000, 1.0, 0.05)
    assert lr == pytest.approx(500 / 950)


def test_warmup_continuous_at_boundary_and_nonnegative():
    total, wf, base = 400, 0.07, 1.0
    w = max(1, round(wf * total))
    before = trainer.warmup_linear(w - 1, total, base, wf)
    after = trainer.warmup_linear(w, total, base, wf)
    assert abs(before - after) <= base / (total - w) + 1e-12
    for step in range(total):
        assert trainer.warmup_linear(step, total, base, wf) >= 0.0


def test_warmup_zero_fraction_starts_at_base():
    assert trainer.warmup_linear(0, 10, 2.0, 0.0) == 2.0


def test_warmup_rejects_bad_steps():
    with pytest.raises(ValueError):
        trainer.warmup_linear(10, 10, 1.0, 0.1)
    with pytest.raises(ValueError):
        trainer.warmup_linear(-1, 10, 1.0, 0.1)


# ---------------------------------------------------------------------------
# adamw_step


def _scalarish_params():
    # token_table, w1, b1, w2, b2: one entry each
    config = enc.EncoderConfig(vocab_buckets=1, embed_dim=1, hidden_dim=1, output_dim=1)
    return enc.unflatten(config, np.array([1.0, 1.0, 0.5, 1.0, 0.5]))


def _zero_gradient(params):
    grads = params.copy()
    grads.flat[:] = 0.0
    return grads


def test_adamw_zero_grads_zero_decay_is_identity(tiny_config):
    params = enc.init_params(tiny_config)
    before = params.copy()
    state = trainer.init_adamw(params)
    new_params, new_state = trainer.adamw_step(
        params, _zero_gradient(params), state, lr=0.1, weight_decay=0.0)
    assert params_equal(new_params, before)
    assert new_state.step == 1


def test_adamw_first_step_is_sign_step():
    params = _scalarish_params()
    grads = _zero_gradient(params)
    for _, g in grads.tensor_items():
        g.fill(0.37)
    before = params.copy()
    state = trainer.init_adamw(params)
    lr = 0.01
    new_params, _ = trainer.adamw_step(params, grads, state, lr=lr, weight_decay=0.0)
    expected_update = lr * 0.37 / (0.37 + trainer.EPSILON)
    for (_, old), (_, new) in zip(before.tensor_items(), new_params.tensor_items()):
        assert np.allclose(old - new, expected_update, atol=1e-12)


def test_adamw_decoupled_decay_only():
    params = _scalarish_params()
    state = trainer.init_adamw(params)
    new_params, _ = trainer.adamw_step(
        params, _zero_gradient(params), state, lr=0.1, weight_decay=0.01)
    assert new_params is params  # updated in place
    assert new_params.token_table[0, 0] == pytest.approx(0.999, abs=1e-15)
    assert new_params.w1[0, 0] == pytest.approx(0.999, abs=1e-15)
    # bias vectors are exempt from decay
    assert new_params.b1[0] == 0.5
    assert new_params.b2[0] == 0.5


def test_adamw_rejects_nonfinite_grads(tiny_config):
    params = enc.init_params(tiny_config)
    grads = _zero_gradient(params)
    grads.w1[0, 0] = np.inf
    with pytest.raises(ValueError):
        trainer.adamw_step(params, grads, trainer.init_adamw(params), lr=0.1)


def _state_bytes(params, state):
    return params.flat.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step


def test_adamw_nonfinite_error_names_tensor_and_bucket_row(tiny_config):
    params = enc.init_params(tiny_config)
    # one step first, so the refused step has nonzero moments to keep
    state, first = trainer.init_adamw(params), _zero_gradient(params)
    first.flat[:] = 0.5
    trainer.adamw_step(params, first, state, lr=0.1, weight_decay=0.01)
    grads = _zero_gradient(params)
    grads.token_table[40, 0] = np.inf
    grads.token_table[17, 2] = np.nan
    before = _state_bytes(params, state)
    with pytest.raises(ValueError, match=r"non-finite gradient for token_table row 17$"):
        trainer.adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
    assert _state_bytes(params, state) == before
    grads = _zero_gradient(params)
    grads.b2[0] = -np.inf
    with pytest.raises(ValueError, match=r"non-finite gradient for b2$"):
        trainer.adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
    assert _state_bytes(params, state) == before


def test_adamw_nonfinite_entry_in_the_last_block_changes_nothing():
    # the vector spans several blocks and only its last one holds the NaN:
    # the check runs before the first block is written
    params, grads = _demo_sized_params_and_grads(np.random.default_rng(14))
    state = trainer.init_adamw(params)
    assert params.flat.size > len(state.scratch)
    trainer.adamw_step(params, grads, state, 1e-3, weight_decay=0.01)
    grads.head_b[-1] = np.nan
    before = _state_bytes(params, state)
    with pytest.raises(ValueError, match=r"non-finite gradient for head_b$"):
        trainer.adamw_step(params, grads, state, 1e-3, weight_decay=0.01)
    assert _state_bytes(params, state) == before


@pytest.mark.parametrize("rows", [[5, 5], [7, 3], [-1], [64]],
                         ids=["repeated", "descending", "negative", "past-the-table"])
def test_adamw_rejects_bad_gradient_rows(tiny_config, rows):
    # a gradient carries no row list: its token table must be the params'
    # table row for row, so one gathered at any other rows (taken from a
    # table one row longer, so that row 64 exists) is refused untouched
    params = enc.init_params(tiny_config)
    longer = enc.init_params(dataclasses.replace(tiny_config, vocab_buckets=65))
    grads = _zero_gradient(longer.take_rows(np.array(rows)))
    before = params.flat.copy()
    with pytest.raises(ValueError, match="structure"):
        trainer.adamw_step(params, grads, trainer.init_adamw(params), lr=0.1)
    assert np.array_equal(params.flat, before)


def test_adamw_rejects_gradient_of_another_shape(tiny_config):
    # a head the params lack, and no head where they have one
    params = enc.init_params(tiny_config)
    with_head = enc.attach_head(params, tiny_config, 3, seed=1)
    for p, grads in ((params, _zero_gradient(with_head)),
                     (with_head, _zero_gradient(params))):
        before = p.flat.copy()
        with pytest.raises(ValueError, match="structure"):
            trainer.adamw_step(p, grads, trainer.init_adamw(p), lr=0.1)
        assert np.array_equal(p.flat, before)


def _demo_sized_params_and_grads(rng):
    # the demo encoder shape (4096 buckets) with a 64-wide distillation head;
    # like a real batch, the gradient is nonzero in only a few token rows
    config = enc.EncoderConfig(vocab_buckets=4096, embed_dim=48, hidden_dim=96,
                               output_dim=96, init_seed=3)
    params = enc.attach_head(enc.init_params(config), config, 64, seed=4)
    grads = enc.unflatten(config, rng.normal(size=params.flat.size))
    keep = np.zeros(config.vocab_buckets, dtype=bool)
    keep[rng.choice(config.vocab_buckets, size=10, replace=False)] = True
    grads.token_table[~keep] = 0.0
    return params, grads


def test_adamw_matches_per_tensor_reference_bit_exact():
    rng = np.random.default_rng(12)
    params, _ = _demo_sized_params_and_grads(rng)
    state = trainer.init_adamw(params)
    tensors = [(n, a.copy()) for n, a in params.tensor_items()]
    m = [(n, np.zeros_like(a)) for n, a in tensors]
    v = [(n, np.zeros_like(a)) for n, a in tensors]
    # a fifth of the gradient entries are -0.0, and odd steps take weight
    # decay; the comparison is byte for byte, so signed zeros count
    for step in range(1, 7):
        _, grads = _demo_sized_params_and_grads(rng)
        grads.flat[rng.random(grads.flat.size) < 0.2] = -0.0
        lr, wd = 1e-3 * step, 0.01 * (step % 2)
        trainer.adamw_step(params, grads, state, lr, weight_decay=wd)
        tensors, m, v = adamw_reference(tensors, grads.tensor_items(), m, v, step, lr, wd)
        assert state.step == step
        for got, want in ((params.flat, tensors), (state.m, m), (state.v, v)):
            assert got.tobytes() == np.concatenate([a.ravel() for _, a in want]).tobytes()


@pytest.mark.parametrize("block", [1, 7, 4096, "longer"])
def test_adamw_step_is_the_same_at_every_block_size(block):
    # a state's scratch sets the step's block size; every size, down to one
    # element, or more than the vector, gives the bytes of a one-block step
    config = enc.EncoderConfig(vocab_buckets=641, embed_dim=16, hidden_dim=8,
                               output_dim=8, init_seed=5)
    base = enc.attach_head(enc.init_params(config), config, 5, seed=6)
    n = base.flat.size
    runs = []
    for size in (n, n + 3 if block == "longer" else block):
        params, rng = base.copy(), np.random.default_rng(15)
        state = trainer.init_adamw(params)
        state.scratch = np.zeros(size)
        for step in range(1, 5):
            grads = enc.Params(rng.normal(size=n), params.shapes)
            grads.flat[rng.random(n) < 0.2] = -0.0
            trainer.adamw_step(params, grads, state, 1e-2 * step, weight_decay=0.05)
        runs.append(_state_bytes(params, state))
    assert runs[0] == runs[1]


def test_adamw_step_allocates_no_full_length_temporaries():
    params, grads = _demo_sized_params_and_grads(np.random.default_rng(13))
    state = trainer.init_adamw(params)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        trainer.adamw_step(params, grads, state, 1e-3, weight_decay=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes / 4


# ---------------------------------------------------------------------------
# PCA


def test_pca_rank_one_line_in_3d():
    direction = np.array([2.0, -1.0, 0.5])
    direction /= np.linalg.norm(direction)
    ts = np.linspace(-2, 2, 9)
    x = np.array([5.0, 1.0, -3.0]) + ts[:, None] * direction
    model = trainer.pca_fit(x, 1)
    assert abs(abs(model.components[0] @ direction) - 1.0) < 1e-10
    projected = trainer.pca_project(model, x)
    reconstructed = model.mean + projected @ model.components
    assert np.max(np.abs(reconstructed - x)) < 1e-10


def test_pca_hand_two_by_two():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    model = trainer.pca_fit(x, 2)
    assert np.allclose(np.abs(model.components), np.eye(2), atol=1e-12)
    assert model.explained_variance[0] == pytest.approx(2.0 / 3.0)
    assert model.explained_variance[1] == pytest.approx(0.5 / 3.0)
    assert model.explained_variance[0] / model.explained_variance[1] == pytest.approx(4.0)


def test_pca_components_orthonormal_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=(30, 12))
        model = trainer.pca_fit(x, 6)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8
        assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_pca_sign_convention_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 5))
    a = trainer.pca_fit(x, 3)
    b = trainer.pca_fit(x.copy(), 3)
    assert np.array_equal(a.components, b.components)
    for row in a.components:
        assert row[int(np.argmax(np.abs(row)))] > 0


def test_pca_k_out_of_range():
    x = np.random.default_rng(7).normal(size=(4, 10))
    with pytest.raises(ValueError):
        trainer.pca_fit(x, 4)  # k > N-1
    with pytest.raises(ValueError):
        trainer.pca_fit(x, 0)


def test_pca_degenerate_identical_rows():
    x = np.ones((5, 3))
    with pytest.raises(ValueError):
        trainer.pca_fit(x, 1)


def test_pca_project_trivial_points():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    model = trainer.pca_fit(x, 2)
    assert np.allclose(trainer.pca_project(model, model.mean), 0.0, atol=1e-15)
    lifted = model.mean + model.components[0]
    proj = trainer.pca_project(model, lifted)
    assert proj[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(proj[1]) < 1e-12


def test_pca_residual_orthogonal_to_components():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 10))
    model = trainer.pca_fit(x, 4)
    v = rng.normal(size=10)
    reconstruction = model.mean + trainer.pca_project(model, v) @ model.components
    residual = v - reconstruction
    assert np.max(np.abs(model.components @ residual)) < 1e-10


def test_pca_project_dimension_mismatch():
    model = trainer.pca_fit(np.random.default_rng(9).normal(size=(6, 4)), 2)
    with pytest.raises(ValueError):
        trainer.pca_project(model, np.zeros(5))


def test_pca_rank_k_roundtrip():
    rng = np.random.default_rng(10)
    basis = rng.normal(size=(3, 8))
    coeffs = rng.normal(size=(25, 3))
    x = coeffs @ basis + rng.normal(size=8)
    model = trainer.pca_fit(x, 3)
    reconstructed = model.mean + trainer.pca_project(model, x) @ model.components
    assert float(np.mean(np.abs(reconstructed - x))) < 1e-8


# ---------------------------------------------------------------------------
# build_targets


@pytest.fixture
def four_concept_kg(tmp_path):
    rows = [
        {"id": "A", "names": ["alpha one", "alpha syn"],
         "definitions": [{"text": "a condition causing redness", "source": "human"}]},
        {"id": "B", "names": ["beta term"],
         "definitions": [{"text": "a disorder of the lungs", "source": "human"}]},
        {"id": "C", "names": ["gamma item"],
         "definitions": [{"text": "an acute illness with fever", "source": "human"}]},
        {"id": "D", "names": ["delta thing"],
         "definitions": [{"text": "a chronic pain in joints", "source": "human"}]},
    ]
    return onto.load_ontology(write_jsonl(tmp_path / "kg.jsonl", rows))


def _adapted(config):
    params = enc.init_params(config)
    return enc.Checkpoint(config=config, phase="sts_adapted", params=params,
                          history=("base", "sts_adapted"))


def test_build_targets_default_k_is_64():
    import inspect
    assert inspect.signature(trainer.build_targets).parameters["k"].default == 64


def test_build_targets_rejects_base_phase(four_concept_kg, tiny_config):
    base = enc.Checkpoint(config=tiny_config, phase="base",
                          params=enc.init_params(tiny_config))
    with pytest.raises(trainer.PhaseError):
        trainer.build_targets(base, four_concept_kg, k=2)


def test_build_targets_name_equals_definition(tmp_path, tiny_config):
    # concepts without definitions fall back to the canonical name, so the
    # averaged teacher embedding is exactly the name's embedding
    rows = [{"id": c, "names": [f"{c} thing"]} for c in ("a", "b", "c")]
    kg = onto.load_ontology(write_jsonl(tmp_path / "kg.jsonl", rows))
    teacher = _adapted(tiny_config)
    model, targets = trainer.build_targets(teacher, kg, k=2)
    raws = np.array([enc.encode_batch(teacher.params, tiny_config,
                                      [kg.get(c).canonical_name])[0]
                     for c in kg.concept_ids])
    expected = trainer.pca_project(model, raws)
    for i, target in enumerate(targets):
        assert np.allclose(target, expected[i], atol=1e-15)


def test_build_targets_matches_independent_pipeline(four_concept_kg):
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    teacher = _adapted(config)
    model, targets = trainer.build_targets(teacher, four_concept_kg, k=3)

    # independent route: raw averages, then PCA by eigendecomposition of the
    # covariance matrix instead of the SVD used by pca_fit
    raws = []
    for cid in four_concept_kg.concept_ids:
        concept = four_concept_kg.get(cid)
        name_emb = enc.encode_batch(teacher.params, config, [concept.canonical_name])[0]
        def_emb = enc.encode_batch(teacher.params, config, [concept.definitions[0].text])[0]
        raws.append(0.5 * (name_emb + def_emb))
    x = np.array(raws)
    mu = x.mean(axis=0)
    cov = (x - mu).T @ (x - mu) / (len(x) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:3]
    comps = eigvecs[:, order].T.copy()
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    expected = (x - mu) @ comps.T
    for i, target in enumerate(targets):
        assert np.max(np.abs(target - expected[i])) < 1e-10
    assert np.allclose(model.explained_variance, eigvals[order], atol=1e-10)


# ---------------------------------------------------------------------------
# contrastive training


@pytest.fixture(scope="module")
def small_setup(request):
    small_world = request.getfixturevalue("small_world")
    small_kg = request.getfixturevalue("small_kg")
    corpus = onto.build_corpus(small_kg, 2, 11)
    base_cfg = enc.EncoderConfig(vocab_buckets=2048, embed_dim=32, hidden_dim=64,
                                 output_dim=64, hash_seed=5, init_seed=2)
    base = enc.Checkpoint(config=base_cfg, phase="base",
                          params=enc.init_params(base_cfg))
    return small_kg, corpus, base


def test_contrastive_improves_heldout_nel(small_setup, small_datasets):
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=4e-3, epochs=30, batch_size=64, seed=0)
    trained, stats = trainer.train_contrastive(base, corpus, cfg)
    nel = small_datasets["nel"]
    base_top1 = ev.eval_nel(base, kg, nel, [1])[0].value
    trained_top1 = ev.eval_nel(trained, kg, nel, [1])[0].value
    assert trained_top1 > base_top1
    assert trained.phase == "contrastive"
    assert trained.history == ("base", "contrastive")
    assert stats.steps > 0


def test_contrastive_rejects_single_pair(small_setup):
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2, seed=0)
    with pytest.raises(trainer.TrainError):
        trainer.train_contrastive(base, corpus[:1], cfg)


def test_contrastive_rejects_tiny_batch(small_setup):
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=1, seed=0)
    with pytest.raises(trainer.TrainError):
        trainer.train_contrastive(base, corpus, cfg)


def test_contrastive_rejects_wrong_phase(small_setup):
    kg, corpus, base = small_setup
    distilled_like = enc.Checkpoint(config=base.config, phase="contrastive",
                                    params=base.params.copy(),
                                    history=("base", "contrastive"))
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8, seed=0)
    with pytest.raises(trainer.PhaseError):
        trainer.train_contrastive(distilled_like, corpus, cfg)


def test_contrastive_deterministic_per_seed(small_setup):
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=2e-3, epochs=2, batch_size=32, seed=9)
    a, _ = trainer.train_contrastive(base, corpus, cfg)
    b, _ = trainer.train_contrastive(base, corpus, cfg)
    assert checkpoint_to_bytes(a) == checkpoint_to_bytes(b)


def test_contrastive_with_hard_negatives_runs(small_setup):
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=2e-3, epochs=1, batch_size=16, seed=3)
    trained, stats = trainer.train_contrastive(base, corpus[:64], cfg)
    assert stats.steps == len(trainer._dedup_batches(
        corpus[:64], np.random.default_rng(3).permutation(64), 16))


def test_dedup_batches_never_repeat_concept(small_setup):
    kg, corpus, _ = small_setup
    order = np.random.default_rng(0).permutation(len(corpus))
    plan = trainer._dedup_batches(corpus, order, 32)
    seen_total = []
    for batch in plan:
        concepts = [corpus[i].concept_id for i in batch]
        assert len(set(concepts)) == len(concepts)
        seen_total.extend(batch)
    assert sorted(seen_total) == list(range(len(corpus)))


def test_contrastive_batches_audited_during_training(small_setup, monkeypatch):
    # instrument the loss call itself: every batch the trainer actually trains
    # on must contain each concept at most once
    kg, corpus, base = small_setup
    anchor_of = {}
    for pair in corpus:
        anchor_of.setdefault(pair.anchor.text, set()).add(pair.concept_id)

    from ontoembed import losses as losses_mod
    real = losses_mod.info_nce
    audited = []

    def spy(anchors, positives, scale=20.0):
        audited.append(anchors.shape[0])
        return real(anchors, positives, scale)

    monkeypatch.setattr(trainer.losses, "info_nce", spy)

    seen_batches = []
    real_backward = trainer.enc.backward_batch

    def spy_backward(params, config, texts, grads, forward, out=None):
        seen_batches.append(list(texts))
        return real_backward(params, config, texts, grads, forward, out)

    monkeypatch.setattr(trainer.enc, "backward_batch", spy_backward)
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=1)
    trainer.train_contrastive(base, corpus[:120], cfg)
    assert audited, "training never reached the loss"
    for texts, n_anchors in zip(seen_batches, audited):
        batch_concepts = []
        for anchor_text in texts[:n_anchors]:
            owners = anchor_of[anchor_text]
            assert len(owners) == 1  # fixture anchors are unambiguous
            batch_concepts.append(next(iter(owners)))
        assert len(set(batch_concepts)) == len(batch_concepts)


# ---------------------------------------------------------------------------
# STS adaptation


def test_adapt_identical_sentences_loss_tiny(small_setup):
    _, _, base = small_setup

    class AllFives:
        # identical sentences with gold 5; cosine is already 1 everywhere, so
        # the regression loss sits at its optimum from the start (the trainer,
        # unlike the dataset loader, does not demand gold variance)
        rows = tuple((f"sentence number {i}", f"sentence number {i}", 5.0)
                     for i in range(8))

    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=50, batch_size=8, seed=0)
    adapted, stats = trainer.adapt_sts(base, AllFives(), cfg)
    assert stats.epoch_losses[-1] < 1e-3
    assert adapted.phase == "sts_adapted"


def test_adapt_zero_epochs_is_bit_exact_identity(small_setup, small_datasets):
    _, _, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=0, batch_size=8, seed=0)
    adapted, stats = trainer.adapt_sts(base, small_datasets["sts_train"], cfg)
    assert params_equal(adapted.params, base.params)
    assert stats.steps == 0


def test_adapt_improves_train_pearson(small_setup, small_datasets):
    _, _, base = small_setup
    dataset = small_datasets["sts_train"]
    cfg = trainer.TrainConfig(learning_rate=2e-3, epochs=30, batch_size=32, seed=1)
    adapted, _ = trainer.adapt_sts(base, dataset, cfg)
    before = ev.eval_sts(base, dataset).value
    after = ev.eval_sts(adapted, dataset).value
    assert after >= before


def test_adapt_rejects_empty_dataset(small_setup):
    _, _, base = small_setup

    class Empty:
        rows = ()

    with pytest.raises(trainer.TrainError):
        trainer.adapt_sts(base, Empty(), trainer.TrainConfig(learning_rate=1e-3, epochs=1))


def test_adapt_rejects_out_of_range_gold(small_setup):
    _, _, base = small_setup

    class Bad:
        rows = (("a", "b", 7.0), ("c", "d", 1.0))

    with pytest.raises(trainer.TrainError):
        trainer.adapt_sts(base, Bad(), trainer.TrainConfig(learning_rate=1e-3, epochs=1))


# ---------------------------------------------------------------------------
# self-distillation


def test_distill_initial_loss_and_convergence(four_concept_kg):
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    teacher = _adapted(config)  # base == teacher lineage, not contrastive
    _, targets = trainer.build_targets(teacher, four_concept_kg, k=3)
    cfg = trainer.TrainConfig(learning_rate=5e-3, weight_decay=0.0, epochs=200,
                              batch_size=8, seed=0)
    distilled, stats = trainer.train_self_distill(teacher, targets, four_concept_kg, cfg)

    # initial loss is exactly mse(head0(encode_batch(texts)), targets)
    head_seed = int(np.random.default_rng(cfg.seed).integers(0, 2**63))
    params0 = enc.attach_head(teacher.params, config, 3, head_seed)
    pairs = [(d.text, targets[row]) for row, cid in enumerate(four_concept_kg.concept_ids)
             for d in onto.all_descriptions(four_concept_kg, cid)]
    texts, tmat = [text for text, _ in pairs], np.array([target for _, target in pairs])
    e = enc.encode_batch(params0, config, texts)
    manual = float(np.mean((e @ params0.head_w + params0.head_b - tmat) ** 2))
    assert stats.epoch_losses[0] == pytest.approx(manual, abs=1e-15)
    assert stats.epoch_losses[-1] < 1e-3
    assert distilled.phase == "self_distilled"
    assert distilled.params.has_head


def test_distill_seed_changes_head_and_result(four_concept_kg):
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    teacher = _adapted(config)
    _, targets = trainer.build_targets(teacher, four_concept_kg, k=3)
    outs = []
    for seed in (0, 1):
        cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=seed)
        ck, _ = trainer.train_self_distill(teacher, targets, four_concept_kg, cfg)
        outs.append(ck)
    assert not np.array_equal(outs[0].params.head_w, outs[1].params.head_w)
    assert not params_equal(outs[0].params, outs[1].params)


def test_distill_zero_epochs_keeps_encoder_bit_exact(four_concept_kg):
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    teacher = _adapted(config)
    _, targets = trainer.build_targets(teacher, four_concept_kg, k=3)
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=0, batch_size=8, seed=0)
    ck, stats = trainer.train_self_distill(teacher, targets, four_concept_kg, cfg)
    assert params_equal(ck.params.without_head(), teacher.params)
    assert stats.steps == 0
    assert len(stats.epoch_losses) == 1  # the initial full-set loss


def test_distill_rejects_contrastive_lineage(four_concept_kg):
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    contrastive = enc.Checkpoint(
        config=config, phase="sts_adapted", params=enc.init_params(config),
        history=("base", "sts_adapted", "contrastive", "sts_adapted"))
    teacher = _adapted(config)
    _, targets = trainer.build_targets(teacher, four_concept_kg, k=3)
    with pytest.raises(trainer.PhaseError):
        trainer.train_self_distill(contrastive, targets, four_concept_kg,
                                   trainer.TrainConfig(learning_rate=1e-3, epochs=1))


def test_distill_rejects_empty_targets(four_concept_kg):
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    with pytest.raises(trainer.TrainError):
        trainer.train_self_distill(_adapted(config), [], four_concept_kg,
                                   trainer.TrainConfig(learning_rate=1e-3, epochs=1))


def test_distill_rejects_a_target_matrix_not_one_row_per_concept(four_concept_kg):
    # row j is the target of concept j, so a matrix of another height has no
    # row for some concept or a row for no concept
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    teacher = _adapted(config)
    _, targets = trainer.build_targets(teacher, four_concept_kg, k=3)
    assert targets.shape == (len(four_concept_kg), 3)
    for bad in (targets[:-1], np.vstack([targets, targets[:1]]), targets[0]):
        with pytest.raises(trainer.TrainError, match=r"one row per concept \(4\)"):
            trainer.train_self_distill(teacher, bad, four_concept_kg,
                                       trainer.TrainConfig(learning_rate=1e-3, epochs=1))


def test_distill_deterministic_per_seed(four_concept_kg):
    config = enc.EncoderConfig(vocab_buckets=256, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=4)
    teacher = _adapted(config)
    _, targets = trainer.build_targets(teacher, four_concept_kg, k=3)
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=3, batch_size=8, seed=5)
    a, _ = trainer.train_self_distill(teacher, targets, four_concept_kg, cfg)
    b, _ = trainer.train_self_distill(teacher, targets, four_concept_kg, cfg)
    assert checkpoint_to_bytes(a) == checkpoint_to_bytes(b)


def test_no_regime_mutates_its_inputs(small_setup, small_datasets, tmp_path):
    # AdamW updates in place, so each regime must train on its own copy and
    # the soup must average into a fresh vector
    kg, corpus, base = small_setup
    snapshot = checkpoint_to_bytes(base)
    cfg = trainer.TrainConfig(learning_rate=2e-3, epochs=1, batch_size=32, seed=0)
    adapted, stats = trainer.adapt_sts(base, small_datasets["sts_train"], cfg)
    assert stats.steps > 0
    assert checkpoint_to_bytes(base) == snapshot
    _, stats = trainer.train_contrastive(base, corpus[:64], cfg)
    assert stats.steps > 0
    assert checkpoint_to_bytes(base) == snapshot

    _, targets = trainer.build_targets(adapted, kg, k=4)
    candidates = []
    for seed in (0, 1, 2):
        distilled, stats = trainer.train_self_distill(
            base, targets, kg, dataclasses.replace(cfg, seed=seed))
        assert stats.steps > 0
        path = tmp_path / f"d{seed}.ckpt"
        enc.save_checkpoint(path, distilled)
        candidates.append(soup.SoupCandidate(str(path), float(seed), f"d{seed}"))
    assert checkpoint_to_bytes(base) == snapshot

    before = [(tmp_path / f"d{seed}.ckpt").read_bytes() for seed in (0, 1, 2)]
    souped, kept = soup.greedy_soup(candidates, lambda ckpt: 0.0)
    assert len(kept) == 3  # a constant metric admits every candidate
    assert [(tmp_path / f"d{seed}.ckpt").read_bytes() for seed in (0, 1, 2)] == before
    # the averaging works in the buffers it reads, so a second soup over the
    # same candidates comes out the same
    again, _ = soup.greedy_soup(candidates, lambda ckpt: 0.0)
    assert checkpoint_to_bytes(again) == checkpoint_to_bytes(souped)


# ---------------------------------------------------------------------------
# cross-lingual distillation


def _teacher_and_pairs(tmp_path):
    config = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                               output_dim=20, init_seed=3)
    teacher = enc.Checkpoint(config=config, phase="contrastive",
                             params=enc.init_params(config),
                             history=("base", "contrastive"))
    pairs = [onto.ParallelPair(f"word{i} term{i}", f"word{i}os term{i}os", "es")
             for i in range(12)]
    return teacher, pairs


def test_xlingual_identity_corpus_loss_terms_coincide(tmp_path):
    teacher, _ = _teacher_and_pairs(tmp_path)
    pairs = [onto.ParallelPair(f"item number {i}", f"item number {i}", "en")
             for i in range(6)]
    student_cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                                    output_dim=20, init_seed=77)
    cfg = trainer.TrainConfig(learning_rate=1e-4, epochs=1, batch_size=6, seed=0)
    targets = trainer.pivot_targets(teacher, pairs)
    _, stats = trainer.train_xlingual(targets, student_cfg, pairs, cfg)
    fresh = enc.Checkpoint(config=student_cfg, phase="xlingual_student",
                           params=enc.init_params(student_cfg))
    # with f = e the two loss terms coincide; the first (full) batch loss is
    # exactly the fresh student's mean squared distance to the teacher
    gap = trainer.translation_gap(fresh, teacher, pairs)
    assert stats.epoch_losses[0] == pytest.approx(gap, abs=1e-12)


def test_xlingual_reduces_translation_gap(tmp_path):
    # micro corpus, so it takes many more epochs than the bundled fixture
    # (which hits the 10-epoch reduction target in the acceptance suite)
    teacher, pairs = _teacher_and_pairs(tmp_path)
    student_cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                                    output_dim=20, init_seed=77)
    cfg = trainer.TrainConfig(learning_rate=1e-2, epochs=120, batch_size=4, seed=0)
    targets = trainer.pivot_targets(teacher, pairs)
    student, _ = trainer.train_xlingual(targets, student_cfg, pairs, cfg)
    fresh = enc.Checkpoint(config=student_cfg, phase="xlingual_student",
                           params=enc.init_params(student_cfg))
    before = trainer.translation_gap(fresh, teacher, pairs)
    after = trainer.translation_gap(student, teacher, pairs)
    assert after < 0.1 * before
    assert student.phase == "xlingual_student"


def test_xlingual_holds_no_student_table_while_training(monkeypatch):
    # the student's table, 20 times its compact params, is drawn for the
    # reached rows and dropped, and drawn again only once the moments are
    # freed: the traced peak stays below the table plus the moments m and v,
    # which holding the table through the steps would pass
    teacher_cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=4, hidden_dim=6, output_dim=8)
    teacher = enc.Checkpoint(config=teacher_cfg, phase="contrastive",
                             params=enc.init_params(teacher_cfg))
    pairs = [onto.ParallelPair(f"word{i} term{i}", f"mot{i} terme{i}", "fr") for i in range(600)]
    student_cfg = enc.EncoderConfig(vocab_buckets=49152, embed_dim=128, hidden_dim=8,
                                    output_dim=8, init_seed=5)
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=128, seed=0)
    real_init, moments = trainer.init_adamw, []

    def spy_init(params):
        state = real_init(params)
        moments.append((params.flat.nbytes, state.m.nbytes + state.v.nbytes))
        return state

    monkeypatch.setattr(trainer, "init_adamw", spy_init)
    table = 8 * student_cfg.vocab_buckets * student_cfg.embed_dim
    tracemalloc.start()
    try:
        trainer.train_xlingual(trainer.pivot_targets(teacher, pairs), student_cfg, pairs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [(compact, mv)] = moments
    assert table >= 20 * compact
    assert peak < table + mv


def test_fit_drops_the_compact_params_before_the_decay_replay(tmp_path, monkeypatch):
    # the replay writes only rows outside the compact table, so the trained
    # rows are written first and the compact params are not held under it
    teacher, pairs = _teacher_and_pairs(tmp_path)
    student_cfg = enc.EncoderConfig(vocab_buckets=1024, embed_dim=16, hidden_dim=24,
                                    output_dim=20, init_seed=77)
    cfg = trainer.TrainConfig(learning_rate=1e-3, weight_decay=0.05, epochs=1,
                              batch_size=6, seed=0)
    real_init, real_replay, compact, alive = trainer.init_adamw, trainer._replay_decay, [], []

    def spy_init(params):
        compact.append(weakref.ref(params.flat))
        return real_init(params)

    def spy_replay(*args):
        alive.append(compact[0]() is not None)
        return real_replay(*args)

    monkeypatch.setattr(trainer, "init_adamw", spy_init)
    monkeypatch.setattr(trainer, "_replay_decay", spy_replay)
    trainer.train_xlingual(trainer.pivot_targets(teacher, pairs), student_cfg, pairs, cfg)
    assert alive == [False]


def test_pivot_targets_encode_each_distinct_source_once(tmp_path):
    # repeated sources share one row, in order of first appearance, and the
    # gap indexed from those rows is the gap over one teacher row per pair
    teacher, pairs = _teacher_and_pairs(tmp_path)
    pairs = [pairs[i] for i in (3, 0, 3, 5, 0, 1, 1, 3, 7)]
    sources = ["word3 term3", "word0 term0", "word5 term5", "word1 term1", "word7 term7"]
    targets = trainer.pivot_targets(teacher, pairs)
    assert targets.tobytes() == enc.encode_batch(teacher.params, teacher.config,
                                                 sources).tobytes()
    student = enc.Checkpoint(config=teacher.config, phase="xlingual_student",
                             params=enc.init_params(dataclasses.replace(teacher.config,
                                                                        init_seed=9)))
    t = enc.encode_batch(teacher.params, teacher.config, [p.source_text for p in pairs])
    s = enc.encode_batch(student.params, student.config, [p.target_text for p in pairs])
    assert trainer.translation_gap(student, teacher, pairs) == float(((s - t) ** 2).sum()) / 9


def test_xlingual_rejects_targets_of_other_pairs(tmp_path):
    teacher, pairs = _teacher_and_pairs(tmp_path)
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=1)
    with pytest.raises(trainer.TrainError, match="one row per distinct source"):
        trainer.train_xlingual(trainer.pivot_targets(teacher, pairs[:3]), teacher.config,
                               pairs, cfg)


def test_xlingual_teacher_frozen(tmp_path):
    teacher, pairs = _teacher_and_pairs(tmp_path)
    snapshot = checkpoint_to_bytes(teacher)
    student_cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                                    output_dim=20, init_seed=77)
    trainer.train_xlingual(trainer.pivot_targets(teacher, pairs), student_cfg, pairs,
                           trainer.TrainConfig(learning_rate=5e-3, epochs=2,
                                               batch_size=6, seed=0))
    assert checkpoint_to_bytes(teacher) == snapshot


def test_xlingual_rejects_empty_pairs_and_dim_mismatch(tmp_path):
    teacher, pairs = _teacher_and_pairs(tmp_path)
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=1)
    with pytest.raises(trainer.TrainError):
        trainer.train_xlingual(trainer.pivot_targets(teacher, []), teacher.config, [], cfg)
    bad_cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                                output_dim=24, init_seed=1)
    with pytest.raises(trainer.TrainError):
        trainer.train_xlingual(trainer.pivot_targets(teacher, pairs), bad_cfg, pairs, cfg)


def test_xlingual_deterministic_per_seed(tmp_path):
    teacher, pairs = _teacher_and_pairs(tmp_path)
    student_cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                                    output_dim=20, init_seed=77)
    cfg = trainer.TrainConfig(learning_rate=2e-3, epochs=2, batch_size=6, seed=4)
    a, _ = trainer.train_xlingual(trainer.pivot_targets(teacher, pairs), student_cfg, pairs, cfg)
    b, _ = trainer.train_xlingual(trainer.pivot_targets(teacher, pairs), student_cfg, pairs, cfg)
    assert checkpoint_to_bytes(a) == checkpoint_to_bytes(b)


# ---------------------------------------------------------------------------
# config file parsing


def test_parse_kv_file_and_train_config(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# a comment\n"
        "learning_rate = 0.004\n"
        "epochs = 3\n"
        "batch_size=16\n"
        "weight_decay = 0.1\n"
        "seed = 42  # trailing comment\n"
    )
    mapping = trainer.parse_kv_file(path)
    cfg = config.build_config(trainer.TrainConfig, mapping)
    assert cfg.learning_rate == 0.004
    assert cfg.epochs == 3
    assert cfg.batch_size == 16
    assert cfg.seed == 42
    assert cfg.weight_decay == 0.1


def test_parse_kv_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this line has no equals sign\n")
    with pytest.raises(ValueError):
        trainer.parse_kv_file(path)


def test_phase_prefixed_keys(tmp_path):
    mapping = {"learning_rate": "0.1", "contrastive_learning_rate": "0.5",
               "epochs": "2"}
    cfg = config.build_config(trainer.TrainConfig, mapping, prefix="contrastive_")
    assert cfg.learning_rate == 0.5
    assert cfg.epochs == 2


def test_train_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(warmup_fraction=1.5)
    with pytest.raises(ValueError):
        trainer.TrainConfig(epochs=-1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
def test_train_config_rejects_non_finite_rates(name, value):
    # nan compares False with every bound, and inf passes the lower ones
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        trainer.TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# one forward pass per optimizer step


@pytest.mark.parametrize("regime", ["contrastive", "sts", "self-distill", "xlingual"])
def test_each_step_runs_the_forward_once(regime, small_setup, small_world, tmp_path,
                                         monkeypatch):
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=1)
    # forward passes outside the steps: the full-set loss before training and
    # after each epoch (self-distillation), the teacher table (xlingual)
    extra = {"self-distill": cfg.epochs + 1, "xlingual": 1}.get(regime, 0)
    if regime == "contrastive":
        run = lambda: trainer.train_contrastive(base, corpus[:64], cfg)  # noqa: E731
    elif regime == "sts":
        sts = ev.load_sts_dataset(os.path.join(small_world, "sts_train.tsv"))
        run = lambda: trainer.adapt_sts(base, sts, cfg)  # noqa: E731
    elif regime == "self-distill":
        teacher = enc.Checkpoint(config=base.config, phase="sts_adapted", params=base.params)
        _, targets = trainer.build_targets(teacher, kg, k=4)
        run = lambda: trainer.train_self_distill(base, targets, kg, cfg)  # noqa: E731
    else:
        teacher, pairs = _teacher_and_pairs(tmp_path)
        student_cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24,
                                        output_dim=20, init_seed=77)
        run = lambda: trainer.train_xlingual(  # noqa: E731
            trainer.pivot_targets(teacher, pairs), student_cfg, pairs, cfg)

    # every forward, of a step or of texts, runs through forward_tokens
    calls = []
    real_forward, real_backward = enc.forward_tokens, enc.backward_batch

    def spy_forward(*args):
        calls.append("forward")
        return real_forward(*args)

    def spy_backward(*args):
        calls.append("backward")
        grad = real_backward(*args)
        calls.append("backward returned")
        return grad

    monkeypatch.setattr(enc, "forward_tokens", spy_forward)
    monkeypatch.setattr(enc, "backward_batch", spy_backward)
    _, stats = run()
    assert stats.steps > 0
    assert calls.count("forward") == stats.steps + extra
    assert calls.count("backward") == stats.steps
    # the backward pass reuses the step's forward and never runs its own
    for i, call in enumerate(calls):
        if call == "backward":
            assert calls[i - 1] == "forward" and calls[i + 1] == "backward returned"


@pytest.mark.parametrize("regime", ["sts", "self-distill"])
def test_reused_gradient_buffer_carries_no_stale_rows(regime, small_setup, small_world,
                                                      monkeypatch):
    # _fit writes every step's gradient into one buffer; each gradient
    # AdamW is given must equal, bit for bit, the gradient a fresh
    # backward_batch allocates for the same step, though consecutive steps
    # touch different token rows
    kg, _, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=3)
    if regime == "sts":
        sts = ev.load_sts_dataset(os.path.join(small_world, "sts_train.tsv"))
        run = lambda: trainer.adapt_sts(base, sts, cfg)  # noqa: E731
    else:
        teacher = enc.Checkpoint(config=base.config, phase="sts_adapted", params=base.params)
        _, targets = trainer.build_targets(teacher, kg, k=4)
        run = lambda: trainer.train_self_distill(base, targets, kg, cfg)  # noqa: E731

    real_backward, real_adamw = enc.backward_batch, trainer.adamw_step
    backward_args, step_rows, buffers = [], [], set()

    def spy_backward(params, config, texts, grads, forward, out=None):
        backward_args.append((config, texts, grads, forward))
        return real_backward(params, config, texts, grads, forward, out)

    def spy_adamw(params, grads, state, lr, weight_decay=0.0):
        config, texts, output_grads, forward = backward_args.pop()
        fresh = real_backward(params, config, texts, output_grads, forward)
        assert grads.without_head().flat.tobytes() == fresh.without_head().flat.tobytes()
        step_rows.append(set(forward.tokens.ids.tolist()))
        buffers.add(id(grads.flat))
        return real_adamw(params, grads, state, lr, weight_decay)

    monkeypatch.setattr(enc, "backward_batch", spy_backward)
    monkeypatch.setattr(trainer, "adamw_step", spy_adamw)
    _, stats = run()
    assert len(step_rows) == stats.steps > 2 and len(buffers) == 1
    assert all(before - after for before, after in zip(step_rows, step_rows[1:]))


# ---------------------------------------------------------------------------
# training the reachable token rows against training the full table


@pytest.mark.parametrize("regime", ["contrastive", "sts", "sts-token-free", "self-distill",
                                    "xlingual", "xlingual-token-free"])
def test_regime_equals_full_table_training_byte_for_byte(regime, small_setup, small_world,
                                                         tmp_path, monkeypatch):
    # the same regime once with trainer._fit and once with the full-table
    # loop it replaced; the xlingual student has twice the teacher's buckets.
    # A token-free corpus reaches no token row, so _fit's table has none
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=5e-3, weight_decay=0.05, epochs=2, batch_size=16,
                              seed=4)
    if regime == "contrastive":
        run = lambda: trainer.train_contrastive(base, corpus[:64], cfg)  # noqa: E731
    elif regime == "sts":
        sts = ev.load_sts_dataset(os.path.join(small_world, "sts_train.tsv"))
        run = lambda: trainer.adapt_sts(base, sts, cfg)  # noqa: E731
    elif regime == "sts-token-free":
        sts = ev.PairDataset((("-", "+", 1.0), ("?", "!", 4.0)))
        run = lambda: trainer.adapt_sts(base, sts, cfg)  # noqa: E731
    elif regime == "self-distill":
        teacher = enc.Checkpoint(config=base.config, phase="sts_adapted", params=base.params)
        _, targets = trainer.build_targets(teacher, kg, k=4)
        run = lambda: trainer.train_self_distill(base, targets, kg, cfg)  # noqa: E731
    else:
        teacher, pairs = _teacher_and_pairs(tmp_path)
        if regime == "xlingual-token-free":
            pairs = [onto.ParallelPair("-" * i, "+" * i, "es") for i in range(1, 4)]
        student_cfg = enc.EncoderConfig(vocab_buckets=1024, embed_dim=16, hidden_dim=24,
                                        output_dim=20, init_seed=77)
        run = lambda: trainer.train_xlingual(  # noqa: E731
            trainer.pivot_targets(teacher, pairs), student_cfg, pairs, cfg)

    got, got_stats = run()
    monkeypatch.setattr(trainer, "_fit", dense_fit)
    want, want_stats = run()
    assert checkpoint_to_bytes(got) == checkpoint_to_bytes(want)
    assert got_stats == want_stats


@pytest.mark.parametrize("regime", ["contrastive", "sts", "self-distill", "xlingual"])
def test_each_regime_trains_on_its_layout(regime, small_setup, small_world, tmp_path,
                                          monkeypatch):
    # the texts and steps each regime gives _fit, rebuilt from its seed: a
    # pair regime's texts are every left text, then every right one, and a
    # step is its batch of pairs, then the same batch shifted by n;
    # self-distillation's steps are slices of each epoch's permutation
    kg, corpus, base = small_setup
    cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=5, seed=6)
    rng, size = np.random.default_rng(cfg.seed), cfg.batch_size

    def shuffled(n):
        perms = [rng.permutation(n) for _ in range(cfg.epochs)]
        return [[perm[i:i + size] for i in range(0, n, size)] for perm in perms]

    def paired(batches, n):
        return [[np.concatenate([np.asarray(b), np.asarray(b) + n]) for b in epoch]
                for epoch in batches]

    if regime == "contrastive":
        pairs = corpus[:40]
        texts = [p.anchor.text for p in pairs] + [p.positive.text for p in pairs]
        plans = paired([trainer._dedup_batches(pairs, rng.permutation(40), size)
                        for _ in range(cfg.epochs)], 40)
        run = lambda: trainer.train_contrastive(base, pairs, cfg)  # noqa: E731
    elif regime == "sts":
        sts = ev.load_sts_dataset(os.path.join(small_world, "sts_train.tsv"))
        texts = [a for a, _, _ in sts.rows] + [b for _, b, _ in sts.rows]
        plans = paired(shuffled(len(sts.rows)), len(sts.rows))
        run = lambda: trainer.adapt_sts(base, sts, cfg)  # noqa: E731
    elif regime == "self-distill":
        teacher = enc.Checkpoint(config=base.config, phase="sts_adapted", params=base.params)
        _, targets = trainer.build_targets(teacher, kg, k=4)
        rng.integers(0, 2**63)  # the head's seed is drawn first
        texts = [d.text for cid in kg.concept_ids for d in onto.all_descriptions(kg, cid)]
        plans = shuffled(len(texts))
        run = lambda: trainer.train_self_distill(base, targets, kg, cfg)  # noqa: E731
    else:
        teacher, pairs = _teacher_and_pairs(tmp_path)
        student_cfg = enc.EncoderConfig(vocab_buckets=1024, embed_dim=16, hidden_dim=24,
                                        output_dim=20, init_seed=77)
        texts = [p.source_text for p in pairs] + [p.target_text for p in pairs]
        plans = paired(shuffled(len(pairs)), len(pairs))
        run = lambda: trainer.train_xlingual(  # noqa: E731
            trainer.pivot_targets(teacher, pairs), student_cfg, pairs, cfg)

    real_fit, seen = trainer._fit, []

    def recorder(source, config, texts, plans, *args, **kwargs):
        seen.append((list(texts), plans))
        return real_fit(source, config, texts, plans, *args, **kwargs)

    monkeypatch.setattr(trainer, "_fit", recorder)
    run()
    [(got_texts, got_plans)] = seen
    assert got_texts == texts
    assert [len(plan) for plan in got_plans] == [len(plan) for plan in plans]
    for got_plan, plan in zip(got_plans, plans):
        for got, want in zip(got_plan, plan):
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
