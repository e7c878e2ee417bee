import itertools
import tracemalloc

import numpy as np
import pytest

from ontoembed import encoder as enc
from ontoembed import soup

from oracles import brute_greedy_soup


def _model(config, init_seed=None, phase="self_distilled", scale_params=None):
    cfg = config if init_seed is None else enc.EncoderConfig(
        **{**config.to_dict(), "init_seed": init_seed})
    params = enc.init_params(cfg)
    if scale_params is not None:
        for _, arr in params.tensor_items():
            arr *= scale_params
    return enc.Checkpoint(config=cfg, phase=phase, params=params,
                          history=("base", "sts_adapted", phase))


@pytest.fixture
def cand(tmp_path):
    """Saves a checkpoint to a file of its own and returns the candidate
    that reads it."""
    count = itertools.count()

    def make(ckpt, score, label):
        path = tmp_path / f"c{next(count)}.ckpt"
        enc.save_checkpoint(path, ckpt)
        return soup.SoupCandidate(path=str(path), validation_score=score, label=label)
    return make


@pytest.fixture
def config():
    return enc.EncoderConfig(vocab_buckets=32, embed_dim=4, hidden_dim=5,
                             output_dim=4, hash_seed=2, init_seed=0)


# ---------------------------------------------------------------------------
# uniform_soup


def test_uniform_of_identical_copies_is_bit_equal(config, cand):
    model = _model(config)
    for k in (1, 2, 3, 7):
        cands = [cand(model, 0.5, f"m{i}") for i in range(k)]
        out = soup.uniform_soup(cands)
        assert enc.params_equal(out.params, model.params)
        assert out.phase == "souped"


def test_uniform_of_opposite_params_is_zero(config, cand):
    a = _model(config)
    b = enc.Checkpoint(config=a.config, phase=a.phase,
                       params=enc.unflatten(config, -enc.flatten(a.params)),
                       history=a.history)
    out = soup.uniform_soup([cand(a, 0.0, "a"), cand(b, 0.0, "b")])
    assert np.all(enc.flatten(out.params) == 0.0)


def test_uniform_scalar_three_way_mean(config, cand):
    base = _model(config)
    flat = enc.flatten(base.params)
    cands = []
    for value, label in ((1.0, "a"), (2.0, "b"), (6.0, "c")):
        params = enc.unflatten(config, np.full_like(flat, value))
        cands.append(cand(enc.Checkpoint(config=config, phase="self_distilled",
                                         params=params), 0.0, label))
    out = soup.uniform_soup(cands)
    assert np.all(enc.flatten(out.params) == 3.0)


def test_uniform_strips_heads(config, cand):
    model = _model(config)
    with_head = enc.Checkpoint(
        config=config, phase="self_distilled",
        params=enc.attach_head(model.params, config, 3, seed=1),
        history=model.history)
    out = soup.uniform_soup([cand(with_head, 0.0, "a")])
    assert not out.params.has_head
    assert enc.params_equal(out.params, model.params)


def test_uniform_permutation_invariant_with_label_order(config, cand):
    models = [_model(config, init_seed=i) for i in range(4)]
    cands = [cand(m, 0.0, f"m{i}") for i, m in enumerate(models)]
    a = soup.uniform_soup(cands)
    b = soup.uniform_soup(list(reversed(cands)))
    assert enc.checkpoint_to_bytes(a) == enc.checkpoint_to_bytes(b)


def test_uniform_rejects_incompatible_configs(config, cand):
    other_cfg = enc.EncoderConfig(**{**config.to_dict(), "hidden_dim": 6})
    a = _model(config)
    b = _model(other_cfg)
    with pytest.raises(soup.IncompatibleCandidatesError):
        soup.uniform_soup([cand(a, 0.0, "a"), cand(b, 0.0, "b")])


def test_uniform_allows_differing_init_seeds(config, cand):
    a = _model(config, init_seed=1)
    b = _model(config, init_seed=2)
    out = soup.uniform_soup([cand(a, 0.0, "a"), cand(b, 0.0, "b")])
    expected = 0.5 * (enc.flatten(a.params) + enc.flatten(b.params))
    assert np.allclose(enc.flatten(out.params), expected, atol=1e-15)


def test_uniform_rejects_mixed_phases(config, cand):
    a = _model(config, phase="self_distilled")
    b = _model(config, phase="contrastive")
    with pytest.raises(soup.IncompatibleCandidatesError):
        soup.uniform_soup([cand(a, 0.0, "a"), cand(b, 0.0, "b")])


def test_uniform_rejects_empty():
    with pytest.raises(soup.IncompatibleCandidatesError):
        soup.uniform_soup([])


# ---------------------------------------------------------------------------
# greedy_soup


def test_greedy_single_candidate(config, cand):
    model = _model(config)
    out, kept = soup.greedy_soup([cand(model, 0.9, "only")], lambda c: 1.0)
    assert kept == ["only"]
    assert enc.params_equal(out.params, model.params)


def test_greedy_constant_metric_keeps_everything(config, cand):
    cands = [cand(_model(config, init_seed=i), float(i), f"m{i}") for i in range(5)]
    out, kept = soup.greedy_soup(cands, lambda c: 42.0)
    assert sorted(kept) == [f"m{i}" for i in range(5)]
    uniform = soup.uniform_soup(cands)
    assert enc.checkpoint_to_bytes(out) == enc.checkpoint_to_bytes(uniform)


def test_greedy_matches_brute_force_simulation(config, cand):
    # scalar parameters, evaluate favours parameters near zero; the kept set
    # must match an exhaustive simulation of the greedy acceptance rule
    flat_len = config.base_param_count()
    values = [1.0, -2.0, 0.5, 3.0, -0.25]
    scores = [0.8, 0.6, 0.9, 0.1, 0.3]
    labels = [f"m{i}" for i in range(len(values))]
    cands = []
    for v, s, label in zip(values, scores, labels):
        params = enc.unflatten(config, np.full(flat_len, v))
        cands.append(cand(enc.Checkpoint(config=config, phase="self_distilled",
                                         params=params), s, label))

    def evaluate(ckpt):
        return -abs(float(enc.flatten(ckpt.params)[0]))

    out, kept = soup.greedy_soup(cands, evaluate)
    expected_kept, expected_value = brute_greedy_soup(
        values, scores, labels, lambda v: -abs(v))
    assert sorted(kept) == sorted(expected_kept)
    assert enc.flatten(out.params)[0] == pytest.approx(expected_value, abs=1e-15)


def test_greedy_result_never_below_best_single(config, cand):
    # the guarantee holds when validation scores come from the same metric
    # the merge decisions use, which is how the CLI and pipeline call this
    rng = np.random.default_rng(0)
    for trial in range(5):
        weights = rng.normal(size=config.base_param_count())

        def evaluate(ckpt):
            return float(np.tanh(enc.flatten(ckpt.params) @ weights))

        cands = []
        for i in range(6):
            model = _model(config, init_seed=trial * 10 + i)
            cands.append(cand(model, evaluate(model), f"m{i}"))
        best_single = max(c.validation_score for c in cands)
        out, kept = soup.greedy_soup(cands, evaluate)
        assert evaluate(out) >= best_single - 1e-12
        assert len(kept) >= 1


def test_greedy_tie_break_by_label(config, cand):
    a = _model(config, init_seed=1)
    b = _model(config, init_seed=2)
    # equal validation scores: the pool must start from the label-ascending first
    out, kept = soup.greedy_soup(
        [cand(b, 0.5, "zz"), cand(a, 0.5, "aa")],
        lambda c: -1.0 if enc.params_equal(c.params, b.params) else 0.0)
    # "aa" seeds the pool (score 0.0); adding "zz" would average to something
    # that is neither model, evaluated via the fallback branch (0.0 >= 0.0),
    # so both are kept; the important part is the deterministic seed choice
    assert kept[0] == "aa"


def test_candidate_score_must_be_finite(config, cand):
    with pytest.raises(soup.SoupError):
        cand(_model(config), float("nan"), "x")


def _soup_peak(candidates, make_soup):
    """The peak traced allocation of ``make_soup(candidates)``."""
    tracemalloc.start()
    try:
        make_soup(candidates)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rejects_all():
    """A metric under which the first soup scores best and every later one
    is rejected."""
    scores = itertools.chain([1.0], itertools.repeat(0.0))
    return lambda ckpt: next(scores)


@pytest.mark.parametrize("make_soup", [
    soup.uniform_soup,
    lambda cands: soup.greedy_soup(cands, lambda ckpt: 0.0),
    lambda cands: soup.greedy_soup(cands, _rejects_all()),
], ids=["uniform", "greedy-keeps-all", "greedy-rejects-all"])
def test_soup_memory_does_not_grow_with_the_candidates(cand, make_soup):
    # each candidate is read from its file when used and never kept, so a
    # soup over 8 candidates peaks no higher than one over 2, at three
    # parameter vectors: the greedy soup so far, the running mean of the
    # tentative one and the candidate just read
    config = enc.EncoderConfig(vocab_buckets=4096, embed_dim=16, hidden_dim=16, output_dim=16)
    vector = 8 * config.base_param_count()
    models = [_model(config, init_seed=i) for i in range(8)]
    pool = [cand(m, float(i), f"m{i}") for i, m in enumerate(models)]
    del models
    peaks = {k: _soup_peak(pool[:k], make_soup) for k in (2, 8)}
    assert peaks[8] < peaks[2] + vector / 4, peaks
    assert peaks[8] < 3.5 * vector, peaks
