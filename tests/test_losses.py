import numpy as np
import pytest

from ontoembed import losses
from ontoembed import trainer

from oracles import fd_gradient, rel_error


def _unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# info_nce values


def test_info_nce_uniform_batch_128_is_ln128():
    v = np.zeros((128, 8))
    v[:, 0] = 1.0
    loss, *_ = losses.info_nce(v, v)
    assert abs(loss - np.log(128)) < 1e-9


def test_info_nce_single_row_is_zero():
    v = np.array([[1.0, 0.0]])
    loss, ga, gp, gx = losses.info_nce(v, v)
    assert loss == 0.0
    assert gx is None


def test_info_nce_hand_evaluated_two_by_two():
    # anchors = positives = identity; with scale 1 each row's softmax is over
    # logits [1, 0], so the loss is log(1 + e^-1)
    eye = np.eye(2)
    loss, *_ = losses.info_nce(eye, eye, scale=1.0)
    assert abs(loss - np.log1p(np.exp(-1.0))) < 1e-12


def test_info_nce_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = _unit_rows(rng, 5, 7)
        p = _unit_rows(rng, 5, 7)
        loss, *_ = losses.info_nce(a, p)
        assert loss >= 0.0


def test_info_nce_equal_logits_with_extras():
    # all candidates identical: softmax uniform over B + M entries
    b, m = 6, 3
    v = np.zeros((b, 4))
    v[:, 1] = 1.0
    extras = np.zeros((m, 4))
    extras[:, 1] = 1.0
    loss, *_ = losses.info_nce(v, v, extras)
    assert abs(loss - np.log(b + m)) < 1e-12


def test_info_nce_rotation_invariance():
    rng = np.random.default_rng(3)
    a = _unit_rows(rng, 6, 5)
    p = _unit_rows(rng, 6, 5)
    x = _unit_rows(rng, 2, 5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    base = losses.info_nce(a, p, x)[0]
    rotated = losses.info_nce(a @ q, p @ q, x @ q)[0]
    assert abs(base - rotated) < 1e-10


def test_info_nce_diagonal_monotonicity():
    # raising one diagonal logit (moving an anchor toward its positive while
    # keeping other dot products fixed) must strictly decrease the loss
    a = np.eye(3)
    p0 = np.eye(3) * 0.4 + 0.1
    p0 /= np.linalg.norm(p0, axis=1, keepdims=True)
    loss0 = losses.info_nce(a, p0, scale=4.0)[0]
    p1 = np.eye(3) * 0.8 + 0.1
    p1 /= np.linalg.norm(p1, axis=1, keepdims=True)
    loss1 = losses.info_nce(a, p1, scale=4.0)[0]
    assert loss1 < loss0


def test_info_nce_rejects_bad_inputs():
    v = np.eye(2)
    with pytest.raises(ValueError):
        losses.info_nce(v, np.eye(3))
    bad = v.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        losses.info_nce(bad, v)
    with pytest.raises(ValueError, match="scale must be > 0"):
        trainer.TrainConfig(info_nce_scale=0.0)


def test_info_nce_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(20):
        b, m, d = 4, 3, 5
        scale = float(rng.uniform(1, 15))
        a = _unit_rows(rng, b, d)
        p = _unit_rows(rng, b, d)
        x = _unit_rows(rng, m, d) if trial % 3 else None
        loss, ga, gp, gx = losses.info_nce(a, p, x, scale)

        fa = fd_gradient(lambda v: losses.info_nce(v.reshape(b, d), p, x, scale)[0], a)
        assert rel_error(ga, fa) < 1e-4
        fp = fd_gradient(lambda v: losses.info_nce(a, v.reshape(b, d), x, scale)[0], p)
        assert rel_error(gp, fp) < 1e-4
        if x is not None:
            fx = fd_gradient(lambda v: losses.info_nce(a, p, v.reshape(m, d), scale)[0], x)
            assert rel_error(gx, fx) < 1e-4


# ---------------------------------------------------------------------------
# mse


def test_mse_zero_when_equal():
    v = np.arange(12.0).reshape(3, 4)
    loss, grad = losses.mse(v, v.copy())
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_mse_hand_value():
    loss, grad = losses.mse(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert loss == 0.5
    assert np.array_equal(grad, np.array([1.0, 0.0]))


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        losses.mse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pred = rng.normal(size=(5, 64))
        target = rng.normal(size=(5, 64))
        loss, grad = losses.mse(pred, target)
        fd = fd_gradient(lambda v: losses.mse(v.reshape(5, 64), target)[0], pred)
        assert rel_error(grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# cosine_regression


def test_cosine_regression_perfect_fit_is_zero():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, gu, gv = losses.cosine_regression(v, v, np.array([1.0, 1.0]))
    assert loss == 0.0


def test_cosine_regression_orthogonal_gold_zero():
    u = np.array([[1.0, 0.0]])
    v = np.array([[0.0, 1.0]])
    loss, *_ = losses.cosine_regression(u, v, np.array([0.0]))
    assert loss == 0.0


def test_cosine_regression_hand_gradient():
    u = np.array([[1.0, 0.0]])
    v = np.array([[1.0, 0.0]])
    loss, gu, gv = losses.cosine_regression(u, v, np.array([0.0]))
    assert loss == 1.0
    assert np.array_equal(gu, 2.0 * v)
    assert np.array_equal(gv, 2.0 * u)


def test_cosine_regression_rejects_gold_outside_unit_interval():
    v = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        losses.cosine_regression(v, v, np.array([1.5]))


def test_cosine_regression_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(20):
        b, d = 6, 5
        u = _unit_rows(rng, b, d)
        v = _unit_rows(rng, b, d)
        gold = rng.uniform(0, 1, size=b)
        loss, gu, gv = losses.cosine_regression(u, v, gold)
        fu = fd_gradient(lambda w: losses.cosine_regression(
            w.reshape(b, d), v, gold)[0], u)
        fv = fd_gradient(lambda w: losses.cosine_regression(
            u, w.reshape(b, d), gold)[0], v)
        assert rel_error(gu, fu) < 1e-4
        assert rel_error(gv, fv) < 1e-4
