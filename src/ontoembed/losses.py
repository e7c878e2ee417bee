"""Training objectives with exact analytic gradients.

Three losses: in-batch InfoNCE over anchor/candidate dot products, plain
mean-squared error, and cosine-similarity regression against gold scores.
All gradients are taken with respect to the input embeddings; pushing them
back through the encoder (including its normalization) is the encoder's
backward pass.
"""

from __future__ import annotations

import numpy as np


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def info_nce(
    anchors: np.ndarray,
    positives: np.ndarray,
    extra_negatives: np.ndarray | None = None,
    scale: float = 20.0,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray | None]:
    """In-batch InfoNCE: each anchor's positive is the matching row among
    candidates = positives ++ extra_negatives, with logits ``scale`` times
    the dot products (scale 20 is softmax temperature 0.05).

    Every row is expected to be unit-norm, as the encoder's outputs are;
    that is not checked. Returns (loss, grad_anchors, grad_positives,
    grad_extras). Log-sum-exp uses max subtraction for stability.
    """
    anchors = np.asarray(anchors, dtype=float)
    positives = np.asarray(positives, dtype=float)
    if anchors.ndim != 2 or positives.shape != anchors.shape:
        raise ValueError("anchors and positives must be matching 2-d arrays")
    if anchors.shape[0] < 1:
        raise ValueError("batch must contain at least one row")
    extras = None
    if extra_negatives is not None and len(extra_negatives) > 0:
        extras = np.asarray(extra_negatives, dtype=float)
        if extras.ndim != 2 or extras.shape[1] != anchors.shape[1]:
            raise ValueError("extra_negatives must be 2-d with matching width")
    if not np.isfinite(anchors).all() or not np.isfinite(positives).all():
        raise ValueError("non-finite embeddings")
    if extras is not None and not np.isfinite(extras).all():
        raise ValueError("non-finite extra negatives")

    candidates = positives if extras is None else np.vstack([positives, extras])
    b = anchors.shape[0]
    logp = _log_softmax(scale * (anchors @ candidates.T))
    loss = -logp[np.arange(b), np.arange(b)].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(b), np.arange(b)] -= 1.0
    dlogits /= b
    grad_anchors = scale * (dlogits @ candidates)
    grad_candidates = scale * (dlogits.T @ anchors)
    return (float(loss), grad_anchors, grad_candidates[:b],
            None if extras is None else grad_candidates[b:])


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of squared entry-wise error; gradient is 2(pred - target)/N with
    N the total number of scalar entries."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float((diff * diff).sum() / n)
    return loss, 2.0 * diff / n


def cosine_regression(
    u: np.ndarray,
    v: np.ndarray,
    gold: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Regress pairwise dot products of unit vectors onto gold scores.

    The rows of u and v are expected to be unit-norm; that is not checked.
    gold must already live in [0, 1] (raw 0-5 ratings divided by 5);
    loss = mean over pairs of (u_i . v_i - gold_i)^2.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gold = np.asarray(gold, dtype=float)
    if u.ndim != 2 or u.shape != v.shape or gold.shape != (u.shape[0],):
        raise ValueError("u, v must be matching 2-d arrays and gold 1-d of the same length")
    if u.shape[0] < 1:
        raise ValueError("need at least one pair")
    if gold.min() < 0.0 or gold.max() > 1.0:
        raise ValueError("gold scores must lie in [0, 1]")
    b = u.shape[0]
    pred = np.sum(u * v, axis=1)
    resid = pred - gold
    loss = float((resid * resid).mean())
    grad_u = (2.0 / b) * resid[:, None] * v
    grad_v = (2.0 / b) * resid[:, None] * u
    return loss, grad_u, grad_v
