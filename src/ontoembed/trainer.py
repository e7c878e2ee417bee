"""Optimization machinery and the training regimes.

Four regimes share one training step, in ``_fit``: each regime gives its
texts, its seeded, shuffled plan of steps (index arrays into those texts)
and an objective that returns the loss and its gradient on a step's output
rows; ``_fit`` tokenizes the texts once and, for every step, runs the
forward pass, the optional linear head, the objective, the backward pass
and AdamW at a warmup-linear rate over the token rows those texts reach.
Every regime is a deterministic function of (inputs, seed): re-running
produces bit-identical checkpoints. Gradient accumulation is strictly
sequential in batch order, which is what makes that guarantee hold.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import losses
from . import ontology as onto
from .config import config_keys, parse_kv_file  # noqa: F401 (read as trainer.parse_kv_file)

log = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# Bias vectors are exempt from decoupled weight decay.
_NO_DECAY = {"b1", "b2", "head_b"}


class TrainError(Exception):
    pass


class PhaseError(TrainError):
    """Raised when a checkpoint's phase or lineage violates a regime's
    preconditions."""


@dataclass(frozen=True)
class TrainConfig:
    """Shared hyperparameters for all regimes.

    The recorded defaults follow the reference setup (lr 2e-5, weight decay
    0.01, 5% warmup, batch 128); desk-scale runs usually override the
    learning rate upwards since the toy encoder is trained from scratch.
    """

    learning_rate: float = 2e-5
    weight_decay: float = 0.01
    warmup_fraction: float = 0.05
    epochs: int = 1
    batch_size: int = 128
    seed: int = 0
    hard_negatives_per_batch: int = 0
    info_nce_scale: float = 20.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not (0.0 <= self.warmup_fraction <= 1.0):
            raise ValueError("warmup_fraction must be in [0, 1]")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.hard_negatives_per_batch < 0:
            raise ValueError("hard_negatives_per_batch must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.info_nce_scale <= 0:
            raise ValueError("scale must be > 0")


# Every key a training config file may set, and those only contrastive training reads.
TRAIN_CONFIG_KEYS = config_keys(TrainConfig)
CONTRASTIVE_ONLY_KEYS = ("hard_negatives_per_batch", "info_nce_scale")


@dataclass
class AdamWState:
    """Optimizer state. ``m`` and ``v`` are flat vectors in the params'
    flatten order; ``decay`` lists the slices of that order that take weight
    decay; ``scratch`` holds two vectors of the same length that each step
    writes its intermediates into, so a step allocates nothing of that size."""

    step: int
    m: np.ndarray
    v: np.ndarray
    decay: list[slice]
    scratch: tuple[np.ndarray, np.ndarray] = field(repr=False)


def init_adamw(params: enc.Params) -> AdamWState:
    decay, pos = [], 0
    for name, arr in params.tensor_items():
        if name not in _NO_DECAY:
            decay.append(slice(pos, pos + arr.size))
        pos += arr.size
    m, v, a, b = (np.zeros_like(params.flat) for _ in range(4))
    return AdamWState(step=0, m=m, v=v, decay=decay, scratch=(a, b))


def warmup_linear(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Linear ramp over the first round(warmup_fraction * total_steps) steps
    (at least one), then linear decay to base_lr / (total - warmup)."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not (0 <= step < total_steps):
        raise ValueError("step must satisfy 0 <= step < total_steps")
    w = max(1, round(warmup_fraction * total_steps))
    if step < w:
        return base_lr * (step + 1) / w
    return base_lr * (total_steps - step) / (total_steps - w)


class NonFiniteGradient(ValueError):
    """A gradient holds NaN or infinity in ``tensor``; ``row`` is the first
    token-table row that does, or None for another tensor."""

    def __init__(self, tensor: str, row: int | None = None):
        self.tensor, self.row = tensor, row
        super().__init__(f"non-finite gradient for {tensor}"
                         + ("" if row is None else f" row {row}"))


def adamw_step(
    params: enc.Params,
    grads: enc.Params,
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[enc.Params, AdamWState]:
    """One decoupled-weight-decay Adam update of ``params.flat``, ``state.m``
    and ``state.v`` in place; returns the same (params, state) objects.

    theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta),
    with the decay term skipped for bias vectors. Each element sees the same
    float operations in the same order as the textbook per-tensor update.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if grads.shapes != params.shapes:
        raise ValueError("gradient structure does not match params")
    g = grads.flat
    if not np.isfinite(g).all():
        name, arr = next((n, a) for n, a in grads.tensor_items() if not np.isfinite(a).all())
        row = None
        if name == "token_table":
            row = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise NonFiniteGradient(name, row)
    t = state.step + 1
    theta, m, v = params.flat, state.m, state.v
    a, b = state.scratch
    np.multiply(m, BETA1, out=m)
    np.multiply(g, 1.0 - BETA1, out=a)
    np.add(m, a, out=m)
    np.multiply(v, BETA2, out=v)
    np.multiply(g, g, out=a)
    np.multiply(a, 1.0 - BETA2, out=a)
    np.add(v, a, out=v)
    np.divide(m, 1.0 - BETA1**t, out=a)
    np.divide(v, 1.0 - BETA2**t, out=b)
    np.sqrt(b, out=b)
    np.add(b, EPSILON, out=b)
    np.divide(a, b, out=a)  # the Adam update
    if weight_decay != 0.0:
        for s in state.decay:
            np.multiply(theta[s], weight_decay, out=b[s])
            np.add(a[s], b[s], out=a[s])
    np.multiply(a, lr, out=a)
    np.subtract(theta, a, out=theta)
    state.step = t
    return params, state


@dataclass
class TrainStats:
    """What a regime reports back: total optimizer steps and one loss value
    per epoch. Self-distillation records full-training-set losses at epoch
    boundaries (index 0 is the pre-training loss); the other regimes record
    the mean minibatch loss of each epoch."""

    steps: int
    epoch_losses: list[float]

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


# ---------------------------------------------------------------------------
# PCA


@dataclass
class PCAModel:
    """Mean vector plus orthonormal principal directions (rows), descending
    explained variance."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray


def pca_fit(x: np.ndarray, k: int) -> PCAModel:
    """Top-k PCA via SVD of the centered data matrix.

    Sign convention: each component's largest-magnitude entry is made
    positive, so the decomposition is deterministic. Requires
    1 <= k <= min(N-1, D) and non-degenerate data (not all rows equal).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an N x D matrix")
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 rows")
    if not (1 <= k <= min(n - 1, d)):
        raise ValueError(f"k must be in [1, {min(n - 1, d)}], got {k}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("degenerate data: all rows identical (zero variance)")
    components = vt[:k].copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PCAModel(
        mean=mean,
        components=components,
        explained_variance=(s[:k] ** 2) / (n - 1),
    )


def pca_project(model: PCAModel, x: np.ndarray) -> np.ndarray:
    """components @ (x - mean); accepts a single D-vector or an N x D batch."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: vector has {x.shape[-1]}, model expects {model.mean.shape[0]}"
        )
    return (x - model.mean) @ model.components.T


def pca_dim_limit(concepts: int, output_dim: int) -> int:
    """The largest ``k`` that ``build_targets`` can fit over ``concepts``
    concepts with a teacher of ``output_dim`` outputs: ``pca_fit``'s
    min(N - 1, D)."""
    return min(concepts - 1, output_dim)


@dataclass(frozen=True)
class DistillTarget:
    concept_id: str
    target: np.ndarray


def build_targets(
    teacher: enc.Checkpoint, kg: onto.KnowledgeGraph, k: int = 64
) -> tuple[PCAModel, list[DistillTarget]]:
    """Distillation targets: for each concept, the teacher embeddings of its
    canonical name and canonical definition are averaged (without
    re-normalizing) and projected onto the top-k PCA directions fitted over
    all concepts' averages."""
    if teacher.phase not in ("contrastive", "sts_adapted"):
        raise PhaseError(
            f"teacher phase must be contrastive or sts_adapted, got {teacher.phase!r}"
        )
    ids = kg.concept_ids
    if not ids:
        raise ValueError("empty knowledge graph")
    texts = [kg.get(cid).canonical_name for cid in ids]
    texts += [onto.canonical_definition(kg, cid) for cid in ids]
    emb = enc.encode_batch(teacher.params, teacher.config, texts)
    raws = 0.5 * (emb[:len(ids)] + emb[len(ids):])
    model = pca_fit(raws, k)
    projected = pca_project(model, raws)
    targets = [DistillTarget(cid, projected[i].copy()) for i, cid in enumerate(ids)]
    return model, targets


# ---------------------------------------------------------------------------
# Training regimes


def _dedup_batches(
    pairs: list[onto.TrainingPair], order: np.ndarray, batch_size: int
) -> list[list[int]]:
    """Greedy batching with at most one pair per concept per batch.

    Conflicting pairs are deferred (swap-ahead): they go back to the front
    of the queue and open the next batch. This can produce more batches
    than ceil(n / batch_size) when one concept dominates the remainder.
    """
    remaining = deque(int(i) for i in order)
    batches: list[list[int]] = []
    while remaining:
        batch: list[int] = []
        seen: set[str] = set()
        skipped: list[int] = []
        while remaining and len(batch) < batch_size:
            i = remaining.popleft()
            cid = pairs[i].concept_id
            if cid in seen:
                skipped.append(i)
            else:
                batch.append(i)
                seen.add(cid)
        remaining.extendleft(reversed(skipped))
        batches.append(batch)
    return batches


def _require_no_head(params: enc.Params, regime: str) -> None:
    if params.has_head:
        raise TrainError(f"{regime} expects a head-free base; strip the head first")


# Elements of the token table per block of the decay replay: 256 KB of
# float64, small enough that a block stays in cache through every step.
_REPLAY_BLOCK = 1 << 15


def _replay_decay(table: np.ndarray, reached: np.ndarray, rates: list[float],
                  weight_decay: float) -> None:
    """Apply to every row of ``table`` outside ``reached`` the AdamW steps at
    the learning rates ``rates``, in place.

    No batch touches such a row, so its gradient is +0.0 at every step and
    its moments stay +0.0. ``adamw_step`` then computes the Adam update as
    +0.0 / (sqrt(+0.0) + eps) = +0.0, adds the decay term to it and subtracts
    lr times the sum: theta <- theta - lr * (0.0 + weight_decay * theta).
    That is replayed here with the same operations in the same order. The
    ``0.0 +`` is kept: it turns a decay term of -0.0 (theta -0.0, or a tiny
    theta whose product underflows) into +0.0, and theta - lr * (+0.0) keeps
    a -0.0 theta where theta - lr * (-0.0) would make it +0.0. Each element's
    update reads only that element and lr, so replaying every step on one
    cache-sized block before the next gives the bits the interleaved steps
    give; with no weight decay the update subtracts +0.0 and changes nothing.
    """
    if weight_decay == 0.0:
        return
    untouched = np.ones(len(table), dtype=bool)
    untouched[reached] = False
    rows = max(1, _REPLAY_BLOCK // table.shape[1])
    for start in range(0, len(table), rows):
        block, keep = table[start:start + rows], untouched[start:start + rows]
        theta = block[keep]
        decay = np.empty_like(theta)
        for lr in rates:
            np.multiply(theta, weight_decay, out=decay)
            np.add(0.0, decay, out=decay)
            np.multiply(decay, lr, out=decay)
            np.subtract(theta, decay, out=theta)
        block[keep] = theta


def _fit(params, config, texts, plans, objective, cfg: TrainConfig, regime: str,
         full_loss=False) -> TrainStats:
    """The one training loop: walk ``plans`` (one list of steps per epoch) in
    order. A step is an index array into ``texts``: it encodes those texts,
    takes ``y = out @ head_w + head_b`` when ``params`` carry a head (else
    ``y = out``) and ``loss, gy = objective(y, index)``, backpropagates
    ``gy`` and takes one AdamW step at the warmup-linear rate.

    ``texts`` are tokenized once; their ids name every token row the run
    can reach. The steps train ``compact``, a copy of ``params`` holding
    only those rows. At the end the trained rows and tensors are written
    back into ``params``, and every other row gets the decay the steps gave
    it (``_replay_decay``): bit for bit what full-table AdamW would leave.

    Epoch losses are the mean step loss of each epoch, or, with
    ``full_loss``, the objective over every text before training and after
    each epoch. A ValueError or FloatingPointError in a step or a full loss,
    such as a non-finite gradient, is raised again as a TrainError naming
    ``regime`` and where it failed: at epoch E, step S (both from 1), or
    before or after an epoch; a non-finite token row is named by its bucket
    id.
    """
    tokens = enc.tokenize_batch(config, texts)
    reached, remapped = np.unique(tokens.ids, return_inverse=True)
    ids = enc.Tokens(remapped, tokens.offsets)
    compact, head = params.take_rows(reached), params.has_head
    total_steps = sum(len(plan) for plan in plans)
    state = init_adamw(compact)
    rates = []

    def outputs(index):
        f = enc.forward_tokens(compact, ids.take(index))
        return f, (f.out @ compact.head_w + compact.head_b if head else f.out)

    def full_set_loss():
        every = np.arange(len(texts))
        return objective(outputs(every)[1], every)[0]

    where = "before epoch 1"
    try:
        epoch_losses = [full_set_loss()] if full_loss else []
        for epoch, plan in enumerate(plans, 1):
            step_losses = []
            for index in plan:
                where = f"at epoch {epoch}, step {state.step + 1}"
                lr = warmup_linear(state.step, total_steps, cfg.learning_rate,
                                   cfg.warmup_fraction)
                f, y = outputs(index)
                loss, gy = objective(y, index)
                grad = enc.backward_batch(compact, config, [texts[i] for i in index],
                                          gy @ compact.head_w.T if head else gy, f)
                if head:
                    grad.head_w, grad.head_b = f.out.T @ gy, gy.sum(axis=0)
                adamw_step(compact, grad, state, lr, cfg.weight_decay)
                rates.append(lr)
                step_losses.append(loss)
            where = f"after epoch {epoch}"
            epoch_losses.append(full_set_loss() if full_loss else float(np.mean(step_losses)))
    except (ValueError, FloatingPointError) as exc:
        reason = exc
        if isinstance(exc, NonFiniteGradient) and exc.row is not None:
            reason = NonFiniteGradient(exc.tensor, int(reached[exc.row]))
        raise TrainError(f"{regime} training failed {where}: {reason}") from exc
    table = params.token_table
    _replay_decay(table, reached, rates, cfg.weight_decay)
    table[reached] = compact.token_table
    params.flat[table.size:] = compact.flat[compact.token_table.size:]
    return TrainStats(state.step, epoch_losses)


def _shuffled_plans(n: int, copies: int, cfg: TrainConfig, rng) -> list[list[np.ndarray]]:
    """One plan per epoch: a fresh ``rng`` permutation of range(n) cut into
    batches of ``cfg.batch_size``. A step indexes its batch in each of
    ``copies`` consecutive blocks of n texts, such as every pair's left
    side, then every pair's right side."""
    plans = []
    for _ in range(cfg.epochs):
        order, size = rng.permutation(n), cfg.batch_size
        plans.append([np.concatenate([order[i:i + size] + k * n for k in range(copies)])
                      for i in range(0, n, size)])
    return plans


def train_contrastive(
    base: enc.Checkpoint,
    corpus: list[onto.TrainingPair],
    kg: onto.KnowledgeGraph,
    cfg: TrainConfig,
) -> tuple[enc.Checkpoint, TrainStats]:
    """Contrastive phase: attract each name to its paired description and
    repel the rest of the batch, optionally with ontological hard negatives
    appended as shared extra candidates."""
    if base.phase not in ("base", "sts_adapted"):
        raise PhaseError(
            f"contrastive base must be phase base or sts_adapted, got {base.phase!r}"
        )
    _require_no_head(base.params, "train_contrastive")
    if len(corpus) < 2:
        raise TrainError("corpus must contain at least 2 pairs (in-batch negatives)")
    if cfg.batch_size < 2:
        raise TrainError("batch_size must be >= 2 for the in-batch objective")

    # texts: every anchor, then every positive, then, when hard negatives
    # are drawn, every concept's canonical name
    n = len(corpus)
    names = kg.concept_ids if cfg.hard_negatives_per_batch > 0 else []
    texts = ([p.anchor.text for p in corpus] + [p.positive.text for p in corpus]
             + [kg.get(cid).canonical_name for cid in names])
    name_index = {cid: 2 * n + k for k, cid in enumerate(names)}
    rng = np.random.default_rng(cfg.seed)

    def step(batch):
        # a step is its anchors, their positives, then its hard negatives' names
        hard = _draw_hard_negatives(kg, [corpus[i].concept_id for i in batch],
                                    cfg.hard_negatives_per_batch, rng)
        return np.array(batch + [i + n for i in batch] + [name_index[cid] for cid in hard])

    plans = [[step(batch)
              for batch in _dedup_batches(corpus, rng.permutation(n), cfg.batch_size)]
             for _ in range(cfg.epochs)]

    def objective(y, index):
        b = int(np.count_nonzero(index < n))
        loss, ga, gp, gx = losses.info_nce(y[:b], y[b:2 * b], y[2 * b:], cfg.info_nce_scale)
        return loss, np.vstack([ga, gp] + ([gx] if gx is not None else []))

    params = base.params.copy()
    stats = _fit(params, base.config, texts, plans, objective, cfg, "contrastive")
    return enc.derive(base, params, "contrastive"), stats


def _draw_hard_negatives(
    kg: onto.KnowledgeGraph, batch_concepts: list[str], count: int, rng
) -> list[str]:
    """Collect up to ``count`` hard-negative concept ids for a batch, one
    query per batch concept in order, skipping ids already present. Unless
    ``count`` is 0, the queries are seeded from one draw of ``rng``."""
    if count <= 0:
        return []
    seed = int(rng.integers(0, 2**63))
    in_batch = set(batch_concepts)
    chosen: list[str] = []
    for offset, cid in enumerate(batch_concepts):
        # each query draws at most one id
        for hn in onto.sample_hard_negatives(kg, cid, 1, seed + offset):
            if hn not in in_batch and hn not in chosen:
                chosen.append(hn)
        if len(chosen) >= count:
            break
    return chosen


def adapt_sts(model, sts_train, cfg: TrainConfig) -> tuple[enc.Checkpoint, TrainStats]:
    """Similarity-regression adaptation: fit cosine(u, v) to gold/5 over the
    dataset. Used both before the contrastive phase and as a second pass
    after it."""
    rows = sts_train.rows
    if not rows:
        raise TrainError("empty STS dataset")
    _require_no_head(model.params, "adapt_sts")

    n = len(rows)
    plans = _shuffled_plans(n, 2, cfg, np.random.default_rng(cfg.seed))
    texts = [a for a, _, _ in rows] + [b for _, b, _ in rows]
    gold = np.array([g for _, _, g in rows]) / 5.0

    def objective(y, index):
        b = len(index) // 2
        loss, gu, gv = losses.cosine_regression(y[:b], y[b:], gold[index[:b]])
        return loss, np.vstack([gu, gv])

    params = model.params.copy()
    stats = _fit(params, model.config, texts, plans, objective, cfg, "sts")
    return enc.derive(model, params, "sts_adapted"), stats


def _distill_examples(
    kg: onto.KnowledgeGraph, targets: list[DistillTarget]
) -> tuple[list[str], np.ndarray]:
    texts: list[str] = []
    rows: list[np.ndarray] = []
    for t in targets:
        for desc in onto.all_descriptions(kg, t.concept_id):
            texts.append(desc.text)
            rows.append(t.target)
    return texts, np.array(rows)


def train_self_distill(
    base: enc.Checkpoint,
    targets: list[DistillTarget],
    kg: onto.KnowledgeGraph,
    cfg: TrainConfig,
) -> tuple[enc.Checkpoint, TrainStats]:
    """Self-distillation: attach a fresh linear head and regress every
    textual variant of each concept onto that concept's PCA target.

    The base must not have gone through the contrastive phase (that is the
    whole point of distilling into a past version of the lineage). The head
    is kept in the returned checkpoint; evaluation uses the encoder output
    only, and soups strip the head.
    """
    if "contrastive" in base.history:
        raise PhaseError(
            "self-distillation base must not have undergone the contrastive phase"
        )
    if not targets:
        raise TrainError("no distillation targets")
    _require_no_head(base.params, "train_self_distill")
    k = targets[0].target.shape[0]
    if any(t.target.shape != (k,) for t in targets):
        raise TrainError("inconsistent target dimensions")

    rng = np.random.default_rng(cfg.seed)
    params = enc.attach_head(base.params, base.config, k, int(rng.integers(0, 2**63)))
    texts, target_matrix = _distill_examples(kg, targets)
    plans = _shuffled_plans(len(texts), 1, cfg, rng)
    stats = _fit(params, base.config, texts, plans,
                 lambda y, index: losses.mse(y, target_matrix[index]), cfg, "self-distill",
                 full_loss=True)
    return enc.derive(base, params, "self_distilled"), stats


def train_xlingual(
    teacher: enc.Checkpoint,
    student_cfg: enc.EncoderConfig,
    pairs: list[onto.ParallelPair],
    cfg: TrainConfig,
) -> tuple[enc.Checkpoint, TrainStats]:
    """Cross-lingual distillation into a fresh student.

    Per pair (e, f): loss = 0.5 * (||S(e) - T(e)||^2 + ||S(f) - T(e)||^2),
    averaged over the batch, with the teacher frozen throughout. Both terms
    are kept so the student reproduces the teacher on the pivot language as
    well as on translations.
    """
    if not pairs:
        raise TrainError("empty parallel corpus")
    if student_cfg.output_dim != teacher.config.output_dim:
        raise TrainError("student output_dim must match the teacher's")

    sources = list(dict.fromkeys(p.source_text for p in pairs))
    teacher_emb = dict(zip(sources, enc.encode_batch(teacher.params, teacher.config, sources)))

    params = enc.init_params(student_cfg)
    n = len(pairs)
    plans = _shuffled_plans(n, 2, cfg, np.random.default_rng(cfg.seed))
    # texts: every pair's source, then every pair's target
    texts = [p.source_text for p in pairs] + [p.target_text for p in pairs]
    targets = np.array([teacher_emb[p.source_text] for p in pairs])

    def objective(y, index):
        b = len(index) // 2
        t = targets[index[:b]]
        de, df = y[:b] - t, y[b:] - t
        loss = 0.5 * float((de * de).sum() + (df * df).sum()) / b
        return loss, np.vstack([de, df]) / b

    stats = _fit(params, student_cfg, texts, plans, objective, cfg, "xlingual")
    return enc.Checkpoint(config=student_cfg, phase="xlingual_student", params=params), stats


def translation_gap(
    student: enc.Checkpoint, teacher: enc.Checkpoint, pairs: list[onto.ParallelPair]
) -> float:
    """Mean squared distance between student embeddings of translations and
    teacher embeddings of the pivot texts."""
    if not pairs:
        raise ValueError("no pairs")
    t = enc.encode_batch(teacher.params, teacher.config, [p.source_text for p in pairs])
    s = enc.encode_batch(student.params, student.config, [p.target_text for p in pairs])
    return float(((s - t) ** 2).sum()) / len(pairs)
