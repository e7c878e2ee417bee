"""Optimization machinery and the training regimes.

Four regimes share one training step, in ``_fit``: each regime gives its
texts, its seeded, shuffled plan of steps (index arrays into those texts)
and an objective that returns the loss and its gradient on a step's output
rows; ``_fit`` tokenizes the texts once and, for every step, runs the
forward pass, the optional linear head, the objective, the backward pass
and AdamW at a warmup-linear rate over the token rows those texts reach.
A regime gives its starting params as a source of rows, not as a table:
``_fit`` makes the trained model's whole table only after the last step.
The three pair regimes lay out their steps through ``_fit_pairs``. Every
regime is a deterministic function of (inputs, seed): re-running produces
bit-identical checkpoints. Gradient accumulation is strictly sequential in
batch order, which is what makes that guarantee hold.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import losses
from . import ontology as onto
from .config import DomainError, TrainConfig, parse_kv_file  # noqa: F401 (read as trainer.parse_kv_file)

log = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# Bias vectors are exempt from decoupled weight decay.
_NO_DECAY = {"b1", "b2", "head_b"}

# Elements per block of an AdamW step and of the decay replay: 256 KB of
# float64, small enough that a step's blocks of params, gradient, moments
# and scratch, or a replay block through every step, stay in cache.
_REPLAY_BLOCK = 1 << 15


class TrainError(DomainError):
    pass


class PhaseError(TrainError):
    """Raised when a checkpoint's phase or lineage violates a regime's
    preconditions."""


@dataclass
class AdamWState:
    """Optimizer state. ``m`` and ``v`` are flat vectors in the params'
    flatten order holding Adam's moments as running sums, M = m / (1 -
    beta1) and V = v / (1 - beta2); ``decay`` lists the slices of that
    order that take weight decay; ``scratch`` is one vector of
    ``min(_REPLAY_BLOCK, n)`` elements that each step writes its
    intermediates into, one block at a time, so a step allocates nothing
    of the params' length."""

    step: int
    m: np.ndarray
    v: np.ndarray
    decay: list[slice]
    scratch: np.ndarray = field(repr=False)


def init_adamw(params: enc.Params) -> AdamWState:
    """Step 0: zero moments, the decay slices of ``params`` and a scratch
    block of ``min(_REPLAY_BLOCK, params.flat.size)`` elements."""
    decay, pos = [], 0
    for name, arr in params.tensor_items():
        if name not in _NO_DECAY:
            decay.append(slice(pos, pos + arr.size))
        pos += arr.size
    n = params.flat.size
    return AdamWState(step=0, m=np.zeros(n), v=np.zeros(n), decay=decay,
                      scratch=np.zeros(min(_REPLAY_BLOCK, n)))


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

    With the moments kept as running sums (``AdamWState``), which
    ``tests/oracles.adamw_reference`` states tensor by tensor: theta <-
    theta * (1 - lr * weight_decay), skipped for bias vectors; then M <-
    beta1 * M + g, V <- beta2 * V + g * g and theta <- theta - M /
    (sqrt(V) + eps_t) * step_size, where c2 = sqrt(1 - beta2**t) /
    sqrt(1 - beta2), eps_t = eps * c2 and step_size = lr / (1 - beta1**t)
    * ((1 - beta1) * c2): torch.optim.AdamW's update with every constant
    moved onto the scalars. The moment and parameter updates run one
    scratch-sized block at a time, so a block's arrays stay in cache. The
    scalars are numpy float64, so a rate that overflows one raises under
    the caller's ``np.errstate``. A non-finite gradient is refused before
    anything is written.
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
    shrink = 1.0 - np.float64(lr) * weight_decay
    c2 = math.sqrt(1.0 - BETA2**t) / math.sqrt(1.0 - BETA2)
    eps_t = EPSILON * c2
    step_size = np.float64(lr) / (1.0 - BETA1**t) * ((1.0 - BETA1) * c2)
    theta, scratch = params.flat, state.scratch
    if weight_decay != 0.0:
        for s in state.decay:
            np.multiply(theta[s], shrink, out=theta[s])
    block = len(scratch)
    for start in range(0, len(theta), block):
        s = slice(start, start + block)
        gs, m, v, p = g[s], state.m[s], state.v[s], theta[s]
        a = scratch[:len(gs)]
        np.multiply(m, BETA1, out=m)
        np.add(m, gs, out=m)
        np.multiply(v, BETA2, out=v)
        np.multiply(gs, gs, out=a)
        np.add(v, a, out=v)
        np.sqrt(v, out=a)
        np.add(a, eps_t, out=a)
        np.divide(m, a, out=a)  # the Adam update
        np.multiply(a, step_size, out=a)
        np.subtract(p, a, out=p)
    state.step = t
    return params, state


@dataclass
class TrainStats:
    """What a regime reports back: total optimizer steps and one loss value
    per epoch. Self-distillation records full-training-set losses at epoch
    boundaries (index 0 is the pre-training loss); the other regimes record
    the mean minibatch loss of each epoch. With no epoch run and no loss
    recorded, ``final_loss`` is None."""

    steps: int
    epoch_losses: list[float]

    @property
    def final_loss(self) -> float | None:
        return self.epoch_losses[-1] if self.epoch_losses else None


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


def build_targets(
    teacher: enc.Checkpoint, kg: onto.KnowledgeGraph, k: int = 64
) -> tuple[PCAModel, np.ndarray]:
    """Distillation targets, one row per concept in ``kg.concept_ids`` order:
    the teacher embeddings of its canonical name and canonical definition,
    averaged (without re-normalizing) and projected onto the top-k PCA
    directions fitted over all concepts' averages."""
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
    return model, pca_project(model, raws)


# ---------------------------------------------------------------------------
# Training regimes


def _dedup_batches(
    pairs: list[onto.TrainingPair], order: np.ndarray, batch_size: int
) -> list[np.ndarray]:
    """Greedy index-array batches with at most one pair per concept each.

    Conflicting pairs are deferred (swap-ahead): they go back to the front
    of the queue and open the next batch. This can produce more batches
    than ceil(n / batch_size) when one concept dominates the remainder.
    """
    remaining = deque(int(i) for i in order)
    batches: list[np.ndarray] = []
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
        batches.append(np.array(batch, dtype=np.int64))
    return batches


def _require_no_head(params: enc.Params, regime: str) -> None:
    if params.has_head:
        raise TrainError(f"{regime} expects a head-free base; strip the head first")


def _replay_decay(table: np.ndarray, reached: np.ndarray, rates: list[float],
                  weight_decay: float) -> None:
    """Apply to every row of ``table`` outside ``reached`` the AdamW steps at
    the finite learning rates ``rates``, in place.

    No batch touches such a row, so its gradient and moments stay +0.0, its
    Adam term is +0.0 / eps_t * step_size = +0.0 (eps_t is positive and, at
    a finite rate, step_size is finite and not negative), and x - (+0.0) is
    x for every x, -0.0 included: ``adamw_step`` changes it only by its
    decay multiply, theta <- theta * (1 - lr * weight_decay), which is
    replayed here, one per rate.
    Each element's update reads only that element and lr, so replaying every
    step on one cache-sized block before the next gives the bits the
    interleaved steps give; with no weight decay the steps leave the row as
    it is.
    """
    if weight_decay == 0.0:
        return
    shrinks = [1.0 - lr * weight_decay for lr in rates]
    untouched = np.ones(len(table), dtype=bool)
    untouched[reached] = False
    rows = max(1, _REPLAY_BLOCK // table.shape[1])
    for start in range(0, len(table), rows):
        block, keep = table[start:start + rows], untouched[start:start + rows]
        theta = block[keep]
        for shrink in shrinks:
            np.multiply(theta, shrink, out=theta)
        block[keep] = theta


def _fit(source, config, texts, plans, objective, cfg: TrainConfig, regime: str,
         full_loss=False) -> tuple[enc.Params, TrainStats]:
    """The one training loop: walk ``plans`` (one list of steps per epoch) in
    order. A step is an index array into ``texts``: it encodes those texts,
    takes ``y = out @ head_w + head_b`` when the params carry a head (else
    ``y = out``) and ``loss, gy = objective(y, index)``, backpropagates
    ``gy`` and takes one AdamW step at the warmup-linear rate. Returns the
    trained params and the run's stats.

    ``source(rows)`` makes the params training starts from, as a new
    ``Params``: with an index array ``rows``, holding only those token
    rows; with None, whole. Every call must give the same values.
    ``texts`` are tokenized once; their ids name every token row the run
    can reach. The steps train ``compact``, ``source`` of those rows. Only
    after the steps, with the moments, the gradient and each step's arrays
    freed, is the whole table made, by ``source(None)``: the trained rows
    and tensors are written into it, ``compact`` is dropped, and only then
    does every other row get the decay the steps gave it
    (``_replay_decay``): bit for bit what full-table AdamW would leave.

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
    del tokens  # its bucket ids would otherwise live as long as the run
    compact = source(reached)
    head, step_texts = compact.has_head, np.array(texts, dtype=object)
    total_steps = sum(len(plan) for plan in plans)
    # the replay's rates are made before the moments and no step's arrays
    # outlive it, so the whole table can take the memory the steps free
    rates = [warmup_linear(step, total_steps, cfg.learning_rate, cfg.warmup_fraction)
             for step in range(total_steps)]
    state = init_adamw(compact)
    # one gradient for the whole run, rewritten by each step's backward
    grad = enc.Params(np.zeros_like(compact.flat), compact.shapes)

    def outputs(index):
        f = enc.forward_tokens(compact, ids.take(index))
        return f, (f.out @ compact.head_w + compact.head_b if head else f.out)

    def full_set_loss():
        every = np.arange(len(texts))
        return objective(outputs(every)[1], every)[0]

    def step(index):
        f, y = outputs(index)
        loss, gy = objective(y, index)
        enc.backward_batch(compact, config, step_texts[index],
                           gy @ compact.head_w.T if head else gy, f, grad)
        if head:
            grad.head_w, grad.head_b = f.out.T @ gy, gy.sum(axis=0)
        adamw_step(compact, grad, state, rates[state.step], cfg.weight_decay)
        return loss

    where = "before epoch 1"
    try:
        epoch_losses = [full_set_loss()] if full_loss else []
        for epoch, plan in enumerate(plans, 1):
            step_losses = []
            for index in plan:
                where = f"at epoch {epoch}, step {state.step + 1}"
                step_losses.append(step(index))
            where = f"after epoch {epoch}"
            epoch_losses.append(full_set_loss() if full_loss else float(np.mean(step_losses)))
    except (ValueError, FloatingPointError) as exc:
        reason = exc
        if isinstance(exc, NonFiniteGradient) and exc.row is not None:
            reason = NonFiniteGradient(exc.tensor, int(reached[exc.row]))
        raise TrainError(f"{regime} training failed {where}: {reason}") from exc
    stats = TrainStats(state.step, epoch_losses)
    del state, grad
    params = source(None)
    table = params.token_table
    table[reached] = compact.token_table
    params.flat[table.size:] = compact.flat[compact.token_table.size:]
    del compact  # the replay writes only the rows outside ``reached``
    _replay_decay(table, reached, rates, cfg.weight_decay)
    return params, stats


def _shuffled_batches(n: int, cfg: TrainConfig, rng) -> list[list[np.ndarray]]:
    """One list of batches per epoch: a fresh ``rng`` permutation of
    range(n) cut into batches of ``cfg.batch_size``. Every epoch's
    permutation is drawn before the first is returned."""
    orders = [rng.permutation(n) for _ in range(cfg.epochs)]
    return [[order[i:i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]
            for order in orders]


def _fit_pairs(source, config, lefts, rights, batches, pair_objective, cfg: TrainConfig,
               regime: str) -> tuple[enc.Params, TrainStats]:
    """``_fit`` over pairs: the texts are every left text, then every right
    one, and a batch of pair indices (one list of batches per epoch) is the
    step ``concat(batch, batch + n)``, its lefts then their rights.
    ``loss, g_left, g_right = pair_objective(left_y, right_y, batch)`` is
    given the two halves of the step's output rows."""
    n = len(lefts)
    plans = [[np.concatenate([batch, batch + n]) for batch in epoch] for epoch in batches]

    def objective(y, index):
        b = len(index) // 2
        loss, g_left, g_right = pair_objective(y[:b], y[b:], index[:b])
        return loss, np.vstack([g_left, g_right])

    return _fit(source, config, lefts + rights, plans, objective, cfg, regime)


def train_contrastive(
    base: enc.Checkpoint,
    corpus: list[onto.TrainingPair],
    cfg: TrainConfig,
) -> tuple[enc.Checkpoint, TrainStats]:
    """Contrastive phase: attract each name to its paired description and
    repel the rest of the batch."""
    if base.phase not in ("base", "sts_adapted"):
        raise PhaseError(
            f"contrastive base must be phase base or sts_adapted, got {base.phase!r}"
        )
    _require_no_head(base.params, "train_contrastive")
    if len(corpus) < 2:
        raise TrainError("corpus must contain at least 2 pairs (in-batch negatives)")
    if cfg.batch_size < 2:
        raise TrainError("batch_size must be >= 2 for the in-batch objective")

    rng = np.random.default_rng(cfg.seed)
    batches = [_dedup_batches(corpus, rng.permutation(len(corpus)), cfg.batch_size)
               for _ in range(cfg.epochs)]
    params, stats = _fit_pairs(
        base.params.take_rows, base.config, [p.anchor.text for p in corpus],
        [p.positive.text for p in corpus], batches,
        lambda a, p, batch: losses.info_nce(a, p), cfg, "contrastive")
    return enc.derive(base, params, "contrastive"), stats


def adapt_sts(model, sts_train, cfg: TrainConfig) -> tuple[enc.Checkpoint, TrainStats]:
    """Similarity-regression adaptation: fit cosine(u, v) to gold/5 over the
    dataset. Used both before the contrastive phase and as a second pass
    after it."""
    rows = sts_train.rows
    if not rows:
        raise TrainError("empty STS dataset")
    _require_no_head(model.params, "adapt_sts")

    batches = _shuffled_batches(len(rows), cfg, np.random.default_rng(cfg.seed))
    gold = np.array([g for _, _, g in rows]) / 5.0
    params, stats = _fit_pairs(
        model.params.take_rows, model.config, [a for a, _, _ in rows], [b for _, b, _ in rows],
        batches, lambda u, v, batch: losses.cosine_regression(u, v, gold[batch]), cfg, "sts")
    return enc.derive(model, params, "sts_adapted"), stats


def train_self_distill(
    base: enc.Checkpoint,
    targets: np.ndarray,
    kg: onto.KnowledgeGraph,
    cfg: TrainConfig,
) -> tuple[enc.Checkpoint, TrainStats]:
    """Self-distillation: attach a fresh linear head and regress every
    textual variant of each concept onto its PCA target, its row of ``targets``.

    The base must not have gone through the contrastive phase (that is the
    whole point of distilling into a past version of the lineage). The head
    is kept in the returned checkpoint; evaluation uses the encoder output
    only, and soups strip the head.
    """
    if "contrastive" in base.history:
        raise PhaseError(
            "self-distillation base must not have undergone the contrastive phase"
        )
    if np.ndim(targets) != 2 or len(targets) != len(kg) or not len(kg):
        raise TrainError(f"targets need one row per concept ({len(kg)}), got {np.shape(targets)}")
    _require_no_head(base.params, "train_self_distill")

    rng = np.random.default_rng(cfg.seed)
    head_seed = int(rng.integers(0, 2**63))

    def with_head(rows):
        rows_of = base.params if rows is None else base.params.take_rows(rows)
        return enc.attach_head(rows_of, base.config, targets.shape[1], head_seed)

    examples = [(desc.text, row) for row, cid in enumerate(kg.concept_ids)
                for desc in onto.all_descriptions(kg, cid)]
    texts = [text for text, _ in examples]
    target_matrix = targets[[row for _, row in examples]]
    plans = _shuffled_batches(len(texts), cfg, rng)
    params, stats = _fit(with_head, base.config, texts, plans,
                         lambda y, index: losses.mse(y, target_matrix[index]), cfg,
                         "self-distill", full_loss=True)
    return enc.derive(base, params, "self_distilled"), stats


def _pivot_rows(pairs: list[onto.ParallelPair]) -> tuple[list[str], np.ndarray]:
    """The distinct source texts of ``pairs`` in order of first appearance,
    and each pair's index into them."""
    rows: dict[str, int] = {}
    row_of = np.array([rows.setdefault(p.source_text, len(rows)) for p in pairs])
    return list(rows), row_of


def pivot_targets(teacher: enc.Checkpoint, pairs: list[onto.ParallelPair]) -> np.ndarray:
    """Cross-lingual targets: the teacher's embedding of each distinct source
    text of ``pairs``, one row each in order of first appearance."""
    return enc.encode_batch(teacher.params, teacher.config, _pivot_rows(pairs)[0])


def train_xlingual(
    targets: np.ndarray,
    student_cfg: enc.EncoderConfig,
    pairs: list[onto.ParallelPair],
    cfg: TrainConfig,
) -> tuple[enc.Checkpoint, TrainStats]:
    """Cross-lingual distillation into a fresh student, onto ``targets``, the
    ``pivot_targets`` of a teacher over ``pairs``.

    Per pair (e, f): loss = 0.5 * (||S(e) - T(e)||^2 + ||S(f) - T(e)||^2),
    averaged over the batch, where T(e) is the row of e in ``targets``. Both
    terms are kept so the student reproduces the teacher on the pivot
    language as well as on translations.
    """
    if not pairs:
        raise TrainError("empty parallel corpus")
    sources, target_of = _pivot_rows(pairs)
    if np.ndim(targets) != 2 or len(targets) != len(sources):
        raise TrainError(f"targets need one row per distinct source ({len(sources)}), "
                         f"got {np.shape(targets)}")
    if student_cfg.output_dim != targets.shape[1]:
        raise TrainError("student output_dim must match the teacher's")

    batches = _shuffled_batches(len(pairs), cfg, np.random.default_rng(cfg.seed))

    def student(rows):
        # one draw for the reached rows and one for the table the steps end
        # in: the table is not held while the steps run
        params = enc.init_params(student_cfg)
        return params if rows is None else params.take_rows(rows)

    def objective(ye, yf, batch):
        b, t = len(batch), targets[target_of[batch]]
        de, df = ye - t, yf - t
        return 0.5 * float((de * de).sum() + (df * df).sum()) / b, de / b, df / b

    params, stats = _fit_pairs(student, student_cfg, [p.source_text for p in pairs],
                               [p.target_text for p in pairs], batches, objective, cfg,
                               "xlingual")
    return enc.Checkpoint(config=student_cfg, phase="xlingual_student", params=params), stats


def translation_gap(
    student: enc.Checkpoint, teacher: enc.Checkpoint, pairs: list[onto.ParallelPair]
) -> float:
    """Mean squared distance between student embeddings of translations and
    teacher embeddings of the pivot texts."""
    if not pairs:
        raise ValueError("no pairs")
    t = pivot_targets(teacher, pairs)[_pivot_rows(pairs)[1]]
    s = enc.encode_batch(student.params, student.config, [p.target_text for p in pairs])
    return float(((s - t) ** 2).sum()) / len(pairs)
