"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the code paths under test: finite
differences instead of analytic gradients, exhaustive enumeration instead of
indexed lookups, scipy instead of the package's own correlation code.
The three helpers at the top are not oracles: they compare parameters and
checkpoints bit for bit, through the package's one writer and one reader.
"""

import io
import math

import numpy as np

from ontoembed import encoder as enc


def params_equal(a, b):
    """Bit-exact equality of two parameter sets."""
    return a.shapes == b.shapes and np.array_equal(a.flat, b.flat)


def checkpoint_to_bytes(ckpt):
    """The bytes ``save_checkpoint`` writes for ``ckpt``."""
    return b"".join(enc.checkpoint_pieces(ckpt))


def checkpoint_from_bytes(data):
    """The checkpoint whose file holds ``data``, read as ``load_checkpoint`` reads it."""
    return enc.read_checkpoint(io.BytesIO(data))


def fnv1a64(data, seed):
    """Seeded 64-bit FNV-1a of ``data``, one byte at a time in Python."""
    mask = (1 << 64) - 1
    h = (0xCBF29CE484222325 ^ (seed & mask)) & mask
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & mask
    return h


def fd_gradient(fn, x, h=1e-6):
    """Central finite differences of a scalar function over an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


def brute_has_cycle(parent_map):
    """Exhaustive cycle check: walk every possible path up to |V| steps."""
    nodes = list(parent_map)
    for start in nodes:
        frontier = [(start, {start})]
        while frontier:
            node, seen = frontier.pop()
            for parent in parent_map[node]:
                if parent == start:
                    return True
                if parent not in seen:
                    frontier.append((parent, seen | {parent}))
    return False


def brute_topk_concepts(name_embeddings, mention_emb, k):
    """Rank concepts by max cosine over synonym rows, ties to smaller id.

    name_embeddings: list of (concept_id, vector).
    """
    best = {}
    for cid, vec in name_embeddings:
        score = float(np.dot(vec, mention_emb))
        if cid not in best or score > best[cid]:
            best[cid] = score
    ranked = sorted(best, key=lambda c: (-best[c], c))
    return ranked[:k]


def rank_concepts_reference(index, mention_emb):
    """NEL ranking by a dict loop over the index entries: each concept's max
    score over its names, concepts by descending max, ties to the smaller
    id. The index has one embedding row per distinct name, in the order the
    names first appear."""
    score_of = dict(zip(dict.fromkeys(index.names), index.embeddings @ mention_emb))
    per_concept = {}
    for cid, score in zip(index.concept_ids, map(score_of.get, index.names)):
        per_concept.setdefault(cid, []).append(float(score))
    pooled = {cid: max(v) for cid, v in per_concept.items()}
    return sorted(pooled, key=lambda cid: (-pooled[cid], cid))


def embedding_lines_reference(texts, rows):
    """The lines ``embed`` writes, built value by value: each text, a tab,
    the comma-joined ``repr`` of each float64 in its row, and a newline."""
    return "".join(text + "\t" + ",".join(map(repr, row.tolist())) + "\n"
                   for text, row in zip(texts, rows)).encode("utf-8")


def brute_nli_accuracy(triples):
    """triples: list of (anchor_vec, entailed_vec, contradicted_vec)."""
    wins = 0
    for a, e, c in triples:
        if float(np.dot(a, e)) > float(np.dot(a, c)):
            wins += 1
    return wins / len(triples)


def brute_greedy_soup(values, scores, labels, evaluate):
    """Scalar-parameter simulation of the greedy soup acceptance rule."""
    order = sorted(range(len(values)), key=lambda i: (-scores[i], labels[i]))
    pool = [order[0]]

    def avg(ids):
        return sum(values[i] for i in ids) / len(ids)

    current = evaluate(avg(pool))
    for i in order[1:]:
        tentative = evaluate(avg(pool + [i]))
        if tentative >= current:
            pool.append(i)
            current = tentative
    return [labels[i] for i in pool], avg(pool)


def adamw_reference(tensors, grads, m, v, step, lr, weight_decay):
    """One functional AdamW step, tensor by tensor, on fresh arrays, with
    the moments kept as running sums: decay first, as one multiply, then
    m <- beta1 * m + g, v <- beta2 * v + g * g and the Adam term with every
    constant moved onto its two scalars, eps_t and step_size.

    tensors, grads, m, v: lists of (name, array) in the same order; step is
    the 1-based step number. Returns (new tensors, new m, new v) as lists of
    (name, array). The bias tensors b1, b2 and head_b skip weight decay.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    c2 = math.sqrt(1.0 - beta2**step) / math.sqrt(1.0 - beta2)
    eps_t = eps * c2
    step_size = lr / (1.0 - beta1**step) * ((1.0 - beta1) * c2)
    new_p, new_m, new_v = [], [], []
    for (name, theta), (_, g), (_, m0), (_, v0) in zip(tensors, grads, m, v):
        if weight_decay != 0.0 and name not in ("b1", "b2", "head_b"):
            theta = theta * (1.0 - lr * weight_decay)
        m2 = beta1 * m0 + g
        v2 = beta2 * v0 + g * g
        denom = np.sqrt(v2) + eps_t
        new_p.append((name, theta - (m2 / denom) * step_size))
        new_m.append((name, m2))
        new_v.append((name, v2))
    return new_p, new_m, new_v


def pooled_reference(table, id_lists):
    """Mean pooling in a Python loop over floats: each text's row is
    ``0.0 + table[id0] + table[id1] + ...``, column by column in token
    order, divided by its token count (an empty text by 1)."""
    rows = []
    for ids in id_lists:
        sums = [0.0] * table.shape[1]
        for i in ids:
            sums = [a + b for a, b in zip(sums, table[i].tolist())]
        rows.append([a / max(len(ids), 1) for a in sums])
    return np.array(rows, dtype=float).reshape(len(id_lists), table.shape[1])


def backward_reference(params, config, texts, output_grads):
    """Dense gradient of ``sum(encode_batch(texts) * output_grads)`` with the
    batch arithmetic of the encoder, but with pooling and the token-table
    gradient scattered by ``np.add.at`` into zero arrays. Returns a dict of
    tensor name -> array."""
    def matmul_rows(x, w):  # zero rows pad x to a multiple of 8, as in the encoder
        pad = np.zeros((-len(x) % 8, x.shape[1]))
        return (np.vstack([x, pad]) @ w)[:len(x)]

    id_lists = [enc.tokenize(config, text) for text in texts]
    ids = np.array([i for id_list in id_lists for i in id_list], dtype=np.intp)
    lengths = np.array([len(id_list) for id_list in id_lists], dtype=np.intp)
    text_of = np.repeat(np.arange(len(texts)), lengths)
    counts = np.maximum(lengths, 1)
    pooled = np.zeros((len(texts), config.embed_dim))
    np.add.at(pooled, text_of, params.token_table[ids])
    pooled /= counts[:, None]
    h = np.tanh(matmul_rows(pooled, params.w1) + params.b1)
    z = matmul_rows(h, params.w2) + params.b2
    raw_norms = np.linalg.norm(z, axis=1)
    norms = np.maximum(raw_norms, enc.NORM_GUARD)
    out = z / norms[:, None]
    dot = np.sum(out * output_grads, axis=1)
    grad_z = np.where((raw_norms > enc.NORM_GUARD)[:, None],
                      (output_grads - out * dot[:, None]) / norms[:, None],
                      output_grads / enc.NORM_GUARD)
    grad_a = (1.0 - h * h) * (grad_z @ params.w2.T)
    table = np.zeros_like(params.token_table)
    np.add.at(table, ids, ((grad_a @ params.w1.T) / counts[:, None])[text_of])
    return {"token_table": table, "w1": pooled.T @ grad_a, "b1": grad_a.sum(axis=0),
            "w2": h.T @ grad_z, "b2": grad_z.sum(axis=0)}


def dense_fit(source, config, texts, plans, objective, cfg, regime, full_loss=False):
    """``trainer._fit`` as the full-table loop it replaced: every step
    encodes through the whole params ``source(None)`` and the bucket ids of
    ``texts`` directly and runs ``trainer.adamw_step`` over the whole
    parameter vector. It takes ``_fit``'s arguments and returns what it
    returns, so a test may put it in ``_fit``'s place; ``regime`` is unused,
    since a failed step is not rewrapped."""
    from ontoembed import trainer

    params = source(None)
    tokens = enc.tokenize_batch(config, texts)
    every = np.arange(len(texts))

    def outputs(index):
        f = enc.forward_tokens(params, tokens.take(index))
        return f, (f.out @ params.head_w + params.head_b if params.has_head else f.out)

    total_steps = sum(len(plan) for plan in plans)
    state = trainer.init_adamw(params)
    epoch_losses = [objective(outputs(every)[1], every)[0]] if full_loss else []
    for plan in plans:
        step_losses = []
        for index in plan:
            lr = trainer.warmup_linear(state.step, total_steps, cfg.learning_rate,
                                       cfg.warmup_fraction)
            f, y = outputs(index)
            loss, gy = objective(y, index)
            g = gy @ params.head_w.T if params.has_head else gy
            grad = enc.backward_batch(params, config, [texts[i] for i in index], g, f)
            if params.has_head:
                grad.head_w = f.out.T @ gy
                grad.head_b = gy.sum(axis=0)
            trainer.adamw_step(params, grad, state, lr, cfg.weight_decay)
            step_losses.append(loss)
        epoch_losses.append(objective(outputs(every)[1], every)[0] if full_loss
                            else float(np.mean(step_losses)))
    return params, trainer.TrainStats(state.step, epoch_losses)


def average_ranks_reference(xs):
    """Ranks starting at 1 by a loop over the stable sort order; each run of
    equal values gets the mean of its positions."""
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs))
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
