"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the code paths under test: finite
differences instead of analytic gradients, exhaustive enumeration instead of
indexed lookups, scipy instead of the package's own correlation code.
"""

import numpy as np


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


def brute_ancestors(kg, cid):
    seen = set()
    frontier = [cid]
    while frontier:
        node = frontier.pop()
        for parent in kg.get(node).parents:
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return seen


def brute_hard_negative_pool(kg, cid):
    ancestors = brute_ancestors(kg, cid)
    pool = set()
    for anc in ancestors:
        for other in kg.concept_ids:
            if anc in kg.get(other).parents:
                pool.add(other)
    pool.discard(cid)
    pool -= ancestors
    return sorted(pool)


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
    """One functional AdamW step, tensor by tensor, on fresh arrays.

    tensors, grads, m, v: lists of (name, array) in the same order; step is
    the 1-based step number. Returns (new tensors, new m, new v) as lists of
    (name, array). The bias tensors b1, b2 and head_b skip weight decay.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    new_p, new_m, new_v = [], [], []
    for (name, theta), (_, g), (_, m0), (_, v0) in zip(tensors, grads, m, v):
        m2 = beta1 * m0 + (1.0 - beta1) * g
        v2 = beta2 * v0 + (1.0 - beta2) * (g * g)
        mhat = m2 / (1.0 - beta1**step)
        vhat = v2 / (1.0 - beta2**step)
        update = mhat / (np.sqrt(vhat) + eps)
        if weight_decay != 0.0 and name not in ("b1", "b2", "head_b"):
            update = update + weight_decay * theta
        new_p.append((name, theta - lr * update))
        new_m.append((name, m2))
        new_v.append((name, v2))
    return new_p, new_m, new_v
