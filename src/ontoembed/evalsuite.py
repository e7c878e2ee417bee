"""Evaluation protocol: STS (Pearson), BCR (Spearman), NEL (exact top-k over
a synonym index) and entailment-triplet accuracy.

All evaluations are read-only over the model and graph, row order is
canonical (file order), and every metric has an independently implemented
oracle in the test suite that it must match to 1e-12.

Dataset files, TSVs read through ``ontology.read_records``:
  STS / BCR  text_a <TAB> text_b <TAB> gold
  NEL        mention <TAB> concept_id
  NLI        anchor <TAB> entailed <TAB> contradicted
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import ontology as onto


class EvalError(Exception):
    pass


class ZeroVarianceError(EvalError):
    pass


class DegenerateModelError(EvalError):
    """The model produced constant predictions; a correlation would be NaN."""


class DatasetError(EvalError):
    pass


# ---------------------------------------------------------------------------
# Datasets


@dataclass(frozen=True)
class StsDataset:
    """Sentence pairs with gold similarity in [0, 5]."""

    rows: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        _check_pair_rows(self.rows)
        for a, b, g in self.rows:
            if not (0.0 <= g <= 5.0):
                raise DatasetError(f"STS gold {g} outside [0, 5]")


@dataclass(frozen=True)
class BcrDataset:
    """Concept-mention pairs with gold relatedness on any real scale."""

    rows: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        _check_pair_rows(self.rows)


@dataclass(frozen=True)
class NelDataset:
    rows: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.rows:
            raise DatasetError("empty NEL dataset")
        for mention, cid in self.rows:
            if not mention or not cid:
                raise DatasetError("NEL rows need a mention and a concept id")


@dataclass(frozen=True)
class NliTripleDataset:
    rows: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        if not self.rows:
            raise DatasetError("empty NLI dataset")
        for row in self.rows:
            if any(not t for t in row):
                raise DatasetError("NLI rows need three non-empty texts")


def _check_pair_rows(rows) -> None:
    if len(rows) < 2:
        raise DatasetError("need at least 2 rows for a correlation")
    golds = [g for _, _, g in rows]
    if max(golds) == min(golds):
        raise DatasetError("gold scores have zero variance")


def _load(dataset_cls, path, columns: int, row=lambda *fields: fields):
    """``dataset_cls`` over the rows ``row`` makes from the lines of the TSV
    at ``path``; every error names the file, and a malformed line its line."""
    try:
        rows = onto.read_records(path, row, columns)
    except onto.ParseError as exc:
        raise DatasetError(str(exc)) from exc
    try:
        return dataset_cls(rows=tuple(rows))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def _scored(a: str, b: str, gold: str) -> tuple[str, str, float]:
    return a, b, float(gold)


def _sts_scored(a: str, b: str, gold: str) -> tuple[str, str, float]:
    row = _scored(a, b, gold)
    if not (0.0 <= row[2] <= 5.0):
        raise ValueError(f"STS gold {row[2]} outside [0, 5]")
    return row


def load_sts_dataset(path) -> StsDataset:
    return _load(StsDataset, path, 3, _sts_scored)


def load_bcr_dataset(path) -> BcrDataset:
    return _load(BcrDataset, path, 3, _scored)


def load_nel_dataset(path) -> NelDataset:
    return _load(NelDataset, path, 2)


def load_nli_dataset(path) -> NliTripleDataset:
    return _load(NliTripleDataset, path, 3)


# ---------------------------------------------------------------------------
# Correlations


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; rejects zero variance on either side."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 2:
        raise ValueError("need at least 2 observations")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("zero variance input")
    return float((dx @ dy) / np.sqrt(sx * sy))


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties receive the mean of their rank positions."""
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


def spearman(xs, ys) -> float:
    """Pearson correlation of average ranks."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    return pearson(_average_ranks(xs), _average_ranks(ys))


# ---------------------------------------------------------------------------
# Reports and digests


@dataclass(frozen=True)
class EvalReport:
    benchmark: str
    metric: str
    value: float
    n: int


def model_digest(ckpt: enc.Checkpoint) -> str:
    """The SHA-256 of ``ckpt``'s checkpoint file, hashed without building it."""
    h = hashlib.sha256()
    for piece in enc.checkpoint_pieces(ckpt):
        h.update(piece)
    return h.hexdigest()


def data_digest(rows) -> str:
    payload = json.dumps([list(r) for r in rows], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Evaluations


def _cosine_rows(model: enc.Checkpoint, pairs) -> np.ndarray:
    """Cosine per pair. Identical texts score exactly 1.0: the float dot
    product of a unit vector with itself carries rounding noise, while the
    true cosine of identical embeddings is 1 by definition."""
    left = enc.encode_batch(model.params, model.config, [a for a, _ in pairs])
    right = enc.encode_batch(model.params, model.config, [b for _, b in pairs])
    cos = np.sum(left * right, axis=1)
    cos[np.array([a == b for a, b in pairs], dtype=bool)] = 1.0
    return cos


def _eval_correlation(model: enc.Checkpoint, rows, benchmark: str, metric: str,
                      correlation) -> EvalReport:
    preds = _cosine_rows(model, [(a, b) for a, b, _ in rows])
    gold = np.array([g for _, _, g in rows])
    if preds.max() == preds.min():
        raise DegenerateModelError(f"constant predictions on the {benchmark.upper()} dataset")
    return EvalReport(benchmark, metric, correlation(preds, gold), len(rows))


def eval_sts(model: enc.Checkpoint, dataset: StsDataset) -> EvalReport:
    """Pearson correlation between embedding cosines and gold similarity."""
    return _eval_correlation(model, dataset.rows, "sts", "pearson", pearson)


def eval_bcr(model: enc.Checkpoint, dataset: BcrDataset) -> EvalReport:
    """Spearman correlation between embedding cosines and gold relatedness."""
    return _eval_correlation(model, dataset.rows, "bcr", "spearman", spearman)


@dataclass
class NelIndex:
    """Exact-search synonym index: one entry per (concept, name), and one
    embedding per distinct name, the rows of ``embeddings`` in the order the
    names first appear. Entries that share a name share its row, so they
    score the same bit for bit.

    ``concepts`` holds the distinct concept ids in ascending order; the
    embedding rows taken in ``order`` are the entries grouped by concept,
    the group of ``concepts[j]`` starting at ``starts[j]``.
    """

    embeddings: np.ndarray
    concept_ids: list[str]
    names: list[str]
    concepts: np.ndarray = field(init=False, repr=False)  # of str objects
    order: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        row_of: dict[str, int] = {}
        rows = np.array([row_of.setdefault(name, len(row_of)) for name in self.names],
                        dtype=np.intp)
        if len(self.embeddings) != len(row_of):
            raise ValueError(f"{len(self.embeddings)} embeddings for {len(row_of)} distinct names")
        self.concepts = np.array(sorted(set(self.concept_ids)), dtype=object)
        position = {cid: j for j, cid in enumerate(self.concepts)}
        group = np.array([position[cid] for cid in self.concept_ids], dtype=np.intp)
        grouped = np.argsort(group, kind="stable")
        self.order = rows[grouped]
        self.starts = np.searchsorted(group[grouped], np.arange(len(self.concepts)))


def build_nel_index(model: enc.Checkpoint, kg: onto.KnowledgeGraph) -> NelIndex:
    """Index every name of every concept. A surface string shared by several
    concepts stays an entry of each, and is embedded once."""
    if len(kg) == 0:
        raise EvalError("empty knowledge graph")
    concept_ids = [c.id for c in kg.concepts() for _ in c.names]
    names = [name for c in kg.concepts() for name in c.names]
    embeddings = enc.encode_batch(model.params, model.config, list(dict.fromkeys(names)))
    return NelIndex(embeddings=embeddings, concept_ids=concept_ids, names=names)


# Mentions scored at a time by ``eval_nel``: its score block holds this many
# rows of one score per index name.
NEL_BLOCK = 128


def _score_blocks(index: NelIndex, mentions: np.ndarray):
    """Yield ``(first, scores)`` over blocks of at most NEL_BLOCK mentions:
    ``scores[r]`` is ``(index.embeddings @ mentions[first + r])[index.order]``,
    bit for bit. Each row is its own matrix-vector product, because neither
    one product over the block nor one over the index's rows taken in
    ``order`` rounds the same. ``scores`` is overwritten by the next block."""
    block = np.empty((min(len(mentions), NEL_BLOCK), len(index.embeddings)))
    grouped = np.empty((len(block), len(index.order)))
    for first in range(0, len(mentions), NEL_BLOCK):
        rows = mentions[first:first + NEL_BLOCK]
        for r, mention in enumerate(rows):
            np.matmul(index.embeddings, mention, out=block[r])
        # order holds valid indices only; with out=, the default mode buffers a copy
        yield first, np.take(block[:len(rows)], index.order, axis=1, out=grouped[:len(rows)],
                             mode="clip")


def _gold_ranks(best: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Row i's place (from 0) of column ``gold[i]`` when the columns of
    ``best[i]`` are ranked by descending score, ties to the smaller column:
    the columns scoring higher, plus the columns to its left scoring the
    same. -0.0 ties +0.0."""
    own = best[np.arange(len(best)), gold][:, None]
    left = np.arange(best.shape[1]) < gold[:, None]
    return np.count_nonzero(best > own, axis=1) + np.count_nonzero((best == own) & left, axis=1)


def eval_nel(
    model: enc.Checkpoint,
    kg: onto.KnowledgeGraph,
    dataset: NelDataset,
    k_list: list[int] = (1,),
) -> list[EvalReport]:
    """Top-k linking accuracy, one report per k.

    Concepts are ranked by max cosine over their synonyms; ties
    break toward the smaller concept id, so results are deterministic.
    A mention hits at k when fewer than k concepts rank above its gold
    concept.
    """
    for _, gold in dataset.rows:
        if gold not in kg:
            raise EvalError(f"gold concept id {gold!r} does not resolve in the graph")
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise ValueError("k values must be >= 1")
    index = build_nel_index(model, kg)
    mentions = enc.encode_batch(model.params, model.config, [m for m, _ in dataset.rows])
    gold = np.searchsorted(index.concepts, [g for _, g in dataset.rows])
    ranks = np.concatenate([
        _gold_ranks(np.maximum.reduceat(scores, index.starts, axis=1),
                    gold[first:first + len(scores)])
        for first, scores in _score_blocks(index, mentions)])
    n = len(dataset.rows)
    return [EvalReport("nel", f"top{k}_accuracy", int(np.count_nonzero(ranks < k)) / n, n)
            for k in k_list]


def eval_nli_triplets(model: enc.Checkpoint, dataset: NliTripleDataset) -> EvalReport:
    """Fraction of rows where the anchor is strictly closer to the entailed
    statement than to the contradicted one; exact ties count as failures."""
    anchors = enc.encode_batch(model.params, model.config, [a for a, _, _ in dataset.rows])
    entailed = enc.encode_batch(model.params, model.config, [e for _, e, _ in dataset.rows])
    contradicted = enc.encode_batch(model.params, model.config, [c for _, _, c in dataset.rows])
    pos = np.sum(anchors * entailed, axis=1)
    neg = np.sum(anchors * contradicted, axis=1)
    wins = int(np.sum(pos > neg))
    return EvalReport("nli", "triplet_accuracy", wins / len(dataset.rows), len(dataset.rows))
