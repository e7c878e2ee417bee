"""Evaluation protocol: STS (Pearson), BCR (Spearman), NEL (exact top-k over
a synonym index) and entailment-triplet accuracy.

All evaluations are read-only over the model and graph, row order is
canonical (file order), and every metric has an independently implemented
oracle in the test suite that it must match to 1e-12. NEL scores each block
of mentions with one matrix product padded on both axes, so a score does
not depend on the block its mention is in or the column its name is in.

Dataset files, TSVs read through ``config.read_records``:
  STS / BCR  text_a <TAB> text_b <TAB> gold
  NEL        mention <TAB> concept_id
  NLI        anchor <TAB> entailed <TAB> contradicted
Each row is checked by the row function the reader calls (``_scored``,
``_sts_scored`` or ``_filled``), so a bad row names its line. The two
records, ``PairDataset`` (STS, BCR) and ``Dataset`` (NEL, NLI), check
only what needs every row.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import encoder as enc
from .config import DomainError, ParseError, read_records

if TYPE_CHECKING:
    from . import ontology as onto


class EvalError(DomainError):
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
class PairDataset:
    """STS or BCR rows ``(text_a, text_b, gold)``. Only the checks that need
    every row are here; the reader checks each row."""

    rows: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if len(self.rows) < 2:
            raise DatasetError("need at least 2 rows for a correlation")
        golds = [g for _, _, g in self.rows]
        if max(golds) == min(golds):
            raise DatasetError("gold scores have zero variance")


@dataclass(frozen=True)
class Dataset:
    """NEL rows ``(mention, concept_id)`` or NLI rows ``(anchor, entailed,
    contradicted)``."""

    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise DatasetError("empty dataset")


def _load(dataset_cls, path, columns: int, row):
    """``dataset_cls`` over the rows ``row`` makes from the lines of the TSV
    at ``path``; every error names the file, and a malformed line its line."""
    try:
        rows = read_records(path, row, columns)
    except ParseError as exc:
        raise DatasetError(str(exc)) from exc
    try:
        return dataset_cls(rows=tuple(rows))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def _scored(a: str, b: str, gold: str) -> tuple[str, str, float]:
    if not math.isfinite(float(gold)):
        raise ValueError(f"gold {gold} is not a finite number")
    return a, b, float(gold)


def _sts_scored(a: str, b: str, gold: str) -> tuple[str, str, float]:
    row = _scored(a, b, gold)
    if not (0.0 <= row[2] <= 5.0):
        raise ValueError(f"STS gold {row[2]} outside [0, 5]")
    return row


def _filled(*fields: str) -> tuple[str, ...]:
    if "" in fields:
        raise ValueError(f"column {fields.index('') + 1} is empty")
    return fields


def load_sts_dataset(path) -> PairDataset:
    return _load(PairDataset, path, 3, _sts_scored)


def load_bcr_dataset(path) -> PairDataset:
    return _load(PairDataset, path, 3, _scored)


def load_nel_dataset(path) -> Dataset:
    return _load(Dataset, path, 2, _filled)


def load_nli_dataset(path) -> Dataset:
    return _load(Dataset, path, 3, _filled)


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
    _, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


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


def eval_sts(model: enc.Checkpoint, dataset: PairDataset) -> EvalReport:
    """Pearson correlation between embedding cosines and gold similarity."""
    return _eval_correlation(model, dataset.rows, "sts", "pearson", pearson)


def eval_bcr(model: enc.Checkpoint, dataset: PairDataset) -> EvalReport:
    """Spearman correlation between embedding cosines and gold relatedness."""
    return _eval_correlation(model, dataset.rows, "bcr", "spearman", spearman)


@dataclass
class NelIndex:
    """Exact-search synonym index: one entry per (concept, name), and one
    embedding per distinct name, the rows of ``embeddings`` in the order the
    names first appear. Entries that share a name share its row, so they
    score the same bit for bit.

    ``concepts`` holds the distinct concept ids in ascending order, and row
    j of ``slots`` the embedding rows of the names of ``concepts[j]``, in
    entry order; a concept with fewer names than the widest repeats its
    first row, which leaves its best score unchanged.
    """

    embeddings: np.ndarray
    concept_ids: list[str]
    names: list[str]
    concepts: np.ndarray = field(init=False, repr=False)  # of str objects
    slots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        row_of: dict[str, int] = {}
        rows = [row_of.setdefault(name, len(row_of)) for name in self.names]
        if len(self.embeddings) != len(row_of):
            raise ValueError(f"{len(self.embeddings)} embeddings for {len(row_of)} distinct names")
        self.concepts = np.array(sorted(set(self.concept_ids)), dtype=object)
        members: dict[str, list[int]] = {cid: [] for cid in self.concepts}
        for cid, row in zip(self.concept_ids, rows):
            members[cid].append(row)
        width = max(map(len, members.values()))
        self.slots = np.array([m + m[:1] * (width - len(m)) for m in members.values()],
                              dtype=np.intp)

    @cached_property
    def columns(self) -> np.ndarray:
        """``embeddings.T`` with zero columns added up to a multiple of 8."""
        n, width = self.embeddings.shape
        columns = np.zeros((width, n + -n % 8))
        columns[:, :n] = self.embeddings.T
        return columns


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


def _best_scores(index: NelIndex, mentions: np.ndarray):
    """Yield ``(first, best)`` over blocks of at most NEL_BLOCK mentions:
    ``best[r, j]`` is the highest score of ``mentions[first + r]`` over the
    names of ``index.concepts[j]``.

    A block's scores are one product with ``index.columns``. ``_matmul_rows``
    pads the block to a multiple of 8 rows and the columns are padded to a
    multiple of 8 too, so that the gemm has no leftover row or column to
    compute with other code: a mention's scores are the same bits in any
    block, and copies of one embedding score the same in any column. The
    best scores are a running ``np.maximum`` over the columns of
    ``index.slots``. ``best`` is overwritten by the next block."""
    scores = np.empty((NEL_BLOCK, index.columns.shape[1]))
    best = np.empty((NEL_BLOCK, len(index.concepts)))
    taken = np.empty_like(best)
    for first in range(0, len(mentions), NEL_BLOCK):
        block = enc._matmul_rows(mentions[first:first + NEL_BLOCK], index.columns, out=scores)
        top, slot_scores = best[:len(block)], taken[:len(block)]
        # slots hold valid indices only; with out=, the default mode buffers a copy
        np.take(block, index.slots[:, 0], axis=1, out=top, mode="clip")
        for slot in index.slots.T[1:]:
            np.maximum(top, np.take(block, slot, axis=1, out=slot_scores, mode="clip"), out=top)
        yield first, top


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
    dataset: Dataset,
    k_list: list[int] = (1,),
) -> list[EvalReport]:
    """Top-k linking accuracy, one report per k.

    Concepts are ranked by max cosine over their synonyms; ties
    break toward the smaller concept id, so results are deterministic.
    A mention hits at k when fewer than k concepts rank above its gold
    concept.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise ValueError("k values must be >= 1")
    index = build_nel_index(model, kg)
    for _, gold in dataset.rows:
        if gold not in kg:
            raise EvalError(f"gold concept id {gold!r} does not resolve in the graph")
    mentions = enc.encode_batch(model.params, model.config, [m for m, _ in dataset.rows])
    gold = np.searchsorted(index.concepts, [g for _, g in dataset.rows])
    ranks = np.concatenate([_gold_ranks(best, gold[first:first + len(best)])
                            for first, best in _best_scores(index, mentions)])
    n = len(dataset.rows)
    return [EvalReport("nel", f"top{k}_accuracy", int(np.count_nonzero(ranks < k)) / n, n)
            for k in k_list]


def eval_nli_triplets(model: enc.Checkpoint, dataset: Dataset) -> EvalReport:
    """Fraction of rows where the anchor is strictly closer to the entailed
    statement than to the contradicted one; exact ties count as failures."""
    anchors = enc.encode_batch(model.params, model.config, [a for a, _, _ in dataset.rows])
    entailed = enc.encode_batch(model.params, model.config, [e for _, e, _ in dataset.rows])
    contradicted = enc.encode_batch(model.params, model.config, [c for _, _, c in dataset.rows])
    pos = np.sum(anchors * entailed, axis=1)
    neg = np.sum(anchors * contradicted, axis=1)
    wins = int(np.sum(pos > neg))
    return EvalReport("nli", "triplet_accuracy", wins / len(dataset.rows), len(dataset.rows))
