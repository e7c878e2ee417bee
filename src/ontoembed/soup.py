"""Uniform and greedy model soups over soup-compatible checkpoints.

Averaging runs over encoder parameters only; distillation heads are
stripped first. The element-wise mean is computed as a running (Welford)
mean in ascending-label order, which keeps it bit-deterministic and makes
the average of k identical models bit-equal to that model.

A candidate names its saved checkpoint file, which is read each time the
candidate is used and never kept, so a soup holds at most the running mean,
one candidate and the soup being evaluated, whatever the number of
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import encoder as enc


class SoupError(Exception):
    pass


class IncompatibleCandidatesError(SoupError):
    pass


@dataclass(frozen=True)
class SoupCandidate:
    """The checkpoint file at ``path``, its validation score and its label."""

    path: str
    validation_score: float
    label: str

    def __post_init__(self):
        if not np.isfinite(self.validation_score):
            raise SoupError(f"validation score for {self.label!r} must be finite")

    def load(self) -> enc.Checkpoint:
        return enc.load_checkpoint(self.path)


def _check_compatible(candidates: list[SoupCandidate]) -> None:
    if not candidates:
        raise IncompatibleCandidatesError("need at least one candidate")
    first = candidates[0].load()
    config, phase = first.config, first.phase
    del first
    for cand in candidates[1:]:
        ckpt = cand.load()
        if not config.soup_compatible(ckpt.config):
            raise IncompatibleCandidatesError(
                f"candidate {cand.label!r} has a soup-incompatible config"
            )
        if ckpt.phase != phase:
            raise IncompatibleCandidatesError(
                f"candidate {cand.label!r} has phase {ckpt.phase!r}, "
                f"expected {phase!r}"
            )


def _average(candidates: list[SoupCandidate]) -> enc.Checkpoint:
    ordered = sorted(candidates, key=lambda c: c.label)
    first = ordered[0].load()
    config, history = first.config, first.history
    mean = enc.flatten(first.params.without_head()).copy()
    del first
    for i, cand in enumerate(ordered[1:], 2):
        # a fresh read, so the update may work in its buffer:
        # mean += (flat - mean) / i, rounded the same
        flat = enc.flatten(cand.load().params.without_head())
        if flat.shape != mean.shape:
            raise IncompatibleCandidatesError(
                f"candidate {cand.label!r} has a different parameter count"
            )
        flat -= mean
        flat /= i
        mean += flat
        del flat  # freed before the next candidate is read
    return enc.Checkpoint(
        config=config,
        phase="souped",
        params=enc.unflatten(config, mean),
        history=history + ("souped",),
    )


def uniform_soup(candidates: list[SoupCandidate]) -> enc.Checkpoint:
    """Element-wise arithmetic mean of all candidates' encoder parameters."""
    _check_compatible(candidates)
    return _average(candidates)


def greedy_soup(
    candidates: list[SoupCandidate],
    evaluate: Callable[[enc.Checkpoint], float],
) -> tuple[enc.Checkpoint, list[str]]:
    """Greedy soup: start from the best candidate by validation score and
    admit each further candidate iff the averaged pool does not evaluate
    worse (non-strict >=, so constant metrics keep everything).

    ``evaluate`` must be deterministic. Candidates are visited in descending
    validation_score order, ties broken by ascending label. When the
    validation scores are produced by the same ``evaluate`` (as the CLI and
    pipeline do), the result never evaluates below the best single
    candidate: the pool starts at that candidate and every accepted merge is
    non-decreasing. Each tentative soup reads its pool's files again.
    """
    _check_compatible(candidates)
    ordered = sorted(candidates, key=lambda c: (-c.validation_score, c.label))
    pool = [ordered[0]]
    current = _average(pool)
    current_score = evaluate(current)
    for cand in ordered[1:]:
        tentative = _average(pool + [cand])
        tentative_score = evaluate(tentative)
        if tentative_score >= current_score:
            pool.append(cand)
            current = tentative
            current_score = tentative_score
        del tentative  # a rejected soup goes before the next one is built
    return current, [c.label for c in pool]
