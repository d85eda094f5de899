"""TN/FN score-distribution tracking (the paper's Fig. 1).

At chosen epochs, snapshot the model's predicted scores of every user's
true negatives (un-interacted, not in test) and false negatives (test
positives).  Histogram densities of the two samples are the curves of
Fig. 1; their growing separation during training is the empirical
verification of the order relation (Eq. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.train.callbacks import Callback, EpochStats
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

__all__ = ["ScoreSnapshot", "ScoreDistributionRecorder", "score_snapshot"]


@dataclass(frozen=True)
class ScoreSnapshot:
    """Scores of true and false negatives at one epoch."""

    epoch: int
    tn_scores: np.ndarray
    fn_scores: np.ndarray

    def histograms(
        self, bins: int = 50
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bin_edges, tn_density, fn_density)`` over a shared range."""
        combined = np.concatenate([self.tn_scores, self.fn_scores])
        edges = np.histogram_bin_edges(combined, bins=bins)
        tn_density, _ = np.histogram(self.tn_scores, bins=edges, density=True)
        fn_density, _ = np.histogram(self.fn_scores, bins=edges, density=True)
        return edges, tn_density, fn_density

    @property
    def separation(self) -> float:
        """``mean(FN scores) − mean(TN scores)`` — Fig. 1's growing gap."""
        if self.tn_scores.size == 0 or self.fn_scores.size == 0:
            return 0.0
        return float(self.fn_scores.mean() - self.tn_scores.mean())


def score_snapshot(
    model,
    dataset: ImplicitDataset,
    epoch: int = 0,
    *,
    max_users: Optional[int] = None,
    max_scores_per_class: int = 200_000,
    seed: SeedLike = 0,
) -> ScoreSnapshot:
    """Collect TN/FN scores across (a sample of) users at the current state.

    ``max_users`` (``>= 1``, or ``None`` for all) caps the sampled users;
    ``max_scores_per_class`` (``>= 1``) caps each class's scores.
    """
    _check_caps(max_users, max_scores_per_class)
    rng = as_rng(seed)
    users = dataset.evaluable_users()
    if max_users is not None and users.size > max_users:
        users = rng.choice(users, size=max_users, replace=False)
    tn_chunks: List[np.ndarray] = []
    fn_chunks: List[np.ndarray] = []
    for user in users.tolist():
        scores = model.scores(user)
        fn_mask = dataset.false_negative_mask(user)
        unlabeled_mask = dataset.train.negative_mask(user)
        tn_chunks.append(scores[unlabeled_mask & ~fn_mask])
        fn_chunks.append(scores[fn_mask])
    tn_scores = _subsample(np.concatenate(tn_chunks), max_scores_per_class, rng)
    fn_scores = _subsample(np.concatenate(fn_chunks), max_scores_per_class, rng)
    return ScoreSnapshot(epoch=epoch, tn_scores=tn_scores, fn_scores=fn_scores)


def _check_caps(max_users: Optional[int], max_scores_per_class: int) -> None:
    if max_users is not None:
        check_positive(max_users, "max_users")
    check_positive(max_scores_per_class, "max_scores_per_class")


def _subsample(
    values: np.ndarray, cap: int, rng: np.random.Generator
) -> np.ndarray:
    if values.size <= cap:
        return values
    return rng.choice(values, size=cap, replace=False)


class ScoreDistributionRecorder(Callback):
    """Snapshot TN/FN score distributions at the given epochs (0-based)."""

    def __init__(
        self,
        dataset: ImplicitDataset,
        epochs: Sequence[int],
        *,
        max_users: Optional[int] = 200,
        max_scores_per_class: int = 100_000,
        seed: SeedLike = 0,
    ) -> None:
        _check_caps(max_users, max_scores_per_class)
        self.dataset = dataset
        self.epochs = frozenset(int(e) for e in epochs)
        self.max_users = max_users
        self.max_scores_per_class = max_scores_per_class
        self._seed = seed
        self.snapshots: Dict[int, ScoreSnapshot] = {}

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        if stats.epoch not in self.epochs:
            return
        self.snapshots[stats.epoch] = score_snapshot(
            model,
            self.dataset,
            epoch=stats.epoch,
            max_users=self.max_users,
            max_scores_per_class=self.max_scores_per_class,
            seed=self._seed,
        )

    def separation_series(self) -> List[Tuple[int, float]]:
        """``(epoch, FN−TN mean separation)`` sorted by epoch."""
        return [
            (epoch, snapshot.separation)
            for epoch, snapshot in sorted(self.snapshots.items())
        ]
