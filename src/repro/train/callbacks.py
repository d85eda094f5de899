"""Observer-style training callbacks.

The trainer emits an :class:`EpochStats` record at the end of every epoch —
including the full arrays of sampled triples and their ``info`` values,
which is exactly what the paper's sampling-quality metrics (Eq. 33–34)
consume.  Callbacks receive it via :meth:`Callback.on_epoch_end`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

__all__ = [
    "EpochStats",
    "Callback",
    "HistoryRecorder",
    "SampledTripleRecorder",
    "EvaluationCallback",
    "CheckpointCallback",
    "LambdaCallback",
]


def _as_eval_callable(evaluate: Callable[[object], dict]) -> Callable:
    """Accept a callable or an Evaluator-like object with ``.evaluate``."""
    if callable(evaluate):
        return evaluate
    bound = getattr(evaluate, "evaluate", None)
    if bound is None or not callable(bound):
        raise TypeError(
            "evaluate must be a callable (model) -> dict or an object "
            f"with an evaluate(model) method, got {type(evaluate).__name__}"
        )
    return bound


@dataclass(frozen=True)
class EpochStats:
    """Everything observable about one finished training epoch.

    The triple arrays are parallel and cover every training step of the
    epoch in execution order.
    """

    epoch: int
    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray
    info: np.ndarray
    mean_loss: float
    lr: float
    duration_seconds: float

    @property
    def n_triples(self) -> int:
        """Number of training triples consumed this epoch."""
        return int(self.users.size)

    @property
    def mean_info(self) -> float:
        """Average gradient magnitude of the epoch's sampled negatives."""
        return float(self.info.mean()) if self.info.size else 0.0


class Callback:
    """Base callback; all hooks default to no-ops."""

    def on_train_start(self, trainer) -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        """Called after every epoch with that epoch's statistics."""

    def on_train_end(self, trainer) -> None:
        """Called once after the final epoch."""


class HistoryRecorder(Callback):
    """Record scalar curves: loss, mean info, lr, duration per epoch."""

    def __init__(self) -> None:
        self.epochs: List[int] = []
        self.loss: List[float] = []
        self.mean_info: List[float] = []
        self.lr: List[float] = []
        self.duration_seconds: List[float] = []

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        self.epochs.append(stats.epoch)
        self.loss.append(stats.mean_loss)
        self.mean_info.append(stats.mean_info)
        self.lr.append(stats.lr)
        self.duration_seconds.append(stats.duration_seconds)

    def as_dict(self) -> Dict[str, list]:
        """Curves as plain lists (JSON-friendly)."""
        return {
            "epochs": list(self.epochs),
            "loss": list(self.loss),
            "mean_info": list(self.mean_info),
            "lr": list(self.lr),
            "duration_seconds": list(self.duration_seconds),
        }


class SampledTripleRecorder(Callback):
    """Keep each epoch's raw sampled triples for post-hoc sampling analysis.

    Memory note: stores ``O(n_triples)`` per recorded epoch; restrict with
    ``epochs`` (an explicit set) or ``every`` when training long runs.
    """

    def __init__(
        self, every: int = 1, epochs: Optional[set] = None
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.epochs_filter = epochs
        self.records: List[EpochStats] = []

    def _keep(self, epoch: int) -> bool:
        if self.epochs_filter is not None:
            return epoch in self.epochs_filter
        return epoch % self.every == 0

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        if self._keep(stats.epoch):
            self.records.append(stats)


class EvaluationCallback(Callback):
    """Periodically run an evaluation function and record its result.

    ``evaluate`` is any callable ``(model) -> dict`` — or an
    :class:`repro.eval.protocol.Evaluator` instance directly, whose bound
    ``evaluate`` method is used.  Since the evaluator's default path is
    the batched chunked pipeline, per-epoch early-stopping evaluation
    rides the same vectorized hot path as final reporting.
    """

    def __init__(self, evaluate: Callable[[object], dict], every: int = 10) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.evaluate = _as_eval_callable(evaluate)
        self.every = int(every)
        self.snapshots: List[tuple] = []

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        if (stats.epoch + 1) % self.every == 0:
            self.snapshots.append((stats.epoch, self.evaluate(model)))

    def on_train_end(self, trainer) -> None:
        if not self.snapshots or self.snapshots[-1][0] != trainer.config.epochs - 1:
            self.snapshots.append(
                (trainer.config.epochs - 1, self.evaluate(trainer.model))
            )

    @property
    def final_metrics(self) -> dict:
        """Metrics from the last evaluation snapshot."""
        if not self.snapshots:
            raise RuntimeError("no evaluation snapshots recorded yet")
        return self.snapshots[-1][1]


class CheckpointCallback(Callback):
    """Persist the best model seen so far through ``models/persistence``.

    Tracking modes:

    * ``evaluate=None`` (default) — track the epoch's mean training loss
      (lower is better).  Free: no extra evaluation passes, which is what
      the experiment engine attaches when checkpointing is enabled
      (``ExperimentEngine(save_models=True)`` / ``repro ... --save-models``)
      so interrupted grids keep their best model on disk.
    * ``evaluate=<callable or Evaluator>`` — track ``metric`` from the
      evaluation result (higher is better under ``mode="max"``), e.g.
      best-NDCG checkpointing for early-stopped training.

    The model file is written atomically (temp + rename) so a crash
    mid-save never corrupts the previous checkpoint.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        evaluate: Optional[Callable[[object], dict]] = None,
        metric: str = "ndcg@20",
        mode: Optional[str] = None,
        every: int = 1,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if mode is None:
            mode = "min" if evaluate is None else "max"
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        self.path = Path(path)
        self._evaluate = None if evaluate is None else _as_eval_callable(evaluate)
        self.metric = metric
        self.mode = mode
        self.every = int(every)
        self.best_value: Optional[float] = None
        self.best_epoch: Optional[int] = None
        self.n_saves = 0

    def _value(self, stats: EpochStats, model) -> float:
        if self._evaluate is None:
            return float(stats.mean_loss)
        result = self._evaluate(model)
        if self.metric not in result:
            raise KeyError(
                f"metric {self.metric!r} not in evaluation result; "
                f"available: {sorted(result)}"
            )
        return float(result[self.metric])

    def _improved(self, value: float) -> bool:
        if np.isnan(value):
            # A diverged epoch must never become (or block) the best
            # checkpoint: NaN compares False both ways, so without this
            # guard a first-epoch NaN would freeze saving forever.
            return False
        if self.best_value is None:
            return True
        if self.mode == "max":
            return value > self.best_value
        return value < self.best_value

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        if (stats.epoch + 1) % self.every != 0:
            return
        value = self._value(stats, model)
        if not self._improved(value):
            return
        from repro.models.persistence import save_model

        self.path.parent.mkdir(parents=True, exist_ok=True)
        staging = self.path.with_name(self.path.name + ".tmp")
        save_model(model, staging)
        # np.savez may append ".npz" when the suffix is missing.
        written = (
            staging
            if staging.exists()
            else staging.with_name(staging.name + ".npz")
        )
        written.replace(self.path)
        self.best_value = value
        self.best_epoch = stats.epoch
        self.n_saves += 1


class LambdaCallback(Callback):
    """Wrap ad-hoc functions into a callback (used by small experiments)."""

    def __init__(
        self,
        on_epoch_end: Optional[Callable[[EpochStats, object], None]] = None,
        on_train_start: Optional[Callable[[object], None]] = None,
        on_train_end: Optional[Callable[[object], None]] = None,
    ) -> None:
        self._epoch_end = on_epoch_end
        self._train_start = on_train_start
        self._train_end = on_train_end

    def on_train_start(self, trainer) -> None:
        if self._train_start is not None:
            self._train_start(trainer)

    def on_epoch_end(self, stats: EpochStats, model) -> None:
        if self._epoch_end is not None:
            self._epoch_end(stats, model)

    def on_train_end(self, trainer) -> None:
        if self._train_end is not None:
            self._train_end(trainer)
