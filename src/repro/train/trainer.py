"""The pairwise training loop (outer loop of the paper's Algorithm 1).

Each epoch shuffles the training pairs, forms mini-batches, provides the
score data each batch's sampler requests (one
:meth:`~repro.models.base.ScoreModel.scores_batch` block for
``FULL_BLOCK`` samplers; nothing for ``SPARSE``/``NONE`` — see
:class:`~repro.samplers.base.ScoreRequest`), dispatches one
:meth:`~repro.samplers.base.NegativeSampler.sample_batch` to pick one
negative per positive, and takes a BPR step.  ``batch_size=1`` reproduces
the paper's per-triple SGD for MF; larger batches vectorize the same
computation (the paper uses 128/1024 for LightGCN).

Batches of one row — every batch at ``batch_size=1``, and an epoch's
ragged final batch of one — take the per-triple kernel instead: one loop
over the rows as Python ints that calls the user's ``scores`` (for
``FULL_BLOCK`` samplers),
:meth:`~repro.samplers.base.NegativeSampler.sample_one` and
:meth:`~repro.models.base.ScoreModel.train_triple` per triple, with ids
and the backend checked once per fit instead of per step.  Both entry
points are bitwise equal to ``sample_for_user``/``train_step`` on one row,
so the kernel changes speed, not results.  BNS and MF override them: the
gemv, sort, dots and ``exp`` stay numpy calls, and the IEEE-exact
arithmetic of Eq. 4/15/31–32 runs on Python floats.

These are the only two routes: a batch of two or more rows is always
grouped by user once and sent through one ``sample_batch``.  The
``scores_batch`` gemm can differ from the per-triple gemv in the last ulp,
so the same row scored on the two routes is statistically, not bitwise,
equal; the samplers' RNG-parity contract keeps the randomness identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.samplers.base import NegativeSampler, ScoreRequest, group_batch_by_user
from repro.train.callbacks import Callback, EpochStats
from repro.train.early_stopping import StopTraining
from repro.train.optimizer import SGD, Optimizer
from repro.train.schedule import ConstantSchedule, Schedule
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["TrainingConfig", "Trainer"]

_LOGGER = get_logger("train.trainer")

#: Triples listed as Python ints at a time by the per-triple kernel.
_TRIPLE_CHUNK = 4096


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run.

    Defaults follow the paper's MF setup: ``d=32`` (on the model),
    ``lr=0.01``, ``reg=0.01``, 100 epochs, batch size 1.
    """

    epochs: int = 100
    batch_size: int = 1
    lr: float = 0.01
    reg: float = 0.01
    seed: Optional[int] = 0
    lr_schedule: Optional[Schedule] = None
    shuffle: bool = True

    def __post_init__(self) -> None:
        check_positive(self.epochs, "epochs")
        check_positive(self.batch_size, "batch_size")
        check_positive(self.lr, "lr")
        check_non_negative(self.reg, "reg")

    def resolve_lr_schedule(self) -> Schedule:
        """The LR schedule (constant at ``lr`` unless one was given)."""
        if self.lr_schedule is not None:
            return self.lr_schedule
        return ConstantSchedule(self.lr)


class Trainer:
    """Train a :class:`~repro.models.base.ScoreModel` with negative sampling.

    Parameters
    ----------
    model, dataset, sampler:
        The three participants; the sampler is bound to (dataset, model)
        with a generator spawned from ``config.seed``.
    config:
        Hyper-parameters.
    optimizer:
        Defaults to plain SGD at ``config.lr`` (the paper's MF choice);
        pass :class:`~repro.train.optimizer.Adam` for LightGCN.
    callbacks:
        Observers receiving :class:`EpochStats` after each epoch.
    """

    def __init__(
        self,
        model,
        dataset: ImplicitDataset,
        sampler: NegativeSampler,
        config: TrainingConfig = TrainingConfig(),
        *,
        optimizer: Optional[Optimizer] = None,
        callbacks: Sequence[Callback] = (),
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.sampler = sampler
        self.config = config
        self.optimizer = optimizer if optimizer is not None else SGD(config.lr)
        self.callbacks: List[Callback] = list(callbacks)
        self._rng = as_rng(config.seed)
        sampler.bind(dataset, model, self._rng)
        self.history: List[EpochStats] = []

    # ------------------------------------------------------------------ #

    def fit(self) -> List[EpochStats]:
        """Run the configured number of epochs; returns per-epoch stats."""
        users_all, pos_all = self.dataset.train.pairs()
        if users_all.size == 0:
            raise ValueError("cannot train on an empty training set")
        if self._n_single_rows(users_all.size):
            # The per-triple kernel skips train_step's per-call checks: the
            # ids and the backend are checked here, once (reg is checked by
            # TrainingConfig).
            self.model._check_triple_arrays(users_all, pos_all, pos_all)
            self.model._check_trainable_backend()
        lr_schedule = self.config.resolve_lr_schedule()

        for callback in self.callbacks:
            callback.on_train_start(self)

        for epoch in range(self.config.epochs):
            started = time.perf_counter()
            self.optimizer.lr = lr_schedule.value(epoch)
            self.sampler.on_epoch_start(epoch)
            stats = self._run_epoch(epoch, users_all, pos_all, started)
            self.history.append(stats)
            try:
                for callback in self.callbacks:
                    callback.on_epoch_end(stats, self.model)
            except StopTraining as signal:
                _LOGGER.info("early stop after epoch %d: %s", epoch, signal)
                break
            _LOGGER.debug(
                "epoch %d: loss=%.4f info=%.4f (%.2fs)",
                epoch,
                stats.mean_loss,
                stats.mean_info,
                stats.duration_seconds,
            )

        for callback in self.callbacks:
            callback.on_train_end(self)
        return self.history

    # ------------------------------------------------------------------ #

    def _run_epoch(
        self,
        epoch: int,
        users_all: np.ndarray,
        pos_all: np.ndarray,
        started: float,
    ) -> EpochStats:
        n = users_all.size
        if self.config.shuffle:
            order = self._rng.permutation(n)
        else:
            order = np.arange(n)
        batch_size = self.config.batch_size

        neg_out = np.empty(n, dtype=np.int64)
        info_out = np.empty(n, dtype=np.float64)

        batched_rows = n - self._n_single_rows(n)
        for start in range(0, batched_rows, batch_size):
            batch_idx = order[start : start + batch_size]
            batch_users = users_all[batch_idx]
            batch_pos = pos_all[batch_idx]
            batch_neg = self._sample_negatives(batch_users, batch_pos)
            info = self.model.train_step(
                batch_users, batch_pos, batch_neg, self.optimizer, self.config.reg
            )
            neg_out[start : start + batch_idx.size] = batch_neg
            info_out[start : start + batch_idx.size] = info
        if batched_rows < n:
            tail = order[batched_rows:]
            self._train_triples(
                users_all[tail], pos_all[tail], neg_out, info_out, batched_rows
            )

        # loss = −ln σ(diff) = −ln(1 − info); clip keeps info→1 finite.
        # One vectorized pass over the epoch's recorded info values instead
        # of a log + clip + sum allocation inside every mini-batch.
        mean_loss = float(np.mean(-np.log(np.clip(1.0 - info_out, 1e-12, None))))

        # Reorder the recorded triples back to epoch execution order
        # (they are already in execution order; users/pos follow `order`).
        return EpochStats(
            epoch=epoch,
            users=users_all[order],
            pos_items=pos_all[order],
            neg_items=neg_out,
            info=info_out,
            mean_loss=mean_loss,
            lr=self.optimizer.lr,
            duration_seconds=time.perf_counter() - started,
        )

    def _n_single_rows(self, n: int) -> int:
        """How many of an epoch's ``n`` rows the per-triple kernel trains.

        Every row at ``batch_size=1``, else only a final ragged batch of
        one.
        """
        batch_size = self.config.batch_size
        if batch_size == 1:
            return n
        return int(n % batch_size == 1)

    def _train_triples(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        neg_out: np.ndarray,
        info_out: np.ndarray,
        offset: int,
    ) -> None:
        """The per-triple kernel: ``sample_one`` + ``train_triple`` per row.

        Fills ``neg_out``/``info_out`` from ``offset`` on.  A
        ``FULL_BLOCK`` sampler gets the user's ``scores`` row (a gemv) per
        triple.  Ids are turned into Python ints a chunk at a time, so the
        lists stay small next to the epoch arrays.
        """
        model, optimizer, reg = self.model, self.optimizer, self.config.reg
        scores = None
        if self.sampler.score_request is ScoreRequest.FULL_BLOCK:
            scores = model.scores
        sample_one = self.sampler.sample_one
        train_triple = model.train_triple
        n_items = model.n_items
        for start in range(0, users.size, _TRIPLE_CHUNK):
            stop = start + _TRIPLE_CHUNK
            for t, user, pos in zip(
                range(offset + start, offset + stop),
                users[start:stop].tolist(),
                pos_items[start:stop].tolist(),
            ):
                neg = sample_one(user, pos, None if scores is None else scores(user))
                if not 0 <= neg < n_items:
                    raise IndexError(
                        f"sampler returned item {neg} outside [0, {n_items})"
                    )
                info_out[t] = train_triple(user, pos, neg, optimizer, reg)
                neg_out[t] = neg

    def _sample_negatives(
        self, batch_users: np.ndarray, batch_pos: np.ndarray
    ) -> np.ndarray:
        """One negative per (user, positive) for the whole mini-batch.

        Group the batch **once**, provide the score data the sampler's
        :class:`~repro.samplers.base.ScoreRequest` asks for — the unique
        users' score block in one ``scores_batch`` call for ``FULL_BLOCK``
        samplers, nothing for ``SPARSE``/``NONE`` samplers (sparse samplers
        gather-score only the item ids they touch) — and hand both to one
        ``sample_batch`` dispatch; the sampler reuses the precomputed
        :class:`~repro.samplers.base.BatchGroups` instead of re-deriving
        the grouping.  Batches of one never get here (see
        :meth:`_train_triples`).
        """
        groups = group_batch_by_user(batch_users)
        scores = None
        if self.sampler.score_request is ScoreRequest.FULL_BLOCK:
            scores = self.model.scores_batch(groups.unique_users)
        return self.sampler.sample_batch(
            batch_users, batch_pos, scores, groups=groups
        )
