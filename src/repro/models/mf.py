"""Matrix factorization with BPR training (the paper's primary model).

Scores are plain dot products, ``x̂_ui = w_u · h_i`` (Koren et al., 2009).
The BPR gradient for a triple ``(u, i, j)`` with ``s = 1 − σ(x̂_ui − x̂_uj)``
is, for the minimized loss ``−ln σ(x̂_ui − x̂_uj) + reg·(‖w_u‖² + ‖h_i‖² +
‖h_j‖²)/2``:

    ∂/∂w_u = −s (h_i − h_j) + reg·w_u
    ∂/∂h_i = −s w_u         + reg·h_i
    ∂/∂h_j = +s w_u         + reg·h_j

which reproduces Eq. 2's score gradient exactly.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import ScoreModel
from repro.models.init import normal_init
from repro.train.loss import informativeness, informativeness_float
from repro.train.optimizer import Optimizer, aggregate_rows
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_non_negative, check_positive, is_or_wraps

# Dense scoring kernels below go through ``self.backend`` (the R007
# seam); ``train_step`` works on the host parameter mirrors directly.

__all__ = ["MatrixFactorization"]


class MatrixFactorization(ScoreModel):
    """BPR matrix factorization over NumPy embedding tables.

    Parameters
    ----------
    n_users, n_items:
        Universe sizes.
    n_factors:
        Embedding dimensionality (paper: 32).
    init_scale:
        Standard deviation of the Gaussian initialization.
    seed:
        Initialization randomness.
    backend, dtype:
        Compute backend and parameter dtype policy (see
        :meth:`~repro.models.base.ScoreModel._init_backend`).  Init draws
        stay on the host generator at float64 and are cast to ``dtype``,
        so a float32 model starts from the float64 init rounded down and
        a torch model starts from exactly the numpy init.
    """

    def __init__(
        self,
        n_users: int,
        n_items: int,
        n_factors: int = 32,
        *,
        init_scale: float = 0.1,
        seed: SeedLike = None,
        backend=None,
        dtype="float64",
    ) -> None:
        self.n_users = int(check_positive(n_users, "n_users"))
        self.n_items = int(check_positive(n_items, "n_items"))
        self.n_factors = int(check_positive(n_factors, "n_factors"))
        self._init_backend(backend, dtype)
        rng = as_rng(seed)
        self._user_factors = normal_init(
            self.n_users, self.n_factors, init_scale, rng
        ).astype(self.dtype, copy=False)
        self._item_factors = normal_init(
            self.n_items, self.n_factors, init_scale, rng
        ).astype(self.dtype, copy=False)
        self.sync_backend()

    def sync_backend(self) -> None:
        """(Re)create the backend parameter handles from the host tables.

        On host-sharing backends (numpy, torch-CPU) the handles alias the
        tables, so training needs no re-sync; call this after *replacing*
        table contents wholesale (checkpoint restore) so device-resident
        backends see the new values too.
        """
        bk = self.backend
        self._user_handle = bk.from_numpy(self._user_factors)
        self._item_handle = bk.from_numpy(self._item_factors)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def scores(self, user: int) -> np.ndarray:
        if not 0 <= user < self.n_users:
            raise IndexError(f"user {user} out of range [0, {self.n_users})")
        bk = self.backend
        return bk.to_numpy(
            bk.matvec(self._item_handle, bk.take(self._user_handle, user))
        )

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64).ravel()
        bk = self.backend
        return bk.to_numpy(
            bk.pair_dot(
                bk.take(self._user_handle, users), bk.take(self._item_handle, items)
            )
        )

    def scores_batch(self, users: np.ndarray) -> np.ndarray:
        """Score block via one embedding matmul, shape ``(B, n_items)``."""
        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise IndexError(f"user ids out of range [0, {self.n_users})")
        bk = self.backend
        return bk.to_numpy(
            bk.gemm_nt(bk.take(self._user_handle, users), self._item_handle)
        )

    def score_items_batch(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Sparse scoring by one embedding gather + einsum, ``O(B·m·d)``."""
        users, items = self._check_user_item_rows(users, items)
        bk = self.backend
        return bk.to_numpy(
            bk.gather_dot(
                bk.take(self._user_handle, users), bk.take(self._item_handle, items)
            )
        )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def train_step(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        neg_items: np.ndarray,
        optimizer: Optimizer,
        reg: float,
    ) -> np.ndarray:
        users, pos_items, neg_items = self._check_triple_arrays(
            users, pos_items, neg_items
        )
        check_non_negative(reg, "reg")
        self._check_trainable_backend()
        w_u = self._user_factors[users]
        h_i = self._item_factors[pos_items]
        h_j = self._item_factors[neg_items]

        info = informativeness(
            np.einsum("bf,bf->b", w_u, h_i),  # repro: noqa[R007] -- host-mirror training math, backend-independent by design
            np.einsum("bf,bf->b", w_u, h_j),  # repro: noqa[R007] -- host-mirror training math, backend-independent by design
        )
        s = info[:, None]

        grad_u = -s * (h_i - h_j) + reg * w_u
        grad_i = -s * w_u + reg * h_i
        grad_j = s * w_u + reg * h_j

        rows_u, agg_u = aggregate_rows(users, grad_u)
        rows_hi, agg_hi = aggregate_rows(
            np.concatenate([pos_items, neg_items]),
            np.concatenate([grad_i, grad_j]),
        )
        optimizer.update_rows("user_factors", self._user_factors, rows_u, agg_u)
        optimizer.update_rows("item_factors", self._item_factors, rows_hi, agg_hi)
        return info

    #: The ``train_step`` that :meth:`train_triple` reproduces.
    _per_triple_reference = train_step

    def train_triple(
        self,
        user: int,
        pos_item: int,
        neg_item: int,
        optimizer: Optimizer,
        reg: float,
    ) -> float:
        """:meth:`train_step` for one triple, bitwise, without its overhead.

        With one user and ``pos_item != neg_item`` every row is distinct, so
        ``aggregate_rows`` is an identity and the rows are updated one by
        one (both optimizers act row by row).  Its ``0 + grad`` only turns
        a ``-0.0`` gradient into ``+0.0``, which changes no parameter or
        moment that is not itself ``-0.0``, and neither optimizer can
        produce one.  The dots stay ``einsum`` on ``(1, f)`` rows, as in
        :meth:`train_step`; the sigmoid runs on floats
        (:func:`~repro.train.loss.informativeness_float`).  ``pos_item ==
        neg_item`` needs the row sum and takes :meth:`train_step`, as does
        a subclass or patch that replaces :meth:`train_step` (a transparent
        ``functools.wraps`` wrapper does not).  Ids are trusted (see
        :meth:`ScoreModel.train_triple`).
        """
        cls = type(self)
        if pos_item == neg_item or not is_or_wraps(
            cls.train_step, cls._per_triple_reference
        ):
            return super().train_triple(user, pos_item, neg_item, optimizer, reg)
        users, items = self._user_factors, self._item_factors
        w_u = users[user : user + 1]
        h_i = items[pos_item : pos_item + 1]
        h_j = items[neg_item : neg_item + 1]
        x_ui = np.einsum("bf,bf->b", w_u, h_i)  # repro: noqa[R007] -- host-mirror training math, backend-independent by design
        x_uj = np.einsum("bf,bf->b", w_u, h_j)  # repro: noqa[R007] -- host-mirror training math, backend-independent by design
        s = informativeness_float(float(x_ui[0]), float(x_uj[0]))

        # train_step's gradients, rearranged only by exact identities
        # (a·b = b·a, -x + y = y - x), in place where that saves a copy.
        step = s * w_u
        grad_u = h_i - h_j
        grad_u *= -s
        grad_u += reg * w_u
        grad_i = reg * h_i
        grad_i -= step
        grad_j = reg * h_j
        grad_j += step

        optimizer.update_rows("user_factors", users, slice(user, user + 1), grad_u)
        optimizer.update_rows(
            "item_factors", items, slice(pos_item, pos_item + 1), grad_i
        )
        optimizer.update_rows(
            "item_factors", items, slice(neg_item, neg_item + 1), grad_j
        )
        return s

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def user_factors(self) -> np.ndarray:
        """The live user embedding table (mutated by training)."""
        return self._user_factors

    @property
    def item_factors(self) -> np.ndarray:
        """The live item embedding table (mutated by training)."""
        return self._item_factors

    def __repr__(self) -> str:
        return (
            f"MatrixFactorization(n_users={self.n_users}, n_items={self.n_items}, "
            f"n_factors={self.n_factors})"
        )
