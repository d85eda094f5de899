"""Raw rating logs, the common output format of all parsers and generators.

A :class:`RatingLog` is the explicit-feedback record (user, item, rating)
before the implicit-feedback conversion the paper applies ("convert all
rated items to implicit feedbacks", §IV-A1).  Parsers for real files and the
synthetic generator both produce this type; :meth:`RatingLog.to_implicit`
performs the conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.interactions import InteractionMatrix

__all__ = ["RatingLog"]


@dataclass(frozen=True)
class RatingLog:
    """Explicit-feedback rating log.

    Attributes
    ----------
    n_users, n_items:
        Universe sizes (ids are already contiguous ``0..n-1``).
    user_ids, item_ids:
        Parallel arrays, one entry per rating event.
    ratings:
        Parallel rating values (five-point scale in the paper's datasets);
        may be ``None`` for purely implicit logs.
    user_occupations:
        Optional per-user occupation id, shape ``(n_users,)``; consumed by
        the occupation-enhanced prior (BNS-4).
    occupation_names:
        Optional readable names indexed by occupation id.
    name:
        Human-readable provenance tag (e.g. ``"ml-100k"``,
        ``"synthetic:ml-100k"``).
    """

    n_users: int
    n_items: int
    user_ids: np.ndarray
    item_ids: np.ndarray
    ratings: Optional[np.ndarray] = None
    user_occupations: Optional[np.ndarray] = None
    occupation_names: Optional[tuple] = None
    name: str = "ratings"

    def __post_init__(self) -> None:
        users = np.asarray(self.user_ids, dtype=np.int64).ravel()
        items = np.asarray(self.item_ids, dtype=np.int64).ravel()
        object.__setattr__(self, "user_ids", users)
        object.__setattr__(self, "item_ids", items)
        if users.shape != items.shape:
            raise ValueError(
                f"user_ids and item_ids must be parallel, got {users.size} and {items.size}"
            )
        if self.n_users <= 0 or self.n_items <= 0:
            raise ValueError("n_users and n_items must be positive")
        if users.size:
            if users.min() < 0 or users.max() >= self.n_users:
                raise ValueError("user id out of range")
            if items.min() < 0 or items.max() >= self.n_items:
                raise ValueError("item id out of range")
        if self.ratings is not None:
            ratings = np.asarray(self.ratings, dtype=np.float64).ravel()
            if ratings.shape != users.shape:
                raise ValueError("ratings must be parallel to user_ids")
            object.__setattr__(self, "ratings", ratings)
        if self.user_occupations is not None:
            occ = np.asarray(self.user_occupations, dtype=np.int64).ravel()
            if occ.size != self.n_users:
                raise ValueError(
                    f"user_occupations must have one entry per user "
                    f"({self.n_users}), got {occ.size}"
                )
            if occ.size and occ.min() < 0:
                raise ValueError("occupation ids must be non-negative")
            object.__setattr__(self, "user_occupations", occ)

    @property
    def n_events(self) -> int:
        """Number of rating events in the log."""
        return int(self.user_ids.size)

    @property
    def n_occupations(self) -> int:
        """Number of distinct occupation ids (0 when absent)."""
        if self.user_occupations is None or self.user_occupations.size == 0:
            return 0
        return int(self.user_occupations.max()) + 1

    def to_implicit(self) -> InteractionMatrix:
        """Convert to an implicit interaction matrix (every rating counts).

        This is the paper's preprocessing: rating details are dropped and
        every rated item becomes a positive instance.
        """
        return InteractionMatrix(self.n_users, self.n_items, self.user_ids, self.item_ids)

    def filter_min_ratings(self, min_user_events: int = 1) -> "RatingLog":
        """Drop events of users with fewer than ``min_user_events`` events.

        Ids are *not* re-indexed; sparse users simply end up with empty rows,
        matching how the paper keeps the published universe sizes fixed.
        """
        if min_user_events <= 1:
            return self
        counts = np.bincount(self.user_ids, minlength=self.n_users)
        keep = counts[self.user_ids] >= min_user_events
        return RatingLog(
            n_users=self.n_users,
            n_items=self.n_items,
            user_ids=self.user_ids[keep],
            item_ids=self.item_ids[keep],
            ratings=None if self.ratings is None else self.ratings[keep],
            user_occupations=self.user_occupations,
            occupation_names=self.occupation_names,
            name=self.name,
        )
