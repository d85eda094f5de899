"""Per-user top-K result cache with invalidation and bounded staleness.

:class:`TopKCache` holds each user's precomputed recommendation list (the
canonical-order output of :func:`repro.eval.topk.top_k_items_batch`,
truncated to the cache width).  Because the canonical ranking is a total
order, any request for ``k <= cache_k`` is a pure prefix read — one dict
lookup and one slice, no scoring.

Invalidation has two modes, chosen at construction:

* **strict** (``refresh_every=None``, the default) — ``invalidate(user)``
  drops the entry; the next request recomputes from the live model and
  interaction matrix.  Served lists are always exact.
* **staleness-tolerant** (``refresh_every=T``) — the AOBPR/``CachedCDF``
  trick applied to serving: an invalidated entry is *kept* and served for
  up to ``T`` further dispatches (the clock advanced by
  :meth:`advance`), then expires into a miss.  Correctness of seen-item
  filtering is preserved throughout: the items whose arrival caused the
  invalidation are recorded and struck from every stale read, so a user
  is never recommended something they have already interacted with —
  only the *re-ranking* of the remaining items is deferred.

The cache is plain bookkeeping — no locking here.  Thread safety is the
:class:`repro.serve.service.RankingService`'s job, which wraps every
cache access in its service lock.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["TopKCache"]


class TopKCache:
    """Map ``user ->`` cached canonical top-``cache_k`` id list.

    Parameters
    ----------
    cache_k:
        Width of the cached lists.  Requests with ``k <= cache_k`` can be
        served as prefix reads; wider requests bypass the cache.
    refresh_every:
        ``None`` for strict invalidation; an integer ``T`` serves
        invalidated entries (with fresh interactions filtered out) for up
        to ``T`` dispatches before they expire into misses.
    """

    def __init__(self, cache_k: int, *, refresh_every: Optional[int] = None) -> None:
        self.cache_k = int(check_positive(cache_k, "cache_k"))
        self.refresh_every = (
            None
            if refresh_every is None
            else int(check_positive(refresh_every, "refresh_every"))
        )
        self._entries: Dict[int, np.ndarray] = {}
        #: user -> dispatch stamp at which the entry was invalidated.
        self._dirty_at: Dict[int, int] = {}
        #: user -> item ids appended since the entry was computed (must be
        #: filtered from every stale read).
        self._hidden: Dict[int, np.ndarray] = {}
        self._step = 0

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #

    def advance(self) -> None:
        """Advance the staleness clock by one dispatch (one request)."""
        self._step += 1

    @property
    def step(self) -> int:
        """Dispatches seen so far (the staleness clock)."""
        return self._step

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def get(self, user: int, k: int) -> Optional[np.ndarray]:
        """The user's top-``k`` prefix, or ``None`` on a miss.

        A miss is: no entry, ``k > cache_k``, or — in staleness mode — an
        invalidated entry whose tolerance window has expired.  An expired
        entry is *retained* (still a miss on every :meth:`get`): the
        caller's recompute overwrites it via :meth:`put`, and if that
        recompute fails the degraded path can still :meth:`peek` the last
        known list.  The returned array is freshly sliced/copied and safe
        to hand to callers.
        """
        if k > self.cache_k:
            return None
        entry = self._entries.get(user)
        if entry is None:
            return None
        dirty_at = self._dirty_at.get(user)
        if dirty_at is not None:
            if (
                self.refresh_every is None
                or self._step - dirty_at >= self.refresh_every
            ):
                return None
            hidden = self._hidden.get(user)
            if hidden is not None and hidden.size:
                entry = entry[~np.isin(entry, hidden)]
        return entry[:k].copy()

    def peek(self, user: int, k: int) -> Optional[np.ndarray]:
        """Best-effort read for degraded serving: the user's cached
        prefix even when invalidated or expired.

        Unlike :meth:`get` this never drops an entry and ignores the
        staleness window — a stale-but-filtered list is a better answer
        than nothing when the scorer is down.  Seen-item hygiene is
        preserved: items recorded at invalidation are still struck.
        Returns ``None`` only when no entry exists at all or
        ``k > cache_k``.
        """
        if k > self.cache_k:
            return None
        entry = self._entries.get(user)
        if entry is None:
            return None
        hidden = self._hidden.get(user)
        if hidden is not None and hidden.size:
            entry = entry[~np.isin(entry, hidden)]
        return entry[:k].copy()

    def is_stale(self, user: int) -> bool:
        """Whether the user's entry exists but has been invalidated."""
        return user in self._entries and user in self._dirty_at

    def stale_users(self) -> np.ndarray:
        """Sorted ids of users currently served stale entries."""
        return np.asarray(
            sorted(u for u in self._dirty_at if u in self._entries),
            dtype=np.int64,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, user: int) -> bool:
        return user in self._entries

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def put(self, user: int, ids: np.ndarray) -> None:
        """Store a user's fresh canonical list (truncated to ``cache_k``).

        ``ids`` must be the unpadded canonical list as computed against
        the *current* interaction matrix; storing clears any staleness
        bookkeeping for the user.
        """
        self._entries[int(user)] = np.asarray(ids, dtype=np.int64)[: self.cache_k]
        self._dirty_at.pop(int(user), None)
        self._hidden.pop(int(user), None)

    def put_rows(
        self, users: np.ndarray, ids: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Bulk :meth:`put` from a ``top_k_items_batch`` result block."""
        for row, user in enumerate(np.asarray(users, dtype=np.int64).tolist()):
            self.put(user, ids[row, : lengths[row]])

    def invalidate(
        self, user: int, hidden_items: Optional[np.ndarray] = None
    ) -> None:
        """Mark a user's entry out of date.

        ``hidden_items`` are the newly appended interactions; in
        staleness mode they are struck from every read of the stale entry
        so seen-item filtering stays exact.  In strict mode the entry is
        dropped outright.  Unknown users are a no-op.
        """
        user = int(user)
        if user not in self._entries:
            return
        if self.refresh_every is None:
            self._drop(user)
            return
        if user not in self._dirty_at:
            self._dirty_at[user] = self._step
        if hidden_items is not None:
            fresh = np.asarray(hidden_items, dtype=np.int64).ravel()
            previous = self._hidden.get(user)
            if previous is not None:
                fresh = np.concatenate([previous, fresh])
            self._hidden[user] = np.unique(fresh)

    def clear(self) -> None:
        """Drop every entry and all staleness bookkeeping."""
        self._entries.clear()
        self._dirty_at.clear()
        self._hidden.clear()

    # ------------------------------------------------------------------ #

    def _drop(self, user: int) -> None:
        self._entries.pop(user, None)
        self._dirty_at.pop(user, None)
        self._hidden.pop(user, None)

    def __repr__(self) -> str:
        mode = (
            "strict"
            if self.refresh_every is None
            else f"refresh_every={self.refresh_every}"
        )
        return (
            f"TopKCache(cache_k={self.cache_k}, {mode}, "
            f"entries={len(self._entries)}, stale={len(self._dirty_at)})"
        )
