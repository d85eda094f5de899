"""Seeded random-number-generator plumbing.

The rule followed throughout this code base is: *no module-level or implicit
global randomness*.  Every class or function that needs randomness accepts
either an integer seed or a ready :class:`numpy.random.Generator`, converted
at the boundary with :func:`as_rng`.  Components that hold a generator for
their lifetime mix in :class:`RngMixin`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = ["SeedLike", "RngMixin", "as_rng", "make_rng", "spawn_rngs"]


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a fresh PCG64 generator from an integer seed.

    Parameters
    ----------
    seed:
        Integer seed.  ``None`` draws entropy from the OS, which is only
        appropriate for interactive exploration, never inside experiments.
    """
    return np.random.default_rng(seed)


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce a seed-like value into a :class:`numpy.random.Generator`.

    Accepts ``None`` (OS entropy), an ``int`` seed, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged so state is shared with the
    caller — intentional, as it lets a trainer thread one generator through
    its sampler and initializer).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"expected None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from one seed.

    Used when an experiment needs independent randomness streams (e.g. one
    per repetition of a sweep) that must not interact, yet the whole sweep
    must be reproducible from a single seed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Spawn through the generator's bit generator seed sequence.
        seq = seed.bit_generator.seed_seq
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


class RngMixin:
    """Mixin giving a class a lazily-created, seedable ``self.rng``.

    Subclasses call ``self._init_rng(seed)`` in ``__init__``.  The property
    :attr:`rng` is then available everywhere in the class.
    """

    _rng: np.random.Generator

    def _init_rng(self, seed: SeedLike) -> None:
        self._rng = as_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The generator owned by this object."""
        if not hasattr(self, "_rng"):
            raise AttributeError(
                f"{type(self).__name__} did not call _init_rng() in __init__"
            )
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Replace the owned generator (e.g. between sweep repetitions)."""
        self._rng = as_rng(seed)
