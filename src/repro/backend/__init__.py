"""Dense kernels and the dtype policy.

Public surface::

    from repro.backend import KERNELS, resolve_dtype
    scores = KERNELS.matvec(item_factors, user_factors[u])
    dtype = resolve_dtype("float32")        # policy: float64 exact / float32 fast
    model = MatrixFactorization(..., dtype=dtype)

:data:`KERNELS` (a :class:`NumpyBackend`) holds the named contractions
models, the evaluator and the serving scorer call; see
:mod:`repro.backend.numpy_backend`.  The dtype policy is a two-point
switch: models create their parameter tables at the policy dtype and
every kernel keeps it.  float32 runs are statistically, not bitwise,
equivalent to float64 (README "Precision").
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.backend.numpy_backend import KERNELS, NumpyBackend

__all__ = [
    "DTYPE_NAMES",
    "KERNELS",
    "NumpyBackend",
    "dtype_name",
    "resolve_dtype",
]

#: Accepted dtype-policy names, canonical order (default first).
DTYPE_NAMES: Tuple[str, ...] = ("float64", "float32")

DTypeLike = Union[str, np.dtype, type]


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Canonicalize a dtype-policy value to ``np.float64``/``np.float32``.

    Accepts the policy names (:data:`DTYPE_NAMES`) or equivalent NumPy
    dtypes; anything else is rejected — the policy is deliberately a
    two-point switch (exact vs. fast), not a general dtype plumbing.
    """
    resolved = np.dtype("float64" if dtype is None else dtype)
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(
            f"unsupported dtype policy {dtype!r}; use one of {DTYPE_NAMES}"
        )
    return resolved


def dtype_name(dtype: DTypeLike) -> str:
    """The policy name ("float64"/"float32") of a resolved dtype."""
    return resolve_dtype(dtype).name
