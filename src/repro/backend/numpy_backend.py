"""The dense kernels: one named method per contraction.

Every hot contraction in the library — the ``scores`` gemv, the
``scores_batch`` gemm, the ``score_pairs`` / ``score_items_batch`` dots,
the LightGCN ``Â`` propagation and the canonical top-K — is a call to
:data:`KERNELS`.  Keeping them behind named methods has two uses: rule
R007 (``repro lint``) keeps the contractions of ``models/``, ``eval/``
and ``serve/`` in this one module, and a profiler or benchmark can count
or time each kernel by wrapping one method of :class:`NumpyBackend`.

Each method body is the plain numpy expression (``a @ b.T``,
``np.einsum("bf,bf->b", ...)``, ...) and keeps its operands' dtype, so
float64 outputs are pinned bitwise by ``tests/backend/test_parity.py``
and float32 runs the same expressions at the narrower dtype.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["KERNELS", "NumpyBackend"]


class NumpyBackend:
    """Host numpy kernels over parameter tables and score blocks."""

    def matvec(self, matrix, vector):
        """``matrix @ vector`` — one user's score row (gemv)."""
        return matrix @ vector

    def gemm_nt(self, a, b):
        """``a @ b.T`` — the ``(B, n_items)`` score-block gemm."""
        return a @ b.T

    def pair_dot(self, a, b):
        """Row-parallel dots ``einsum("bf,bf->b", a, b)``."""
        return np.einsum("bf,bf->b", a, b)

    def gather_dot(self, a, b):
        """Per-row gathered dots ``einsum("bf,bmf->bm", a, b)``."""
        return np.einsum("bf,bmf->bm", a, b)

    def spmm(self, sparse, dense):
        """``sparse @ dense`` — one LightGCN ``Â`` propagation step."""
        return sparse @ dense

    def topk(self, masked, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical row-wise top-``k`` ``(ids, lengths)``.

        Exactly :func:`repro.eval.topk.top_k_items_batch` (descending
        score, ascending id breaking ties, including across the cut-off),
        so served and evaluated rankings come from one kernel.
        """
        from repro.eval.topk import top_k_items_batch

        return top_k_items_batch(masked, k)


#: The instance every model, the evaluator and the serving scorer call.
KERNELS = NumpyBackend()
