"""BPR pairwise loss, its gradients, and the informativeness measure.

The paper trains every model with Eq. 1,

    max_Θ  Σ_(u,i,j) ln σ(x̂_ui − x̂_uj),

whose gradient w.r.t. the negative's score is Eq. 2,

    ∂L/∂x̂_uj = −[1 − σ(x̂_ui − x̂_uj)].

The bracketed magnitude is exactly the paper's ``info(j)`` (Eq. 4): the
loss-gradient magnitude a sampled negative contributes, i.e. how much the
model can still learn from it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "sigmoid",
    "log_sigmoid",
    "bpr_loss",
    "informativeness",
    "informativeness_float",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``ln σ(x)`` (never produces ``-inf`` overflow)."""
    x = np.asarray(x, dtype=np.float64)
    # ln σ(x) = -softplus(-x); softplus(z) = max(z, 0) + log1p(exp(-|z|)).
    return -(np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x))))


def bpr_loss(
    pos_scores: np.ndarray, neg_scores: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-triple BPR loss and score-gradient magnitude.

    Returns ``(loss, info)`` where ``loss = −ln σ(x̂_ui − x̂_uj)`` (the
    quantity being *minimized*) and ``info = 1 − σ(x̂_ui − x̂_uj)`` (Eq. 4).
    ``info`` is simultaneously ``∂loss/∂x̂_uj`` and ``−∂loss/∂x̂_ui``.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.shape != neg_scores.shape:
        raise ValueError(
            f"pos/neg score shapes differ: {pos_scores.shape} vs {neg_scores.shape}"
        )
    diff = pos_scores - neg_scores
    return -log_sigmoid(diff), 1.0 - sigmoid(diff)


def informativeness(pos_scores: np.ndarray, neg_scores: np.ndarray) -> np.ndarray:
    """Eq. 4: ``info(j) = 1 − σ(x̂_ui − x̂_uj)`` — gradient magnitude.

    Vanishes when the negative already scores far below the positive
    (nothing left to learn) and approaches 1 for hard negatives scoring
    above the positive.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    return 1.0 - sigmoid(pos_scores - neg_scores)


def informativeness_float(pos_score: float, neg_score: float) -> float:
    """:func:`informativeness` of one pair of Python floats, bitwise equal
    to the array version.

    The per-triple training path uses these scalar twins: on a handful of
    values the array version's masking costs more than its arithmetic.
    ``exp`` stays a numpy call (``math.exp`` rounds differently from
    numpy's SIMD ``exp`` on a few percent of inputs) on exactly the value
    :func:`sigmoid` exponentiates on that branch; the rest is IEEE-exact
    float arithmetic, the same in Python as in numpy.
    """
    x = pos_score - neg_score
    if x >= 0:
        return 1.0 - 1.0 / (1.0 + float(np.exp(-x)))
    e = float(np.exp(x))
    return 1.0 - e / (1.0 + e)
