"""Per-user reference loop for the evaluation protocol (the eval oracle).

:class:`repro.eval.protocol.Evaluator` ranks users in chunks: one score
block, one batched top-K, one CSR hit matrix and cumulative-sum metric
kernels per chunk.  This module is the plain per-user version of the same
protocol — per-user ``scores``, per-user top-K, the scalar metric
functions of :mod:`repro.eval.ranking` — against which the chunked
pipeline is checked (``tests/property/test_property_eval_batch.py``,
``tests/eval/test_protocol.py``) and timed (``benchmarks/bench_eval.py``).

Both share the canonical tie rule of :mod:`repro.eval.topk` and the
sequential-sum metric semantics of :mod:`repro.eval.ranking`, so given the
same score *values* they are bitwise identical per user.  Real models'
``scores_batch`` is a BLAS gemm whose last-ulp rounding can differ from
the per-user ``scores`` gemv, so on those the two agree statistically.

Import it as ``from eval_oracle import per_user_reference``: pytest puts
``tests/`` on ``sys.path`` for the test suite, and
``benchmarks/conftest.py`` does the same for the benchmarks.
"""

from typing import Dict

import numpy as np

from repro.eval.ranking import (
    auc,
    average_precision_at_k,
    hit_rate_at_k,
    hits_against,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from repro.eval.topk import top_k_premasked

__all__ = ["per_user_reference"]


def per_user_reference(evaluator, model) -> Dict[str, np.ndarray]:
    """Per-user metrics for ``evaluator``'s configuration, one user at a time.

    Returns the same keys, in the same order, and one value per
    :meth:`~repro.eval.protocol.Evaluator.evaluated_users` entry, as
    :meth:`~repro.eval.protocol.Evaluator.evaluate_per_user`.
    """
    dataset, ks = evaluator.dataset, evaluator.ks
    extra_metrics = evaluator.extra_metrics
    users = evaluator.evaluated_users()
    max_k = max(ks)
    n_items = dataset.n_items
    accumulators: Dict[str, list] = {}

    def add(key, value):
        accumulators.setdefault(key, []).append(value)

    # Reused per-user workspaces: one masking row for top-K extraction
    # and, for AUC, the relevance/candidate masks.
    masked = np.empty(n_items, dtype=np.float64)
    relevant_mask = np.zeros(n_items, dtype=bool)
    candidate_mask = np.empty(n_items, dtype=bool)

    for user in users.tolist():
        train_pos = dataset.train.items_of(user)
        test_pos = dataset.test.items_of(user)
        relevant = set(test_pos.tolist())
        scores = np.asarray(model.scores(user), dtype=np.float64)
        np.copyto(masked, scores)
        masked[train_pos] = -np.inf
        ranked = top_k_premasked(masked, max_k)
        # Hit flags once per user; every metric below reuses them.
        hits = hits_against(ranked, test_pos)
        for k in ks:
            add(f"precision@{k}", precision_at_k(ranked, relevant, k, hits=hits))
            add(f"recall@{k}", recall_at_k(ranked, relevant, k, hits=hits))
            add(f"ndcg@{k}", ndcg_at_k(ranked, relevant, k, hits=hits))
            if extra_metrics:
                add(f"hitrate@{k}", hit_rate_at_k(ranked, relevant, k, hits=hits))
                add(f"map@{k}", average_precision_at_k(ranked, relevant, k, hits=hits))
        if extra_metrics:
            add("mrr", reciprocal_rank(ranked, relevant, hits=hits))
            relevant_mask[test_pos] = True
            candidate_mask.fill(True)
            candidate_mask[train_pos] = False
            add("auc", auc(scores, relevant_mask, candidate_mask))
            relevant_mask[test_pos] = False

    return {key: np.asarray(values) for key, values in accumulators.items()}
