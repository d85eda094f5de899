"""Evaluation-protocol benchmark: scalar vs batched users/sec.

Times the full Table-II protocol — score every evaluable user, mask train
positives, extract top-``max(ks)``, compute Precision/Recall/NDCG at every
cutoff — two ways:

* scalar — the per-user oracle in ``tests/eval_oracle.py`` (per-user
  ``scores``, per-user top-K, scalar metric functions);
* batched — :class:`~repro.eval.protocol.Evaluator`, the chunked pipeline
  (one ``scores_batch`` block, one batched top-K, one CSR hit matrix and
  cumulative-sum kernels per chunk).

Results land in ``BENCH_eval.json`` at the repo root so the perf
trajectory is tracked across PRs.  The acceptance bar for the eval
refactor: the batched path must process users >= 5x faster than the
scalar path on a dataset with at least 1000 evaluated users.

Environment knobs (for CI smoke runs on shared, noisy runners):

* ``REPRO_EVAL_BENCH_DATASET`` — a registry dataset name (e.g. ``tiny``)
  instead of the default >= 1k-user synthetic bench dataset; the 1k-user
  floor on the user count is only enforced for the default.
* ``REPRO_EVAL_BENCH_MIN_SPEEDUP`` — speedup gate, default ``5.0``.
"""

import json
import os
from pathlib import Path

import numpy as np

from conftest import best_seconds
from eval_oracle import per_user_reference
from repro.data.registry import dataset_from_log, load_dataset
from repro.data.synthetic import PRESETS, LatentFactorGenerator
from repro.eval.protocol import Evaluator
from repro.models.mf import MatrixFactorization

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_eval.json"

KS = (5, 10, 20)
DEFAULT_DATASET = "eval-bench"
#: ml-100k scaled up just past the 1k-evaluated-users bar of the
#: acceptance gate (943 users -> ~1270, ~2270 items).
_BENCH_SCALE = 1.35


def _bench_dataset(name):
    if name != DEFAULT_DATASET:
        return load_dataset(name, seed=0)
    preset = PRESETS["ml-100k"].scaled(_BENCH_SCALE, suffix="-eval-bench")
    log = LatentFactorGenerator(preset, seed=0).generate()
    return dataset_from_log(log, seed=0)


def test_batched_vs_scalar_eval_speedup():
    """Record the scalar-vs-batched evaluation comparison and gate it.

    The acceptance bar for the vectorized protocol: the ``Evaluator`` must
    process >= 5x the users/sec of the per-user oracle at >= 1000
    evaluated users.  Results land in ``BENCH_eval.json``.
    """
    dataset_name = os.environ.get("REPRO_EVAL_BENCH_DATASET", DEFAULT_DATASET)
    dataset = _bench_dataset(dataset_name)
    model = MatrixFactorization(
        dataset.n_users, dataset.n_items, n_factors=32, seed=0
    )
    batched_eval = Evaluator(dataset, ks=KS)
    n_users = batched_eval.evaluated_users().size

    scalar_repeats = 3 if n_users >= 500 else 10
    (scalar_seconds,) = best_seconds(
        lambda: per_user_reference(batched_eval, model), repeats=scalar_repeats
    )
    (batched_seconds,) = best_seconds(
        lambda: batched_eval.evaluate_per_user(model), repeats=10
    )
    speedup = scalar_seconds / batched_seconds

    # Sanity: both paths measure the same protocol.  (Statistically, not
    # bitwise — MF's scores_batch gemm rounds differently from the
    # per-user gemv; exact parity on a shared score source is pinned by
    # tests/property/test_property_eval_batch.py.)
    scalar_metrics = per_user_reference(batched_eval, model)
    batched_metrics = batched_eval.evaluate(model)
    for key, values in scalar_metrics.items():
        assert np.isclose(batched_metrics[key], values.mean(), atol=1e-9), key

    payload = {
        "dataset": dataset.name,
        "n_evaluated_users": int(n_users),
        "n_items": dataset.n_items,
        "ks": list(KS),
        "chunk_users": batched_eval.chunk_users,
        "scalar_users_per_s": round(n_users / scalar_seconds, 1),
        "batched_users_per_s": round(n_users / batched_seconds, 1),
        "speedup": round(speedup, 2),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[saved to {BENCH_JSON}]")
    print(
        f"  {dataset.name}: {n_users} users  "
        f"scalar {payload['scalar_users_per_s']}/s  "
        f"batched {payload['batched_users_per_s']}/s  "
        f"speedup {payload['speedup']}x"
    )

    if dataset_name == DEFAULT_DATASET:
        assert n_users >= 1000, (
            f"bench dataset must evaluate >= 1000 users, got {n_users}"
        )
    # Acceptance bar is 5x on a quiet machine; shared CI runners see BLAS
    # thread contention and CPU steal, so they gate at a noise-tolerant
    # floor via REPRO_EVAL_BENCH_MIN_SPEEDUP instead of turning perf
    # jitter into red builds for unrelated changes.
    floor = float(os.environ.get("REPRO_EVAL_BENCH_MIN_SPEEDUP", "5.0"))
    assert speedup >= floor, (
        f"batched evaluation must be >= {floor}x the per-user loop, got "
        f"{speedup:.2f}x (see {BENCH_JSON})"
    )
