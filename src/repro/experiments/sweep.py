"""Replicated runs and seed sweeps.

The paper reports "we have run our BNS for 10 times, the standard
deviations for each evaluation metric are consistently less than 0.002"
(§IV-B1).  :func:`run_replicated` supports exactly that protocol: repeat a
spec over independent seeds (dataset split, model init and sampling all
re-seeded) and aggregate per-metric mean and standard deviation.

Replications are engine requests (one per seed), so repeated seeds are
trained once, a cached grid replays instantly, and an engine with a
process-pool backend trains the seeds concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.config import RunSpec
from repro.experiments.engine import EngineRequest, ExperimentEngine, resolve_engine
from repro.utils.validation import check_positive

__all__ = ["ReplicationResult", "replication_requests", "run_replicated"]


@dataclass(frozen=True)
class ReplicationResult:
    """Aggregated metrics of one spec repeated over several seeds."""

    spec: RunSpec
    seeds: tuple
    per_seed: tuple  # tuple of metric dicts, aligned with seeds

    def mean(self, metric: str) -> float:
        """Across-seed mean of a metric."""
        return float(np.mean(self._values(metric)))

    def std(self, metric: str) -> float:
        """Across-seed (population) standard deviation of a metric."""
        return float(np.std(self._values(metric)))

    def summary(self) -> Dict[str, Dict[str, object]]:
        """``{metric: {"mean", "std", "per_seed"}}`` for every metric.

        ``per_seed`` carries the raw values aligned with :attr:`seeds`,
        so an exported (or cache-replayed) replication is complete — the
        aggregates can be recomputed without re-training anything.
        """
        metrics = self.per_seed[0].keys()
        return {
            metric: {
                "mean": self.mean(metric),
                "std": self.std(metric),
                "per_seed": [float(v) for v in self._values(metric)],
            }
            for metric in metrics
        }

    def _values(self, metric: str) -> List[float]:
        try:
            return [run[metric] for run in self.per_seed]
        except KeyError:
            available = sorted(self.per_seed[0])
            raise KeyError(
                f"metric {metric!r} not recorded; available: {available}"
            ) from None


def replication_requests(
    spec: RunSpec,
    n_seeds: int = 10,
    *,
    base_seed: int = 0,
    fixed_dataset: bool = False,
) -> List[EngineRequest]:
    """The engine requests of one replication protocol (one per seed).

    By default each repetition re-generates/re-splits its dataset with its
    own seed (full-pipeline variance).  ``fixed_dataset=True`` holds the
    dataset at ``base_seed`` and varies only model/sampling randomness —
    the paper's "same data, re-run the algorithm" protocol.
    """
    check_positive(n_seeds, "n_seeds")
    return [
        EngineRequest(
            spec=replace(spec, seed=seed),
            dataset_seed=base_seed if fixed_dataset else None,
        )
        for seed in range(base_seed, base_seed + int(n_seeds))
    ]


def run_replicated(
    spec: RunSpec,
    n_seeds: int = 10,
    *,
    base_seed: int = 0,
    fixed_dataset: bool = False,
    engine: Optional[ExperimentEngine] = None,
) -> ReplicationResult:
    """Repeat ``spec`` across seeds ``base_seed … base_seed + n_seeds − 1``."""
    requests = replication_requests(
        spec, n_seeds, base_seed=base_seed, fixed_dataset=fixed_dataset
    )
    results = resolve_engine(engine).run_many(requests)
    return ReplicationResult(
        spec=spec,
        seeds=tuple(request.spec.seed for request in requests),
        per_seed=tuple(dict(result.metrics) for result in results),
    )
