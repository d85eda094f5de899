"""Shared infrastructure for the benchmark suite.

Each ``bench_*``/``test_*`` module regenerates one of the paper's tables or
figures at the ``bench`` scale (scaled-down calibrated synthetic datasets;
see :mod:`repro.data.synthetic`) and writes the formatted artifact to
``benchmarks/output/<name>.txt``.

Set ``REPRO_BENCH_SCALE=paper`` to run the full-scale configuration (much
slower; matches the paper's universe sizes and epoch counts).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Callable, List

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"

# Benches that time a path against its tests-side oracle (``bench_eval``
# against ``tests/eval_oracle.py``) import it the way the test suite does.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def best_seconds(*fns: Callable[[], object], repeats: int) -> List[float]:
    """Best-of-``repeats`` wall time of each of ``fns``, in seconds.

    Each function runs once to warm caches (negative tables, BLAS, CSR
    indices), then every round times each function once, in turn.  With
    several functions the rounds alternate between them, so a host that
    drifts faster or slower over the measurement moves every side alike
    instead of biasing the ratio between sides timed minutes apart.
    """
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def bench_scale() -> str:
    """The harness scale benchmarks run at (default: 'bench')."""
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    """Save a formatted artifact and echo it to the terminal."""

    def _save(name: str, text: str) -> None:
        path = artifact_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
