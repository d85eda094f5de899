"""End-to-end benchmark of the BNS reproduction: one workload per call.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload paper-b1 --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload traced and then untraced and prints the per-layer metrics plus
``trace.overhead``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when a correctness check failed and 2 when the program cannot be
found.  See ``e2ebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, pinned before numpy loads: the benchmark machine has two
# shared cores and each workload has exactly one calling thread.
BLAS_THREADS = "1"
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS
# Synthetic data only, whatever the caller's environment points at.
os.environ.pop("REPRO_DATA_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Per-layer metrics of the traced run, in report order, with units.
PER_LAYER = (
    ("train.fit.self_s", "s"),
    ("models.train_step.calls", "count"),
    ("models.train_step.busy_s", "s"),
    ("models.scores.calls", "count"),
    ("models.scores.busy_s", "s"),
    ("models.scores_batch.calls", "count"),
    ("models.scores_batch.busy_s", "s"),
    ("samplers.sample_for_user.calls", "count"),
    ("samplers.sample_for_user.self_s", "s"),
    ("samplers.sample_batch.calls", "count"),
    ("samplers.sample_batch.busy_s", "s"),
    ("samplers.cdf.calls", "count"),
    ("samplers.cdf.busy_s", "s"),
    ("backend.matvec.calls", "count"),
    ("backend.gemm_nt.calls", "count"),
    ("backend.gather_dot.calls", "count"),
    ("backend.topk.calls", "count"),
    ("eval.evaluate.calls", "count"),
    ("eval.evaluate.busy_s", "s"),
    ("engine.run_many.self_s", "s"),
    ("engine.execute.busy_s", "s"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.retried", "count"),
    ("store.store.busy_s", "s"),
    ("store.load.busy_s", "s"),
    ("experiments.assemble.busy_s", "s"),
    ("experiments.theory.busy_s", "s"),
    ("serve.top_k.hit.calls", "count"),
    ("serve.top_k.hit.busy_s", "s"),
    ("serve.top_k.miss.calls", "count"),
    ("serve.top_k.miss.busy_s", "s"),
    ("serve.top_k.miss.self_s", "s"),
    ("serve.add_interactions.busy_s", "s"),
    ("serve.hit_rate", "ratio"),
    ("serve.invalidated", "count"),
    ("serve.degraded", "count"),
    ("serve.coalescer.batches", "count"),
    ("serve.coalescer.mean_batch_size", "count"),
    ("data.load_dataset.busy_s", "s"),
    ("data.with_appended.calls", "count"),
    ("data.with_appended.busy_s", "s"),
    ("trace.overhead", "ratio"),
)

#: Self times must sum to the traced phases' wall time within this share.
ACCOUNTING_TOLERANCE = 0.01


def provenance(seed: int) -> dict:
    """Where a result came from (printed beside it)."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "src_lines": src_lines,
    }


def layer_metrics(tracer, traced, untraced) -> dict:
    """The per-layer metrics of a traced run (every name; 0 when unused)."""
    spans = tracer.summary()
    values = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        values[name] = spans.get(layer, {}).get(stat, 0)
    for kernel, count in tracer.counters.items():
        values[f"{kernel}.calls"] = count
    for name, (value, _) in traced.counters.items():
        values[name] = value
    values["trace.overhead"] = traced.timed_s / untraced.timed_s - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def check_accounting(tracer, traced) -> dict:
    """Self times account for the traced wall time of the measured phases."""
    root_s, self_sum_s, min_self_s = tracer.accounting()
    return {
        "trace_self_times_sum_to_roots": abs(self_sum_s - root_s) <= 1e-6 * max(root_s, 1.0),
        "trace_self_times_non_negative": min_self_s >= -1e-9,
        "trace_roots_cover_timed_phases": abs(root_s - traced.timed_s)
        <= ACCOUNTING_TOLERANCE * traced.timed_s,
    }


def main(argv=None) -> int:
    from workloads import FULL, TRACED, WORKLOADS, Run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=int,
        default=30,
        help="accepted with the other options; each workload does a fixed "
        "amount of work, so this does not change what is measured",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - imported before any timing starts

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            from spans import Tracer, install

            tracer = Tracer()
            try:
                install(tracer)
                traced = workload(args.seed, TRACED[args.workload], Run(tracer), workdir)
            finally:
                tracer.uninstall()
            untraced = workload(args.seed, TRACED[args.workload], Run(), workdir)
            checks = {**traced.checks, **untraced.checks, **check_accounting(tracer, traced)}
            outcome = untraced
            metrics = layer_metrics(tracer, traced, untraced)
            failed = traced.failed + untraced.failed
            attempted = traced.attempted + untraced.attempted
        else:
            outcome = workload(args.seed, FULL[args.workload], Run(), workdir)
            checks = outcome.checks
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            }
            failed, attempted = outcome.failed, outcome.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    correct = all(checks.values()) and failed == 0
    print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, (value, unit) in outcome.details.items():
        print(f"detail {args.workload}/{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
