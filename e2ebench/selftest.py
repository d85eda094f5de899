"""Self-test of the benchmark: every workload at a mini size, in seconds.

Run from the root of a checkout::

    python3 e2ebench/selftest.py

It checks that each workload passes its correctness checks untraced and
traced, reports exactly the metrics ``BENCHMARK.json`` declares, and that
each workload's checks catch a deliberately wrong answer from the program.
It also checks that ``run.py`` exits non-zero without a result when the
program's source is missing.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager

import run  # noqa: F401 - pins BLAS threads before numpy loads
from run import PER_LAYER, ROOT, SRC, check_accounting, layer_metrics

sys.path.insert(0, str(SRC))

from spans import Tracer, install  # noqa: E402
from workloads import MINI, WORKLOADS, Run  # noqa: E402

WORK = ROOT / ".e2ebench_work" / "selftest"


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAIL: {message}")
        sys.exit(1)
    print(f"selftest ok   {message}")


@contextmanager
def patched(owner, attribute, make):
    """Temporarily replace ``owner.attribute`` with ``make(original)``."""
    original = owner.__dict__[attribute]
    setattr(owner, attribute, make(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def run_mini(name: str, tracer=None):
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        return WORKLOADS[name](3, MINI[name], Run(tracer), WORK)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_format() -> None:
    """BENCHMARK.json stays within its format limits."""
    text = (ROOT / "BENCHMARK.json").read_text()
    bench = json.loads(text)
    expect(len(text.encode()) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    expect(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly its six keys",
    )
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds is a whole number from 1 to 60")
    expect(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    expect(
        all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
            for w in bench["workloads"]),
        "each workload has a name and a one-line why of at most 200 characters",
    )
    expect(1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128,
           "1-16 end_to_end and 1-128 per_layer metrics")
    expect(
        all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
            for m in bench["end_to_end"]),
        "end_to_end metrics have exactly name, unit, better and a bound of at most 0.25",
    )
    expect(all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"]),
           "per_layer metrics have exactly name, unit and better")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
        "setup_s is in s, lower is better, with the largest bound",
    )
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    metrics = bench["end_to_end"] + bench["per_layer"]
    expect(
        len(names) == len(set(names))
        and all(NAME.fullmatch(n) for n in names)
        and all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
        "names are unique and well formed, units well formed",
    )


def check_declared_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name in WORKLOADS:
        outcome = run_mini(name)
        expect(outcome.correct, f"{name}: checks pass at mini size")
        reported = {metric: unit for metric, (_, unit) in outcome.metrics.items()}
        expect(reported == declared, f"{name}: reports every end_to_end metric")
        expect(
            all(value != 0 for value, _ in outcome.metrics.values()),
            f"{name}: no end_to_end metric is 0",
        )
    expect(
        [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER),
        "BENCHMARK.json per_layer matches the traced run's metrics",
    )
    expect(
        [w["name"] for w in bench["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads match the workloads",
    )


def check_traced() -> None:
    for name in WORKLOADS:
        tracer = Tracer()
        try:
            install(tracer)
            traced = run_mini(name, tracer)
        finally:
            tracer.uninstall()
        untraced = run_mini(name)
        metrics = layer_metrics(tracer, traced, untraced)
        expect(traced.correct, f"{name}: traced run passes its checks")
        expect(
            all(check_accounting(tracer, traced).values()),
            f"{name}: self times account for the traced wall time",
        )
        expect(list(metrics) == [n for n, _ in PER_LAYER], f"{name}: every per-layer metric")


def check_checks_catch_faults() -> None:
    from repro.experiments.engine.store import ArtifactStore
    from repro.samplers.bns import BayesianNegativeSampler
    from repro.serve.service import RankingService

    def train_positive(original):
        def sample_for_user(self, user, positives, scores=None):
            negatives = original(self, user, positives, scores)
            negatives[:] = self.dataset.train.items_of(user)[0]
            return negatives

        return sample_for_user

    with patched(BayesianNegativeSampler, "sample_for_user", train_positive):
        expect(not run_mini("paper-b1").correct, "paper-b1: a train positive drawn as negative fails")

    def altered(original):
        def load(self, key):
            payload = original(self, key)
            if payload is not None:
                payload["loss_curve"] = [v + 1.0 for v in payload["loss_curve"]]
            return payload

        return load

    with patched(ArtifactStore, "load", altered):
        expect(not run_mini("grid").correct, "grid: a replay payload unequal to cold fails")

    def seen_item(original):
        def top_k(self, user, k=10):
            answer = original(self, user, k).copy()
            answer[-1] = self.train.items_of(user)[0]
            return answer

        return top_k

    with patched(RankingService, "top_k", seen_item):
        expect(not run_mini("serve-rw").correct, "serve-rw: a served seen item fails")

    def reversed_order(original):
        def top_k(self, user, k=10):
            return original(self, user, k)[::-1].copy()

        return top_k

    with patched(RankingService, "top_k", reversed_order):
        expect(not run_mini("serve-rw").correct, "serve-rw: a list unequal to the offline top-K fails")


def check_missing_program() -> None:
    bare = ROOT / ".e2ebench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "e2ebench", bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "grid", "--seed", "1",
             "--seconds", "30", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        "run.py exits non-zero without a result when the program is missing",
    )


if __name__ == "__main__":
    check_format()
    check_declared_metrics()
    check_traced()
    check_checks_catch_faults()
    check_missing_program()
    print("selftest passed")
