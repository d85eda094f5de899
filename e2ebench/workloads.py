"""The three benchmark workloads and their correctness checks.

Each workload does a fixed, seeded amount of work through the program's
public API with default settings, times its phases with the benchmark's
own clock, and checks the program's outputs.  Nothing here tunes a knob of
the program: a faster program does the same work in less time.

* ``paper-b1``: one epoch of the paper's configuration, MF + BNS at
  ``batch_size=1`` through ``Trainer.fit``, then one ``Evaluator.evaluate``.
* ``grid``: ``run_all("unit", dataset="tiny")`` cold into a fresh
  ``ArtifactStore``, then the warm replay from a second engine on the same
  store; several grids per run, one seed each.
* ``serve-rw``: a ``RankingService`` loaded from a checkpoint and warmed,
  driven by one closed-loop caller over a seeded stream of Zipf reads and
  one single-pair write every 20th operation.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

clock = time.perf_counter


@dataclass(frozen=True)
class Size:
    """How much work one run of a workload does."""

    dataset: str
    setups: int  # set-ups timed per run; setup_s is their median
    fits: int = 1  # paper-b1: one-epoch fits per run, each on a fresh set-up
    grids: int = 1  # grid: cold+replay rounds per run
    ops: int = 0  # serve-rw: operations in the closed loop
    chunks: int = 1  # serve-rw: throughput is the median over this many chunks
    checked_reads: int = 0  # serve-rw: reads compared with the offline top-K


FULL = {
    "paper-b1": Size("ml-100k", setups=9, fits=2),
    "grid": Size("tiny", setups=1, grids=6),
    "serve-rw": Size("ml-100k", setups=15, ops=40000, chunks=8, checked_reads=400),
}
#: The traced run does less repetition; its per-layer figures are per run.
TRACED = {
    "paper-b1": Size("ml-100k", setups=3, fits=1),
    "grid": Size("tiny", setups=1, grids=2),
    "serve-rw": Size("ml-100k", setups=3, ops=20000, chunks=1, checked_reads=400),
}
MINI = {
    "paper-b1": Size("ml-100k-small", setups=2, fits=2),
    "grid": Size("tiny", setups=1, grids=1),
    "serve-rw": Size("ml-100k-small", setups=2, ops=600, chunks=2, checked_reads=60),
}

#: serve-rw: every WRITE_EVERY-th operation is a write.
WRITE_EVERY = 20
TOP_K = 10


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Figures only this workload has (printed, not gated; see README).
    details: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Per-layer figures the program counts itself (traced run only).
    counters: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Sum of the timed phases, the base of ``trace.overhead``.
    timed_s: float = 0.0

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


class _Timer:
    seconds = 0.0


class Run:
    """Phase timing for one workload run, with optional tracing."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.timed_s = 0.0

    @contextmanager
    def phase(self, name: str):
        """Time (and trace) the enclosed block as part of the measurement."""
        timer = _Timer()
        span = self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()
        with span:
            start = clock()
            try:
                yield timer
            finally:
                timer.seconds = clock() - start
                self.timed_s += timer.seconds

    def unmeasured(self):
        """Checks and preparation: neither timed nor traced."""
        return self.tracer.paused() if self.tracer else nullcontext()


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# paper-b1
# --------------------------------------------------------------------------- #


def paper_b1(seed: int, size: Size, run: Run, workdir: Path) -> Outcome:
    from repro.data import registry
    from repro.eval.protocol import Evaluator
    from repro.eval.sampling_quality import true_negative_rate
    from repro.models.mf import MatrixFactorization
    from repro.samplers import make_sampler
    from repro.train.trainer import Trainer, TrainingConfig

    setups: List[float] = []
    trainers = []
    for _ in range(size.setups):
        with run.phase("setup") as timer:
            dataset = registry.load_dataset(
                size.dataset, seed=seed, force_synthetic=True
            )
            model = MatrixFactorization(dataset.n_users, dataset.n_items, seed=seed)
            trainer = Trainer(
                model, dataset, make_sampler("bns"), TrainingConfig(epochs=1, seed=seed)
            )
        setups.append(timer.seconds)
        trainers = (trainers + [trainer])[-size.fits :]
    fit_s = 0.0
    for trainer in trainers:
        with run.phase("train") as fit:
            trainer.fit()
        fit_s += fit.seconds
    with run.phase("eval"):
        metrics = [Evaluator(t.dataset).evaluate(t.model) for t in trainers]

    out = Outcome(timed_s=run.timed_s)
    with run.unmeasured():
        epochs = [t.history[0] for t in trainers]
        train = trainers[0].dataset.train
        in_train = [train.contains_pairs(e.users, e.neg_items) for e in epochs]
        out.attempted = sum(e.n_triples for e in epochs)
        out.failed = int(sum(flags.sum() for flags in in_train))
        out.checks = {
            "negatives_not_train_positives": out.failed == 0,
            "all_pairs_trained": all(e.n_triples == train.n_interactions for e in epochs),
            "fits_repeat_exactly": all(
                np.array_equal(e.neg_items, epochs[0].neg_items) for e in epochs
            ),
            "loss_finite": all(np.isfinite(e.mean_loss) for e in epochs),
            "ndcg20_in_unit_interval": all(0.0 <= m["ndcg@20"] <= 1.0 for m in metrics),
        }
        tnr = true_negative_rate(trainers[0].dataset, epochs[0].users, epochs[0].neg_items)
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (out.attempted / fit_s, "1/s"),
        "quality": (tnr, "ratio"),
    }
    return out


# --------------------------------------------------------------------------- #
# grid
# --------------------------------------------------------------------------- #


def grid(seed: int, size: Size, run: Run, workdir: Path) -> Outcome:
    from repro.experiments.engine import ArtifactStore, ExperimentEngine
    from repro.experiments.engine.executor import load_dataset_cached
    from repro.experiments.run_all import gather_requests, run_all

    setups: List[float] = []
    rates: List[float] = []
    replays: List[float] = []
    qualities: List[float] = []
    out = Outcome()
    engine_hits = engine_misses = engine_retried = 0
    for g in range(size.grids):
        grid_seed = seed * 1000 + g
        store_dir = workdir / f"grid-{g}"
        with run.phase("setup") as timer:
            requests = gather_requests("unit", grid_seed, dataset=size.dataset)
            for name, dataset_seed in sorted(
                {(r.spec.dataset, r.resolved_dataset_seed) for r in requests}
            ):
                load_dataset_cached(name, dataset_seed)
            cold_engine = ExperimentEngine(ArtifactStore(store_dir))
        setups.append(timer.seconds)
        with run.phase("cold") as cold_timer:
            cold = run_all("unit", grid_seed, dataset=size.dataset, engine=cold_engine)
        replay_engine = ExperimentEngine(ArtifactStore(store_dir))
        with run.phase("replay") as replay_timer:
            replay = run_all(
                "unit", grid_seed, dataset=size.dataset, engine=replay_engine
            )
        rates.append(cold.misses / cold_timer.seconds)
        replays.append(replay_timer.seconds)
        for engine in (cold_engine, replay_engine):
            engine_hits += engine.stats.hits
            engine_misses += engine.stats.misses
            engine_retried += sum(engine.executor.retry_counts.values())

        with run.unmeasured():
            # Every request is in both engines' memos now: these are lookups.
            cold_payloads = _payloads(cold_engine.run_many(requests))
            replay_payloads = _payloads(replay_engine.run_many(requests))
            differing = sum(
                cold_payloads[key] != replay_payloads.get(key) for key in cold_payloads
            )
            metrics = [json.loads(p)["metrics"] for p in cold_payloads.values()]
            ndcg = [m["ndcg@20"] for m in metrics if "ndcg@20" in m]
            out.attempted += cold.n_runs
            out.failed += differing
            _all(
                out.checks,
                "replay_equals_cold",
                differing == 0 and set(cold_payloads) == set(replay_payloads),
            )
            _all(
                out.checks,
                "replay_trains_nothing",
                replay.misses == 0 and replay_engine.stats.misses == 0,
            )
            _all(out.checks, "cold_trains_every_run", cold.misses == cold.n_runs)
            _all(
                out.checks,
                "ndcg20_in_unit_interval",
                bool(ndcg) and all(0.0 <= v <= 1.0 for v in ndcg),
            )
            qualities.append(float(np.mean(ndcg)) if ndcg else 0.0)
            shutil.rmtree(store_dir)

    out.timed_s = run.timed_s
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (median(rates), "1/s"),
        "quality": (float(np.mean(qualities)), "ratio"),
    }
    out.details = {"replay_s": (median(replays), "s")}
    out.counters = {
        "engine.hits": (engine_hits, "count"),
        "engine.misses": (engine_misses, "count"),
        "engine.retried": (engine_retried, "count"),
    }
    return out


def _all(checks: Dict[str, bool], name: str, ok: bool) -> None:
    """AND ``ok`` into the check ``name`` (one check across all grids)."""
    checks[name] = checks.get(name, True) and ok


def _payloads(results) -> Dict[str, str]:
    """Run key → canonical JSON of its payload."""
    return {r.key: json.dumps(r.payload, sort_keys=True) for r in results}


# --------------------------------------------------------------------------- #
# serve-rw
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Stream:
    """A pre-generated closed-loop operation stream."""

    users: List[int]
    items: List[int]  # the appended item for writes, -1 for reads
    checked: np.ndarray  # read positions compared with the offline top-K


def make_stream(train, n_ops: int, n_checked: int, seed: int) -> Stream:
    """Zipf(1) reads; every WRITE_EVERY-th op appends one unseen pair.

    Writes pick their user from the same Zipf law, so hot users' cache
    entries are invalidated and re-read.  The checked reads are a seeded
    sample plus the first read of each written user after its write.
    """
    rng = np.random.default_rng([seed, 0x5E27E])
    n_users, n_items = train.n_users, train.n_items
    weights = 1.0 / np.arange(1, n_users + 1)
    by_rank = rng.permutation(n_users)
    users = by_rank[rng.choice(n_users, size=n_ops, p=weights / weights.sum())]
    is_write = (np.arange(n_ops) % WRITE_EVERY) == WRITE_EVERY - 1
    items = np.full(n_ops, -1, dtype=np.int64)
    written: Dict[int, set] = {}
    for position in np.flatnonzero(is_write).tolist():
        user = int(users[position])
        seen = written.setdefault(user, set(train.items_of(user).tolist()))
        while True:
            item = int(rng.integers(n_items))
            if item not in seen:
                break
        seen.add(item)
        items[position] = item

    reads = np.flatnonzero(~is_write)
    checked = set(rng.choice(reads, size=min(n_checked, reads.size), replace=False).tolist())
    awaiting = set()
    for position in range(n_ops):
        user = int(users[position])
        if is_write[position]:
            awaiting.add(user)
        elif user in awaiting and len(checked) < 2 * n_checked:
            awaiting.discard(user)
            checked.add(position)
    return Stream(users.tolist(), items.tolist(), np.array(sorted(checked), dtype=np.int64))


def serve_rw(seed: int, size: Size, run: Run, workdir: Path) -> Outcome:
    from repro.data import registry
    from repro.models.mf import MatrixFactorization
    from repro.models.persistence import save_model
    from repro.serve.service import RankingService

    with run.unmeasured():
        dataset = registry.load_dataset(size.dataset, seed=seed, force_synthetic=True)
        model = MatrixFactorization(dataset.n_users, dataset.n_items, seed=seed)
        checkpoint = workdir / "model.npz"
        save_model(model, checkpoint)
        stream = make_stream(dataset.train, size.ops, size.checked_reads, seed)

    setups: List[float] = []
    for _ in range(size.setups):
        with run.phase("setup") as timer:
            service = RankingService.from_checkpoint(checkpoint, dataset.train)
            service.warmup()
        setups.append(timer.seconds)

    n_ops = len(stream.users)
    latency = [0.0] * n_ops
    answers: List[Optional[np.ndarray]] = [None] * n_ops
    errors: List[Tuple[int, str]] = []
    top_k, add_interactions = service.top_k, service.add_interactions
    bounds = np.linspace(0, n_ops, size.chunks + 1).astype(int).tolist()
    stamps = []
    with run.phase("loop"):
        for position, (user, item) in enumerate(zip(stream.users, stream.items)):
            if position == bounds[len(stamps)]:
                stamps.append(clock())
            start = clock()
            try:
                if item < 0:
                    answers[position] = top_k(user, TOP_K)
                else:
                    add_interactions((user,), (item,))
            except Exception as error:  # counted as a failed operation
                errors.append((position, repr(error)))
            latency[position] = clock() - start
        stamps.append(clock())

    out = Outcome(timed_s=run.timed_s)
    with run.unmeasured():
        items = np.array(stream.items)
        lat_ms = np.array(latency) * 1e3
        reads = items < 0
        stats = service.stats
        bad = _check_reads(stream, answers, dataset.train, model)
        out.attempted = n_ops
        out.failed = len(errors) + stats.degraded + len(bad["seen"] | bad["wrong"])
        out.checks = {
            "no_errors": not errors,
            "no_degraded_answers": stats.degraded == 0,
            "no_seen_items_served": not bad["seen"],
            "checked_reads_match_offline": not bad["wrong"],
            "every_write_applied": stats.appends == int((~reads).sum()),
        }
        checked = stream.checked.size
        agree = (checked - len(bad["wrong"])) / checked if checked else 0.0
        coalescer = service.coalescer_stats

    out.metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (float(median(np.diff(bounds) / np.diff(stamps))), "1/s"),
        "quality": (agree, "ratio"),
    }
    out.details = {
        "read_p50_ms": (float(np.percentile(lat_ms[reads], 50)), "ms"),
        "read_p99_ms": (float(np.percentile(lat_ms[reads], 99)), "ms"),
        "write_p50_ms": (float(np.percentile(lat_ms[~reads], 50)), "ms"),
    }
    out.counters = {
        "serve.hit_rate": (stats.hit_rate, "ratio"),
        "serve.invalidated": (stats.invalidated, "count"),
        "serve.degraded": (stats.degraded, "count"),
        "serve.coalescer.batches": (coalescer.batches, "count"),
        "serve.coalescer.mean_batch_size": (coalescer.mean_batch_size, "count"),
    }
    return out


def _check_reads(stream: Stream, answers, base_train, model) -> Dict[str, set]:
    """Positions of reads that served a seen item, and checked reads whose
    list differs from the offline top-K over the interactions current when
    the read was served."""
    from repro.eval.topk import top_k_items_batch

    appended: Dict[int, List[Tuple[int, int]]] = {}
    for position, (user, item) in enumerate(zip(stream.users, stream.items)):
        if item >= 0:
            appended.setdefault(user, []).append((position, item))

    def seen_at(user: int, position: int) -> np.ndarray:
        later = [item for at, item in appended.get(user, ()) if at < position]
        return np.concatenate([base_train.items_of(user), np.array(later, dtype=np.int64)])

    seen_bad = set()
    for position, answer in enumerate(answers):
        if answer is None:
            continue
        user = stream.users[position]
        if np.isin(answer, seen_at(user, position)).any():
            seen_bad.add(position)

    wrong = set()
    for position in stream.checked.tolist():
        answer = answers[position]
        user = stream.users[position]
        block = np.array(model.scores_batch(np.array([user])), dtype=np.float64)
        block[0, seen_at(user, position)] = -np.inf
        ids, lengths = top_k_items_batch(block, TOP_K)
        if answer is None or not np.array_equal(answer, ids[0, : lengths[0]]):
            wrong.add(position)
    return {"seen": seen_bad, "wrong": wrong}


WORKLOADS: Dict[str, Callable[[int, Size, Run, Path], Outcome]] = {
    "paper-b1": paper_b1,
    "grid": grid,
    "serve-rw": serve_rw,
}
