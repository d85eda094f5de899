"""In-memory span tracer that wraps the program's public calls from outside.

The benchmark does not edit the program to trace it.  :func:`install`
replaces public methods and module functions of each layer with thin
wrappers that record one span per call (name, start, end, parent span) in
flat arrays, and ``Tracer.uninstall`` puts the originals back.  All calls
come from one thread, so spans nest strictly and a stack gives each span
its parent.

A layer's self time is its spans' duration minus the time covered by
their direct child spans.  A recursive call into the same span name (a
``super()`` call, a base-class fallback) is not recorded again, so the
inner call's time stays in the outer span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Spans with parent ids, plus plain call counters."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._paused = False
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------- #

    def name(self, name: str) -> int:
        """The id of a span name (allocated on first use)."""
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, ident: int) -> int:
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    def _inside(self, ident: int) -> bool:
        return bool(self._stack) and self.name_id[self._stack[-1]] == ident

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(self.name(name))
        try:
            yield
        finally:
            self._close(index)

    def rename(self, index: int, name: str) -> None:
        """Give a recorded span another name (for outcomes known at exit)."""
        self.name_id[index] = self.name(name)

    @contextmanager
    def paused(self):
        """Calls in the enclosed block record nothing (benchmark checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrapping -------------------------------------------------------- #

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per outermost call."""
        ident = self.name(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused or tracer._inside(ident):
                return fn(*args, **kwargs)
            index = tracer._open(ident)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` incrementing a counter per call, no span (for leaf kernels)."""
        counters = self.counters
        counters.setdefault(name, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._paused:
                counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute``; :meth:`uninstall` restores it."""
        had_own = attribute in vars(owner)
        self._patches.append(
            (owner, attribute, vars(owner)[attribute] if had_own else _MISSING)
        )
        setattr(owner, attribute, replacement)

    def wrap(self, owner: object, attribute: str, name: str, *, timed=True):
        """Wrap what ``owner`` (a class or module) resolves for ``attribute``."""
        original = getattr(owner, attribute)
        wrapped = self.timed(original, name) if timed else self.counted(original, name)
        self.patch(owner, attribute, wrapped)

    def wrap_own_methods(self, base: type, attribute: str, name: str) -> None:
        """Wrap ``attribute`` on ``base`` and every subclass defining its own."""
        for cls in [base, *_all_subclasses(base)]:
            if attribute in vars(cls):
                self.wrap(cls, attribute, name)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- aggregation ----------------------------------------------------- #

    def _arrays(self):
        """``(name ids, parent ids, durations, self times)`` of every span."""
        if self._stack:
            raise RuntimeError("spans are still open")
        if not self.start:
            empty = np.zeros(0)
            return np.zeros(0, np.int32), np.zeros(0, np.int32), empty, empty
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return names, parent, duration, duration - child_time

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (total duration), ``self_s``."""
        names, _, duration, self_time = self._arrays()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def accounting(self) -> Tuple[float, float, float]:
        """``(root_s, self_sum_s, min_self_s)`` over all recorded spans.

        Self times partition the root spans' time exactly when spans nest
        properly, so ``self_sum_s`` must equal ``root_s`` and no self time
        may be negative.
        """
        _, parent, duration, self_time = self._arrays()
        if not duration.size:
            return 0.0, 0.0, 0.0
        return (
            float(duration[parent < 0].sum()),
            float(self_time.sum()),
            float(self_time.min()),
        )


_MISSING = object()


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    from repro.backend.numpy_backend import NumpyBackend
    from repro.data import registry
    from repro.data.interactions import InteractionMatrix
    from repro.eval.protocol import Evaluator
    from repro.experiments.engine import executor as executor_module
    from repro.experiments.engine.core import ExperimentEngine
    from repro.experiments.engine.store import ArtifactStore
    from repro.models.base import ScoreModel
    from repro.samplers.base import NegativeSampler
    from repro.samplers.cdf import CDFEstimator
    from repro.serve.service import RankingService
    from repro.train.trainer import Trainer

    # The package re-exports the run_all function under the module's name.
    run_all_module = importlib.import_module("repro.experiments.run_all")
    tracer.wrap(Trainer, "fit", "train.fit")
    for method in ("train_step", "scores", "scores_batch"):
        tracer.wrap_own_methods(ScoreModel, method, f"models.{method}")
    for method in ("sample_for_user", "sample_batch"):
        tracer.wrap_own_methods(NegativeSampler, method, f"samplers.{method}")
    for method in ("cdf_for_user", "cdf_for_batch"):
        tracer.wrap_own_methods(CDFEstimator, method, "samplers.cdf")
    for kernel in ("matvec", "gemm_nt", "gather_dot", "topk"):
        tracer.wrap(NumpyBackend, kernel, f"backend.{kernel}", timed=False)
    tracer.wrap(Evaluator, "evaluate", "eval.evaluate")

    tracer.wrap(ExperimentEngine, "run_many", "engine.run_many")
    tracer.wrap(executor_module, "execute_request", "engine.execute")
    tracer.wrap(ArtifactStore, "store", "store.store")
    tracer.wrap(ArtifactStore, "load", "store.load")
    # run_all looks its assemblers up in its module namespace per call.
    for artifact in ("table1", "table2", "table3", "table4", "fig1", "fig4", "fig5"):
        tracer.wrap(run_all_module, f"run_{artifact}", "experiments.assemble")
    for artifact in ("fig2", "fig3"):
        tracer.wrap(run_all_module, f"run_{artifact}", "experiments.theory")

    tracer.patch(RankingService, "top_k", _split_top_k(tracer, RankingService.top_k))
    tracer.wrap(RankingService, "add_interactions", "serve.add_interactions")

    tracer.wrap(registry, "load_dataset", "data.load_dataset")
    tracer.wrap(InteractionMatrix, "with_appended", "data.with_appended")


def _split_top_k(tracer: Tracer, top_k: Callable) -> Callable:
    """``top_k`` spans named by outcome: a cache hit or a miss."""
    ident = tracer.name("serve.top_k.miss")

    @functools.wraps(top_k)
    def wrapper(service, user, k=10):
        if tracer._paused:
            return top_k(service, user, k)
        hits = service.stats.cache_hits
        index = tracer._open(ident)
        try:
            return top_k(service, user, k)
        finally:
            tracer._close(index)
            if service.stats.cache_hits != hits:
                tracer.rename(index, "serve.top_k.hit")

    return wrapper
