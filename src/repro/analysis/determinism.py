"""Determinism rules: R001 (global RNG), R002 (wallclock), R005 (set order).

These are the "a run must be a pure function of its spec" rules.  They
share one mechanism: resolve every call's function expression to a dotted
module path through the file's import table (``import numpy as np`` makes
``np.random.rand`` resolve to ``numpy.random.rand``), then match the
dotted name against the rule's forbidden set.  Resolution is purely
syntactic — a local variable that happens to shadow an import alias can
fool it — which is the right trade for a repo linter: zero false
negatives on idiomatic code, and the escape hatch for intentional uses is
an auditable ``# repro: noqa[Rxxx] -- why`` rather than cleverness.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.framework import LintContext, ModuleFile, Rule, register

__all__ = ["GlobalRNGRule", "WallclockRule", "UnorderedIterationRule"]


# ---------------------------------------------------------------------- #
# Shared import/name resolution
# ---------------------------------------------------------------------- #


def build_import_table(tree: ast.Module) -> Dict[str, str]:
    """Map each bound alias to the dotted name it refers to.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``import numpy.random`` → ``{"numpy": "numpy"}`` (binds the root);
    ``from numpy import random as nr`` → ``{"nr": "numpy.random"}``;
    ``from time import time`` → ``{"time": "time.time"}``.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                table[bound] = f"{node.module}.{alias.name}"
    return table


def resolve_dotted(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.rand`` style expressions to dotted module paths.

    Returns ``None`` when the expression's root is not an import alias
    (e.g. ``self.rng.random`` — an instance attribute, not a module).
    """
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = imports.get(current.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------- #
# R001 — no global RNG
# ---------------------------------------------------------------------- #

#: numpy.random attributes that are *types/seeding machinery*, not draws
#: from the hidden global state; referencing them is fine anywhere.
_NUMPY_RNG_TYPES = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: The one module allowed to construct generators from seeds: everything
#: else receives a ``numpy.random.Generator`` through parameters.
_RNG_SEAM_SUFFIX = "repro/utils/rng.py"


@register
class GlobalRNGRule(Rule):
    """R001: randomness must flow through ``numpy.random.Generator`` params.

    Module-level RNG (``np.random.rand``, ``random.choice``, …) draws from
    hidden process-global state: two call sites that reorder, a worker
    process that forks, or an unrelated library seeding the global stream
    all silently change "reproducible" results.  The repo's contract is
    that every draw comes from a generator threaded through parameters
    (constructed only in ``repro.utils.rng``), which is also what the
    scalar/batched RNG-parity tests rely on.
    """

    id = "R001"
    title = "no-global-RNG"
    invariant = (
        "every random draw consumes an explicitly passed "
        "numpy.random.Generator; no hidden global RNG state"
    )

    def check_file(
        self, module: ModuleFile, context: LintContext
    ) -> Iterator[Diagnostic]:
        imports = build_import_table(module.tree)
        is_rng_seam = module.relpath.endswith(_RNG_SEAM_SUFFIX)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import(module, node, is_rng_seam)
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted is None:
                continue
            finding = self._check_call(module, node, dotted, is_rng_seam)
            if finding is not None:
                yield finding

    def _check_import(
        self, module: ModuleFile, node: ast.ImportFrom, is_rng_seam: bool
    ) -> Iterator[Diagnostic]:
        if node.module == "numpy.random":
            for alias in node.names:
                allowed = alias.name in _NUMPY_RNG_TYPES or (
                    alias.name == "default_rng" and is_rng_seam
                )
                if not allowed:
                    yield self.diagnostic(
                        module.path,
                        node,
                        f"import of numpy.random.{alias.name} pulls "
                        "global-RNG machinery into the module",
                        hint="accept a numpy.random.Generator parameter and "
                        "call its methods (repro.utils.rng.as_rng converts "
                        "seeds at the boundary)",
                    )
        elif node.module == "random":
            yield self.diagnostic(
                module.path,
                node,
                "import from the stdlib `random` module (process-global "
                "Mersenne Twister state)",
                hint="use the bound numpy.random.Generator instead",
            )

    def _check_call(
        self, module: ModuleFile, node: ast.Call, dotted: str, is_rng_seam: bool
    ) -> Optional[Diagnostic]:
        if dotted.startswith("numpy.random."):
            tail = dotted[len("numpy.random.") :]
            if tail in _NUMPY_RNG_TYPES:
                return None
            if tail == "default_rng" and is_rng_seam:
                return None
            return self.diagnostic(
                module.path,
                node,
                f"call to {dotted} uses numpy's hidden global RNG state",
                hint="thread a numpy.random.Generator through parameters; "
                "generators are constructed only in repro.utils.rng",
            )
        if dotted == "random" or dotted.startswith("random."):
            return self.diagnostic(
                module.path,
                node,
                f"call to stdlib {dotted} uses process-global RNG state",
                hint="use the bound numpy.random.Generator instead",
            )
        return None


# ---------------------------------------------------------------------- #
# R002 — no wallclock/entropy in keyed paths
# ---------------------------------------------------------------------- #

#: Exact dotted names that read the wallclock or OS entropy.
_WALLCLOCK_EXACT = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
    }
)
#: Whole modules whose every call is entropy/identity generation.
_WALLCLOCK_PREFIXES = ("uuid.", "secrets.")

#: Path fragments that mark the content-addressed / sampling code paths,
#: plus the serving layer (served lists are pinned bitwise to the offline
#: evaluator, so wallclock must never influence what gets served —
#: ``perf_counter``/``monotonic`` duration measurement stays allowed).
_KEYED_PATH_MARKERS = ("/experiments/engine/", "/samplers/", "/serve/")


def in_keyed_path(relpath: str) -> bool:
    """True for modules whose outputs feed ``run_key`` or sampling."""
    probe = "/" + relpath
    return any(marker in probe for marker in _KEYED_PATH_MARKERS)


@register
class WallclockRule(Rule):
    """R002: no wallclock/entropy reads where ``run_key`` or samplers live.

    The experiment cache equates "same request" with "same payload": a
    ``time.time()``, ``datetime.now()``, ``uuid4()`` or ``os.urandom()``
    anywhere under ``experiments/engine/`` or ``samplers/`` would make a
    cached result depend on *when* it ran — exactly the stale-cache /
    irreproducible-negative failure the content-addressed store exists to
    rule out.  Duration probes (``time.perf_counter``/``monotonic``) stay
    legal: they measure, they do not identify.
    """

    id = "R002"
    title = "no-wallclock-in-keyed-paths"
    invariant = (
        "modules under experiments/engine/ and samplers/ are pure "
        "functions of spec + seed: no wallclock, no OS entropy, no uuids"
    )

    def check_file(
        self, module: ModuleFile, context: LintContext
    ) -> Iterator[Diagnostic]:
        if not in_keyed_path(module.relpath):
            return
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted is None:
                continue
            if dotted in _WALLCLOCK_EXACT or dotted.startswith(
                _WALLCLOCK_PREFIXES
            ):
                yield self.diagnostic(
                    module.path,
                    node,
                    f"call to {dotted} in a keyed path: anything under "
                    "experiments/engine/ or samplers/ must be a pure "
                    "function of (spec, seed)",
                    hint="move wallclock/entropy to the reporting layer, or "
                    "pass the value in as explicit request data",
                )


# ---------------------------------------------------------------------- #
# R005 — no unordered iteration feeding arrays/serialization
# ---------------------------------------------------------------------- #

#: Call targets treated as order-sensitive sinks for their arguments.
_ARRAY_SINKS = frozenset(
    {
        "numpy.array",
        "numpy.asarray",
        "numpy.fromiter",
        "numpy.concatenate",
        "numpy.stack",
        "json.dumps",
        "json.dump",
    }
)
_BUILTIN_SINKS = frozenset({"list", "tuple"})


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically set-valued: literal, comprehension, set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (s1 | s2, s1 - s2, …) stays set-valued.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_keys_or_values(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values")
        and not node.args
        and not node.keywords
    )


@register
class UnorderedIterationRule(Rule):
    """R005: iteration order over sets must not reach arrays or output.

    ``set`` iteration order depends on element hashes and insertion
    history — under ``PYTHONHASHSEED`` randomization (strings!) it is not
    even stable across interpreter runs.  Feeding it into numpy
    construction, serialization, or any loop whose side effects are
    order-dependent silently breaks bitwise reproducibility.  The fix is
    one word: ``sorted(...)``.  ``dict``/``.keys()`` order is
    insertion-deterministic, so it is only flagged when handed *directly*
    to an array constructor or serializer, where insertion history is an
    accidental, invisible input.
    """

    id = "R005"
    title = "nondeterministic-iteration"
    invariant = (
        "no unordered-set iteration order reaches numpy arrays, "
        "serialization, or loop side effects; wrap in sorted(...)"
    )

    _HINT = "iterate sorted(...) so the order is a function of the data"

    def check_file(
        self, module: ModuleFile, context: LintContext
    ) -> Iterator[Diagnostic]:
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                if _is_set_expr(node.iter):
                    yield self._finding(module, node.iter, "for-loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        yield self._finding(module, generator.iter, "comprehension")
            elif isinstance(node, ast.Call):
                yield from self._check_sink(module, node, imports)

    def _check_sink(
        self, module: ModuleFile, node: ast.Call, imports: Dict[str, str]
    ) -> Iterator[Diagnostic]:
        dotted = resolve_dotted(node.func, imports)
        is_array_sink = dotted in _ARRAY_SINKS
        is_builtin_sink = (
            isinstance(node.func, ast.Name) and node.func.id in _BUILTIN_SINKS
        )
        if not (is_array_sink or is_builtin_sink):
            return
        sink = dotted if is_array_sink else node.func.id
        for arg in node.args:
            if _is_set_expr(arg):
                yield self._finding(module, arg, f"argument to {sink}")
            elif is_array_sink and _is_keys_or_values(arg):
                yield self.diagnostic(
                    module.path,
                    arg,
                    f".{arg.func.attr}() handed directly to {sink}: the "
                    "result inherits dict insertion history as an "
                    "invisible ordering input",
                    hint=self._HINT,
                )

    def _finding(
        self, module: ModuleFile, node: ast.expr, where: str
    ) -> Diagnostic:
        return self.diagnostic(
            module.path,
            node,
            f"unordered set iterated in {where}: iteration order is not a "
            "function of the data (hash/insertion dependent)",
            hint=self._HINT,
        )
