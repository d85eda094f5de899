"""Kernel-seam rules: R007 (no direct numpy dense algebra in kernels).

:data:`repro.backend.KERNELS` names every hot dense contraction — model
scoring, the evaluator's score blocks, serving's ranking blocks — so the
contractions live in one module and a profiler can count or time each
one by wrapping one method.  That only holds if the kernel modules
actually *go through the seam*: one stray ``np.einsum`` in a scoring
path is a contraction no kernel count sees.  R007 bans the numpy
dense-algebra entry points in ``models/``, ``eval/`` and ``serve/``; the
backend package itself is exempt (it *is* the seam), and intentional
math outside the scoring kernels — e.g. training-gradient arithmetic —
carries an auditable ``# repro: noqa[R007] -- why``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.determinism import build_import_table, resolve_dotted
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.framework import LintContext, ModuleFile, Rule, register

__all__ = ["BackendSeamRule"]

#: Modules whose dense kernels must route through ``repro.backend``.
_KERNEL_PATH_MARKERS = ("/repro/models/", "/repro/eval/", "/repro/serve/")

#: The backend package holds the kernels themselves — exempt.
_SEAM_PATH_MARKER = "/repro/backend/"

#: numpy's dense-algebra entry points: every one has a ``NumpyBackend``
#: counterpart (``pair_dot``/``gather_dot``/``gemm_nt``/``matvec``/
#: ``spmm``).  Elementwise numpy (``+``, ``np.maximum``, reductions)
#: stays allowed — the seam covers the *contraction* kernels, which is
#: where the time of scoring goes.
_DENSE_ALGEBRA = frozenset(
    {
        "numpy.einsum",
        "numpy.matmul",
        "numpy.dot",
        "numpy.inner",
        "numpy.vdot",
        "numpy.tensordot",
    }
)


def in_kernel_path(relpath: str) -> bool:
    """True for modules whose dense algebra R007 audits."""
    probe = "/" + relpath
    if _SEAM_PATH_MARKER in probe:
        return False
    return any(marker in probe for marker in _KERNEL_PATH_MARKERS)


@register
class BackendSeamRule(Rule):
    """R007: kernel modules call ``repro.backend``, not numpy contractions.

    Scope is ``repro/models/``, ``repro/eval/`` and ``repro/serve/``.  A
    direct ``np.einsum`` / ``np.matmul`` / ``np.dot`` there bypasses the
    named kernels: its result may be right, but a wrapped
    :class:`~repro.backend.NumpyBackend` method does not count or time it,
    so a per-kernel profile silently misses that work.
    """

    id = "R007"
    title = "backend-seam-purity"
    invariant = (
        "dense contractions in models/eval/serve go through the "
        "repro.backend kernels, never directly through numpy"
    )

    def check_file(
        self, module: ModuleFile, context: LintContext
    ) -> Iterator[Diagnostic]:
        if not in_kernel_path(module.relpath):
            return
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted in _DENSE_ALGEBRA:
                yield self.diagnostic(
                    module.path,
                    node,
                    f"call to {dotted} bypasses the repro.backend kernels",
                    hint="call repro.backend.KERNELS (pair_dot/gather_dot/"
                    "gemm_nt/matvec/spmm), or justify math outside the "
                    "scoring kernels with `# repro: noqa[R007] -- why`",
                )
