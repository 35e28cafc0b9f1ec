"""Scan kernels: the cached-block fast path and who gets it.

The generic batch pipeline (the :mod:`repro.core.blockscan` driver over
the per-format block compute, e.g. :mod:`repro.core.scan_batch`) walks
the same tokenize -> convert -> vectorize machinery for every block,
including the blocks a warm query finds fully cached. This package
decides, per scan *shape* — a (format, schema, projected columns,
predicate shape) signature — whether a scan may serve such blocks
through one plain fast-path function instead (probe the block with
side-effect-free peeks, then perform the generic charge sequence and
hand out the cached arrays), and remembers the decision beside the
session's prepared-statement plan cache.

Layering:

- :mod:`repro.kernels.signature` — shape derivation and cache keys
  (parameter slots excluded, so ``?`` re-binds never rebind);
- :mod:`repro.kernels.fastpath` — the fast-path function itself and
  :func:`compile_kernel`, which wraps it as a :class:`KernelProgram`
  for an eligible spec (the name is historical: nothing is generated
  or compiled);
- :mod:`repro.kernels.cache` — the per-session LRU ``KernelCache``,
  invalidated on catalog ``stats_epoch`` bumps;
- :func:`attach_kernels` — walks a planned query's scan leaves and
  pins programs (or ineligibility reasons) onto each ``ScanOp``, which
  EXPLAIN surfaces as ``kernel: <sig> (hit|compiled)`` /
  ``kernel: none (<reason>)``.

The kernel path is gated by ``config.scan_kernels`` (env
``REPRO_SCAN_KERNELS``) and is contractually bit-identical to the
generic path — results, PM/cache contents, cost counters and the
virtual clock — at any worker count; a block the fast path cannot
serve bails out to the generic code per block, never per query.
"""

from __future__ import annotations

from repro.kernels.cache import KernelCache
from repro.kernels.fastpath import (
    KERNEL_BAILOUT,
    KernelProgram,
    compile_kernel,
)
from repro.kernels.signature import KernelSpec, scan_kernel_spec

__all__ = [
    "KERNEL_BAILOUT",
    "KernelCache",
    "KernelProgram",
    "KernelSpec",
    "attach_kernels",
    "compile_kernel",
    "iter_scan_ops",
    "kernel_report",
    "scan_kernel_spec",
]


def iter_scan_ops(root):
    """Every :class:`~repro.sql.operators.ScanOp` reachable from
    ``root`` (a planned operator tree), discovered generically so new
    operator kinds never silently hide their scan leaves."""
    from repro.sql.operators import PlanOp, ScanOp

    stack = [root]
    seen: set[int] = set()
    while stack:
        op = stack.pop()
        if id(op) in seen or not isinstance(op, PlanOp):
            continue
        seen.add(id(op))
        if isinstance(op, ScanOp):
            yield op
            continue
        for value in vars(op).values():
            if isinstance(value, PlanOp):
                stack.append(value)
            elif isinstance(value, (list, tuple)):
                stack.extend(v for v in value if isinstance(v, PlanOp))


def attach_kernels(kernels: KernelCache, model, config, planned,
                   stats_epoch: int) -> int:
    """Attach kernel programs to every eligible scan leaf of
    ``planned`` (a :class:`~repro.sql.planner.PlannedQuery`).

    Returns the number of kernel-equipped scans. Each ``ScanOp`` gets
    ``kernel`` (a :class:`KernelProgram` or None) and ``kernel_info``
    (the EXPLAIN string) set. A program bound on a cache miss charges
    one zero-priced ``kernel_compiles`` event against ``model``; per-
    execution ``kernel_hits`` are charged by the session at execute
    time, so re-executes of a prepared statement show hits with no
    rebinds.
    """
    attached = 0
    enabled = bool(getattr(config, "scan_kernels", False))
    if model is None:  # pragma: no cover - defensive
        enabled = False
    for scan_op in iter_scan_ops(planned.root):
        if not enabled:
            scan_op.kernel = None
            scan_op.kernel_info = "none (scan_kernels disabled)"
            continue
        spec, reason = scan_kernel_spec(scan_op)
        if spec is None:
            scan_op.kernel = None
            scan_op.kernel_info = f"none ({reason})"
            continue
        program, how = kernels.lookup(spec, stats_epoch)
        if how == "compiled":
            model.kernel_compile()
        scan_op.kernel = program
        scan_op.kernel_info = f"{spec.signature} ({how})"
        attached += 1
    return attached


def kernel_report(planned) -> list[str]:
    """EXPLAIN annotation lines for a kernel-attached plan: one
    ``kernel: <sig> (hit|compiled)`` / ``kernel: none (<reason>)`` row
    per scan leaf. Rendered by the session as extra ``EXPLAIN`` rows —
    kernel state is session-local, so it stays out of the plan summary
    dict (see ``ScanOp.describe``)."""
    lines: list[str] = []
    for scan_op in iter_scan_ops(planned.root):
        info = getattr(scan_op, "kernel_info", None)
        if info is None:
            continue
        table = getattr(scan_op, "table_name", None)
        suffix = f" [{table}]" if table else ""
        lines.append(f"kernel: {info}{suffix}")
    return lines
