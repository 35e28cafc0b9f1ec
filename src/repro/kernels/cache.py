"""Who gets the fast path: one decision per scan, one line per EXPLAIN.

:func:`compile_kernel` is asked once by every
:class:`~repro.core.blockscan.BlockScan` — whatever started it: a
session, ``Database.query``, a rollup build, a partitioned table's
per-file child — whether its indexed blocks may try
:func:`~repro.kernels.fastpath.cached_block` first. Nothing is
generated, bound or remembered between scans, so there is nothing to
key, cache or invalidate; the name and the module are historical (the
e2e benchmark's tracer times this call as its ``kernels.compile``
span, through this module's global).

:func:`explain_note` renders the static half of the same decision —
the configuration and the predicate, known at plan time — as the
``kernel: cached-block`` / ``kernel: none (<reason>)`` EXPLAIN row.
What only the scan can know (a §4.4 collector still sampling, a block
not yet cached) shows at run time in the zero-priced ``kernel_hits`` /
``kernel_bailouts`` counters, one unit per indexed block.
"""

from __future__ import annotations

from repro.kernels.fastpath import cached_block
from repro.sql import ast_nodes as _ast
from repro.sql.vectorize import build_vector_predicate


def _servable(access) -> bool:
    """Whether ``access`` block-scans over a binary cache and a
    positional map: FITS has no map, heap and external tables no scan."""
    return (getattr(access, "scan_class", None) is not None
            and access.cache is not None and access.pm is not None)


def compile_kernel(scan):
    """:func:`~repro.kernels.fastpath.cached_block` when ``scan`` may
    serve its indexed blocks through it, else None: kernels enabled, a
    servable access method, no statistics collector (sampling needs the
    values the generic compute materializes) and a predicate that is
    absent or vectorized."""
    predicate = scan.predicate
    if (scan.config.scan_kernels and _servable(scan.access)
            and scan.collector is None
            and (predicate is None or predicate.vector_fn is not None)):
        return cached_block
    return None


def explain_note(scan_op) -> str | None:
    """The ``kernel:`` EXPLAIN note of one scan leaf, or None when its
    access method is not servable (:func:`_servable`). A partitioned
    table is judged by its files' access method."""
    access = scan_op.access
    parts = getattr(access, "parts", None)
    if parts:
        access = parts[0].access
    if not _servable(access):
        return None
    if not access.config.scan_kernels:
        return "none (scan_kernels disabled)"
    predicate = scan_op.predicate
    if predicate is not None and predicate.vector_fn is None:
        return f"none ({_not_vectorizable(predicate.conjuncts)})"
    return "cached-block"


def _shape(node) -> str:
    """Render one predicate AST as a value-free shape string."""
    if node is None:
        return "_"
    if isinstance(node, _ast.ColumnRef):
        return "c:" + str(node.name).lower()
    if isinstance(node, _ast.Parameter):
        return "?"
    if isinstance(node, _ast.Literal):
        return "lit"
    if isinstance(node, _ast.IntervalLiteral):
        return "interval"
    if isinstance(node, _ast.BinaryOp):
        return f"({_shape(node.left)}{node.op}{_shape(node.right)})"
    if isinstance(node, _ast.UnaryOp):
        return f"({node.op} {_shape(node.operand)})"
    if isinstance(node, _ast.Between):
        neg = "not-" if node.negated else ""
        return (f"({_shape(node.operand)} {neg}between "
                f"{_shape(node.low)},{_shape(node.high)})")
    if isinstance(node, _ast.InList):
        neg = "not-" if node.negated else ""
        items = ",".join(_shape(item) for item in node.items)
        return f"({_shape(node.operand)} {neg}in [{items}])"
    if isinstance(node, _ast.IsNull):
        neg = "not-" if node.negated else ""
        return f"({_shape(node.operand)} is {neg}null)"
    if isinstance(node, _ast.LikeExpr):
        neg = "not-" if node.negated else ""
        return f"({_shape(node.operand)} {neg}like lit)"
    if isinstance(node, _ast.FuncCall):
        args = ",".join(_shape(a) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, _ast.CaseExpr):
        return "case"
    return type(node).__name__.lower()


def _not_vectorizable(conjuncts) -> str:
    """The ineligibility reason for a row-closure predicate, naming the
    shape of the first conjunct the vectorizer does not cover — the
    next uncovered shape is visible in EXPLAIN, no profiler needed."""
    def any_column(node):
        return 0 if isinstance(node, _ast.ColumnRef) else None

    for conjunct in conjuncts:
        if build_vector_predicate([conjunct], any_column) is None:
            return f"predicate not vectorizable: {_shape(conjunct)}"
    return "predicate not vectorizable"
