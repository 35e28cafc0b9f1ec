"""Kernel signatures: the cache key of a scan kernel.

A kernel is bound for one *shape* of scan — the (format, schema,
projected columns, predicate shape) tuple. Literal constants and
``?``-parameter values are deliberately **excluded**: the fast path
evaluates the planner's vectorized predicate (whose parameter closures
read their slots at mask-build time), so re-binding a prepared
statement re-uses the same kernel.

``scan_kernel_spec`` inspects one planned :class:`~repro.sql.operators.
ScanOp` and returns either a :class:`KernelSpec` (eligible shape) or
a human-readable ineligibility reason that EXPLAIN surfaces as
``kernel: none (<reason>)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.sql import ast_nodes as _ast
from repro.sql.vectorize import build_vector_predicate

#: access classes whose scans implement the fast path's format hooks
_ACCESS_KINDS = {
    "RawCsvAccess": "csv",
    "JsonlAccess": "jsonl",
}


@dataclass(frozen=True)
class KernelSpec:
    """One scan shape, plus its cache identity.

    ``key`` is the full collision-free cache key; ``signature`` is the
    short display form (``<kind>:<hash8>``) shown in EXPLAIN and cost
    ledgers.
    """

    kind: str                 # 'csv' | 'jsonl'
    arity: int
    families: tuple           # per-attribute type family, full schema
    out_attrs: tuple          # SELECT attrs in scan emission order
    where_attrs: tuple        # predicate attrs in planner order
    union_attrs: tuple        # sorted(out | where)
    n_terms: int              # predicate conjunct count (0 = no WHERE)
    has_predicate: bool
    key: str
    signature: str


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


def scan_kernel_spec(scan_op):
    """``(KernelSpec, None)`` when ``scan_op`` has an eligible shape,
    else ``(None, reason)``."""
    access = scan_op.access
    kind = _ACCESS_KINDS.get(type(access).__name__)
    if kind is None:
        if getattr(scan_op, "partitions", None) is not None or \
                type(access).__name__ == "PartitionedAccess":
            return None, "partitioned table"
        return None, f"unsupported access ({type(access).__name__})"
    if not getattr(access, "batch_enabled", False):
        return None, "batch mode off"
    predicate = scan_op.predicate
    if predicate is not None and predicate.vector_fn is None:
        return None, _not_vectorizable(predicate.conjuncts)

    schema = access.schema
    families = tuple(t.family for t in schema.types)
    out_attrs = tuple(scan_op.needed)
    where_attrs = tuple(predicate.attrs) if predicate is not None else ()
    union_attrs = tuple(sorted(set(out_attrs) | set(where_attrs)))
    n_terms = predicate.n_terms if predicate is not None else 0
    pred_shape = ("&".join(_shape(c) for c in predicate.conjuncts)
                  if predicate is not None else "-")

    key = "|".join((
        kind,
        f"a{schema.arity}",
        ",".join(families),
        "o:" + ",".join(str(a) for a in out_attrs),
        "w:" + ",".join(str(a) for a in where_attrs),
        f"t{n_terms}",
        pred_shape,
    ))
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:8]
    spec = KernelSpec(
        kind=kind,
        arity=schema.arity,
        families=families,
        out_attrs=out_attrs,
        where_attrs=where_attrs,
        union_attrs=union_attrs,
        n_terms=n_terms,
        has_predicate=predicate is not None,
        key=key,
        signature=f"{kind}:{digest}",
    )
    return spec, None
